"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the definitions, not by
calling the code under test: repeated-relaxation shortest paths, a
union-find congruence closure over operation tables, a brute-force search
for the largest valid congruence matrix over a value grid, a
backtracking isometry search, the congruence closure and the axiom,
nonexpansiveness and compatibility reports computed directly on Dist
values, equation instances found by evaluating both sides under every
assignment, the bounded free algebra built by substituting terms into
the equations, the bounded homomorphism distance taken over every term of
the window, and generated subalgebras found by applying every operation
to every tuple until nothing new appears.
"""

from __future__ import annotations

import itertools

from quantalg import (
    CapExceededError,
    ConvergenceError,
    Dist,
    INF,
    StructuralError,
    Term,
    ZERO,
    Violation,
    dist_max,
    dist_sum,
    enumerate_terms,
    substitute,
)


def shortest_path_closure(rows):
    """All-pairs shortest paths by repeated relaxation to a fixpoint."""
    n = len(rows)
    m = [list(r) for r in rows]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    alt = m[i][k] + m[k][j]
                    if alt < m[i][j]:
                        m[i][j] = alt
                        changed = True
    return m


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def congruence_closure_partition(algebra, pairs):
    """Classical congruence closure on a finite algebra via union-find.

    Merges the given pairs and propagates through the operation tables
    until stable; returns the partition as a frozenset of frozensets.
    """
    uf = UnionFind(algebra.carrier.points)
    for a, b in pairs:
        uf.union(a, b)
    changed = True
    while changed:
        changed = False
        for name, arity in algebra.signature.symbols:
            tuples = list(itertools.product(algebra.carrier.points, repeat=arity))
            for xs, ys in itertools.combinations(tuples, 2):
                if all(uf.find(x) == uf.find(y) for x, y in zip(xs, ys)):
                    if uf.union(algebra.op(name, xs), algebra.op(name, ys)):
                        changed = True
    classes: dict[str, set[str]] = {}
    for p in algebra.carrier.points:
        classes.setdefault(uf.find(p), set()).add(p)
    return frozenset(frozenset(c) for c in classes.values())


def value_grid(inputs, max_atoms=4):
    """All saturating sums of at most max_atoms input values, plus infinity."""
    finite = sorted({v for v in inputs if not v.is_infinite})
    values = {ZERO, INF}
    values.update(finite)
    frontier = set(finite)
    for _ in range(max_atoms - 1):
        frontier = {a + b for a in frontier for b in finite} - values
        values |= frontier
        if not frontier:
            break
    return sorted(values)


def largest_valid_congruence(algebra, constraints, max_atoms=4):
    """Brute-force the pointwise-largest matrix that is a congruence below
    the carrier metric and the constraint bounds.

    Candidate entries are drawn from the saturating-sum grid over the
    input values.  Valid matrices are closed under pointwise maximum, so
    the largest one is also the lexicographically largest; a descending
    depth-first search returns the first (hence largest) valid matrix.
    """
    carrier = algebra.carrier
    pts = list(carrier.points)
    n = len(pts)
    bound = [[carrier.dist(x, y) for y in pts] for x in pts]
    for x, y, eps in constraints:
        i, j = pts.index(x), pts.index(y)
        e = Dist(eps)
        if e < bound[i][j]:
            bound[i][j] = bound[j][i] = e
    inputs = [carrier.dist(x, y) for x in pts for y in pts]
    inputs += [Dist(eps) for _, _, eps in constraints]
    grid = value_grid(inputs, max_atoms)

    entries = [(i, j) for i in range(n) for j in range(i + 1, n)]
    candidates = [
        sorted({v for v in grid if v <= bound[i][j]} | {bound[i][j]}, reverse=True)
        for i, j in entries
    ]

    op_instances = []
    for name, arity in algebra.signature.symbols:
        tuples = list(itertools.product(pts, repeat=arity))
        for xs, ys in itertools.combinations(tuples, 2):
            out_a, out_b = algebra.op(name, xs), algebra.op(name, ys)
            if out_a != out_b:
                op_instances.append((list(zip(xs, ys)), out_a, out_b))

    m = [[ZERO] * n for _ in range(n)]

    def get(x, y):
        return m[pts.index(x)][pts.index(y)]

    def valid():
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if m[i][j] > m[i][k] + m[k][j]:
                        return False
        for coords, out_a, out_b in op_instances:
            limit = ZERO
            for x, y in coords:
                v = get(x, y)
                if v > limit:
                    limit = v
            if get(out_a, out_b) > limit:
                return False
        return True

    def search(level):
        if level == len(entries):
            return valid()
        i, j = entries[level]
        for v in candidates[level]:
            m[i][j] = m[j][i] = v
            if search(level + 1):
                return True
        return False

    if not search(0):
        raise AssertionError("no valid matrix found; the zero matrix should always work")
    return [[m[i][j] for j in range(n)] for i in range(n)]


def find_isometry(space_a, space_b):
    """A distance-preserving bijection between two finite spaces, or None.

    Exhaustive backtracking over point assignments, pruning on the first
    mismatched distance.
    """
    if space_a.n != space_b.n:
        return None
    a_pts = list(space_a.points)
    b_pts = list(space_b.points)
    assigned: dict[str, str] = {}
    used: set[str] = set()

    def extend(k):
        if k == len(a_pts):
            return True
        x = a_pts[k]
        for y in b_pts:
            if y in used:
                continue
            if all(
                space_b.dist(y, assigned[prev]) == space_a.dist(x, prev)
                for prev in a_pts[:k]
            ):
                assigned[x] = y
                used.add(y)
                if extend(k + 1):
                    return True
                del assigned[x]
                used.discard(y)
        return False

    return dict(assigned) if extend(0) else None


def operation_rules(algebra):
    """Every pair of argument tuples with distinct outputs, as
    (coordinate index pairs, left output index, right output index), in
    signature order and lexicographic pair order."""
    pts = list(algebra.carrier.points)
    index = {p: i for i, p in enumerate(pts)}
    rules = []
    for name, arity in algebra.signature.symbols:
        tuples = list(itertools.product(pts, repeat=arity))
        for xs, ys in itertools.combinations(tuples, 2):
            out_l = index[algebra.op(name, xs)]
            out_r = index[algebra.op(name, ys)]
            if out_l != out_r:
                rules.append((tuple((index[x], index[y]) for x, y in zip(xs, ys)), out_l, out_r))
    return rules


def table_rules(table, n):
    """The rules of a list of instances over n points, decoded to the form
    above."""
    rules = []
    for inst in table:
        out_l, out_r = divmod(inst[0], n)
        rules.append((tuple(divmod(c, n) for c in inst[2:]), out_l, out_r))
    return rules


def _floyd_warshall_sweep(m):
    n = len(m)
    changed = False
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            d_ik = m[i][k]
            if d_ik.is_infinite:
                continue
            row_i = m[i]
            for j in range(n):
                alt = d_ik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
                    m[j][i] = alt
                    changed = True
    return changed


def _propagation_sweep(m, rules):
    changed = False
    for coord_pairs, out_l, out_r in rules:
        bound = ZERO
        for i, j in coord_pairs:
            v = m[i][j]
            if v > bound:
                bound = v
            if bound.is_infinite:
                break
        if bound < m[out_l][out_r]:
            m[out_l][out_r] = bound
            m[out_r][out_l] = bound
            changed = True
    return changed


def finite_components_by_search(m, n, inf):
    """The components of a symmetric flat integer matrix under the entries
    below ``inf``, found by breadth-first search from each unvisited point;
    sorted point lists of two or more points, by least point."""
    seen, out = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        queue, found = [s], [s]
        while queue:
            i = queue.pop(0)
            for j in range(n):
                if j not in seen and m[i * n + j] < inf:
                    seen.add(j)
                    queue.append(j)
                    found.append(j)
        if len(found) > 1:
            out.append(sorted(found))
    return out


def closure_sweeps(matrix, rules, pass_cap):
    """The congruence closure on Dist values, in place: full min-plus
    sweeps alternating with propagation sweeps until an alternation
    changes nothing; returns the number of alternations."""
    passes = 0
    while True:
        snapshot = [row[:] for row in matrix]
        changed = _floyd_warshall_sweep(matrix)
        changed = _propagation_sweep(matrix, rules) or changed
        passes += 1
        if not changed:
            return passes
        if passes >= pass_cap:
            raise ConvergenceError(passes, snapshot, [row[:] for row in matrix])


def axiom_report(points, rows, mode=None, base=None):
    """Metric axiom violations of a Dist matrix, checked one by one.

    With ``mode`` ("metric" or "pseudo") the details are those of
    ``space_violations``; with a ``base`` space they are those of
    ``subcongruence_violations``, bound check included.
    """
    pts = list(points)
    n = len(pts)
    out = []
    for i in range(n):
        if rows[i][i] != ZERO:
            detail = f"d = {rows[i][i]}, expected 0" if base is None else f"{rows[i][i]} != 0"
            out.append(Violation("diagonal", (pts[i],), detail))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                out.append(Violation("symmetry", (pts[i], pts[j]), f"{rows[i][j]} vs {rows[j][i]}"))
            elif mode == "metric" and rows[i][j] == ZERO:
                out.append(Violation("separation", (pts[i], pts[j]), "d = 0 for distinct points"))
            if base is not None and rows[i][j] > base.dist_at(i, j):
                detail = f"{rows[i][j]} exceeds base distance {base.dist_at(i, j)}"
                out.append(Violation("bound", (pts[i], pts[j]), detail))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k not in (i, j) and rows[i][j] > rows[i][k] + rows[k][j]:
                    detail = f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                    out.append(Violation("triangle", (pts[i], pts[k], pts[j]), detail))
    return out


def op_report(algebra, symbol, combiner):
    """Ordered tuple pairs, lexicographically, where the operation's output
    distance exceeds the combined input distances, as
    (symbol, left, right, bound, actual)."""
    combine = dist_max if combiner == "max" else dist_sum
    carrier = algebra.carrier
    tuples = list(itertools.product(carrier.points, repeat=algebra.signature.arity(symbol)))
    out = []
    for xs in tuples:
        for ys in tuples:
            bound = combine(carrier.dist(x, y) for x, y in zip(xs, ys))
            actual = carrier.dist(algebra.op(symbol, xs), algebra.op(symbol, ys))
            if actual > bound:
                out.append((symbol, xs, ys, bound, actual))
    return out


def compatibility_report(algebra, dhat):
    """Per symbol, the argument-tuple pairs a < b (lexicographically) where
    the matrix distance of the outputs exceeds the maximum of the
    coordinate distances, as the Violations of compatibility_violations."""
    pts = list(algebra.carrier.points)
    index = {p: i for i, p in enumerate(pts)}
    out = []
    for name, arity in algebra.signature.symbols:
        tuples = itertools.product(pts, repeat=arity)
        for xs, ys in itertools.combinations(tuples, 2):
            i, j = index[algebra.op(name, xs)], index[algebra.op(name, ys)]
            bound = ZERO
            for x, y in zip(xs, ys):
                bound = max(bound, dhat[index[x]][index[y]])
            if dhat[i][j] > bound:
                detail = f"{dhat[i][j]} > coordinate bound {bound}"
                out.append(Violation("compatibility", (pts[i], pts[j]), detail))
    return out


def _term_key(t):
    if t.args is None:
        return (0, t.head, ())
    return (t.depth(), t.head, tuple(_term_key(a) for a in t.args))


def enumerate_terms_sorted(signature, generators, depth, max_terms):
    """All terms of depth <= depth: each layer applies every symbol, in
    declaration order, to every tuple of shallower terms and keeps the
    new ones in a dict of hashed terms; a recursive key (depth, head,
    children) sorts the result at the end."""
    if depth < 0:
        raise StructuralError("depth must be nonnegative")
    depth_of = {Term(g): 0 for g in sorted(set(generators))}
    if len(depth_of) > max_terms:
        raise CapExceededError("term enumeration", len(depth_of), max_terms)
    for d in range(1, depth + 1):
        pool = [t for t, k in depth_of.items() if k <= d - 1]
        grown = False
        for name, arity in signature.symbols:
            for children in itertools.product(pool, repeat=arity):
                candidate = Term(name, children)
                if candidate in depth_of:
                    continue
                depth_of[candidate] = 1 + max((depth_of[c] for c in children), default=0)
                grown = True
                if len(depth_of) > max_terms:
                    raise CapExceededError("term enumeration", len(depth_of), max_terms)
        if not grown:
            break
    return sorted(depth_of, key=_term_key)


def _term_metric(t, s, space):
    if t.args is None and s.args is None:
        return space.dist(t.head, s.head)
    if t.args is None or s.args is None or t.head != s.head:
        return INF
    return dist_max(_term_metric(a, b, space) for a, b in zip(t.args, s.args))


def free_matrix_by_substitution(variety, space, depth, max_terms, max_instances):
    """The bounded free algebra's terms and matrix: the term metric,
    lowered by every equation instance whose substituted sides have depth
    <= depth, then closed with ``closure_sweeps``."""
    terms = enumerate_terms_sorted(variety.signature, space.points, depth, max_terms)
    index = {t: i for i, t in enumerate(terms)}
    n = len(terms)
    m = [[_term_metric(t, s, space) for s in terms] for t in terms]
    for eq in variety.equations:
        count = n ** len(eq.variables)
        if count > max_instances:
            raise CapExceededError("equation instance enumeration", count, max_instances)
        for values in itertools.product(terms, repeat=len(eq.variables)):
            assignment = dict(zip(eq.variables, values))
            left = substitute(eq.lhs, assignment)
            right = substitute(eq.rhs, assignment)
            if left.depth() > depth or right.depth() > depth:
                continue
            i, j = index[left], index[right]
            if eq.epsilon < m[i][j]:
                m[i][j] = m[j][i] = eq.epsilon
    rules = [
        (tuple((index[x], index[y]) for x, y in zip(t.args, s.args)), index[t], index[s])
        for t, s in itertools.combinations(terms, 2)
        if t.args is not None and s.args is not None and t.head == s.head
    ]
    closure_sweeps(m, rules, 16 * n * n * (1 + len(rules)))
    return terms, m


def _value(term, tables, assignment):
    """The value of a term under the assignment, or None where a table has
    no entry for the children's values."""
    if term.args is None:
        return assignment[term.head]
    children = tuple(_value(a, tables, assignment) for a in term.args)
    return tables.get(term.head, {}).get(children)


def instances_by_product(equation, n, tables):
    """(values, lhs, rhs) for every assignment of range(n) to the variables,
    in itertools.product order, under which both sides have a value."""
    out = []
    for values in itertools.product(range(n), repeat=len(equation.variables)):
        assignment = dict(zip(equation.variables, values))
        lhs = _value(equation.lhs, tables, assignment)
        rhs = _value(equation.rhs, tables, assignment)
        if lhs is not None and rhs is not None:
            out.append((values, lhs, rhs))
    return out


def satisfies_by_evaluation(algebra, equation, max_assignments):
    """(ok, least violating assignment, its distance): both sides evaluated
    from scratch under every assignment of points, in lexicographic order."""
    points = algebra.carrier.points
    total = len(points) ** len(equation.variables)
    if total > max_assignments:
        raise CapExceededError(
            "assignment enumeration (reduce the variable count or the carrier)",
            total,
            max_assignments,
        )
    for values in itertools.product(points, repeat=len(equation.variables)):
        assignment = dict(zip(equation.variables, values))
        d = algebra.carrier.dist(
            _value(equation.lhs, algebra.tables, assignment),
            _value(equation.rhs, algebra.tables, assignment),
        )
        if d > equation.epsilon:
            return False, assignment, d
    return True, None, None


def hom_distance_by_terms(space, algebra, f1, f2, depth, max_terms):
    """The supremum, over every term of depth <= depth, of the carrier
    distance between its two evaluations, after rejecting assignments that
    are not total or not nonexpanding (least expanding pair in point order).

    The window comes from the library's enumerate_terms, which is checked
    against enumerate_terms_sorted elsewhere and counts the window before
    building it, so that the cap errors are the library's own."""
    carrier = algebra.carrier
    for f, tag in ((f1, "first"), (f2, "second")):
        if any(p not in f for p in space.points):
            raise StructuralError(f"{tag} assignment is not total on the space")
        for x, y in itertools.combinations(space.points, 2):
            if carrier.dist(f[x], f[y]) > space.dist(x, y):
                raise StructuralError(f"{tag} assignment is not nonexpanding at {(x, y)}")
    terms = enumerate_terms(algebra.signature, space.points, depth, max_terms)
    return dist_max(
        carrier.dist(_value(t, algebra.tables, f1), _value(t, algebra.tables, f2)) for t in terms
    )


def generated_subset(algebra, seed):
    """The least superset of the seed closed under the operations: every
    operation applied to every tuple of the set, until nothing is added."""
    current = set(seed)
    while True:
        added = {algebra.tables[name][xs] for name, arity in algebra.signature.symbols
                 for xs in itertools.product(sorted(current), repeat=arity)} - current
        if not added:
            return current
        current |= added
