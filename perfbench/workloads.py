"""Seeded input generation for the three benchmark workloads.

Every workload is a fixed list of CLI commands (one "pass").  The sizes
and the command mix of a pass are the same for every seed; the seed only
picks the contents (positions, operation tables, constraints, terms), so
runs with different seeds do comparable work.  Each command carries the
exit code it must end with and the facts its output is checked against.
Those facts are computed here with plain ``Fraction`` arithmetic and never
with quantalg, so the checks do not trust the code under test.

``build(workload, seed)`` returns a :class:`Plan`: the JSON documents as
canonical bytes keyed by file name, and the commands that read them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("closure", "free_algebra", "constructions")

# Gaps between neighbouring points on a line; the denominators are mixed
# on purpose so that closure arithmetic works on non-trivial rationals.
GAPS = (F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1), F(5, 6), F(2, 5), F(3, 7), F(4, 9))
RATIOS = (F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(5, 8), F(4, 9))


@dataclass
class Cmd:
    """One CLI call: argv after ``--format json``, with file arguments
    named relative to the work directory (prefixed by ``@``)."""

    kind: str
    argv: list[str]
    exit: int
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    files: dict[str, bytes]
    cmds: list[Cmd]


def fstr(q) -> str:
    if q is None:
        return "inf"
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


class _Docs:
    """Collects documents under stable names; identical documents share a file."""

    def __init__(self):
        self.files: dict[str, bytes] = {}
        self._by_bytes: dict[bytes, str] = {}

    def add(self, tag: str, doc) -> str:
        data = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        name = self._by_bytes.get(data)
        if name is None:
            name = f"{len(self.files):04d}-{tag}.json"
            self.files[name] = data
            self._by_bytes[data] = name
        return "@" + name


# ---------------------------------------------------------------- spaces


def line_positions(rng: random.Random, n: int, gaps=GAPS) -> list[F]:
    xs = [F(0)]
    for _ in range(n - 1):
        xs.append(xs[-1] + rng.choice(gaps))
    return xs


def line_matrix(xs) -> list[list[F]]:
    return [[abs(a - b) for b in xs] for a in xs]


def space_doc(pts, mat) -> dict:
    n = len(pts)
    return {
        "points": list(pts),
        "dist": [
            [pts[i], pts[j], fstr(mat[i][j])]
            for i in range(n)
            for j in range(i + 1, n)
            if mat[i][j] is not None
        ],
    }


def shortest_paths(mat) -> list[list]:
    """Floyd-Warshall over Fractions; None is infinity."""
    n = len(mat)
    m = [row[:] for row in mat]
    for k in range(n):
        for i in range(n):
            if m[i][k] is None:
                continue
            for j in range(n):
                if m[k][j] is None:
                    continue
                alt = m[i][k] + m[k][j]
                if m[i][j] is None or alt < m[i][j]:
                    m[i][j] = alt
    return m


def random_metric(rng: random.Random, n: int, blocks: int = 1) -> list[list]:
    """Shortest-path metric of a random graph with positive rational weights.

    The points are split into ``blocks`` contiguous connected components,
    so where the infinite distances sit is fixed by the sizes and only the
    finite values depend on the seed.
    """
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = F(0)
    block = [i * blocks // n for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if block[i] != block[j]:
                continue
            if j == i + 1 or rng.random() < 0.5:
                m[i][j] = m[j][i] = rng.choice(GAPS) * rng.choice((1, 2, 3))
    return shortest_paths(m)


def triangle_violations(mat) -> int:
    """Count (i<j, k) with d(i,j) > d(i,k) + d(k,j), infinity-aware."""
    n = len(mat)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            dij = mat[i][j]
            for k in range(n):
                if k in (i, j):
                    continue
                a, b = mat[i][k], mat[k][j]
                if a is None or b is None:
                    continue
                if dij is None or dij > a + b:
                    count += 1
    return count


# ---------------------------------------------------------------- algebras


def nonexpanding_walk(rng: random.Random, xs) -> list[int]:
    """A self-map of a line carrier that moves neighbours no further apart
    than they are; on a line that bounds every pair."""
    n = len(xs)
    out = [rng.randrange(n)]
    for k in range(1, n):
        gap = xs[k] - xs[k - 1]
        cur = out[-1]
        out.append(rng.choice([q for q in range(n) if abs(xs[q] - xs[cur]) <= gap]))
    return out


def algebra_doc(pts, mat, signature, tables) -> dict:
    """tables: name -> {tuple of indices: index}."""
    return {
        "space": space_doc(pts, mat),
        "signature": [[name, arity] for name, arity in signature],
        "tables": {
            name: sorted([pts[i] for i in key] + [pts[v]] for key, v in tables[name].items())
            for name, _ in signature
        },
    }


def op_violations(mat, signature, tables) -> int:
    """Tuple pairs where an operation stretches the max metric, as
    ``validate algebra`` counts them (ordered pairs, all symbols)."""
    n = len(mat)
    count = 0
    for name, arity in signature:
        table = tables[name]
        keys = list(itertools.product(range(n), repeat=arity))
        for xs in keys:
            for ys in keys:
                bound = max((mat[x][y] for x, y in zip(xs, ys)), default=F(0))
                if mat[table[xs]][table[ys]] > bound:
                    count += 1
    return count


def join_chain(rng: random.Random, n: int, prefix="p"):
    xs = line_positions(rng, n)
    table = {(i, j): max(i, j) for i in range(n) for j in range(n)}
    return names(prefix, n), line_matrix(xs), [("join", 2)], {"join": table}


def unary_binary_line(rng: random.Random, n: int, expanding=False):
    xs = line_positions(rng, n)
    u = nonexpanding_walk(rng, xs)
    h = nonexpanding_walk(rng, xs)
    pick = max if rng.random() < 0.5 else min
    if expanding:
        u[0], u[1] = n - 1, 0  # diameter > first gap, so u expands (p00, p01)
    tables = {
        "u": {(i,): u[i] for i in range(n)},
        "b": {(i, j): h[pick(i, j)] for i in range(n) for j in range(n)},
    }
    return names("p", n), line_matrix(xs), [("u", 1), ("b", 2)], tables


def zero_classes(n: int, pairs, signature, tables) -> list[list[int]]:
    """Least operation-closed equivalence containing the pairs (union-find)."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[find(a)] = find(b)
    changed = True
    while changed:
        changed = False
        for name, arity in signature:
            table = tables[name]
            keys = list(itertools.product(range(n), repeat=arity))
            for xs in keys:
                for ys in keys:
                    if all(find(x) == find(y) for x, y in zip(xs, ys)):
                        a, b = find(table[xs]), find(table[ys])
                        if a != b:
                            parent[a] = b
                            changed = True
    groups: dict[int, list[int]] = {}
    for p in range(n):
        groups.setdefault(find(p), []).append(p)
    return sorted(groups.values())


def random_constraints(rng: random.Random, mat, count: int) -> list[tuple[int, int, F]]:
    n = len(mat)
    out = []
    for _ in range(count):
        i, j = sorted(rng.sample(range(n), 2))
        eps = F(0) if rng.random() < 0.3 else mat[i][j] * rng.choice(RATIOS)
        out.append((i, j, eps))
    return out


# ---------------------------------------------------------------- terms


def term_str(t) -> str:
    """Terms are a generator name or a tuple (head, child, ...)."""
    if isinstance(t, str):
        return t
    return f"{t[0]}({', '.join(term_str(c) for c in t[1:])})"


def term_depth(t) -> int:
    if isinstance(t, str):
        return 0
    return 1 + max((term_depth(c) for c in t[1:]), default=0)


def all_terms(signature, gens, depth) -> list:
    terms = list(gens)
    for _ in range(depth):
        grown = list(gens)
        for name, arity in signature:
            for kids in itertools.product(terms, repeat=arity):
                grown.append((name, *kids))
        terms = grown
    return terms


def term_count(signature, n_gens: int, depth: int) -> int:
    count = n_gens
    for _ in range(depth):
        count = n_gens + sum(count ** arity for _, arity in signature)
    return count


def substitute(t, env):
    if isinstance(t, str):
        return env.get(t, t)
    return (t[0], *(substitute(c, env) for c in t[1:]))


def parse(text: str):
    text = text.replace(" ", "")

    def go(i):
        j = i
        while j < len(text) and text[j] not in "(),":
            j += 1
        name = text[i:j]
        if j < len(text) and text[j] == "(":
            kids = []
            j += 1
            if text[j] == ")":
                return (name,), j + 1
            while True:
                kid, j = go(j)
                kids.append(kid)
                if text[j] == ",":
                    j += 1
                    continue
                return (name, *kids), j + 1
        return name, j

    t, end = go(0)
    if end != len(text):
        raise ValueError(f"trailing text in {text!r}")
    return t


def term_metric(t, s, dist):
    """dist(g, h) for generators; None is infinity."""
    if isinstance(t, str) and isinstance(s, str):
        return dist(t, s)
    if isinstance(t, str) or isinstance(s, str) or t[0] != s[0] or len(t) != len(s):
        return None
    out = F(0)
    for a, b in zip(t[1:], s[1:]):
        d = term_metric(a, b, dist)
        if d is None:
            return None
        out = max(out, d)
    return out


def random_term(rng: random.Random, signature, gens, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(gens)
    name, arity = rng.choice(signature)
    return (name, *(random_term(rng, signature, gens, depth - 1) for _ in range(arity)))


def regenerate(rng: random.Random, t, gens):
    """Same shape, generators redrawn: a similar term."""
    if isinstance(t, str):
        return rng.choice(gens)
    return (t[0], *(regenerate(rng, c, gens) for c in t[1:]))


def equation_doc(variables, lhs, rhs, eps) -> dict:
    return {"vars": list(variables), "lhs": term_str(lhs), "rhs": term_str(rhs), "eps": fstr(eps)}


MONOID_SIG = [("add", 2), ("e", 0)]


def comm_monoid_equations(eps=F(1, 2)):
    assoc = (("x", "y", "z"), ("add", ("add", "x", "y"), "z"), ("add", "x", ("add", "y", "z")), F(0))
    right_unit = (("x",), ("add", "x", ("e",)), "x", F(0))
    left_unit = (("x",), ("add", ("e",), "x"), "x", F(0))
    comm = (("x", "y"), ("add", "x", "y"), ("add", "y", "x"), eps)
    return [assoc, right_unit, left_unit, comm]


PRESENTATIONS = {
    "comm_monoid": (MONOID_SIG, comm_monoid_equations()),
    "semilattice": (
        [("join", 2)],
        [
            (("x", "y", "z"), ("join", ("join", "x", "y"), "z"), ("join", "x", ("join", "y", "z")), F(0)),
            (("x", "y"), ("join", "x", "y"), ("join", "y", "x"), F(0)),
            (("x",), ("join", "x", "x"), "x", F(0)),
        ],
    ),
    "unary_binary": (
        [("u", 1), ("m", 2)],
        [
            (("x", "y"), ("m", "x", "y"), ("m", "y", "x"), F(1, 4)),
            (("x", "y"), ("u", ("m", "x", "y")), ("m", ("u", "x"), ("u", "y")), F(1, 3)),
            (("x",), ("u", ("u", "x")), ("u", "x"), F(0)),
        ],
    ),
}


def variety_doc(signature, equations) -> dict:
    return {
        "signature": [[name, arity] for name, arity in signature],
        "equations": [equation_doc(*eq) for eq in equations],
    }


def max_monoid(rng: random.Random, n: int, unit_on_top=False, gaps=GAPS):
    """(line, max, bottom) is a commutative monoid with exact laws; putting
    the unit on top breaks both unit laws and nothing else."""
    xs = line_positions(rng, n, gaps)
    add = {(i, j): max(i, j) for i in range(n) for j in range(n)}
    unit = {(): n - 1 if unit_on_top else 0}
    return names("m", n), line_matrix(xs), MONOID_SIG, {"add": add, "e": unit}


def evaluate(t, tables, env):
    if isinstance(t, str):
        return env[t]
    return tables[t[0]][tuple(evaluate(c, tables, env) for c in t[1:])]


def first_violation(mat, tables, eq):
    """Least violating assignment in lexicographic order, or None."""
    variables, lhs, rhs, eps = eq
    order = sorted(variables)
    n = len(mat)
    for values in itertools.product(range(n), repeat=len(order)):
        env = dict(zip(order, values))
        d = mat[evaluate(lhs, tables, env)][evaluate(rhs, tables, env)]
        if d > eps:
            return env, d
    return None


# ---------------------------------------------------------------- workloads


def _closure(rng: random.Random, docs: _Docs) -> list[Cmd]:
    """Mostly ``quotient``, plus ``coequalize`` and ``validate algebra``."""
    cmds: list[Cmd] = []

    def algebra(kind, n, expanding=False):
        if kind == "chain":
            return join_chain(rng, n)
        return unary_binary_line(rng, n, expanding)

    def quotient(kind, n):
        pts, mat, sig, tables = algebra(kind, n)
        constraints = random_constraints(rng, mat, rng.choice((1, 2, 3)))
        alg = docs.add("alg", algebra_doc(pts, mat, sig, tables))
        cons = docs.add("cons", [[pts[i], pts[j], fstr(e)] for i, j, e in constraints])
        zero = [(i, j) for i, j, e in constraints if e == 0]
        expect = {
            "label": f"{kind}{n}",
            "points": pts,
            "base": [[fstr(v) for v in row] for row in mat],
            "constraints": [[pts[i], pts[j], fstr(e)] for i, j, e in constraints],
            "classes": [[pts[p] for p in c] for c in zero_classes(n, zero, sig, tables)],
        }
        cmds.append(Cmd("quotient", ["quotient", alg, cons], 0, expect))

    def quotient_expanding(n):
        pts, mat, sig, tables = algebra("ub", n, expanding=True)
        assert op_violations(mat, sig, tables) > 0
        alg = docs.add("alg", algebra_doc(pts, mat, sig, tables))
        cons = docs.add("cons", [[pts[0], pts[-1], "0"]])
        cmds.append(Cmd("quotient", ["quotient", alg, cons], 2, {"label": f"expanding{n}"}))

    def validate(kind, n, expanding=False):
        pts, mat, sig, tables = algebra(kind, n, expanding)
        alg = docs.add("alg", algebra_doc(pts, mat, sig, tables))
        bad = op_violations(mat, sig, tables)
        expect = {"label": f"{kind}{n}", "violations": bad}
        cmds.append(Cmd("validate_algebra", ["validate", "algebra", alg], 1 if bad else 0, expect))

    def coequalize(n, m):
        pts, mat, sig, tables = join_chain(rng, n)
        # A widely spaced source chain makes every monotone map nonexpanding,
        # and monotone maps between chains preserve joins.
        spts = names("s", m)
        smat = line_matrix([F(100 * k) for k in range(m)])
        stables = {"join": {(i, j): max(i, j) for i in range(m) for j in range(m)}}
        source = algebra_doc(spts, smat, sig, stables)
        target = algebra_doc(pts, mat, sig, tables)
        maps = [sorted(rng.choices(range(n), k=m)) for _ in range(2)]
        paths = [
            docs.add("hom", {"source": source, "target": target,
                             "map": [[spts[k], pts[v]] for k, v in enumerate(f)]})
            for f in maps
        ]
        classes = zero_classes(n, list(zip(*maps)), sig, tables)
        expect = {
            "label": f"chain{n}",
            "points": pts,
            "base": [[fstr(v) for v in row] for row in mat],
            "classes": [[pts[p] for p in c] for c in classes],
        }
        cmds.append(Cmd("coequalize", ["coequalize", *paths], 0, expect))

    for n, count in CHAIN_QUOTIENTS:
        for _ in range(count):
            quotient("chain", n)
    for n, count in UB_QUOTIENTS:
        for _ in range(count):
            quotient("ub", n)
    for n in (5, 8, 11):
        quotient_expanding(n)
    for n in (6, 8, 10, 12):
        coequalize(n, rng.choice((2, 3, 4)))
    for n in (6, 10, 14):
        validate("chain", n)
    for n in (7, 9, 11, 13):
        validate("ub", n)
    for n in (6, 10, 14):
        validate("ub", n, expanding=True)
    return cmds


# (carrier size, count) per pass.  The 8-point quotients are a cluster
# that holds the median of a pass, so p50 does not sit on a steep part of
# the cost curve; the p90 falls among the 12-point carriers.
CHAIN_QUOTIENTS = ((5, 3), (6, 3), (7, 3), (8, 6), (9, 2), (10, 2), (11, 2), (12, 2), (13, 1))
UB_QUOTIENTS = ((5, 3), (6, 3), (7, 2), (8, 4), (9, 2), (10, 1), (11, 1), (12, 1))


def _free_algebra(rng: random.Random, docs: _Docs) -> list[Cmd]:
    """A few ``free-bounded`` runs plus many cheaper equational commands."""
    cmds: list[Cmd] = []
    varieties = {
        name: docs.add("variety", variety_doc(*pres)) for name, pres in PRESENTATIONS.items()
    }

    def free_bounded(name, depth):
        sig, eqs = PRESENTATIONS[name]
        gap = rng.choice(GAPS)
        space = docs.add("space", space_doc(["a", "b"], [[F(0), gap], [gap, F(0)]]))
        expect = {
            "label": f"{name}-d{depth}",
            "count": term_count(sig, 2, depth),
            "terms": sorted(term_str(t) for t in all_terms(sig, ["a", "b"], depth)),
            "gap": fstr(gap),
            "equations": [[list(v), term_str(l), term_str(r), fstr(e)] for v, l, r, e in eqs],
        }
        argv = ["free-bounded", varieties[name], space, "--depth", str(depth)]
        cmds.append(Cmd("free_bounded", argv, 0, expect))

    def in_variety(n, member):
        pts, mat, sig, tables = max_monoid(rng, n, unit_on_top=not member)
        alg = docs.add("alg", algebra_doc(pts, mat, sig, tables))
        verdicts = [first_violation(mat, tables, eq) is None for eq in comm_monoid_equations()]
        expect = {"label": f"n{n}", "verdicts": verdicts}
        argv = ["in-variety", alg, varieties["comm_monoid"]]
        cmds.append(Cmd("in_variety", argv, 0 if member else 1, expect))

    def check_eq(n, which):
        pts, mat, sig, tables = max_monoid(rng, n)
        alg = docs.add("alg", algebra_doc(pts, mat, sig, tables))
        diameter = mat[0][-1]
        eq = {
            "comm": (("x", "y"), ("add", "x", "y"), ("add", "y", "x"), F(0)),
            "idem": (("x",), ("add", "x", "x"), "x", F(0)),
            "proj": (("x", "y"), ("add", "x", "y"), "x", diameter * rng.choice(RATIOS)),
            "assoc": (("x", "y", "z"), ("add", ("add", "x", "y"), "z"),
                      ("add", "x", ("add", "y", "z")), F(0)),
        }[which]
        found = first_violation(mat, tables, eq)
        expect = {"label": f"{which}{n}", "satisfied": found is None}
        if found is not None:
            env, d = found
            expect["witness"] = {v: pts[i] for v, i in env.items()}
            expect["distance"] = fstr(d)
        equation = docs.add("eq", equation_doc(*eq))
        cmds.append(Cmd("check_eq", ["check-eq", alg, equation], 1 if found else 0, expect))

    def term_dist():
        pts = names("g", 4)
        mat = line_matrix(line_positions(rng, 4))
        space = docs.add("space", space_doc(pts, mat))
        lhs = random_term(rng, TERM_SIG, pts, 5)
        rhs = regenerate(rng, lhs, pts) if rng.random() < 0.7 else random_term(rng, TERM_SIG, pts, 5)
        d = term_metric(lhs, rhs, lambda a, b: mat[pts.index(a)][pts.index(b)])
        expect = {"label": "", "distance": fstr(d)}
        cmds.append(Cmd("term_dist", ["term-dist", space, term_str(lhs), term_str(rhs)], 0, expect))

    def birkhoff(n1, n2):
        # The second member's diameter stays below the first member's
        # smallest gap, so every monotone unit-preserving map is a
        # nonexpanding homomorphism.
        p1, m1, sig, t1 = max_monoid(rng, n1, gaps=(F(3, 2), F(2), F(5, 2)))
        p2, m2, _, t2 = max_monoid(rng, n2, gaps=(F(1, 5), F(1, 4), F(1, 3)))
        p2 = names("w", n2)
        first = algebra_doc(p1, m1, sig, t1)
        second = algebra_doc(p2, m2, sig, t2)
        f = [0] + sorted(rng.choices(range(n2), k=n1 - 1))
        hom = {"source": first, "target": second, "map": [[p1[k], p2[v]] for k, v in enumerate(f)]}
        argv = ["birkhoff", varieties["comm_monoid"], docs.add("alg", first),
                docs.add("alg", second), "--hom", docs.add("hom", hom)]
        expect = {"label": f"{n1}x{n2}", "checks": 2 + 1 + n1 + n2 + 1}
        cmds.append(Cmd("birkhoff", argv, 0, expect))

    for name, depth, count in FREE_BOUNDED:
        for _ in range(count):
            free_bounded(name, depth)
    for n in IN_VARIETY_SIZES:
        in_variety(n, True)
        in_variety(n, False)
    for n, which in CHECK_EQ:
        check_eq(n, which)
    for _ in range(TERM_DIST_COUNT):
        term_dist()
    for n1, n2 in BIRKHOFF_SIZES:
        birkhoff(n1, n2)
    return cmds


TERM_SIG = [("u", 1), ("m", 2), ("e", 0)]
# Enough depth-2 runs that the p90 of a pass falls among them.  The
# semilattice stays at depth 1: at depth 2 one command (55k associativity
# instances) would weigh a fifth of the pass on its own.
FREE_BOUNDED = (
    ("comm_monoid", 1, 1), ("semilattice", 1, 1), ("unary_binary", 1, 1),
    ("comm_monoid", 2, 1), ("unary_binary", 2, 8),
)
IN_VARIETY_SIZES = (8, 12, 16, 20, 24, 28)
# Ten commutativity checks of one size are a cluster that holds the median
# of a pass; the rest vary size and equation.
CHECK_EQ = ((16, "comm"),) * 10 + ((28, "idem"), (20, "proj"), (28, "proj"), (12, "assoc"))
TERM_DIST_COUNT = 20
BIRKHOFF_SIZES = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5))


def _constructions(rng: random.Random, docs: _Docs) -> list[Cmd]:
    """Derived spaces, kernels, colimits, factorizations and validation."""
    cmds: list[Cmd] = []

    def metric(prefix, n, blocks=1):
        return names(prefix, n), random_metric(rng, n, blocks)

    def binop(op, n1, n2, blocks):
        p1, m1 = metric("a", n1, blocks)
        p2, m2 = metric("b", n2)
        combine = max if op == "product" else (lambda a, b: a + b)
        entries = []
        for (i1, j1), (i2, j2) in itertools.product(
            itertools.product(range(n1), repeat=2), itertools.product(range(n2), repeat=2)
        ):
            a, b = m1[i1][j1], m2[i2][j2]
            x, y = f"({p1[i1]},{p2[i2]})", f"({p1[j1]},{p2[j2]})"
            if x < y and a is not None and b is not None:
                entries.append([x, y, fstr(combine(a, b))])
        argv = [op, docs.add("space", space_doc(p1, m1)), docs.add("space", space_doc(p2, m2))]
        cmds.append(Cmd(op, argv, 0, {"label": f"{n1}x{n2}", "points": n1 * n2, "dist": entries}))

    def coproduct(sizes):
        paths, entries, points = [], [], []
        for k, n in enumerate(sizes):
            pts, mat = metric("c", n, 2)
            paths.append(docs.add("space", space_doc(pts, mat)))
            points += [f"{k}:{p}" for p in pts]
            entries += [[f"{k}:{pts[i]}", f"{k}:{pts[j]}", fstr(mat[i][j])]
                        for i in range(n) for j in range(i + 1, n) if mat[i][j] is not None]
        expect = {"label": "+".join(map(str, sizes)), "points": sorted(points), "dist": entries}
        cmds.append(Cmd("coproduct", ["coproduct", *paths], 0, expect))

    def lipschitz_map(n, landmarks):
        """Distance to a landmark set is 1-Lipschitz, so the map to its
        values on a line is nonexpanding; landmarks share one image."""
        pts, mat = metric("x", n)
        marks = rng.sample(range(n), landmarks)
        g = [min(mat[i][s] for s in marks) for i in range(n)]
        values = sorted(set(g))
        tpts = names("t", len(values))
        target = space_doc(tpts, line_matrix(values))
        image = [tpts[values.index(v)] for v in g]
        doc = {"source": space_doc(pts, mat), "target": target,
               "map": [[p, image[i]] for i, p in enumerate(pts)]}
        return pts, mat, g, doc

    def kernel(n, with_epsilon):
        pts, mat, g, doc = lipschitz_map(n, 1)
        path = docs.add("map", doc)
        if not with_epsilon:
            dhat = [[pts[i], pts[j], fstr(abs(g[i] - g[j]))]
                    for i in range(n) for j in range(i + 1, n) if abs(g[i] - g[j]) != mat[i][j]]
            cmds.append(Cmd("kernel", ["kernel", path], 0, {"label": f"n{n}", "dhat": dhat}))
            return
        # The largest threshold that keeps at most n/2 unordered pairs (or
        # the smallest gap), so the relation space has about 2n points
        # whatever the seed.
        gaps = sorted(abs(g[i] - g[j]) for i in range(n) for j in range(i + 1, n))
        eps = gaps[0]
        for k, v in enumerate(gaps[: n // 2]):
            if k + 1 == len(gaps) or gaps[k + 1] != v:
                eps = v
        pairs = sorted([pts[i], pts[j]] for i in range(n) for j in range(n) if abs(g[i] - g[j]) <= eps)
        expect = {"label": f"n{n}", "epsilon": fstr(eps), "pairs": pairs,
                  "points": pts, "base": [[fstr(v) for v in row] for row in mat]}
        cmds.append(Cmd("kernel_epsilon", ["kernel", path, "--epsilon", fstr(eps)], 0, expect))

    def subcongruence(n, broken):
        pts, mat, g, doc = lipschitz_map(n, 3)
        dhat = [[abs(a - b) for b in g] for a in g]
        if broken:
            i, j = sorted(rng.sample(range(n), 2))
            dhat[i][j] = dhat[j][i] = mat[i][j] + 1
        entries = [[pts[i], pts[j], fstr(dhat[i][j])]
                   for i in range(n) for j in range(i + 1, n) if dhat[i][j] != mat[i][j]]
        return pts, mat, g, dhat, {"base": doc["source"], "dhat": entries}

    def colimit(n):
        pts, mat, g, dhat, doc = subcongruence(n, False)
        classes: dict = {}
        for i, v in enumerate(g):
            classes.setdefault(v, []).append(pts[i])
        expect = {"label": f"n{n}", "classes": sorted(classes.values()),
                  "dist": {members[0]: fstr(v) for v, members in classes.items()}}
        cmds.append(Cmd("colimit", ["colimit", docs.add("sub", doc)], 0, expect))

    def validate_sub(n, broken):
        pts, mat, g, dhat, doc = subcongruence(n, broken)
        bound = sum(1 for i in range(n) for j in range(i + 1, n) if dhat[i][j] > mat[i][j])
        bad = bound + triangle_violations(dhat)
        argv = ["validate", "subcongruence", docs.add("sub", doc)]
        cmds.append(Cmd("validate_subcongruence", argv, 1 if bad else 0, {"label": f"n{n}", "violations": bad}))

    def validate_space(n, broken):
        pts, mat = metric("v", n)
        if broken:
            i, j = sorted(rng.sample(range(n), 2))
            mat[i][j] = mat[j][i] = mat[i][j] * 3 + 1
        bad = triangle_violations(mat)
        argv = ["validate", "space", docs.add("space", space_doc(pts, mat))]
        cmds.append(Cmd("validate_space", argv, 1 if bad else 0, {"label": f"n{n}", "violations": bad}))

    def factorize(n, m):
        spts = names("s", n)
        sig = [("join", 2)]
        stables = {"join": {(i, j): max(i, j) for i in range(n) for j in range(n)}}
        source = algebra_doc(spts, line_matrix([F(100 * k) for k in range(n)]), sig, stables)
        tpts, tmat, _, ttables = join_chain(rng, m, prefix="t")
        f = sorted(rng.choices(range(m), k=n))
        doc = {"source": source, "target": algebra_doc(tpts, tmat, sig, ttables),
               "map": [[spts[k], tpts[v]] for k, v in enumerate(f)]}
        rep = {}
        for k, v in enumerate(f):
            rep.setdefault(v, spts[k])
        expect = {"label": f"{n}->{m}",
                  "surjection": sorted([spts[k], rep[v]] for k, v in enumerate(f)),
                  "embedding": sorted([r, tpts[v]] for v, r in rep.items())}
        cmds.append(Cmd("factorize", ["factorize", docs.add("hom", doc)], 0, expect))

    for op in ("product", "tensor"):
        for n1, n2, blocks in BINOP_SIZES:
            binop(op, n1, n2, blocks)
    for sizes in COPRODUCT_SIZES:
        coproduct(sizes)
    for n in KERNEL_SIZES:
        kernel(n, False)
        kernel(n, True)
    for n in (8, 10, 12):
        colimit(n)
    for n, m in ((6, 5), (8, 7), (10, 9)):
        factorize(n, m)
    # Validation at 12 and 16 points repeats so that it holds the median.
    for n in (8, 12, 12, 12, 16, 16, 16):
        validate_space(n, False)
        validate_space(n, True)
        validate_sub(n, False)
        validate_sub(n, True)
    return cmds


# (first size, second size, components of the first factor).  The 7x7 and
# 7x8 results are a cluster that holds the p90 of a pass.
BINOP_SIZES = (
    (4, 4, 1), (4, 6, 2), (5, 5, 1), (4, 9, 1), (5, 7, 2), (6, 6, 1),
    (5, 9, 1), (6, 8, 2), (7, 7, 1), (7, 7, 1), (7, 7, 1), (7, 7, 1), (7, 8, 1),
)
COPRODUCT_SIZES = ((4, 5), (6, 7), (8, 9), (4, 6, 8), (5, 7, 9))
KERNEL_SIZES = (8, 10, 12, 14, 16)


def build(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    docs = _Docs()
    cmds = {"closure": _closure, "free_algebra": _free_algebra, "constructions": _constructions}[workload](rng, docs)
    # One fixed order for every seed that spreads the heavy commands over
    # the pass, so that they do not all run in the same host-speed spell.
    random.Random(workload).shuffle(cmds)
    return Plan(docs.files, cmds)
