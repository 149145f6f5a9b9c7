"""Quantitative equations, varieties, and membership checking.

An equation "lhs =_eps rhs" over a finite variable set is satisfied by an
algebra when every interpretation of the variables keeps the evaluations
of the two sides within eps.  A variety presentation is a signature plus a
finite equation list; membership is the conjunction of satisfaction.

Free algebras in a variety are computed only as a bounded-depth
over-approximation: the generator metric on the terms of a fixed depth,
lowered by every equation instance that stays inside the depth window and
closed under triangle and operation propagation, which also derives the
term metric.  Deeper proofs can only lower distances further, so the
result is an upper bound and is flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .algebras import (
    DEFAULT_PAIR_CAP,
    Homomorphism,
    OpViolation,
    QuantAlgebra,
    check_op_against_combiner,
    image_factorize,
    product_algebra,
    subalgebra_generated,
)
from .congruences import closure_fixpoint
from .distance import INF, Dist, ZERO
from .errors import CapExceededError, StructuralError, check_cap
from .matrix import pair_instances
from .spaces import MetricSpace, PseudoSpace, make_space
from .terms import (
    DEFAULT_TERM_CAP,
    Signature,
    Term,
    check_term,
    enumerate_terms,
    op,
    var,
)

DEFAULT_ASSIGNMENT_CAP = 1_000_000


@dataclass(frozen=True)
class QuantEquation:
    """Two terms over a shared variable set and a rational closeness bound."""

    variables: tuple[str, ...]
    lhs: Term
    rhs: Term
    epsilon: Dist

    def __init__(self, variables, lhs: Term, rhs: Term, epsilon):
        vs = tuple(sorted(set(variables)))
        eps = Dist(epsilon)
        if eps.is_infinite:
            raise StructuralError("equation bounds must be rational, not infinite")
        for side in (lhs, rhs):
            stray = side.generators() - set(vs)
            if stray:
                raise StructuralError(f"terms use undeclared variables {sorted(stray)}")
        object.__setattr__(self, "variables", vs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "epsilon", eps)

    def __str__(self) -> str:
        return f"{self.lhs} ={self.epsilon}= {self.rhs}"


@dataclass(frozen=True)
class VarietyPresentation:
    """A signature together with the equations its members must satisfy."""

    signature: Signature
    equations: tuple[QuantEquation, ...]

    def __init__(self, signature: Signature, equations: Sequence[QuantEquation]):
        eqs = tuple(equations)
        for eq in eqs:
            check_term(eq.lhs, signature, eq.variables)
            check_term(eq.rhs, signature, eq.variables)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "equations", eqs)


@dataclass(frozen=True)
class SatisfactionResult:
    ok: bool
    witness: dict[str, str] | None = None  # least violating assignment
    distance: Dist | None = None

    def __str__(self) -> str:
        if self.ok:
            return "satisfied"
        return f"violated at {self.witness} with distance {self.distance}"


def satisfies(
    algebra: QuantAlgebra,
    equation: QuantEquation,
    max_assignments: int = DEFAULT_ASSIGNMENT_CAP,
) -> SatisfactionResult:
    """Check every interpretation of the variables, in lexicographic order.

    On failure the witness is the least violating assignment together with
    the distance actually seen.
    """
    check_cap("assignment", max_assignments)
    check_term(equation.lhs, algebra.signature, equation.variables)
    check_term(equation.rhs, algebra.signature, equation.variables)
    points = algebra.carrier.points
    total = len(points) ** len(equation.variables)
    if total > max_assignments:
        raise CapExceededError(
            "assignment enumeration (reduce the variable count or the carrier)",
            total,
            max_assignments,
        )
    index = {p: i for i, p in enumerate(points)}
    tables = {
        name: {tuple(map(index.__getitem__, key)): index[value] for key, value in table.items()}
        for name, table in algebra.tables.items()
    }
    rows, eps = algebra.carrier.rows, equation.epsilon
    far: dict[tuple[int, int], bool] = {}
    for values, i, j in _instances(equation, len(points), tables):
        if i != j:
            apart = far.get((i, j))
            if apart is None:
                apart = far[i, j] = rows[i][j] > eps
            if apart:
                witness = dict(zip(equation.variables, (points[v] for v in values)))
                return SatisfactionResult(False, witness, rows[i][j])
    return SatisfactionResult(True)


def _instances(
    equation: QuantEquation, n: int, tables: Mapping[str, Mapping[tuple[int, ...], int]]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every assignment of indices in range(n) to the equation's variables,
    in lexicographic order, under which both sides are defined, as
    (values, lhs, rhs).

    tables[name] maps child index tuples to an index; a missing key (or
    symbol) means undefined.  Each distinct composite subterm is numbered
    once and evaluated at the level of its last variable, so once per
    binding of that variable; ground subterms are evaluated once.  An
    undefined subterm skips every assignment that extends the prefix
    bound so far.
    """
    k = len(equation.variables)
    # env holds the variables' values in slots 0..k-1, then the subterms';
    # a slot's level is the number of variables bound when it is computed
    slots: dict[Term, int] = {var(v): i for i, v in enumerate(equation.variables)}
    levels = list(range(1, k + 1))
    stages: list[list[tuple[int, Mapping, Callable]]] = [[] for _ in range(k + 1)]

    def number(t: Term) -> int:
        if t not in slots:
            children = [number(a) for a in t.args]
            level = max((levels[c] for c in children), default=0)
            if len(children) == 1:
                c = children[0]
                get = lambda env: (env[c],)
            elif children:  # itemgetter of two or more slots returns their tuple
                get = itemgetter(*children)
            else:
                get = lambda env: ()
            slots[t] = len(levels)
            levels.append(level)
            stages[level].append((slots[t], tables.get(t.head, {}), get))
        return slots[t]

    lhs, rhs = number(equation.lhs), number(equation.rhs)
    env = [0] * len(levels)

    def defined(stage) -> bool:
        for slot, table, get in stage:
            value = table.get(get(env))
            if value is None:
                return False
            env[slot] = value
        return True

    def bind(i: int):  # variable i, then the later ones
        for v in range(n):
            env[i] = v
            if defined(stages[i + 1]):
                if i + 1 < k:
                    yield from bind(i + 1)
                else:
                    yield tuple(env[:k]), env[lhs], env[rhs]

    if defined(stages[0]):
        if k:
            yield from bind(0)
        else:
            yield (), env[lhs], env[rhs]


@dataclass(frozen=True)
class VarietyReport:
    ok: bool
    per_equation: tuple[tuple[QuantEquation, SatisfactionResult], ...]


def in_variety(
    algebra: QuantAlgebra,
    variety: VarietyPresentation,
    max_assignments: int = DEFAULT_ASSIGNMENT_CAP,
) -> VarietyReport:
    """Membership: the algebra satisfies every equation of the presentation."""
    check_cap("assignment", max_assignments)
    if algebra.signature != variety.signature:
        raise StructuralError("algebra signature differs from the variety's")
    results = tuple(
        (eq, satisfies(algebra, eq, max_assignments)) for eq in variety.equations
    )
    return VarietyReport(all(r.ok for _, r in results), results)


@dataclass(frozen=True)
class BirkhoffCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class BirkhoffReport:
    ok: bool
    checks: tuple[BirkhoffCheck, ...]


def birkhoff_soundness(
    variety: VarietyPresentation,
    first: QuantAlgebra,
    second: QuantAlgebra,
    homs: Sequence[Homomorphism] = (),
    max_assignments: int = DEFAULT_ASSIGNMENT_CAP,
) -> BirkhoffReport:
    """Closure spot-checks for a variety: the product of two members, every
    singleton-generated subalgebra, and the image of every supplied
    homomorphism out of a member must be members again."""
    checks: list[BirkhoffCheck] = []

    def record(label: str, report: VarietyReport):
        failing = [str(eq) for eq, r in report.per_equation if not r.ok]
        checks.append(BirkhoffCheck(label, report.ok, "; ".join(failing)))

    record("member: first", in_variety(first, variety, max_assignments))
    record("member: second", in_variety(second, variety, max_assignments))

    prod, _ = product_algebra([first, second])
    record("product of the two members", in_variety(prod, variety, max_assignments))

    for tag, algebra in (("first", first), ("second", second)):
        for p in algebra.carrier.points:
            sub, _ = subalgebra_generated(algebra, [p])
            record(
                f"subalgebra of {tag} generated by {{{p}}}",
                in_variety(sub, variety, max_assignments),
            )

    for i, h in enumerate(homs):
        if h.source != first and h.source != second:
            raise StructuralError(f"homomorphism #{i} does not start at a checked member")
        _, embed = image_factorize(h)
        record(f"homomorphic image #{i}", in_variety(embed.source, variety, max_assignments))

    return BirkhoffReport(all(c.ok for c in checks), tuple(checks))


@dataclass(frozen=True)
class BoundedFreeAlgebra:
    """Depth-bounded window into a free algebra of a variety.

    The matrix upper-bounds the true free-algebra distances: only equation
    instances were applied, that is assignments of window terms to the
    variables under which both sides evaluate inside the depth window, so
    deeper proofs may lower distances further.  The flag is always True to
    make the approximation explicit.

    The instances are found by evaluating both sides on term indices, one
    variable at a time: a subterm that leaves the window cuts off every
    assignment that extends the variables bound so far.  The matrix starts
    from the generator metric with every other pair at infinity, so the
    closure (NExp) derives the term metric too.
    """

    terms: tuple[Term, ...]
    labels: tuple[str, ...]
    matrix: tuple[tuple[Dist, ...], ...]
    depth: int
    over_approximation: bool = True
    _index: Mapping[Term, int] = field(repr=False, default=None)

    def distance(self, t: Term, s: Term) -> Dist:
        try:
            return self.matrix[self._index[t]][self._index[s]]
        except (KeyError, TypeError):
            raise StructuralError("term outside the enumerated window") from None

    def as_pseudo_space(self) -> PseudoSpace:
        order = sorted(range(len(self.labels)), key=lambda i: self.labels[i])
        pts = [self.labels[i] for i in order]
        rows = [[self.matrix[i][j] for j in order] for i in order]
        return PseudoSpace._derived(pts, rows)


def free_in_variety_bounded(
    variety: VarietyPresentation,
    space: MetricSpace,
    depth: int,
    max_terms: int = DEFAULT_TERM_CAP,
    max_instances: int = DEFAULT_ASSIGNMENT_CAP,
    max_passes: int | None = None,
) -> BoundedFreeAlgebra:
    """Quotient the depth-bounded term metric by the in-window equation
    instances, closing under triangle and operation propagation.

    The window starts from the generator metric, every other pair of
    distinct terms at infinity.  The closure lowers each pair of composites
    with one head to the maximum of its child pairs, so by induction on
    depth it derives the term metric; a pass cap must allow for that.
    """
    check_cap("term", max_terms)
    check_cap("assignment", max_instances)
    check_cap("pass", max_passes, 1)
    terms = enumerate_terms(variety.signature, space.points, depth, max_terms)
    index = {t: i for i, t in enumerate(terms)}
    n = len(terms)
    if n * n > DEFAULT_PAIR_CAP:
        raise CapExceededError("term matrix entries", n * n, DEFAULT_PAIR_CAP)
    for eq in variety.equations:
        count = n ** len(eq.variables)
        if count > max_instances:
            raise CapExceededError("equation instance enumeration", count, max_instances)
    # generators first, in point order; the closure derives the term metric
    matrix = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
    for i, row in enumerate(space.rows):
        matrix[i][:len(row)] = row

    # the window as a partial algebra on term indices: per head, the child
    # index tuples of the window's composites; past the depth bound, undefined
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    for i, t in enumerate(terms):
        if t.args is not None:
            tables.setdefault(t.head, {})[tuple(index[a] for a in t.args)] = i
    for eq in variety.equations:
        for _, i, j in _instances(eq, n, tables):
            if eq.epsilon < matrix[i][j]:
                matrix[i][j] = matrix[j][i] = eq.epsilon

    rules = [inst for _, table in sorted(tables.items())
             for chunk in pair_instances(n, list(table), list(table.values())) for inst in chunk]
    # a composite's rule after its children's: children have smaller indices
    rules.sort(key=lambda inst: max(divmod(inst[0], n)))
    cap = max_passes if max_passes is not None else 16 * n * n * (1 + len(rules))
    closure_fixpoint(matrix, rules, cap)
    return BoundedFreeAlgebra(
        tuple(terms),
        tuple(str(t) for t in terms),
        tuple(tuple(row) for row in matrix),
        depth,
        True,
        MappingProxyType(index),
    )


def monoid_signature() -> Signature:
    return Signature([("add", 2), ("e", 0)])


def monoid_equations(signature: Signature | None = None) -> list[QuantEquation]:
    """Associativity and the two unit laws, all at bound zero."""
    x, y, z = var("x"), var("y"), var("z")
    unit = op("e")
    return [
        QuantEquation(("x", "y", "z"), op("add", op("add", x, y), z), op("add", x, op("add", y, z)), 0),
        QuantEquation(("x",), op("add", x, unit), x, 0),
        QuantEquation(("x",), op("add", unit, x), x, 0),
    ]


def commutativity_equation(epsilon) -> QuantEquation:
    x, y = var("x"), var("y")
    return QuantEquation(("x", "y"), op("add", x, y), op("add", y, x), epsilon)


def truncated_addition_monoid(size: int = 3) -> QuantAlgebra:
    """Addition on {0..size} truncated at size, carrier distances |i - j|.

    Associativity and the unit laws hold exactly, and addition is
    nonexpanding for the addition metric on pairs, but not for the
    maximum metric, so this is not a valid quantitative algebra.
    """
    if size < 1:
        raise StructuralError("carrier needs at least two elements")
    names = [str(i) for i in range(size + 1)]
    carrier = make_space(
        names,
        {(str(i), str(j)): abs(i - j) for i in range(size + 1) for j in range(i + 1, size + 1)},
    )
    add_table = {
        (str(i), str(j)): str(min(i + j, size))
        for i in range(size + 1)
        for j in range(size + 1)
    }
    tables = {"add": add_table, "e": {(): "0"}}
    return QuantAlgebra(carrier, monoid_signature(), tables)


@dataclass(frozen=True)
class DemoReport:
    """Outcome of the truncated-addition demonstration."""

    size: int
    sum_violations: int
    max_violations: int
    witness: OpViolation | None  # the pair (0,1),(1,2) if found
    associativity_ok: bool
    left_unit_ok: bool
    right_unit_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.sum_violations == 0
            and self.witness is not None
            and self.associativity_ok
            and self.left_unit_ok
            and self.right_unit_ok
        )


def counterexample_demo(size: int = 3) -> DemoReport:
    """Build the truncated-addition monoid and document why it is a metric
    monoid but not a quantitative algebra.

    Addition passes the addition-metric (sum) check with zero violations
    yet fails the maximum-metric check: the inputs (0,1) and (1,2) are at
    maximum distance 1 while their sums 1 and 3 are at distance 2.  The
    monoid laws hold exactly.
    """
    if size < 3:
        raise StructuralError("need size >= 3 so the witness pair exists")
    if (size + 1) ** 4 > DEFAULT_PAIR_CAP:  # the checks' pair count, before building
        raise CapExceededError("tuple pairs for symbol 'add'", (size + 1) ** 4, DEFAULT_PAIR_CAP)
    algebra = truncated_addition_monoid(size)
    sum_violations = check_op_against_combiner(algebra, "add", "sum")
    max_violations = check_op_against_combiner(algebra, "add", "max")
    pair = {("0", "1"), ("1", "2")}
    witness = next((v for v in max_violations if {v.left, v.right} == pair), None)
    assoc, right_unit, left_unit = monoid_equations()
    laws = [satisfies(algebra, eq).ok for eq in (assoc, left_unit, right_unit)]
    return DemoReport(size, len(sum_violations), len(max_violations), witness, *laws)
