"""Subcongruences on finite spaces, their colimits, and quotient algebras.

A subcongruence on a finite metric space is stored as a single matrix
d-hat: symmetric, zero on the diagonal, satisfying the triangle
inequality, and bounded above by the base distance.  The sublevel set of
d-hat at each threshold, with the two coordinate projections, recovers the
indexed picture of the relation family; on finite carriers the infimum
defining a colimit distance is attained, so the matrix loses nothing.

Colimits are metric reflections of (base points, d-hat).  The closure
operation that generates the least congruence refining given distance
bounds alternates exact min-plus transitive closure with operation
propagation until a full alternation changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebras import (
    DEFAULT_PAIR_CAP, Homomorphism, QuantAlgebra, _stretched_instances, op_tables, operation_instances
)
from .distance import Dist, ZERO, dist_max
from .errors import ConvergenceError, Frozen, InvariantError, StructuralError, check_cap
from .matrix import _finite_components, min_plus_sweep, propagation_sweep, scale, unscale
from .spaces import (
    MetricSpace,
    PseudoSpace,
    QuotientMap,
    SpaceMap,
    Violation,
    axiom_report,
    metric_reflection,
    product_space,
    tuple_label,
    tuple_rows,
)


def subcongruence_violations(
    base: MetricSpace, dhat: Sequence[Sequence[Dist]]
) -> list[Violation]:
    """All axioms the matrix breaks: reflexivity bound, symmetry, zero
    diagonal, triangle inequality."""
    return axiom_report(base.points, dhat, upper=base.rows)


class Subcongruence(Frozen):
    """A pseudometric matrix below the base metric of a finite space."""

    __slots__ = ("base", "dhat")

    def __init__(self, base: MetricSpace, dhat: Sequence[Sequence[Dist]]):
        report = subcongruence_violations(base, dhat)
        if report:
            raise InvariantError("not a subcongruence", report)
        self._set(base, dhat)

    def _set(self, base: MetricSpace, dhat: Sequence[Sequence[Dist]]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "dhat", tuple(tuple(row) for row in dhat))

    def d(self, x: str, y: str) -> Dist:
        return self.dhat[self.base.index(x)][self.base.index(y)]

    def as_pseudo_space(self) -> PseudoSpace:
        return PseudoSpace._derived(self.base.points, self.dhat)

    def sublevel(self, epsilon: Dist) -> "PairRelation":
        """The relation at one threshold, with its two projections."""
        return _pair_relation(self.base, lambda x, y: self.d(x, y) <= epsilon)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subcongruence):
            return NotImplemented
        return self.base == other.base and self.dhat == other.dhat

    def __repr__(self) -> str:
        return f"Subcongruence({self.base.n} points)"


def identity_subcongruence(base: MetricSpace) -> Subcongruence:
    return Subcongruence._derived(base, base.rows)


@dataclass(frozen=True)
class PairRelation:
    """A set of ordered point pairs as a subspace of the square, plus the
    coordinate projections."""

    pairs: tuple[tuple[str, str], ...]
    space: MetricSpace
    left: SpaceMap
    right: SpaceMap


def _pair_relation(base: MetricSpace, related) -> PairRelation:
    pairs = [(x, y) for x in base.points for y in base.points if related(x, y)]
    labels = sorted(tuple_label(p) for p in pairs)
    by_label = {tuple_label(p): p for p in pairs}
    space = MetricSpace._derived(labels, tuple_rows([base.dist] * 2, [by_label[a] for a in labels]))
    left = SpaceMap._derived(space, base, {lab: by_label[lab][0] for lab in labels})
    right = SpaceMap._derived(space, base, {lab: by_label[lab][1] for lab in labels})
    return PairRelation(tuple(sorted(pairs)), space, left, right)


def _as_map(f) -> SpaceMap:
    if isinstance(f, (Homomorphism, SpaceMap)):
        return f.as_space_map()
    raise StructuralError(f"not a map between spaces: {f!r}")


def epsilon_kernel_pair(f, epsilon) -> PairRelation:
    """All source pairs whose images lie within the threshold.

    The relation carries the maximum-metric subspace structure of the
    square of the source.
    """
    m = _as_map(f)
    eps = Dist(epsilon)
    if not isinstance(m.source, MetricSpace):
        raise StructuralError("kernel pairs need a metric source")
    return _pair_relation(m.source, lambda x, y: m.target.dist(m(x), m(y)) <= eps)


def kernel_subcongruence(f) -> Subcongruence:
    """The matrix of image distances; its sublevels are the kernel pairs."""
    m = _as_map(f)
    if not isinstance(m.source, MetricSpace):
        raise StructuralError("kernel subcongruences need a metric source")
    witness = m.expansion_witness()
    if witness is not None:
        raise StructuralError(f"map expands the pair {witness}; not nonexpanding")
    pts = m.source.points
    return Subcongruence._derived(m.source, [[m.target.dist(m(x), m(y)) for y in pts] for x in pts])


def colimit(sub: Subcongruence) -> tuple[MetricSpace, QuotientMap]:
    """Identify zero d-hat pairs; class distances are exactly d-hat.

    This is the metric reflection of (base points, d-hat); the returned
    map's source carries the d-hat pseudometric.
    """
    pseudo = sub.as_pseudo_space()
    return metric_reflection(pseudo)


@dataclass(frozen=True)
class EffectivityResult:
    ok: bool
    discrepancies: tuple[tuple[str, str, Dist, Dist], ...]  # (x, y, dhat, kernel)


def check_effectivity(sub: Subcongruence) -> EffectivityResult:
    """Rebuild the subcongruence from its own colimit map and compare.

    Every subcongruence on a finite space is the kernel of its colimit
    map, so a nonempty discrepancy list indicates an implementation bug.
    """
    space, qmap = colimit(sub)
    recovered = kernel_subcongruence(SpaceMap._derived(sub.base, space, qmap.mapping))
    bad = tuple(
        (x, y, sub.d(x, y), recovered.d(x, y))
        for x, y in sub.base.point_pairs()
        if sub.d(x, y) != recovered.d(x, y)
    )
    return EffectivityResult(not bad, bad)


def product_subcongruence(s1: Subcongruence, s2: Subcongruence) -> Subcongruence:
    """Componentwise maximum on the product base; its colimit is the
    product of the component colimits."""
    prod = product_space([s1.base, s2.base])
    rows = tuple_rows([s1.d, s2.d], [prod.coords[a] for a in prod.space.points])
    return Subcongruence._derived(prod.space, rows)


def closure_fixpoint(matrix: list[list[Dist]], rules: Sequence[tuple], pass_cap: int) -> int:
    """Alternate min-plus sweeps with propagation sweeps, in place.

    The matrix must be symmetric with a zero diagonal.  Stops after a full
    alternation with zero changes; returns the number of alternations.
    The sweeps run on the scaled integer matrix; the caller's matrix gets
    the changed entries back as Dist.

    The alternation terminates.  Entries only decrease, and every finite
    entry is a sum of entries of the input matrix: a min-plus step writes
    the sum of two entries, a propagation step copies one.  Below any
    bound there are only finitely many such sums, because each nonzero
    input entry is at least the least of them.  So every entry changes
    finitely often, and every pass but the last changes one.  The pass cap
    is a budget on the work, not a guard of soundness.

    A pass sweeps each finite component (points joined by finite entries)
    on its own block, and only where needed; the iterates are those of a
    dense sweep of the whole matrix, pass for pass.  Entries between two
    components are infinite and stay so under min-plus, so the
    shortest-path closure of the matrix is that of each block.  After a
    pass's sweeps every component is closed.  A component of the next
    pass that holds no endpoint of a cell propagation lowered has every
    entry touching it unchanged: it is a component of the swept matrix,
    still closed, and a sweep would change nothing.  Merging components
    takes a lowered cell between them, so a merged component is swept.
    Hence every pass ends on the dense sweep's matrix with the same change
    flag, and the pass count and ``ConvergenceError`` snapshots are the
    dense alternation's.
    """
    n = len(matrix)
    (m,), unit, inf = scale(matrix)
    start, passes, touched = m[:], 0, None  # None: sweep every component
    values: dict[int, Dist] = {}

    def dist(v: int) -> Dist:
        if v not in values:
            values[v] = unscale(v, unit, inf)
        return values[v]

    try:
        while True:
            snapshot = m[:]
            changed = False
            for points in _finite_components(m, n, inf):
                if touched is None or not touched.isdisjoint(points):
                    changed = min_plus_sweep(m, n, inf, points) or changed
            lowered = propagation_sweep(m, rules)
            passes += 1
            if not (changed or lowered):
                return passes
            if passes >= pass_cap:
                break
            touched = {c // n for c in lowered}  # a lowered cell joins its two points
    finally:
        for c, (old, new) in enumerate(zip(start, m)):
            if new != old:
                matrix[c // n][c % n] = dist(new)
    previous = [[dist(v) for v in snapshot[i:i + n]] for i in range(0, n * n, n)]
    raise ConvergenceError(passes, previous, [row[:] for row in matrix])


class CongruenceOnAlgebra(Frozen):
    """A subcongruence on an algebra's carrier that the operations respect."""

    __slots__ = ("algebra", "sub")

    def __init__(self, algebra: QuantAlgebra, sub: Subcongruence, max_pairs: int = DEFAULT_PAIR_CAP):
        if sub.base != algebra.carrier:
            raise StructuralError("subcongruence base differs from the carrier")
        bad = compatibility_violations(algebra, sub, max_pairs)
        if bad:
            raise InvariantError("operations do not respect the matrix", bad)
        self._set(algebra, sub)

    def _set(self, algebra: QuantAlgebra, sub: Subcongruence) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "sub", sub)

    def __repr__(self) -> str:
        return f"CongruenceOnAlgebra({self.algebra!r})"


def compatibility_violations(
    algebra: QuantAlgebra, sub: Subcongruence, max_pairs: int = DEFAULT_PAIR_CAP
) -> list[Violation]:
    """Tuple pairs where an operation stretches d-hat beyond the maximum of
    the coordinate d-hat distances."""
    n, pts = algebra.carrier.n, algebra.carrier.points
    out: list[Violation] = []
    stream = _stretched_instances(algebra, sub.dhat, algebra.signature.symbols, "max", max_pairs)
    for _, inst in stream:
        i, j = divmod(inst[0], n)
        bound = dist_max(sub.dhat[c // n][c % n] for c in inst[2:])
        detail = f"{sub.dhat[i][j]} > coordinate bound {bound}"
        out.append(Violation("compatibility", (pts[i], pts[j]), detail))
    return out


def generated_congruence(
    algebra: QuantAlgebra,
    constraints: Sequence[tuple[str, str, object]],
    max_passes: int | None = None,
    max_pairs: int = DEFAULT_PAIR_CAP,
) -> CongruenceOnAlgebra:
    """The largest matrix below the carrier metric and the given bounds that
    is a congruence on the algebra.

    Starts from the carrier metric lowered by the constraints and
    alternates min-plus closure with operation propagation to the greatest
    fixpoint.  The result is idempotent: feeding its own values back as
    constraints changes nothing.  A fixpoint of both sweeps satisfies the
    triangle inequality and respects every operation, so it is not checked
    again.
    """
    check_cap("pass", max_passes, 1)
    carrier = algebra.carrier
    m = [list(row) for row in carrier.rows]
    for x, y, eps in constraints:
        i, j = carrier.index(x), carrier.index(y)
        bound = Dist(eps)
        if bound < m[i][j]:
            m[i][j] = m[j][i] = bound
    rules = operation_instances(algebra, max_pairs)
    n = carrier.n
    cap = max_passes if max_passes is not None else 16 * n * n * (1 + algebra.table_size())
    closure_fixpoint(m, rules, cap)
    return CongruenceOnAlgebra._derived(algebra, Subcongruence._derived(carrier, m))


def quotient_algebra(cong: CongruenceOnAlgebra) -> tuple[QuantAlgebra, Homomorphism]:
    """Collapse the congruence; classes are named by their least member.

    Operation tables descend to classes, which is well defined exactly
    because the matrix is operation-compatible.  The quotient map is a
    surjective homomorphism.
    """
    algebra = cong.algebra
    space, qmap = colimit(cong.sub)
    tables = op_tables(algebra.signature, space.points, lambda name, reps: qmap(
        algebra.op(name, reps)
    ))
    quotient = QuantAlgebra._derived(space, algebra.signature, tables)
    return quotient, Homomorphism._derived(algebra, quotient, qmap.mapping)


def coequalizer(
    f: Homomorphism, g: Homomorphism, max_passes: int | None = None
) -> tuple[QuantAlgebra, Homomorphism]:
    """Universal quotient of the common target forcing f and g to agree."""
    if f.source != g.source or f.target != g.target:
        raise StructuralError("coequalizer needs a parallel pair")
    constraints = [(f(x), g(x), ZERO) for x in f.source.carrier.points]
    cong = generated_congruence(f.target, constraints, max_passes=max_passes)
    return quotient_algebra(cong)


@dataclass(frozen=True)
class UniversalCheck:
    """Outcome of factoring a candidate map through a colimit map."""

    ok: bool
    factor: SpaceMap | None
    reason: str | None
    witness: tuple | None


def universal_property_check(sub: Subcongruence, q, candidate) -> UniversalCheck:
    """Try to factor the candidate through q as maps out of the base.

    The candidate must satisfy the compatibility condition in matrix form:
    its image distances may not exceed d-hat.  If they do, the least
    violating pair is returned.  Otherwise the unique factor through q is
    constructed and checked nonexpanding; failures report why q is not a
    colimit map.
    """
    q, c = _as_map(q), _as_map(candidate)
    if set(q.source.points) != set(sub.base.points) or set(c.source.points) != set(sub.base.points):
        raise StructuralError("maps must start from the subcongruence base")
    witness = SpaceMap._derived(sub.as_pseudo_space(), c.target, c.mapping).expansion_witness()
    if witness is not None:
        return UniversalCheck(False, None, "candidate violates the compatibility bound", witness)
    factor: dict[str, str] = {}
    definer: dict[str, str] = {}
    for x in sub.base.points:
        image = q(x)
        value = c(x)
        if image in factor and factor[image] != value:
            return UniversalCheck(
                False, None, "candidate is not constant on the fibers of q", (definer[image], x)
            )
        factor.setdefault(image, value)
        definer.setdefault(image, x)
    missing = [p for p in q.target.points if p not in factor]
    if missing:
        return UniversalCheck(False, None, "q is not surjective onto its target", tuple(missing))
    h = SpaceMap._derived(q.target, c.target, factor)
    witness = h.expansion_witness()
    if witness is not None:
        return UniversalCheck(False, None, "induced factor is not nonexpanding", witness)
    return UniversalCheck(True, h, None, None)
