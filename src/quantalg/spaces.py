"""Finite extended (pseudo)metric spaces and their basic constructions.

Points are strings; the canonical point order is lexicographic, which fixes
the matrix layout and the serialized form.  All values are immutable after
construction, so spaces and maps can be shared freely.

Distances live in Dist (exact rationals or infinity).  A PseudoSpace allows
distance zero between distinct points; a MetricSpace does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .distance import INF, ZERO, Dist, dist_max, dist_sum
from .errors import Frozen, InvariantError, StructuralError
from .matrix import scale


@dataclass(frozen=True)
class Violation:
    """One failed axiom with its witnessing points and the distances seen."""

    kind: str  # diagonal | symmetry | triangle | separation
    points: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.points}: {self.detail}"


def space_violations(
    points: Sequence[str],
    rows: Sequence[Sequence[Dist]],
    mode: str = "metric",
) -> list[Violation]:
    """Report every metric/pseudometric axiom violated by a raw matrix.

    Structural problems (non-square matrix, duplicate points, non-Dist
    entries) raise StructuralError instead of being reported.
    """
    if mode not in ("metric", "pseudo"):
        raise StructuralError(f"unknown validation mode {mode!r}")
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise StructuralError("duplicate point identifiers")
    return axiom_report(pts, rows, separation=mode == "metric", diagonal="d = {}, expected 0")


def axiom_report(
    pts: Sequence[str],
    rows: Sequence[Sequence[Dist]],
    upper: Sequence[Sequence[Dist]] | None = None,
    separation: bool = False,
    diagonal: str = "{} != 0",
) -> list[Violation]:
    """The one axiom checker behind both violation reports.

    In order: nonzero diagonal entries (formatted by ``diagonal``); per
    pair i < j an asymmetry, else with ``separation`` a zero, and an entry
    above ``upper``; then the triangles through every k.  The comparisons
    run on the scaled integer matrix, the details show the given values.
    """
    n = len(pts)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise StructuralError(f"matrix is not {n}x{n}")
    for row in rows:
        for entry in row:
            if not isinstance(entry, Dist):
                raise StructuralError(f"matrix entry {entry!r} is not a distance")
    scaled, _, _ = scale(rows) if upper is None else scale(rows, upper)
    m = scaled[0]
    out = [
        Violation("diagonal", (pts[i],), diagonal.format(rows[i][i]))
        for i in range(n) if m[i * n + i]
    ]
    for i in range(n):
        for j in range(i + 1, n):
            d = m[i * n + j]
            if d != m[j * n + i]:
                out.append(Violation("symmetry", (pts[i], pts[j]), f"{rows[i][j]} vs {rows[j][i]}"))
            elif separation and not d:
                out.append(Violation("separation", (pts[i], pts[j]), "d = 0 for distinct points"))
            if upper is not None and d > scaled[1][i * n + j]:
                detail = f"{rows[i][j]} exceeds base distance {upper[i][j]}"
                out.append(Violation("bound", (pts[i], pts[j]), detail))
    row = [m[i * n:(i + 1) * n] for i in range(n)]
    col = [m[j::n] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d, ri, cj = row[i][j], row[i], col[j]
            # the k = i and k = j sums are never below d, so the minimum
            # is below d only for a genuine witness
            if d > min(map(add, ri, cj)):
                out.extend(
                    Violation("triangle", (pts[i], pts[k], pts[j]),
                              f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}")
                    for k in range(n) if k != i and k != j and d > ri[k] + cj[k]
                )
    return out


class PseudoSpace(Frozen):
    """Finite pseudometric space: distance zero may identify distinct points."""

    _MODE = "pseudo"

    __slots__ = ("points", "_index", "_rows")

    def __init__(self, points: Sequence[str], rows: Sequence[Sequence[Dist]]):
        pts = tuple(points)
        if list(pts) != sorted(pts):
            raise StructuralError("points must be given in lexicographic order")
        report = space_violations(pts, rows, mode=self._MODE)
        if report:
            raise InvariantError(f"not a valid {self._MODE} space", report)
        self._set(pts, rows)

    def _set(self, points: Sequence[str], rows: Sequence[Sequence[Dist]]) -> None:
        pts = tuple(points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})
        object.__setattr__(self, "_rows", tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise StructuralError(f"unknown point {point!r}") from None

    def dist(self, x: str, y: str) -> Dist:
        return self._rows[self.index(x)][self.index(y)]

    def dist_at(self, i: int, j: int) -> Dist:
        return self._rows[i][j]

    @property
    def rows(self) -> tuple[tuple[Dist, ...], ...]:
        return self._rows

    def point_pairs(self) -> Iterable[tuple[str, str]]:
        """All unordered pairs of distinct points, lexicographically."""
        return itertools.combinations(self.points, 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoSpace):
            return NotImplemented
        return self.points == other.points and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.points, self._rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.points)} points)"


class MetricSpace(PseudoSpace):
    """Finite extended metric space: zero distance only on the diagonal."""

    _MODE = "metric"
    __slots__ = ()


def fill_matrix(
    points: Iterable[str],
    entries: Mapping[tuple[str, str], object] | Iterable[tuple[str, str, object]] = (),
) -> tuple[list[str], list[list[Dist]]]:
    """Expand sparse entries to a full matrix, without axiom checks.

    Missing off-diagonal distances default to infinity, the diagonal to
    zero.  Entries may be given in either point order; conflicting
    duplicates are a structural error.
    """
    given = list(points)
    if len(set(given)) != len(given):
        raise StructuralError("duplicate point identifiers")
    pts = sorted(given)
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)
    grid: list[list[Dist | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = ZERO
    if isinstance(entries, Mapping):
        triples = [(x, y, v) for (x, y), v in entries.items()]
    else:
        triples = [(x, y, v) for x, y, v in entries]
    for x, y, value in triples:
        if x not in index or y not in index:
            raise StructuralError(f"distance given for unknown pair ({x!r}, {y!r})")
        d = Dist(value)
        i, j = index[x], index[y]
        for a, b in ((i, j), (j, i)):
            if grid[a][b] is not None and grid[a][b] != d:
                raise StructuralError(f"conflicting distances for ({x!r}, {y!r})")
            grid[a][b] = d
    rows = [[INF if cell is None else cell for cell in row] for row in grid]
    return pts, rows


def make_space(
    points: Iterable[str],
    entries: Mapping[tuple[str, str], object] | Iterable[tuple[str, str, object]] = (),
    mode: str = "metric",
) -> PseudoSpace:
    """Build a space from sparse entries; see fill_matrix for defaulting."""
    pts, rows = fill_matrix(points, entries)
    cls = MetricSpace if mode == "metric" else PseudoSpace
    return cls(pts, rows)


def singleton_space(point: str = "*") -> MetricSpace:
    return make_space([point])


def discrete_space(points: Iterable[str]) -> MetricSpace:
    """All distances infinity off the diagonal."""
    return make_space(points)


class SpaceMap(Frozen):
    """A total map between spaces, given pointwise."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: PseudoSpace, target: PseudoSpace, mapping: Mapping[str, str]):
        mapping = dict(mapping)
        for p in source.points:
            if p not in mapping:
                raise StructuralError(f"map undefined on point {p!r}")
        for p, q in mapping.items():
            if p not in source._index:
                raise StructuralError(f"map defined on unknown point {p!r}")
            if q not in target._index:
                raise StructuralError(f"map hits unknown point {q!r}")
        self._set(source, target, mapping)

    def _set(self, source: PseudoSpace, target: PseudoSpace, mapping: Mapping[str, str]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", MappingProxyType(dict(mapping)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"

    def __call__(self, point: str) -> str:
        return self.mapping[point]

    def is_nonexpanding(self) -> bool:
        return self.expansion_witness() is None

    def expanding_pairs(self) -> Iterator[tuple[str, str]]:
        """The pairs of distinct points whose image distance exceeds their
        source distance, in point order."""
        for x, y in self.source.point_pairs():
            if self.target.dist(self(x), self(y)) > self.source.dist(x, y):
                yield x, y

    def expansion_witness(self) -> tuple[str, str] | None:
        """Least pair whose image distance exceeds the source distance."""
        return next(self.expanding_pairs(), None)

    def is_isometric_embedding(self) -> bool:
        for x, y in itertools.combinations_with_replacement(self.source.points, 2):
            if self.target.dist(self(x), self(y)) != self.source.dist(x, y):
                return False
        return True

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.points)

    def as_space_map(self) -> "SpaceMap":
        return self


class QuotientMap(SpaceMap):
    """A distance-preserving surjection onto a metric space."""

    __slots__ = ()

    def __init__(self, source: PseudoSpace, target: MetricSpace, class_of: Mapping[str, str]):
        super().__init__(source, target, class_of)
        if not self.is_surjective():
            raise StructuralError("quotient map is not surjective onto the target")
        bad = [
            (x, y)
            for x, y in itertools.combinations(source.points, 2)
            if target.dist(self(x), self(y)) != source.dist(x, y)
        ]
        if bad:
            raise InvariantError(
                "quotient map does not preserve distances",
                [Violation("quotient", pair, "image distance differs") for pair in bad],
            )

    @property
    def class_of(self) -> Mapping[str, str]:
        return self.mapping

    def classes(self) -> dict[str, list[str]]:
        """Target point -> sorted members of its fiber."""
        out: dict[str, list[str]] = {q: [] for q in self.target.points}
        for p in self.source.points:
            out[self(p)].append(p)
        return out


def metric_reflection(space: PseudoSpace) -> tuple[MetricSpace, QuotientMap]:
    """Collapse zero-distance points; the quotient map preserves distances.

    Each class is named after its least member.
    """
    rep: dict[str, str] = {}
    for p in space.points:
        for q in space.points:
            if space.dist(q, p) == ZERO:
                rep[p] = q  # points are sorted, so the first zero-mate is least
                break
    target = subspace(space, rep.values())
    return target, QuotientMap._derived(space, target, rep)


def subspace(space: PseudoSpace, keep: Iterable[str]) -> MetricSpace:
    """The given points with the distances between them; no two of them
    may be at distance zero."""
    pts = sorted(set(keep))
    return MetricSpace._derived(pts, [[space.dist(x, y) for y in pts] for x in pts])


def tuple_label(parts: Sequence[str]) -> str:
    """Canonical display name for a point of a product space."""
    return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class ProductResult:
    """A product space together with its tuple bookkeeping."""

    space: MetricSpace
    factors: tuple[MetricSpace, ...]
    coords: Mapping[str, tuple[str, ...]]  # product point -> factor points

    def projections(self) -> list[SpaceMap]:
        return [
            SpaceMap._derived(self.space, factor, {p: self.coords[p][i] for p in self.space.points})
            for i, factor in enumerate(self.factors)
        ]


def _combined_space(spaces: Sequence[MetricSpace], combine) -> ProductResult:
    tuples = list(itertools.product(*(s.points for s in spaces)))
    coords = MappingProxyType({tuple_label(t): t for t in tuples})
    if len(coords) != len(tuples):
        raise StructuralError("product point labels collide; rename the input points")
    labels = sorted(coords)
    rows = tuple_rows([s.dist for s in spaces], [coords[a] for a in labels], combine)
    return ProductResult(MetricSpace._derived(labels, rows), tuple(spaces), coords)


def tuple_rows(dists, tuples, combine=dist_max) -> list[list[Dist]]:
    """The matrix of a list of point tuples, combining coordinatewise
    distances (one distance function per coordinate)."""
    return [
        [combine(d(x, y) for d, x, y in zip(dists, ta, tb)) for tb in tuples]
        for ta in tuples
    ]


def product_space(spaces: Sequence[MetricSpace]) -> ProductResult:
    """Cartesian product with the maximum metric, any arity."""
    return _combined_space(spaces, dist_max)


def product(first: MetricSpace, second: MetricSpace) -> MetricSpace:
    """Binary product: pairs with the maximum metric."""
    return product_space([first, second]).space


def tensor(first: MetricSpace, second: MetricSpace) -> MetricSpace:
    """Binary tensor: pairs with the addition metric (saturating)."""
    return _combined_space([first, second], dist_sum).space


def coproduct(spaces: Sequence[MetricSpace]) -> tuple[MetricSpace, list[SpaceMap]]:
    """Disjoint union; distances across summands are infinite.

    Points are tagged "i:name" by summand index, so a coproduct of
    singletons is a discrete space.
    """
    tagged: list[str] = []
    for i, s in enumerate(spaces):
        tagged.extend(f"{i}:{p}" for p in s.points)
    order = sorted(tagged)
    index_of_tag = {t: k for k, t in enumerate(order)}
    n = len(order)
    rows: list[list[Dist]] = [[INF] * n for _ in range(n)]
    for i, s in enumerate(spaces):
        for x in s.points:
            for y in s.points:
                rows[index_of_tag[f"{i}:{x}"]][index_of_tag[f"{i}:{y}"]] = s.dist(x, y)
    out = MetricSpace._derived(order, rows)
    injections = [
        SpaceMap._derived(s, out, {p: f"{i}:{p}" for p in s.points}) for i, s in enumerate(spaces)
    ]
    return out, injections


def connected_components(space: PseudoSpace) -> list[list[str]]:
    """Partition the points by finite distance; sorted by representative.

    The finite-distance relation is transitive thanks to the triangle
    inequality, so a single sweep suffices.  The component count is the
    abstract-finiteness measure for finite spaces.
    """
    seen: set[str] = set()
    parts: list[list[str]] = []
    for p in space.points:
        if p in seen:
            continue
        members = [q for q in space.points if not space.dist(p, q).is_infinite]
        seen.update(members)
        parts.append(sorted(members))
    return parts
