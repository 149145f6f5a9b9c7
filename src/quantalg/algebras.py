"""Finite quantitative algebras and their homomorphisms.

An algebra is a metric-space carrier plus one total operation table per
symbol.  Construction checks the tables structurally (total, closed); the
semantic law, every operation nonexpanding with respect to the maximum
metric on tuples, is checked separately by validate_algebra, so that
near-miss algebras (the truncated-addition monoid, say) can still be built
and inspected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .distance import Dist, dist_max, dist_sum
from .errors import CapExceededError, Frozen, InvariantError, StructuralError
from .matrix import pair_instances, scale, stretched
from .spaces import MetricSpace, SpaceMap, product_space, subspace, tuple_label
from .terms import Signature, _closed_under

DEFAULT_PAIR_CAP = 10_000_000


@dataclass(frozen=True)
class OpViolation:
    """One tuple pair where an operation stretched the allowed distance."""

    symbol: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    bound: Dist
    actual: Dist

    def __str__(self) -> str:
        return (
            f"{self.symbol}{self.left} vs {self.symbol}{self.right}: "
            f"output distance {self.actual} > input bound {self.bound}"
        )


class QuantAlgebra(Frozen):
    """A finite algebra on a metric space, with explicit operation tables."""

    __slots__ = ("carrier", "signature", "tables")

    def __init__(
        self,
        carrier: MetricSpace,
        signature: Signature,
        tables: Mapping[str, Mapping[tuple[str, ...], str]],
    ):
        points = set(carrier.points)
        cleaned: dict[str, dict[tuple[str, ...], str]] = {}
        for name, arity in signature.symbols:
            if name not in tables:
                raise StructuralError(f"missing table for symbol {name!r}")
            table = {tuple(k): v for k, v in tables[name].items()}
            for key, value in table.items():
                if len(key) != arity:
                    raise StructuralError(f"table key {key} has wrong arity for {name!r}")
                if any(x not in points for x in key) or value not in points:
                    raise StructuralError(f"table entry {key} -> {value!r} leaves the carrier")
            expected = len(points) ** arity
            if len(table) != expected:
                raise StructuralError(
                    f"table for {name!r} has {len(table)} entries, expected {expected}"
                )
            cleaned[name] = table
        extra = set(tables) - set(signature.names)
        if extra:
            raise StructuralError(f"tables given for unknown symbols {sorted(extra)}")
        self._set(carrier, signature, cleaned)

    def _set(self, carrier: MetricSpace, signature: Signature, tables) -> None:
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "tables", MappingProxyType(
            {name: MappingProxyType(dict(table)) for name, table in tables.items()}
        ))

    def op(self, name: str, args: Sequence[str]) -> str:
        try:
            table = self.tables[name]
        except KeyError:
            raise StructuralError(f"unknown operation symbol {name!r}") from None
        try:
            return table[tuple(args)]
        except KeyError:
            raise StructuralError(f"operation {name!r} undefined on {tuple(args)}") from None

    def table_size(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantAlgebra):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.signature == other.signature
            and self.tables == other.tables
        )

    def __repr__(self) -> str:
        return f"QuantAlgebra({self.carrier.n} points, {len(self.signature.symbols)} symbols)"


def _symbol_instances(algebra: QuantAlgebra, name: str, arity: int, max_pairs: int):
    """The instances of one symbol, one chunk per first argument tuple, in
    lexicographic order; the pair cap is checked before any is built."""
    points = algebra.carrier.points
    n = len(points)
    count = n ** (2 * arity)
    if count > max_pairs:
        raise CapExceededError(f"tuple pairs for symbol {name!r}", count, max_pairs)
    index = {p: i for i, p in enumerate(points)}
    table = algebra.tables[name]
    outs = [index[table[xs]] for xs in itertools.product(points, repeat=arity)]
    return pair_instances(n, list(itertools.product(range(n), repeat=arity)), outs)


def operation_instances(algebra: QuantAlgebra, max_pairs: int = DEFAULT_PAIR_CAP) -> list[tuple]:
    """Every pair of argument tuples, in signature and lexicographic order,
    whose outputs differ, as an instance (see pair_instances)."""
    return [inst for name, arity in algebra.signature.symbols
            for chunk in _symbol_instances(algebra, name, arity, max_pairs) for inst in chunk]


def _stretched_instances(
    algebra: QuantAlgebra, rows, symbols: Sequence[tuple[str, int]], combiner: str, max_pairs: int
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(symbol, instance) for each instance, in operation_instances order,
    whose output entry in the matrix ``rows`` on the carrier exceeds the max
    (or sum) of its coordinate entries; one chunk is held at a time."""
    (m,), _, inf = scale(rows)
    for symbol, arity in symbols:
        for chunk in _symbol_instances(algebra, symbol, arity, max_pairs):
            for inst in stretched(m, inf, chunk, combiner):
                yield symbol, inst


def _nonexpansion_report(
    algebra: QuantAlgebra, symbols: Sequence[tuple[str, int]], combiner: str, max_pairs: int
) -> list[OpViolation]:
    combine = dist_max if combiner == "max" else dist_sum
    carrier = algebra.carrier
    pts, n = carrier.points, carrier.n
    out: list[OpViolation] = []
    stream = _stretched_instances(algebra, carrier.rows, symbols, combiner, max_pairs)
    for symbol, group in itertools.groupby(stream, itemgetter(0)):
        pairs = []
        for _, inst in group:
            xs, ys = tuple(c // n for c in inst[2:]), tuple(c % n for c in inst[2:])
            pairs += [(xs, ys), (ys, xs)]  # the carrier metric is symmetric
        for xs, ys in sorted(pairs):
            left = tuple(pts[i] for i in xs)
            right = tuple(pts[i] for i in ys)
            bound = combine(carrier.dist_at(x, y) for x, y in zip(xs, ys))
            actual = carrier.dist(algebra.op(symbol, left), algebra.op(symbol, right))
            out.append(OpViolation(symbol, left, right, bound, actual))
    return out


def check_op_against_combiner(
    algebra: QuantAlgebra,
    symbol: str,
    combiner: str,
    max_pairs: int = DEFAULT_PAIR_CAP,
) -> list[OpViolation]:
    """Check one operation against an input-distance combiner (max or sum).

    The quantitative-algebra law is the "max" combiner.  The "sum"
    combiner is the weaker law satisfied by, e.g., truncated addition on
    an interval: that operation passes "sum" but fails "max".
    """
    if combiner not in ("max", "sum"):
        raise StructuralError(f"unknown combiner {combiner!r}")
    arity = algebra.signature.arity(symbol)
    return _nonexpansion_report(algebra, [(symbol, arity)], combiner, max_pairs)


def validate_algebra(
    algebra: QuantAlgebra, max_pairs: int = DEFAULT_PAIR_CAP
) -> list[OpViolation]:
    """Every way an operation fails to be nonexpanding for the max metric.

    Empty report iff the algebra is a valid quantitative algebra.  The
    report order is deterministic (symbols in signature order, ordered
    tuple pairs lexicographic).
    """
    return _nonexpansion_report(algebra, algebra.signature.symbols, "max", max_pairs)


def require_valid(algebra: QuantAlgebra, max_pairs: int = DEFAULT_PAIR_CAP) -> QuantAlgebra:
    report = validate_algebra(algebra, max_pairs)
    if report:
        raise InvariantError("operations are not nonexpanding for the max metric", report)
    return algebra


def op_tables(
    signature: Signature, points: Sequence[str], value
) -> dict[str, dict[tuple[str, ...], str]]:
    """Operation tables on the points: value(name, args) at every argument
    tuple, in lexicographic order."""
    return {
        name: {xs: value(name, xs) for xs in itertools.product(points, repeat=arity)}
        for name, arity in signature.symbols
    }


def hom_violations(
    source: QuantAlgebra, target: QuantAlgebra, mapping: Mapping[str, str]
) -> list[str]:
    """Why the mapping fails to be a homomorphism; empty iff it is one."""
    problems: list[str] = []
    for p in source.carrier.points:
        if p not in mapping:
            problems.append(f"undefined on {p!r}")
        elif mapping[p] not in target.carrier.points:
            problems.append(f"maps {p!r} outside the target carrier")
    if problems:
        return problems
    if source.signature != target.signature:
        problems.append("source and target signatures differ")
        return problems
    carrier_map = SpaceMap._derived(source.carrier, target.carrier, mapping)
    problems += [f"expands the pair {pair}" for pair in carrier_map.expanding_pairs()]
    for name, arity in source.signature.symbols:
        for xs in itertools.product(source.carrier.points, repeat=arity):
            image = target.op(name, tuple(mapping[x] for x in xs))
            if mapping[source.op(name, xs)] != image:
                problems.append(f"does not commute with {name!r} at {xs}")
    return problems


class Homomorphism(Frozen):
    """A nonexpanding, structure-preserving map between algebras."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: QuantAlgebra, target: QuantAlgebra, mapping: Mapping[str, str]):
        problems = hom_violations(source, target, mapping)
        if problems:
            raise InvariantError("not a homomorphism", problems)
        self._set(source, target, mapping)

    def _set(self, source: QuantAlgebra, target: QuantAlgebra, mapping: Mapping[str, str]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", MappingProxyType(dict(mapping)))

    def __call__(self, point: str) -> str:
        return self.mapping[point]

    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.carrier.points)

    def is_isometric_embedding(self) -> bool:
        return self.as_space_map().is_isometric_embedding()

    def as_space_map(self) -> SpaceMap:
        return SpaceMap._derived(self.source.carrier, self.target.carrier, self.mapping)

    def compose(self, then: "Homomorphism") -> "Homomorphism":
        if then.source != self.target:
            raise StructuralError("composition mismatch")
        return Homomorphism._derived(
            self.source, then.target, {p: then.mapping[q] for p, q in self.mapping.items()}
        )

    def __repr__(self) -> str:
        return f"Homomorphism({self.source!r} -> {self.target!r})"


def identity_hom(algebra: QuantAlgebra) -> Homomorphism:
    return Homomorphism._derived(algebra, algebra, {p: p for p in algebra.carrier.points})


def hom_distance(f: Homomorphism, g: Homomorphism) -> Dist:
    """Supremum over the common source carrier of the image distances."""
    if f.source != g.source or f.target != g.target:
        raise StructuralError("hom distance needs a parallel pair")
    return dist_max(f.target.carrier.dist(f(p), g(p)) for p in f.source.carrier.points)


def product_algebra(
    algebras: Sequence[QuantAlgebra],
) -> tuple[QuantAlgebra, list[Homomorphism]]:
    """Product carrier with the maximum metric, operations componentwise.

    Returns the product algebra and the projection homomorphisms.
    """
    if not algebras:
        raise StructuralError("product of an empty family is not supported")
    signature = algebras[0].signature
    for a in algebras[1:]:
        if a.signature != signature:
            raise StructuralError("product factors must share a signature")
    prod = product_space([a.carrier for a in algebras])
    labels = prod.space.points
    coords = prod.coords
    tables = op_tables(signature, labels, lambda name, key: tuple_label(tuple(
        a.op(name, tuple(coords[k][i] for k in key)) for i, a in enumerate(algebras)
    )))
    out = QuantAlgebra._derived(prod.space, signature, tables)
    projections = [
        Homomorphism._derived(out, a, {p: coords[p][i] for p in labels})
        for i, a in enumerate(algebras)
    ]
    return out, projections


def subalgebra_generated(
    algebra: QuantAlgebra, seed: Iterable[str]
) -> tuple[QuantAlgebra, Homomorphism]:
    """Least operation-closed subset containing the seed, as a subalgebra.

    The inclusion is an isometric embedding and a homomorphism.
    """
    current = set(seed)
    for p in current:
        if p not in algebra.carrier.points:
            raise StructuralError(f"seed point {p!r} is not in the carrier")
    current = _closed_under(current, algebra.signature.symbols, algebra.op)
    sub_carrier = subspace(algebra.carrier, current)
    tables = op_tables(algebra.signature, sub_carrier.points, algebra.op)
    sub = QuantAlgebra._derived(sub_carrier, algebra.signature, tables)
    inclusion = Homomorphism._derived(sub, algebra, {p: p for p in sub_carrier.points})
    return sub, inclusion


def image_factorize(f: Homomorphism) -> tuple[Homomorphism, Homomorphism]:
    """Split f into a surjection onto its image followed by an isometric
    embedding.

    Image points are named by their least preimage in source point order,
    which keeps serialization deterministic.
    """
    source, target = f.source, f.target
    rep_of_value: dict[str, str] = {}
    for p in source.carrier.points:  # sorted, so first hit is least
        rep_of_value.setdefault(f(p), p)
    value_of_rep = {rep: val for val, rep in rep_of_value.items()}
    reps = sorted(value_of_rep)
    rows = [
        [target.carrier.dist(value_of_rep[a], value_of_rep[b]) for b in reps]
        for a in reps
    ]
    image_carrier = MetricSpace._derived(reps, rows)
    tables = op_tables(source.signature, reps, lambda name, xs: rep_of_value[
        target.op(name, tuple(value_of_rep[x] for x in xs))  # image is op-closed
    ])
    image = QuantAlgebra._derived(image_carrier, source.signature, tables)
    onto = Homomorphism._derived(source, image, {p: rep_of_value[v] for p, v in f.mapping.items()})
    embed = Homomorphism._derived(image, target, value_of_rep)
    return onto, embed
