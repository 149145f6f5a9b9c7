"""Seeded random generators for spaces, subcongruences, and algebras.

Mass acceptance runs use random.Random with fixed seeds for reproducible
counts; hypothesis-based property tests draw a seed and reuse the same
generators.  Generated objects are always valid by construction (their
constructors re-check), so rejection loops are rarely needed.
"""

from __future__ import annotations

import itertools
import random
import string
from fractions import Fraction

from quantalg import (
    Dist,
    Homomorphism,
    INF,
    MetricSpace,
    PseudoSpace,
    QuantAlgebra,
    QuantEquation,
    Signature,
    Subcongruence,
    VarietyPresentation,
    ZERO,
    generated_congruence,
    op,
    quotient_algebra,
    var,
)

from oracles import shortest_path_closure

POINT_NAMES = list(string.ascii_lowercase)


def rand_fraction(rng: random.Random, max_num=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def rand_dist(rng: random.Random, inf_prob=0.15) -> Dist:
    if rng.random() < inf_prob:
        return INF
    return Dist(rand_fraction(rng))


def rand_metric_space(rng: random.Random, n: int, edge_prob=0.8) -> MetricSpace:
    """Random positive edge weights, closed under shortest paths.

    Positive weights keep distinct points separated; missing edges leave
    room for infinite distances.
    """
    pts = POINT_NAMES[:n]
    rows = [[INF] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ZERO
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                d = Dist(rand_fraction(rng))
                rows[i][j] = rows[j][i] = d
    return MetricSpace(pts, shortest_path_closure(rows))


def rand_pseudo_space(rng: random.Random, n: int, zero_prob=0.2) -> PseudoSpace:
    pts = POINT_NAMES[:n]
    rows = [[INF] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ZERO
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < zero_prob:
                d = ZERO
            elif rng.random() < 0.85:
                d = Dist(rand_fraction(rng))
            else:
                continue
            rows[i][j] = rows[j][i] = d
    return PseudoSpace(pts, shortest_path_closure(rows))


def rand_subcongruence(rng: random.Random, space: MetricSpace) -> Subcongruence:
    """Lower a few entries of the base metric, then re-close the triangle."""
    n = space.n
    m = [list(row) for row in space.rows]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                current = m[i][j]
                if current.is_infinite:
                    lowered = rand_dist(rng, inf_prob=0.3)
                elif rng.random() < 0.3:
                    lowered = ZERO
                else:
                    lowered = Dist(current.as_fraction() * rand_fraction(rng, 3, 3))
                if lowered < current:
                    m[i][j] = m[j][i] = lowered
    return Subcongruence(space, shortest_path_closure(m))


def _line_carrier(rng: random.Random, n: int) -> tuple[MetricSpace, list[str]]:
    """Points p0 < p1 < ... with strictly increasing rational coordinates."""
    coords = [Fraction(0)]
    for _ in range(n - 1):
        coords.append(coords[-1] + rand_fraction(rng, 3, 3))
    pts = [f"p{i}" for i in range(n)]
    rows = [
        [Dist(abs(coords[i] - coords[j])) for j in range(n)] for i in range(n)
    ]
    return MetricSpace(pts, rows), pts


def _line_op(rng: random.Random, pts: list[str], arity: int):
    """A 1-Lipschitz table op on a chain: min, max, a projection, or a
    constant."""
    kind = rng.choice(["min", "max", "proj", "const"] if arity > 0 else ["const"])
    index = {p: i for i, p in enumerate(pts)}
    if kind == "const":
        value = rng.choice(pts)
        return {xs: value for xs in itertools.product(pts, repeat=arity)}
    if kind == "proj":
        k = rng.randrange(arity)
        return {xs: xs[k] for xs in itertools.product(pts, repeat=arity)}
    pick = min if kind == "min" else max
    return {
        xs: pick(xs, key=index.__getitem__)
        for xs in itertools.product(pts, repeat=arity)
    }


def rand_valid_algebra(
    rng: random.Random, max_points=5, max_symbols=2, max_arity=2
) -> QuantAlgebra:
    """A random quantitative algebra, valid by construction.

    Either a discrete carrier with arbitrary tables (the max-metric law is
    vacuous there) or a chain carrier with 1-Lipschitz operations.
    """
    n = rng.randint(1, max_points)
    n_syms = rng.randint(0, max_symbols)
    arities = [rng.randint(0, max_arity) for _ in range(n_syms)]
    signature = Signature([(f"f{i}", a) for i, a in enumerate(arities)])
    if rng.random() < 0.5:
        pts = POINT_NAMES[:n]
        rows = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
        carrier = MetricSpace(pts, rows)
        tables = {
            f"f{i}": {
                xs: rng.choice(pts) for xs in itertools.product(pts, repeat=a)
            }
            for i, a in enumerate(arities)
        }
    else:
        carrier, pts = _line_carrier(rng, n)
        tables = {f"f{i}": _line_op(rng, pts, a) for i, a in enumerate(arities)}
    return QuantAlgebra(carrier, signature, tables)


def rand_constraints(rng: random.Random, space: MetricSpace, count=None):
    pairs = list(itertools.combinations(space.points, 2))
    if not pairs:
        return []
    if count is None:
        count = rng.randint(0, min(3, len(pairs)))
    out = []
    for _ in range(count):
        x, y = rng.choice(pairs)
        eps = ZERO if rng.random() < 0.4 else Dist(rand_fraction(rng, 3, 3))
        out.append((x, y, eps))
    return out


def rand_quotient_hom(rng: random.Random, algebra: QuantAlgebra) -> Homomorphism:
    """A surjective homomorphism: quotient by a random generated congruence."""
    cong = generated_congruence(algebra, rand_constraints(rng, algebra.carrier))
    _, onto = quotient_algebra(cong)
    return onto


def embed_into_larger(
    rng: random.Random, algebra: QuantAlgebra, extra=1
) -> Homomorphism:
    """An isometric-embedding homomorphism into a strictly larger algebra.

    New points sit at infinite distance from everything; operations send
    any tuple touching a new point to a fixed old point, which keeps the
    extension nonexpanding.
    """
    if algebra.carrier.n == 0:
        raise ValueError("need a nonempty carrier to extend")
    old = list(algebra.carrier.points)
    new = [f"z{i}" for i in range(extra)]
    pts = sorted(old + new)
    rows = [
        [
            algebra.carrier.dist(x, y)
            if x in old and y in old
            else (ZERO if x == y else INF)
            for y in pts
        ]
        for x in pts
    ]
    carrier = MetricSpace(pts, rows)
    anchor = rng.choice(old)
    tables = {}
    for name, arity in algebra.signature.symbols:
        tables[name] = {
            xs: algebra.op(name, xs)
            if all(x in old for x in xs)
            else anchor
            for xs in itertools.product(pts, repeat=arity)
        }
    bigger = QuantAlgebra(carrier, algebra.signature, tables)
    return Homomorphism(algebra, bigger, {p: p for p in old})


def rand_hom(rng: random.Random, algebra: QuantAlgebra) -> Homomorphism:
    """A random homomorphism out of the algebra; surjective about half the
    time, otherwise a quotient followed by a proper embedding."""
    onto = rand_quotient_hom(rng, algebra)
    if rng.random() < 0.5 or onto.target.carrier.n == 0:
        return onto
    embed = embed_into_larger(rng, onto.target, extra=rng.randint(1, 2))
    return onto.compose(embed)


def rand_nonexpanding_map(
    rng: random.Random, source: MetricSpace, target: MetricSpace, attempts=200
):
    """Rejection-sample a nonexpanding map, or None if unlucky."""
    for _ in range(attempts):
        mapping = {p: rng.choice(target.points) for p in source.points}
        if all(
            target.dist(mapping[x], mapping[y]) <= source.dist(x, y)
            for x, y in itertools.combinations(source.points, 2)
        ):
            return mapping
    return None


def rand_signature(rng: random.Random, max_symbols=3, max_arity=3) -> Signature:
    """Distinct one-letter symbols of arity 0..max_arity, declared in
    random order rather than name order."""
    names = rng.sample("fghkmn", rng.randint(1, max_symbols))
    return Signature([(name, rng.randint(0, max_arity)) for name in names])


def rand_equation(rng: random.Random, signature: Signature, depth=2) -> QuantEquation:
    """An equation between random terms of depth <= depth + 1 over up to
    three variables, some of which may go unused, or over none at all.

    Leaves are variables and constants, a side is sometimes ground, and
    subterms drawn earlier are drawn again, so that the sides share
    subterms such as m(m(x, y), m(x, y)).
    """
    constants = [op(name) for name, arity in signature.symbols if arity == 0]
    variables = rng.sample(["x", "y", "z"], rng.randint(0 if constants else 1, 3))
    drawn: list = []

    def term(depth, leaves):
        names = {t.head for t in leaves if t.args is None}
        again = [t for t in drawn if t.depth() <= depth + 1 and t.generators() <= names]
        if again and rng.random() < 0.25:
            return rng.choice(again)
        if depth == 0 or not signature.symbols or rng.random() < 0.3:
            t = rng.choice(leaves)
        else:
            name, arity = rng.choice(signature.symbols)
            t = op(name, *(term(depth - 1, leaves) for _ in range(arity)))
        drawn.append(t)
        return t

    def side():
        ground = not variables or (constants and rng.random() < 0.15)
        return term(depth, constants if ground else [var(v) for v in variables] + constants)

    lhs, rhs = side(), side()
    eps = ZERO if rng.random() < 0.4 else Dist(rand_fraction(rng, 3, 3))
    return QuantEquation(variables, lhs, rhs, eps)


def rand_variety(rng: random.Random, signature: Signature, max_equations=3) -> VarietyPresentation:
    """One to max_equations equations drawn by rand_equation."""
    equations = [rand_equation(rng, signature) for _ in range(rng.randint(1, max_equations))]
    return VarietyPresentation(signature, equations)
