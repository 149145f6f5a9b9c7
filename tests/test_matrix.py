"""Differential tests of the integer matrix kernel against Dist oracles.

The closure, the axiom reports and the nonexpansiveness reports run on
integers scaled to a common denominator; the oracles in oracles.py do the
same work directly on Dist values.  Inputs mix pairwise-coprime
denominators (so the common denominator is large), infinite distances
and components that only operation propagation joins.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import quantalg.congruences as congruences
import quantalg.varieties as varieties
from quantalg import (
    CongruenceOnAlgebra,
    ConvergenceError,
    Dist,
    INF,
    InvariantError,
    MetricSpace,
    QuantAlgebra,
    QuantEquation,
    Signature,
    Subcongruence,
    VarietyPresentation,
    ZERO,
    check_op_against_combiner,
    commutativity_equation,
    compatibility_violations,
    free_in_variety_bounded,
    identity_subcongruence,
    monoid_equations,
    op,
    space_violations,
    subcongruence_violations,
    validate_algebra,
    var,
)
from quantalg.algebras import operation_instances
from quantalg.congruences import closure_fixpoint
from quantalg.matrix import _finite_components

import strategies as G
from oracles import (
    axiom_report,
    closure_sweeps,
    finite_components_by_search,
    compatibility_report,
    op_report,
    operation_rules,
    shortest_path_closure,
    table_rules,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
PRIMES = (7, 11, 13, 17, 19, 23)


def coprime_dist(rng):
    return Dist(Fraction(rng.randint(1, 30), rng.choice(PRIMES)))


def coprime_space(rng, n, components=2):
    """Points in up to ``components`` groups at infinite distance from each
    other; edge weights k/p over pairwise-coprime p."""
    group = [rng.randrange(components) for _ in range(n)]
    rows = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if group[i] == group[j] and rng.random() < 0.8:
                rows[i][j] = rows[j][i] = coprime_dist(rng)
    return MetricSpace(G.POINT_NAMES[:n], shortest_path_closure(rows))


def random_algebra(rng, max_points=5, arities=(0, 1, 2, 2, 3)):
    """Arbitrary tables, so operations often expand and often send one
    component's pairs across components."""
    n = rng.randint(1, max_points)
    carrier = coprime_space(rng, n)
    symbols = [(f"f{i}", rng.choice(arities)) for i in range(rng.randint(0, 2))]
    symbols = [(name, a) for name, a in symbols if n ** (2 * a) <= 4096]
    pts = carrier.points
    tables = {
        name: {xs: rng.choice(pts) for xs in itertools.product(pts, repeat=a)}
        for name, a in symbols
    }
    return QuantAlgebra(carrier, Signature(symbols), tables)


def lowered(rng, space):
    """The carrier metric lowered by a few constraints, as the closure
    receives it."""
    m = [list(row) for row in space.rows]
    for _ in range(rng.randint(0, 3)):
        if space.n < 2:
            break
        i, j = rng.sample(range(space.n), 2)
        eps = ZERO if rng.random() < 0.3 else coprime_dist(rng)
        if eps < m[i][j]:
            m[i][j] = m[j][i] = eps
    return m


def copy(m):
    return [list(row) for row in m]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_closure_matches_dist_oracle(seed):
    rng = random.Random(seed)
    algebra = random_algebra(rng)
    start = lowered(rng, algebra.carrier)
    table = operation_instances(algebra)
    rules = operation_rules(algebra)
    assert table_rules(table, algebra.carrier.n) == rules
    assert len(table) == len(rules)
    ours, ref = copy(start), copy(start)
    assert closure_fixpoint(ours, table, 10_000) == closure_sweeps(ref, rules, 10_000)
    assert ours == ref


def test_closure_joins_components_only_through_propagation():
    space = MetricSpace(
        ["a", "b", "c", "d"],
        [
            [ZERO, Dist("3/7"), INF, INF],
            [Dist("3/7"), ZERO, INF, INF],
            [INF, INF, ZERO, Dist("5/11")],
            [INF, INF, Dist("5/11"), ZERO],
        ],
    )
    f = {("a",): "a", ("b",): "c", ("c",): "c", ("d",): "d"}
    algebra = QuantAlgebra(space, Signature([("f", 1)]), {"f": f})
    start = copy(space.rows)
    start[0][1] = start[1][0] = Dist("1/13")
    ours, ref = copy(start), copy(start)
    table = operation_instances(algebra)
    passes = closure_fixpoint(ours, table, 100)
    assert passes == closure_sweeps(ref, operation_rules(algebra), 100)
    assert ours == ref
    assert ours[0][2] == Dist("1/13")  # f(a) = a and f(b) = c
    assert ours[0][3] == Dist("1/13") + Dist("5/11")


def test_small_pass_cap_raises_with_dist_snapshots():
    space = MetricSpace(
        ["a", "b", "c"],
        [[ZERO, Dist(4), Dist(4)], [Dist(4), ZERO, Dist(4)], [Dist(4), Dist(4), ZERO]],
    )
    algebra = QuantAlgebra(space, Signature([]), {})
    start = copy(space.rows)
    start[0][1] = start[1][0] = Dist("1/7")
    start[1][2] = start[2][1] = Dist("1/11")
    table = operation_instances(algebra)
    ours, ref = copy(start), copy(start)
    with pytest.raises(ConvergenceError) as got:
        closure_fixpoint(ours, table, 1)
    with pytest.raises(ConvergenceError) as want:
        closure_sweeps(ref, [], 1)
    assert got.value.passes == want.value.passes == 1
    assert got.value.previous == want.value.previous == start
    assert got.value.current == want.value.current == ours == ref
    assert all(isinstance(d, Dist) for row in got.value.previous + got.value.current for d in row)


def block_space(rng, sizes):
    """Groups of the given sizes, each one finite component (coprime edge
    weights on every pair, closed under shortest paths), at infinite
    distance from each other."""
    n = sum(sizes)
    rows = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
    lo = 0
    for size in sizes:
        for i, j in itertools.combinations(range(lo, lo + size), 2):
            rows[i][j] = rows[j][i] = coprime_dist(rng)
        lo += size
    return MetricSpace(G.POINT_NAMES[:n], shortest_path_closure(rows))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_closure_on_block_starts_matches_dist_oracle_at_every_cap(seed):
    # the per-component sweeps must give the dense alternation's iterates
    # pass for pass: the same snapshots wherever a cap cuts the run short
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    space = block_space(rng, sizes)
    pts = space.points
    symbols = [(f"f{i}", rng.choice((1, 2))) for i in range(rng.randint(1, 2))]
    tables = {name: {xs: rng.choice(pts) for xs in itertools.product(pts, repeat=a)}
              for name, a in symbols}
    algebra = QuantAlgebra(space, Signature(symbols), tables)
    start = lowered(rng, space)
    table, rules = operation_instances(algebra), operation_rules(algebra)
    ours, ref = copy(start), copy(start)
    passes = closure_fixpoint(ours, table, 10_000)
    assert passes == closure_sweeps(ref, rules, 10_000)
    assert ours == ref
    for cap in range(1, passes):
        ours, ref = copy(start), copy(start)
        with pytest.raises(ConvergenceError) as got:
            closure_fixpoint(ours, table, cap)
        with pytest.raises(ConvergenceError) as want:
            closure_sweeps(ref, rules, cap)
        assert got.value.passes == want.value.passes == cap
        assert got.value.previous == want.value.previous
        assert got.value.current == want.value.current == ref


def test_closure_sweeps_only_components_that_propagation_touched():
    # {a, b} and {c, d, e} at infinity from each other; f fixes every point
    # but d, which it sends to e.  Pass 1 sweeps both components and
    # propagation lowers (c, e) through (c, d); pass 2 sweeps {c, d, e}
    # alone and lowers nothing; pass 3 sweeps nothing and ends the closure.
    space = MetricSpace(
        ["a", "b", "c", "d", "e"],
        [
            [ZERO, Dist("3/7"), INF, INF, INF],
            [Dist("3/7"), ZERO, INF, INF, INF],
            [INF, INF, ZERO, Dist(1), Dist(2)],
            [INF, INF, Dist(1), ZERO, Dist(1)],
            [INF, INF, Dist(2), Dist(1), ZERO],
        ],
    )
    f = {(x,): "e" if x == "d" else x for x in space.points}
    algebra = QuantAlgebra(space, Signature([("f", 1)]), {"f": f})
    start = copy(space.rows)
    start[2][3] = start[3][2] = ZERO
    swept = []
    real = congruences.min_plus_sweep

    def spy(m, n, inf, points):
        swept.append(list(points))
        return real(m, n, inf, points)

    ours, ref = copy(start), copy(start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruences, "min_plus_sweep", spy)
        passes = closure_fixpoint(ours, operation_instances(algebra), 100)
    assert passes == closure_sweeps(ref, operation_rules(algebra), 100) == 3
    assert ours == ref
    assert ours[2][4] == ours[3][4] == ZERO
    assert swept == [[0, 1], [2, 3, 4], [2, 3, 4]]


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_finite_components_match_search_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    inf = 1000
    m = [0 if i == j else inf for i in range(n) for j in range(n)]
    density = rng.choice((0.0, 0.1, 0.3, 0.8))
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            m[i * n + j] = m[j * n + i] = rng.randint(0, inf - 1)
    assert _finite_components(m, n, inf) == finite_components_by_search(m, n, inf)


def test_finite_components_edge_cases():
    assert _finite_components([], 0, 1) == []
    assert _finite_components([0], 1, 1) == []
    assert _finite_components([0, 5, 5, 0], 2, 5) == []  # all infinite
    assert _finite_components([0, 4, 4, 0], 2, 5) == [[0, 1]]
    # a chain 3 - 0 - 2 with 1 alone: union-find merges out of order
    inf = 9
    m = [0 if i == j else inf for i in range(4) for j in range(4)]
    for i, j in ((0, 3), (0, 2)):
        m[i * 4 + j] = m[j * 4 + i] = 1
    assert _finite_components(m, 4, inf) == [[0, 2, 3]]


FREE_CASES = [
    (
        Signature([("add", 2), ("e", 0), ("s", 1)]),
        1,
        lambda eps: monoid_equations()[1:] + [
            commutativity_equation(eps[0]),
            QuantEquation(("x",), op("s", var("x")), var("x"), eps[1]),
        ],
    ),
    (
        Signature([("s", 1), ("e", 0)]),
        3,
        lambda eps: [
            QuantEquation(("x",), op("s", op("s", var("x"))), var("x"), eps[0]),
            QuantEquation(("x",), op("s", var("x")), op("e"), eps[1]),
        ],
    ),
]


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_closure_matches_dist_oracle_on_free_algebra_rules(seed):
    rng = random.Random(seed)
    signature, depth, equations = FREE_CASES[rng.randrange(len(FREE_CASES))]
    variety = VarietyPresentation(signature, equations([coprime_dist(rng), coprime_dist(rng)]))
    space = coprime_space(rng, rng.randint(1, 3))
    calls = []
    real = varieties.closure_fixpoint

    def spy(matrix, rules, pass_cap):
        start = copy(matrix)
        passes = real(matrix, rules, pass_cap)
        calls.append((start, rules, pass_cap, passes))
        return passes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(varieties, "closure_fixpoint", spy)
        free = free_in_variety_bounded(variety, space, depth)
    (start, table, cap, passes), = calls
    ref = copy(start)
    assert closure_sweeps(ref, table_rules(table, len(start)), cap) == passes
    assert [list(row) for row in free.matrix] == ref


def raw_matrix(rng, n):
    """A metric closed under shortest paths, then a few random breakages:
    asymmetry, a nonzero diagonal, a zero, a raised or an infinite entry."""
    m = copy(coprime_space(rng, n).rows)
    for _ in range(rng.choice((0, 0, 1, 2, 4))):
        if n == 0:
            break
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(4)
        value = (coprime_dist(rng), ZERO, INF, m[i][j] + coprime_dist(rng))[kind]
        m[i][j] = value
        if rng.random() < 0.5:
            m[j][i] = value
    return m


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_axiom_reports_match_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    pts = G.POINT_NAMES[:n]
    rows = raw_matrix(rng, n)
    for mode in ("metric", "pseudo"):
        assert space_violations(pts, rows, mode) == axiom_report(pts, rows, mode=mode)
    base = coprime_space(rng, n)
    assert subcongruence_violations(base, rows) == axiom_report(pts, rows, base=base)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_nonexpansiveness_reports_match_oracle(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        algebra = G.rand_valid_algebra(rng, max_points=4, max_arity=3)
    else:
        algebra = random_algebra(rng, max_points=4)
    names = [name for name, _ in algebra.signature.symbols]
    report = [(v.symbol, v.left, v.right, v.bound, v.actual) for v in validate_algebra(algebra)]
    assert report == [row for name in names for row in op_report(algebra, name, "max")]
    for name in names:
        for combiner in ("max", "sum"):
            got = check_op_against_combiner(algebra, name, combiner)
            assert [(v.symbol, v.left, v.right, v.bound, v.actual) for v in got] == op_report(
                algebra, name, combiner
            )


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_compatibility_reports_match_oracle(seed):
    # arbitrary tables against lowered and closed carriers: about a quarter
    # of the reports are nonempty, and CongruenceOnAlgebra raises the same
    rng = random.Random(seed)
    algebra = random_algebra(rng)
    sub = Subcongruence(algebra.carrier, shortest_path_closure(lowered(rng, algebra.carrier)))
    want = compatibility_report(algebra, sub.dhat)
    assert compatibility_violations(algebra, sub) == want
    if want:
        with pytest.raises(InvariantError) as exc:
            CongruenceOnAlgebra(algebra, sub)
        assert exc.value.violations == want
    else:
        assert CongruenceOnAlgebra(algebra, sub).sub == sub


def test_validation_holds_one_chunk_of_instances_at_a_time():
    # f(x, y) = x on 20 points at distance 1: valid, and 20^4/2 argument
    # pairs, almost all with distinct outputs.  The whole instance table
    # takes about 9 MB; validation and the compatibility check keep one
    # first argument's instances.
    pts = [f"p{i:02d}" for i in range(20)]
    space = MetricSpace(pts, [[ZERO if x == y else Dist(1) for y in pts] for x in pts])
    algebra = QuantAlgebra(space, Signature([("f", 2)]), {"f": {(x, y): x for x in pts for y in pts}})
    assert len(operation_instances(algebra)) > 75_000
    tracemalloc.start()
    try:
        assert validate_algebra(algebra) == []
        assert check_op_against_combiner(algebra, "f", "sum") == []
        assert compatibility_violations(algebra, identity_subcongruence(space)) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
