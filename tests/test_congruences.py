import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    Dist,
    Homomorphism,
    INF,
    InvariantError,
    QuantAlgebra,
    Signature,
    SpaceMap,
    StructuralError,
    Subcongruence,
    ZERO,
    check_effectivity,
    coequalizer,
    colimit,
    compatibility_violations,
    discrete_space,
    epsilon_kernel_pair,
    generated_congruence,
    identity_hom,
    identity_subcongruence,
    kernel_subcongruence,
    make_space,
    product,
    product_algebra,
    product_subcongruence,
    quotient_algebra,
    singleton_space,
    space_violations,
    subcongruence_violations,
    universal_property_check,
)
from quantalg.congruences import UniversalCheck

import strategies as G
from oracles import (
    congruence_closure_partition,
    find_isometry,
    largest_valid_congruence,
    shortest_path_closure,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def three_two_map():
    src = make_space(["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1})
    tgt = make_space(["0", "1"], {("0", "1"): 1})
    return SpaceMap(src, tgt, {"a": "0", "b": "0", "c": "1"})


def test_subcongruence_invariants_enforced():
    base = make_space(["a", "b"], {("a", "b"): 1})
    with pytest.raises(InvariantError):  # exceeds the base distance
        Subcongruence(base, [[ZERO, Dist(2)], [Dist(2), ZERO]])
    with pytest.raises(InvariantError):  # nonzero diagonal
        Subcongruence(base, [[Dist(1), Dist(1)], [Dist(1), ZERO]])
    base3 = make_space(["a", "b", "c"], {("a", "b"): 4, ("a", "c"): 4, ("b", "c"): 4})
    rows = [
        [ZERO, Dist(1), Dist(4)],
        [Dist(1), ZERO, Dist(1)],
        [Dist(4), Dist(1), ZERO],
    ]
    report = subcongruence_violations(base3, rows)
    assert [v.kind for v in report] == ["triangle"]


def test_epsilon_kernel_pair_cases():
    f = three_two_map()
    everything = epsilon_kernel_pair(f, INF)
    assert len(everything.pairs) == 9

    iso = SpaceMap(f.source, f.source, {p: p for p in f.source.points})
    diag = epsilon_kernel_pair(iso, ZERO)
    assert diag.pairs == (("a", "a"), ("b", "b"), ("c", "c"))

    half = epsilon_kernel_pair(f, Dist("1/2"))
    assert half.pairs == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("c", "c"))
    # the relation is a subspace of the square with the maximum metric
    assert half.space.dist("(a,b)", "(b,a)") == Dist(1)
    assert half.left("(a,b)") == "a" and half.right("(a,b)") == "b"


def test_kernel_subcongruence_cases():
    base = make_space(["a", "b"], {("a", "b"): 1})
    ident = SpaceMap(base, base, {"a": "a", "b": "b"})
    assert kernel_subcongruence(ident).dhat == base.rows

    const = SpaceMap(base, singleton_space("s"), {"a": "s", "b": "s"})
    sub = kernel_subcongruence(const)
    assert all(d == ZERO for row in sub.dhat for d in row)

    f = three_two_map()
    sub3 = kernel_subcongruence(f)
    assert sub3.d("a", "b") == ZERO
    assert sub3.d("a", "c") == Dist(1)

    expanding = SpaceMap(
        make_space(["a", "b"], {("a", "b"): "1/2"}),
        make_space(["x", "y"], {("x", "y"): 2}),
        {"a": "x", "b": "y"},
    )
    with pytest.raises(StructuralError):
        kernel_subcongruence(expanding)


def test_kernel_pair_matches_sublevels():
    f = three_two_map()
    sub = kernel_subcongruence(f)
    for eps in (ZERO, Dist("1/2"), Dist(1), INF):
        assert sub.sublevel(eps).pairs == epsilon_kernel_pair(f, eps).pairs


def test_colimit_cases():
    base = make_space(["a", "b"], {("a", "b"): 1})
    c, q = colimit(identity_subcongruence(base))
    assert c == base

    zero = Subcongruence(base, [[ZERO, ZERO], [ZERO, ZERO]])
    c0, _ = colimit(zero)
    assert c0.points == ("a",)

    base3 = make_space(["a", "b", "c"], {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2})
    sub = Subcongruence(
        base3,
        [[ZERO, ZERO, Dist(2)], [ZERO, ZERO, Dist(2)], [Dist(2), Dist(2), ZERO]],
    )
    c2, q2 = colimit(sub)
    assert c2.points == ("a", "c") and c2.dist("a", "c") == Dist(2)
    # the colimit map realizes dhat exactly
    for x, y in itertools.product(base3.points, repeat=2):
        assert c2.dist(q2(x), q2(y)) == sub.d(x, y)


def test_effectivity_simple_cases():
    f = three_two_map()
    assert check_effectivity(kernel_subcongruence(f)).ok
    base = make_space(["a", "b"], {("a", "b"): 1})
    assert check_effectivity(identity_subcongruence(base)).ok


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_effectivity_randomized(seed):
    rng = random.Random(seed)
    sub = G.rand_subcongruence(rng, G.rand_metric_space(rng, rng.randint(2, 6)))
    result = check_effectivity(sub)
    assert result.ok and not result.discrepancies


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_kernel_of_random_nonexpanding_map_is_subcongruence(seed):
    rng = random.Random(seed)
    src = G.rand_metric_space(rng, rng.randint(1, 4))
    tgt = G.rand_metric_space(rng, rng.randint(1, 4))
    mapping = G.rand_nonexpanding_map(rng, src, tgt)
    if mapping is None:
        return
    sub = kernel_subcongruence(SpaceMap(src, tgt, mapping))
    assert subcongruence_violations(sub.base, sub.dhat) == []
    pair = epsilon_kernel_pair(SpaceMap(src, tgt, mapping), G.rand_dist(rng))
    assert space_violations(pair.space.points, pair.space.rows, "metric") == []


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_generated_and_product_congruences_pass_the_checkers(seed):
    # neither constructor checks its result, so the checkers are the oracle
    rng = random.Random(seed)
    alg = G.rand_valid_algebra(rng, max_points=3)
    congs = [generated_congruence(alg, G.rand_constraints(rng, alg.carrier)) for _ in range(2)]
    prod, _ = product_algebra([alg, alg])
    both = product_subcongruence(congs[0].sub, congs[1].sub)
    assert both.base == prod.carrier
    for algebra, sub in [(alg, c.sub) for c in congs] + [(prod, both)]:
        assert subcongruence_violations(sub.base, sub.dhat) == []
        assert compatibility_violations(algebra, sub) == []


def test_product_subcongruence_trivial_cases():
    base = make_space(["a", "b"], {("a", "b"): 1})
    sub = identity_subcongruence(base)
    point = identity_subcongruence(singleton_space("s"))
    prod = product_subcongruence(sub, point)
    c_prod, _ = colimit(prod)
    c_left, _ = colimit(sub)
    assert find_isometry(c_prod, c_left) is not None

    zero = Subcongruence(base, [[ZERO, ZERO], [ZERO, ZERO]])
    both_zero = product_subcongruence(zero, zero)
    c, _ = colimit(both_zero)
    assert c.n == 1


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_product_commutes_with_colimit(seed):
    rng = random.Random(seed)
    s1 = G.rand_subcongruence(rng, G.rand_metric_space(rng, rng.randint(1, 3)))
    s2 = G.rand_subcongruence(rng, G.rand_metric_space(rng, rng.randint(1, 3)))
    lhs, _ = colimit(product_subcongruence(s1, s2))
    rhs = product(colimit(s1)[0], colimit(s2)[0])
    assert find_isometry(lhs, rhs) is not None


def test_continuity_of_sublevels_on_a_rational_grid():
    # the sublevel at eps is the intersection of the sublevels at eps + 1/n;
    # on a finite value set the chain stabilizes once 1/n clears the gap to
    # the next larger matrix value
    rng = random.Random(99)
    sub = G.rand_subcongruence(rng, G.rand_metric_space(rng, 4))
    values = {d for row in sub.dhat for d in row}
    grid = [ZERO, Dist("1/3"), Dist("1/2"), Dist(1), Dist(2)]
    for eps in grid:
        above = [v.as_fraction() - eps.as_fraction() for v in values if not v.is_infinite and v > eps]
        last_n = 1 if not above else int(1 / min(above)) + 1
        at_eps = set(sub.sublevel(eps).pairs)
        shrinking = [
            set(sub.sublevel(eps + Dist(Fraction(1, n))).pairs)
            for n in range(1, last_n + 1)
        ]
        assert at_eps == set.intersection(*shrinking)


def _one_generator_monoid():
    # {e, a, b} with x*y = y if x == e else x (left zeros except the unit)
    pts = ["a", "b", "e"]
    sp = discrete_space(pts)
    sig = Signature([("m", 2)])
    tables = {
        "m": {
            (x, y): (y if x == "e" else x) for x in pts for y in pts
        }
    }
    return QuantAlgebra(sp, sig, tables)


def test_generated_congruence_empty_constraints():
    rng = random.Random(17)
    for _ in range(5):
        alg = G.rand_valid_algebra(rng, max_points=4)
        cong = generated_congruence(alg, [])
        assert cong.sub.dhat == alg.carrier.rows


def test_generated_congruence_matches_union_find():
    alg = _one_generator_monoid()
    cong = generated_congruence(alg, [("a", "e", 0)])
    zero_classes: dict[str, set] = {}
    for x in alg.carrier.points:
        rep = min(y for y in alg.carrier.points if cong.sub.d(x, y) == ZERO)
        zero_classes.setdefault(rep, set()).add(x)
    ours = frozenset(frozenset(c) for c in zero_classes.values())
    assert ours == congruence_closure_partition(alg, [("a", "e")])


def test_generated_congruence_empty_signature_is_shortest_paths():
    sp = make_space(
        ["a", "b", "c", "d"],
        {
            ("a", "b"): 10,
            ("a", "c"): 10,
            ("a", "d"): 10,
            ("b", "c"): 10,
            ("b", "d"): 10,
            ("c", "d"): 10,
        },
    )
    alg = QuantAlgebra(sp, Signature([]), {})
    eps = Dist("1/2")
    cong = generated_congruence(alg, [("a", "b", eps)])
    start = [list(row) for row in sp.rows]
    start[0][1] = start[1][0] = eps
    expected = shortest_path_closure(start)
    assert [list(row) for row in cong.sub.dhat] == expected
    assert cong.sub.d("a", "b") == eps
    assert cong.sub.d("a", "c") == Dist(10)  # 1/2 + 10 > 10


def test_generated_congruence_idempotent_and_bounded():
    rng = random.Random(31)
    for _ in range(10):
        alg = G.rand_valid_algebra(rng, max_points=4)
        if alg.carrier.n == 0:
            continue
        constraints = G.rand_constraints(rng, alg.carrier)
        cong = generated_congruence(alg, constraints)
        for x, y, eps in constraints:
            assert cong.sub.d(x, y) <= eps
        rerun = generated_congruence(
            alg,
            [
                (x, y, cong.sub.d(x, y))
                for x, y in alg.carrier.point_pairs()
            ],
        )
        assert rerun.sub.dhat == cong.sub.dhat


def test_generated_congruence_monotone_in_constraints():
    rng = random.Random(37)
    for _ in range(10):
        alg = G.rand_valid_algebra(rng, max_points=4)
        pairs = list(alg.carrier.point_pairs())
        if not pairs:
            continue
        x, y = rng.choice(pairs)
        small = generated_congruence(alg, [(x, y, Dist("1/4"))])
        large = generated_congruence(alg, [(x, y, Dist("1/2"))])
        for p, q in pairs:
            assert small.sub.d(p, q) <= large.sub.d(p, q)


def test_generated_congruence_against_brute_force():
    rng = random.Random(41)
    for _ in range(8):
        alg = G.rand_valid_algebra(rng, max_points=3, max_symbols=1, max_arity=2)
        constraints = G.rand_constraints(rng, alg.carrier, count=1)
        cong = generated_congruence(alg, constraints)
        expected = largest_valid_congruence(alg, constraints)
        assert [list(r) for r in cong.sub.dhat] == expected


def test_pass_cap_raises_with_last_iterates():
    from quantalg import ConvergenceError

    sp = make_space(["a", "b", "c"], {("a", "b"): 4, ("a", "c"): 4, ("b", "c"): 4})
    alg = QuantAlgebra(sp, Signature([]), {})
    with pytest.raises(ConvergenceError) as err:
        # the first sweep must lower (a, c), so one pass cannot be a clean one
        generated_congruence(alg, [("a", "b", "1"), ("b", "c", "1")], max_passes=1)
    assert err.value.previous is not None and err.value.current is not None


def test_quotient_algebra_cases():
    rng = random.Random(43)
    alg = G.rand_valid_algebra(rng, max_points=4)
    while alg.carrier.n == 0:
        alg = G.rand_valid_algebra(rng, max_points=4)
    cong = generated_congruence(alg, [])
    q_alg, onto = quotient_algebra(cong)
    assert q_alg.carrier == alg.carrier and onto.is_surjective()

    # two-element discrete monoid, classes merged at distance 1
    pts = ["a", "b"]
    sp = discrete_space(pts)
    sig = Signature([("m", 2)])
    tables = {"m": {(x, y): x for x in pts for y in pts}}
    disc = QuantAlgebra(sp, sig, tables)
    cong1 = generated_congruence(disc, [("a", "b", 1)])
    q1, onto1 = quotient_algebra(cong1)
    assert q1.carrier.n == 2 and q1.carrier.dist("a", "b") == Dist(1)
    assert q1.tables == disc.tables

    cong0 = generated_congruence(disc, [("a", "b", 0)])
    q0, onto0 = quotient_algebra(cong0)
    assert q0.carrier.n == 1 and onto0.is_surjective()


def test_coequalizer_cases():
    alg = _one_generator_monoid()
    ident = identity_hom(alg)
    q, onto = coequalizer(ident, ident)
    assert onto.is_surjective() and q.carrier.n == alg.carrier.n

    # pick out a and b from a one-point algebra
    one = QuantAlgebra(singleton_space("s"), Signature([]), {})
    sp = discrete_space(["a", "b"])
    tgt = QuantAlgebra(sp, Signature([]), {})
    f = Homomorphism(one, tgt, {"s": "a"})
    g = Homomorphism(one, tgt, {"s": "b"})
    q2, onto2 = coequalizer(f, g)
    assert q2.carrier.n == 1
    assert onto2("a") == onto2("b")
    assert onto2.is_surjective()

    with pytest.raises(StructuralError):
        coequalizer(f, identity_hom(alg))


def test_universal_property_self_and_constant():
    rng = random.Random(47)
    sub = G.rand_subcongruence(rng, G.rand_metric_space(rng, 4))
    space, qmap = colimit(sub)
    self_check = universal_property_check(sub, qmap, qmap.as_space_map())
    assert self_check.ok
    assert self_check.factor.mapping == {p: p for p in space.points}

    const = SpaceMap(sub.base, singleton_space("s"), {p: "s" for p in sub.base.points})
    const_check = universal_property_check(sub, qmap, const)
    assert const_check.ok
    assert set(const_check.factor.mapping.values()) == {"s"}


def test_universal_property_refusal_witness():
    base = make_space(["a", "b"], {("a", "b"): 1})
    sub = Subcongruence(base, [[ZERO, Dist("1/4")], [Dist("1/4"), ZERO]])
    _, qmap = colimit(sub)
    # candidate stretches the pair beyond dhat
    bad = SpaceMap(base, make_space(["x", "y"], {("x", "y"): 1}), {"a": "x", "b": "y"})
    result = universal_property_check(sub, qmap, bad)
    assert not result.ok
    assert result.witness == ("a", "b")

    # two violating pairs, and the first pair of points is not one of them
    line = make_space(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    half = Subcongruence(line, [[Dist(Fraction(abs(i - j), 2)) for j in range(3)] for i in range(3)])
    _, qmap = colimit(half)
    bad = SpaceMap(line, make_space(["x", "z"], {("x", "z"): "3/2"}), {"a": "x", "b": "x", "c": "z"})
    result = universal_property_check(half, qmap, bad)
    assert result == UniversalCheck(False, None, "candidate violates the compatibility bound",
                                    ("a", "c"))

    # a non-surjective "colimit map" cannot factor even a constant candidate
    wide = make_space(["x", "y"], {("x", "y"): 1})
    not_onto = SpaceMap(base, wide, {"a": "x", "b": "x"})
    const = SpaceMap(base, singleton_space("s"), {"a": "s", "b": "s"})
    res2 = universal_property_check(kernel_subcongruence(not_onto), not_onto, const)
    assert not res2.ok and "surjective" in res2.reason
