import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    CapExceededError,
    Dist,
    Homomorphism,
    INF,
    InvariantError,
    MetricSpace,
    QuantAlgebra,
    Signature,
    SpaceMap,
    StructuralError,
    VarietyPresentation,
    ZERO,
    check_effectivity,
    check_op_against_combiner,
    colimit,
    coproduct,
    discrete_space,
    epsilon_kernel_pair,
    free_in_variety_bounded,
    hom_distance,
    hom_violations,
    identity_hom,
    image_factorize,
    make_space,
    metric_reflection,
    product_algebra,
    product_space,
    singleton_space,
    subalgebra_generated,
    truncated_addition_monoid,
    universal_property_check,
    validate_algebra,
    var,
)

import strategies as G
from oracles import generated_subset

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_structural_checks_on_tables():
    sp = discrete_space(["a", "b"])
    sig = Signature([("f", 1)])
    with pytest.raises(StructuralError):
        QuantAlgebra(sp, sig, {})  # missing table
    with pytest.raises(StructuralError):
        QuantAlgebra(sp, sig, {"f": {("a",): "a"}})  # not total
    with pytest.raises(StructuralError):
        QuantAlgebra(sp, sig, {"f": {("a",): "a", ("b",): "zz"}})  # leaves carrier
    with pytest.raises(StructuralError):
        QuantAlgebra(sp, sig, {"f": {("a",): "a", ("b",): "b"}, "g": {}})


def test_discrete_carrier_always_valid():
    rng = random.Random(3)
    sp = discrete_space(["a", "b", "c"])
    sig = Signature([("f", 2)])
    for _ in range(5):
        tables = {
            "f": {t: rng.choice(sp.points) for t in itertools.product(sp.points, repeat=2)}
        }
        assert validate_algebra(QuantAlgebra(sp, sig, tables)) == []


def test_truncated_addition_fails_max_metric():
    alg = truncated_addition_monoid(3)
    report = validate_algebra(alg)
    assert report  # not a quantitative algebra
    hits = [
        v
        for v in report
        if {v.left, v.right} == {("0", "1"), ("1", "2")} and v.symbol == "add"
    ]
    assert hits and hits[0].actual == Dist(2) and hits[0].bound == Dist(1)


def test_one_point_algebra_valid():
    sp = singleton_space("a")
    sig = Signature([("f", 2), ("c", 0)])
    alg = QuantAlgebra(sp, sig, {"f": {("a", "a"): "a"}, "c": {(): "a"}})
    assert validate_algebra(alg) == []


def test_combiner_split_on_truncated_addition():
    alg = truncated_addition_monoid(3)
    assert check_op_against_combiner(alg, "add", "sum") == []
    bad = check_op_against_combiner(alg, "add", "max")
    assert any({v.left, v.right} == {("0", "1"), ("1", "2")} for v in bad)


def test_combiners_coincide_for_unary():
    rng = random.Random(5)
    for _ in range(5):
        alg = G.rand_valid_algebra(rng, max_points=4, max_symbols=1, max_arity=1)
        for name, arity in alg.signature.symbols:
            if arity == 1:
                assert check_op_against_combiner(alg, name, "max") == check_op_against_combiner(
                    alg, name, "sum"
                )


def test_pair_cap_guard():
    alg = truncated_addition_monoid(3)
    with pytest.raises(CapExceededError):
        validate_algebra(alg, max_pairs=10)


def _empty_sig_algebra(space):
    return QuantAlgebra(space, Signature([]), {})


def test_hom_distance_cases():
    one = _empty_sig_algebra(singleton_space("s"))
    two = _empty_sig_algebra(make_space(["x", "y"], {("x", "y"): 1}))
    f = Homomorphism(one, two, {"s": "x"})
    g = Homomorphism(one, two, {"s": "y"})
    assert hom_distance(f, f) == ZERO
    assert hom_distance(f, g) == Dist(1)

    disc = _empty_sig_algebra(discrete_space(["x", "y"]))
    src = _empty_sig_algebra(discrete_space(["a", "b"]))
    h1 = Homomorphism(src, disc, {"a": "x", "b": "x"})
    h2 = Homomorphism(src, disc, {"a": "x", "b": "y"})
    assert hom_distance(h1, h2) == INF

    with pytest.raises(StructuralError):
        hom_distance(f, h1)


def test_hom_violations_and_invalid_construction():
    one = _empty_sig_algebra(make_space(["x", "y"], {("x", "y"): "1/2"}))
    two = _empty_sig_algebra(make_space(["u", "v"], {("u", "v"): 2}))
    assert hom_violations(one, two, {"x": "u", "y": "v"}) == ["expands the pair ('x', 'y')"]
    line = make_space(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2})
    sig = Signature([("f", 1)])
    source = QuantAlgebra(line, sig, {"f": {("a",): "a", ("b",): "a", ("c",): "c"}})
    target = QuantAlgebra(make_space(["x", "y"], {("x", "y"): 3}), sig,
                          {"f": {("x",): "x", ("y",): "y"}})
    assert hom_violations(source, target, {"a": "x", "b": "y", "c": "y"}) == [
        "expands the pair ('a', 'b')",
        "expands the pair ('a', 'c')",
        "does not commute with 'f' at ('b',)",
    ]
    with pytest.raises(InvariantError):
        Homomorphism(one, two, {"x": "u", "y": "v"})


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_derived_homomorphisms_pass_the_checkers(seed):
    # derived algebras and maps skip their constructors' checks, so the
    # checkers and the checking constructors are the oracle here
    rng = random.Random(seed)
    alg = G.rand_valid_algebra(rng, max_points=3)
    onto = G.rand_quotient_hom(rng, alg)
    _, projections = product_algebra([alg, onto.target])
    _, inclusion = subalgebra_generated(alg, rng.sample(alg.carrier.points, 1))
    homs = [onto, *projections, inclusion, *image_factorize(G.rand_hom(rng, alg))]
    for h in homs:
        assert hom_violations(h.source, h.target, h.mapping) == []
        for a in (h.source, h.target):
            assert MetricSpace(a.carrier.points, a.carrier.rows) == a.carrier
            assert QuantAlgebra(a.carrier, a.signature, a.tables) == a
            assert validate_algebra(a) == []
    # the derived space maps, each rebuilt by its class's checking constructor
    sub = G.rand_subcongruence(rng, alg.carrier)
    _, q = colimit(sub)
    pair = epsilon_kernel_pair(onto, G.rand_dist(rng))
    maps = [h.as_space_map() for h in homs] + [q, pair.left, pair.right]
    maps += product_space([alg.carrier, q.target]).projections()
    maps += coproduct([alg.carrier, q.target])[1]
    maps.append(universal_property_check(sub, q, q).factor)
    for m in maps:
        assert type(m)(m.source, m.target, m.mapping) == m
    assert check_effectivity(sub).ok


def test_validated_values_cannot_be_changed_through_their_mappings():
    alg = truncated_addition_monoid(3)
    with pytest.raises(TypeError):
        alg.tables["add"][("0", "0")] = "1"
    with pytest.raises(TypeError):
        alg.tables["add"] = {}
    with pytest.raises(TypeError):
        identity_hom(alg).mapping["0"] = "zzz"
    given_map = {p: p for p in alg.carrier.points}
    space_map = SpaceMap(alg.carrier, alg.carrier, given_map)
    given_map["0"] = "3"
    assert space_map("0") == "0"  # no alias of the caller's dict
    assert space_map == SpaceMap(alg.carrier, alg.carrier, {p: p for p in alg.carrier.points})
    assert space_map != SpaceMap(alg.carrier, alg.carrier, given_map)
    with pytest.raises(TypeError):
        space_map.mapping["0"] = "3"
    _, q = metric_reflection(alg.carrier)
    with pytest.raises(TypeError):
        q.class_of["0"] = "1"
    prod = product_space([alg.carrier, alg.carrier])
    with pytest.raises(TypeError):
        prod.coords["(0,0)"] = ("1", "1")
    assert prod.projections()[0]("(0,0)") == "0"
    variety = VarietyPresentation(Signature([("s", 1)]), [])
    free = free_in_variety_bounded(variety, make_space(["x", "y"], {("x", "y"): 1}), 1)
    x, y = var("x"), var("y")
    with pytest.raises(TypeError):
        free._index[x] = free._index[y]
    assert free.distance(x, y) == Dist(1)


def test_product_algebra_and_projections():
    rng = random.Random(11)
    a = G.rand_valid_algebra(rng, max_points=3, max_symbols=2)
    b_sig_match = None
    while b_sig_match is None:
        cand = G.rand_valid_algebra(rng, max_points=3, max_symbols=2)
        if cand.signature == a.signature:
            b_sig_match = cand
    prod, (pa, pb) = product_algebra([a, b_sig_match])
    assert validate_algebra(prod) == []
    # projection law: pi(op(xs)) == op(pi(xs)) holds by Homomorphism validity
    assert pa.source is prod and pb.source is prod

    one = _empty_sig_algebra(singleton_space("s"))
    two = _empty_sig_algebra(make_space(["x", "y"], {("x", "y"): 1}))
    prod2, _ = product_algebra([two, one])
    assert prod2.carrier.n == 2
    assert prod2.carrier.dist("(x,s)", "(y,s)") == Dist(1)

    with pytest.raises(StructuralError):
        product_algebra([two, truncated_addition_monoid(3)])


def test_subalgebra_generated():
    alg = truncated_addition_monoid(3)
    full, inc = subalgebra_generated(alg, alg.carrier.points)
    assert full.carrier == alg.carrier and inc.is_isometric_embedding()

    zero_only, _ = subalgebra_generated(alg, ["0"])
    assert zero_only.carrier.points == ("0",)  # 0 is absorbing for add at 0

    from_empty, _ = subalgebra_generated(alg, [])
    assert from_empty.carrier.points == ("0",)  # closure of the constant e

    ones, _ = subalgebra_generated(alg, ["1"])
    assert ones.carrier.points == ("0", "1", "2", "3")


@settings(max_examples=400, deadline=None)
@given(seeds)
def test_subalgebra_generated_matches_fixpoint_oracle(seed):
    # random tables of arity 0-3, among them one of arity 2 or 3, so that
    # new elements often need tuples that mix them with elements reached
    # rounds earlier
    rng = random.Random(seed)
    symbols = [rng.choice([("m", 2), ("t", 3)])] + rng.sample([("c", 0), ("u", 1)], rng.randint(0, 2))
    signature = Signature(symbols)
    carrier = discrete_space([f"p{i}" for i in range(rng.randint(1, 8))])
    pts = list(carrier.points)
    tables = {name: {xs: rng.choice(pts) for xs in itertools.product(pts, repeat=arity)}
              for name, arity in signature.symbols}
    algebra = QuantAlgebra(carrier, signature, tables)
    chosen = rng.sample(pts, rng.randint(0, min(2, len(pts))))
    sub, inclusion = subalgebra_generated(algebra, chosen)
    assert set(sub.carrier.points) == generated_subset(algebra, chosen)
    assert inclusion.is_isometric_embedding()


def test_image_factorize_cases():
    rng = random.Random(23)
    alg = G.rand_valid_algebra(rng, max_points=4)
    ident = identity_hom(alg)
    e, m = image_factorize(ident)
    assert e.is_surjective() and m.is_isometric_embedding()
    assert m.is_surjective()  # surjective input makes m an isomorphism

    # constant map into a 2-point algebra
    two = _empty_sig_algebra(make_space(["x", "y"], {("x", "y"): 1}))
    src = _empty_sig_algebra(singleton_space("s"))
    const = Homomorphism(src, two, {"s": "y"})
    e2, m2 = image_factorize(const)
    assert e2.target.carrier.n == 1
    assert m2.mapping == {"s": "y"}  # image point named by its least preimage


def test_factorization_composes_back():
    rng = random.Random(29)
    for _ in range(10):
        alg = G.rand_valid_algebra(rng, max_points=4)
        if alg.carrier.n == 0:
            continue
        f = G.rand_hom(rng, alg)
        e, m = image_factorize(f)
        assert e.is_surjective()
        assert m.is_isometric_embedding()
        for p in alg.carrier.points:
            assert m(e(p)) == f(p)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_composition_is_nonexpanding(seed):
    # d(g1 f1, g2 f2) <= d(g1, g2) + d(f1, f2) for composable homs
    rng = random.Random(seed)
    a = G.rand_valid_algebra(rng, max_points=3)
    if a.carrier.n == 0:
        return
    f1 = G.rand_quotient_hom(rng, a)
    f2 = G.rand_quotient_hom(rng, a)
    if f1.target != f2.target:
        return
    b = f1.target
    g1 = G.rand_quotient_hom(rng, b)
    g2 = G.rand_quotient_hom(rng, b)
    if g1.target != g2.target:
        return
    lhs = hom_distance(f1.compose(g1), f2.compose(g2))
    assert lhs <= hom_distance(g1, g2) + hom_distance(f1, f2)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_hom_distance_metric_axioms(seed):
    rng = random.Random(seed)
    a = G.rand_valid_algebra(rng, max_points=3)
    if a.carrier.n == 0:
        return
    homs = [G.rand_quotient_hom(rng, a) for _ in range(3)]
    target = homs[0].target
    parallel = [h for h in homs if h.target == target]
    for f in parallel:
        assert hom_distance(f, f) == ZERO
    for f, g in itertools.combinations(parallel, 2):
        assert hom_distance(f, g) == hom_distance(g, f)
    if len(parallel) == 3:
        f, g, h = parallel
        assert hom_distance(f, h) <= hom_distance(f, g) + hom_distance(g, h)
