import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    CapExceededError,
    Dist,
    Homomorphism,
    QuantAlgebra,
    QuantEquation,
    Signature,
    StructuralError,
    VarietyPresentation,
    ZERO,
    birkhoff_soundness,
    commutativity_equation,
    counterexample_demo,
    discrete_space,
    enumerate_terms,
    free_in_variety_bounded,
    generated_congruence,
    image_factorize,
    in_variety,
    make_space,
    monoid_equations,
    monoid_signature,
    op,
    quotient_algebra,
    satisfies,
    singleton_space,
    space_violations,
    substitute,
    term_distance,
    truncated_addition_monoid,
    var,
)
import quantalg.varieties as varieties
from quantalg.algebras import DEFAULT_PAIR_CAP
from quantalg.varieties import SatisfactionResult, _instances

import strategies as G
from oracles import free_matrix_by_substitution, instances_by_product, satisfies_by_evaluation

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def max_monoid(k=3, step="1"):
    """Join on a chain: associative, commutative, unit p0, nonexpanding."""
    pts = [f"p{i}" for i in range(k)]
    gap = Fraction(step)
    sp = make_space(
        pts,
        {
            (pts[i], pts[j]): Dist(gap * (j - i))
            for i in range(k)
            for j in range(i + 1, k)
        },
    )
    tables = {
        "add": {(a, b): max(a, b) for a in pts for b in pts},
        "e": {(): "p0"},
    }
    return QuantAlgebra(sp, monoid_signature(), tables)


def left_projection_monoid(delta="1/2"):
    """x*y = x unless x is the unit; noncommutative, uniformly delta apart."""
    pts = ["a", "b", "u"]
    sp = make_space(pts, {(x, y): delta for x, y in itertools.combinations(pts, 2)})
    tables = {
        "add": {(x, y): (y if x == "u" else x) for x in pts for y in pts},
        "e": {(): "u"},
    }
    return QuantAlgebra(sp, monoid_signature(), tables)


def cyclic_monoid(k=3):
    pts = [str(i) for i in range(k)]
    sp = discrete_space(pts)
    tables = {
        "add": {(a, b): str((int(a) + int(b)) % k) for a in pts for b in pts},
        "e": {(): "0"},
    }
    return QuantAlgebra(sp, monoid_signature(), tables)


def monoid_variety(eps=None):
    eqs = monoid_equations()
    if eps is not None:
        eqs.append(commutativity_equation(eps))
    return VarietyPresentation(monoid_signature(), eqs)


def test_equation_construction():
    eq = QuantEquation(["y", "x"], op("add", var("x"), var("y")), var("x"), "1/2")
    assert eq.variables == ("x", "y")
    with pytest.raises(StructuralError):
        QuantEquation(["x"], var("x"), var("y"), 0)  # y undeclared
    with pytest.raises(StructuralError):
        QuantEquation(["x"], var("x"), var("x"), "inf")


def test_variety_checks_equations_against_signature():
    with pytest.raises(StructuralError):
        VarietyPresentation(
            Signature([("add", 2)]),
            [QuantEquation(["x"], op("add", var("x")), var("x"), 0)],
        )


def test_satisfies_trivial_cases():
    alg = max_monoid(3)
    x = var("x")
    same = QuantEquation(["x"], op("add", x, x), op("add", x, x), 0)
    assert satisfies(alg, same).ok

    one = QuantAlgebra(
        singleton_space("s"), monoid_signature(),
        {"add": {("s", "s"): "s"}, "e": {(): "s"}},
    )
    assert satisfies(one, commutativity_equation(0)).ok


def test_satisfies_witness_is_least():
    alg = left_projection_monoid("1/2")
    result = satisfies(alg, commutativity_equation("1/4"))
    assert not result.ok
    assert result.distance == Dist("1/2")
    # lexicographically least violating assignment: points are a < b < u
    assert result.witness == {"x": "a", "y": "b"}


def test_satisfies_commutative_monoid():
    assert satisfies(cyclic_monoid(2), commutativity_equation(0)).ok


def test_satisfies_cap():
    alg = max_monoid(4)
    eq = QuantEquation(
        ["x", "y", "z"],
        op("add", var("x"), op("add", var("y"), var("z"))),
        op("add", op("add", var("x"), var("y")), var("z")),
        0,
    )
    with pytest.raises(CapExceededError):
        satisfies(alg, eq, max_assignments=10)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_satisfies_matches_evaluation_oracle(seed):
    # constants, ground sides, unused or no variables, shared subterms and
    # ternary symbols, against both sides evaluated from scratch
    rng = random.Random(seed)
    alg = G.rand_valid_algebra(rng, max_points=4, max_symbols=3, max_arity=3)
    eq = G.rand_equation(rng, alg.signature)
    if rng.random() < 0.3:
        eq = QuantEquation(eq.variables, eq.lhs, eq.rhs, rng.randint(1, 12))
    cap = rng.choice([rng.randint(1, 80), 1000])
    try:
        want = satisfies_by_evaluation(alg, eq, cap)
    except CapExceededError as exc:
        with pytest.raises(CapExceededError) as got:
            satisfies(alg, eq, cap)
        assert (got.value.needed, got.value.cap, str(got.value)) == (exc.needed, exc.cap, str(exc))
        return
    result = satisfies(alg, eq, cap)
    assert (result.ok, result.witness, result.distance) == want


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_instances_match_product_loop_on_partial_tables(seed):
    # tables with missing keys and missing symbols: the staged evaluator
    # yields exactly the defined instances of the brute-force loop, in order
    rng = random.Random(seed)
    sig = G.rand_signature(rng)
    eq = G.rand_equation(rng, sig)
    n = rng.randint(1, 4)
    keep = rng.random()
    tables = {
        name: {
            args: rng.randrange(n)
            for args in itertools.product(range(n), repeat=arity)
            if rng.random() < keep
        }
        for name, arity in sig.symbols
        if rng.random() < 0.9
    }
    assert list(_instances(eq, n, tables)) == instances_by_product(eq, n, tables)


def test_instances_share_subterms_and_skip_undefined_prefixes():
    x, y, z = var("x"), var("y"), var("z")
    xy = op("m", x, y)
    eq = QuantEquation(["x", "y", "z"], op("m", xy, xy), op("m", op("c"), z), 0)
    tables = {"m": {(0, 0): 1, (1, 1): 0, (0, 1): 2}, "c": {(): 1}}
    # m(1, z) is defined for z = 1 only; m(m(x, y), m(x, y)) is defined for
    # (x, y) = (0, 0) and (1, 1), and at (0, 1) it cuts off every z
    assert list(_instances(eq, 3, tables)) == [((0, 0, 1), 0, 0), ((1, 1, 1), 1, 0)]
    assert list(_instances(eq, 3, {"m": tables["m"]})) == []  # no constant


def test_in_variety_monoid_axioms():
    report = in_variety(max_monoid(4, "1/3"), monoid_variety())
    assert report.ok
    assert len(report.per_equation) == 3

    # epsilon below the actual commutator distance fails
    eps_report = in_variety(left_projection_monoid("1/2"), monoid_variety("1/4"))
    assert not eps_report.ok

    empty = VarietyPresentation(monoid_signature(), [])
    assert in_variety(left_projection_monoid(), empty).ok


def test_epsilon_monotonicity():
    alg = left_projection_monoid("1/2")
    assert not satisfies(alg, commutativity_equation("1/4")).ok
    assert satisfies(alg, commutativity_equation("1/2")).ok
    assert satisfies(alg, commutativity_equation("3/4")).ok


def test_right_continuity_in_epsilon():
    # distances form a finite set, so satisfaction at eps equals satisfaction
    # at every rational eps' in (eps, eps + gap)
    alg = left_projection_monoid("1/2")
    eq_at = lambda e: satisfies(alg, commutativity_equation(e)).ok
    assert eq_at(Fraction(1, 2))
    for k in range(1, 6):
        assert eq_at(Fraction(1, 2) + Fraction(1, 10 ** k)) == eq_at(Fraction(1, 2))


def test_substitution_preserves_satisfaction():
    alg = max_monoid(3)
    eq = commutativity_equation(0)
    assert satisfies(alg, eq).ok
    pool = enumerate_terms(alg.signature, ["x", "y", "w"], 1, max_terms=500)
    rng = random.Random(5)
    for _ in range(10):
        sub = {"x": rng.choice(pool), "y": rng.choice(pool)}
        lhs = substitute(eq.lhs, sub)
        rhs = substitute(eq.rhs, sub)
        variables = sorted(lhs.generators() | rhs.generators())
        inst = QuantEquation(variables, lhs, rhs, eq.epsilon)
        assert satisfies(alg, inst).ok


def test_homomorphic_images_preserve_satisfaction():
    rng = random.Random(7)
    variety = monoid_variety("1/2")
    for alg in (max_monoid(3), cyclic_monoid(3), left_projection_monoid("1/2")):
        assert in_variety(alg, variety).ok
        cong = generated_congruence(alg, G.rand_constraints(rng, alg.carrier))
        _, onto = quotient_algebra(cong)
        assert onto.is_surjective()
        assert in_variety(onto.target, variety).ok


def test_quotient_maps_satisfy_universal_property():
    from quantalg import universal_property_check

    rng = random.Random(11)
    alg = max_monoid(3)
    cong = generated_congruence(alg, [("p0", "p1", "1/4")])
    _, onto = quotient_algebra(cong)
    assert onto.is_surjective()
    check = universal_property_check(cong.sub, onto.as_space_map(), onto.as_space_map())
    assert check.ok


def test_birkhoff_soundness_one_point():
    one = QuantAlgebra(
        singleton_space("s"), monoid_signature(),
        {"add": {("s", "s"): "s"}, "e": {(): "s"}},
    )
    report = birkhoff_soundness(monoid_variety("1/2"), one, one)
    assert report.ok


def test_birkhoff_soundness_commutative_monoids():
    variety = monoid_variety("1/2")
    a = max_monoid(3, "1/4")
    b = cyclic_monoid(2)
    rng = random.Random(13)
    cong = generated_congruence(a, G.rand_constraints(rng, a.carrier))
    _, onto = quotient_algebra(cong)
    report = birkhoff_soundness(variety, a, b, homs=[onto])
    assert report.ok
    labels = [c.label for c in report.checks]
    assert any("product" in lab for lab in labels)
    assert any("homomorphic image" in lab for lab in labels)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_free_bounded_no_equations_is_term_metric(seed):
    # the window starts from the generator metric alone, so the closure
    # must derive every composite entry of the term metric
    rng = random.Random(seed)
    cases = [
        (monoid_signature(), make_space(["x", "y"], {("x", "y"): 1}), 2),
        (G.rand_signature(rng), G.rand_metric_space(rng, rng.randint(1, 3)), rng.randint(0, 2)),
    ]
    for signature, m, depth in cases:
        try:
            free = free_in_variety_bounded(VarietyPresentation(signature, []), m, depth, max_terms=80)
        except CapExceededError:
            continue
        for i, t in enumerate(free.terms):
            for j, s in enumerate(free.terms):
                assert free.matrix[i][j] == term_distance(t, s, m)
        assert free.over_approximation


def test_free_bounded_epsilon_commutative():
    variety = monoid_variety("1/3")
    m = discrete_space(["x", "y"])
    free = free_in_variety_bounded(variety, m, 2)
    xy = op("add", var("x"), var("y"))
    yx = op("add", var("y"), var("x"))
    assert free.distance(xy, yx) <= Dist("1/3")
    # unit laws force distance 0 between add(x, e()) and x
    assert free.distance(op("add", var("x"), op("e")), var("x")) == ZERO


def test_free_bounded_monotone_in_depth():
    variety = monoid_variety("1/3")
    m = make_space(["x", "y"], {("x", "y"): 1})
    shallow = free_in_variety_bounded(variety, m, 1)
    deep = free_in_variety_bounded(variety, m, 2)
    for t in shallow.terms:
        for s in shallow.terms:
            assert deep.distance(t, s) <= shallow.distance(t, s)


def test_free_bounded_matrix_is_pseudometric():
    variety = monoid_variety("1/3")
    m = make_space(["x", "y"], {("x", "y"): 1})
    free = free_in_variety_bounded(variety, m, 2)
    space = free.as_pseudo_space()  # built without a check, so check it here
    assert space_violations(space.points, space.rows, "pseudo") == []


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_free_bounded_matches_substitution_oracle(seed):
    # instances found by evaluating in the window against instances built
    # with substitute and depth(), on random signatures and equations
    rng = random.Random(seed)
    sig = G.rand_signature(rng)
    variety = G.rand_variety(rng, sig)
    space = G.rand_metric_space(rng, rng.randint(1, 2))
    depth = rng.randint(0, 2)
    caps = dict(max_terms=rng.choice([rng.randint(1, 30), 30]),
                max_instances=rng.choice([rng.randint(1, 2000), 2000]))
    try:
        terms, want = free_matrix_by_substitution(variety, space, depth, **caps)
    except CapExceededError as exc:
        with pytest.raises(CapExceededError) as got:
            free_in_variety_bounded(variety, space, depth, **caps)
        assert (got.value.needed, got.value.cap, str(got.value)) == (exc.needed, exc.cap, str(exc))
        return
    free = free_in_variety_bounded(variety, space, depth, **caps)
    assert list(free.terms) == terms
    assert [list(row) for row in free.matrix] == want


# The bounded free algebra checks its sizes before it allocates: without
# these checks the two signatures below allocated without bound, so to run
# these tests against an older revision, limit its memory with ulimit -v.
def test_free_bounded_huge_arity_hits_the_term_cap():
    variety = VarietyPresentation(Signature([("f", 100_000)]), [])
    with pytest.raises(CapExceededError) as exc:
        free_in_variety_bounded(variety, discrete_space(["a", "b"]), 1)
    assert (exc.value.kind, exc.value.needed, exc.value.cap) == ("term enumeration", 100_001, 100_000)


def test_free_bounded_term_matrix_hits_the_pair_cap():
    # 2 + 2**16 terms, under the term cap, but a matrix of 4.3e9 entries
    variety = VarietyPresentation(Signature([("f", 16)]), [])
    with pytest.raises(CapExceededError) as exc:
        free_in_variety_bounded(variety, discrete_space(["a", "b"]), 1)
    assert exc.value.kind == "term matrix entries"
    assert (exc.value.needed, exc.value.cap) == (65_538**2, DEFAULT_PAIR_CAP)


def test_free_bounded_checks_the_instance_cap_before_the_term_metric(monkeypatch):
    # depth 3 of the commutative monoid over two points has 2707 terms, so
    # associativity has 2707^3 assignments: the run exits on the instance
    # cap before any instance is applied or any entry of the O(n^2) matrix
    # is closed
    calls = []
    for name in ("closure_fixpoint", "_instances"):
        monkeypatch.setattr(varieties, name, lambda *a: calls.append(a))
    with pytest.raises(CapExceededError) as exc:
        free_in_variety_bounded(monoid_variety("1/2"), discrete_space(["x", "y"]), 3)
    assert exc.value.kind == "equation instance enumeration"
    assert (exc.value.needed, exc.value.cap) == (2707**3, 1_000_000)
    assert calls == []


def test_demo_report():
    report = counterexample_demo(3)
    assert report.ok
    assert report.sum_violations == 0
    assert report.witness is not None
    assert report.witness.bound == Dist(1)
    assert report.witness.actual == Dist(2)
    assert report.associativity_ok and report.left_unit_ok and report.right_unit_ok
    with pytest.raises(StructuralError):
        counterexample_demo(2)


def test_demo_scales_with_n():
    report = counterexample_demo(5)
    assert report.ok and report.size == 5


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_satisfaction_transfers_along_surjections(seed):
    rng = random.Random(seed)
    alg = rng.choice([max_monoid(3), cyclic_monoid(3), left_projection_monoid("1/2")])
    eq = commutativity_equation(rng.choice(["1/2", "1", "2"]))
    if not satisfies(alg, eq).ok:
        return
    cong = generated_congruence(alg, G.rand_constraints(rng, alg.carrier))
    _, onto = quotient_algebra(cong)
    assert satisfies(onto.target, eq).ok
