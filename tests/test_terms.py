import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    CapExceededError,
    Dist,
    INF,
    QuantAlgebra,
    Signature,
    StructuralError,
    ZERO,
    check_term,
    discrete_space,
    enumerate_terms,
    evaluate,
    hom_distance_bounded,
    make_space,
    op,
    parse_term,
    similar,
    space_violations,
    term_distance,
    var,
)

from quantalg.terms import DEFAULT_TERM_CAP

import strategies as G
from oracles import enumerate_terms_sorted, hom_distance_by_terms

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_signature_rejects_bad_input():
    with pytest.raises(StructuralError):
        Signature([("f", 1), ("f", 2)])
    with pytest.raises(StructuralError):
        Signature([("f", -1)])


def test_parse_and_print_round_trip():
    for text in ("x", "e()", "mul(x, y)", "mul(mul(x, y), e())"):
        assert str(parse_term(text)) == text
    assert parse_term("mul( x ,y )") == op("mul", var("x"), var("y"))
    with pytest.raises(StructuralError):
        parse_term("mul(x,")
    with pytest.raises(StructuralError):
        parse_term("")
    with pytest.raises(StructuralError):
        parse_term("f(x))")


def test_check_term():
    sig = Signature([("mul", 2), ("e", 0)])
    check_term(parse_term("mul(x, e())"), sig, ["x"])
    with pytest.raises(StructuralError):
        check_term(parse_term("mul(x)"), sig, ["x"])
    with pytest.raises(StructuralError):
        check_term(parse_term("mul(x, y)"), sig, ["x"])


def test_similar_examples():
    a, b = var("a"), var("b")
    assert similar(a, b)  # generator pairs are always similar
    assert similar(op("s", a, b), op("s", b, a))
    assert not similar(op("s", a, b), op("t", a, b))  # different head symbols
    assert not similar(a, op("s", a))
    with pytest.raises(StructuralError):
        similar(op("s", a, b), op("s", a))  # one symbol at two arities


def test_similar_is_equivalence():
    sig = Signature([("f", 1), ("g", 2)])
    terms = enumerate_terms(sig, ["a", "b"], 2, max_terms=1000)
    sample = terms[:12]
    for t in sample:
        assert similar(t, t)
    for t, s in itertools.product(sample, repeat=2):
        assert similar(t, s) == similar(s, t)
    for t, s, u in itertools.product(sample[:8], repeat=3):
        if similar(t, s) and similar(s, u):
            assert similar(t, u)


def test_term_distance_cases():
    m = make_space(["a", "b"], {("a", "b"): 1})
    a, b = var("a"), var("b")
    assert term_distance(op("s", a, a), op("s", a, a), m) == ZERO
    # max(d(a,b), d(a,a)) = max(1, 0)
    assert term_distance(op("s", a, a), op("s", b, a), m) == Dist(1)
    assert term_distance(op("s", a), op("t", a), m) == INF
    with pytest.raises(StructuralError):
        term_distance(var("zz"), a, m)


def test_enumerate_depths():
    sig = Signature([("s", 1)])
    assert enumerate_terms(sig, ["a"], 0) == [var("a")]
    terms = enumerate_terms(sig, ["a"], 2)
    assert terms == [var("a"), op("s", var("a")), op("s", op("s", var("a")))]
    assert enumerate_terms(sig, [], 5) == []  # no constants, no generators


def test_enumerate_deterministic_order():
    sig = Signature([("g", 2), ("f", 1)])
    first = enumerate_terms(sig, ["b", "a"], 2)
    second = enumerate_terms(sig, ["a", "b"], 2)
    assert first == second
    depths = [t.depth() for t in first]
    assert depths == sorted(depths)


def test_enumerate_cap():
    sig = Signature([("g", 2)])
    with pytest.raises(CapExceededError):
        enumerate_terms(sig, ["a", "b", "c"], 3, max_terms=100)


# Each layer is counted before it is built: without that count a symbol of
# arity 100000 allocated without bound, so to run this test against an
# older revision, limit its memory with ulimit -v.
def test_enumerate_counts_a_layer_before_building_it():
    sig = Signature([("f", 100_000)])
    with pytest.raises(CapExceededError) as exc:
        enumerate_terms(sig, ["a", "b"], 1)
    assert (exc.value.needed, exc.value.cap) == (DEFAULT_TERM_CAP + 1, DEFAULT_TERM_CAP)
    # over one generator the symbol gives one term at depth 1, then 2**100000 - 1
    assert len(enumerate_terms(sig, ["a"], 1)) == 2
    with pytest.raises(CapExceededError):
        enumerate_terms(sig, ["a"], 2)
    # 2 + 2**16 terms fit the cap exactly or miss it by one
    assert len(enumerate_terms(Signature([("g", 16)]), ["a", "b"], 1, 65_538)) == 65_538
    with pytest.raises(CapExceededError) as exc:
        enumerate_terms(Signature([("g", 16)]), ["a", "b"], 1, 65_537)
    assert (exc.value.needed, exc.value.cap) == (65_538, 65_537)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_enumeration_matches_sorted_oracle(seed):
    # constants to ternary symbols declared out of name order, unsorted and
    # duplicated generators, and caps that are often hit
    rng = random.Random(seed)
    sig = G.rand_signature(rng)
    gens = rng.choices(["c", "a", "b"], k=rng.randint(0, 4))
    depth = rng.randint(0, 3)
    cap = rng.randint(1, 60)
    try:
        want = enumerate_terms_sorted(sig, gens, depth, cap)
    except CapExceededError as exc:
        with pytest.raises(CapExceededError) as got:
            enumerate_terms(sig, gens, depth, cap)
        assert (got.value.needed, got.value.cap, str(got.value)) == (exc.needed, exc.cap, str(exc))
        return
    assert enumerate_terms(sig, gens, depth, cap) == want


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_enumeration_fits_a_cap_equal_to_its_size(seed):
    # each layer is counted exactly before it is built: a cap of exactly
    # the term count is met, and one less is exceeded by one
    rng = random.Random(seed)
    sig = G.rand_signature(rng)
    gens = rng.choices(["c", "a", "b"], k=rng.randint(0, 4))
    depth = rng.randint(0, 3)
    try:
        want = enumerate_terms_sorted(sig, gens, depth, 2000)
    except CapExceededError:
        return
    assert enumerate_terms(sig, gens, depth, len(want)) == want
    with pytest.raises(CapExceededError) as exc:
        enumerate_terms(sig, gens, depth, len(want) - 1)
    assert exc.value.needed == len(want)


def test_evaluate():
    sp = discrete_space(["x", "y"])
    sig = Signature([("m", 2), ("c", 0)])
    tables = {
        "m": {t: ("x" if t[0] == t[1] else "y") for t in itertools.product(["x", "y"], repeat=2)},
        "c": {(): "y"},
    }
    alg = QuantAlgebra(sp, sig, tables)
    assert evaluate(var("v"), alg, {"v": "x"}) == "x"
    assert evaluate(op("m", var("v"), var("w")), alg, {"v": "x", "w": "y"}) == "y"
    assert evaluate(op("c"), alg, {}) == "y"  # constants ignore the assignment
    with pytest.raises(StructuralError):
        evaluate(op("nope", var("v")), alg, {"v": "x"})
    with pytest.raises(StructuralError):
        evaluate(var("unbound"), alg, {})


def _max_line_monoid(k=3):
    # max is associative, commutative, nonexpanding on a chain
    pts = [f"p{i}" for i in range(k)]
    sp = make_space(
        pts, {(pts[i], pts[j]): j - i for i in range(k) for j in range(i + 1, k)}
    )
    sig = Signature([("j", 2)])
    tables = {"j": {(a, b): max(a, b) for a in pts for b in pts}}
    return QuantAlgebra(sp, sig, tables)


def test_hom_distance_bounded_equals_depth_zero():
    alg = _max_line_monoid(4)
    m = make_space(["u", "v"], {("u", "v"): 1})
    f1 = {"u": "p0", "v": "p1"}
    f2 = {"u": "p1", "v": "p2"}
    base = hom_distance_bounded(m, alg, f1, f2, 0)
    assert base == Dist(1)
    for depth in (1, 2, 3):
        assert hom_distance_bounded(m, alg, f1, f2, depth) == base
    assert hom_distance_bounded(m, alg, f1, f1, 3) == ZERO


def test_hom_distance_bounded_rejects_expanding_assignment():
    alg = _max_line_monoid(4)
    m = make_space(["u", "v"], {("u", "v"): "1/2"})
    far, near = {"u": "p0", "v": "p2"}, {"u": "p0", "v": "p0"}
    with pytest.raises(StructuralError, match=r"^first assignment is not nonexpanding at \('u', 'v'\)$"):
        hom_distance_bounded(m, alg, far, near, 0)
    with pytest.raises(StructuralError, match=r"^second assignment is not nonexpanding at \('u', 'v'\)$"):
        hom_distance_bounded(m, alg, near, far, 0)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_hom_distance_bounded_matches_term_oracle(seed):
    # random signatures (constants to ternary) on discrete and line carriers
    # of 1-4 points, 0-3 generators, caps that are often hit and assignments
    # that are often expanding, at every depth from -1 to 3; random tables
    # on a line are often expanding too, and only then does depth matter
    rng = random.Random(seed)
    signature = G.rand_signature(rng)
    k = rng.randint(1, 4)
    line = rng.random() < 0.7
    carrier = G._line_carrier(rng, k)[0] if line else discrete_space([f"p{i}" for i in range(k)])
    pts = list(carrier.points)
    if line and rng.random() < 0.3:  # nonexpanding operations
        tables = {name: G._line_op(rng, pts, arity) for name, arity in signature.symbols}
    else:
        tables = {name: {xs: rng.choice(pts) for xs in itertools.product(pts, repeat=arity)}
                  for name, arity in signature.symbols}
    algebra = QuantAlgebra(carrier, signature, tables)
    space = G.rand_metric_space(rng, rng.randint(0, 3))
    f1, f2 = ((rng.random() < 0.6 and G.rand_nonexpanding_map(rng, space, carrier))
              or {p: rng.choice(pts) for p in space.points} for _ in range(2))
    cap = rng.choice([DEFAULT_TERM_CAP, 50, 10, 3, 0])
    for depth in range(-1, 4):
        args = (space, algebra, f1, f2, depth, cap)
        try:
            want = hom_distance_by_terms(*args)
        except (CapExceededError, StructuralError) as exc:
            with pytest.raises(type(exc)) as got:
                hom_distance_bounded(*args)
            assert str(got.value) == str(exc)
            if isinstance(exc, CapExceededError):
                assert (got.value.kind, got.value.needed, got.value.cap) == (exc.kind, exc.needed, exc.cap)
            continue
        assert hom_distance_bounded(*args) == want


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_term_space_is_a_metric(seed):
    rng = random.Random(seed)
    m = G.rand_metric_space(rng, rng.randint(1, 3))
    sig = Signature([("f", 1), ("g", 2)])
    terms = enumerate_terms(sig, m.points, 2, max_terms=2000)[:14]
    labels = [str(t) for t in terms]
    rows = [[term_distance(t, s, m) for s in terms] for t in terms]
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    report = space_violations(
        [labels[i] for i in order],
        [[rows[i][j] for j in order] for i in order],
        "metric",
    )
    assert report == []


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_term_distance_symmetric_and_separating(seed):
    rng = random.Random(seed)
    m = G.rand_metric_space(rng, rng.randint(1, 3))
    sig = Signature([("f", 1), ("g", 2)])
    terms = enumerate_terms(sig, m.points, 2, max_terms=2000)[:12]
    for t in terms:
        assert term_distance(t, t, m) == ZERO
    for t, s in itertools.combinations(terms, 2):
        d = term_distance(t, s, m)
        assert d == term_distance(s, t, m)
        assert d > ZERO
