import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    Dist,
    INF,
    StructuralError,
    ZERO,
    kernel_subcongruence,
    make_space,
    truncated_addition_monoid,
)
from quantalg.jsonio import (
    algebra_from_doc,
    algebra_to_doc,
    canonical_dumps,
    equation_from_doc,
    equation_to_doc,
    hom_from_doc,
    hom_to_doc,
    map_from_doc,
    space_from_doc,
    space_to_doc,
    subcongruence_from_doc,
    subcongruence_to_doc,
    variety_from_doc,
    variety_to_doc,
)
from quantalg.spaces import SpaceMap

import strategies as G

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_space_doc_defaults():
    doc = {"points": ["a", "b", "c"], "dist": [["a", "b", "1/2"]]}
    s = space_from_doc(doc)
    assert s.dist("a", "b") == Dist("1/2")
    assert s.dist("a", "c") == INF  # omitted pairs default to infinity
    assert s.dist("c", "c") == ZERO


def test_space_doc_round_trip_bit_exact():
    # c stays disconnected: both its distances default to infinity
    doc = {"points": ["a", "b", "c"], "dist": [["a", "b", "1/2"]]}
    s = space_from_doc(doc)
    dumped = canonical_dumps(space_to_doc(s))
    assert space_from_doc(json.loads(dumped)) == s
    assert canonical_dumps(space_to_doc(space_from_doc(json.loads(dumped)))) == dumped


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_space_round_trip_random(seed):
    rng = random.Random(seed)
    s = G.rand_metric_space(rng, rng.randint(1, 5))
    assert space_from_doc(space_to_doc(s)) == s


def test_space_doc_structural_errors():
    with pytest.raises(StructuralError):
        space_from_doc({"dist": []})
    with pytest.raises(StructuralError):
        space_from_doc({"points": ["a"], "dist": [["a", "a"]]})
    with pytest.raises(StructuralError):
        space_from_doc({"points": ["a", "b"], "dist": [["a", "b", "-1"]]})
    with pytest.raises(StructuralError):
        space_from_doc({"points": ["a", "b"], "dist": [["a", "zz", "1"]]})


def test_algebra_round_trip():
    alg = truncated_addition_monoid(3)
    doc = algebra_to_doc(alg)
    again = algebra_from_doc(json.loads(canonical_dumps(doc)))
    assert again == alg
    assert canonical_dumps(algebra_to_doc(again)) == canonical_dumps(doc)


def test_hom_and_map_docs():
    rng = random.Random(3)
    alg = G.rand_valid_algebra(rng, max_points=3)
    while alg.carrier.n == 0:
        alg = G.rand_valid_algebra(rng, max_points=3)
    onto = G.rand_quotient_hom(rng, alg)
    doc = hom_to_doc(onto)
    again = hom_from_doc(json.loads(canonical_dumps(doc)))
    assert again.mapping == onto.mapping
    assert again.source == onto.source and again.target == onto.target

    s = make_space(["a", "b"], {("a", "b"): 1})
    sm = SpaceMap(s, s, {"a": "a", "b": "b"})
    loaded = map_from_doc(
        {"source": space_to_doc(s), "target": space_to_doc(s), "map": [["a", "a"], ["b", "b"]]}
    )
    assert isinstance(loaded, SpaceMap) and loaded.mapping == sm.mapping


def test_subcongruence_doc_default_is_base_distance():
    s = make_space(["a", "b", "c"], {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2})
    doc = {"base": space_to_doc(s), "dhat": [["a", "b", "1"]]}
    sub = subcongruence_from_doc(doc)
    assert sub.d("a", "b") == Dist(1)
    assert sub.d("a", "c") == Dist(2)  # defaulted to the base distance
    dumped = subcongruence_to_doc(sub)
    assert dumped["dhat"] == [["a", "b", "1"]]  # only the lowered entry
    assert subcongruence_from_doc(json.loads(canonical_dumps(dumped))) == sub


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_subcongruence_round_trip_random(seed):
    rng = random.Random(seed)
    sub = G.rand_subcongruence(rng, G.rand_metric_space(rng, rng.randint(2, 5)))
    assert subcongruence_from_doc(subcongruence_to_doc(sub)) == sub


def test_equation_and_variety_docs():
    doc = {"vars": ["x", "y"], "lhs": "add(x, y)", "rhs": "add(y, x)", "eps": "1/4"}
    eq = equation_from_doc(doc)
    assert str(eq.lhs) == "add(x, y)" and eq.epsilon == Dist("1/4")
    assert equation_from_doc(json.loads(canonical_dumps(equation_to_doc(eq)))) == eq

    vdoc = {
        "signature": [["add", 2], ["e", 0]],
        "equations": [doc],
    }
    variety = variety_from_doc(vdoc)
    assert len(variety.equations) == 1
    assert variety_from_doc(json.loads(canonical_dumps(variety_to_doc(variety)))) == variety


def test_boolean_arity_is_a_structural_error():
    # bool is an int subclass, so json true would otherwise read as arity 1
    for arity in (True, False):
        with pytest.raises(StructuralError, match="bad signature entry"):
            variety_from_doc({"signature": [["add", arity]], "equations": []})


def test_canonical_dumps_deterministic():
    s = make_space(["a", "b"], {("a", "b"): 1})
    assert canonical_dumps(space_to_doc(s)) == canonical_dumps(space_to_doc(s))
    sub = kernel_subcongruence(SpaceMap(s, s, {"a": "a", "b": "b"}))
    assert canonical_dumps(subcongruence_to_doc(sub)) == canonical_dumps(
        subcongruence_to_doc(sub)
    )
