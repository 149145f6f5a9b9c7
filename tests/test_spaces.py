import random

import pytest
from hypothesis import given, settings, strategies as st

from quantalg import (
    Dist,
    INF,
    InvariantError,
    MetricSpace,
    QuotientMap,
    StructuralError,
    ZERO,
    connected_components,
    coproduct,
    discrete_space,
    make_space,
    metric_reflection,
    product,
    product_space,
    singleton_space,
    space_violations,
    tensor,
)
from quantalg.spaces import fill_matrix

import strategies as G

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def two_point(d="1"):
    return make_space(["a", "b"], {("a", "b"): d})


def test_validate_smallest_metric():
    pts, rows = fill_matrix(["a", "b"], {("a", "b"): 1})
    assert space_violations(pts, rows, "metric") == []


def test_validate_triangle_violation():
    # 1 + 1 < 3 through b
    pts, rows = fill_matrix(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3})
    report = space_violations(pts, rows, "metric")
    assert [v.kind for v in report] == ["triangle"]
    assert report[0].points == ("a", "b", "c")


def test_validate_separation_split_by_mode():
    pts, rows = fill_matrix(["a", "b"], {("a", "b"): 0})
    metric_report = space_violations(pts, rows, "metric")
    assert [v.kind for v in metric_report] == ["separation"]
    assert space_violations(pts, rows, "pseudo") == []


def test_validate_structural_errors_are_raised():
    with pytest.raises(StructuralError):
        space_violations(["a", "a"], [[ZERO, ZERO], [ZERO, ZERO]], "metric")
    with pytest.raises(StructuralError):
        space_violations(["a", "b"], [[ZERO]], "metric")
    with pytest.raises(StructuralError):
        make_space(["a", "b"], {("a", "b"): "-1"})


def test_validate_reports_all_violations():
    rows = [[ZERO, ZERO, Dist(3)], [ZERO, ZERO, Dist(1)], [Dist(3), Dist(1), ZERO]]
    report = space_violations(["a", "b", "c"], rows, "metric")
    kinds = sorted(v.kind for v in report)
    assert kinds == ["separation", "triangle"]


def test_metric_constructor_rejects_unsorted_points():
    with pytest.raises(StructuralError):
        MetricSpace(["b", "a"], [[ZERO, Dist(1)], [Dist(1), ZERO]])


def test_reflection_on_metric_is_identity_like():
    s = two_point()
    t, q = metric_reflection(s)
    assert t == s
    assert q.class_of == {"a": "a", "b": "b"}


def test_reflection_collapses_zero_pair():
    p = make_space(["a", "b"], {("a", "b"): 0}, mode="pseudo")
    t, q = metric_reflection(p)
    assert t.points == ("a",)
    assert q.class_of == {"a": "a", "b": "a"}


def test_quotient_map_constructor_checks_its_map():
    p = make_space(["a", "b", "c"], {("a", "b"): 0, ("a", "c"): 2, ("b", "c"): 2}, mode="pseudo")
    target = make_space(["a", "c"], {("a", "c"): 1})
    with pytest.raises(InvariantError) as err:
        QuotientMap(p, target, {"a": "a", "b": "a", "c": "c"})  # 2 becomes 1
    assert {v.points for v in err.value.violations} == {("a", "c"), ("b", "c")}
    with pytest.raises(StructuralError):
        QuotientMap(p, target, {"a": "a", "b": "a", "c": "a"})  # misses c
    with pytest.raises(StructuralError):
        QuotientMap(p, target, {"a": "a", "b": "a"})  # undefined on c


def test_reflection_three_point_example():
    p = make_space(
        ["a", "b", "c"], {("a", "b"): 0, ("a", "c"): 2, ("b", "c"): 2}, mode="pseudo"
    )
    t, q = metric_reflection(p)
    assert t.points == ("a", "c")
    assert t.dist("a", "c") == Dist(2)
    # distance preservation, checked pair by pair
    for x in p.points:
        for y in p.points:
            assert t.dist(q(x), q(y)) == p.dist(x, y)


def test_product_unit_and_max():
    s = two_point("1")
    unit = singleton_space("u")
    p = product(s, unit)
    assert p.n == 2
    assert p.dist("(a,u)", "(b,u)") == Dist(1)

    t = make_space(["x", "y"], {("x", "y"): 2})
    p2 = product(s, t)
    assert p2.dist("(a,x)", "(b,y)") == Dist(2)  # max(1, 2)
    assert p2.dist("(a,x)", "(a,x)") == ZERO


def test_tensor_addition_and_saturation():
    s = two_point("1")
    t = make_space(["x", "y"], {("x", "y"): 2})
    w = tensor(s, t)
    assert w.dist("(a,x)", "(b,y)") == Dist(3)  # 1 + 2
    unit = singleton_space("u")
    assert tensor(s, unit).dist("(a,u)", "(b,u)") == Dist(1)
    disc = discrete_space(["x", "y"])
    assert tensor(s, disc).dist("(a,x)", "(b,y)") == INF


def test_coproduct_discrete_and_identity():
    singles = [singleton_space("s") for _ in range(4)]
    out, injections = coproduct(singles)
    assert out.n == 4
    for x, y in out.point_pairs():
        assert out.dist(x, y) == INF
    one, (inj,) = coproduct([two_point("1")])
    assert one.dist(inj("a"), inj("b")) == Dist(1)
    both, _ = coproduct([singleton_space("p"), singleton_space("p")])
    assert both.dist("0:p", "1:p") == INF


def test_connected_components():
    assert connected_components(discrete_space(["a", "b", "c"])) == [["a"], ["b"], ["c"]]
    s = make_space(["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 2})
    assert connected_components(s) == [["a", "b", "c"]]
    joined, _ = coproduct([two_point("1"), two_point("2")])
    assert len(connected_components(joined)) == 2


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_reflection_output_is_metric_and_preserves(seed):
    rng = random.Random(seed)
    p = G.rand_pseudo_space(rng, rng.randint(1, 6))
    t, q = metric_reflection(p)
    assert space_violations(t.points, t.rows, "metric") == []
    for x in p.points:
        for y in p.points:
            assert t.dist(q(x), q(y)) == p.dist(x, y)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_product_and_tensor_validity_and_comparison(seed):
    rng = random.Random(seed)
    s1 = G.rand_metric_space(rng, rng.randint(1, 4))
    s2 = G.rand_metric_space(rng, rng.randint(1, 4))
    p = product(s1, s2)
    t = tensor(s1, s2)
    assert space_violations(p.points, p.rows, "metric") == []
    assert space_violations(t.points, t.rows, "metric") == []
    assert p.points == t.points
    for x, y in p.point_pairs():
        assert t.dist(x, y) >= p.dist(x, y)
    c, injections = coproduct([s1, s2])
    assert space_violations(c.points, c.rows, "metric") == []
    assert all(i.is_isometric_embedding() for i in injections)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_components_partition_and_relabel_invariance(seed):
    rng = random.Random(seed)
    s = G.rand_metric_space(rng, rng.randint(1, 6), edge_prob=0.4)
    parts = connected_components(s)
    flat = sorted(p for part in parts for p in part)
    assert flat == sorted(s.points)

    # relabel points by an order-scrambling isometry
    relabel = {p: f"{rng.randint(0, 9)}_{p}" for p in s.points}
    assert len(set(relabel.values())) == s.n
    renamed = make_space(
        list(relabel.values()),
        {
            (relabel[x], relabel[y]): s.dist(x, y)
            for x, y in s.point_pairs()
            if not s.dist(x, y).is_infinite
        },
    )
    renamed_parts = connected_components(renamed)
    original_as_sets = {frozenset(relabel[p] for p in part) for part in parts}
    assert {frozenset(part) for part in renamed_parts} == original_as_sets


def test_projections_of_product_space():
    s1 = two_point("1")
    s2 = make_space(["x", "y"], {("x", "y"): 2})
    prod = product_space([s1, s2])
    left, right = prod.projections()
    assert left.is_nonexpanding() and right.is_nonexpanding()
    assert left("(a,x)") == "a" and right("(a,x)") == "x"


def test_invalid_space_raises_with_report():
    with pytest.raises(InvariantError) as err:
        make_space(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 5})
    assert any(v.kind == "triangle" for v in err.value.violations)
