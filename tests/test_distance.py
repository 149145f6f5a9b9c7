from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quantalg import Dist, INF, ZERO, StructuralError, dist_max, dist_sum

finite_dists = st.fractions(min_value=0, max_value=50, max_denominator=12).map(Dist)
dists = st.one_of(finite_dists, st.just(INF))


def test_parse_and_format():
    assert str(Dist("1/2")) == "1/2"
    assert str(Dist("3")) == "3"
    assert str(Dist(Fraction(4, 2))) == "2"
    assert str(INF) == "inf"
    assert Dist("inf") == INF
    assert Dist("7/14") == Dist("1/2")


def test_rejects_bad_literals():
    with pytest.raises(StructuralError):
        Dist("-1")
    with pytest.raises(StructuralError):
        Dist(-3)
    with pytest.raises(StructuralError):
        Dist(0.5)
    with pytest.raises(StructuralError):
        Dist("1/0")
    with pytest.raises(StructuralError):
        Dist("abc")


def test_rejects_literals_too_large_to_print():
    for literal in ("1e5000", "1e-5000", "1/" + "7" * 100, 2 ** 300, "1e99999999999"):
        with pytest.raises(StructuralError, match="too large"):
            Dist(literal)
    assert Dist(2 ** 256 - 1).as_fraction() == 2 ** 256 - 1
    assert Dist("1e70") == Dist(10 ** 70)
    # Fractions come from arithmetic on accepted values and are not bounded
    assert Dist(Fraction(1, 2 ** 300)).as_fraction() == Fraction(1, 2 ** 300)


def test_prints_values_past_the_digit_limit():
    # exact sums of accepted literals can outgrow any literal bound
    big = Fraction(3 ** 20000 + 1, 7 ** 9000)
    text = str(Dist(big))
    num, den = text.split("/")
    assert len(num) > 9000 and len(den) > 7000
    for digits, value in ((num, big.numerator), (den, big.denominator)):
        assert digits[0] != "0"
        parsed = 0
        for k in range(0, len(digits), 500):  # int() of all digits would hit the limit
            chunk = digits[k:k + 500]
            parsed = parsed * 10 ** len(chunk) + int(chunk)
        assert parsed == value
    assert str(Dist(Fraction(10 ** 500))) == "1" + "0" * 500
    assert str(Dist(Fraction(10 ** 1000 + 7, 3))) == "1" + "0" * 999 + "7/3"
    with pytest.raises(StructuralError):
        Dist(text)


def test_saturating_addition():
    assert Dist(1) + Dist("1/2") == Dist("3/2")
    assert INF + Dist(1) == INF
    assert Dist(1) + INF == INF
    assert INF + INF == INF


def test_infinity_is_maximum():
    assert Dist(10 ** 9) < INF
    assert not INF < INF
    assert max(Dist(3), INF) == INF
    assert min(Dist(3), INF) == Dist(3)


def test_helpers():
    assert dist_sum([]) == ZERO
    assert dist_max([]) == ZERO
    assert dist_sum([Dist(1), Dist(2), Dist("1/2")]) == Dist("7/2")
    assert dist_max([Dist(1), INF, Dist(2)]) == INF


def _order_key(d):
    """Position in the order of Fraction, with infinity above everything."""
    return (1, 0) if d.is_infinite else (0, d.as_fraction())


@given(dists, dists)
def test_total_order(a, b):
    assert (a <= b) or (b <= a)
    assert (a <= b and b <= a) == (a == b)
    ka, kb = _order_key(a), _order_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)


@given(dists, dists, dists)
def test_addition_monotone_and_exact(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + b >= a
    if not (a.is_infinite or b.is_infinite):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(dists, dists)
def test_sum_dominates_max(a, b):
    assert a + b >= dist_max([a, b])


@given(dists)
def test_round_trip(a):
    assert Dist(str(a)) == a
