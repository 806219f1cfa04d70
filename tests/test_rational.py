import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ymesh.rational import ExtQ, INF, DegenerateError

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_basic_arithmetic():
    assert ExtQ(1, 2) + ExtQ(1, 3) == ExtQ(5, 6)
    assert ExtQ(2) * ExtQ(3, 4) == ExtQ(3, 2)
    assert ExtQ(1) / ExtQ(4) == ExtQ(1, 4)
    assert -ExtQ(2, 3) == ExtQ(-2, 3)


def test_infinity_rules():
    assert ExtQ(1) / ExtQ(0) == INF
    assert INF + ExtQ(5) == INF
    assert INF * ExtQ(2) == INF
    assert ExtQ(3) / INF == ExtQ(0)
    assert INF.inv() == ExtQ(0)
    assert ExtQ(0).inv() == INF


@pytest.mark.parametrize("op", [
    lambda: ExtQ(0) / ExtQ(0),
    lambda: INF + INF,
    lambda: INF * ExtQ(0),
    lambda: INF / INF,
])
def test_degenerate_forms_raise(op):
    with pytest.raises(DegenerateError):
        op()


def test_parse_and_str_round_trip():
    for s in ("3/4", "-7/2", "5", "0", "inf"):
        assert str(ExtQ.parse(s)) == s
    assert ExtQ.parse("3/4").as_pair() == (3, 4)
    assert INF.as_pair() == (1, 0)


@given(rationals, rationals)
def test_field_ops_match_fraction(a, b):
    x, y = ExtQ(a), ExtQ(b)
    assert x + y == ExtQ(a + b)
    assert x * y == ExtQ(a * b)
    if b != 0:
        assert x / y == ExtQ(Fraction(a, 1) / b)


@given(rationals)
def test_double_inverse(a):
    x = ExtQ(a)
    assert x.inv().inv() == x  # inv is an involution, even through inf


def _reduced_pairs(rng):
    """0, +-1, inf, and random reduced pairs up to 2000 bits, either sign."""
    pairs = [(0, 1), (1, 1), (-1, 1), (1, 0)]
    for bits in (4, 64, 2000):
        for _ in range(40):
            p = rng.getrandbits(bits) * rng.choice((1, -1))
            q = rng.getrandbits(bits) + 1
            g = gcd(p, q)
            pairs.append((p // g, q // g))
    return pairs


def test_from_reduced_matches_constructor():
    rng = random.Random(18)
    pairs = _reduced_pairs(rng)
    values = []
    for p, q in pairs:
        x, want = ExtQ.from_reduced(p, q), ExtQ(p, q)
        assert x.q == want.q and x == want
        assert hash(x) == hash(want) and str(x) == str(want) and repr(x) == repr(want)
        assert x.as_pair() == want.as_pair() == (p, q)
        values.append((x, want))
    for _ in range(400):
        (x, xw), (y, yw) = rng.choice(values), rng.choice(values)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   lambda a, b: a.inv()):
            try:
                want = ("value", op(xw, yw))
            except DegenerateError as e:
                want = ("raises", str(e))
            try:
                got = ("value", op(x, y))
            except DegenerateError as e:
                got = ("raises", str(e))
            assert got == want
            if got[0] == "value":
                assert got[1].as_pair() == want[1].as_pair()
