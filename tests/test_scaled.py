import math

import pytest
from hypothesis import given, strategies as st

from cycleweights.scaled import ScaledReal

positive = st.floats(min_value=1e-300, max_value=1e300,
                     allow_nan=False, allow_infinity=False)


@given(positive)
def test_roundtrip(x):
    s = ScaledReal.from_float(x)
    assert 1.0 <= s.mantissa < 2.0
    assert s.to_float() == pytest.approx(x, rel=1e-15)


@given(positive, positive)
def test_mul_matches_logs(a, b):
    p = ScaledReal.from_float(a) * ScaledReal.from_float(b)
    assert p.log() == pytest.approx(math.log(a) + math.log(b), abs=1e-12)


@given(positive, positive)
def test_add_commutes(a, b):
    x, y = ScaledReal.from_float(a), ScaledReal.from_float(b)
    assert (x + y).log() == pytest.approx((y + x).log(), abs=1e-13)


def test_zero():
    z = ScaledReal()
    assert z.is_zero()
    assert z.to_float() == 0.0
    assert z.log() == -math.inf
    assert (z + ScaledReal.from_float(3.0)).to_float() == 3.0


def test_from_log_extreme():
    s = ScaledReal.from_log(5000.0)  # far past double overflow
    assert s.log() == pytest.approx(5000.0, abs=1e-9)
    assert s.to_float() == math.inf


def test_add_disparate_magnitudes():
    big = ScaledReal.from_log(3000.0)
    small = ScaledReal.from_log(-3000.0)
    assert (big + small).log() == pytest.approx(3000.0, abs=1e-12)


def test_division():
    a = ScaledReal.from_log(1234.5)
    b = ScaledReal.from_log(1230.5)
    assert (a / b).to_float() == pytest.approx(math.exp(4.0), rel=1e-12)


def test_comparisons():
    a = ScaledReal.from_float(3.0)
    b = ScaledReal.from_float(4.0)
    assert a < b and a <= b and not b <= a
    assert ScaledReal() < a

