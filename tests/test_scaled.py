import math

import pytest
from hypothesis import given, strategies as st

from cycleweights import oracle
from cycleweights.oracle import ScaledReal

positive = st.floats(min_value=1e-300, max_value=1e300,
                     allow_nan=False, allow_infinity=False)


@given(positive)
def test_roundtrip(x):
    s = ScaledReal(x)
    assert 1.0 <= s.mantissa < 2.0
    assert s.to_float() == pytest.approx(x, rel=1e-15)


def test_zero():
    z = ScaledReal()
    assert z.mantissa == 0.0
    assert z.to_float() == 0.0
    assert z.log() == -math.inf


def test_from_log_extreme():
    s = ScaledReal.from_log(5000.0)  # far past double overflow
    assert s.log() == pytest.approx(5000.0, abs=1e-9)
    assert s.to_float() == math.inf


def test_add_disparate_magnitudes():
    assert oracle._log_sum([3000.0, -3000.0]) == pytest.approx(3000.0, abs=1e-12)


def test_division():
    a = ScaledReal.from_log(1234.5)
    b = ScaledReal.from_log(1230.5)
    ratio = oracle._ratio(a.mantissa, a.exponent, b.mantissa, b.exponent)
    assert ratio == pytest.approx(math.exp(4.0), rel=1e-12)
