import math

import pytest

from cycleweights import oracle
from cycleweights.oracle import ScaledReal


def test_zero():
    assert ScaledReal(-math.inf).log() == -math.inf


def test_from_log_extreme():
    # far past double overflow, and 1: the log comes back exactly
    assert ScaledReal(5000.0).log() == 5000.0
    assert ScaledReal(0.0).log() == 0.0


def test_add_disparate_magnitudes():
    assert oracle._log_sum([3000.0, -3000.0]) == pytest.approx(3000.0, abs=1e-12)
