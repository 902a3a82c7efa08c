"""Overflow-safe positive reals stored as mantissa * 2**exponent.

The normalization constants h_n grow super-geometrically, so plain doubles
overflow long before the sizes we care about.  A ScaledReal keeps a
normalized mantissa in [1, 2) together with an unbounded integer exponent;
it is the scalar form of one row of an HTable's mantissa/exponent arrays.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)

# an addend shifted down further than this underflows to exactly zero anyway
_MIN_SHIFT = -1500


class ScaledReal:
    """Nonnegative real as mantissa * 2**exponent with mantissa in [1, 2)."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: float = 0.0, exponent: int = 0):
        if mantissa < 0.0:
            raise ValueError("ScaledReal is nonnegative")
        if mantissa == 0.0:
            self.mantissa = 0.0
            self.exponent = 0
        else:
            m, e = math.frexp(mantissa)  # m in [0.5, 1)
            self.mantissa = 2.0 * m
            self.exponent = e - 1 + exponent

    @classmethod
    def from_float(cls, x: float) -> "ScaledReal":
        return cls(x, 0)

    @classmethod
    def from_log(cls, log_value: float) -> "ScaledReal":
        """Build from a natural logarithm (use -inf for zero)."""
        if log_value == -math.inf:
            return cls(0.0, 0)
        e = math.floor(log_value / _LN2)
        m = math.exp(log_value - e * _LN2)  # in [1, 2)
        return cls(m, e)

    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    def to_float(self) -> float:
        """Nearest double; overflows to inf / underflows to 0 silently."""
        if self.mantissa == 0.0:
            return 0.0
        try:
            return math.ldexp(self.mantissa, self.exponent)
        except OverflowError:
            return math.inf

    def log(self) -> float:
        """Natural logarithm; -inf for zero."""
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(self.mantissa) + self.exponent * _LN2

    def __mul__(self, other):
        if isinstance(other, ScaledReal):
            return ScaledReal(self.mantissa * other.mantissa,
                              self.exponent + other.exponent)
        return ScaledReal(self.mantissa * float(other), self.exponent)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledReal):
            if other.mantissa == 0.0:
                raise ZeroDivisionError("ScaledReal division by zero")
            return ScaledReal(self.mantissa / other.mantissa,
                              self.exponent - other.exponent)
        return ScaledReal(self.mantissa / float(other), self.exponent)

    def __add__(self, other):
        if not isinstance(other, ScaledReal):
            other = ScaledReal.from_float(float(other))
        if self.mantissa == 0.0:
            return other
        if other.mantissa == 0.0:
            return self
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        shift = lo.exponent - hi.exponent
        if shift < _MIN_SHIFT:
            return hi
        return ScaledReal(hi.mantissa + math.ldexp(lo.mantissa, shift),
                          hi.exponent)

    def _cmp_key(self):
        if self.mantissa == 0.0:
            return (-math.inf, 0.0)
        return (self.exponent, self.mantissa)

    def __lt__(self, other):
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= other._cmp_key()

    def __eq__(self, other):
        if not isinstance(other, ScaledReal):
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.mantissa, self.exponent))

    def __repr__(self):
        return f"ScaledReal({self.mantissa!r}, {self.exponent})"

