"""The value ring Q[p^(1/N), p^(-1/N)] of the oracle's fractional norm powers.

A leaf norm(f)^(a/n) can be a fractional power of p; explicit-tower
integrals are rational and stay in Fraction (ExactValue is either kind).

Values are stored as sparse sums sum_f c_f * p^(-f) with reduced
fractional exponents f in [0, 1); integer powers of p are folded into
the rational coefficients.  Distinct fractional powers of p are linearly
independent over Q, so equality is exact structural equality.

A rational operand (int or Fraction) of + and * on either side is promoted
into the ring, so rational and root-scaled values mix through the operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import isfinite, lcm
from operator import add
from typing import Union

from .errors import FloatOverflowError
from .padic_core import as_rational

_ZERO = Fraction(0)  # the exponent of every rational value, shared


def _fold(p: int, exponent: Fraction, coeff: Fraction) -> tuple[Fraction, Fraction]:
    """Rewrite coeff * p^(-exponent) with exponent reduced into [0, 1)."""
    shift, rest = divmod(exponent.numerator, exponent.denominator)  # floor
    if shift == 0:
        return exponent, coeff
    if shift > 0:
        coeff = coeff / p**shift
    elif shift < 0:
        coeff = coeff * p**-shift
    return Fraction(rest, exponent.denominator), coeff


@dataclass(frozen=True)
class RootScaledValue:
    """An exact element of Q[p^(1/N), p^(-1/N)]."""

    p: int
    items: tuple[tuple[Fraction, Fraction], ...] = field(default=())

    @staticmethod
    def _make(p: int, acc: dict[Fraction, Fraction]) -> "RootScaledValue":
        items = tuple(sorted((f, c) for f, c in acc.items() if c != 0))
        return RootScaledValue(p, items)

    @classmethod
    def zero(cls, p: int) -> "RootScaledValue":
        return cls(p, ())

    @classmethod
    def from_rational(cls, q, p: int) -> "RootScaledValue":
        q = as_rational(q)
        return cls(p, ((_ZERO, q),) if q != 0 else ())

    @classmethod
    def monomial(cls, p: int, exponent, coeff=Fraction(1)) -> "RootScaledValue":
        """coeff * p^(-exponent) for a rational exponent."""
        coeff = as_rational(coeff)
        if coeff == 0:
            return cls.zero(p)
        f, c = _fold(p, as_rational(exponent), coeff)
        return cls(p, ((f, c),))

    # -- ring operations -------------------------------------------------

    def _check(self, other: "RootScaledValue"):
        if self.p != other.p:
            raise ValueError("mixing value rings over different primes")

    def __add__(self, other) -> "RootScaledValue":
        if not isinstance(other, RootScaledValue):
            other = self.from_rational(other, self.p)
        self._check(other)
        acc = dict(self.items)
        for f, c in other.items:
            acc[f] = acc.get(f, Fraction(0)) + c
        return self._make(self.p, acc)

    __radd__ = __add__

    def __neg__(self) -> "RootScaledValue":
        return RootScaledValue(self.p, tuple((f, -c) for f, c in self.items))

    def __sub__(self, other: "RootScaledValue") -> "RootScaledValue":
        return self + (-other)

    def __mul__(self, other) -> "RootScaledValue":
        if not isinstance(other, RootScaledValue):
            return self.scale(other)
        self._check(other)
        acc: dict[Fraction, Fraction] = {}
        for f1, c1 in self.items:
            for f2, c2 in other.items:
                f, c = _fold(self.p, f1 + f2, c1 * c2)
                acc[f] = acc.get(f, Fraction(0)) + c
        return self._make(self.p, acc)

    __rmul__ = __mul__

    def scale(self, q) -> "RootScaledValue":
        q = as_rational(q)
        if q == 0:
            return self.zero(self.p)
        return RootScaledValue(self.p, tuple((f, c * q) for f, c in self.items))

    # -- views -----------------------------------------------------------

    @property
    def root_order(self) -> int:
        """Smallest N with the value in Q[p^(1/N), p^(-1/N)]."""
        return lcm(1, *(f.denominator for f, _ in self.items)) if self.items else 1

    @property
    def coefficients(self) -> dict[int, Fraction]:
        """Map e -> c_e with value = sum c_e * p^(-e/N), N = root_order."""
        n = self.root_order
        return {int(f * n): c for f, c in self.items}

    def is_rational(self) -> bool:
        return all(f == 0 for f, _ in self.items)

    def as_exact_rational(self) -> Fraction:
        if not self.items:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"value {self} is not rational")
        return self.items[0][1]

    def real_value(self) -> float:
        """The value as a float; FloatOverflowError when it is too large for one."""
        try:
            total = reduce(add, (float(c) * self.p ** -float(f) for f, c in self.items), 0.0)
        except OverflowError:
            raise FloatOverflowError() from None
        if not isfinite(total):
            raise FloatOverflowError()
        return total

    def __float__(self) -> float:
        return self.real_value()

    def __str__(self) -> str:
        if not self.items:
            return "0"
        parts = []
        for f, c in self.items:
            if f == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{self.p}^(-{f})")
        return " + ".join(parts)


ExactValue = Union[Fraction, RootScaledValue]
