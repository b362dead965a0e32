"""Exact values a + b*sqrt(q) with rational a, b.

Central values of the L-polynomials live in Q(sqrt(q)), and every moment
accumulated in the package is a finite sum of such values.  Keeping the two
rational coordinates exact makes equality checks and cross-route identities
sharp instead of float-tolerant.  sqrt(q) is irrational for prime q, so
(a, b) is unique and dataclass equality is the right equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import check_odd_prime


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"rational coordinate expected, got {type(x).__name__}")


@dataclass(frozen=True)
class SqrtQRational:
    a: Fraction
    b: Fraction
    q: int

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))
        object.__setattr__(self, "b", _frac(self.b))
        check_odd_prime(self.q)

    @staticmethod
    def zero(q: int) -> "SqrtQRational":
        return SqrtQRational(Fraction(0), Fraction(0), q)

    def _match(self, other) -> bool:
        """False for a non-SqrtQRational (the operator returns NotImplemented)."""
        if not isinstance(other, SqrtQRational):
            return False
        if self.q != other.q:
            raise ValueError("mixing values over different q")
        return True

    def __add__(self, other: "SqrtQRational") -> "SqrtQRational":
        if not self._match(other):
            return NotImplemented
        return SqrtQRational(self.a + other.a, self.b + other.b, self.q)

    def __sub__(self, other: "SqrtQRational") -> "SqrtQRational":
        if not self._match(other):
            return NotImplemented
        return SqrtQRational(self.a - other.a, self.b - other.b, self.q)

    def __mul__(self, other: "SqrtQRational") -> "SqrtQRational":
        if not self._match(other):
            return NotImplemented
        return SqrtQRational(
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
            self.q,
        )

    def scale(self, c) -> "SqrtQRational":
        """The product with a rational c, the one scalar product."""
        c = _frac(c)
        return SqrtQRational(self.a * c, self.b * c, self.q)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.q)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt({self.q})"
