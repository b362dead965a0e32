"""The hyperelliptic ensemble: square-free monic D of degree 2g+1 over F_q.

Everything here is the straightforward reference route: explicit loops over
the ensemble and per-curve central values.  The vectorized engine in `scan`
must reproduce these numbers exactly; the slow honest loop is the yardstick,
so it stays simple.

The first-moment record, `MomentAccumulator`, holds three exact totals:
the full sum of central values, the contribution of square summands
f = l^2 (these carry the main term) and the contribution of the non-square
summands (these are oscillatory and should stay small).  total = square +
nonsquare always, and both splits cover the full two-block central-value
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import check_at_least, check_odd_prime
from .lfunction import afe_central_value, center_value, two_block_weights
from .polyring import (
    Poly,
    degree,
    gcd,
    mobius,
    monic_polys,
    mul,
    squarefree,
)
from .sqrtq import SqrtQRational


@dataclass(frozen=True)
class EnsembleSpec:
    q: int
    g: int

    def __post_init__(self):
        check_at_least("genus", self.g, 1)
        check_odd_prime(self.q)

    @property
    def poly_degree(self) -> int:
        return 2 * self.g + 1

    @property
    def size(self) -> int:
        """(q - 1) q^(2g) square-free monic polynomials of degree 2g+1."""
        return (self.q - 1) * self.q ** (2 * self.g)

    @property
    def monic_count(self) -> int:
        return self.q ** (2 * self.g + 1)


def enumerate_ensemble(q: int, g: int):
    """All of the ensemble in code order; deterministic."""
    spec = EnsembleSpec(q, g)
    for f in monic_polys(spec.poly_degree, q):
        if squarefree(f, q):
            yield f


@dataclass(frozen=True)
class MomentAccumulator:
    """Exact first-moment totals over a set of curves."""

    q: int
    total: SqrtQRational
    square_part: SqrtQRational
    nonsquare_part: SqrtQRational
    count: int


def central_value_square_split(D: Poly, q: int):
    """(square_contribution, full_value) of the two-block central-value sum.

    The square summands f = l^2 contribute chi_D(l^2) = 1 exactly when
    gcd(D, l) = 1, so their share is a count of coprime l, all at even n:
    a plain rational.
    """
    g = (degree(D) - 1) // 2
    counts = [0] * (g + 1)
    for h in range(g // 2 + 1):
        counts[2 * h] = sum(1 for l in monic_polys(h, q) if degree(gcd(D, l, q)) == 0)
    return center_value(counts, q, two_block_weights(g)), afe_central_value(D, q)


def first_moment(q: int, g: int) -> MomentAccumulator:
    """Reference first moment: loop over the ensemble, per-curve values.

    The oracle for `scan.moment_scan`, which must equal it exactly.
    """
    total = square = SqrtQRational.zero(q)
    count = 0
    for D in enumerate_ensemble(q, g):
        sq_val, value = central_value_square_split(D, q)
        total = total + value
        square = square + sq_val
        count += 1
    return MomentAccumulator(
        q=q, total=total, square_part=square, nonsquare_part=total - square, count=count
    )


def expected_value(F, q: int, g: int) -> SqrtQRational:
    """Ensemble average of a value function F(D) by direct enumeration."""
    spec = EnsembleSpec(q, g)
    acc = SqrtQRational.zero(q)
    for D in enumerate_ensemble(q, g):
        acc = acc + F(D)
    return acc.scale(Fraction(1, spec.size))


def expected_value_sieved(F, q: int, g: int) -> SqrtQRational:
    """Same average through the square-divisor Moebius sieve.

    sum over square-free D of F(D)
        = sum_{deg A <= g} mu(A) * sum_{deg B = 2g+1-2 deg A} F(A^2 B),

    valid for any F on monic polynomials of degree 2g+1: the inner Moebius
    sum over A^2 | D is the square-free indicator.
    """
    spec = EnsembleSpec(q, g)
    acc = SqrtQRational.zero(q)
    for alpha in range(g + 1):
        for A in monic_polys(alpha, q):
            m = mobius(A, q)
            if m == 0:
                continue
            A2 = mul(A, A, q)
            inner = SqrtQRational.zero(q)
            for B in monic_polys(2 * g + 1 - 2 * alpha, q):
                inner = inner + F(mul(A2, B, q))
            acc = acc + inner.scale(m)
    return acc.scale(Fraction(1, spec.size))
