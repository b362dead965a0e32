"""The hyperelliptic ensemble: square-free monic D of degree 2g+1 over F_q.

Everything here is the straightforward reference route: explicit loops over
the ensemble, per-curve central values, direct character sums.  The
vectorized engine in `scan` must reproduce these numbers exactly; the slow
honest loop is the yardstick, so it stays simple.

The first-moment accumulator keeps three exact totals: the full sum of
central values, the contribution of square summands f = l^2 (these carry
the main term) and the contribution of the non-square summands (these are
oscillatory and should stay small).  total = square + nonsquare always, and
both splits cover the full two-block central-value formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .characters import chi
from .field import check_odd_prime
from .lfunction import afe_central_value, center_value, dirichlet_coefficient, two_block_weights
from .polyring import (
    Poly,
    degree,
    euler_phi,
    gcd,
    is_monic,
    is_perfect_square,
    mobius,
    monic_polys,
    mul,
    norm,
    radical,
    squarefree,
)
from .sqrtq import SqrtQRational


@dataclass(frozen=True)
class EnsembleSpec:
    q: int
    g: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("genus must be >= 1")
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
    """Exact, mergeable first-moment totals over a set of curves."""

    q: int
    total: SqrtQRational
    square_part: SqrtQRational
    nonsquare_part: SqrtQRational
    count: int

    @staticmethod
    def empty(q: int) -> "MomentAccumulator":
        z = SqrtQRational.zero(q)
        return MomentAccumulator(q=q, total=z, square_part=z, nonsquare_part=z, count=0)

    def __add__(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if self.q != other.q:
            raise ValueError("merging accumulators over different q")
        return MomentAccumulator(
            q=self.q,
            total=self.total + other.total,
            square_part=self.square_part + other.square_part,
            nonsquare_part=self.nonsquare_part + other.nonsquare_part,
            count=self.count + other.count,
        )

    def consistent(self) -> bool:
        return self.total == self.square_part + self.nonsquare_part


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
    """Reference first moment: loop over the ensemble, per-curve values."""
    acc = MomentAccumulator.empty(q)
    for D in enumerate_ensemble(q, g):
        sq_val, total = central_value_square_split(D, q)
        acc = acc + MomentAccumulator(
            q=q,
            total=total,
            square_part=sq_val,
            nonsquare_part=total - sq_val,
            count=1,
        )
    return acc


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


def coprime_monic_count(d: int, l: Poly, q: int) -> int:
    """#{monic N of degree d with gcd(N, l) = 1} = q^d Phi(l)/|l|.

    The closed form is exact precisely when d is at least the degree of the
    radical of l (inclusion-exclusion over the distinct primes of l needs a
    monic multiple of each divisor); shorter d raises rather than returning
    a wrong integer.
    """
    if not l:
        raise ValueError("l must be nonzero")
    if d < 0:
        raise ValueError("degree must be >= 0")
    rad_deg = degree(radical(l, q))
    if d < rad_deg:
        raise ValueError(
            f"closed form needs d >= deg rad(l) = {rad_deg}, got d = {d}"
        )
    count, left = divmod(q**d * euler_phi(l, q), norm(l, q))
    if left:
        raise ArithmeticError(f"q^d Phi(l)/|l| is not an integer for d = {d}")
    return count


def char_sum_over_ensemble(f: Poly, q: int, g: int) -> int:
    """S(f) = sum over the ensemble of chi_D(f), by direct enumeration."""
    return sum(chi(D, f, q) for D in enumerate_ensemble(q, g))


def ensemble_char_sum_bound_holds(f: Poly, q: int, g: int) -> tuple:
    """For monic non-square f: |S(f)| <= 2^(deg f - 1) q^(g + 1/2).

    Exact check via squares: S^2 <= 4^(deg f - 1) q^(2g+1).  Returns
    (holds, S) so callers can record the observed sum.
    """
    if not is_monic(f) or degree(f) < 1:
        raise ValueError("f must be monic of positive degree")
    if is_perfect_square(f, q):
        raise ValueError("bound applies to non-square f only")
    s = char_sum_over_ensemble(f, q, g)
    df = degree(f)
    return s * s <= 4 ** (df - 1) * q ** (2 * g + 1), s


def fixed_degree_char_sum(f: Poly, n: int, q: int) -> int:
    """sum over monic B of degree n of (B/f)."""
    return sum(chi(B, f, q) for B in monic_polys(n, q))


def fixed_degree_bound_holds(f: Poly, n: int, q: int):
    """Short-sum bound for non-square monic f.

    The sum vanishes for n >= deg f; below that it is at most
    binomial(deg f - 1, n) q^(n/2) in absolute value.  Exact integer check;
    returns (holds, sum).
    """
    if not is_monic(f) or degree(f) < 1:
        raise ValueError("f must be monic of positive degree")
    if is_perfect_square(f, q):
        raise ValueError("bound applies to non-square f only")
    t = fixed_degree_char_sum(f, n, q)
    if n >= degree(f):
        return t == 0, t
    c = comb(degree(f) - 1, n)
    return t * t <= c * c * q**n, t


def coefficient_vanishes_at(D: Poly, q: int) -> bool:
    """A_D(n) = 0 at n = deg D, the first index where vanishing is forced."""
    return dirichlet_coefficient(D, degree(D), q) == 0
