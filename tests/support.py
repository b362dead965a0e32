"""Conveniences the tests share; none of them is part of the library.

It also holds criterion 6's identity checks: the coprime count, the divisor
expansion of the density factor, the short and ensemble character-sum
bounds, and the polynomial helpers only they call.  With them is the
USp(2g) moment that the main term is compared against.  No library route
calls any of these, so they live beside the tests that check them.
"""

from fractions import Fraction
from math import comb

import numpy as np

from hyperell.asymptotics import EulerConstants
from hyperell.characters import jacobi
from hyperell.curve import PowerSums
from hyperell.ensemble import enumerate_ensemble
from hyperell.field import legendre_scalar
from hyperell.lfunction import dirichlet_coefficient
from hyperell.polyring import (
    Poly,
    _reduce,
    _unit_lead,
    degree,
    factorize,
    is_monic,
    mobius,
    monic,
    monic_by_code,
    monic_polys,
    mul,
    norm,
    normalize,
    squarefree,
)


def poly_code(f: Poly, q: int) -> int:
    """Base-q code over the full coefficient vector (leading digit included)."""
    code = 0
    for c in reversed(f):
        code = code * q + c
    return code


def poly_of_code(code: int, q: int) -> Poly:
    """Inverse of poly_code: the polynomial whose coefficients are the base-q digits."""
    out = []
    while code:
        code, c = divmod(code, q)
        out.append(c)
    return tuple(out)


def derivative(f: Poly, q: int) -> Poly:
    return normalize([i * f[i] % q for i in range(1, len(f))])


def gcd_by_digit_lists(f: Poly, g: Poly, q: int) -> Poly:
    """The oracle for `polyring.gcd`: Euclid on digit lists by repeated `_reduce`.

    Monic gcd; gcd(f, 0) = monic(f mod q).  It stops at the first remainder
    of degree <= 0: zero leaves the last divisor, and a nonzero constant
    makes the gcd 1.  The caller's g is checked by `_unit_lead`; each later
    divisor is `_reduce`'s own remainder, reduced mod q and stripped.  It
    shares no code with the packed Euclid, `polyring._euclid`.
    """
    a, b = list(f), list(g)
    if not b:
        return monic(normalize(c % q for c in a), q)
    _unit_lead(b, q)
    while len(b) > 1:
        a, b = b, _reduce(a, b, q)
        if not b:
            return monic(normalize(c % q for c in a), q)
    return (1,)


def sample_codes_by_scalar_test(q: int, d: int, count: int, seed: int) -> np.ndarray:
    """The oracle for `scan.sample_codes`: its draws, each decided by `squarefree` alone.

    The same RNG calls in the same order, with no pre-pass: every draw up to
    the count-th square-free one is built by `monic_by_code` and tested.
    Arguments are taken as valid.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    space = q**d
    out: list = []
    while len(out) < count:
        batch = rng.integers(0, space, size=max(64, count), dtype=np.int64)
        for c in batch:
            if squarefree(monic_by_code(int(c), d, q), q):
                out.append(int(c))
                if len(out) == count:
                    break
    return np.array(out, dtype=np.int64)


def suite_passed(results: list) -> bool:
    return all(r.passed for r in results)


def square_block_main_term(q: int, g: int, ec: EulerConstants, top_degree: int) -> Fraction:
    """Main term of the square summands f = l^2 with deg f <= top_degree.

    The block sum over one character-sum window of top degree `top_degree`
    contributes (#even degrees up to the top) + Lsum, scaled by the measure
    of the ensemble: C/zeta(2) * q^(2g+1) * (floor(top/2) + 1 + Lsum).
    """
    if ec.q != q:
        raise ValueError("constants were built for a different q")
    bracket = Fraction(top_degree // 2 + 1) + ec.log_deriv
    return ec.p_one / ec.zeta_a2 * Fraction(q) ** (2 * g + 1) * bracket


def main_term_split(q: int, g: int, ec: EulerConstants) -> tuple:
    """(window top degree g, window top degree g-1); their sum is the main term."""
    return (
        square_block_main_term(q, g, ec, g),
        square_block_main_term(q, g, ec, g - 1),
    )


def average_leading_term(q: int, g: int, ec: EulerConstants) -> Fraction:
    """Leading behaviour of the per-curve average central value: C/2 * (2g+1)."""
    return ec.p_one / 2 * (2 * g + 1)


def rh_bound_holds(ps: PowerSums) -> bool:
    """|S_n| <= 2g q^(n/2) for every trace, exactly (squared integer compare)."""
    return all(
        s * s <= 4 * ps.g * ps.g * ps.q**k for k, s in enumerate(ps.traces, start=1)
    )


def coefficient_vanishes_at(D: Poly, q: int) -> bool:
    """A_D(n) = 0 at n = deg D, the first index where vanishing is forced."""
    return dirichlet_coefficient(D, degree(D), q) == 0


def euler_phi(f: Poly, q: int) -> int:
    """Order of the unit group of F_q[x]/(f): |f| * prod over P|f of (1 - 1/|P|)."""
    if not f:
        raise ValueError("euler_phi undefined at zero")
    out = 1
    for p, e in factorize(f, q)[1]:
        np_ = norm(p, q)
        out *= np_ ** (e - 1) * (np_ - 1)
    return out


def radical(f: Poly, q: int) -> Poly:
    """Product of the distinct monic irreducible divisors."""
    out: Poly = (1,)
    for p, _ in factorize(f, q)[1]:
        out = mul(out, p, q)
    return out


def is_perfect_square(f: Poly, q: int) -> bool:
    """Whether f = g^2 for some g in F_q[x]."""
    if not f:
        return True
    if degree(f) % 2:
        return False
    unit, factors = factorize(f, q)
    if legendre_scalar(unit, q) != 1:
        return False
    return all(e % 2 == 0 for _, e in factors)


def density_factor(l: Poly, q: int) -> Fraction:
    """prod over P | l of (1 + 1/|P|)^(-1)."""
    out = Fraction(1)
    for p, _ in factorize(l, q)[1]:
        out /= 1 + Fraction(1, norm(p, q))
    return out


def mobius_expansion_identity_holds(l: Poly, q: int) -> bool:
    """density_factor(l) == sum over monic d | l of mu(d) prod_{P|d} 1/(|P|+1).

    Only square-free divisors survive, so the right side runs over subsets
    of the distinct primes of l.
    """
    primes = [p for p, _ in factorize(l, q)[1]]
    total = Fraction(0)
    for mask in range(1 << len(primes)):
        term = Fraction(1)
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                bits += 1
                term *= Fraction(1, norm(p, q) + 1)
        total += (-1) ** bits * term
    return total == density_factor(l, q)


def aggregated_density_identity_holds(n: int, q: int) -> bool:
    """Degree-aggregated form, for even n:

    sum_{deg l = n/2} density_factor(l)
        == q^(n/2) * sum_{deg e <= n/2} mu(e)/|e| * prod_{P|e} 1/(|P|+1).
    """
    if n % 2:
        raise ValueError("aggregated identity applies to even n")
    m = n // 2
    lhs = sum((density_factor(l, q) for l in monic_polys(m, q)), Fraction(0))
    rhs = Fraction(0)
    for d in range(m + 1):
        for e in monic_polys(d, q):
            mu = mobius(e, q)
            if mu == 0:
                continue
            term = Fraction(mu, norm(e, q))
            for p, _ in factorize(e, q)[1]:
                term *= Fraction(1, norm(p, q) + 1)
            rhs += term
    rhs *= q**m
    return lhs == rhs


def usp_moment(g: int, s: int) -> Fraction:
    """Moment of the characteristic polynomial at the symmetry point in USp(2g).

    2^(2gs) * prod_{j=1}^{g} [Gamma(1+g+j) Gamma(1/2+s+j)] / [Gamma(1/2+j) Gamma(1+s+g+j)],
    rational for integer s >= 0 since the gamma ratios telescope into
    products of half-integers and integers.
    """
    if not isinstance(s, int) or s < 0:
        raise ValueError("only integer moments s >= 0 are supported exactly")
    if g < 1:
        raise ValueError("g must be >= 1")
    out = Fraction(2) ** (2 * g * s)
    for j in range(1, g + 1):
        # Gamma(1/2+s+j)/Gamma(1/2+j) = prod_{i=0}^{s-1} (j + i + 1/2)
        for i in range(s):
            out *= j + i + Fraction(1, 2)
        # Gamma(1+g+j)/Gamma(1+s+g+j) = 1 / prod_{i=0}^{s-1} (1+g+j+i)
        for i in range(s):
            out /= 1 + g + j + i
    return out


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
    return sum(jacobi(D, f, q) for D in enumerate_ensemble(q, g))


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
    return sum(jacobi(B, f, q) for B in monic_polys(n, q))


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
