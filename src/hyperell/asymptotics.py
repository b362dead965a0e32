"""Closed-form constants and main terms for the first moment.

The zeta function of F_q[x] is zeta(s) = 1/(1 - q^(1-s)); at s = 2 it is
q/(q-1).  The moment's main term is built from the Euler product

    C = prod over monic irreducibles P of (1 - 1/((|P|+1)|P|))

and the companion prime sum

    Lsum = sum over P of deg P / (|P| (|P|+1) - 1),

which equals the logarithmic derivative of the same product in the variable
s (at s = 1) divided by log q.  Primes of equal degree contribute identical
factors, so both are computed from the count of irreducibles per degree;
the counts come from the divisor-Moebius formula and are cross-checked
against the sieve in the tests.

Truncation at degree N leaves a relative error below 2 q^(-N) / N, and that
bound is what the cutoff-stability tests assert.  The product is evaluated
in fixed-point integer arithmetic with B fractional bits: deterministic,
no floats, and no million-digit exact fractions (the factor for degree 10
at q = 5 is raised to the 976248th power; a fully reduced rational there is
an enormous gcd for no gain in the asserted digits).  The per-degree factor
itself is exposed as an exact Fraction for the tests.

The width B = max(192, bit_length(q^(2N)) + 8), where bit_length(q^(2N))
= ceil(2N log2 q) for odd q, keeps the rounding error under half the
truncation certificate.  With u = 2^(-B), every fixed-point value is
floored and lies in [0, 1], so no error changes sign, and a product of
values off by a and b is off by at most a + b + u.  By squaring, x^e comes
out within 2e u of the exact factor's power (the k-th square is within
(2^(k+1) - 1) u), so the product over n <= N is within sum_n (2 I_n + 1) u
of the truncated product C_N, where I_n <= q^n / n counts the primes of
degree n.  For q >= 3, sum_{n<=N} q^n / n <= 3 q^N / N (by induction on
N), and C_N > exp(-(12/11) log(q/(q-1))) > 1/2, since log(1 - x) >=
-(12/11) x for the factors' x = 1/((|P|+1)|P|) <= 1/12.  So the relative
error is below 2u (6 q^N / N + N) <= 14 u q^N / N (as N^2 <= q^N), and
2^B > 256 q^(2N) puts it below q^(-N) / N, half of tail_bound.  Where
bit_length(q^(2N)) + 8 <= 192, B is 192, so the default cutoffs' values do
not move; a fixed 192 bits past that point leaves an error that grows like
q^N 2^(-192) while the certificate shrinks like q^(-N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import check_at_least, check_odd_prime
from .polyring import irreducible_count

_FP_BITS = 192  # the least fixed-point width; euler_constants widens it with the cutoff

_DEFAULT_CUTOFF = {5: 10}


def _fp_pow(u: int, e: int, bits: int) -> int:
    """u^e in fixed point with the given fractional bits, each product floored."""
    out = 1 << bits
    while e:
        if e & 1:
            out = (out * u) >> bits
        u = (u * u) >> bits
        e >>= 1
    return out


def zeta_ring(q: int, s) -> Fraction:
    """zeta(s) = 1/(1 - q^(1-s)) for integer s != 1; the pole raises."""
    s = Fraction(s)
    if s.denominator != 1:
        raise ValueError("only integer s is supported exactly")
    s = int(s)
    if s == 1:
        raise ValueError("pole of the zeta function at s = 1")
    return 1 / (1 - Fraction(q) ** (1 - s))


def euler_factor(q: int, n: int) -> Fraction:
    """Exact per-degree factor of the product: 1 - 1/(q^n (q^n + 1))."""
    qn = q**n
    return 1 - Fraction(1, qn * (qn + 1))


def default_cutoff(q: int) -> int:
    if q in _DEFAULT_CUTOFF:
        return _DEFAULT_CUTOFF[q]
    n = 6
    while n * q**n < 2_000_000:
        n += 1
    return n


@dataclass(frozen=True)
class EulerConstants:
    """Truncated constants with their truncation certificate."""

    q: int
    cutoff: int
    p_one: Fraction  # the Euler product at the center
    log_deriv: Fraction  # the prime sum Lsum, exact over the truncation
    tail_bound: Fraction  # 2 q^(-N) / N, dominates the truncation error
    zeta_a2: Fraction


def euler_constants(q: int, cutoff: int | None = None) -> EulerConstants:
    check_odd_prime(q)
    if cutoff is None:
        cutoff = default_cutoff(q)
    check_at_least("cutoff", cutoff, 1)
    bits = max(_FP_BITS, ((q * q) ** cutoff).bit_length() + 8)
    prod_fp = 1 << bits
    lsum = Fraction(0)
    for n in range(1, cutoff + 1):
        cnt = irreducible_count(q, n)
        f = euler_factor(q, n)
        prod_fp = (prod_fp * _fp_pow((f.numerator << bits) // f.denominator, cnt, bits)) >> bits
        qn = q**n
        lsum += Fraction(cnt * n, qn * (qn + 1) - 1)
    return EulerConstants(
        q=q,
        cutoff=cutoff,
        p_one=Fraction(prod_fp, 1 << bits),
        log_deriv=lsum,
        tail_bound=Fraction(2, cutoff * q**cutoff),
        zeta_a2=zeta_ring(q, 2),
    )


def log_deriv_numeric(q: int, cutoff: int, step: float = 1e-4) -> float:
    """Float oracle for Lsum: symmetric difference of log prod(s) at s = 1.

    Diagnostic only; the exact route never touches this.
    """

    def log_prod(s: float) -> float:
        out = 0.0
        for n in range(1, cutoff + 1):
            qn = float(q) ** n
            out += irreducible_count(q, n) * math.log1p(-1.0 / ((qn + 1.0) * qn**s))
        return out

    return (log_prod(1 + step) - log_prod(1 - step)) / (2 * step * math.log(q))


# ---------------------------------------------------------------------------
# main terms


def first_moment_main_term(q: int, g: int, ec: EulerConstants) -> Fraction:
    """Predicted main term of the summed first moment over the ensemble.

    C/(2 zeta(2)) * q^(2g+1) * ((2g+1) + 1 + 4 Lsum); equals the sum of the
    two square-block windows (top degrees g and g-1) exactly.
    """
    if ec.q != q:
        raise ValueError("constants were built for a different q")
    check_at_least("genus", g, 1)
    bracket = Fraction(2 * g + 2) + 4 * ec.log_deriv
    return ec.p_one / (2 * ec.zeta_a2) * Fraction(q) ** (2 * g + 1) * bracket
