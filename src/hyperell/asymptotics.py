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
in fixed-point integer arithmetic with 192 fractional bits: deterministic,
no floats, and no million-digit exact fractions (the factor for degree 10
at q = 5 is raised to the 976248th power; a fully reduced rational there is
an enormous gcd for no gain in the asserted digits).  The per-degree factor
itself is exposed as an exact Fraction for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import check_odd_prime
from .polyring import irreducible_count

_FP_BITS = 192
_FP_ONE = 1 << _FP_BITS

_DEFAULT_CUTOFF = {5: 10}


def _fp(x: Fraction) -> int:
    return (x.numerator << _FP_BITS) // x.denominator


def _fp_mul(u: int, v: int) -> int:
    return (u * v) >> _FP_BITS


def _fp_pow(u: int, e: int) -> int:
    out = _FP_ONE
    while e:
        if e & 1:
            out = _fp_mul(out, u)
        u = _fp_mul(u, u)
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
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    prod_fp = _FP_ONE
    lsum = Fraction(0)
    for n in range(1, cutoff + 1):
        cnt = irreducible_count(q, n)
        prod_fp = _fp_mul(prod_fp, _fp_pow(_fp(euler_factor(q, n)), cnt))
        qn = q**n
        lsum += Fraction(cnt * n, qn * (qn + 1) - 1)
    return EulerConstants(
        q=q,
        cutoff=cutoff,
        p_one=Fraction(prod_fp, _FP_ONE),
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
    bracket = Fraction(2 * g + 2) + 4 * ec.log_deriv
    return ec.p_one / (2 * ec.zeta_a2) * Fraction(q) ** (2 * g + 1) * bracket
