"""Conveniences the tests share; none of them is part of the library."""

from fractions import Fraction

from hyperell.asymptotics import EulerConstants, square_block_main_term
from hyperell.curve import PowerSums
from hyperell.lfunction import dirichlet_coefficient
from hyperell.polyring import Poly, degree


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


def suite_passed(results: list) -> bool:
    return all(r.passed for r in results)


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
