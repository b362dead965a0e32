"""Point-count oracle for y^2 = D(x).

Counting affine points over F_{q^n} (plus one point at infinity for odd
deg D) gives the traces S_n = N_n - q^n - 1, and Newton's identities turn
S_1..S_g into the lower half of the numerator of the zeta function.  The
coefficient symmetry fills in the upper half.  The result must equal the
character-sum L-polynomial coefficient for coefficient; that equality is the
strongest cross-check in the package.  The two routes share the polynomial D
and polyring's F_q[x] division: F_{q^n} multiplies by `polyring.mul_mod`
(a product, then a remainder mod the field's modulus), and the modulus comes
from Rabin's test, which already ran on that division.  The characters,
residue tables and factorizations of the character-sum route are not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import extfield
from .field import check_at_least
from .lfunction import LPolynomial, l_polynomial
from .polyring import Poly, check_budget, degree, is_monic, squarefree


@dataclass(frozen=True)
class PowerSums:
    """Affine-plus-infinity counts N_1..N_g and the derived traces."""

    q: int
    g: int
    counts: tuple

    @property
    def traces(self) -> tuple:
        return tuple(n - self.q**k - 1 for k, n in enumerate(self.counts, start=1))


def count_points(D: Poly, q: int, n: int) -> int:
    """N_n = #{(x, y) in F_{q^n}^2 : y^2 = D(x)} + 1 (the point at infinity)."""
    check_at_least("extension degree", n, 1)
    F = extfield.get_field(q, n)
    total = 0
    for x in F.elements():
        total += 1 + F.is_square(F.eval_poly(D, x))
    return total + 1


def count_points_quadratic_recount(D: Poly, q: int) -> int:
    """N_1 recomputed inside F_{q^2}: count only Frobenius-fixed (x, y).

    An oracle for `count_points`: a deliberately redundant route through the
    quadratic extension that must reproduce count_points(D, q, 1).
    """
    F = extfield.get_field(q, 2)
    fixed = [x for x in F.elements() if F.frobenius(x) == x]
    total = 0
    for x in fixed:
        v = F.eval_poly(D, x)
        total += sum(1 for y in fixed if F.mul(y, y) == v)
    return total + 1


def power_sums(D: Poly, q: int) -> PowerSums:
    """N_1..N_g of y^2 = D(x); `check_budget` refuses q + ... + q^g points before any count."""
    d = degree(D)
    if not is_monic(D) or d < 1 or d % 2 == 0:
        raise ValueError("D must be monic of odd positive degree")
    g = (d - 1) // 2
    points = sum(q**n for n in range(1, g + 1))
    check_budget(points, f"point counts of genus {g} at q={q} visit {points} points")
    return PowerSums(q=q, g=g, counts=tuple(count_points(D, q, n) for n in range(1, g + 1)))


def zeta_numerator(D: Poly, q: int) -> LPolynomial:
    """L-polynomial from point counts alone: `zeta_from_counts` of the counts of a square-free D."""
    if not squarefree(D, q):
        raise ValueError("D must be square-free")
    return zeta_from_counts(power_sums(D, q))


def zeta_from_counts(ps: PowerSums) -> LPolynomial:
    """L-polynomial from the counts N_1..N_g (Newton's identities + symmetry).

    Every Newton step must produce an integer; a fractional intermediate
    signals a miscount and raises instead of rounding.
    """
    q, g = ps.q, ps.g
    s = ps.traces
    a = [1]
    for k in range(1, g + 1):
        acc = sum(s[i - 1] * a[k - i] for i in range(1, k + 1))
        step = Fraction(acc, k)
        if step.denominator != 1:
            raise ArithmeticError(
                f"non-integer Newton coefficient at index {k}: point counts inconsistent"
            )
        a.append(int(step))
    for n in range(g + 1, 2 * g + 1):
        a.append(a[2 * g - n] * q ** (n - g))
    return LPolynomial(q=q, coeffs=tuple(a), lam=0)


def oracle_matches(D: Poly, q: int) -> bool:
    """The oracle check: point counting and character sums agree coefficient for coefficient."""
    return zeta_numerator(D, q).coeffs == l_polynomial(D, q).coeffs
