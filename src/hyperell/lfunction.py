"""Dirichlet L-polynomials of quadratic characters over F_q[x].

For square-free monic D the character chi_D(f) = (D/f) has the L-series

    L(u, chi_D) = sum over monic f of chi_D(f) u^(deg f)
                = sum_n A_D(n) u^n,    A_D(n) = sum_{deg f = n} chi_D(f),

and A_D(n) = 0 once n >= deg D, so L is a polynomial.  For odd deg D = 2g+1
the polynomial is already complete: degree 2g, leading coefficient q^g, and
its coefficients obey the symmetry

    a_n = a_{2g-n} * q^(n-g)        (0 <= n <= 2g).

For even deg D there is a forced zero at u = 1; dividing it out once leaves
the completed polynomial of degree deg D - 2 with the same kind of symmetry.
The completed polynomial has all roots on |u| = q^(-1/2), and its value at
u = q^(-1/2) is an exact element of Q(sqrt q).  `rh_certified` decides the
root moduli exactly, by a Sturm count on integers; the float deviation of
`rh_root_deviation` is a diagnostic, reported within RH_TOL.

The value at the center can also be written as two finite character sums,

    sum_{n<=g} A_D(n) q^(-n/2)  +  sum_{m<=g-1} A_D(m) q^(-m/2),

an identity (not an approximation) that only needs coefficients up to g.
`afe_central_value` computes that form independently of `l_polynomial`, and
the test suite holds the two routes equal.

Every central value and moment in the package is a weighted sum
sum_n w_n v_n q^(-n/2).  The weight rule (2, ..., 2, 1) lives only in
`two_block_weights`, and the split of q^(-n/2) into the rational and the
sqrt(q) coordinate lives only in `scaled_center_coords`; `center_value` turns
the split into an exact element of Q(sqrt q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import jacobi
from .polyring import Poly, check_budget, degree, is_monic, monic_polys, squarefree
from .sqrtq import SqrtQRational

RH_TOL = 1e-9  # bound on the reported float deviation of a certified row


@dataclass(frozen=True)
class LPolynomial:
    """Completed L-polynomial data.

    coeffs holds the completed coefficients (constant term first); lam is 1
    when a trivial zero at u = 1 was divided out (even deg D) and 0 otherwise.
    Instances are plain records: synthetic coefficient vectors are allowed,
    so that symmetry checks can be exercised on negative controls.
    """

    q: int
    coeffs: tuple
    lam: int

    @property
    def delta(self) -> int:
        """Half-degree of the completed polynomial."""
        return (len(self.coeffs) - 1) // 2

    def __post_init__(self):
        if self.lam not in (0, 1):
            raise ValueError("lam must be 0 or 1")
        if len(self.coeffs) % 2 == 0:
            raise ValueError("completed coefficients must have odd length (even degree)")


def dirichlet_coefficient(D: Poly, n: int, q: int) -> int:
    """A_D(n): character sum over all monic f of degree n."""
    if n < 0:
        raise ValueError("coefficient index must be >= 0")
    return sum(jacobi(D, f, q) for f in monic_polys(n, q))


def l_polynomial(D: Poly, q: int) -> LPolynomial:
    """Build the completed L-polynomial of a square-free monic D by direct summation.

    Cost is sum of q^n for n < deg D symbol evaluations; meant for reference
    work and cross-checks, not bulk scans.  A D whose count passes the table
    budget is refused (`check_budget`) before the first symbol.
    """
    if not is_monic(D) or degree(D) < 1:
        raise ValueError("D must be monic of positive degree")
    if not squarefree(D, q):
        raise ValueError("D must be square-free (in particular not a perfect square)")
    symbols = sum(q**n for n in range(degree(D)))
    check_budget(symbols, f"L-polynomial of degree {degree(D)} at q={q} needs {symbols} symbols")
    a = [dirichlet_coefficient(D, n, q) for n in range(degree(D))]
    if degree(D) % 2 == 1:
        return LPolynomial(q=q, coeffs=tuple(a), lam=0)
    # even degree: remove the forced zero at u = 1
    if sum(a) != 0:
        raise ArithmeticError("expected zero at u = 1 for even-degree D is missing")
    b = []
    acc = 0
    for c in a[:-1]:
        acc += c
        b.append(acc)
    if b and b[-1] == 0:
        raise ArithmeticError("completed polynomial dropped degree unexpectedly")
    return LPolynomial(q=q, coeffs=tuple(b), lam=1)


def functional_equation_defect(L: LPolynomial):
    """Least n with a_n * q^(delta-n) != a_{2 delta - n}; None when the symmetry holds."""
    a = L.coeffs
    d = L.delta
    q = L.q
    return next((n for n in range(d + 1) if a[n] * q ** (d - n) != a[2 * d - n]), None)


def functional_equation_holds(L: LPolynomial) -> bool:
    """Exact coefficient symmetry a_n * q^(delta-n) == a_{2 delta - n}."""
    return functional_equation_defect(L) is None


def two_block_weights(g: int) -> tuple:
    """Weights of A_D(0..g) in the two-block central value: 2 below g, 1 at g.

    The block of length g contributes every n <= g once, the block of length
    g - 1 every n <= g - 1 once more.
    """
    return (2,) * g + (1,)


def scaled_center_coords(values, q: int, scale: int, weights=None):
    """(rat, irr) with sum_n w_n values[n] q^(-n/2) = (rat + irr sqrt(q)) / q^scale.

    q^(-n/2) is q^(-n/2) for even n and q^(-(n+1)/2) * sqrt(q) for odd n, so
    every term lands on an integer multiple of q^(-scale) in one coordinate;
    scale must be at least ceil((len(values) - 1) / 2).  values[n] may be an
    int or a numpy vector (one entry per curve); vectors are summed as Python
    ints, so the coordinates never wrap around.  weights defaults to all ones.
    """
    if weights is None:
        weights = (1,) * len(values)
    rat = irr = 0
    for n, (w, v) in enumerate(zip(weights, values, strict=True)):
        if isinstance(v, np.ndarray):
            v = v.astype(object)
        if n % 2 == 0:
            rat = rat + w * v * q ** (scale - n // 2)
        else:
            irr = irr + w * v * q ** (scale - (n + 1) // 2)
    return rat, irr


def center_value(values, q: int, weights=None) -> SqrtQRational:
    """sum_n w_n values[n] q^(-n/2) for integer values, exactly."""
    scale = len(values) // 2
    rat, irr = scaled_center_coords(values, q, scale, weights)
    return SqrtQRational(Fraction(rat, q**scale), Fraction(irr, q**scale), q)


def evaluate_center(L: LPolynomial) -> SqrtQRational:
    """Value of the completed polynomial at u = q^(-1/2), exactly."""
    return center_value(L.coeffs, L.q)


def afe_central_value(D: Poly, q: int) -> SqrtQRational:
    """Central value via the two finite character sums of lengths g and g-1.

    Defined for any monic D of odd degree 2g+1; it equals the evaluated
    center exactly when D is square-free.  (The sieve identities need the
    formula on non-square-free inputs too, which is why square-freeness is
    not enforced here.)
    """
    d = degree(D)
    if not is_monic(D) or d < 1 or d % 2 == 0:
        raise ValueError("D must be monic of odd positive degree")
    g = (d - 1) // 2
    coeffs = [dirichlet_coefficient(D, n, q) for n in range(g + 1)]
    return center_value(coeffs, q, two_block_weights(g))


def _sturm_next(a: list, b: list) -> list:
    """-(a mod b) up to a positive factor, made primitive; [] when b divides a.

    Integer pseudo-division scaled by |lc(b)|, so the signs are those of the
    rational remainder.  Polynomials are integer lists, constant term first.
    """
    r = list(a)
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) >= len(b):
        c = sign * r[-1]
        shift = len(r) - len(b)
        r = [lead * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    content = math.gcd(*r) if r else 1
    return [-x // content for x in r]


def _sturm_chain(p: list) -> list:
    """Sturm sequence p, p', ..., gcd(p, p') of an integer polynomial of degree >= 1."""
    dp = [i * c for i, c in enumerate(p)][1:]
    content = math.gcd(*dp)
    chain = [p, [c // content for c in dp]]
    while True:
        r = _sturm_next(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append(r)


def _sign_changes(chain: list, x: int) -> int:
    values = []
    for p in chain:
        v = 0
        for c in reversed(p):
            v = v * x + c
        if v:
            values.append(v)
    return sum((u < 0) != (v < 0) for u, v in zip(values, values[1:]))


def _exact_quotient(p: list, d: list) -> list:
    """p / d for a primitive integer d that divides p over Q (then over Z, by Gauss)."""
    r = list(p)
    out = [0] * (len(p) - len(d) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = r[shift + len(d) - 1] // d[-1]
        out[shift] = c
        for i, y in enumerate(d):
            r[shift + i] -= c * y
    return out


def rh_certified(L: LPolynomial) -> bool:
    """Exact test that every root of L lies on |u| = q^(-1/2).

    Only rows that satisfy the functional equation can pass.  For those,
    T^(2 delta) L(1/T) = T^delta h(T + q/T) with

        h = a_delta + sum_{k=1..delta} a_{delta-k} D_k(x),
        D_0 = 2, D_1 = x, D_{k+1} = x D_k - q D_{k-1},

    so the roots lie on the circle iff h has all its roots real in
    [-2 sqrt q, 2 sqrt q], that is iff k(y) = h(x) h(-x), y = x^2, has all
    its roots in [0, 4q].  With the roots at y = 0 stripped, that holds iff
    the Sturm count of the square-free part of k on (0, 4q] equals its
    degree: the real-Weil-polynomial test of Kedlaya, "Search techniques
    for root-unitary polynomials" (2008).  All arithmetic is on integers.
    """
    a = L.coeffs
    if not functional_equation_holds(L) or a[0] == 0:
        return False  # a_0 = 0 puts a root at u = 0
    q, d = L.q, L.delta
    h = [a[d]] + [0] * d
    prev, cur = [2], [0, 1]  # D_{k-1}, D_k
    for k in range(1, d + 1):
        for i, c in enumerate(cur):
            h[i] += a[d - k] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    # h(x) = E(x^2) + x O(x^2), so k(y) = E(y)^2 - y O(y)^2, of degree d
    even, odd = h[0::2], h[1::2]
    k = [0] * (d + 1)
    for i, x in enumerate(even):
        for j, y in enumerate(even):
            k[i + j] += x * y
    for i, x in enumerate(odd):
        for j, y in enumerate(odd):
            k[i + j + 1] -= x * y
    while k[0] == 0:
        k.pop(0)
    if len(k) == 1:
        return True
    chain = _sturm_chain(k)
    if len(chain[-1]) > 1:  # repeated roots: count the square-free part
        chain = _sturm_chain(_exact_quotient(k, chain[-1]))
    return _sign_changes(chain, 0) - _sign_changes(chain, 4 * q) == len(chain[0]) - 1


def rh_root_deviation(L: LPolynomial) -> float:
    """Worst relative deviation of the root moduli from q^(-1/2), by np.roots.

    Float diagnostic on top of the exact data; `rh_certified` makes the
    decision.  Double-precision companion eigenvalues lose half their digits
    at a repeated root (these do occur, e.g. (5u^2-3u+1)^2 (5u^2+2u+1) over
    F_5), which they place only to about 1e-8.  A root finder that fails to
    converge is reported as an explicit numeric error.
    """
    if len(L.coeffs) <= 1:
        return 0.0
    try:
        roots = np.roots(list(reversed(L.coeffs)))
    except np.linalg.LinAlgError as e:  # pragma: no cover - numerically exotic
        raise RuntimeError(f"root finder failed to converge: {e}") from e
    target = L.q ** -0.5
    return float(max(abs(abs(r) - target) / target for r in roots))


def rh_root_check(L: LPolynomial):
    """(certified, deviation) for the root-modulus test; deviation is at most RH_TOL when certified.

    The deviation is `rh_root_deviation`'s, except that a certified row that
    is not clean at machine precision (above 1e-12, a repeated root) reports
    0.0, its exact deviation.
    """
    ok = rh_certified(L)
    dev = rh_root_deviation(L)
    if ok and dev > 1e-12:
        dev = 0.0
    return ok, dev
