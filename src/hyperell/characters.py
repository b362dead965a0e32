"""Quadratic residue symbols in F_q[x] for odd q.

For a monic irreducible P the symbol (f/P) is 0 when P | f and otherwise
+1 or -1 according to whether f is a square mod P, computed by Euler's
criterion f^((|P|-1)/2) mod P.  The Jacobi extension to monic composite Q
is multiplicative over the factorization of Q.

Two independent evaluation routes are kept on purpose:

* `jacobi_factorization`, the oracle, works from the definition, factoring Q;
* `jacobi` runs a Euclidean ladder using the reciprocity law
      (A/B) = (B/A) * (-1)^((q-1)/2 * deg A * deg B)
  for coprime monic A, B, together with the scalar rule
      (c/Q) = legendre(c)^(deg Q).

They must agree everywhere; the test suite checks that they do.  The
Euclidean route needs no factorizations and is the production path.

The character attached to a square-free D is chi_D(f) = (D/f), evaluated
everywhere as `jacobi(D, f, q)`; it is completely multiplicative in f.
Denominators must be monic; symbols with non-monic denominators are
rejected rather than silently normalized.
"""

from __future__ import annotations

from .field import legendre_scalar
from .polyring import (
    Poly,
    degree,
    factorize,
    gcd,
    is_monic,
    monic,
    norm,
    pow_mod,
    rem,
)


def residue_symbol_prime(f: Poly, P: Poly, q: int) -> int:
    """(f/P) for monic irreducible P, by Euler's criterion.

    A non-constant power f^((|P|-1)/2) mod P proves P reducible, which is
    reported as a domain error rather than a wrong answer.
    """
    if not is_monic(P) or degree(P) < 1:
        raise ValueError("denominator must be monic of positive degree")
    r = rem(f, P, q)
    if not r:
        return 0
    s = pow_mod(r, (norm(P, q) - 1) // 2, P, q)
    if len(s) == 1:
        if s[0] == 1:
            return 1
        if s[0] == q - 1:
            return -1
    raise ValueError("Euler criterion gave a non-scalar value: modulus is not irreducible")


def jacobi_factorization(f: Poly, Q: Poly, q: int) -> int:
    """(f/Q) from the definition: product of prime symbols over Q's factorization.

    The oracle for `jacobi`; it shares no code path with the reciprocity ladder.
    """
    if not is_monic(Q):
        raise ValueError("denominator must be monic and nonzero")
    out = 1
    for P, e in factorize(Q, q)[1]:
        if e % 2 == 0:
            # even powers only matter through the zero case
            if not rem(f, P, q):
                return 0
            continue
        s = residue_symbol_prime(f, P, q)
        if s == 0:
            return 0
        out *= s
    return out


def jacobi(f: Poly, Q: Poly, q: int) -> int:
    """(f/Q) by the reciprocity ladder; no factorizations.

    Each round strips the leading unit of the numerator (scalar rule), flips
    the sign when reciprocity says so, then swaps and reduces.  A vanishing
    remainder against a non-trivial modulus means a shared factor: symbol 0.
    """
    if not is_monic(Q):
        raise ValueError("denominator must be monic and nonzero")
    flip_possible = q % 4 == 3  # (-1)^((q-1)/2) = -1 exactly then
    s = 1
    f = rem(f, Q, q)
    while True:
        dq = degree(Q)
        if not f:
            return s if dq == 0 else 0
        c = f[-1]
        if c != 1:
            if dq % 2 == 1 and legendre_scalar(c, q) == -1:
                s = -s
            f = monic(f, q)
        df = degree(f)
        if df == 0:
            return s
        if flip_possible and df % 2 == 1 and dq % 2 == 1:
            s = -s
        f, Q = rem(Q, f, q), f


def reciprocity_holds(A: Poly, B: Poly, q: int) -> bool:
    """Check the reciprocity law on a coprime monic pair."""
    if not (is_monic(A) and is_monic(B)):
        raise ValueError("reciprocity applies to monic polynomials")
    if degree(gcd(A, B, q)) != 0:
        raise ValueError("reciprocity check needs a coprime pair")
    sign = -1 if (q % 4 == 3 and degree(A) % 2 == 1 and degree(B) % 2 == 1) else 1
    return jacobi(A, B, q) == sign * jacobi(B, A, q)
