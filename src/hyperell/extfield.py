"""Extension fields F_{q^n} = F_q[t]/(m(t)) with a deterministic modulus.

Elements are polyring residues mod m: reduced tuples of degree < n with no
trailing zeros, so tuple equality is field equality (zero is (), one is
(1,)).  Multiplication and powers are polyring's `mul_mod` and `pow_mod`.
The modulus is the first monic irreducible of degree n in code order, which
makes every table and every point count reproducible across runs and
machines.
"""

from __future__ import annotations

from functools import lru_cache

from . import polyring
from .field import check_odd_prime
from .polyring import Poly


@lru_cache(maxsize=None)
def find_irreducible(q: int, n: int) -> Poly:
    """First monic irreducible of degree n in code order (constant term fastest)."""
    check_odd_prime(q)
    if n < 1:
        raise ValueError("degree must be >= 1")
    for f in polyring.monic_polys(n, q):
        if polyring.is_irreducible(f, q):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


class ExtField:
    """Arithmetic in F_{q^n}; elements are polyring residues mod the modulus.

    The nonzero squares are tabulated once, at construction, so the
    quadratic character is a set lookup.
    """

    def __init__(self, q: int, n: int):
        self.modulus = find_irreducible(q, n)  # validates q and n
        self.q = q
        self.n = n
        self.order = q**n
        self.zero = ()
        self.one = (1,)
        self._squares = frozenset(self.mul(a, a) for a in self.elements() if a)

    def elements(self):
        """All q^n elements in code order, constant coordinate fastest."""
        q, n = self.q, self.n
        for code in range(self.order):
            yield polyring.normalize(polyring.monic_by_code(code, n, q)[:-1])

    def add(self, a: tuple, b: tuple) -> tuple:
        return polyring.add(a, b, self.q)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return polyring.mul_mod(a, b, self.modulus, self.q)

    def pow_(self, a: tuple, e: int) -> tuple:
        """a^e for e >= 0; there is no inverse, so e < 0 raises ValueError."""
        return polyring.pow_mod(a, e, self.modulus, self.q)

    def frobenius(self, a: tuple) -> tuple:
        return self.pow_(a, self.q)

    def is_square(self, a: tuple) -> int:
        """Quadratic character of the extension: +1 / -1 / 0 at zero."""
        if not a:
            return 0
        return 1 if a in self._squares else -1

    def eval_poly(self, f: Poly, x: tuple) -> tuple:
        """Evaluate a base-field polynomial at an extension element (Horner)."""
        acc = self.zero
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), (c,))
        return acc


@lru_cache(maxsize=None)
def get_field(q: int, n: int) -> ExtField:
    return ExtField(q, n)
