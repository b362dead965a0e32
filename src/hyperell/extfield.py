"""Extension fields F_{q^n} = F_q[t]/(m(t)) with a deterministic modulus.

Elements are fixed-length coefficient tuples (length n, constant first), so
tuple equality is field equality.  The modulus is the first monic
irreducible of degree n in code order, which makes every table and every
point count reproducible across runs and machines.
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
    """Arithmetic in F_{q^n}; elements are length-n tuples over [0, q)."""

    def __init__(self, q: int, n: int):
        modulus = find_irreducible(q, n)  # validates q and n
        self.q = q
        self.n = n
        self.order = q**n
        self.modulus = modulus
        # red[j] = coefficients of t^(n+j) mod m, for the multiplication fold
        red = [tuple((-c) % q for c in modulus[:-1])]  # t^n mod m
        for _ in range(1, n - 1):
            prev = red[-1]
            shifted = [0] + list(prev[:-1])  # t * prev, before folding the top
            top = prev[-1]
            if top:
                for i, c in enumerate(red[0]):
                    shifted[i] = (shifted[i] + top * c) % q
            red.append(tuple(c % q for c in shifted))
        self._red = red
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def __repr__(self) -> str:
        return f"ExtField(q={self.q}, n={self.n}, modulus={self.modulus})"

    def element(self, coeffs) -> tuple:
        c = [x % self.q for x in coeffs]
        if len(c) > self.n:
            raise ValueError("too many coefficients")
        return tuple(c + [0] * (self.n - len(c)))

    def embed(self, a: int) -> tuple:
        return self.element([a])

    def elements(self):
        """All q^n elements in code order, constant coordinate fastest."""
        q, n = self.q, self.n
        for code in range(self.order):
            out = []
            for _ in range(n):
                code, c = divmod(code, q)
                out.append(c)
            yield tuple(out)

    def add(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        q, n = self.q, self.n
        if n == 1:
            return ((a[0] * b[0]) % q,)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:n]
        for j in range(n - 1):
            top = prod[n + j]
            if top:
                row = self._red[j]
                for i in range(n):
                    out[i] += top * row[i]
        return tuple(c % q for c in out)

    def pow_(self, a: tuple, e: int) -> tuple:
        """a^e for e >= 0, by square-and-multiply."""
        if e < 0:
            raise ValueError("negative exponent: ExtField has no inverse")
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a: tuple) -> tuple:
        return self.pow_(a, self.q)

    def is_square(self, a: tuple) -> int:
        """Quadratic character of the extension: +1 / -1 / 0 at zero."""
        if a == self.zero:
            return 0
        return 1 if self.pow_(a, (self.order - 1) // 2) == self.one else -1

    def eval_poly(self, f: Poly, x: tuple) -> tuple:
        """Evaluate a base-field polynomial at an extension element (Horner)."""
        acc = self.zero
        for c in reversed(f):
            acc = self.mul(acc, x)
            if c:
                acc = self.add(acc, self.embed(c))
        return acc


@lru_cache(maxsize=None)
def get_field(q: int, n: int) -> ExtField:
    return ExtField(q, n)
