"""Extension fields F_{q^n} = F_q[t]/(m(t)) with a deterministic modulus.

Elements are polyring residues mod m: reduced tuples of degree < n with no
trailing zeros, so tuple equality is field equality (zero is (), one is
(1,)).  Multiplication and powers are polyring's `mul_mod` and `pow_mod`.
A base-field polynomial is evaluated from a per-element table of powers
x^i, built once with `mul_mod`, so an evaluation is additions only.  The
modulus is the first monic irreducible of degree n in code order, which
makes every table and every point count reproducible across runs and
machines.
"""

from __future__ import annotations

from functools import lru_cache

from . import polyring
from .field import check_odd_prime
from .polyring import Poly


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

    The q^n elements, in code order, and the nonzero squares are tabulated
    once, at construction, so `elements` is a read of one tuple and the
    quadratic character is a set lookup.  The powers 1, x, x^2, ... of each
    element that `eval_poly` meets are cached as a list, lengthened on
    demand to the longest polynomial seen.  The cache is keyed by checked
    elements, so it holds at most q^n lists; a thread that races another
    stores an equal list.
    """

    def __init__(self, q: int, n: int):
        self.modulus = find_irreducible(q, n)  # validates q and n
        self.q = q
        self.n = n
        self.order = q**n
        self.zero = ()
        self.one = (1,)
        self._elements = tuple(
            polyring.normalize(polyring.monic_by_code(code, n, q)[:-1]) for code in range(self.order)
        )
        self._squares = frozenset(self.mul(a, a) for a in self._elements if a)
        self._powers: dict[tuple, list] = {}

    def _check(self, a: tuple) -> None:
        """ValueError unless a is an element: a canonical polynomial of degree < n."""
        if a:
            what = f"an element of F_{self.q}^{self.n}"
            polyring._check_poly(a, self.q, what)
            if len(a) > self.n:
                raise ValueError(f"{what} has degree below {self.n}, got {a}")

    def elements(self) -> tuple:
        """All q^n elements in code order, constant coordinate fastest."""
        return self._elements

    def mul(self, a: tuple, b: tuple) -> tuple:
        return polyring.mul_mod(a, b, self.modulus, self.q)

    def pow_(self, a: tuple, e: int) -> tuple:
        """a^e for e >= 0; there is no inverse, so e < 0 raises ValueError."""
        return polyring.pow_mod(a, e, self.modulus, self.q)

    def frobenius(self, a: tuple) -> tuple:
        return self.pow_(a, self.q)

    def is_square(self, a: tuple) -> int:
        """Quadratic character of the extension: +1 / -1 / 0 at zero.

        A member of the squares table is an element; anything else is
        checked before it is called a non-square.
        """
        if a in self._squares:
            return 1
        self._check(a)
        return -1 if a else 0

    def eval_poly(self, f: Poly, x: tuple) -> tuple:
        """f(x) for a base-field polynomial f: the sum of c_i x^i over the cached powers of x."""
        powers = self._powers.get(x)
        if powers is None:
            self._check(x)
            powers = [self.one]
        if len(powers) < len(f):
            powers = list(powers)  # a new list: another thread may be reading the cached one
            while len(powers) < len(f):
                powers.append(self.mul(powers[-1], x))
            self._powers[x] = powers
        acc = [0] * self.n
        for c, p in zip(f, powers):
            if c:
                for j, b in enumerate(p):
                    acc[j] += c * b
        return polyring.normalize(a % self.q for a in acc)


@lru_cache(maxsize=None)
def get_field(q: int, n: int) -> ExtField:
    return ExtField(q, n)
