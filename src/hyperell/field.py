"""Prime-field scalar arithmetic for F_q, q an odd prime.

Field elements are plain machine integers in [0, q); all structure lives on
the field object.  Nothing here needs arbitrary precision: products of two
reduced residues stay well inside 64 bits for every q we scan.
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    """Deterministic trial division, fine at desk scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=64)
def check_odd_prime(q: int) -> None:
    """Raise ValueError unless q is an odd prime.

    The one boundary check on field sizes; cached because every exact value
    in Q(sqrt q) runs it.
    """
    if q < 3 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


class PrimeField:
    """The prime field F_q for an odd prime q >= 3.

    Immutable and freely shareable.  Every method is pure and returns
    reduced representatives.
    """

    __slots__ = ("q", "residue_mod_4")

    def __init__(self, q: int):
        check_odd_prime(q)
        self.q = q
        self.residue_mod_4 = q % 4

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def elements(self):
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        # q prime, so Fermat gives the inverse
        return pow(a, self.q - 2, self.q)

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a % self.q, e, self.q)

    def legendre(self, a: int) -> int:
        """Quadratic-residue symbol of a scalar: +1 square unit, -1 non-square, 0 at zero."""
        return legendre_scalar(a, self.q)

    def is_square(self, a: int) -> bool:
        return self.legendre(a) >= 0


def legendre_scalar(a: int, q: int) -> int:
    """Euler's criterion a^((q-1)/2): +1 square unit, -1 non-square, 0 at zero."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1
