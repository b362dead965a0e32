"""The prime field F_q, q an odd prime: its boundary check and its Legendre symbol.

Elements of F_q are plain integers, reduced mod q by the code that uses them
(`polyring` for F_q[x], `extfield` for F_{q^n}).  This module holds the two
facts about q that the rest of the package shares: `check_odd_prime`, the
one primality check at the library boundary, and `legendre_scalar`, the one
quadratic character of F_q.
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


def legendre_scalar(a: int, q: int) -> int:
    """Euler's criterion a^((q-1)/2): +1 square unit, -1 non-square, 0 at zero."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1
