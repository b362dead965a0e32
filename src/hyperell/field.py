"""The prime field F_q, q an odd prime: its boundary checks and its Legendre symbol.

Elements of F_q are plain integers, reduced mod q by the code that uses them
(`polyring` for F_q[x], `extfield` for F_{q^n}).  This module holds the two
facts about q that the rest of the package shares: `check_odd_prime`, the
one primality check at the library boundary, and `legendre_scalar`, the one
quadratic character of F_q.  `check_at_least` is the boundary check on the
other integer arguments: degrees, genera, cutoffs, counts and seeds.
`prime_divisors` is the one factorization of plain integers, shared with
`polyring`'s Rabin test and Moebius function.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral


def prime_divisors(n: int) -> list:
    """The distinct primes dividing n, in increasing order; [] for n < 2.

    Trial division, fine at desk scale.
    """
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return prime_divisors(n) == [n]


@lru_cache(maxsize=64, typed=True)
def check_odd_prime(q: int) -> None:
    """Raise ValueError unless q is an odd prime integer (not a bool or float).

    The one boundary check on field sizes; cached because every exact value
    in Q(sqrt q) runs it.  The cache is typed, so 5.0 or True is never a
    hit for the int 5 or 1.
    """
    if isinstance(q, bool) or not isinstance(q, Integral) or q < 3 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q!r}")


def check_at_least(name: str, value, low: int) -> None:
    """ValueError naming the argument unless value is an integer (not a bool or float) >= low.

    numpy integers pass; numpy registers them as `numbers.Integral`.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def legendre_scalar(a: int, q: int) -> int:
    """Euler's criterion a^((q-1)/2): +1 square unit, -1 non-square, 0 at zero."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1
