"""Dense polynomial arithmetic over F_q[x] plus the multiplicative toolbox.

Polynomials are tuples of ints in [0, q), constant term first, with no
trailing zeros; the empty tuple is the zero polynomial.  The tuple form is
hashable, so polynomials double as dict keys in factor tables and caches.

Enumeration of monic polynomials of fixed degree is in increasing "code"
order, code(f) = sum(c_i * q**i) over the sub-leading coefficients.  The
constant term is the fastest-varying digit; the order is total and stable,
and every deterministic scan in the package relies on it.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .field import check_odd_prime

Poly = tuple


# ---------------------------------------------------------------------------
# basic ring operations


def normalize(coeffs) -> Poly:
    """Strip trailing zeros; canonical tuple form."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: Poly) -> int:
    """deg(0) = -1 by convention."""
    return len(f) - 1


def norm(f: Poly, q: int) -> int:
    """|f| = q**deg f, with |0| = 0."""
    if not f:
        return 0
    return q ** (len(f) - 1)


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


X: Poly = (0, 1)


def add(f: Poly, g: Poly, q: int) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % q
    return normalize(out)


def neg(f: Poly, q: int) -> Poly:
    return tuple((-c) % q for c in f)


def sub(f: Poly, g: Poly, q: int) -> Poly:
    return add(f, neg(g, q), q)


def mul(f: Poly, g: Poly, q: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    # leading product of two nonzero leads never vanishes over a field
    return tuple(c % q for c in out)


def divmod_(f: Poly, g: Poly, q: int):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) < len(g):
        return (), f
    rem_ = list(f)
    inv_lead = pow(g[-1], q - 2, q)
    quot = [0] * (len(f) - dg)
    for i in range(len(f) - dg - 1, -1, -1):
        c = rem_[i + dg] % q
        if c:
            c = (c * inv_lead) % q
            quot[i] = c
            for j, b in enumerate(g):
                rem_[i + j] -= c * b
    return normalize(quot), normalize(r % q for r in rem_[:dg])


def rem(f: Poly, g: Poly, q: int) -> Poly:
    return divmod_(f, g, q)[1]


def monic(f: Poly, q: int) -> Poly:
    """f divided by its leading coefficient; monic(0) = 0."""
    if not f:
        return ()
    if f[-1] == 1:
        return f
    inv_lead = pow(f[-1], q - 2, q)
    return tuple((c * inv_lead) % q for c in f)


def gcd(f: Poly, g: Poly, q: int) -> Poly:
    """Monic gcd; gcd(f, 0) = monic(f)."""
    while g:
        f, g = g, rem(f, g, q)
    return monic(f, q)


def derivative(f: Poly, q: int) -> Poly:
    return normalize((i * c) % q for i, c in enumerate(f) if i >= 1)


def mul_mod(f: Poly, g: Poly, m: Poly, q: int) -> Poly:
    return rem(mul(f, g, q), m, q)


def pow_mod(f: Poly, e: int, m: Poly, q: int) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    out: Poly = rem((1,), m, q)
    base = rem(f, m, q)
    while e:
        if e & 1:
            out = mul_mod(out, base, m, q)
        base = mul_mod(base, base, m, q)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# enumeration and codes


def monic_by_code(code: int, n: int, q: int) -> Poly:
    """The monic polynomial of degree n whose sub-leading digits encode `code`."""
    if not 0 <= code < q**n:
        raise ValueError("code out of range")
    out = []
    for _ in range(n):
        code, c = divmod(code, q)
        out.append(c)
    out.append(1)
    return tuple(out)


def monic_code(f: Poly, q: int) -> int:
    """Inverse of monic_by_code for a monic f (sub-leading digits only)."""
    if not is_monic(f):
        raise ValueError("monic polynomial required")
    code = 0
    for c in reversed(f[:-1]):
        code = code * q + c
    return code


def monic_polys(n: int, q: int):
    """All monic polynomials of degree exactly n, constant term fastest."""
    if n < 0:
        return
    if n == 0:
        yield (1,)
        return
    for code in range(q**n):
        yield monic_by_code(code, n, q)


# ---------------------------------------------------------------------------
# square-free and irreducibility tests


def squarefree(f: Poly, q: int) -> bool:
    """True iff f has no repeated irreducible factor.

    gcd(f, f') constant does it, except f' = 0: then a nonconstant f is a
    p-th power (p = char), hence not square-free.
    """
    if not f:
        raise ValueError("square-free test undefined for the zero polynomial")
    if len(f) == 1:
        return True
    d = derivative(f, q)
    if not d:
        return False
    return degree(gcd(f, d, q)) == 0


def _distinct_prime_divisors(n: int):
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


def is_irreducible(f: Poly, q: int) -> bool:
    """Rabin's test: x^(q^n) = x mod f, and x^(q^(n/p)) - x coprime to f.

    The oracle for the trial-division tables of `IrreducibleTable`, and the
    search of `extfield.find_irreducible`, which needs no table of degree n.
    """
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    frob = [X]  # frob[k] = x^(q^k) mod f
    h = X
    for _ in range(n):
        h = pow_mod(h, q, f, q)
        frob.append(h)
    if frob[n] != rem(X, f, q):
        return False
    for p in _distinct_prime_divisors(n):
        g = gcd(sub(frob[n // p], X, q), f, q)
        if degree(g) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# irreducible tables, factorization, multiplicative functions


class IrreducibleTable:
    """All monic irreducibles of each degree built so far, in code order per degree.

    A degree is built the first time something asks for it, by trial
    division against smaller table entries, so construction doubles as a
    consistency check on the division routine.  Any thread may grow the
    table: `extend` builds under a lock and publishes `by_degree[d]` before
    it advances `cutoff`, so a reader that sees `cutoff >= d` finds degree d.
    """

    def __init__(self, q: int):
        check_odd_prime(q)
        self.q = q
        self.cutoff = 0
        self.by_degree: dict[int, tuple] = {}
        self._lock = threading.Lock()

    def extend(self, cutoff: int) -> None:
        with self._lock:
            q = self.q
            for d in range(self.cutoff + 1, cutoff + 1):
                found = []
                for f in monic_polys(d, q):
                    if self._has_small_factor(f, d // 2):
                        continue
                    found.append(f)
                self.by_degree[d] = tuple(found)
                self.cutoff = d

    def _has_small_factor(self, f: Poly, max_deg: int) -> bool:
        for d in range(1, max_deg + 1):
            for p in self.by_degree[d]:
                if not rem(f, p, self.q):
                    return True
        return False

    def irreducibles(self, d: int) -> tuple:
        if d > self.cutoff:
            self.extend(d)
        return self.by_degree[d]

    def count(self, d: int) -> int:
        return len(self.irreducibles(d))

    def factorize(self, f: Poly):
        """(unit, ((P, e), ...)) with P monic irreducible, sorted by (degree, code).

        Trial division by irreducibles up to half the degree of what is left;
        beyond that the remaining cofactor is itself irreducible.
        """
        if not f:
            raise ValueError("cannot factor the zero polynomial")
        q = self.q
        unit = f[-1]
        g = monic(f, q)
        factors = []
        d = 1
        while degree(g) >= 2 * d:
            for p in self.irreducibles(d):
                if degree(g) < 2 * d:
                    break
                e = 0
                while True:
                    quot, r = divmod_(g, p, q)
                    if r:
                        break
                    g = quot
                    e += 1
                if e:
                    factors.append((p, e))
            d += 1
        if degree(g) >= 1:
            # every divisor of smaller degree was divided out, so what is left
            # cannot split into two factors and is irreducible
            factors.append((g, 1))
        factors.sort(key=lambda pe: (degree(pe[0]), monic_code(pe[0], q)))
        return unit, tuple(factors)


_TABLE_CACHE: dict[int, IrreducibleTable] = {}


def shared_table(q: int) -> IrreducibleTable:
    """The process-wide table for q; it grows as callers ask for degrees."""
    t = _TABLE_CACHE.get(q)
    if t is None:
        t = _TABLE_CACHE.setdefault(q, IrreducibleTable(q))
    return t


def factorize(f: Poly, q: int):
    return shared_table(q).factorize(f)


def mobius(f: Poly, q: int) -> int:
    """(-1)^(number of distinct primes) on square-free f, else 0; units give +1."""
    if not f:
        raise ValueError("mobius undefined at zero")
    _, factors = factorize(f, q)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(f: Poly, q: int) -> int:
    """Order of the unit group of F_q[x]/(f): |f| * prod over P|f of (1 - 1/|P|)."""
    if not f:
        raise ValueError("euler_phi undefined at zero")
    out = 1
    for p, e in factorize(f, q)[1]:
        np_ = norm(p, q)
        out *= np_ ** (e - 1) * (np_ - 1)
    return out


def radical(f: Poly, q: int) -> Poly:
    """Product of the distinct monic irreducible divisors."""
    out: Poly = (1,)
    for p, _ in factorize(f, q)[1]:
        out = mul(out, p, q)
    return out


def is_perfect_square(f: Poly, q: int) -> bool:
    """Whether f = g^2 for some g in F_q[x]."""
    if not f:
        return True
    if degree(f) % 2:
        return False
    unit, factors = factorize(f, q)
    if pow(unit, (q - 1) // 2, q) != 1:
        return False
    return all(e % 2 == 0 for _, e in factors)


@lru_cache(maxsize=None)
def _int_mobius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n: (1/n) sum over d|n of mu(d) q^(n/d)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = sum(_int_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    count, left = divmod(total, n)
    if left:
        raise ArithmeticError(f"necklace sum for degree {n} at q={q} is not divisible by {n}")
    return count

