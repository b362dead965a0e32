"""Dense polynomial arithmetic over F_q[x] plus the multiplicative toolbox.

Polynomials are tuples of ints in [0, q), constant term first, with no
trailing zeros; the empty tuple is the zero polynomial.  The tuple form is
hashable, so polynomials double as dict keys in factor tables and caches.

Enumeration of monic polynomials of fixed degree is in increasing "code"
order, code(f) = sum(c_i * q**i) over the sub-leading coefficients.  The
constant term is the fastest-varying digit; the order is total and stable,
and every deterministic scan in the package relies on it.

Single division has one kernel, `_reduce`, whose one pass leaves both the
remainder and the quotient: `rem` and `divmod_` read it.  Euclid has one
kernel, `_euclid`, behind `gcd` and `squarefree`: it packs each polynomial
into one int, k bits a digit, so one big-integer add does a whole
elimination step.  Residues of many polynomials at once have one kernel
too, `_residue_codes`, which reads each x^i mod P from `rem` and folds digit
rows held digit-major, one contiguous vector per power of x.  Callers pass
digits as `_digit_matrix` writes them, and the kernel sizes its own sums:
before the reduction mod q a sum over w digit rows mod degree n is at most
B = (q-1) + (w-n)(q-1)^2, which it holds in the narrowest of uint8, int16
and int32 that fits, and its codes, below q^n, in int16 while
q^n <= 32767, else int32.  scan's residues come from it, and so do the
multiples that `mark_multiples` marks for the sieve and the square-free
mask: the low digits of a multiple are the negated residue of its high part.

The irreducible tables are sieved on codes in numpy, and Rabin's
`is_irreducible` is their independent oracle.  Beside the irreducible tuples
of each degree, the sieve leaves a factor table, one prime factor's index
per monic code, from which `factorize` reads every factor of a polynomial
within the built degrees; above them it trial-divides.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import prod

import numpy as np

from .field import check_odd_prime, prime_divisors

Poly = tuple

_TABLE_BUDGET = 10**8  # sieve codes here, int8 prime-table entries in scan, one curve's symbols or points


class ResourceCapError(RuntimeError):
    """A table, a scan, a sample or one curve's sums would exceed the table budget, `_TABLE_BUDGET`."""


def check_budget(entries: int, what: str) -> None:
    """ResourceCapError "{what}, past the cap" when entries pass `_TABLE_BUDGET`; every guard calls this."""
    if entries > _TABLE_BUDGET:
        raise ResourceCapError(f"{what}, past the cap")


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


def _check_poly(f: Poly, q: int, what: str) -> None:
    """ValueError unless the nonzero f is canonical: digits in [0, q), no trailing zero."""
    if not f[-1] or min(f) < 0 or max(f) >= q:
        raise ValueError(f"{what} needs digits in [0, {q}) and no trailing zero, got {f}")


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


def _unit_lead(g, q: int) -> int:
    """The leading coefficient of a divisor g, checked to be a unit mod q."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead = g[-1] % q
    if not lead:
        raise ValueError(f"divisor {tuple(g)} has leading coefficient 0 mod {q}")
    return lead


def _reduce(r: list, g, q: int) -> list:
    """Long division of the digit list r by g in place; returns r mod g, normalised.

    The kernel of single divisions.  The step at i >= deg g adds
    c·g·x^(i - deg g), c = -r[i] / lead(g) mod q, to the digits below i and
    stores c in r[i]: minus the quotient digit.  So r[deg g:] is left
    holding the negated quotient, which `divmod_` reads; the remainder
    r[:deg g] is reduced mod q and stripped once.  lead(g) is checked by
    `_unit_lead`.
    """
    neg_inv = q - pow(_unit_lead(g, q), q - 2, q)
    dg = len(g) - 1
    low = g[:dg]
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] * neg_inv % q
        if c:
            j = i - dg
            for b in low:
                r[j] += c * b
                j += 1
        r[i] = c
    out = [c % q for c in r[:dg]]
    while out and not out[-1]:
        out.pop()
    return out


def rem(f: Poly, g: Poly, q: int) -> Poly:
    return tuple(_reduce(list(f), g, q))


def divmod_(f: Poly, g: Poly, q: int):
    """Quotient and remainder, both from one `_reduce` pass; g needs a unit leading coefficient."""
    r = list(f)
    remainder = _reduce(r, g, q)
    return normalize((-c) % q for c in r[len(g) - 1 :]), tuple(remainder)


def monic(f: Poly, q: int) -> Poly:
    """f divided by its leading coefficient; monic(0) = 0."""
    if not f:
        return ()
    if f[-1] == 1:
        return f
    inv_lead = pow(f[-1], q - 2, q)
    return tuple((c * inv_lead) % q for c in f)


def _euclid(A: int, da: int, B: int, db: int, k: int, q: int):
    """(G, deg G): Euclid on packed polynomials, down to the first remainder of degree <= 0.

    The one Euclid, behind `gcd` and `squarefree`.  A polynomial of degree
    n is one int of n + 1 digits of k bits, leading coefficient first:
    bits [k·j, k·(j+1)) hold the coefficient of x^(n-j) (Kronecker
    substitution), so a lead is read and shifted off at the low end.
    Digits are nonnegative and left unreduced mod q.  A is
    0 with da = -1, or its lead is a unit mod q, as B's is.

    One elimination step adds c·B to A, c = -lead(A)/lead(B) mod q in
    [0, q), lined up at the lead; so digits only grow and no borrow crosses
    a digit.  The lead digit, now 0 mod q, is shifted off, and after the
    last step of a division every leading digit that is 0 mod q goes the
    same way.  The first remainder of degree <= 0 stops it: zero leaves the
    last divisor, and a nonzero constant comes back with degree 0.

    The digit width.  Say the division of r_(i-1) by r_i adds t_i multiples
    of r_i, and M_i bounds the digits of r_i, with M_0, M_1 <= q - 1 for
    operands reduced mod q.  Then M_(i+1) <= M_(i-1) + t_i(q-1)M_i.  So by
    induction, taking the bounds N_0 = N_1 = q - 1, N_(i+1) = N_i q^(t_i),
    which never decrease, M_(i+1) <= N_i (1 + t_i(q-1)) <= N_(i+1), since
    1 + t(q-1) <= q^t.  A division takes t_i <= deg r_(i-1) - deg r_i + 1
    steps (none while deg A < deg B), and the divisors' degrees fall
    strictly from deg B to at least 1, so the t_i sum to at most
    deg A + deg B.  Every digit is then at most (q-1) q^(deg A + deg B) and
    below 2^k for k = bit_length(q^(deg A + deg B + 1)), the width the
    callers pack with: no carry crosses a digit either.
    """
    mask = (1 << k) - 1
    while db > 0:
        neg_inv = q - pow((B & mask) % q, q - 2, q)
        while da >= db:
            A = (A + (A & mask) * neg_inv % q * B) >> k
            da -= 1
        while da >= 0 and not (A & mask) % q:
            A >>= k
            da -= 1
        A, da, B, db = B, db, A, da
    return (B, 0) if db == 0 else (A, da)


def _pack(f, k: int) -> int:
    """f's digits as one int of k-bit digits, leading coefficient in the lowest, as `_euclid` reads them."""
    out = 0
    for c in f:
        out = out << k | c
    return out


def gcd(f: Poly, g: Poly, q: int) -> Poly:
    """Monic gcd; gcd(f, 0) = monic(f mod q).

    Both operands are reduced mod q and packed for the one Euclid,
    `_euclid`, and only the gcd is unpacked.  The caller's g is checked by
    `_unit_lead`; a constant g makes the gcd 1.
    """
    check_odd_prime(q)
    a = normalize(c % q for c in f)
    if not g:
        return monic(a, q)
    _unit_lead(g, q)
    if len(g) == 1:
        return (1,)
    k = (q ** (len(a) + len(g) - 1)).bit_length()  # deg a + deg g + 1
    G, dg = _euclid(_pack(a, k), len(a) - 1, _pack((c % q for c in g), k), len(g) - 1, k, q)
    if dg == 0:
        return (1,)
    mask = (1 << k) - 1
    return monic(tuple((G >> k * (dg - i) & mask) % q for i in range(dg + 1)), q)


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


def _digit_matrix(codes: np.ndarray, q: int, d: int, monic: bool = False) -> np.ndarray:
    """Digits of each code, constant first, digit-major: (d, len), row i for x^i.

    The digits take `_exact_dtype(q - 1)`, uint8 for q < 256: one byte per
    digit, as `_residue_codes` takes them.  Each row is written in place
    from one int64 copy of the codes.
    monic adds the leading 1 as row d.
    """
    out = np.ones((d + monic, len(codes)), dtype=_exact_dtype(q - 1))
    c = codes.astype(np.int64, copy=True)
    for i in range(d):
        np.remainder(c, q, out=out[i], casting="unsafe")  # a digit is below q, so it fits
        c //= q
    return out


def monic_polys(n: int, q: int):
    """All monic polynomials of degree exactly n, constant term fastest."""
    if n < 0:
        return
    for code in range(q**n):
        yield monic_by_code(code, n, q)


# ---------------------------------------------------------------------------
# the residue kernel

_ROW_DTYPES = (np.uint8, np.int16, np.int32)  # digits and the kernel's sums, narrowest first
_CODE_DTYPES = (np.int16, np.int32)  # residue codes, which index tables through take


def _exact_dtype(bound: int, dtypes=_ROW_DTYPES):
    """The first of dtypes that holds every integer in [0, bound]; ValueError past the last."""
    for t in dtypes:
        if bound <= np.iinfo(t).max:
            return t
    raise ValueError(f"values up to {bound} overflow {np.dtype(dtypes[-1])}")


def _residue_bound(q: int, w: int, n: int) -> int:
    """B = (q-1) + (w-n)(q-1)^2, the largest sum `_residue_codes` forms from w digit rows mod degree n."""
    return (q - 1) + max(w - n, 0) * (q - 1) ** 2


def _residue_codes(dig: np.ndarray, f: Poly, q: int) -> np.ndarray:
    """Residue code mod f of each digit column of dig, (w, len) digit-major as `_digit_matrix` lays out.

    The one residue kernel.  With n = deg f, acc starts as the low n digit
    rows; each high digit row i >= n adds c * dig[i] to acc[j] for every
    nonzero c = (x^i mod f)_j, one contiguous integer add per c, with
    x^i = rem(x * x^(i-1), f) one step each.  One reduction mod q then
    leaves the residue's digits, folded to a code by Horner.  dig holds
    integer digits in any dtype; acc, and the scratch row that forms each
    product in acc's dtype, take the wider of dig's dtype and the narrowest
    that holds B = `_residue_bound(q, w, n)`, so no sum wraps.

    Within the table budget the codes fit int32: q^n <= 10^8 < 2^31 for a
    prime table of degree n, the q^2 entries of the q primes of degree 1, and
    the q^d marks of `mark_multiples` (n <= d).  Every caller's rows have
    q^(w-1) < 2^63: rows of width d+1 come from int64 codes of degree d
    (monic curves and the high parts of `mark_multiples`), `moment_scan`'s
    rows of width g from the codes below q^g <= 10^8, and the 2m-1 rows of
    x^2 from q^m <= 10^8 residues.  So w < 1 + 63 / log2 q, and for n >= 1
    B < w q^2 < (1 + 63 / log2 q) q^2 <= (1 + 63 / log2 10^4) 10^8 < 5.8 * 10^8 < 2^31,
    since (1 + 63 / L) 2^(2L) grows with L = log2 q: int32 always suffices.
    Both bounds are checked, so a caller past them gets a ValueError, not a
    wrapped code.
    """
    if dig.dtype.kind not in "iu":
        raise ValueError(f"residue rows must hold integer digits, not {dig.dtype}")
    w = dig.shape[0]
    n = degree(f)
    code_dtype = _exact_dtype(q**n, _CODE_DTYPES)
    acc = dig[:n].astype(np.promote_types(dig.dtype, _exact_dtype(_residue_bound(q, w, n))))
    acc_rows, dig_rows = list(acc), list(dig)  # row views: += adds in place, with no setitem copy
    scratch = np.empty(dig.shape[1], dtype=acc.dtype)
    row = (0,) * (n - 1) + (1,)  # x^(n-1), its own residue
    for i in range(n, w):
        row = rem((0,) + row, f, q)
        for j, c in enumerate(row):
            if c == 1:
                acc_rows[j] += dig_rows[i]
            elif c:
                acc_rows[j] += np.multiply(dig_rows[i], c, out=scratch, dtype=acc.dtype)
    quot = acc // q  # acc - q (acc // q), not acc % q: numpy divides by a scalar on a fast path
    quot *= q
    acc -= quot
    code = acc[-1].astype(code_dtype)  # acc has min(n, w) rows: a row narrower than f is its own residue
    for j in range(len(acc) - 2, -1, -1):
        code *= q
        code += acc[j]
    return code


# ---------------------------------------------------------------------------
# square-free and irreducibility tests


def squarefree(f: Poly, q: int) -> bool:
    """True iff f has no repeated irreducible factor.

    gcd(f, f') constant does it, except f' = 0: then a nonconstant f is a
    p-th power (p = char), hence not square-free.  f and f' are packed in
    one pass over f's digits, f' reduced mod q and stripped of its leading
    zeros, and the one Euclid, `_euclid`, answers by the degree of the gcd
    alone.
    """
    if not f:
        raise ValueError("square-free test undefined for the zero polynomial")
    check_odd_prime(q)
    _check_poly(f, q, "the square-free test")
    n = len(f) - 1
    if not n:
        return True
    k = (q ** (2 * n)).bit_length()  # deg f + deg f' + 1 <= 2n
    F, D = f[0], 0
    for i in range(1, n + 1):
        c = f[i]
        F = F << k | c
        D = D << k | i * c % q
    mask = (1 << k) - 1
    dd = n - 1
    while dd >= 0 and not D & mask:
        D >>= k
        dd -= 1
    return dd >= 0 and _euclid(F, n, D, dd, k, q)[1] == 0


def is_irreducible(f: Poly, q: int) -> bool:
    """Rabin's test: x^(q^n) = x mod f, and x^(q^(n/p)) - x coprime to f.

    The independent oracle for the sieved tables of `IrreducibleTable`, and
    the search of `extfield.find_irreducible`, which needs no table of degree n.
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
    for p in prime_divisors(n):
        g = gcd(sub(frob[n // p], X, q), f, q)
        if degree(g) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# irreducible tables, factorization, multiplicative functions


def mark_multiples(marked: np.ndarray, factors, d: int, q: int, labels=True) -> None:
    """Write labels at marked[code(F·h)] for each F in factors and each monic h of degree d - k.

    marked has one entry per monic code of degree d; the factors are monic
    of one degree 1 <= k <= d, and labels is one value for all (True for a
    mask) or one per factor (the sieve's prime indices).  A monic
    G = x^k·H + L of degree d, H monic and deg L < k, is a multiple of F iff
    L = -(x^k·H) mod F: the low k digits of a multiple are the negated
    residue of its high part.  So F's multiples are the codes
    q^k·j + code(-(x^k·H_j) mod F), H_j = monic_by_code(j, d - k), and F
    costs one `_residue_codes` pass over the digits of -(x^k·H_j), built
    once per block of j for all the factors.  The factors take turns in list
    order: where several divide a code, the last one's label stays.  A block
    holds max(4096, q^d / (8(d+1))) values of j, up to about 12(d+1) bytes
    each with temporaries (1.5 q^d in all), freed before the next block.
    """
    k = len(factors[0]) - 1
    m = d - k
    labels = np.broadcast_to(labels, len(factors))
    per_j = max(4096, q**d // (8 * (d + 1)))
    for j0 in range(0, q**m, per_j):
        j = np.arange(j0, min(j0 + per_j, q**m))
        rows = np.zeros((d + 1, len(j)), dtype=_exact_dtype(q - 1))  # the digits of -(x^k·H_j), x^i in row i
        rows[k:] = _digit_matrix(j, q, m, monic=True)
        rows[k:] = (q - rows[k:]) % q
        high = j * q**k
        for F, label in zip(factors, labels):
            marked[high + _residue_codes(rows, F, q)] = label
        del j, rows, high


class IrreducibleTable:
    """The monic irreducibles of each degree built so far, and a factor table per degree.

    A degree d is built the first time something asks for it, by a sieve on
    codes (`_sieve`).  It yields the irreducible tuples, `by_degree[d]` in
    code order, and the factor table `factor_index[d]`: for each monic code
    of degree d, the index in `primes` of one prime factor, or -1 where the
    code is itself irreducible.  `primes` lists the irreducibles of every
    built degree, degree by degree, so an index means the same prime at
    every degree.

    Any thread may grow the table: `extend` builds under a lock and
    publishes `by_degree[d]`, `factor_index[d]` and the primes of degree d
    before it advances `cutoff`, so a reader that sees `cutoff >= d` finds
    all three.  Before it allocates, `extend` refuses (`check_budget`) a
    degree whose q^d codes pass the budget.  A factor table costs two
    bytes per code, where the tuples beside it cost about (56+8d)/d.
    """

    def __init__(self, q: int):
        check_odd_prime(q)
        self.q = q
        self.cutoff = 0
        self.by_degree: dict[int, tuple] = {}
        self.factor_index: dict[int, np.ndarray] = {}
        self.primes: tuple = ()
        self._lock = threading.Lock()

    def extend(self, cutoff: int) -> None:
        with self._lock:
            q = self.q
            if cutoff > self.cutoff:
                check_budget(q**cutoff, f"irreducibles of degree {cutoff} at q={q} need {q**cutoff} marks")
            for d in range(self.cutoff + 1, cutoff + 1):
                self.by_degree[d], self.factor_index[d] = self._sieve(d)
                self.primes += self.by_degree[d]
                self.cutoff = d

    def _sieve(self, d: int):
        """The monic irreducibles of degree d and the factor table of degree d.

        Every reducible code of degree d has a prime factor of degree <= d/2;
        `mark_multiples` writes each such prime's index in `primes` at its
        multiples, degree by degree, so a code keeps the largest index among
        them and those left at -1 are the irreducibles, whose tuples are the
        columns of one monic `_digit_matrix` of their codes.  The indices
        are int16: while q^d <= `_TABLE_BUDGET` there are fewer than 2^15
        primes of degree <= d/2.
        """
        q = self.q
        count = sum(len(self.by_degree[k]) for k in range(1, d // 2 + 1))
        if count > np.iinfo(np.int16).max:
            raise ResourceCapError(f"{count} primes of degree <= {d // 2} at q={q} overflow int16 indices")
        index = np.full(q**d, -1, dtype=np.int16)
        first = 0
        for k in range(1, d // 2 + 1):
            ps = self.by_degree[k]
            mark_multiples(index, ps, d, q, labels=np.arange(first, first + len(ps)))
            first += len(ps)
        irreducibles = tuple(zip(*_digit_matrix(np.flatnonzero(index < 0), q, d, monic=True).tolist()))
        return irreducibles, index

    def irreducibles(self, d: int) -> tuple:
        if d > self.cutoff:
            self.extend(d)
        return self.by_degree[d]

    def factorize(self, f: Poly):
        """(unit, ((P, e), ...)) with P monic irreducible, sorted by (degree, code).

        One loop takes one prime factor P of the cofactor g at a time.
        While deg g is within the built `cutoff`, P is read from the factor
        table of degree deg g and divided out once.  Above it, P is found by
        trial division by the irreducibles of degree 1, 2, ... as far as
        half of deg g (each extends the table as needed); once every prime
        of degree below half is divided out, g itself is irreducible.  So a
        polynomial above every table still factors, and one within the
        table costs one division per prime factor, with multiplicity.
        """
        if not f:
            raise ValueError("cannot factor the zero polynomial")
        q = self.q
        _check_poly(f, q, "factorize")
        unit = f[-1]
        g = monic(f, q)
        exponents: dict = {}
        d, j = 1, 0  # the next trial divisor: irreducible j of degree d
        while len(g) > 1:
            n = len(g) - 1
            if n <= self.cutoff:
                i = self.factor_index[n][monic_code(g, q)]
                p = g if i < 0 else self.primes[i]
            elif n < 2 * d:
                # every prime of degree below d, and d > n/2, was divided
                # out, so g cannot split into two factors and is irreducible
                p = g
            else:
                trial = self.irreducibles(d)
                p = trial[j]
                if rem(g, p, q):
                    d, j = (d + 1, 0) if j + 1 == len(trial) else (d, j + 1)
                    continue
            exponents[p] = exponents.get(p, 0) + 1
            if p is g:
                break
            g = divmod_(g, p, q)[0]
        # within a degree, code order is the order of the digits read from the top
        factors = sorted(exponents.items(), key=lambda pe: (len(pe[0]), pe[0][::-1]))
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


@lru_cache(maxsize=None)
def _int_mobius(n: int) -> int:
    primes = prime_divisors(n)
    return (-1) ** len(primes) if prod(primes) == n else 0


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n: (1/n) sum over d|n of mu(d) q^(n/d)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = sum(_int_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    count, left = divmod(total, n)
    if left:
        raise ArithmeticError(f"necklace sum for degree {n} at q={q} is not divisible by {n}")
    return count

