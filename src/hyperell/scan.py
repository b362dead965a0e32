"""Vectorized scans over the ensemble: exact aggregates at numpy speed.

The moment over the whole ensemble is assembled from the per-summand
aggregates S(f) = sum over square-free monic D of degree d of chi_D(f), so
the scan inverts the loops: for each monic f up to degree g it computes S(f)
in one short sum, and accumulates plain (thread-count independent) integer
sums.  The naive per-curve loop in `ensemble` stays the reference; equality
of the two routes is tested.

S(f) comes from the square-free sieve of the approximate functional
equation.  Write the indicator of square-free D as sum_{A^2 | D} mu(A), so
D = A^2 B and (D/f) = (B/f) when gcd(A, f) = 1, else 0.  With n = deg f,

    S(f) = sum_{a <= d/2} M(a) T(d - 2a),

  * M(a) = sum of mu(A) over monic A of degree a coprime to f, the
    coefficients of (1 - q u) / prod_{P | f} (1 - u^deg P);
  * T(r) = sum of (B/f) over monic B of degree r, read off the Jacobi
    residue table of f: a contiguous slice when r < n (such a B is its own
    residue), and q^(r-n) times the full table sum when r >= n (B runs over
    every residue q^(r-n) times).  That sum is zero for non-square f, the
    vanishing of complete character sums, and Phi(f) for square f.

Every symbol is one product, chi_D being completely multiplicative:
(x/f) = prod over P^e || f of (x/P)^e, taken by `_symbol_product` over the
values `_prime_symbols` reads off each prime's table.  `moment_scan` builds
(x/P) once, before its worker threads start, for every residue code x < q^g
and every prime P of degree <= g.  The residues mod an f of degree n are the
codes [0, q^n), so f's Jacobi table is the product of the prefix slices of
its primes' vectors.  The scan factors each f once; f is a square iff every
exponent is even.  Everything integral is exact: int8 symbols, int64 table
sums, Python ints and Fractions above.

One guard bounds every scan: `_TABLE_BUDGET`, 10^8 int8 entries over the
prime tables up to the degree the scan needs, checked before anything is
built.  The exhaustive count is the closed form (q - 1) q^(2g), checked
against `squarefree_mask` only while q^(2g+1) <= MASK_CHECK_LIMIT.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ensemble import EnsembleSpec, MomentAccumulator
from .lfunction import center_value, two_block_weights
from .polyring import (
    Poly,
    degree,
    factorize,
    irreducible_count,
    monic_by_code,
    mul,
    shared_table,
    squarefree,
)
from .sqrtq import SqrtQRational

MASK_CHECK_LIMIT = 10**7  # monic D of degree 2g+1 up to which moment_scan enumerates its count
CHECKPOINT_VERSION = 1
CHUNK_SIZE = 64  # summands f per chunk; a checkpoint records it and resume checks it
_TABLE_BUDGET = 10**8  # int8 prime-table entries one call may build and the cache may hold


class ResourceCapError(RuntimeError):
    """A scan's prime tables or symbol vectors would exceed the table budget, `_TABLE_BUDGET`."""


def _code_space(q: int, n: int) -> int:
    """q^n, the number of degree-n codes; ValueError once q^n >= 2^63, where int64 codes wrap."""
    if q**n >= 2**63:
        raise ValueError(f"codes of degree {n} at q={q} do not fit in int64 (q^n >= 2^63)")
    return q**n


def _qpow(q: int, n: int) -> np.ndarray:
    """Place values q^0..q^(n-1) of degree-n codes as int64; ValueError once q^n >= 2^63."""
    _code_space(q, n)
    return q ** np.arange(n, dtype=np.int64)


def _check_table_budget(q: int, n_max: int) -> None:
    """Refuse the prime tables up to degree n_max when their total size is past the budget."""
    entries = sum(irreducible_count(q, m) * q**m for m in range(1, n_max + 1))
    if entries > _TABLE_BUDGET:
        raise ResourceCapError(
            f"prime tables to degree {n_max} at q={q} need {entries} entries, past the cap"
        )


def _digit_matrix(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    out = np.empty((len(codes), d), dtype=np.int64)
    c = codes.astype(np.int64, copy=True)
    for j in range(d):
        out[:, j] = c % q
        c //= q
    return out


def _monic_digit_matrix(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    """Digits of monic degree-d codes with the leading 1 appended: (len, d+1)."""
    out = np.ones((len(codes), d + 1), dtype=np.int64)
    out[:, :d] = _digit_matrix(codes, q, d)
    return out


def _reduction_rows(f: Poly, q: int, upto: int) -> np.ndarray:
    """Row i (0 <= i <= upto): coefficients of x^i mod f, length deg f."""
    n = degree(f)
    rows = np.zeros((upto + 1, n), dtype=np.int64)
    cur = [0] * n
    cur[0] = 1
    for i in range(upto + 1):
        rows[i] = cur
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(n):
                cur[j] = (cur[j] - top * f[j]) % q
    return rows


def _residue_codes(dig: np.ndarray, f: Poly, q: int) -> np.ndarray:
    """Residue code mod f of each digit row (constant first).

    The reduction rows take dig's dtype, so float64 digits go through BLAS.
    That is exact: digits and rows lie in [0, q), so an entry of the product
    is at most (width)(q-1)^2.  For `_square_digits` under the table budget
    q^m <= 10^8 that is (2m-1)(q-1)^2 < 2^53, since m >= 2 forces q <= 10^4
    and m = 1 leaves the residue itself.
    """
    rows = _reduction_rows(f, q, dig.shape[1] - 1).astype(dig.dtype)
    return ((dig @ rows).astype(np.int64, copy=False) % q) @ _qpow(q, degree(f))


def squarefree_mask(q: int, d: int) -> np.ndarray:
    """Boolean mask over monic codes of degree d, True at square-free D.

    Non-square-free codes are marked by enumerating P^2 * M directly; the
    coefficients of the product are linear in M's, so each prime is one
    matrix product.
    """
    mask = np.ones(q**d, dtype=bool)
    qp = _qpow(q, d)
    for dp in range(1, d // 2 + 1):
        k = d - 2 * dp
        mdig = _monic_digit_matrix(np.arange(q**k), q, k)
        for p in shared_table(q).irreducibles(dp):
            psq = mul(p, p, q)
            conv = np.zeros((k + 1, d), dtype=np.int64)
            for i in range(k + 1):
                for j, c in enumerate(psq):
                    if c and i + j < d:
                        conv[i, i + j] = c
            codes = ((mdig @ conv) % q) @ qp
            mask[codes] = False
    return mask


def ensemble_count(q: int, g: int) -> int:
    return int(squarefree_mask(q, 2 * g + 1).sum())


# ---------------------------------------------------------------------------
# character tables

_prime_table_cache: dict = {}  # (q, P) -> table, oldest first
_prime_table_held = 0  # total entries in the cache, kept within _TABLE_BUDGET
_prime_table_lock = threading.Lock()


@lru_cache(maxsize=1)
def _square_digits(q: int, m: int) -> np.ndarray:
    """Digits of x^2 before reduction, mod q, for every residue code x < q^m: (q^m, 2m-1).

    They do not depend on the modulus, so every prime of degree m reads one
    read-only float64 copy.  `_primes_upto` lists primes by degree, so one
    cached (q, m) at a time builds each degree once.
    """
    dig = _digit_matrix(np.arange(q**m), q, m)
    conv = np.zeros((q**m, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        di = dig[:, i]
        for j in range(m):
            conv[:, i + j] += di * dig[:, j]
    out = (conv % q).astype(np.float64)
    out.setflags(write=False)
    return out


def prime_residue_table(P: Poly, q: int) -> np.ndarray:
    """Quadratic character of F_q[x]/(P) on all residue codes (int8).

    Built by reducing the squares of every residue mod P at once and marking
    the image; entry 0 is the zero residue.
    """
    key = (q, P)
    cached = _prime_table_cache.get(key)
    if cached is not None:
        return cached
    m = degree(P)
    M = q**m
    if M > _TABLE_BUDGET:
        raise ResourceCapError(f"character table for degree {m} at q={q} is too large")
    codes = _residue_codes(_square_digits(q, m), P, q)
    out = np.full(M, -1, dtype=np.int8)
    out[codes] = 1
    out[0] = 0
    global _prime_table_held
    with _prime_table_lock:
        if key not in _prime_table_cache:
            _prime_table_cache[key] = out
            _prime_table_held += M
        while _prime_table_held > _TABLE_BUDGET:
            _prime_table_held -= _prime_table_cache.pop(next(iter(_prime_table_cache))).size
    return out


def _primes_upto(q: int, n: int) -> list:
    return [P for m in range(1, n + 1) for P in shared_table(q).irreducibles(m)]


def _prime_symbols(dig: np.ndarray, primes, q: int) -> dict:
    """P -> (x/P) for each digit row x (constant first), as int8."""
    return {P: prime_residue_table(P, q)[_residue_codes(dig, P, q)] for P in primes}


def _symbol_product(symbols: dict, factors, size: int) -> np.ndarray:
    """(x/f) = prod over f's factors (P, e) of (x/P)^e: (x/P) for odd e, |(x/P)| for even e.

    Reads the first `size` entries of each prime's symbol vector.
    """
    out = np.ones(size, dtype=np.int8)
    for P, e in factors:
        s = symbols[P][:size]
        out *= s if e % 2 else np.abs(s)
    return out


def jacobi_residue_table(factors, symbols: dict, q: int) -> np.ndarray:
    """(r/f) for every residue code r mod f, from f's factorization ((P, e), ...).

    symbols maps each prime factor P to (x/P) over the codes x in [0, q^k),
    k >= deg f; the residues mod f are the prefix [0, q^deg f).
    """
    return _symbol_product(symbols, factors, q ** sum(degree(P) * e for P, e in factors))


def char_sum_table_scan(factors, symbols: dict, q: int, d: int) -> int:
    """S(f) = sum over square-free monic D of degree d of (D/f) by the sieve; f as ((P, e), ...).

    symbols is as for `jacobi_residue_table`.
    """
    t = jacobi_residue_table(factors, symbols, q)
    m = [1, -q] + [0] * (d // 2)
    for P, _ in factors:
        k = degree(P)
        for a in range(k, len(m)):
            m[a] += m[a - k]
    total = 0
    for a in range(d // 2 + 1):
        R = q ** (d - 2 * a)  # q^r; r < n iff q^r < len(t) = q^n
        T = int(t[R : 2 * R].sum()) if R < len(t) else R // len(t) * int(t.sum())
        total += m[a] * T
    return total


# ---------------------------------------------------------------------------
# the exhaustive moment scan


@dataclass
class ScanMeta:
    """Integer aggregates behind an exhaustive moment, for reports and audits."""

    q: int
    g: int
    square_sums: tuple  # S-sum over square f per degree 0..g
    nonsquare_sums: tuple
    chunks: int


def _assemble(q: int, g: int, count: int, sq: list, nonsq: list) -> MomentAccumulator:
    weights = two_block_weights(g)
    square = center_value(sq, q, weights)
    nonsquare = center_value(nonsq, q, weights)
    return MomentAccumulator(
        q=q,
        total=square + nonsquare,
        square_part=square,
        nonsquare_part=nonsquare,
        count=count,
    )


def moment_scan(
    q: int,
    g: int,
    *,
    threads: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
):
    """Exhaustive first moment by the S(f) sieve.  Returns (accumulator, meta).

    Work is split into fixed chunks of summands f; chunks are merged in
    index order, so the result is bit-identical for any thread count.  With
    a checkpoint path the partial integer sums are persisted after every
    chunk and a resumed run skips finished chunks.  The table budget for
    degree g, which bounds the symbol vectors, is checked first.
    """
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_table_budget(q, g)
    count = spec.size
    if spec.monic_count <= MASK_CHECK_LIMIT:
        enumerated = ensemble_count(q, g)
        if enumerated != count:
            raise ArithmeticError(f"enumerated count {enumerated} is not the closed form {count}")

    fs = [(n, code) for n in range(1, g + 1) for code in range(q**n)]
    chunks = [fs[i : i + CHUNK_SIZE] for i in range(0, len(fs), CHUNK_SIZE)]

    # (x/P) for every residue code x < q^g and prime P of degree <= g, built
    # once: f of degree n reads the prefix [0, q^n), and the worker threads
    # read only these arrays
    symbols = _prime_symbols(_digit_matrix(np.arange(q**g), q, g), _primes_upto(q, g), q)

    sq = [0] * (g + 1)
    nonsq = [0] * (g + 1)
    sq[0] = count  # f = 1 is the square of 1
    done: set = set()

    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        done, sq, nonsq = _read_checkpoint(checkpoint_path, q, g, len(chunks), count)

    def work(chunk_id: int):
        c_sq = [0] * (g + 1)
        c_ns = [0] * (g + 1)
        for n, code in chunks[chunk_id]:
            factors = factorize(monic_by_code(code, n, q), q)[1]
            s = char_sum_table_scan(factors, symbols, q, d)
            if all(e % 2 == 0 for _, e in factors):  # monic f is a square
                c_sq[n] += s
            else:
                c_ns[n] += s
        return chunk_id, c_sq, c_ns

    todo = [i for i in range(len(chunks)) if i not in done]

    def absorb(result):
        chunk_id, c_sq, c_ns = result
        for n in range(g + 1):
            sq[n] += c_sq[n]
            nonsq[n] += c_ns[n]
        done.add(chunk_id)
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, q, g, done, sq, nonsq)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for result in pool.map(work, todo):
            absorb(result)

    acc = _assemble(q, g, count, sq, nonsq)
    meta = ScanMeta(
        q=q, g=g, square_sums=tuple(sq), nonsquare_sums=tuple(nonsq), chunks=len(chunks)
    )
    return acc, meta


def _read_checkpoint(path, q: int, g: int, n_chunks: int, count: int):
    """(done, square sums, nonsquare sums) from a checkpoint; ValueError if malformed."""
    with open(path) as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError("checkpoint is not a JSON object")
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {state.get('version')!r} is not {CHECKPOINT_VERSION}"
        )
    if (state.get("q"), state.get("g"), state.get("chunk_size")) != (q, g, CHUNK_SIZE):
        raise ValueError("checkpoint does not match this scan configuration")
    for key in ("done", "square_sums", "nonsquare_sums"):
        if key not in state:
            raise ValueError(f"checkpoint has no {key!r}")
        # type(v) is int: JSON floats and booleans are not chunk ids or exact sums
        if not isinstance(state[key], list) or any(type(v) is not int for v in state[key]):
            raise ValueError(f"checkpoint {key!r} is not a list of integers")
    done = set(state["done"])
    if done and (min(done) < 0 or max(done) >= n_chunks):
        raise ValueError("checkpoint chunk ids out of range for this scan")
    sq = state["square_sums"]
    nonsq = state["nonsquare_sums"]
    if len(sq) != g + 1 or len(nonsq) != g + 1:
        raise ValueError("checkpoint sum vectors have the wrong length")
    if any(sq[1::2]):
        raise ValueError("checkpoint has square sums at odd degree, where no square lies")
    if (sq[0], nonsq[0]) != (count, 0):  # f = 1, a square, contributes the count
        raise ValueError(
            f"checkpoint degree-0 sums are {sq[0]} and {nonsq[0]}, not the count {count} and 0"
        )
    return done, sq, nonsq


def _write_checkpoint(path, q, g, done, sq, nonsq):
    state = {
        "version": CHECKPOINT_VERSION,
        "q": q,
        "g": g,
        "chunk_size": CHUNK_SIZE,
        "done": sorted(done),
        "square_sums": list(sq),
        "nonsquare_sums": list(nonsq),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# batch coefficients for explicit curve lists


def _batch_sums(q: int, d: int, codes: np.ndarray, n_max: int, signed: bool) -> np.ndarray:
    """Sums over monic f of degree n = 0..n_max of chi_D(f), or |chi_D(f)| unless signed.

    int64 (len, n_max+1), column n for degree n.  Per-prime character values
    are computed once by residue lookup; each f multiplies them along its factorization.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_table_budget(q, n_max)
    codes = np.asarray(codes, dtype=np.int64)
    k = len(codes)
    symbols = _prime_symbols(_monic_digit_matrix(codes, q, d), _primes_upto(q, n_max), q)

    out = np.zeros((k, n_max + 1), dtype=np.int64)
    out[:, 0] = 1
    for n in range(1, n_max + 1):
        acc = np.zeros(k, dtype=np.int64)
        for code in range(q**n):
            s = _symbol_product(symbols, factorize(monic_by_code(code, n, q), q)[1], k)
            acc += s if signed else np.abs(s)
        out[:, n] = acc
    return out


def batch_coefficients(q: int, d: int, codes: np.ndarray, n_max: int) -> np.ndarray:
    """A_D(n) for n = 0..n_max for each monic degree-d code, as int64 (len, n_max+1)."""
    return _batch_sums(q, d, codes, n_max, signed=True)


def batch_coprime_counts(q: int, d: int, codes: np.ndarray, half_deg: int) -> np.ndarray:
    """#{monic l of degree h coprime to D} for h = 0..half_deg, per code: (len, half_deg+1)."""
    return _batch_sums(q, d, codes, half_deg, signed=False)


# ---------------------------------------------------------------------------
# sampling


def sample_codes(q: int, d: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of `count` square-free monic degree-d codes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    space = _code_space(q, d)
    out: list = []
    while len(out) < count:
        batch = rng.integers(0, space, size=max(64, count), dtype=np.int64)
        for c in batch:
            if squarefree(monic_by_code(int(c), d, q), q):
                out.append(int(c))
                if len(out) == count:
                    break
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class SampleMoment:
    """Seeded-sample estimate of the moment; exact over the sample drawn."""

    q: int
    g: int
    sample_size: int
    seed: int
    mean: SqrtQRational  # exact mean central value over the sample
    square_mean: SqrtQRational
    stderr: float  # standard error of the float mean
    ensemble_size: int

    @property
    def total_estimate(self) -> SqrtQRational:
        return self.mean.scale(self.ensemble_size)


def sampled_moment(q: int, g: int, count: int, seed: int) -> SampleMoment:
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    _check_table_budget(q, g)
    codes = sample_codes(q, d, count, seed)
    a = batch_coefficients(q, d, codes, g)
    weights = two_block_weights(g)
    # exact means of the two-block central value and of its square summands,
    # which sit at even n = 2h and count the l of degree h coprime to D
    mean = center_value(a.sum(axis=0).tolist(), q, weights).scale(Fraction(1, count))
    coprime = [0] * (g + 1)
    coprime[::2] = batch_coprime_counts(q, d, codes, g // 2).sum(axis=0).tolist()
    square_mean = center_value(coprime, q, weights).scale(Fraction(1, count))
    # float spread for the standard error
    float_weights = np.array([w * float(q) ** (-n / 2) for n, w in enumerate(weights)])
    vals = a.astype(np.float64) @ float_weights
    stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    return SampleMoment(
        q=q,
        g=g,
        sample_size=count,
        seed=seed,
        mean=mean,
        square_mean=square_mean,
        stderr=stderr,
        ensemble_size=spec.size,
    )
