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
values `_prime_symbols` reads off each prime's table.  The scan factors each
f once; f is a square iff every exponent is even.  Everything integral is
exact: int8 symbols, int64 table sums, Python ints and Fractions above.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

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

DEFAULT_SIZE_CAP = 10**7  # monic D of degree 2g+1 an exhaustive scan runs without force
CHECKPOINT_VERSION = 1
CHUNK_SIZE = 64  # summands f per chunk; a checkpoint records it and resume checks it
_TABLE_BUDGET = 10**8  # int8 prime-table entries one call may build and the cache may hold


class ResourceCapError(RuntimeError):
    """A scan would exceed the exhaustive size cap (force overrides it) or the table budget."""


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
    """Residue code mod f of each digit row (constant first)."""
    rows = _reduction_rows(f, q, dig.shape[1] - 1)
    return (dig @ rows % q) @ _qpow(q, degree(f))


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


def prime_residue_table(P: Poly, q: int) -> np.ndarray:
    """Quadratic character of F_q[x]/(P) on all residue codes (int8).

    Built by squaring every residue at once and marking the image; entry 0
    is the zero residue.
    """
    key = (q, P)
    cached = _prime_table_cache.get(key)
    if cached is not None:
        return cached
    m = degree(P)
    M = q**m
    if M > _TABLE_BUDGET:
        raise ResourceCapError(f"character table for degree {m} at q={q} is too large")
    dig = _digit_matrix(np.arange(M), q, m)
    conv = np.zeros((M, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        di = dig[:, i]
        for j in range(m):
            conv[:, i + j] += di * dig[:, j]
    codes = _residue_codes(conv % q, P, q)
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
    """(x/f) = prod over f's factors (P, e) of (x/P)^e: (x/P) for odd e, |(x/P)| for even e."""
    out = np.ones(size, dtype=np.int8)
    for P, e in factors:
        out *= symbols[P] if e % 2 else np.abs(symbols[P])
    return out


def jacobi_residue_table(factors, q: int) -> np.ndarray:
    """(r/f) for every residue code r mod f, from f's factorization ((P, e), ...)."""
    n = sum(degree(P) * e for P, e in factors)
    dig = _digit_matrix(np.arange(q**n), q, n)
    return _symbol_product(_prime_symbols(dig, (P for P, _ in factors), q), factors, q**n)


def char_sum_table_scan(factors, q: int, d: int) -> int:
    """S(f) = sum over square-free monic D of degree d of (D/f) by the sieve; f as ((P, e), ...)."""
    t = jacobi_residue_table(factors, q)
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
    force: bool = False,
):
    """Exhaustive first moment by the S(f) sieve.  Returns (accumulator, meta).

    Work is split into fixed chunks of summands f; chunks are merged in
    index order, so the result is bit-identical for any thread count.  With
    a checkpoint path the partial integer sums are persisted after every
    chunk and a resumed run skips finished chunks.
    """
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if spec.monic_count > DEFAULT_SIZE_CAP and not force:
        raise ResourceCapError(
            f"scan size {spec.monic_count} exceeds cap {DEFAULT_SIZE_CAP}; use force to override"
        )
    count = ensemble_count(q, g)
    if count != spec.size:
        raise ArithmeticError(
            f"square-free count {count} disagrees with the closed form {spec.size}"
        )

    fs = [(n, code) for n in range(1, g + 1) for code in range(q**n)]
    chunks = [fs[i : i + CHUNK_SIZE] for i in range(0, len(fs), CHUNK_SIZE)]

    # warm the shared prime tables before any worker threads touch them
    for P in _primes_upto(q, g):
        prime_residue_table(P, q)

    sq = [0] * (g + 1)
    nonsq = [0] * (g + 1)
    sq[0] = count  # f = 1 is the square of 1
    done: set = set()

    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            state = json.load(fh)
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {state.get('version')!r} is not {CHECKPOINT_VERSION}"
            )
        if (state.get("q"), state.get("g"), state.get("chunk_size")) != (q, g, CHUNK_SIZE):
            raise ValueError("checkpoint does not match this scan configuration")
        done = {int(c) for c in state["done"]}
        if done and (min(done) < 0 or max(done) >= len(chunks)):
            raise ValueError("checkpoint chunk ids out of range for this scan")
        sq = [int(v) for v in state["square_sums"]]
        nonsq = [int(v) for v in state["nonsquare_sums"]]
        if len(sq) != g + 1 or len(nonsq) != g + 1:
            raise ValueError("checkpoint sum vectors have the wrong length")
        if any(sq[1::2]):
            raise ValueError("checkpoint has square sums at odd degree, where no square lies")

    def work(chunk_id: int):
        c_sq = [0] * (g + 1)
        c_ns = [0] * (g + 1)
        for n, code in chunks[chunk_id]:
            factors = factorize(monic_by_code(code, n, q), q)[1]
            s = char_sum_table_scan(factors, q, d)
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

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for result in pool.map(work, todo):
                absorb(result)
    else:
        for chunk_id in todo:
            absorb(work(chunk_id))

    acc = _assemble(q, g, count, sq, nonsq)
    meta = ScanMeta(
        q=q, g=g, square_sums=tuple(sq), nonsquare_sums=tuple(nonsq), chunks=len(chunks)
    )
    return acc, meta


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


def batch_coefficients(q: int, d: int, codes: np.ndarray, n_max: int) -> np.ndarray:
    """A_D(n) for n = 0..n_max for each monic degree-d code, as int64 (len, n_max+1).

    Per-prime character values are computed once by residue lookup; each
    composite f multiplies them along its factorization.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_table_budget(q, n_max)
    codes = np.asarray(codes, dtype=np.int64)
    k = len(codes)
    dig = _monic_digit_matrix(codes, q, d)
    symbols = _prime_symbols(dig, _primes_upto(q, n_max), q)

    out = np.zeros((k, n_max + 1), dtype=np.int64)
    out[:, 0] = 1
    for n in range(1, n_max + 1):
        acc = np.zeros(k, dtype=np.int64)
        for code in range(q**n):
            acc += _symbol_product(symbols, factorize(monic_by_code(code, n, q), q)[1], k)
        out[:, n] = acc
    return out


def batch_coprime_counts(q: int, d: int, codes: np.ndarray, half_deg: int) -> np.ndarray:
    """#{monic l of degree half_deg : gcd(D, l) = 1} per code: the sum of |chi_D(l)|."""
    codes = np.asarray(codes, dtype=np.int64)
    k = len(codes)
    dig = _monic_digit_matrix(codes, q, d)
    symbols = _prime_symbols(dig, _primes_upto(q, half_deg), q)
    out = np.zeros(k, dtype=np.int64)
    for code in range(q**half_deg):
        l = monic_by_code(code, half_deg, q)
        out += np.abs(_symbol_product(symbols, factorize(l, q)[1], k))
    return out


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
    for h in range(g // 2 + 1):
        coprime[2 * h] = int(batch_coprime_counts(q, d, codes, h).sum())
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
