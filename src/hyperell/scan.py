"""Vectorized scans over the ensemble: exact aggregates at numpy speed.

The moment over the whole ensemble is assembled from the per-summand
aggregates S(f) = sum over square-free D of chi_D(f), so the scan inverts
the loops: for each monic f up to degree g it evaluates chi_D(f) for every
monic D of degree 2g+1 at once through lookup tables, and accumulates plain
(thread-count independent) integer sums.  The naive per-curve loop in
`ensemble` stays the reference; equality of the two routes is tested.

Table scheme for one f of degree n, scanning all monic D of degree d:

  * D mod f depends on the low n digits of D's code and on (x^n * H mod f)
    where H is the monic high part; the latter is tabulated per high code.
  * residues combine by digitwise addition of codes, also tabulated;
  * the residue-to-symbol table is the Jacobi symbol on F_q[x]/(f), built
    multiplicatively from quadratic-character tables of the prime factors.

Everything integral is exact: int8 symbols, int64 accumulation, Fractions
only at the very end.
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

from . import polyring
from .ensemble import EnsembleSpec, MomentAccumulator
from .lfunction import center_value, two_block_weights
from .polyring import (
    IrreducibleTable,
    Poly,
    degree,
    monic_by_code,
    monic_code,
    monic_polys,
    mul,
    shared_table,
    squarefree,
)
from .sqrtq import SqrtQRational

DEFAULT_SIZE_CAP = 10**7
CHECKPOINT_VERSION = 1
_MAX_TABLE = 2_000_000  # largest q^n residue table we are willing to build


class ResourceCapError(RuntimeError):
    """A scan would exceed the configured size cap; pass force to override."""


def _qpow(q: int, n: int) -> np.ndarray:
    return q ** np.arange(n, dtype=np.int64)


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


def _residue_codes(dig: np.ndarray, f: Poly, q: int, shift: int = 0) -> np.ndarray:
    """Residue code mod f of x^shift * r for each digit row r (constant first)."""
    rows = _reduction_rows(f, q, shift + dig.shape[1] - 1)[shift:]
    return (dig @ rows % q) @ _qpow(q, degree(f))


def squarefree_mask(q: int, d: int, table: IrreducibleTable | None = None) -> np.ndarray:
    """Boolean mask over monic codes of degree d, True at square-free D.

    Non-square-free codes are marked by enumerating P^2 * M directly; the
    coefficients of the product are linear in M's, so each prime is one
    matrix product.
    """
    if table is None:
        table = shared_table(q, max(1, d // 2))
    mask = np.ones(q**d, dtype=bool)
    qp = _qpow(q, d)
    for dp in range(1, d // 2 + 1):
        k = d - 2 * dp
        mdig = _monic_digit_matrix(np.arange(q**k), q, k)
        for p in table.irreducibles(dp):
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

_prime_table_cache: dict = {}
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
    if M > _MAX_TABLE:
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
    with _prime_table_lock:
        _prime_table_cache[key] = out
    return out


def jacobi_residue_table(f: Poly, q: int, table: IrreducibleTable) -> np.ndarray:
    """(r/f) for every residue code r mod f, via the factorization of f."""
    n = degree(f)
    N = q**n
    dig = _digit_matrix(np.arange(N), q, n)
    out = np.ones(N, dtype=np.int8)
    for P, e in table.factorize(f)[1]:
        vals = prime_residue_table(P, q)[_residue_codes(dig, P, q)]
        out *= vals if e % 2 else np.abs(vals)
    return out


@lru_cache(maxsize=32)
def _digitwise_add_flat(q: int, n: int) -> np.ndarray:
    """Flattened table: entry u*q^n + l -> code of digitwise (u + l) mod q."""
    M = q**n
    if M * M > 8 * _MAX_TABLE:
        raise ResourceCapError(f"digit-add table q^{2*n} too large at q={q}")
    dig = _digit_matrix(np.arange(M), q, n)
    sums = (dig[:, None, :] + dig[None, :, :]) % q
    return (sums @ _qpow(q, n)).reshape(-1).astype(np.int32)


def _high_reduction_table(f: Poly, q: int, d: int) -> np.ndarray:
    """Residue code of x^n * H mod f for every monic high part H of degree d-n."""
    n = degree(f)
    k = d - n
    return _residue_codes(_monic_digit_matrix(np.arange(q**k), q, k), f, q, shift=n)


def char_sum_table_scan(f: Poly, q: int, d: int, mask: np.ndarray, table: IrreducibleTable) -> int:
    """S(f) = sum over masked monic D of degree d of (D/f), exactly."""
    n = degree(f)
    qn = q**n
    t = jacobi_residue_table(f, q, table)
    ta = t[_digitwise_add_flat(q, n)]
    u = _high_reduction_table(f, q, d)
    idx = np.add.outer((u * qn).astype(np.int64), np.arange(qn, dtype=np.int64))
    vals = ta[idx]
    return int(vals.sum(where=mask.reshape(len(u), qn), dtype=np.int64))


# ---------------------------------------------------------------------------
# the exhaustive moment scan


def _square_code_set(q: int, n: int) -> set:
    """Codes (sub-leading digits) of perfect squares l^2 among monic f of degree n."""
    if n % 2:
        return set()
    return {monic_code(mul(l, l, q), q) for l in monic_polys(n // 2, q)}


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
    chunk_size: int = 64,
    checkpoint_path: str | None = None,
    resume: bool = False,
    size_cap: int = DEFAULT_SIZE_CAP,
    force: bool = False,
):
    """Exhaustive first moment by table scan.  Returns (accumulator, meta).

    Work is split into fixed chunks of summands f; chunks are merged in
    index order, so the result is bit-identical for any thread count.  With
    a checkpoint path the partial integer sums are persisted after every
    chunk and a resumed run skips finished chunks.
    """
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    if spec.monic_count > size_cap and not force:
        raise ResourceCapError(
            f"scan size {spec.monic_count} exceeds cap {size_cap}; use force to override"
        )
    table = shared_table(q, max(1, d // 2))
    mask = squarefree_mask(q, d, table)
    count = int(mask.sum())
    if count != spec.size:
        raise ArithmeticError(
            f"square-free count {count} disagrees with the closed form {spec.size}"
        )

    fs = [(n, code) for n in range(1, g + 1) for code in range(q**n)]
    chunks = [fs[i : i + chunk_size] for i in range(0, len(fs), chunk_size)]
    square_codes = {n: _square_code_set(q, n) for n in range(1, g + 1)}

    # warm shared caches before any worker threads touch them
    for n in range(1, g + 1):
        _digitwise_add_flat(q, n)
    for dp in range(1, g + 1):
        for P in table.irreducibles(dp):
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
        if (state.get("q"), state.get("g"), state.get("chunk_size")) != (q, g, chunk_size):
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
            f = monic_by_code(code, n, q)
            s = char_sum_table_scan(f, q, d, mask, table)
            if code in square_codes[n]:
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
            _write_checkpoint(checkpoint_path, q, g, chunk_size, done, sq, nonsq)

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


def _write_checkpoint(path, q, g, chunk_size, done, sq, nonsq):
    state = {
        "version": CHECKPOINT_VERSION,
        "q": q,
        "g": g,
        "chunk_size": chunk_size,
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


def batch_coefficients(
    q: int,
    d: int,
    codes: np.ndarray,
    n_max: int,
    table: IrreducibleTable | None = None,
) -> np.ndarray:
    """A_D(n) for n = 0..n_max for each monic degree-d code, as int64 (len, n_max+1).

    Per-prime character values are computed once by residue lookup; each
    composite f multiplies them along its factorization.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if q**n_max > _MAX_TABLE:
        raise ResourceCapError(f"coefficient tables for degree {n_max} at q={q} are too large")
    if table is None:
        table = shared_table(q, max(1, n_max))
    elif table.cutoff < n_max:
        raise polyring.CutoffExceededError(
            f"cutoff exceeded: batch needs irreducibles to degree {n_max}"
        )
    codes = np.asarray(codes, dtype=np.int64)
    k = len(codes)
    dig = _monic_digit_matrix(codes, q, d)

    chi_prime: dict = {}
    for dp in range(1, n_max + 1):
        for P in table.irreducibles(dp):
            chi_prime[P] = prime_residue_table(P, q)[_residue_codes(dig, P, q)]

    out = np.zeros((k, n_max + 1), dtype=np.int64)
    out[:, 0] = 1
    for n in range(1, n_max + 1):
        acc = np.zeros(k, dtype=np.int64)
        for code in range(q**n):
            f = monic_by_code(code, n, q)
            vals: np.ndarray | None = None
            for P, e in table.factorize(f)[1]:
                v = chi_prime[P] if e % 2 else np.abs(chi_prime[P])
                vals = v.copy() if vals is None else vals * v
            acc += vals
        out[:, n] = acc
    return out


def batch_coprime_counts(
    q: int,
    d: int,
    codes: np.ndarray,
    half_deg: int,
    table: IrreducibleTable | None = None,
) -> np.ndarray:
    """#{monic l of degree half_deg : gcd(D, l) = 1} per code, vectorized."""
    if table is None:
        table = shared_table(q, max(1, half_deg))
    codes = np.asarray(codes, dtype=np.int64)
    k = len(codes)
    if half_deg == 0:
        return np.ones(k, dtype=np.int64)
    dig = _monic_digit_matrix(codes, q, d)
    nonzero: dict = {}
    for dp in range(1, half_deg + 1):
        for P in table.irreducibles(dp):
            nonzero[P] = (_residue_codes(dig, P, q) != 0).astype(np.int64)
    out = np.zeros(k, dtype=np.int64)
    for code in range(q**half_deg):
        l = monic_by_code(code, half_deg, q)
        ind = np.ones(k, dtype=np.int64)
        for P, _ in table.factorize(l)[1]:
            ind *= nonzero[P]
        out += ind
    return out


# ---------------------------------------------------------------------------
# sampling


def sample_codes(q: int, d: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of `count` square-free monic degree-d codes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    space = q**d
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
    codes = sample_codes(q, d, count, seed)
    table = shared_table(q, max(1, g))
    a = batch_coefficients(q, d, codes, g, table)
    weights = two_block_weights(g)
    # exact means of the two-block central value and of its square summands,
    # which sit at even n = 2h and count the l of degree h coprime to D
    mean = center_value(a.sum(axis=0).tolist(), q, weights).scale(Fraction(1, count))
    coprime = [0] * (g + 1)
    for h in range(g // 2 + 1):
        coprime[2 * h] = int(batch_coprime_counts(q, d, codes, h, table).sum())
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
