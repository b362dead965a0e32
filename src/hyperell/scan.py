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
(x/f) = prod over P^e || f of (x/P)^e, taken by `_symbol_product` over one
signed int8 row (x/P) per prime, read once for odd e and twice for even e,
since (x/P)^2 = |(x/P)|.  `moment_scan` builds (x/P) once, before its
worker threads start, for every residue code x < q^g and every prime P of
degree < g; each x is its own residue mod a prime of degree g, whose row is
its table.  The residues mod an f of degree n are the codes
[0, q^n), so f's Jacobi table is the product of the prefix slices of its
primes' vectors.  The scan factors each f once; f is a square iff every
exponent is even.  The batch sums over explicit curves go up one degree at
a time on A_D(n) = B_D(n) + sum over n_max/2 < m <= n of C_D(m) A_D(n - m),
B_D summing over the f whose prime factors all have degree <= n_max/2 and
C_D(m) over the primes of degree m (`_batch_sums` derives it).  So a batch
of len curves holds (primes of degree <= n_max/2) x len bytes of rows,
beside its (d+1) x len digit bytes and its int64 result.

A pass owns its square digits and prime tables: `_prime_tables` builds a
degree's square digits once, yields its tables and drops the digits after
the degree, so nothing a pass builds outlives it.  Everything integral is
exact: int8 symbols, int32 running sums per degree (|C_D(m)| is at most the
number of primes of degree m, a sum over f of degree n at most
q^n <= 10^8), int64 batch and table sums, Python ints and Fractions above.
Every residue mod a prime, for the prime tables (through the digits of
every residue's square), the (x/P) vectors and the batch sums, comes from
polyring's one residue kernel, `_residue_codes`, and so does every residue
mod (x - a)^2 in the sampler's pre-pass.

`sample_codes` draws seeded batches of codes and keeps the square-free ones
in draw order.  Each batch becomes one digit matrix; while d >= 2 and
q <= STRIKE_LIMIT (measured in `sample_codes`' docstring), a pre-pass
strikes every draw divisible by some (x - a)^2, a in F_q, and the scalar
`squarefree` decides each draw left, its tuple read from the matrix a block
at a time.  The accepted codes fill one preallocated int64 array.

A checkpoint path is its own resume switch: a file there is validated and
resumed, so a rerun continues an interrupted scan; with no file it starts fresh.

One guard bounds every scan: polyring's `_TABLE_BUDGET`, 10^8 int8 entries
over the prime tables up to the degree the scan needs, checked before
anything is built, as is `moment_scan`'s checkpoint path.  The library
makes every refusal, so a front end keeps no copy of one.  The exhaustive
count is the closed form (q - 1) q^(2g), checked against `squarefree_mask`
only while q^(2g+1) <= MASK_CHECK_LIMIT.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import EnsembleSpec, MomentAccumulator
from .field import check_odd_prime
from .lfunction import center_value, two_block_weights
from .polyring import (
    _ROW_DTYPES,
    _TABLE_BUDGET,
    Poly,
    _check_poly,
    _digit_matrix,
    _exact_dtype,
    _residue_codes,
    ResourceCapError,
    degree,
    factorize,
    irreducible_count,
    is_monic,
    mark_multiples,
    monic_by_code,
    monic_code,
    mul,
    shared_table,
    squarefree,
)
from .sqrtq import SqrtQRational

MASK_CHECK_LIMIT = 10**7  # monic D of degree 2g+1 up to which moment_scan enumerates its count
CHECKPOINT_VERSION = 1
CHUNK_SIZE = 64  # summands f per chunk; a checkpoint records it and resume checks it
STRIKE_LIMIT = 31  # largest q at which sample_codes' pre-pass strikes draws divisible by an (x - a)^2
TUPLE_BLOCK = 1024  # draws whose tuples sample_codes reads from the digit matrix at once


def _code_space(q: int, d: int) -> int:
    """q^d, the number of degree-d codes; ValueError if d < 0 or q^d >= 2^63, where int64 codes wrap."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if q**d >= 2**63:
        raise ValueError(f"codes of degree {d} at q={q} do not fit in int64 (q^d >= 2^63)")
    return q**d


def _check_table_budget(q: int, n_max: int) -> None:
    """Refuse the prime tables up to degree n_max when their total size is past the budget."""
    entries = sum(irreducible_count(q, m) * q**m for m in range(1, n_max + 1))
    if entries > _TABLE_BUDGET:
        raise ResourceCapError(
            f"prime tables to degree {n_max} at q={q} need {entries} entries, past the cap"
        )


def squarefree_mask(q: int, d: int) -> np.ndarray:
    """Boolean mask over monic codes of degree d, True at square-free D.

    Non-square-free codes are marked as the multiples P^2 * M of each prime
    square, by polyring's `mark_multiples`, which marks them by residues.
    """
    marked = np.zeros(q**d, dtype=bool)
    for dp in range(1, d // 2 + 1):
        mark_multiples(marked, [mul(p, p, q) for p in shared_table(q).irreducibles(dp)], d, q)
    return ~marked


def ensemble_count(q: int, g: int) -> int:
    return int(squarefree_mask(q, 2 * g + 1).sum())


# ---------------------------------------------------------------------------
# character tables

_prime_table_cache: dict = {}  # never written; benchmarks/spans.py reads it (ROADMAP item 2 re-pin drops it)


def _square_digits(q: int, m: int) -> np.ndarray:
    """Digits of x^2 before reduction, mod q, for half the nonzero residues x < q^m: (2m-1, (q^m-1)/2).

    x and -x have one square, and exactly one of them has its leading
    coefficient in [1, (q-1)/2]: the codes [q^k, (q+1)/2 q^k) of degree k,
    for k < m.  So these codes' squares are every nonzero square.  The
    convolution is formed in the narrowest of uint8/int16/int32/int64 that
    holds its sums of at most m digit products, m (q-1)^2 (int64 only at a
    degree-1 prime with q > 46341), and reduced mod q to digits in
    `_digit_matrix`'s dtype.  The digits do not depend on the modulus, so
    every prime of degree m reads one read-only copy, digit-major, which
    `_prime_tables` builds once per degree of a pass.
    """
    half = np.concatenate([np.arange(q**k, (q + 1) // 2 * q**k) for k in range(m)])
    wide = _exact_dtype(m * (q - 1) ** 2, _ROW_DTYPES + (np.int64,))
    dig = _digit_matrix(half, q, m).astype(wide)
    del half
    conv = np.zeros((2 * m - 1, dig.shape[1]), dtype=dig.dtype)
    for i in range(m):
        for j in range(m):
            conv[i + j] += dig[i] * dig[j]
    del dig
    conv %= q
    out = conv.astype(_exact_dtype(q - 1), copy=False)
    out.setflags(write=False)
    return out


def prime_residue_table(P: Poly, q: int, squares: np.ndarray) -> np.ndarray:
    """Quadratic character of F_q[x]/(P) on all residue codes (int8).

    Built by reducing squares, `_square_digits(q, deg P)`, mod P at once and
    marking the image; entry 0 is the zero residue.  Every call builds a
    new read-only table.  Before it builds, a P that is not canonical, not
    monic or not irreducible (one read of the sieve's factor table) is a
    ValueError: its image would be no character table.  That read refuses a
    degree whose q^m codes pass the budget (ResourceCapError), so no table
    is larger than the budget.
    """
    m = degree(P)
    if m < 1:
        raise ValueError(f"prime_residue_table needs a modulus of degree >= 1, got {P}")
    _check_poly(P, q, "prime_residue_table")
    table = shared_table(q)
    table.irreducibles(m)  # builds the factor table of degree m
    if not is_monic(P) or table.factor_index[m][monic_code(P, q)] >= 0:
        raise ValueError(f"prime_residue_table needs a monic irreducible modulus, got {P}")
    codes = _residue_codes(squares, P, q)
    out = np.full(q**m, -1, dtype=np.int8)
    out[codes] = 1
    out[0] = 0
    out.setflags(write=False)  # read by moment_scan's workers
    return out


def _prime_tables(q: int, m: int):
    """(P, its prime_residue_table) for each prime P of degree m in code order, one digit build for all."""
    squares = _square_digits(q, m)
    for P in shared_table(q).irreducibles(m):
        yield P, prime_residue_table(P, q, squares)


def _symbol_product(symbols: dict, factors, out: np.ndarray) -> np.ndarray:
    """(x/f) = prod over f's factors (P, e) of (x/P)^e, into the int8 out.

    Reads the first len(out) entries of each prime's int8 row (x/P) in
    symbols, keyed by P: once for odd e, twice for even e, where
    (x/P)^e = (x/P)^2 = |(x/P)|.
    """
    size = len(out)
    for i, (P, e) in enumerate(factors):
        row = symbols[P][:size]
        if i:
            out *= row
        else:
            np.copyto(out, row)
        if e % 2 == 0:
            out *= row
    return out


def jacobi_residue_table(factors, symbols: dict, q: int) -> np.ndarray:
    """(r/f) for every residue code r mod f, from f's factorization ((P, e), ...).

    symbols maps each prime P of f to its row (x/P) over the codes x in
    [0, q^k), k >= deg f; the residues mod f are the prefix [0, q^deg f).
    """
    size = q ** sum(degree(P) * e for P, e in factors)
    # from ones, so f = 1 (no factor) gives (r/1) = 1
    return _symbol_product(symbols, factors, np.ones(size, dtype=np.int8))


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


def moment_scan(
    q: int,
    g: int,
    *,
    threads: int = 1,
    checkpoint_path: str | None = None,
):
    """Exhaustive first moment by the S(f) sieve.  Returns (accumulator, meta).

    Work is split into fixed chunks of summands f; chunks are merged in
    index order, so the result is bit-identical for any thread count and the
    finished chunks are the first k.  With a checkpoint path the integer
    sums and k are persisted after every chunk; a file already there is
    validated, left as it is if refused (ValueError), and resumed after its
    k chunks.  Before anything is built it checks the table budget for
    degree g, which bounds the (x/P) rows of the primes of degree < g, then
    that the checkpoint path is a writable file path (OSError).
    """
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_table_budget(q, g)
    if checkpoint_path:  # written after every chunk, so an unwritable path is refused before any work
        folder = os.path.dirname(checkpoint_path) or "."
        if os.path.isdir(checkpoint_path) or not os.access(folder, os.W_OK | os.X_OK):
            raise OSError(f"checkpoint {checkpoint_path} is not a writable file path")
    count = spec.size
    if spec.monic_count <= MASK_CHECK_LIMIT:
        enumerated = ensemble_count(q, g)
        if enumerated != count:
            raise ArithmeticError(f"enumerated count {enumerated} is not the closed form {count}")

    fs = [(n, code) for n in range(1, g + 1) for code in range(q**n)]
    chunks = [fs[i : i + CHUNK_SIZE] for i in range(0, len(fs), CHUNK_SIZE)]

    sq = [0] * (g + 1)
    nonsq = [0] * (g + 1)
    sq[0] = count  # f = 1 is the square of 1
    finished = 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        finished, sq, nonsq = _read_checkpoint(checkpoint_path, q, g, len(chunks), count)

    # (x/P) for every residue code x < q^g and prime P of degree <= g, built
    # once: f of degree n reads the prefix [0, q^n), and the worker threads
    # read only these arrays; each x is its own residue mod a degree-g prime
    dig = _digit_matrix(np.arange(q**g), q, g)
    symbols = {P: t.take(_residue_codes(dig, P, q)) for m in range(1, g) for P, t in _prime_tables(q, m)}
    symbols.update(_prime_tables(q, g))

    def work(chunk):
        c_sq = [0] * (g + 1)
        c_ns = [0] * (g + 1)
        for n, code in chunk:
            factors = factorize(monic_by_code(code, n, q), q)[1]
            s = char_sum_table_scan(factors, symbols, q, d)
            if all(e % 2 == 0 for _, e in factors):  # monic f is a square
                c_sq[n] += s
            else:
                c_ns[n] += s
        return c_sq, c_ns

    # pool.map yields in chunk order, so the finished chunks stay a prefix
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for c_sq, c_ns in pool.map(work, chunks[finished:]):
            for n in range(g + 1):
                sq[n] += c_sq[n]
                nonsq[n] += c_ns[n]
            finished += 1
            if checkpoint_path:
                _write_checkpoint(checkpoint_path, q, g, finished, sq, nonsq)

    weights = two_block_weights(g)
    square = center_value(sq, q, weights)
    nonsquare = center_value(nonsq, q, weights)
    acc = MomentAccumulator(
        q=q, total=square + nonsquare, square_part=square, nonsquare_part=nonsquare, count=count
    )
    meta = ScanMeta(q=q, g=g, square_sums=tuple(sq), nonsquare_sums=tuple(nonsq), chunks=len(chunks))
    return acc, meta


def _read_checkpoint(path, q: int, g: int, n_chunks: int, count: int):
    """(k, square sums, nonsquare sums), "done" being chunks 0..k-1; ValueError if malformed."""
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
    finished = len(state["done"])
    if state["done"] != list(range(finished)) or finished > n_chunks:
        raise ValueError(f"checkpoint 'done' is not the chunks 0..k-1 of {n_chunks}")
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
    return finished, sq, nonsq


def _write_checkpoint(path, q, g, finished, sq, nonsq):
    state = {
        "version": CHECKPOINT_VERSION,
        "q": q,
        "g": g,
        "chunk_size": CHUNK_SIZE,
        "done": list(range(finished)),
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

    int64 (len, n_max+1), column n for degree n, one degree at a time.  With
    s = n_max // 2, a monic f of degree <= n_max has at most one prime
    factor of degree > s, to the first power, and chi_D (like |chi_D|) is
    completely multiplicative, so

        A_D(n) = B_D(n) + sum over s < m <= n of C_D(m) A_D(n - m),

    B_D(n) summing over the f of degree n whose prime factors all have
    degree <= s and C_D(m) over the primes of degree m; n - m <= n_max - s - 1
    <= s, so A_D(n - m) is final when it is read.  Each prime's row (D/P)
    is taken from its table, as `_prime_tables` yields them at its degree.
    A prime of degree <= s has its row in one held int8 block, summed at
    its degree.  Each larger prime's row goes into the one reused int8
    vector and is summed to C_D(m), which adds C_D(m) A_D(j - m) to each
    column j >= m, in int64.  The reducible f of
    degree n (the sieve's factor table) less the multiples of the primes of
    degree s+1..n-1 (`mark_multiples`), counted with those primes, are the f
    that B_D sums: each is factored and multiplies the held rows of its
    primes into the reused vector.  So a batch of len curves holds (primes
    of degree <= s) x len bytes of rows, beside the (d+1) x len monic digit
    bytes, the 8 (n_max+1) x len bytes of its result and the one table it
    builds at a time.  The running sum of a degree is int32: it holds
    C_D(m), |C_D(m)| <= the number of primes of degree m, or a sum over f of
    degree n, at most q^n, and the budget check gives q^n <= 10^8 < 2^31; a
    partial sum of column j counts f of degree j, so it is at most q^j.
    codes must be integers in [0, q^d); anything else is a ValueError, since
    a code past q^d or below 0 would alias another curve's digits.
    """
    _check_table_budget(q, n_max)
    sum_dtype = _exact_dtype(q**n_max, (np.int32,))
    codes = np.asarray(codes)
    if codes.ndim != 1 or (codes.size and codes.dtype.kind not in "iu"):
        raise ValueError(f"codes must be 1-d integers, not {codes.dtype} of shape {codes.shape}")
    codes = codes.astype(np.int64, copy=False)
    space = _code_space(q, d)
    if codes.size and (codes.min() < 0 or codes.max() >= space):
        raise ValueError(f"codes must lie in [0, q^d) = [0, {space}) for q={q}, d={d}")
    k = len(codes)
    table = shared_table(q)
    dig = _digit_matrix(codes, q, d, monic=True)
    s = n_max // 2
    held = iter(np.empty((sum(irreducible_count(q, m) for m in range(1, s + 1)), k), dtype=np.int8))
    rows = {}  # P -> (D/P) for each prime of degree <= s, a row of held

    out = np.zeros((k, n_max + 1), dtype=np.int64)
    out[:, 0] = 1
    chi = np.empty(k, dtype=np.int8)
    acc = np.empty(k, dtype=sum_dtype)
    for n in range(1, n_max + 1):
        acc[:] = 0
        for P, residues in _prime_tables(q, n):
            row = residues.take(_residue_codes(dig, P, q), out=next(held) if n <= s else chi)
            if n <= s:
                rows[P] = row
            acc += row if signed else np.abs(row, out=chi)
        if n > s:  # acc is C_D(n)
            for j in range(n, n_max + 1):
                out[:, j] += acc * out[:, j - n]
            acc[:] = 0
        smooth = table.factor_index[n] >= 0  # the reducible f of degree n
        for m in range(s + 1, n):  # less the multiples of a prime of degree m > s
            mark_multiples(smooth, table.irreducibles(m), n, q, labels=False)
        for code in np.flatnonzero(smooth).tolist():
            factors = factorize(monic_by_code(code, n, q), q)[1]
            _symbol_product(rows, factors, chi)
            acc += chi if signed else np.abs(chi, out=chi)
        out[:, n] += acc
    return out


def batch_coefficients(q: int, d: int, codes: np.ndarray, n_max: int) -> np.ndarray:
    """A_D(n) for n = 0..n_max for each monic degree-d code, as int64 (len, n_max+1)."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return _batch_sums(q, d, codes, n_max, signed=True)


def batch_coprime_counts(q: int, d: int, codes: np.ndarray, half_deg: int) -> np.ndarray:
    """#{monic l of degree h coprime to D} for h = 0..half_deg, per code: (len, half_deg+1)."""
    if half_deg < 0:
        raise ValueError(f"half_deg must be >= 0, got {half_deg}")
    return _batch_sums(q, d, codes, half_deg, signed=False)


# ---------------------------------------------------------------------------
# sampling


def _check_at_least(name: str, value, low: int) -> None:
    """ValueError naming the argument unless value is an integer (not a bool or float) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _survivors(batch: np.ndarray, q: int, d: int):
    """(index, D) for each draw of batch the pre-pass leaves, in draw order; D is its monic tuple.

    While d >= 2 and q <= STRIKE_LIMIT the pre-pass strikes each draw
    whose residue mod (x - a)^2 is 0 for some a in F_q.  The tuples are read
    from the batch's digit matrix TUPLE_BLOCK columns at a time, so no list
    of d + 1 digits is held for every draw of the batch at once.
    """
    dig = _digit_matrix(batch, q, d, monic=True)
    keep = np.ones(len(batch), dtype=bool)
    if d >= 2 and q <= STRIKE_LIMIT:
        for a in range(q):
            keep &= _residue_codes(dig, mul((q - a, 1), (q - a, 1), q), q) != 0
    idx = np.flatnonzero(keep)
    for lo in range(0, len(idx), TUPLE_BLOCK):
        block = idx[lo : lo + TUPLE_BLOCK]
        yield from zip(block.tolist(), map(tuple, dig[:, block].T.tolist()))


def sample_codes(q: int, d: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of `count` square-free monic degree-d codes; seed >= 0.

    Each batch is `rng.integers(0, q^d, size=max(64, count))`, and its
    draws are taken in order: the scalar `squarefree` decides each one that
    `_survivors`' pre-pass leaves, up to the count-th accepted draw, which
    goes into a preallocated int64 array.  A struck draw has a square
    factor (x - a)^2, so the scalar test would refuse it: the codes are the
    ones every draw tested by `squarefree` alone would give.

    The pre-pass bound.  The pass makes q kernel calls per batch and spares
    the scalar test on the about 1/q of the draws with a repeated root in
    F_q, so it pays only at small q.  STRIKE_LIMIT was measured with
    alternating in-process pairs of sample_codes, the pass forced on and
    off, at d = 9 (verify's shape) and d = 11 (sampled's), 5-11 pairs a
    cell, on a 2-core Xeon host.  Median CPU ratios on/off:

                   3000 codes   10,000 codes   50,000 codes
        q = 3-7    0.70-0.88
        q = 11-17  0.86-0.99    0.89-0.96
        q = 19-23  0.90-1.03    0.96-0.99
        q = 29-37  1.02-1.15    0.98-1.01      0.93-0.98
        q = 53     1.12                        0.93
        q = 67     1.16                        1.05
        q = 101    1.23                        1.39
        q = 127    1.33

    (q >= 53 at d = 9 only: d = 11 codes pass int64 beyond q = 47.)  The
    crossover moves up with the count, from near q = 20 at 3000 codes to
    30 at 10,000 and 60 at 50,000; STRIKE_LIMIT = 31 is the 10,000-code
    one, and `sampled` (q = 5) and `verify` (q = 3) sit far inside it.  The
    pass strikes about 92% of the refused draws at q = 5 (62,455 scalar
    calls down to 50,984 for 50,000 codes at d = 11, seed 1); the squares
    of the degree-2 primes struck 835 more there and moved no wall time,
    so the pass stops at degree 1.
    """
    check_odd_prime(q)
    _check_at_least("count", count, 1)
    _check_at_least("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    space = _code_space(q, d)
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        batch = rng.integers(0, space, size=max(64, count), dtype=np.int64)
        for i, D in _survivors(batch, q, d):
            if squarefree(D, q):
                out[filled] = batch[i]
                filled += 1
                if filled == count:
                    break
    return out


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


def sampled_moment(q: int, g: int, sample_size: int, seed: int) -> SampleMoment:
    """The moment estimated over `sample_size` curves drawn by `sample_codes` from seed."""
    _check_at_least("sample_size", sample_size, 1)
    spec = EnsembleSpec(q, g)
    d = spec.poly_degree
    _check_table_budget(q, g)
    codes = sample_codes(q, d, sample_size, seed)
    a = batch_coefficients(q, d, codes, g)
    weights = two_block_weights(g)
    # exact means of the two-block central value and of its square summands,
    # which sit at even n = 2h and count the l of degree h coprime to D
    mean = center_value(a.sum(axis=0).tolist(), q, weights).scale(Fraction(1, sample_size))
    coprime = [0] * (g + 1)
    coprime[::2] = batch_coprime_counts(q, d, codes, g // 2).sum(axis=0).tolist()
    square_mean = center_value(coprime, q, weights).scale(Fraction(1, sample_size))
    # float spread for the standard error
    float_weights = np.array([w * float(q) ** (-n / 2) for n, w in enumerate(weights)])
    vals = a.astype(np.float64) @ float_weights
    stderr = float(vals.std(ddof=1) / np.sqrt(sample_size)) if sample_size > 1 else 0.0
    return SampleMoment(
        q=q,
        g=g,
        sample_size=sample_size,
        seed=seed,
        mean=mean,
        square_mean=square_mean,
        stderr=stderr,
        ensemble_size=spec.size,
    )
