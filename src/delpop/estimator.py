"""Unbiased moment estimators for deletion-channel traces.

For a trace x~ (zero-padded) and complex z, g_m(x~, z) averages to
P(z; x)^m over the channel.  It is a sum over ordered compositions
B = (b_1..b_k) of m:

    g_m = sum_B multinom(m; B) * p^(-k) * z^(b_1 + 2 b_2 + ... + k b_k)
              / (w_{B,1} ... w_{B,k}) * f(x~, w_B),

with w_{B,r} = (z^(b_r + ... + b_k) - q) / p and f the gap-weighted chain
sum over increasing index tuples 1 <= i_1 < ... < i_k <= n,

    f(x~, w) = sum x~_{i_1} ... x~_{i_k} w_1^(i_1) w_2^(i_2 - i_1) ... w_k^(i_k - i_(k-1)).

The suffix sums m = s_1 > s_2 > ... > s_k >= 1 (s_{k+1} = 0) determine a
composition, fix its weights w_{B,r} = W(s_r) = (z^(s_r) - q) / p, and,
since sum_r r b_r = sum_r s_r, factor its coefficient as
m! * prod_r phi(s_r, s_(r+1)) with phi(s, t) = z^s / (p W(s) (s - t)!).
So the whole composition sum is one backward sweep over trace positions
with one running state A_t per suffix value t = 1..k_max, scaled by t!
so that the factorials meet as binomials C(s, t) (and A_0 := 1):

    A_t[n]   = 0
    B_s[j]   = x~_j z^s / (p W(s)) sum_{0<=t<s} C(s, t) A_t[j]    for j = n..1
    A_t[j-1] = W(t) (A_t[j] + B_t[j])
    g_m      = A_m[0]                                              for m <= k_max

B_s[j] sums the chains whose first index is j with suffix value s there,
and A_t[j] those starting after j, each weighted by W(t)^(distance from
j).  A 0-bit only multiplies the state by W, so the sweep jumps from one
1-bit to the next, last first.  With M = I + chain, where chain[s, t] =
C(s, t) z^s / (p W(s)) for 1 <= t < s, and start[s] = z^s / (p W(s)),
the state after the 1-bit at i, S = M A[i] + start, gives

    S <- M (W^(i - i') S) + start    from the 1-bit at i to the next one down, at i'
    g  = W^(i_1) S                   at the first 1-bit i_1

and an all-zero row has g = 0.  The work is one (k_max, k_max) matmul
per 1-bit, not per position.  The rows are sorted by 1-count, most
first, so the rows that still hold a 1-bit at each step are a prefix,
and each step is one gather from a table of the powers W^d, one
multiply, one matmul and one add on that prefix.

A point where some |W(s)| < 1e-12, s <= k_max, is singular for the
estimator (the coefficients divide by it) and raises
SingularGridPointError; on the unit circle |W(s)| >= 1, so no arc point is
singular.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import ParameterError, ProblemParams

SINGULAR_TOL = 1e-12


class SingularGridPointError(ParameterError):
    """The weight W(s) = (z^s - q) / p vanishes at this z."""

    def __init__(self, z, s):
        super().__init__(f"W(s) = (z^s - q)/p vanishes at z={z} for s={s}")
        self.z = z
        self.s = s


def compositions(m: int):
    """All 2^(m-1) ordered compositions of m, lexicographic by parts."""
    if m < 1:
        raise ParameterError("m must be >= 1")

    def gen(rem):
        if rem == 0:
            yield ()
            return
        for first in range(1, rem + 1):
            for rest in gen(rem - first):
                yield (first,) + rest

    return list(gen(m))


def multinomial(m: int, parts) -> int:
    """Exact multinomial coefficient m! / (b_1! ... b_k!)."""
    if sum(parts) != m:
        raise ParameterError("parts must sum to m")
    out = math.factorial(m)
    for b in parts:
        out //= math.factorial(b)
    return out


def composition_weights(z: complex, parts, p: float):
    """w_{B,r} = (z^(b_r + ... + b_k) - q) / p for r = 1..k.

    Raises SingularGridPointError when any weight is (near) zero."""
    q = 1.0 - p
    suffix = 0
    w = [0j] * len(parts)
    for r in range(len(parts) - 1, -1, -1):
        suffix += parts[r]
        w[r] = (z ** suffix - q) / p
        if abs(w[r]) < SINGULAR_TOL:
            raise SingularGridPointError(z, suffix)
    return w


class _JumpPlan(NamedTuple):
    """The 1-bits of a set of rows, laid out for `_g_sweep`.

    `order` sorts the rows by their number of 1-bits, most first, so the
    rows that still hold a 1-bit at step r are a prefix of that order.
    `gaps[r - 1]` holds, for each such row, the distance from the 1-bit of
    step r - 1 down to that of step r (step 0 is each row's last 1-bit);
    `first` is each sorted row's first 1-bit position, 1-based, and 0 for
    an all-zero row."""

    n: int
    order: np.ndarray
    gaps: list
    first: np.ndarray
    active: int  # rows with at least one 1-bit


def _jump_plan(rows: np.ndarray) -> _JumpPlan:
    """The `_JumpPlan` of a (U, n) 0/1 array."""
    U, n = rows.shape
    ones = np.count_nonzero(rows, axis=1)
    order = np.argsort(-ones, kind="stable")
    rows = rows[order]
    # step r >= 1 takes the rows with more than r 1-bits, stored from offsets[r - 1]
    widths = U - np.cumsum(np.bincount(ones))[1:-1]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    flat = np.empty(offsets[-1], dtype=np.min_scalar_type(n))
    seen = np.zeros(U, dtype=np.intp)  # 1-bits met so far, last first
    last = np.zeros(U, dtype=np.intp)  # 1-based position of the latest of them
    for pos in range(n, 0, -1):
        hit = np.flatnonzero(rows[:, pos - 1])
        later = hit[seen[hit] > 0]
        flat[offsets[seen[later] - 1] + later] = last[later] - pos
        last[hit] = pos
        seen[hit] += 1
    gaps = [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    return _JumpPlan(n, order, gaps, last, int(np.count_nonzero(seen)))


def _g_sweep(plan: _JumpPlan, z: complex, k_max: int, p: float) -> np.ndarray:
    """g_1..g_{k_max} as the rows of a (k_max, U) array, one column per row
    of the plan's input, by the jump form of the backward sweep in the
    module docstring."""
    if k_max < 1:
        raise ParameterError("m must be >= 1")
    q = 1.0 - p
    W = np.array([(z ** s - q) / p for s in range(1, k_max + 1)], dtype=complex)
    for s, w in enumerate(W.tolist(), 1):
        if abs(w) < SINGULAR_TOL:
            raise SingularGridPointError(z, s)
    # phi[s - 1, t] = C(s, t) z^s / (p W(s)) for 0 <= t < s, and 0 for t >= s
    phi = np.array(
        [[math.comb(s, t) * z ** s / (p * w) if t < s else 0 for t in range(k_max + 1)]
         for s, w in enumerate(W.tolist(), 1)],
        dtype=complex,
    )
    start, M = phi[:, :1], np.eye(k_max) + phi[:, 1:]
    # powers[:, d] = W^d for 0 <= d <= n, by repeated multiplication
    powers = np.ones((k_max, plan.n + 1), dtype=complex)
    powers[:, 1:] = W[:, None]
    np.cumprod(powers, axis=1, out=powers)
    U = len(plan.order)
    A = np.zeros((k_max, U), dtype=complex)
    A[:, : plan.active] = start
    buf = np.empty(k_max * U, dtype=complex)  # C-contiguous (k_max, u) prefixes
    # every index is in range; mode="clip" lets take write into `out` unbuffered
    for gap in plan.gaps:
        u = len(gap)
        Wd = np.take(powers, gap, axis=1, out=buf[: k_max * u].reshape(k_max, u), mode="clip")
        Wd *= A[:, :u]
        np.matmul(M, Wd, out=A[:, :u])
        A[:, :u] += start
    G = np.take(powers, plan.first, axis=1, out=buf.reshape(k_max, U), mode="clip")
    G *= A
    A[:, plan.order] = G
    return A


def g_batch(X: np.ndarray, z: complex, m: int, params: ProblemParams) -> np.ndarray:
    """g_m(x~, z) for each trace row of X."""
    return _g_sweep(_jump_plan(np.asarray(X)), z, m, params.p)[m - 1]


def _bit_batches(batches, n: int, limit: int):
    """The first `limit` rows of an iterable of (batch, n) arrays, one int8
    batch at a time, each checked to hold only 0 and 1.  The source is not
    pulled past the batch that reaches `limit`; running out first raises."""
    total = 0
    for batch in batches:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != n:
            raise ParameterError("trace batch must have shape (count, n)")
        batch = batch[: limit - total]
        if batch.dtype != np.int8:
            bits = batch.astype(np.int8)
            if not np.array_equal(bits, batch):  # a value the cast wraps or truncates
                raise ParameterError("trace bits must be 0 or 1")
            batch = bits
        # one pass: read as uint8, every int8 other than 0 and 1 exceeds 1
        if len(batch) and batch.view(np.uint8).max() > 1:
            raise ParameterError("trace bits must be 0 or 1")
        yield batch
        total += len(batch)
        if total >= limit:
            return
    raise ParameterError(f"trace source exhausted after {total} of {limit} traces")


_GATHER = np.uint64(0x8040201008040201)


def _word_keys(rows: np.ndarray) -> np.ndarray:
    """Integer keys of (U, 8) or (U, 16) 0/1 rows, their bits read most
    significant first: one multiply and shift per 8-byte word."""
    words = rows.view("<u8")
    keys = words[:, 0] * _GATHER
    keys >>= 56
    if words.shape[1] == 2:
        low = words[:, 1] * _GATHER
        low >>= 56
        keys <<= 8
        keys |= low
    return keys


@dataclass(frozen=True)
class TraceHistogram:
    """A trace sample reduced to its distinct padded rows.

    g_k depends on a trace only through its padded bits, so the distinct
    rows (a (U, n) int8 array) and their weights (summing to 1) describe a
    sample completely.  `count` is the number of traces N behind the
    weights; an exact trace law has none."""

    rows: np.ndarray
    weights: np.ndarray
    count: int | None = None

    @cached_property
    def _plan(self) -> _JumpPlan:
        """The rows' 1-bits, laid out for the moment sweep."""
        return _jump_plan(self.rows)

    @classmethod
    def from_batches(cls, batches, n: int, limit: int) -> "TraceHistogram":
        """Histogram of the first `limit` traces of an iterable of 0/1
        arrays of shape (batch, n).  Rows come out in ascending order of
        their bits read as a big-endian number, so the result does not
        depend on how the traces were ordered or batched.  Batches are
        reduced one at a time and the source is not pulled past the batch
        that reaches `limit`.

        Rows of n <= 16 bits are counted: each row's key is its bits read
        as an unsigned integer, most significant first, and every batch is
        bincounted into one array of 2^n bins, so memory is O(2^n + one
        batch).  The key reads each row, right-aligned in 8 or 16 bytes,
        as one or two little-endian 8-byte words.  A word times
        0x8040201008040201 moves byte i's bit to bit 63 - i of the
        product, and no other term reaches those bits, so shifting the
        product right by 56 leaves the word's 8 bits, first byte most
        significant.  Wider rows are sorted: each row's packed bytes (at
        least 3) are right-aligned in the smallest unsigned integer of 4
        or 8 bytes that holds them and read big-endian, so the integer
        keys sort as the bytes do (rows wider than 64 bits keep a raw
        byte-string key), and memory is O(distinct rows + one batch)."""
        if n <= 16:
            width = 8 if n <= 8 else 16
            bins = np.zeros(1 << n, dtype=np.int64)
            for batch in _bit_batches(batches, n, limit):
                if n < width:
                    padded = np.zeros((len(batch), width), dtype=np.int8)
                    padded[:, width - n :] = batch
                    batch = padded
                elif batch.strides[1] != 1:  # the word view needs contiguous rows
                    batch = np.ascontiguousarray(batch)
                bins += np.bincount(_word_keys(batch).view(np.int64), minlength=len(bins))
            keys = np.flatnonzero(bins)
            shifts = np.arange(n - 1, -1, -1)
            rows, counts = (keys[:, None] >> shifts) & 1, bins[keys]
        else:
            width = (n + 7) // 8
            size = next((b for b in (4, 8) if b >= width), width)
            wire = np.dtype(f">u{size}") if size <= 8 else np.dtype((np.void, size))
            native = wire.newbyteorder("=")  # sort and concatenate in native byte order
            keys = np.empty(0, dtype=native)
            counts = np.empty(0)
            for batch in _bit_batches(batches, n, limit):
                packed = np.zeros((len(batch), size), dtype=np.uint8)
                packed[:, size - width :] = np.packbits(batch, axis=1)
                new, new_counts = np.unique(packed.view(wire).ravel().astype(native), return_counts=True)
                keys, inverse = np.unique(np.concatenate([keys, new]), return_inverse=True)
                counts = np.bincount(inverse, weights=np.concatenate([counts, new_counts]))
            packed = keys.astype(wire).view(np.uint8).reshape(-1, size)[:, size - width :]
            rows = np.unpackbits(packed, axis=1, count=n)
        total = int(counts.sum())
        return cls(rows.astype(np.int8), counts / total, total)

    def g_moments(self, z: complex, k_max: int, params: ProblemParams):
        """Weighted means of g_1..g_{k_max} at z, and their Hermitian
        covariance over one trace, C[i, j] = E[(g_{i+1} - b_{i+1})
        conj(g_{j+1} - b_{j+1})]."""
        G = _g_sweep(self._plan, z, k_max, params.p)
        means = G @ self.weights
        G -= means[:, None]
        return means, (G * self.weights) @ G.conj().T


@dataclass
class MomentEstimates:
    """Sample means of g_0..g_{k_max} at every grid point (g_0 := 1), with
    the covariance of (g_1..g_{k_max}) over one trace for the delta-method
    error model downstream.  Row i of `means` and `cov` belongs to grid[i]."""

    grid: np.ndarray  # (P,) complex points on the unit circle
    means: np.ndarray  # (P, k_max + 1) complex; column 0 is 1
    cov: np.ndarray  # (P, k_max, k_max) complex Hermitian
    count: int  # traces behind every mean

    @property
    def k_max(self) -> int:
        return self.means.shape[1] - 1

    @property
    def stderrs(self) -> np.ndarray:
        """(P, k_max + 1) standard errors of the means; column 0 is 0."""
        var = np.diagonal(self.cov, axis1=1, axis2=2).real / self.count
        return np.concatenate([np.zeros((len(var), 1)), np.sqrt(var)], axis=1)

    def point_table(self) -> list:
        """One dict per grid point: z and the standard error of each b_k."""
        stderrs = self.stderrs
        table = []
        for i, z in enumerate(self.grid.tolist()):
            row = {"z_real": z.real, "z_imag": z.imag}
            for k in range(1, self.k_max + 1):
                row[f"stderr_{k}"] = float(stderrs[i, k])
            table.append(row)
        return table

    def to_json(self) -> str:
        recs = []
        for z, row in zip(self.grid.tolist(), self.means):
            for k, mean in enumerate(row):
                recs.append(
                    {
                        "z": [z.real, z.imag],
                        "grid_kind": "arc",
                        "k": k,
                        "mean": [float(mean.real), float(mean.imag)],
                        "count": self.count,
                    }
                )
        return json.dumps(recs)


def moments_from_values(grid, k_max: int, value_fn) -> MomentEstimates:
    """Build MomentEstimates from a callable (z, k) -> complex (e.g. exact
    power sums, or a noisy wrapper in tests); the count is 1 and the
    covariances are zero."""
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    grid = np.asarray(grid, dtype=complex)
    means = np.array(
        [[1.0] + [complex(value_fn(z, k)) for k in range(1, k_max + 1)] for z in grid.tolist()],
        dtype=complex,
    ).reshape(len(grid), k_max + 1)
    return MomentEstimates(grid, means, np.zeros((len(grid), k_max, k_max), complex), 1)


def accumulate_moments(
    trace_source,
    grid,
    k_max: int,
    params: ProblemParams,
    sample_count: int,
) -> MomentEstimates:
    """Mean of g_k over the same sample_count traces, per grid point and
    0 <= k <= k_max (g_0 := 1), with the covariance of (g_1..g_{k_max}).

    trace_source is an iterable of 0/1 arrays of shape (batch, n); the
    traces are reduced to a TraceHistogram and the same histogram feeds
    every (z, k).  The grid must be conjugate-symmetric in reverse order,
    as `zgrid.arc_grid` builds it: traces and channel parameters are real,
    so g_k(x~, conj(z)) is the conjugate of g_k(x~, z), and only the first
    half of the grid (the Im z <= 0 member of each pair on an arc) is
    evaluated.  A singular grid point raises SingularGridPointError.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim != 1 or not np.array_equal(grid, grid[::-1].conj()):
        raise ParameterError("grid must be a conjugate-symmetric array of points")
    hist = TraceHistogram.from_batches(trace_source, params.n, sample_count)
    P = len(grid)
    means = np.empty((P, k_max + 1), dtype=complex)
    cov = np.empty((P, k_max, k_max), dtype=complex)
    means[:, 0] = 1.0
    half = (P + 1) // 2
    for i, z in enumerate(grid[:half].tolist()):
        means[i, 1:], cov[i] = hist.g_moments(z, k_max, params)
    means[half:, 1:] = means[: P - half, 1:][::-1].conj()
    cov[half:] = cov[: P - half][::-1].conj()
    return MomentEstimates(grid, means, cov, hist.count)
