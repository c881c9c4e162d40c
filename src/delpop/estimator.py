"""Unbiased moment estimators for deletion-channel traces.

For a trace x~ (zero-padded) and complex z, g_m(x~, z) averages to
P(z; x)^m over the channel.  It is a sum over ordered compositions
B = (b_1..b_k) of m:

    g_m = sum_B multinom(m; B) * p^(-k) * z^(b_1 + 2 b_2 + ... + k b_k)
              / (w_{B,1} ... w_{B,k}) * f(x~, w_B),

with w_{B,r} = (z^(b_r + ... + b_k) - q) / p and f the gap-weighted chain
sum over increasing index tuples.  f is computed by an O(n k) prefix
recurrence rather than enumerating chains; the recurrence uses only a
multiplicative running accumulator, so zero weights need no special case.

A grid point where some |w_{B,r}| < 1e-12 is singular for the estimator
(the composition coefficient divides by it) and is reported as such.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, ProblemParams
from .channel import Trace
from .zgrid import GridPoint

SINGULAR_TOL = 1e-12


class SingularGridPointError(ParameterError):
    """Some composition weight w_{B,r} vanishes at this z."""

    def __init__(self, z, composition, r):
        super().__init__(
            f"w vanishes at z={z} for composition {composition} (position {r + 1})"
        )
        self.z = z
        self.composition = composition
        self.r = r


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
            raise SingularGridPointError(z, tuple(parts), r)
    return w


def f_sum_batch(X: np.ndarray, w) -> np.ndarray:
    """f(x~, w) for each trace row of X (shape (N, n), entries 0/1).

    Prefix recurrence over chain length r: S_r(j) holds the weighted sum of
    all r-chains ending at index j; the accumulator carries
    sum_{j' < j} S_{r-1}(j') * w_r^(j - j'), updated multiplicatively.
    Column j of S_{r-1} is last read just before column j of S_r is
    written, so S is updated in place.
    """
    N, n = X.shape
    k = len(w)
    if k < 1:
        raise ParameterError("weight vector must be nonempty")
    if k > n:
        return np.zeros(N, dtype=complex)
    powers = np.empty(n, dtype=complex)
    acc_pow = w[0]
    for j in range(n):
        powers[j] = acc_pow
        acc_pow *= w[0]
    S = X * powers[None, :]
    for r in range(1, k):
        acc = np.zeros(N, dtype=complex)
        for j in range(n):
            chained = X[:, j] * acc
            acc = (acc + S[:, j]) * w[r]
            S[:, j] = chained
    return S.sum(axis=1)


def f_sum(trace: Trace, w) -> complex:
    """f(x~, w) = sum over 1 <= i_1 < ... < i_k <= n of
    x~_{i_1} ... x~_{i_k} w_1^{i_1} w_2^{i_2-i_1} ... w_k^{i_k-i_{k-1}}."""
    X = np.array([trace.bits], dtype=np.int8)
    return complex(f_sum_batch(X, list(w))[0])


def g_batch(X: np.ndarray, z: complex, m: int, params: ProblemParams) -> np.ndarray:
    """g_m(x~, z) for each trace row of X."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    p = params.p
    total = np.zeros(X.shape[0], dtype=complex)
    for parts in compositions(m):
        k = len(parts)
        w = composition_weights(z, parts, p)
        expo = sum((r + 1) * b for r, b in enumerate(parts))
        denom = 1.0 + 0.0j
        for wr in w:
            denom *= wr
        coef = multinomial(m, parts) * p ** (-k) * z ** expo / denom
        total += coef * f_sum_batch(X, w)
    return total


def g_estimate(trace: Trace, z: complex, m: int, params: ProblemParams) -> complex:
    """Single-trace unbiased estimate of P(z; x)^m."""
    X = np.array([trace.bits], dtype=np.int8)
    return complex(g_batch(X, z, m, params)[0])


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

    @classmethod
    def from_batches(cls, batches, n: int, limit: int) -> "TraceHistogram":
        """Histogram of the first `limit` traces of an iterable of 0/1
        arrays of shape (batch, n).  Batches are reduced one at a time, so
        memory stays O(distinct rows + one batch); rows are kept in packed
        byte order, so the result does not depend on how the traces were
        ordered or batched."""
        width = (n + 7) // 8
        keys = np.empty(0, dtype=np.dtype((np.void, width)))
        counts = np.empty(0)
        total = 0
        for batch in batches:
            batch = np.asarray(batch, dtype=np.int8)
            if batch.ndim != 2 or batch.shape[1] != n:
                raise ParameterError("trace batch must have shape (count, n)")
            batch = batch[: limit - total]
            if len(batch) and (batch.min() < 0 or batch.max() > 1):
                raise ParameterError("trace bits must be 0 or 1")
            total += len(batch)
            new, new_counts = np.unique(
                np.packbits(batch, axis=1).view(keys.dtype).ravel(), return_counts=True
            )
            keys, inverse = np.unique(np.concatenate([keys, new]), return_inverse=True)
            counts = np.bincount(inverse, weights=np.concatenate([counts, new_counts]))
            if total >= limit:
                break
        if total < limit:
            raise ParameterError(f"trace source exhausted after {total} of {limit} traces")
        rows = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=n)
        return cls(rows.astype(np.int8), counts / total, total)

    def g_moments(self, z: complex, k_max: int, params: ProblemParams):
        """Weighted means of g_1..g_{k_max} at z, and their Hermitian
        covariance over one trace, C[i, j] = E[(g_{i+1} - b_{i+1})
        conj(g_{j+1} - b_{j+1})]."""
        G = np.stack([g_batch(self.rows, z, k, params) for k in range(1, k_max + 1)], axis=1)
        means = self.weights @ G
        D = G - means
        return means, (D.T * self.weights) @ D.conj()


@dataclass
class MomentEstimates:
    """Sample means of g_k per (grid point, k), with counts and standard
    errors for diagnostics.  Points where the estimator is singular are
    dropped and recorded in `dropped` with the offending composition."""

    grid: tuple
    k_max: int
    means: dict = field(default_factory=dict)  # (point index, k) -> complex
    counts: dict = field(default_factory=dict)  # (point index, k) -> int
    stderrs: dict = field(default_factory=dict)  # (point index, k) -> float
    dropped: dict = field(default_factory=dict)  # point index -> reason string
    # point index -> (k_max, k_max) Hermitian covariance of (g_1..g_{k_max})
    # over one trace, for the delta-method error model downstream
    covariances: dict = field(default_factory=dict)

    def usable_points(self):
        return [gp for gp in self.grid if gp.index not in self.dropped]

    def point(self, index: int) -> GridPoint:
        for gp in self.grid:
            if gp.index == index:
                return gp
        raise ParameterError(f"no grid point with index {index}")

    def to_json(self) -> str:
        recs = []
        for (i, k), mean in sorted(self.means.items()):
            gp = self.point(i)
            recs.append(
                {
                    "z": [gp.z.real, gp.z.imag],
                    "grid_kind": gp.kind,
                    "k": k,
                    "mean": [mean.real, mean.imag],
                    "count": self.counts[(i, k)],
                }
            )
        return json.dumps(recs)


def moments_from_values(grid, k_max: int, value_fn) -> MomentEstimates:
    """Build MomentEstimates from a callable (z, k) -> complex (e.g. exact
    power sums, or a noisy wrapper in tests); counts are set to 1 and the
    covariances to zero."""
    est = MomentEstimates(grid=tuple(grid), k_max=k_max)
    for gp in grid:
        for k in range(k_max + 1):
            est.means[(gp.index, k)] = 1.0 + 0j if k == 0 else complex(value_fn(gp.z, k))
            est.counts[(gp.index, k)] = 1
            est.stderrs[(gp.index, k)] = 0.0
        est.covariances[gp.index] = np.zeros((k_max, k_max), dtype=complex)
    return est


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
    every (z, k).  A singular grid point is dropped and flagged, never
    silently skipped.
    """
    if sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    hist = TraceHistogram.from_batches(trace_source, params.n, sample_count)
    est = MomentEstimates(grid=tuple(grid), k_max=k_max)
    # traces and channel parameters are real, so g_k(x~, conj(z)) is the
    # conjugate of g_k(x~, z); conjugate grid points reuse earlier work
    done = {}
    for gp in grid:
        conj_key = (round(gp.z.real, 15), round(-gp.z.imag, 15))
        if conj_key in done:
            src = done[conj_key]
            if src in est.dropped:
                est.dropped[gp.index] = est.dropped[src]
                continue
            for k in range(k_max + 1):
                est.means[(gp.index, k)] = est.means[(src, k)].conjugate()
                est.counts[(gp.index, k)] = est.counts[(src, k)]
                est.stderrs[(gp.index, k)] = est.stderrs[(src, k)]
            est.covariances[gp.index] = est.covariances[src].conj()
            continue
        done[(round(gp.z.real, 15), round(gp.z.imag, 15))] = gp.index
        try:
            means, cov = hist.g_moments(gp.z, k_max, params)
        except SingularGridPointError as exc:
            est.dropped[gp.index] = str(exc)
            continue
        est.means[(gp.index, 0)] = 1.0 + 0.0j
        est.counts[(gp.index, 0)] = hist.count
        est.stderrs[(gp.index, 0)] = 0.0
        for k in range(1, k_max + 1):
            est.means[(gp.index, k)] = complex(means[k - 1])
            est.counts[(gp.index, k)] = hist.count
            est.stderrs[(gp.index, k)] = math.sqrt(cov[k - 1, k - 1].real / hist.count)
        est.covariances[gp.index] = cov
    return est
