"""Deletion-channel sampling and the small-p subsampling reduction.

Each bit of the source string survives independently with probability p;
survivors are concatenated and zero-padded back to length n.  For very
small p the traces can be re-randomized up to an effective retention of
n^(-1/2): discard traces shorter than a threshold t, then keep a random
subsequence whose length is Bin(n, n^(-1/2)) conditioned on being at most
t.  The subsampled output is distributed exactly as a n^(-1/2) trace
conditioned on length <= t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitString, ParameterError, SparseDistribution


# For any 2*sqrt(n) <= t <= n and 0 < p < n^(-1/2), the point masses obey
#     P(Bin(n, p) = t) >= P(Bin(n, n^(-1/2)) = t) ** (C * ln(1/p)),
# which bounds how much harder it is to see a length-t trace at retention p
# than at the reduction target n^(-1/2).  C = 3 dominates the exact ratio
# (max ~2.71, approached as p -> 0 at large n with t near the 2*sqrt(n)
# floor); verified numerically over a wide (n, t, p) table in the tests.
BINOMIAL_REDUCTION_C = 3.0


class ThresholdError(ParameterError):
    """No usable length threshold for the requested budget."""


@dataclass(frozen=True)
class Trace:
    """Zero-padded channel output; bits beyond retained_count are 0."""

    bits: tuple
    retained_count: int

    def __post_init__(self):
        if not (0 <= self.retained_count <= len(self.bits)):
            raise ParameterError("retained_count out of range")
        if any(b not in (0, 1) for b in self.bits):
            raise ParameterError("trace bits must be 0 or 1")
        if any(self.bits[i] != 0 for i in range(self.retained_count, len(self.bits))):
            raise ParameterError("padding bits must be zero")

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class ChannelConfig:
    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie in (0,1), got {self.p!r}")


@dataclass(frozen=True)
class SubsampleConfig:
    """Threshold t and reduction target retention (always n^(-1/2))."""

    n: int
    t: int

    def __post_init__(self):
        if self.t > self.n:
            raise ParameterError("threshold exceeds string length")
        if self.t < 2.0 * math.sqrt(self.n):
            raise ParameterError("threshold below 2*sqrt(n)")

    @property
    def target_p(self) -> float:
        return self.n ** -0.5


def _pack_trace(x_bits, keep) -> Trace:
    kept = [b for b, k in zip(x_bits, keep) if k]
    r = len(kept)
    return Trace(tuple(kept) + (0,) * (len(x_bits) - r), r)


def sample_trace(d: SparseDistribution, cfg: ChannelConfig, rng: np.random.Generator) -> Trace:
    """Draw one trace: pick x per the mixture weights, delete bits i.i.d."""
    i = rng.choice(len(d.support), p=np.asarray(d.weights) / sum(d.weights))
    x = d.support[i]
    keep = rng.random(d.n) < cfg.p
    return _pack_trace(x.bits, keep)


def sample_trace_batch(
    d: SparseDistribution, cfg: ChannelConfig, count: int, rng: np.random.Generator
):
    """Vectorized sampling: returns (bits array of shape (count, n), retained counts).

    Survivors are moved to the front of each row with a stable sort on the
    deletion mask, which preserves their order; deleted slots become zero.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    n = d.n
    sup = np.array([x.bits for x in d.support], dtype=np.int8)
    w = np.asarray(d.weights)
    which = rng.choice(len(d.support), size=count, p=w / w.sum())
    X = sup[which]
    keep = rng.random((count, n)) < cfg.p
    order = np.argsort(~keep, axis=1, kind="stable")
    packed = np.take_along_axis(X, order, axis=1) * np.take_along_axis(keep, order, axis=1)
    return packed.astype(np.int8), keep.sum(axis=1).astype(np.int64)


def binomial_tail(n: int, p: float, t: int) -> float:
    """P(Bin(n, p) >= t), summed stably in log space."""
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0,1), got {p!r}")
    if not (0 <= t <= n):
        raise ParameterError("t out of [0, n]")
    if t == 0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    logs = [
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq
        for j in range(t, n + 1)
    ]
    top = max(logs)
    return math.exp(top) * sum(math.exp(v - top) for v in logs)


def threshold_floor(n: int) -> int:
    return math.ceil(2.0 * math.sqrt(n))


def choose_threshold(n: int, budget: float) -> int:
    """Largest t in [ceil(2 sqrt n), n] with P(Bin(n, n^(-1/2)) >= t) >= budget.

    If even the floor misses the budget, the floor is returned (the clamp
    dominates); the caller sees the actual acceptance rate via binomial_tail.
    """
    if not (0.0 < budget <= 1.0):
        raise ParameterError(f"budget must lie in (0,1], got {budget!r}")
    lo = threshold_floor(n)
    if lo > n:
        raise ThresholdError(f"no valid threshold: 2*sqrt(n) > n for n={n}")
    pp = n ** -0.5
    for t in range(n, lo, -1):
        if binomial_tail(n, pp, t) >= budget:
            return t
    return lo


def subsample_trace(
    raw: Trace, cfg: SubsampleConfig, rng: np.random.Generator
) -> Trace | None:
    """Re-randomize a small-p trace up to effective retention n^(-1/2).

    Returns None (discard) when the trace is shorter than t.  Otherwise
    draws X ~ Bin(n, n^(-1/2)) conditioned on X <= t by rejection and keeps
    a uniformly random subsequence of that length from the retained prefix.
    """
    n = raw.n
    if cfg.n != n:
        raise ParameterError("config length disagrees with trace length")
    if raw.retained_count < cfg.t:
        return None
    pp = cfg.target_p
    while True:
        x_len = int(rng.binomial(n, pp))
        if x_len <= cfg.t:
            break
    if x_len == 0:
        return Trace((0,) * n, 0)
    idx = np.sort(rng.choice(raw.retained_count, size=x_len, replace=False))
    kept = tuple(raw.bits[i] for i in idx)
    return Trace(kept + (0,) * (n - x_len), x_len)


def write_trace_file(path, traces, p: float, seed: int) -> None:
    """Write an (N, n) 0/1 array of padded traces in the format that
    read_trace_file parses: a `#n=.. p=.. seed=..` header, then one line of
    n characters per trace."""
    traces = np.asarray(traces, dtype=np.uint8)
    count, n = traces.shape
    lines = np.full((count, n + 1), ord("\n"), dtype=np.uint8)
    lines[:, :n] = traces + ord("0")
    with open(path, "wb") as fh:
        fh.write(f"#n={n} p={p} seed={seed}\n".encode())
        fh.write(lines.tobytes())


def read_trace_file(path):
    """Returns (header dict, (N, n) int8 array of padded traces).

    The header line is `#key=value ...` and must give n; every other
    non-blank line is one trace of exactly n characters 0/1."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").strip()
        lines = [line.strip() for line in fh]
    if not header.startswith("#"):
        raise ParameterError("trace file missing header line")
    fields = {}
    for token in header[1:].split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ParameterError(f"trace file header token {token!r} is not key=value")
        fields[key] = value
    try:
        n = int(fields["n"])
    except (KeyError, ValueError):
        n = 0
    if n < 1:
        raise ParameterError("trace file header must give a positive integer n=")
    lines = [line for line in lines if line]
    if any(len(line) != n for line in lines):
        raise ParameterError("trace line length disagrees with header n")
    rows = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(len(lines), n) - ord("0")
    if rows.size and rows.max() > 1:
        raise ParameterError("trace lines may hold only the characters 0 and 1")
    return fields, rows.astype(np.int8)
