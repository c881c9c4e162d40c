"""Deletion-channel sampling, trace files, and the small-p subsampling
reduction.

Each bit of the source string survives independently with probability p;
survivors are concatenated and zero-padded back to length n.  The paper's
reduction re-randomizes very-small-p traces up to an effective retention
of n^(-1/2): discard traces shorter than a threshold t, then keep a random
subsequence whose length is Bin(n, n^(-1/2)) conditioned on being at most
t.  The subsampled output is distributed exactly as a n^(-1/2) trace
conditioned on length <= t (`oracle.exact_subsample_law` checks this).
The recovery pipeline does not use it: g_k is unbiased only for the
unconditioned channel, so recovery runs the estimator at the true p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, SparseDistribution


# For any 2*sqrt(n) <= t <= n and 0 < p < n^(-1/2), the point masses obey
#     P(Bin(n, p) = t) >= P(Bin(n, n^(-1/2)) = t) ** (C * ln(1/p)),
# which bounds how much harder it is to see a length-t trace at retention p
# than at the reduction target n^(-1/2).  C = 3 dominates the exact ratio
# (max ~2.71, approached as p -> 0 at large n with t near the 2*sqrt(n)
# floor); verified numerically over a wide (n, t, p) table in the tests.
BINOMIAL_REDUCTION_C = 3.0


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


def threshold_floor(n: int) -> int:
    return math.ceil(2.0 * math.sqrt(n))


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


def write_trace_file(path, batches, p: float, seed: int) -> None:
    """Write padded traces, an iterable of (count, n) 0/1 arrays written
    one at a time, in the format that read_trace_file parses: a
    `#n=.. p=.. seed=..` header, n from the first batch, then one line of
    n characters per trace."""
    with open(path, "wb") as fh:
        for i, batch in enumerate(batches):
            batch = np.asarray(batch, dtype=np.uint8)
            count, n = batch.shape
            if not i:
                fh.write(f"#n={n} p={p} seed={seed}\n".encode())
            lines = np.full((count, n + 1), ord("\n"), dtype=np.uint8)
            lines[:, :n] = batch + ord("0")
            fh.write(lines.tobytes())


def read_trace_file(path):
    """Returns (header dict, (N, n) int8 array of padded traces).

    The file must be exactly what write_trace_file writes: a header line
    `#key=value ...` that gives n, then N lines of exactly n characters
    0/1, each ended by a `\n`.  Blank lines, `\r\n` line ends and a missing
    final newline are parameter errors."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").strip()
        body = fh.read()
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
    chars = np.frombuffer(body, dtype=np.uint8)
    if chars.size % (n + 1) or np.any(chars[n :: n + 1] != ord("\n")):
        raise ParameterError("trace line length disagrees with header n")
    rows = chars.reshape(-1, n + 1)[:, :n] - ord("0")  # uint8: characters below "0" wrap above 1
    if rows.size and rows.max() > 1:
        raise ParameterError("trace lines may hold only the characters 0 and 1")
    return fields, rows.astype(np.int8)
