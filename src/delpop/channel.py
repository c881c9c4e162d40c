"""Deletion-channel sampling and the trace-file format.

Each bit of the source string survives independently with probability p;
survivors are concatenated and zero-padded back to length n.  Traces are
(count, n) int8 arrays of padded rows, the form every estimator reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError, SparseDistribution


@dataclass(frozen=True)
class ChannelConfig:
    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must lie in (0,1), got {self.p!r}")


def sample_trace_batch(
    d: SparseDistribution, cfg: ChannelConfig, count: int, rng: np.random.Generator
):
    """Vectorized sampling: `count` padded traces as a (count, n) int8 array.

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
    # int8 times bool stays int8
    return np.take_along_axis(X, order, axis=1) * np.take_along_axis(keep, order, axis=1)


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
    return fields, rows.view(np.int8)  # fresh, contiguous and 0/1: read as int8 without a copy
