"""The two benchmark workloads: seeded inputs, the timed operation, and
the check of each operation's output.

Inputs come from this file's own deletion-channel sampler, not from
delpop.channel, so a change to the channel cannot change them.  Traces are
drawn in batches to keep the sampler's peak memory well below that of the
operation under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BATCH = 1 << 16


def sample_traces(rng, support, weights, p, count):
    """(count, n) int8 array of zero-padded deletion-channel traces.

    Each row draws a source string by weight, keeps each bit with
    probability p and packs the survivors to the front in order."""
    support = np.asarray(support, dtype=np.int8)
    weights = np.asarray(weights, dtype=float)
    n = support.shape[1]
    out = np.zeros((count, n), dtype=np.int8)
    for lo in range(0, count, BATCH):
        size = min(BATCH, count - lo)
        which = rng.choice(len(weights), size=size, p=weights / weights.sum())
        keep = rng.random((size, n)) < p
        slot = np.cumsum(keep, axis=1) - 1
        rows, cols = np.nonzero(keep)
        block = out[lo : lo + size]
        block[rows, slot[rows, cols]] = support[which][rows, cols]
    return out


def distinct_share(traces) -> float:
    """Distinct padded rows divided by the number of rows."""
    packed = np.packbits(traces.astype(np.uint8), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return len(np.unique(keys)) / len(traces)


def exact_b1(support, weights, z: complex) -> complex:
    """b_1(z) = sum_t a_t P(z; u_t), with P(z; x) = sum_{i=1..n} x_i z^i."""
    n = len(support[0])
    zpow = z ** np.arange(1, n + 1)
    return complex(sum(a * (np.asarray(u) @ zpow) for u, a in zip(support, weights)))


def g1_values(traces, z: complex, p: float):
    """Per-trace g_1(x~, z) = z/(z-q) * sum_j x~_j ((z-q)/p)^j, the closed
    form of the unbiased first-moment estimator."""
    q = 1.0 - p
    w = (z - q) / p
    wpow = w ** np.arange(1, traces.shape[1] + 1)
    return (traces @ wpow) * (z / (z - q))


def support_tv(got_support, got_weights, want_support, want_weights) -> float:
    """Total-variation distance between two sparse mixtures keyed by string."""
    got = dict(zip(got_support, got_weights))
    want = dict(zip(want_support, want_weights))
    return 0.5 * sum(abs(got.get(x, 0.0) - want.get(x, 0.0)) for x in set(got) | set(want))


def write_trace_file(path: Path, traces, p: float, seed: int) -> None:
    """The CLI's text format: a `#n=.. p=.. seed=..` header, then one
    0/1 line per padded trace."""
    count, n = traces.shape
    lines = np.full((count, n + 1), ord("\n"), dtype=np.uint8)
    lines[:, :n] = traces + ord("0")
    with open(path, "wb") as fh:
        fh.write(f"#n={n} p={p} seed={seed}\n".encode())
        fh.write(lines.tobytes())


class AcceptN8:
    """recover() on an in-memory trace array at the acceptance point."""

    name = "accept-n8"
    n, ell, p = 8, 2, 0.9
    support = ("10101010", "01010101")
    weights = (0.6, 0.4)
    traces_per_op = 1_000_000
    eps = 0.1

    def __init__(self, delpop, seed: int, workdir: Path):
        self.delpop = delpop
        rng = np.random.default_rng(seed)
        bits = [[int(c) for c in s] for s in self.support]
        self.traces = sample_traces(rng, bits, self.weights, self.p, self.traces_per_op)
        self.params = delpop.core.ProblemParams(self.n, self.ell, self.p, eps=self.eps)

    def operate(self):
        config = self.delpop.recovery.RecoveryConfig(sample_count=self.traces_per_op)
        return self.delpop.recovery.recover([self.traces], self.params, config)

    def check(self, result):
        """(passed, comparable output, TV, note)."""
        dist = result.distribution
        got = [str(x) for x in dist.support]
        tv = support_tv(got, list(dist.weights), self.support, self.weights)
        passed = sorted(got) == sorted(self.support) and tv <= self.eps
        note = f"support={sorted(got)} tv={tv:.6f}"
        return passed, (tuple(sorted(got)), tv), tv, note


class EstimateN48L3:
    """`delpop estimate` on a trace file of nearly distinct traces."""

    name = "estimate-n48-l3"
    n, ell, p = 48, 3, 0.7
    weights = (0.5, 0.3, 0.2)
    traces_per_op = 20_000
    k_max = 5
    stderr_limit = 6.0

    def __init__(self, delpop, seed: int, workdir: Path):
        self.delpop = delpop
        rng = np.random.default_rng(seed)
        strings = set()
        while len(strings) < len(self.weights):
            strings.add(tuple(int(b) for b in rng.integers(0, 2, size=self.n)))
        self.support = sorted(strings)
        self.traces = sample_traces(rng, self.support, self.weights, self.p, self.traces_per_op)
        self.trace_file = workdir / "traces.txt"
        self.out_file = workdir / "estimates.json"
        write_trace_file(self.trace_file, self.traces, self.p, seed)
        self.argv = [
            "estimate",
            "--traces", str(self.trace_file),
            "--ell", str(self.ell),
            "--samples", str(self.traces_per_op),
            "--seed", str(seed),
            "--out", str(self.out_file),
        ]

    def operate(self):
        return self.delpop.cli.run(list(self.argv))

    def check(self, code):
        """(passed, estimates file text, None, note)."""
        if code != 0:
            return False, None, None, f"exit code {code}"
        text = self.out_file.read_text()
        records = json.loads(text)
        by_z = {}
        for rec in records:
            by_z.setdefault(tuple(rec["z"]), {})[rec["k"]] = rec
        problems = []
        if len(records) != len(by_z) * (self.k_max + 1):
            problems.append(f"{len(records)} records for {len(by_z)} points")
        for key, recs in by_z.items():
            if sorted(recs) != list(range(self.k_max + 1)):
                problems.append(f"z={key}: orders {sorted(recs)}")
                continue
            values = [v for rec in recs.values() for v in (*rec["z"], *rec["mean"])]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"z={key}: non-finite value")
            if any(rec["count"] != self.traces_per_op for rec in recs.values()):
                problems.append(f"z={key}: count differs from {self.traces_per_op}")
            if complex(*recs[0]["mean"]) != 1.0:
                problems.append(f"z={key}: k=0 mean {recs[0]['mean']}")
            z = complex(*key)
            g1 = g1_values(self.traces, z, self.p)
            stderr = math.sqrt(float(np.mean(np.abs(g1 - g1.mean()) ** 2)) / len(g1))
            miss = abs(complex(*recs[1]["mean"]) - exact_b1(self.support, self.weights, z))
            if miss > self.stderr_limit * stderr:
                problems.append(f"z={key}: b_1 off by {miss / stderr:.1f} standard errors")
        if not by_z:
            problems.append("no records")
        note = f"{len(by_z)} points" + ("; " + "; ".join(problems[:3]) if problems else "")
        return not problems, text, None, note


WORKLOADS = {w.name: w for w in (AcceptN8, EstimateN48L3)}

