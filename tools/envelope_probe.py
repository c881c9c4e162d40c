"""Operating-envelope probe: success counts of the default pipeline over a
fixed table of (n, l, p, N) cells, and over a few cells whose mixture has
fewer strings than the sparsity bound l.

Each cell runs seeds 0-2, or the inclusive range given as `--seeds A-B`
(seeds 3-12 are the held-out check of the probe's counts).  Seed s draws
s_c distinct random n-bit strings (s_c = l in `CELLS`, fewer in
`FEWER_CELLS`) and weights from U(0.3, 1), normalised, with numpy's
default_rng(1000 n + 10 s_c + s); the traces are sampled with channel
seed s and recovered with sparsity bound l.  A run succeeds when
recovery returns a mixture within total-variation distance eps = 0.1 of
the truth.  Prints one line per cell with its successes and the first
failure reason (for a failed pipeline, its failure
at the largest l'), then the total successes over the `CELLS` with
p >= 0.5 and with p < 0.5, then the total over `FEWER_CELLS`.

    PYTHONPATH=src python tools/envelope_probe.py [--seeds 3-12]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from delpop.core import (
    BitString, ProblemParams, RecoveryFailedError, SparseDistribution, tv_distance,
)
from delpop.recovery import RecoveryConfig, recover_from_channel

CELLS = [
    (8, 2, 0.9, 10**6),
    (8, 2, 0.7, 10**6),
    (10, 2, 0.9, 10**6),
    (8, 3, 0.9, 10**6),
    (12, 2, 0.7, 10**6),
    (12, 2, 0.9, 10**6),
    (6, 2, 0.8, 10**5),
    (16, 2, 0.9, 10**6),
    (10, 3, 0.9, 10**6),
    (12, 3, 0.9, 10**6),
    (16, 3, 0.9, 10**6),
    (8, 2, 0.5, 10**6),
    (10, 2, 0.7, 10**6),
    (8, 2, 0.3, 10**6),
    (8, 2, 0.2, 10**6),
    (8, 2, 0.12, 10**6),
]
# (n, l, p, N, strings): the Hankel matrix at l' > strings is singular
FEWER_CELLS = [
    (8, 2, 0.9, 10**6, 1),
    (8, 3, 0.9, 10**6, 2),
    (10, 3, 0.9, 10**6, 2),
    (12, 3, 0.9, 10**6, 2),
]
SEEDS = (0, 1, 2)
EPS = 0.1


def random_instance(n: int, ell: int, seed: int) -> SparseDistribution:
    rng = np.random.default_rng(1000 * n + 10 * ell + seed)
    strings = set()
    while len(strings) < ell:
        strings.add(tuple(int(b) for b in rng.integers(0, 2, size=n)))
    weights = rng.uniform(0.3, 1.0, size=ell)
    weights /= weights.sum()
    return SparseDistribution(tuple(BitString(s) for s in sorted(strings)), tuple(weights))


def failure_reason(exc: Exception) -> str:
    """A RecoveryFailedError's message, which names the largest l', its
    stage and its reason; else the exception's type and message."""
    if isinstance(exc, RecoveryFailedError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def run_cell(seeds, n: int, ell: int, p: float, count: int, strings: int | None = None):
    """(successes, first failure reason or None) over `seeds` on mixtures
    of `strings` strings (default l) recovered with sparsity bound l."""
    wins, reason = 0, None
    for seed in seeds:
        truth = random_instance(n, strings or ell, seed)
        params = ProblemParams(n, ell, p, eps=EPS)
        config = RecoveryConfig(sample_count=count, seed=seed)
        try:
            got = recover_from_channel(truth, params, config).distribution
        except Exception as exc:  # every failure mode counts as a miss
            reason = reason or failure_reason(exc)
            continue
        tv = tv_distance(got, truth)
        if tv <= EPS:
            wins += 1
        else:
            reason = reason or f"TV {tv:.3f}"
    return wins, reason


def probe(seeds, n: int, ell: int, p: float, count: int, strings: int | None = None) -> int:
    """Run one cell over `seeds`, print its line, and return its successes."""
    start = time.perf_counter()
    wins, reason = run_cell(seeds, n, ell, p, count, strings)
    seconds = time.perf_counter() - start
    label = f"{n:<2} {ell}  {p:<4} {count:<6.0e}"
    if strings is not None:
        label += f" {strings} string{'s' if strings > 1 else ''}"
    print(f"{label} {wins}/{len(seeds)}        {seconds:7.1f}  {reason or '-'}", flush=True)
    return wins


def seed_range(text: str) -> range:
    """The inclusive seed range "A-B" (or one seed "A")."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"need a range A-B with A <= B, got {text!r}")
    return seeds


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=SEEDS,
                        help="inclusive seed range A-B (default 0-2)")
    seeds = parser.parse_args(argv).seeds
    print("n  l  p    N      successes  seconds  first failure")
    high, low = [], []  # successes per cell with p >= 0.5 and with p < 0.5
    for n, ell, p, count in CELLS:
        (high if p >= 0.5 else low).append(probe(seeds, n, ell, p, count))
    fewer = [probe(seeds, *cell) for cell in FEWER_CELLS]
    print(f"successes: {sum(high)}/{len(seeds) * len(high)} at p >= 0.5, "
          f"{sum(low)}/{len(seeds) * len(low)} at p < 0.5")
    print(f"fewer strings than l: {sum(fewer)}/{len(seeds) * len(fewer)}")


if __name__ == "__main__":
    main()
