"""Paired benchmark runs of two checkouts of delpop, written as one JSON record.

    git archive --prefix=base/ BASE_COMMIT | tar -x -C WORKDIR
    python3 tools/bench_pairs.py --base WORKDIR/base --change . \
        --seed 11 --pairs 10 --seconds 25 --out BENCH_estimator.json

For every workload in the change's BENCHMARK.json, runs
`perfbench/run.py --trace 0` in each checkout `--pairs` times, alternating
which side runs first, and then one `--trace 1` run per side.  The record
holds every run's metrics and failure counts, each side's median and
quartiles of the end-to-end metrics, the pairs the change won on each
metric, and the traced runs' per-layer metrics.  Runs go one at a time, so
the two sides never share the machine.

Each end-to-end metric of each workload also gets a verdict:
`claim_met` when the change won at least nine tenths of the pairs (ties
count for neither) and its median is better than the base's by more than
the base's q3 - q1; `within_bound` when its median is worse than the base's
by no more than the metric's BENCHMARK.json bound, a fraction of the
base's median; `unresolved` when the base's q3 - q1 exceeds that bound
and not every change run is better than every base run, so the base
spreads too widely for the runs to show whether the metric moved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
    }


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def verdict(base: dict, change: dict, wins: int, pairs: int, direction: str, bound: float) -> dict:
    """The claim, bound and spread verdicts of one metric from each side's
    summary."""
    sign = 1 if direction == "higher" else -1
    gain = sign * (change["median"] - base["median"])
    worst, best = ("min", "max") if direction == "higher" else ("max", "min")
    return {
        "claim_met": 10 * wins >= 9 * pairs and gain > base["q3"] - base["q1"],
        "within_bound": gain >= -bound * abs(base["median"]),
        "unresolved": base["q3"] - base["q1"] > bound * abs(base["median"])
        and sign * (change[worst] - base[best]) <= 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: each side's quartiles need two runs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    record = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "processor": platform.machine()},
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], workload, args.seed, args.seconds, 0))
                print(f"{workload} pair {i} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
        entry = {"runs": runs, "summary": {}, "change_wins": {}, "verdict": {}, "traced": {}}
        for name, metric in metrics.items():
            values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
            entry["summary"][name] = {side: summary(v) for side, v in values.items()}
            sign = 1 if metric["better"] == "higher" else -1
            entry["change_wins"][name] = sum(
                sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
            entry["verdict"][name] = verdict(
                entry["summary"][name]["base"], entry["summary"][name]["change"],
                entry["change_wins"][name], args.pairs, metric["better"], metric["bound"])
        for side in ("base", "change"):
            entry["traced"][side] = run_once(sides[side], workload, args.seed, args.seconds, 1)
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
