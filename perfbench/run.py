"""delpop benchmark: recovery and moment-estimation throughput, with a
separate traced run that times each layer.

Run from the repository root:

    python3 perfbench/run.py --workload accept-n8 --seed 1 --seconds 25 --trace 0

The benchmark imports delpop from ./src, makes its inputs from --seed, and
repeats the workload's operation until --seconds have passed (at least
once).  Every operation's output is checked; the last line printed is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced operations alternate and the metrics are the per-layer ones.  Spans
are written to .perfbench_work/ at the end of a traced run.  See README.md
in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Limit BLAS and OpenMP pools to the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def load_delpop():
    """Import delpop from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    delpop = importlib.import_module("delpop")
    if not Path(delpop.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"delpop imported from {delpop.__file__}, not {SRC}")
    for sub in ("core", "channel", "coeffs", "recovery", "cli"):
        importlib.import_module(f"delpop.{sub}")
    return delpop


def setup_child(workload, seed: int) -> None:
    """One full set-up in a fresh interpreter; prints the monotonic time
    at which the timed operation could begin."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload(load_delpop(), seed, Path(tmp))
        print(repr(time.monotonic()), flush=True)


def child_setup_seconds(workload: str, seed: int) -> float:
    """Interpreter start to end of set-up, measured from the parent."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-child", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def median(values):
    return statistics.median(values) if values else 0.0


def sample_seconds(delpop, wl) -> float:
    """delpop.channel.sample_trace_batch for the workload's trace count,
    in the batch size recover_from_channel uses; not part of any operation."""
    import numpy as np

    channel, core = delpop.channel, delpop.core
    truth = core.SparseDistribution(
        tuple(core.BitString(tuple(int(c) for c in s)) for s in wl.support), wl.weights)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for lo in range(0, wl.traces_per_op, 1 << 16):
        size = min(1 << 16, wl.traces_per_op - lo)
        channel.sample_trace_batch(truth, channel.ChannelConfig(wl.p), size, rng)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="accept-n8 or estimate-n48-l3")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cap_threads()
    import workloads  # numpy comes in here, after the thread cap

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_child:
        setup_child(workloads.WORKLOADS[args.workload], args.seed)
        return 0

    try:
        delpop = load_delpop()
    except ImportError as exc:
        print(f"cannot import delpop from {SRC}: {exc}", file=sys.stderr)
        return 2
    setups = [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = workloads.WORKLOADS[args.workload](delpop, args.seed, Path(tmp))
        ops = run_ops(wl, delpop, args)
        share = workloads.distinct_share(wl.traces)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# {wl.name} seed={args.seed}: {wl.traces_per_op} traces, distinct share {share:.4f}")

    outputs = {repr(op["output"]) for op in ops if op["passed"]}
    consistent = len(outputs) <= 1
    failed = sum(1 for op in ops if not op["passed"]) + (0 if consistent else 1)
    if not consistent:
        print("# traced and untraced outputs differ", file=sys.stderr)

    plain = [op for op in ops if not op["traced"]]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        metrics = {
            name: median([op["layers"][name] for op in traced])
            for name in traced[0]["layers"]
        }
        metrics["channel.sample_s"] = sample_seconds(delpop, wl)
        metrics["estimator.distinct_share"] = share
        metrics["recovery.tv"] = median([op["tv"] for op in traced if op["tv"] is not None])
        base = median([op["seconds"] for op in plain])
        metrics["trace.overhead_share"] = (median([op["seconds"] for op in traced]) - base) / base
        spans_file = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
        spans_file.unlink(missing_ok=True)
        for i, op in enumerate(traced):
            op["tracer"].dump(spans_file, i)
    else:
        metrics = {
            "traces_per_s": median([wl.traces_per_op / op["seconds"] for op in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": peak_mb,
        }
    units = per_metric_units()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


def run_ops(wl, delpop, args):
    """Repeat the operation until args.seconds have passed; with tracing,
    each round runs one untraced and one traced operation, in alternating
    order so that drift does not bias the tracing overhead."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < args.seconds:
        order = (False, True) if len(ops) % 4 == 0 else (True, False)
        for traced in order if args.trace else (False,):
            tracer = Tracer()
            with tracer.patched(
                (delpop.recovery, delpop.cli), extra=((delpop.coeffs, "linprog"),)
            ) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result = wl.operate()
                except Exception as exc:  # a raising operation is a counted failure
                    result, error = None, exc
                else:
                    error = None
                seconds = time.perf_counter() - t0
            op = {"traced": traced, "seconds": seconds, "passed": False,
                  "output": None, "tv": None}
            if error is None:
                try:
                    op["passed"], op["output"], op["tv"], note = wl.check(result)
                except Exception as exc:  # unreadable output fails the check
                    note = f"check raised {type(exc).__name__}: {exc}"
            else:
                note = f"raised {type(error).__name__}: {error}"
            if traced:
                op["layers"] = layer_metrics(tracer.spans, seconds)
                for span in tracer.spans:
                    span.result = None
                op["tracer"] = tracer
            print(f"# op {len(ops)} traced={int(traced)} {seconds:.3f}s "
                  f"{'ok' if op['passed'] else 'FAILED'} {note}", flush=True)
            ops.append(op)
    return ops


def per_metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
