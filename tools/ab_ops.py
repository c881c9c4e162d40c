"""Alternating timings of one benchmark workload on two checkouts of delpop
in one process.

    git archive --prefix=base/ BASE_COMMIT | tar -x -C WORKDIR
    python3 tools/ab_ops.py --base WORKDIR/base --change . \
        --workload estimate-n48-l3 --seed 1 --rounds 100

Each checkout's src/delpop is copied into a temporary directory under the
package names delpop_base and delpop_change (delpop imports itself only
relatively), and both are imported.  Each side's input comes from the
change's perfbench/workloads.py with the same seed, so the sides run on
equal inputs.  Each round runs one operation per side, alternating which
side goes first, so that drift in the machine's load falls on both.  Every
operation's output is checked by the workload.  BLAS and OpenMP threads are
capped as perfbench/run.py caps them.

The last line printed is one JSON object: each side's median, quartiles,
minimum and maximum of the operation seconds and its failed operations;
`speedup`, the base's median seconds divided by the change's (above 1
when the change is faster); and `same_output`, whether every checked
output of the change equals every one of the base.  perfbench/ is only
read.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import summary  # noqa: E402  (median, quartiles, min and max)

SIDES = ("base", "change")


def load_package(checkout: Path, name: str, into: Path):
    """Import the checkout's src/delpop under `name`, copied into `into`."""
    shutil.copytree(checkout / "src" / "delpop", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    for sub in ("core", "channel", "coeffs", "recovery", "cli"):
        importlib.import_module(f"{name}.{sub}")
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=100)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: each side's quartiles need two operations")

    bench = args.change.resolve() / "perfbench"
    sys.path.insert(0, str(bench))
    run = importlib.import_module("run")
    run.cap_threads()
    workloads = importlib.import_module("workloads")  # numpy comes in here, after the cap
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    seconds = {side: [] for side in SIDES}
    failed = {side: 0 for side in SIDES}
    outputs = {side: set() for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "packages"))
        sides = {}
        for side, checkout in (("base", args.base), ("change", args.change)):
            package = load_package(checkout.resolve(), f"delpop_{side}", tmp / "packages")
            workdir = tmp / side
            workdir.mkdir()
            sides[side] = workloads.WORKLOADS[args.workload](package, args.seed, workdir)
        for i in range(args.rounds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                start = time.perf_counter()
                result = sides[side].operate()
                seconds[side].append(time.perf_counter() - start)
                passed, output, _, _ = sides[side].check(result)
                failed[side] += not passed
                if passed:
                    outputs[side].add(repr(output))
    record = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds}
    for side in SIDES:
        record[side] = {**summary(seconds[side]), "failed": failed[side]}
    record["speedup"] = record["base"]["median"] / record["change"]["median"]
    record["same_output"] = len(outputs["base"] | outputs["change"]) == 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
