"""Command-line entry point for reproducible experiments.

Subcommands: simulate (distribution -> trace file), estimate (traces ->
moment estimates), recover (end-to-end pipeline), distinguish (brute-force
reference learner), oracle-check (estimator unbiasedness sweep).

Options can come from a config file of `key = value` lines; flags win over
the file.  Every run writes a manifest (config echo, seed, versions) next
to its output.  Exit codes: 0 ok, 2 parameter error, 3 recovery failed,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import __name__ as _pkg
from .core import (
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    load_distribution,
    power_sum,
)
from .channel import ChannelConfig, read_trace_file, sample_trace_batch, write_trace_file
from .estimator import accumulate_moments
from .oracle import exact_g_expectation, exact_moments
from .core import eval_poly, BitString
from .recovery import (
    MarginError,
    RecoveryConfig,
    RecoveryResult,
    exhaustive_distinguisher,
    recover_from_channel,
)
from .zgrid import GridSpec, build_arc_grid

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_RECOVERY = 3
EXIT_IO = 4


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="delpop", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file; flags override")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--samples", type=int, default=None)
    common.add_argument("--p", type=float, default=None)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--ell", type=int, default=None)
    common.add_argument("--eps", type=float, default=None)
    common.add_argument("--grid-points", type=int, default=None)
    common.add_argument("--grid-spacing", type=float, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--dist", help="distribution JSON file")
    common.add_argument("--traces", help="trace file")
    common.add_argument("--m", type=int, default=None, help="max moment order")

    sub.add_parser("simulate", parents=[common])
    sub.add_parser("estimate", parents=[common])
    sub.add_parser("recover", parents=[common])
    sub.add_parser("distinguish", parents=[common])
    sub.add_parser("oracle-check", parents=[common])
    return parser


_DEFAULTS = {
    "seed": 0,
    "samples": 10000,
    "p": 0.9,
    "n": 8,
    "ell": 2,
    "eps": 0.1,
    "grid_points": 25,
    "grid_spacing": 0.23,
    "out": "out.json",
    "dist": None,
    "traces": None,
    "m": 3,
}

_CASTS = {k: type(v) for k, v in _DEFAULTS.items() if v is not None}


def _merge_options(args) -> dict:
    opts = dict(_DEFAULTS)
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in opts:
                raise ParameterError(f"unknown config key {key!r}")
            cast = _CASTS.get(key, str)
            opts[key] = cast(raw)
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _manifest(opts, mode) -> dict:
    return {
        "mode": mode,
        "options": {k: v for k, v in opts.items()},
        "package": _pkg,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, default=str)
        fh.write("\n")


def emit_report(result: RecoveryResult, path) -> None:
    """Write the result JSON plus a per-grid-point diagnostics CSV."""
    payload = {
        "distribution": result.distribution.to_json_dict(),
        "diagnostics": result.diagnostics,
        "seed": result.seed,
        "config": result.config,
    }
    _write_json(path, payload)
    csv_path = str(path) + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["record", "key", "value"])
        for key, value in sorted(result.diagnostics.items()):
            writer.writerow(["diagnostic", key, json.dumps(value, default=str)])


def _cmd_simulate(opts) -> int:
    if not opts["dist"]:
        raise ParameterError("simulate requires --dist")
    d = load_distribution(opts["dist"])
    cfg = ChannelConfig(opts["p"], opts["seed"])
    rng = np.random.default_rng(opts["seed"])
    bits, counts = sample_trace_batch(d, cfg, opts["samples"], rng)
    rows = ["".join(str(int(b)) for b in row) for row in bits]
    write_trace_file(opts["out"], rows, d.n, opts["p"], opts["seed"])
    return EXIT_OK


def _cmd_estimate(opts) -> int:
    if not opts["traces"]:
        raise ParameterError("estimate requires --traces")
    header, traces = read_trace_file(opts["traces"])
    try:
        p = float(header["p"])
    except (KeyError, ValueError):
        raise ParameterError("trace file header must give a numeric p=")
    params = ProblemParams(n=traces.shape[1], ell=opts["ell"], p=p, eps=opts["eps"])
    config = RecoveryConfig(
        sample_count=min(opts["samples"], len(traces)),
        grid_points=opts["grid_points"],
        grid_spacing=opts["grid_spacing"],
        seed=opts["seed"],
    )
    grid = build_arc_grid(config.grid_spec())
    est = accumulate_moments([traces], grid, 2 * params.ell - 1, params, config.sample_count)
    with open(opts["out"], "w") as fh:
        fh.write(est.to_json() + "\n")
    return EXIT_OK


def _cmd_recover(opts) -> int:
    if not opts["dist"]:
        raise ParameterError("recover requires --dist (ground-truth sampling source)")
    d = load_distribution(opts["dist"])
    params = ProblemParams(n=d.n, ell=opts["ell"], p=opts["p"], eps=opts["eps"])
    config = RecoveryConfig(
        sample_count=opts["samples"],
        grid_points=opts["grid_points"],
        grid_spacing=opts["grid_spacing"],
        seed=opts["seed"],
    )
    result = recover_from_channel(d, params, config)
    emit_report(result, opts["out"])
    return EXIT_OK


def _cmd_distinguish(opts) -> int:
    if not opts["dist"]:
        raise ParameterError("distinguish requires --dist")
    d = load_distribution(opts["dist"])
    params = ProblemParams(n=d.n, ell=opts["ell"], p=opts["p"], eps=opts["eps"])
    config = RecoveryConfig(
        grid_points=opts["grid_points"],
        grid_spacing=opts["grid_spacing"],
        seed=opts["seed"],
    )
    grid = build_arc_grid(config.grid_spec())
    est = exact_moments(d, grid, 2 * params.ell - 1)
    out = exhaustive_distinguisher(est, params)
    _write_json(opts["out"], out.to_json_dict())
    return EXIT_OK


def _cmd_oracle_check(opts) -> int:
    """Unbiasedness sweep: max |E[g_m] - P^m| over random strings."""
    rng = np.random.default_rng(opts["seed"])
    n = min(opts["n"], 8)
    zs = [complex(np.cos(t), np.sin(t)) for t in (-0.8, -0.35, 0.0, 0.35, 0.8)]
    worst = 0.0
    for _ in range(10):
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=n)))
        for m in range(1, opts["m"] + 1):
            for z in zs:
                got = exact_g_expectation(x, z, m, opts["p"])
                want = eval_poly(x, z) ** m
                worst = max(worst, abs(got - want))
    _write_json(opts["out"], {"max_unbiasedness_deviation": worst})
    return EXIT_OK if worst <= 1e-8 else EXIT_RECOVERY


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "recover": _cmd_recover,
    "distinguish": _cmd_distinguish,
    "oracle-check": _cmd_oracle_check,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARAMETER if exc.code not in (0, None) else EXIT_OK
    try:
        opts = _merge_options(args)
        code = _COMMANDS[args.mode](opts)
        _write_json(str(opts["out"]) + ".manifest.json", _manifest(opts, args.mode))
        return code
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (RecoveryFailedError, MarginError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
