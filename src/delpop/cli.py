"""Command-line entry point for reproducible experiments.

Subcommands: simulate (distribution -> trace file), estimate (traces ->
moment estimates), recover (end-to-end pipeline, on a trace file or on
traces sampled from a distribution), distinguish (brute-force reference
learner), oracle-check (estimator unbiasedness sweep).

Each subcommand takes only the options it reads (`_MODES`); any other is
a parameter error.  A config file of `key = value` lines is read as the
flags `--key=value`, ahead of the command line's own, so flags win over
the file and a key the subcommand does not read is refused as its flag
would be.  Every run writes a manifest (the options that ran, with the
n, p and m it took from its input, seed, versions) next to its output.
Exit codes: 0 ok, 2 parameter error, 3 recovery failed, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __name__ as _pkg
from .core import (
    BitString,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    load_distribution,
    moment_powers,
    save_distribution,
)
from .channel import read_trace_file, write_trace_file
from .estimator import TraceHistogram
from .oracle import exact_g_expectation, exact_moments
from .recovery import (
    RecoveryConfig,
    channel_trace_source,
    exhaustive_distinguisher,
    recover,
    recover_from_channel,
)
from .zgrid import recovery_grid, unit_roots

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_RECOVERY = 3
EXIT_IO = 4

# option -> (type, default, help); the manifest lists the options in this order
_OPTIONS = {
    "seed": (int, 0, "random seed; also the run's label in the manifest"),
    "samples": (int, RecoveryConfig.sample_count, "number of traces to sample or use"),
    "p": (float, 0.9, "retention probability of the deletion channel"),
    "n": (int, 8, "string length"),
    "ell": (int, 2, "sparsity bound; moment orders 1..2*ell - 1 are used"),
    "eps": (float, 0.1, "target TV error; sets the weight pitch"),
    "grid_points": (int, 25, "odd number of grid points, the roots of unity of that order"),
    "out": (str, "out.json", "output file"),
    "dist": (str, None, "distribution JSON file"),
    "traces": (str, None, "trace file"),
    "m": (int, 3, "highest moment order"),
    "config": (str, None, "file of key = value lines; flags override"),
}


def _read_config_file(path) -> list:
    """The `key = value` lines of a config file as `--key=value` flags."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"config file is not UTF-8: {exc}")
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise ParameterError("a config file cannot name another config file")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


@functools.cache  # a pure function of _MODES and _OPTIONS; parsing leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="delpop", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, names) in _MODES.items():
        mode_parser = sub.add_parser(mode, allow_abbrev=False)
        for name in ("config", "out", "seed", *names):
            kind, default, text = _OPTIONS[name]
            mode_parser.add_argument(
                "--" + name.replace("_", "-"), type=kind, default=default, help=text
            )
    # recover --traces takes p from the file's header, so a missing --p must show
    sub.choices["recover"].set_defaults(p=None)
    return parser


def _parse_options(argv) -> dict:
    """Options of the mode argv[0] names: its defaults, then the --config
    file's lines, then argv's own flags, each overriding the one before."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args([argv[0], *_read_config_file(args.config), *argv[1:]])
    opts = vars(args)
    if "ell" in opts:  # the modes that read ell use moment orders 1..2*ell - 1
        if opts["ell"] < 1:
            raise ParameterError(f"ell must be a positive integer, got {opts['ell']}")
        opts["m"] = 2 * opts["ell"] - 1
    return opts


def _manifest(opts) -> dict:
    return {
        "mode": opts["mode"],
        "options": {k: opts[k] for k in _OPTIONS if k in opts and k != "config"},
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


def emit_report(distribution: SparseDistribution | None, diagnostics: dict, path) -> None:
    """Write the distribution, null for a failed recovery, and the
    diagnostics as JSON (the manifest holds the seed and the traces used),
    plus a per-grid-point CSV: one row per point with z and the standard
    error of each moment order."""
    payload = {
        "distribution": None if distribution is None else distribution.to_json_dict(),
        "diagnostics": diagnostics,
    }
    _write_json(path, payload)
    points = diagnostics.get("points", [])
    with open(str(path) + ".csv", "w", newline="") as fh:
        if points:
            writer = csv.DictWriter(fh, fieldnames=list(points[0]))
            writer.writeheader()
            writer.writerows(points)


def _load_dist(opts) -> SparseDistribution:
    """--dist, whose n the manifest records."""
    d = load_distribution(opts["dist"])
    opts["n"] = d.n
    return d


def _cmd_simulate(opts) -> int:
    """The traces that `recover --dist` samples for the same seed, written
    batch by batch."""
    if not opts["dist"]:
        raise ParameterError("simulate requires --dist")
    d = _load_dist(opts)
    if opts["samples"] < 1:
        raise ParameterError("samples must be >= 1")
    config = RecoveryConfig(sample_count=opts["samples"], seed=opts["seed"])
    write_trace_file(opts["out"], channel_trace_source(d, opts["p"], config), opts["p"], opts["seed"])
    return EXIT_OK


def _read_traces(opts):
    """(p from the header, padded trace rows, traces to use) of --traces;
    the manifest records the file's p and n and the traces used."""
    header, traces = read_trace_file(opts["traces"])
    try:
        p = float(header["p"])
    except (KeyError, ValueError):
        raise ParameterError("trace file header must give a numeric p=")
    opts["p"], opts["n"] = p, traces.shape[1]
    opts["samples"] = min(opts["samples"], len(traces))
    return p, traces, opts["samples"]


def _cmd_estimate(opts) -> int:
    if not opts["traces"]:
        raise ParameterError("estimate requires --traces")
    p, traces, count = _read_traces(opts)
    hist = TraceHistogram.from_batches([traces], traces.shape[1], count)
    est = hist.estimates(unit_roots(opts["grid_points"]), opts["m"], p, covariance=False)
    with open(opts["out"], "w") as fh:
        fh.write(est.to_json() + "\n")
    return EXIT_OK


def _cmd_recover(opts) -> int:
    """Recover from a trace file (--traces; p and n from the file) or from
    traces sampled out of a known distribution (--dist).  A failed recovery
    still writes its report, with the diagnostics the error carries."""
    if bool(opts["traces"]) == bool(opts["dist"]):
        raise ParameterError("recover requires exactly one of --traces and --dist")
    config = RecoveryConfig(sample_count=opts["samples"], seed=opts["seed"])
    try:
        if opts["traces"]:
            if opts["p"] is not None:
                raise ParameterError("recover --traces takes p from the trace file's header")
            p, traces, count = _read_traces(opts)
            params = ProblemParams(n=traces.shape[1], ell=opts["ell"], p=p)
            result = recover([traces], params, dataclasses.replace(config, sample_count=count))
        else:
            d = _load_dist(opts)
            opts["p"] = _OPTIONS["p"][1] if opts["p"] is None else opts["p"]
            params = ProblemParams(n=d.n, ell=opts["ell"], p=opts["p"])
            result = recover_from_channel(d, params, config)
    except RecoveryFailedError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        emit_report(None, exc.diagnostics, opts["out"])
        return EXIT_RECOVERY
    emit_report(result.distribution, result.diagnostics, opts["out"])
    return EXIT_OK


def _cmd_distinguish(opts) -> int:
    if not opts["dist"]:
        raise ParameterError("distinguish requires --dist")
    d = _load_dist(opts)
    est = exact_moments(d, recovery_grid(d.n, opts["ell"]), opts["m"])
    out = exhaustive_distinguisher(est, d.n, opts["ell"], opts["eps"])
    save_distribution(out, opts["out"])
    return EXIT_OK


def _cmd_oracle_check(opts) -> int:
    """Unbiasedness sweep: max |E[g_k] - P^k| over random n-bit strings, k =
    1..m and five points, one exact law per string (it takes n <= 12)."""
    n, m = opts["n"], opts["m"]
    if n < 1 or m < 1:
        raise ParameterError(f"oracle-check needs n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(opts["seed"])
    zs = [complex(np.cos(t), np.sin(t)) for t in (-0.8, -0.35, 0.0, 0.35, 0.8)]
    worst = 0.0
    for _ in range(10):
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=n)))
        gap = exact_g_expectation(x, zs, m, opts["p"]) - moment_powers([x], zs, m)[:, :, 0]
        worst = max(worst, float(np.max(np.abs(gap))))
    _write_json(opts["out"], {"n": n, "max_unbiasedness_deviation": worst})
    return EXIT_OK if worst <= 1e-8 else EXIT_RECOVERY


# mode -> (command, the options it reads besides config, out and seed)
_MODES = {
    "simulate": (_cmd_simulate, ("dist", "p", "samples")),
    "estimate": (_cmd_estimate, ("traces", "ell", "samples", "grid_points")),
    "recover": (_cmd_recover, ("traces", "dist", "p", "ell", "samples")),
    "distinguish": (_cmd_distinguish, ("dist", "ell", "eps")),
    "oracle-check": (_cmd_oracle_check, ("n", "m", "p")),
}


def run(argv) -> int:
    try:
        opts = _parse_options(argv)
        code = _MODES[opts["mode"]][0](opts)
        _write_json(str(opts["out"]) + ".manifest.json", _manifest(opts))
        return code
    except SystemExit as exc:  # argparse printed its usage error, or the help
        return EXIT_OK if exc.code in (0, None) else EXIT_PARAMETER
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except RecoveryFailedError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
