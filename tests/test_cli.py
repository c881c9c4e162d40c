import csv
import json

import pytest

from delpop.cli import EXIT_IO, EXIT_OK, EXIT_PARAMETER, EXIT_RECOVERY, emit_report, run
from delpop.core import BitString, SparseDistribution, save_distribution
from delpop.channel import read_trace_file
from delpop.recovery import RecoveryConfig


@pytest.fixture
def dist_file(tmp_path):
    d = SparseDistribution(
        (BitString.from_string("10101010"), BitString.from_string("01010101")),
        (0.6, 0.4),
    )
    path = tmp_path / "dist.json"
    save_distribution(d, path)
    return d, path


def test_simulate_writes_trace_file(tmp_path, dist_file):
    d, dist_path = dist_file
    out = tmp_path / "traces.txt"
    code = run(
        ["simulate", "--dist", str(dist_path), "--samples", "200", "--p", "0.9",
         "--seed", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, traces = read_trace_file(out)
    assert header["n"] == "8"
    assert len(traces) == 200
    manifest = json.loads((tmp_path / "traces.txt.manifest.json").read_text())
    assert manifest["mode"] == "simulate"
    assert manifest["options"]["seed"] == 4
    assert "python" in manifest["versions"]


def test_simulate_default_sample_count_is_the_library_default(tmp_path, dist_file):
    _, dist_path = dist_file
    out = tmp_path / "traces.txt"
    assert run(["simulate", "--dist", str(dist_path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "traces.txt.manifest.json").read_text())
    assert manifest["options"]["samples"] == RecoveryConfig.sample_count
    assert len(read_trace_file(out)[1]) == RecoveryConfig.sample_count


def test_simulate_requires_dist(tmp_path):
    assert run(["simulate", "--out", str(tmp_path / "x")]) == EXIT_PARAMETER


def test_missing_traces_file_is_io_error(tmp_path):
    code = run(
        ["estimate", "--traces", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "text",
    [
        "#p=0.9 seed=0\n1010\n",  # header without n=
        "#n=4 p=0.9 seed\n1010\n",  # header token without =
        "#n=4 p=0.9 seed=0\n1012\n",  # a 2 in a row
        "#n=4 p=0.9 seed=0\n1010\n101\n",  # a short row
        "#n=4 p=0.9 seed=0\n1010\n\n1100\n",  # a blank line
        "#n=4 p=0.9 seed=0\n1010\r\n1100\r\n",  # \r\n line ends
        "#n=4 p=0.9 seed=0\n1010\n1100",  # no final newline
    ],
    ids=["missing-n", "bad-token", "bad-char", "short-row", "blank-line", "crlf",
         "no-final-newline"],
)
def test_estimate_rejects_malformed_trace_file(tmp_path, text):
    traces = tmp_path / "traces.txt"
    traces.write_text(text)
    code = run(["estimate", "--traces", str(traces), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_PARAMETER


@pytest.mark.parametrize("mode", ["estimate", "recover"])
@pytest.mark.parametrize(
    "text, samples",
    [("#n=4 p=0.9 seed=0\n1010\n1100\n", "0"), ("#n=4 p=0.9 seed=0\n", "100")],
    ids=["samples-0", "header-only"],
)
def test_trace_modes_refuse_zero_traces(tmp_path, mode, text, samples):
    traces = tmp_path / "traces.txt"
    traces.write_text(text)
    argv = [mode, "--traces", str(traces), "--ell", "1", "--samples", samples,
            "--out", str(tmp_path / "o.json")]
    assert run(argv) == EXIT_PARAMETER


@pytest.mark.parametrize("mode", ["estimate", "recover"])
@pytest.mark.parametrize("p", ["0", "1", "1.5"])
def test_trace_modes_refuse_header_p_outside_zero_one(tmp_path, mode, p):
    traces = tmp_path / "traces.txt"
    traces.write_text(f"#n=4 p={p} seed=0\n1010\n1100\n")
    argv = [mode, "--traces", str(traces), "--ell", "1", "--out", str(tmp_path / "o.json")]
    assert run(argv) == EXIT_PARAMETER


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "support": ["10"], "weights": [1.0]',  # truncated JSON
        '{"n": "x", "support": ["10"], "weights": [1.0]}',  # n not an integer
        '{"n": 2, "support": ["10"], "weights": ["a"]}',  # weight not a number
        '{"n": 2, "support": ["10", "01"], "weights": [NaN, 1.0]}',  # NaN weight
        '{"n": 2.7, "support": ["10"], "weights": [1.0]}',  # int() would read n = 2
        '{"n": true, "support": ["1"], "weights": [1.0]}',  # int() would read n = 1
        '{"n": 2, "support": ["10"], "weights": "1"}',  # float() would read the weight 1.0
        '{"n": 2, "support": ["10"], "weights": ["1"]}',  # float() would read the weight 1.0
        '{"n": 2, "support": [["1", "0"]], "weights": [1.0]}',  # a list of bits, not a string
    ],
    ids=["truncated", "bad-n", "bad-weight", "nan-weight", "fractional-n", "bool-n", "string-weights",
         "string-weight", "list-support-entry"],
)
@pytest.mark.parametrize("mode", ["simulate", "recover", "distinguish"])
def test_dist_modes_reject_malformed_distribution_file(tmp_path, text, mode):
    dist = tmp_path / "dist.json"
    dist.write_text(text)
    code = run([mode, "--dist", str(dist), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_PARAMETER


def test_estimate_roundtrip(tmp_path, dist_file):
    d, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "5000", "--p", "0.9",
         "--out", str(traces)])
    out = tmp_path / "moments.json"
    code = run(
        ["estimate", "--traces", str(traces), "--samples", "5000", "--ell", "2",
         "--grid-points", "9", "--out", str(out)]
    )
    assert code == EXIT_OK
    recs = json.loads(out.read_text())
    assert len(recs) == 9 * 4  # 9 grid points, k = 0..3
    assert all(rec["count"] == 5000 for rec in recs)


def test_estimate_takes_the_means_alone(tmp_path, monkeypatch):
    # estimate writes means only: it never forms the covariance over the
    # leaves nor builds the trie levels below bit 8, and its means are
    # that path's
    import numpy as np

    from delpop import estimator
    from delpop.estimator import TraceHistogram
    from delpop.zgrid import unit_roots

    dist_path = tmp_path / "dist.json"
    d = SparseDistribution(
        (BitString.from_string("10110100111010110010"), BitString.from_string("01101101000111010101")),
        (0.6, 0.4))
    save_distribution(d, dist_path)
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "3000", "--p", "0.7", "--out", str(traces)])
    _, bits = read_trace_file(traces)
    want = TraceHistogram.from_batches([bits], 20, len(bits)).estimates(unit_roots(9), 3, 0.7)

    def refused(*args):
        raise AssertionError("estimate formed the covariance")

    stops = []

    def plan(rows, stop, top=None):
        stops.append(stop)
        return trie_plan(rows, stop, top)

    trie_plan = estimator._trie_plan
    monkeypatch.setattr(estimator, "_trie_plan", plan)
    monkeypatch.setattr(TraceHistogram, "_leaf_moments", refused)
    out = tmp_path / "moments.json"
    assert run(["estimate", "--traces", str(traces), "--ell", "2", "--samples", "3000",
                "--grid-points", "9", "--out", str(out)]) == EXIT_OK
    assert stops == [2]
    recs = json.loads(out.read_text())
    got = np.array([complex(*rec["mean"]) for rec in recs]).reshape(9, 4)
    assert np.all(np.abs(got - want.means) <= 1e-12 * np.abs(want.means))


def test_recover_end_to_end(tmp_path, dist_file):
    d, dist_path = dist_file
    out = tmp_path / "result.json"
    code = run(
        ["recover", "--dist", str(dist_path), "--samples", "200000", "--p", "0.9",
         "--ell", "2", "--seed", "0", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    got = SparseDistribution.from_json_dict(payload["distribution"])
    from delpop.core import tv_distance

    assert tv_distance(got, d) <= 0.1
    # per-grid-point diagnostics CSV written next to the JSON
    with open(str(out) + ".csv") as fh:
        rows = list(csv.reader(fh))
    # one row per grid point: z, stderr of b_1..b_3
    assert rows[0] == ["z_real", "z_imag", "stderr_1", "stderr_2", "stderr_3"]
    assert len(rows) == 1 + 2 * 2 * 8 + 1
    assert all(float(row[2]) > 0 for row in rows[1:])


def test_recover_from_trace_file(tmp_path):
    # p comes from the trace file's header and n from its rows
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("011011")), (0.6, 0.4)
    )
    dist_path = tmp_path / "dist.json"
    save_distribution(d, dist_path)
    traces = tmp_path / "traces.txt"
    assert run(["simulate", "--dist", str(dist_path), "--samples", "100000", "--p", "0.8",
                "--seed", "0", "--out", str(traces)]) == EXIT_OK
    out = tmp_path / "result.json"
    assert run(["recover", "--traces", str(traces), "--ell", "2", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    got = SparseDistribution.from_json_dict(payload["distribution"])
    from delpop.core import tv_distance

    assert got.support == d.support
    assert tv_distance(got, d) <= 0.1
    manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert manifest["options"]["samples"] == 100000


def test_simulate_writes_the_traces_that_recover_dist_samples(tmp_path, dist_file):
    # simulate --seed s and then recover --traces recover what recover
    # --dist --seed s recovers, on a count that ends inside a second batch
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    common = ["--samples", "70000", "--p", "0.8", "--seed", "3"]
    assert run(["simulate", "--dist", str(dist_path), *common, "--out", str(traces)]) == EXIT_OK
    assert len(read_trace_file(traces)[1]) == 70000
    payloads = []
    for source in (["--traces", str(traces), "--samples", "70000"], ["--dist", str(dist_path), *common]):
        out = tmp_path / f"result{len(payloads)}.json"
        assert run(["recover", *source, "--ell", "2", "--out", str(out)]) == EXIT_OK
        payloads.append(json.loads(out.read_text()))
    from_file, from_dist = payloads
    assert from_file["distribution"] == from_dist["distribution"]
    assert from_file["diagnostics"]["points"] == from_dist["diagnostics"]["points"]


@pytest.mark.parametrize("p", ["0", "1", "1.5"])
def test_simulate_refuses_p_outside_zero_one_before_writing(tmp_path, dist_file, p):
    _, dist_path = dist_file
    out = tmp_path / "traces.txt"
    assert run(["simulate", "--dist", str(dist_path), "--p", p, "--out", str(out)]) == EXIT_PARAMETER
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_simulate_refuses_fewer_than_one_sample(tmp_path, dist_file, samples):
    _, dist_path = dist_file
    code = run(["simulate", "--dist", str(dist_path), "--samples", samples,
                "--out", str(tmp_path / "traces.txt")])
    assert code == EXIT_PARAMETER


@pytest.mark.parametrize("mode", ["estimate", "recover"])
def test_trace_modes_record_the_traces_that_ran(tmp_path, mode):
    # --samples beyond the file's 200 traces runs on all 200, and the
    # manifest says 200
    d = SparseDistribution((BitString.from_string("101101"),), (1.0,))
    dist_path = tmp_path / "dist.json"
    save_distribution(d, dist_path)
    traces = tmp_path / "traces.txt"
    assert run(["simulate", "--dist", str(dist_path), "--samples", "200", "--out",
                str(traces)]) == EXIT_OK
    out = tmp_path / "o.json"
    argv = [mode, "--traces", str(traces), "--ell", "1", "--samples", "500", "--out", str(out)]
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
    assert manifest["options"]["samples"] == 200
    payload = json.loads(out.read_text())
    if mode == "estimate":
        assert all(rec["count"] == 200 for rec in payload)
    else:
        assert set(payload) == {"distribution", "diagnostics"}


def test_recover_takes_exactly_one_source(tmp_path, dist_file):
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "100", "--out", str(traces)])
    out = str(tmp_path / "r.json")
    both = ["recover", "--traces", str(traces), "--dist", str(dist_path), "--out", out]
    assert run(both) == EXIT_PARAMETER
    assert run(["recover", "--out", out]) == EXIT_PARAMETER


@pytest.mark.parametrize("mode", ["estimate", "recover"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_trace_modes_reject_p_other_than_the_header(tmp_path, dist_file, mode, source):
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "100", "--p", "0.9",
         "--out", str(traces)])
    argv = [mode, "--traces", str(traces), "--out", str(tmp_path / "o.json")]
    if source == "flag":
        argv += ["--p", "0.5"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 0.5\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == EXIT_PARAMETER
    assert not (tmp_path / "o.json").exists()


def test_trace_modes_accept_p_equal_to_the_header(tmp_path, dist_file):
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "5000", "--p", "0.8",
         "--out", str(traces)])
    out = tmp_path / "m.json"
    assert run(["estimate", "--traces", str(traces), "--out", str(out)]) == EXIT_OK
    # the manifest echoes the p the estimate ran at
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["options"]["p"] == 0.8


@pytest.mark.parametrize("mode", ["estimate", "recover-traces", "recover-dist"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_input_modes_reject_n_other_than_the_input(tmp_path, dist_file, mode, source):
    # dist_file and its traces have n = 8, the old default; 5 must be refused
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "100", "--out", str(traces)])
    cmd, _, given = mode.partition("-")
    given = ["--dist", str(dist_path)] if given == "dist" else ["--traces", str(traces)]
    argv = [cmd, *given, "--out", str(tmp_path / "o.json")]
    if source == "flag":
        argv += ["--n", "5"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 5\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == EXIT_PARAMETER
    assert not (tmp_path / "o.json").exists()


def test_input_modes_accept_n_equal_to_the_input(tmp_path):
    d = SparseDistribution((BitString.from_string("101101"),), (1.0,))
    dist_path = tmp_path / "dist.json"
    save_distribution(d, dist_path)
    traces = tmp_path / "traces.txt"
    assert run(["simulate", "--dist", str(dist_path), "--samples", "3000", "--out",
                str(traces)]) == EXIT_OK
    out = tmp_path / "m.json"
    assert run(["estimate", "--traces", str(traces), "--ell", "1", "--out", str(out)]) == EXIT_OK
    # the manifests echo the n that ran, not the old default of 8
    for path in (traces, out):
        manifest = json.loads((tmp_path / f"{path.name}.manifest.json").read_text())
        assert manifest["options"]["n"] == 6


def _one_string_inputs(tmp_path):
    """A one-string 6-bit distribution and 20 000 of its traces at p = 0.9."""
    dist_path = tmp_path / "dist.json"
    save_distribution(SparseDistribution((BitString.from_string("101101"),), (1.0,)), dist_path)
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "20000", "--out", str(traces)])
    return {"estimate": ["--traces", str(traces)], "recover": ["--traces", str(traces)],
            "distinguish": ["--dist", str(dist_path)]}


@pytest.mark.parametrize("mode", ["estimate", "recover", "distinguish"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_moment_modes_reject_m_other_than_2_ell_minus_1(tmp_path, mode, source):
    # at ell = 2 the moment order is 3; an m of 7 must be refused, not echoed
    argv = [mode, *_one_string_inputs(tmp_path)[mode], "--ell", "2",
            "--out", str(tmp_path / "o.json")]
    if source == "flag":
        argv += ["--m", "7"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 7\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == EXIT_PARAMETER
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("mode", ["estimate", "recover", "distinguish"])
def test_moment_modes_accept_m_equal_to_2_ell_minus_1(tmp_path, mode):
    given = _one_string_inputs(tmp_path)[mode]
    out = tmp_path / "o.json"
    assert run([mode, *given, "--ell", "1", "--out", str(out)]) == EXIT_OK
    # the manifest echoes the order that ran
    manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
    assert manifest["options"]["m"] == 1


@pytest.mark.parametrize("mode", ["estimate", "recover", "distinguish"])
@pytest.mark.parametrize("ell", ["0", "-1"])
def test_moment_modes_refuse_ell_below_1_by_name(tmp_path, capsys, mode, ell):
    argv = [mode, *_one_string_inputs(tmp_path)[mode], "--ell", ell,
            "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert run(argv) == EXIT_PARAMETER
    assert capsys.readouterr().err == f"parameter error: ell must be a positive integer, got {ell}\n"
    assert not (tmp_path / "o.json").exists()


def test_estimate_at_ell_3_runs_at_m_5_without_m(tmp_path):
    given = _one_string_inputs(tmp_path)["estimate"]
    out = tmp_path / "m.json"
    assert run(["estimate", *given, "--ell", "3", "--out", str(out)]) == EXIT_OK
    assert max(rec["k"] for rec in json.loads(out.read_text())) == 5
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["options"]["m"] == 5


def test_estimate_accepts_the_benchmark_argv(tmp_path):
    given = _one_string_inputs(tmp_path)["estimate"]
    out = tmp_path / "m.json"
    argv = ["estimate", *given, "--ell", "3", "--samples", "20000", "--seed", "7",
            "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert all(rec["count"] == 20000 for rec in json.loads(out.read_text()))
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["options"]["seed"] == 7


def test_runs_in_one_process_keep_their_own_options(tmp_path):
    # the parser is built once per process: a run's flags and defaults do
    # not carry over into the next run's options
    given = _one_string_inputs(tmp_path)
    runs = [("estimate", ["--ell", "3", "--samples", "500", "--grid-points", "9", "--seed", "5"]),
            ("recover", ["--ell", "1", "--samples", "20000"]),
            ("estimate", ["--ell", "1"])]
    options = []
    for i, (mode, flags) in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        assert run([mode, *given[mode], *flags, "--out", str(out)]) == EXIT_OK
        options.append(json.loads((tmp_path / f"run{i}.json.manifest.json").read_text())["options"])
    traces = given["estimate"][1]
    assert options[0] == {"seed": 5, "samples": 500, "p": 0.9, "ell": 3, "grid_points": 9,
                          "out": str(tmp_path / "run0.json"), "traces": traces, "m": 5, "n": 6}
    assert options[1] == {"seed": 0, "samples": 20000, "p": 0.9, "ell": 1,
                          "out": str(tmp_path / "run1.json"), "traces": traces, "dist": None,
                          "m": 1, "n": 6}
    assert options[2] == {"seed": 0, "samples": 20000, "p": 0.9, "ell": 1, "grid_points": 25,
                          "out": str(tmp_path / "run2.json"), "traces": traces, "m": 1, "n": 6}


# the options each mode reads besides config, out and seed
_MODE_OPTIONS = {
    "simulate": {"dist", "p", "samples"},
    "estimate": {"traces", "ell", "samples", "grid-points"},
    "recover": {"traces", "dist", "p", "ell", "samples"},
    "distinguish": {"dist", "ell"},
    "oracle-check": {"n", "m", "p"},
}


@pytest.mark.parametrize("mode", sorted(_MODE_OPTIONS))
def test_modes_refuse_options_they_do_not_read(tmp_path, mode):
    inputs = _one_string_inputs(tmp_path)
    dist, traces = inputs["distinguish"][1], inputs["estimate"][1]
    # a run that succeeds, and a valid value for every option
    given = {"simulate": ["--dist", dist, "--samples", "100"],
             "estimate": ["--traces", traces, "--samples", "100", "--grid-points", "9"],
             "recover": ["--traces", traces, "--ell", "1"],
             "distinguish": ["--dist", dist, "--ell", "1"],
             "oracle-check": ["--n", "4", "--m", "1", "--p", "0.5"]}[mode]
    values = {"samples": "100", "p": "0.9", "n": "6", "ell": "1", "eps": "0.2",
              "grid-points": "9", "dist": dist, "traces": traces,
              "m": "1"}
    out = tmp_path / "o.json"
    argv = [mode, *given, "--seed", "1", "--out", str(out)]
    assert run(argv) == EXIT_OK
    cfg = tmp_path / "run.cfg"
    for option in sorted(set(values) - _MODE_OPTIONS[mode]):
        out.unlink(missing_ok=True)
        assert run(argv + [f"--{option}", values[option]]) == EXIT_PARAMETER, option
        cfg.write_text(f"{option.replace('-', '_')} = {values[option]}\n")
        assert run(argv + ["--config", str(cfg)]) == EXIT_PARAMETER, option
        assert not out.exists()


@pytest.mark.parametrize("n, m", [("4", "0"), ("4", "-1"), ("-1", "1")])
def test_oracle_check_rejects_n_or_m_below_1(tmp_path, n, m):
    # at m < 1 no moment order would be checked, and a deviation of 0 reported
    out = tmp_path / "oracle.json"
    assert run(["oracle-check", "--n", n, "--m", m, "--out", str(out)]) == EXIT_PARAMETER
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--ell", "0"], ["--ell", "3"], ["--eps", "0"]])
def test_distinguish_rejects_parameters_it_cannot_run(tmp_path, extra):
    dist = _one_string_inputs(tmp_path)["distinguish"]
    out = tmp_path / "o.json"
    assert run(["distinguish", *dist, *extra, "--out", str(out)]) == EXIT_PARAMETER
    assert not out.exists()


def test_oracle_check_defaults_m_to_3(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle-check", "--n", "4", "--p", "0.5", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "oracle.json.manifest.json").read_text())
    assert manifest["options"]["m"] == 3


def test_config_file_merging(tmp_path, dist_file):
    d, dist_path = dist_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 150\np = 0.9  # retention\nseed = 2\n")
    out = tmp_path / "t.txt"
    code = run(["simulate", "--dist", str(dist_path), "--config", str(cfg),
                "--seed", "9", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "t.txt.manifest.json").read_text())
    assert manifest["options"]["samples"] == 150  # from file
    assert manifest["options"]["seed"] == 9  # flag wins
    _, traces = read_trace_file(out)
    assert len(traces) == 150


def test_config_rejects_unknown_key(tmp_path, dist_file):
    _, dist_path = dist_file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("retention = 0.9\n")
    code = run(["simulate", "--dist", str(dist_path), "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_PARAMETER


def test_config_rejects_uncastable_value(tmp_path, dist_file, capsys):
    _, dist_path = dist_file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = abc\n")
    code = run(["simulate", "--dist", str(dist_path), "--config", str(cfg),
                "--out", str(tmp_path / "o")])
    assert code == EXIT_PARAMETER
    assert "--samples" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n = 4\n\xff\n")
    code = run(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_PARAMETER
    assert capsys.readouterr().err.startswith("parameter error: config file is not UTF-8")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("points", ["24", "0", "-3"])
def test_estimate_rejects_grid_it_cannot_build(tmp_path, dist_file, points):
    # an even or nonpositive count is refused rather than rounded
    _, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "100", "--out", str(traces)])
    code = run(["estimate", "--traces", str(traces), "--grid-points", points,
                "--out", str(tmp_path / "m.json")])
    assert code == EXIT_PARAMETER


def test_oracle_check_mode(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(["oracle-check", "--n", "6", "--m", "2", "--p", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["max_unbiasedness_deviation"] <= 1e-8


@pytest.mark.parametrize("n, code", [(13, EXIT_PARAMETER), (9, EXIT_OK)])
def test_oracle_check_runs_at_requested_n(tmp_path, n, code):
    out = tmp_path / "oracle.json"
    got = run(["oracle-check", "--n", str(n), "--m", "1", "--p", "0.5", "--out", str(out)])
    assert got == code
    if code == EXIT_OK:
        assert json.loads(out.read_text())["n"] == n


def test_distinguish_mode(tmp_path):
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0101")), (0.5, 0.5)
    )
    dist_path = tmp_path / "d.json"
    save_distribution(d, dist_path)
    out = tmp_path / "out.json"
    code = run(["distinguish", "--dist", str(dist_path), "--ell", "2", "--out", str(out)])
    assert code == EXIT_OK
    got = SparseDistribution.from_json_dict(json.loads(out.read_text()))
    from delpop.core import tv_distance

    assert tv_distance(got, d) <= 0.25


def test_emit_report_roundtrip(tmp_path):
    d = SparseDistribution((BitString.from_string("11"),), (1.0,))
    path = tmp_path / "r.json"
    emit_report(d, {"grid_points": 9}, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"distribution", "diagnostics"}
    assert SparseDistribution.from_json_dict(payload["distribution"]) == d
    assert payload["diagnostics"] == {"grid_points": 9}


def test_recover_failure_exits_3_and_names_the_stage(tmp_path, capsys):
    # a 3-string mixture cannot be explained with ell = 1: l' = 1's
    # candidate fails validation, and stderr says so
    d = SparseDistribution(
        (BitString.from_string("111000"), BitString.from_string("000111"),
         BitString.from_string("101010")),
        (0.4, 0.35, 0.25),
    )
    dist_path = tmp_path / "dist.json"
    save_distribution(d, dist_path)
    out = tmp_path / "r.json"
    code = run(["recover", "--dist", str(dist_path), "--ell", "1", "--samples", "20000",
                "--out", str(out)])
    assert code == EXIT_RECOVERY
    err = capsys.readouterr().err
    assert err.startswith("recovery failed: l'=1: candidate [")
    assert err.endswith(": moment validation failed\n")
    # the report keeps the error's diagnostics, with a null distribution
    payload = json.loads(out.read_text())
    assert payload["distribution"] is None
    [record] = payload["diagnostics"]["ell_primes"]
    assert record["ell_prime"] == 1
    assert record["reason"] == "moment validation failed"
    with open(str(out) + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == payload["diagnostics"]["grid_points"]
    assert list(rows[0]) == ["z_real", "z_imag", "stderr_1"]
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["mode"] == "recover"
    assert manifest["options"]["ell"] == 1


def test_unknown_mode_is_parameter_error():
    assert run(["frobnicate"]) == EXIT_PARAMETER
