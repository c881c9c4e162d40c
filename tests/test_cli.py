import csv
import json

import pytest

from delpop.cli import EXIT_IO, EXIT_OK, EXIT_PARAMETER, emit_report, run
from delpop.core import BitString, SparseDistribution, save_distribution
from delpop.channel import read_trace_file
from delpop.recovery import RecoveryResult


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
    ],
    ids=["missing-n", "bad-token", "bad-char", "short-row"],
)
def test_estimate_rejects_malformed_trace_file(tmp_path, text):
    traces = tmp_path / "traces.txt"
    traces.write_text(text)
    code = run(["estimate", "--traces", str(traces), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_PARAMETER


def test_estimate_roundtrip(tmp_path, dist_file):
    d, dist_path = dist_file
    traces = tmp_path / "traces.txt"
    run(["simulate", "--dist", str(dist_path), "--samples", "5000", "--p", "0.9",
         "--out", str(traces)])
    out = tmp_path / "moments.json"
    code = run(
        ["estimate", "--traces", str(traces), "--samples", "5000", "--ell", "2",
         "--grid-points", "9", "--grid-spacing", "0.4", "--out", str(out)]
    )
    assert code == EXIT_OK
    recs = json.loads(out.read_text())
    assert len(recs) == 9 * 4  # 9 grid points, k = 0..3
    assert all(rec["count"] == 5000 for rec in recs)


def test_recover_end_to_end(tmp_path, dist_file):
    d, dist_path = dist_file
    out = tmp_path / "result.json"
    code = run(
        ["recover", "--dist", str(dist_path), "--samples", "200000", "--p", "0.9",
         "--ell", "2", "--grid-points", "25", "--grid-spacing", "0.23",
         "--seed", "0", "--out", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    got = SparseDistribution.from_json_dict(payload["distribution"])
    from delpop.core import tv_distance

    assert tv_distance(got, d) <= 0.1
    # diagnostics CSV written next to the JSON
    with open(str(out) + ".csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["record", "key", "value"]
    assert len(rows) > 1


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


def test_oracle_check_mode(tmp_path):
    out = tmp_path / "oracle.json"
    code = run(["oracle-check", "--n", "6", "--m", "2", "--p", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["max_unbiasedness_deviation"] <= 1e-8


def test_distinguish_mode(tmp_path):
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0101")), (0.5, 0.5)
    )
    dist_path = tmp_path / "d.json"
    save_distribution(d, dist_path)
    out = tmp_path / "out.json"
    code = run(["distinguish", "--dist", str(dist_path), "--ell", "2", "--eps", "0.25",
                "--grid-points", "9", "--grid-spacing", "0.4", "--out", str(out)])
    assert code == EXIT_OK
    got = SparseDistribution.from_json_dict(json.loads(out.read_text()))
    from delpop.core import tv_distance

    assert tv_distance(got, d) <= 0.25


def test_emit_report_roundtrip(tmp_path):
    d = SparseDistribution((BitString.from_string("11"),), (1.0,))
    result = RecoveryResult(distribution=d, diagnostics={"grid_points": 9}, seed=5)
    path = tmp_path / "r.json"
    emit_report(result, path)
    payload = json.loads(path.read_text())
    assert SparseDistribution.from_json_dict(payload["distribution"]) == d
    assert payload["seed"] == 5
    assert payload["diagnostics"] == {"grid_points": 9}


def test_unknown_mode_is_parameter_error():
    assert run(["frobnicate"]) == EXIT_PARAMETER
