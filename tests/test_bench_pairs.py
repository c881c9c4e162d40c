import importlib.util
import json
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = {"median": 100.0, "q1": 95.0, "q3": 105.0, "min": 90.0, "max": 110.0}


@pytest.mark.parametrize("direction, sign", [("higher", 1), ("lower", -1)])
def test_claim_met_needs_nine_tenths_of_pairs_and_a_gain_above_the_base_iqr(direction, sign):
    verdict = _bench_pairs().verdict
    better = {"median": 100.0 + sign * 10.5, "q1": 0.0, "q3": 0.0, "min": 0.0, "max": 0.0}
    assert verdict(BASE, better, 9, 10, direction, 0.25)["claim_met"]
    assert not verdict(BASE, better, 8, 10, direction, 0.25)["claim_met"]
    # a gain equal to q3 - q1
    at_iqr = {"median": 100.0 + sign * 10.0, "q1": 0.0, "q3": 0.0, "min": 0.0, "max": 0.0}
    assert not verdict(BASE, at_iqr, 10, 10, direction, 0.25)["claim_met"]


@pytest.mark.parametrize("direction, sign", [("higher", 1), ("lower", -1)])
def test_within_bound_holds_at_the_bound_edge(direction, sign):
    verdict = _bench_pairs().verdict
    edge = {"median": 100.0 - sign * 25.0, "q1": 0.0, "q3": 0.0, "min": 0.0, "max": 0.0}
    past = {"median": 100.0 - sign * 25.5, "q1": 0.0, "q3": 0.0, "min": 0.0, "max": 0.0}
    assert verdict(BASE, edge, 0, 10, direction, 0.25)["within_bound"]
    assert not verdict(BASE, past, 0, 10, direction, 0.25)["within_bound"]


@pytest.mark.parametrize("direction", ["higher", "lower"])
def test_unresolved_when_the_base_spreads_past_the_bound_and_the_runs_overlap(direction):
    # the base's q3 - q1 is 10% of its median, past a 5% bound
    verdict = _bench_pairs().verdict
    overlapping = {"median": 100.0, "q1": 98.0, "q3": 102.0, "min": 90.0, "max": 110.0}
    assert verdict(BASE, overlapping, 5, 10, direction, 0.05)["unresolved"]
    assert not verdict(BASE, overlapping, 5, 10, direction, 0.1)["unresolved"]


@pytest.mark.parametrize("direction, sign", [("higher", 1), ("lower", -1)])
@pytest.mark.parametrize("nearest, unresolved", [(10.5, False), (10.0, True)])
def test_resolved_only_when_every_change_run_beats_every_base_run(direction, sign, nearest,
                                                                  unresolved):
    # the same wide base, whose best run lies 10 past its median; the
    # change's runs lie `nearest` to 20 past it on the better side
    verdict = _bench_pairs().verdict
    low, high = sorted([100.0 + sign * nearest, 100.0 + sign * 20.0])
    change = {"median": 100.0 + sign * 15.0, "q1": 0.0, "q3": 0.0, "min": low, "max": high}
    assert verdict(BASE, change, 10, 10, direction, 0.05)["unresolved"] == unresolved


@pytest.mark.parametrize("ties, met", [(1, True), (2, False)])
def test_ties_count_for_neither_side(tmp_path, monkeypatch, ties, met):
    # ten pairs, the change better on every pair but `ties` of them, where
    # it equals the base: one tie leaves 9/10 wins, two leave 8/10
    tool = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "up", "better": "higher", "bound": 0.25},
                       {"name": "down", "better": "lower", "bound": 0.25}],
    }))
    runs = {"base": 0, "change": 0}

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "base" if checkout.name == "base" else "change"
        runs[side] += 1
        gain = 0.0 if side == "base" or runs[side] <= ties else 20.0 + runs[side]
        return {"attempted": 1, "failed": 0,
                "metrics": {"up": 100.0 + gain, "down": 100.0 - gain}}

    monkeypatch.setattr(tool, "run_once", fake_run)
    (tmp_path / "base").mkdir()
    out = tmp_path / "record.json"
    assert tool.main(["--base", str(tmp_path / "base"), "--change", str(tmp_path), "--seed", "1",
                      "--pairs", "10", "--seconds", "1", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["w"]
    for name in ("up", "down"):
        assert entry["change_wins"][name] == 10 - ties
        assert entry["verdict"][name] == {"claim_met": met, "within_bound": True,
                                          "unresolved": False}


def test_fewer_than_two_pairs_fail_at_argument_parsing(tmp_path, monkeypatch, capsys):
    tool = _bench_pairs()

    def refused(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(tool, "run_once", refused)
    out = tmp_path / "record.json"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--base", str(tmp_path), "--change", str(tmp_path), "--seed", "1",
                   "--pairs", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()
