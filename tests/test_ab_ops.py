import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab_ops():
    spec = importlib.util.spec_from_file_location("ab_ops", ROOT / "tools" / "ab_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_rounds_on_one_checkout(capsys, monkeypatch):
    # the tool caps the BLAS threads and imports perfbench's runner and
    # workloads and the two package copies by name: the environment, the
    # import path and the module table are restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    try:
        assert _ab_ops().main(["--base", str(ROOT), "--change", str(ROOT), "--workload",
                               "estimate-n48-l3", "--seed", "1", "--rounds", "2"]) == 0
    finally:
        loaded = ("run", "workloads", "layers", "bench_pairs", "delpop_base", "delpop_change")
        for name in [m for m in sys.modules if m.split(".")[0] in loaded]:
            del sys.modules[name]
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["base"]["failed"] == 0 and record["change"]["failed"] == 0
    assert math.isfinite(record["speedup"]) and record["speedup"] > 0
    assert record["same_output"]
