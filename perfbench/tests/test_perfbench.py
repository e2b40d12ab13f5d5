"""The benchmark's own tests: python -m pytest perfbench/tests"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import model  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _generated(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    workloads.generate(workload, seed, directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_generator_is_deterministic(tmp_path, workload):
    first = _generated(workload, 7, tmp_path / "a")
    again = _generated(workload, 7, tmp_path / "b")
    other = _generated(workload, 8, tmp_path / "c")
    assert first == again
    assert first != other


def test_oracle_ramp_mix_follows_the_stated_split(tmp_path):
    manifest = workloads.generate("oracle_ramp", 3, tmp_path)
    ratios = [model.ratio(json.loads((tmp_path / name).read_text()))
              for name in manifest["files"]]
    high = sum(r > workloads.RAMP_HIGH[0] for r in ratios)
    assert high == workloads.RAMP_FILES - round(workloads.RAMP_FILES * workloads.RAMP_LOW_SHARE)
    assert max(ratios) < workloads.RAMP_HIGH[1]


def _grid_request(tmp_path, seed=5):
    manifest = workloads.generate("analytic_grid", seed, tmp_path)
    entry = next(e for e in manifest["files"] if e["format"] == "json")
    grid = worker.AnalyticGrid(tmp_path, dict(manifest, files=[entry], cold=0))
    request = grid.requests[0]
    request.prepare()
    return request, request.call(), tmp_path / "out.json"


def test_program_rows_pass_and_predicted_unstable_rows_are_not_failures(tmp_path):
    request, code, out = _grid_request(tmp_path)
    rows = json.loads(out.read_text())["rows"]
    unstable = [row for row in rows if row["status"] == "error"]
    assert len(unstable) == workloads.GRID_UNSTABLE_ROWS
    assert {row["error_type"] for row in unstable} == {"Unstable"}
    assert request.check(code, None) == (workloads.GRID_ROWS, [])


def test_row_with_a_wrong_value_is_counted_as_failed(tmp_path):
    request, code, out = _grid_request(tmp_path)
    payload = json.loads(out.read_text())
    row = next(row for row in payload["rows"] if row["status"] == "ok")
    row["r"] *= 1.0 + 1e-6
    out.write_text(json.dumps(payload))
    assert request.check(code, None) == (workloads.GRID_ROWS, ["wrong_value"])


def test_row_verdicts_at_the_threshold():
    base = model.base_scenario()
    path = "drive.flux_in"
    stable = model.solve_parameter(base, path, 0.5)
    beyond = model.solve_parameter(base, path, 1.2)
    error_row = {"parameter": path, "value": beyond, "status": "error",
                 "error_type": "Unstable", "error": "..."}
    assert model.check_sweep_row(error_row, base, path, beyond, False) is None
    assert model.check_sweep_row(dict(error_row, value=stable), base, path, stable,
                                 False) == "unexpected_error"
    r = model.squeeze_r(0.5)
    f, _ = model.coupling(model.with_parameter(base, path, stable))
    ok_row = {"parameter": path, "value": str(stable), "status": "ok", "f": str(f),
              "r": str(r), "P_0": str(1 / math.cosh(r) ** 2),
              "S_X_c": str(0.5 * math.expm1(-2 * r))}
    assert model.check_sweep_row(ok_row, base, path, stable, False) is None
    assert model.check_sweep_row(dict(ok_row, value=str(beyond)), base, path, beyond,
                                 False) == "wrong_value"


def test_oracle_failures_are_counted_by_kind(tmp_path):
    from types import SimpleNamespace

    from brisq.errors import CutoffTooSmall

    (tmp_path / "cold.json").write_text(json.dumps(workloads._ramp_scenario(0.5)))
    check = worker.OracleRamp(tmp_path, {"files": [], "cold": "cold.json"}).cold.check
    report = SimpleNamespace(oracle={"ok": True, "cutoff": 11})
    assert check(report, None) == (1, [])
    assert check(SimpleNamespace(oracle={"ok": False, "cutoff": 2}), None) == (1, ["oracle_miss"])
    assert check(None, CutoffTooSmall("needs cutoff 140")) == (1, ["cutoff_too_small"])
    assert check(None, ValueError("boom")) == (1, ["unexpected_error"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_a_counted_run_serves_exactly_its_requests():
    requests = [worker.Request(lambda: None, lambda result, error: (1, []))] * 3
    tally = worker.Tally()
    worker.serve(requests, 0.0, tally, count=7)
    assert tally.ops == 7
    summary = tally.summary()
    assert summary["requests"] == 7 and summary["latency_ms_p50"] > 0
