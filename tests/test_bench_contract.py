"""What the benchmark harness reads from brisq, pinned without editing it.

perfbench/tracing.py replaces each name in its TARGETS on brisq.cli and
brisq.pipeline with a timing wrapper and files the span under
<module>.<function> of the wrapped function. A name that stops
resolving there, or a function that moves to a module the tracer does
not list, breaks `perfbench/run.py --trace 1` or leaves its spans at
zero. The workloads also read report fields: the oracle ramp reads a
run's oracle cutoff and verdict, and the analytic grid judges the rows
of a `brisq sweep` JSON file with perfbench/model.py.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from brisq import cli
from brisq.pipeline import load_scenario, reference_scenario, run

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
model = _load("model")
TARGETS = [(module, attr) for module, attrs in tracing.TARGETS.items() for attr in attrs]


@pytest.mark.parametrize("module_name, attr", TARGETS)
def test_traced_name_resolves_to_a_listed_span(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr)
    assert callable(fn)
    assert tracing.span_name(fn) in tracing.SPANS


def test_every_span_is_reachable():
    spans = {tracing.span_name(getattr(importlib.import_module(module), attr))
             for module, attr in TARGETS}
    assert spans == set(tracing.SPANS)


def test_oracle_ramp_reads_the_oracle_cutoff_and_verdict():
    oracle = run(reference_scenario()).oracle
    assert type(oracle["cutoff"]) is int
    assert oracle["ok"] is True


# the reference flux sweep, and a grid whose second value is Unstable
@pytest.mark.parametrize("grid, statuses", [
    (None, ["ok"] * 9),
    ({"parameter": "drive.flux_in", "values": [1e12, 1e15]}, ["ok", "error"]),
], ids=["flux_sweep", "unstable"])
def test_analytic_grid_reads_the_sweep_rows(tmp_path, grid, statuses):
    scenario = ROOT / "scenarios" / "flux_sweep.json"
    if grid is not None:
        raw = json.loads(scenario.read_text(encoding="utf-8"))
        raw["sweep"] = grid
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out.json"
    assert cli.main(["sweep", str(scenario), "--oracle", "off", "--db",
                     "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row["status"] for row in rows] == statuses
    values = load_scenario(str(scenario)).sweep.values
    for row, value in zip(rows, values):
        if row["status"] == "ok":
            assert {"parameter", "value", "f", "r", "P_0", "S_X_c", "db_X_c"} <= set(row)
        else:
            assert row["error_type"] == "Unstable"
        assert model.check_sweep_row(row, model.base_scenario(), "drive.flux_in",
                                     value, True) is None
