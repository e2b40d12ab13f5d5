"""Command line behavior: verbs, formats, exit codes, determinism."""

import argparse
import ast
import copy
import csv
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brisq.cli import (
    EXIT_MISMATCH, EXIT_OK, EXIT_PHYSICS, EXIT_SCENARIO, _csv, _decibel_cells,
    _decibels, _flatten, _json_sweep, main)
from brisq import cli, focksim, pipeline
from brisq.pipeline import OracleConfig, Scenario
from brisq.squeezing import CROSS_KEYS, QUAD_KEYS, TABLE_SIZE, full_moment_table

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
RUN_SCENARIO = str(SCENARIOS / "backward_10ghz.json")
SWEEP_SCENARIO = str(SCENARIOS / "flux_sweep.json")
THRESHOLD_SCENARIO = str(SCENARIOS / "threshold_sweep.json")
R_REF = 0.05016767361301254
# cross["n_a"]'s place in a MomentTable's values: cross is the last section
CROSS_N_A = TABLE_SIZE - len(CROSS_KEYS) + CROSS_KEYS.index("n_a")


def read_scenario(path):
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def write_with_literal(tmp_path, raw, path, literal):
    """Scenario file with the dotted path set to a raw JSON literal."""
    raw = copy.deepcopy(raw)
    *blocks, key = path.split(".")
    target = raw
    for block in blocks:
        target = target[block]
    target[key] = "@literal@"
    out = tmp_path / "scenario.json"
    out.write_text(json.dumps(raw).replace('"@literal@"', literal))
    return str(out)


NUMERIC_FIELDS = (
    "waveguide.omega0", "waveguide.g", "waveguide.u", "waveguide.gamma",
    "waveguide.vg", "waveguide.va", "waveguide.length", "drive.omega_p",
    "drive.flux_in", "k_pump", "oracle.tolerance", "thermal.Omega",
    "thermal.temperature", "thermal.Gamma",
)


def test_run_repo_scenario(capsys):
    assert main(["run", RUN_SCENARIO]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["squeeze"]["r"] == pytest.approx(R_REF, rel=1e-12)
    assert payload["oracle"]["ok"] is True
    assert payload["thermal"]["quality"] == 1e4
    assert "decibels" not in payload


def test_run_is_deterministic(capsys):
    assert main(["run", RUN_SCENARIO]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", RUN_SCENARIO]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_run_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", RUN_SCENARIO, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["squeeze"]["r"] == pytest.approx(R_REF, rel=1e-12)


def test_run_csv_format(capsys):
    assert main(["run", RUN_SCENARIO, "--format", "csv"]) == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    columns = header.split(",")
    assert "squeeze.r" in columns
    assert "pump.detuning.im" in columns
    assert len(row.split(",")) == len(columns)


def test_run_oracle_off(capsys):
    assert main(["run", RUN_SCENARIO, "--oracle", "off"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "oracle" not in payload


def test_run_oracle_on_override(tmp_path, capsys):
    raw = read_scenario(RUN_SCENARIO)
    del raw["oracle"]
    path = write_scenario(tmp_path, raw)
    assert main(["run", path, "--oracle", "on"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["ok"] is True


def test_run_db_flag(capsys):
    assert main(["run", RUN_SCENARIO, "--db"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["decibels"]["X_c"] == pytest.approx(-0.4357, abs=2e-4)


def test_decibel_table():
    flat = full_moment_table(0.0).squeezing
    assert all(_decibels(value) == 0.0 for value in flat.values())
    squeezed = full_moment_table(0.5).squeezing
    assert _decibels(squeezed["X_c"]) == pytest.approx(
        10.0 * math.log10(math.exp(-1.0)), rel=1e-12)
    assert _decibels(squeezed["Y_c"]) == pytest.approx(
        10.0 * math.log10(math.exp(1.0)), rel=1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(st.one_of(
    st.floats(min_value=-0.5, exclude_min=True), st.floats(),
    st.sampled_from([-0.5, -0.0, 0.0, 5e-324, -0.4999999999999999, 1e308])),
    min_size=len(QUAD_KEYS), max_size=len(QUAD_KEYS)))
def test_decibel_cells_are_the_scalar_decibels_bit_for_bit(squeezings):
    # a sweep's --db cells: C-level maps in _decibels' order of operations
    try:
        want = [_decibels(value).hex() for value in squeezings]
    except ValueError:  # log10 of a variance at or below zero
        with pytest.raises(ValueError, match="math domain error"):
            list(_decibel_cells(squeezings))
        return
    assert [value.hex() for value in _decibel_cells(squeezings)] == want


def test_run_oracle_mismatch_still_writes_report(tmp_path, capsys):
    raw = read_scenario(RUN_SCENARIO)
    raw["oracle"] = {"enabled": True, "tolerance": 1e-16}
    path = write_scenario(tmp_path, raw)
    assert main(["run", path]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["oracle"]["ok"] is False
    assert payload["oracle"]["deviation"] > 1e-16
    assert "exceeds tolerance" in captured.err


def poison_oracle_table(monkeypatch):
    """Make the oracle's measured table hold a NaN, as an overflowing
    kernel would; diagonal_moments measures the column of either path."""
    measure = pipeline.diagonal_moments

    def measured_nan(column):
        table = measure(column)
        values = table.values
        return table.replace(
            values=(*values[:CROSS_N_A], math.nan, *values[CROSS_N_A + 1:]))

    monkeypatch.setattr(pipeline, "diagonal_moments", measured_nan)


def test_run_nan_oracle_deviation_exits_three(monkeypatch, capsys):
    poison_oracle_table(monkeypatch)
    assert main(["run", RUN_SCENARIO]) == EXIT_PHYSICS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "PhysicsError: oracle deviations overflow the float range\n"


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/path.json"]) == EXIT_SCENARIO
    assert "scenario error" in capsys.readouterr().err


def test_run_malformed_scenarios(tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{broken")
    assert main(["run", str(garbage)]) == EXIT_SCENARIO

    raw = read_scenario(RUN_SCENARIO)
    raw["unknown_block"] = {}
    assert main(["run", write_scenario(tmp_path, raw)]) == EXIT_SCENARIO
    assert "unknown" in capsys.readouterr().err


def test_run_physics_failure(tmp_path, capsys):
    raw = read_scenario(RUN_SCENARIO)
    raw["geometry"] = "forward"
    assert main(["run", write_scenario(tmp_path, raw)]) == EXIT_PHYSICS
    assert "Unstable" in capsys.readouterr().err


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus-verb"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_sweep_repo_scenario(capsys):
    assert main(["sweep", SWEEP_SCENARIO]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter"] == "drive.flux_in"
    assert len(payload["rows"]) == 9
    assert all(row["status"] == "ok" for row in payload["rows"])


def test_sweep_serializes_the_scenario_once(monkeypatch, tmp_path, capsys):
    calls = []
    to_dict = Scenario.to_dict

    def counted(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(Scenario, "to_dict", counted)
    raw = read_scenario(SWEEP_SCENARIO)
    raw["sweep"] = {"parameter": "drive.flux_in", "values": [1e10, 1e11, 1e12, 1e15]}
    assert main(["sweep", write_scenario(tmp_path, raw), "--oracle", "off"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 4
    assert len(calls) == 1
    assert payload["scenario"] == to_dict(calls[0])


def test_sweep_csv_format(capsys):
    assert main(["sweep", SWEEP_SCENARIO, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    columns = lines[0].split(",")
    for name in ("parameter", "value", "status", "f", "r", "S_X_c"):
        assert name in columns


def test_sweep_without_block(capsys):
    assert main(["sweep", RUN_SCENARIO]) == EXIT_SCENARIO
    assert "no sweep block" in capsys.readouterr().err


def test_check_passes(capsys):
    assert main(["check"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    assert all(line.startswith("check ") for line in lines)
    assert all(": PASS" in line for line in lines)


def test_check_writes_rows(tmp_path, capsys):
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert len(rows) == 17
    assert all(row["ok"] for row in rows)


def patch_reference(monkeypatch, **changes):
    """Make brisq check run the reference device with changed blocks."""
    changed = pipeline.reference_scenario().replace(**changes)
    monkeypatch.setattr(pipeline, "reference_scenario", lambda: changed)


def test_check_fails_off_the_documented_values(monkeypatch, tmp_path, capsys):
    # four times the flux doubles f: tanh r = 0.101 against 0.05
    drive = pipeline.reference_scenario().drive.replace(flux_in=4e12)
    patch_reference(monkeypatch, drive=drive)
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == EXIT_MISMATCH
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17
    failed = [line for line in lines if ": FAIL" in line]
    assert "check tanh r: FAIL (value 0.101021, expected 0.05, " \
        "abs tolerance 0.001)" in failed
    assert any(line.startswith("check P_1: FAIL") for line in failed)
    assert "check oracle deviation: PASS" in lines[-1]
    # the rows that failed are written with the rest
    rows = json.loads(out.read_text())
    assert [row["name"] for row in rows] == [line.split(":")[0][len("check "):]
                                             for line in lines]
    assert sum(not row["ok"] for row in rows) == len(failed)


def test_check_fails_on_the_oracle_row_alone(monkeypatch, capsys):
    patch_reference(monkeypatch,
                    oracle=OracleConfig(enabled=True, tolerance=1e-30))
    assert main(["check"]) == EXIT_MISMATCH
    failed = [line for line in capsys.readouterr().out.splitlines()
              if ": FAIL" in line]
    assert len(failed) == 1
    assert failed[0].startswith("check oracle deviation: FAIL")


@pytest.mark.parametrize("path, literal", [
    ("waveguide.g", '"1.2.3 MHz"'),
    ("oracle.cutoff", "1"),
    ("oracle.cutoff", "1000"),
    ("drive.flux_in", "1" * 5000),
], ids=["three-dot-number", "cutoff-1", "cutoff-1000", "5000-digit-int"])
def test_malformed_field_exits_two(tmp_path, capsys, path, literal):
    raw = read_scenario(RUN_SCENARIO)
    assert main(["run", write_with_literal(tmp_path, raw, path, literal)]) \
        == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario error" in captured.err


def test_non_finite_numbers_exit_two(tmp_path, capsys):
    raw = read_scenario(RUN_SCENARIO)
    for path in NUMERIC_FIELDS:
        for literal in ("NaN", "Infinity", "-Infinity", "1e999", '"1e999 Hz"'):
            scenario = write_with_literal(tmp_path, raw, path, literal)
            assert main(["run", scenario]) == EXIT_SCENARIO, (path, literal)
            assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb, path, literal, message", [
    # the record that owns a field checks its type and finiteness, so a
    # block field's message names the block, then the field
    ("run", "waveguide.vg", "true", "waveguide: vg: expected a number"),
    ("run", "waveguide.g", "true", "waveguide: g: expected a number"),
    ("run", "drive.flux_in", "NaN", "drive: flux_in: nan is not a finite number"),
    ("run", "thermal.Omega", "Infinity", "thermal: Omega: inf is not a finite number"),
    ("run", "oracle.tolerance", '"1e-8"', "oracle: tolerance: expected a number"),
    ("run", "thermal.temperature", "1" + "0" * 400,
     f"thermal: temperature: 1{'0' * 400} is not a finite number"),
    ("run", "k_pump", '"fast"', "k_pump: expected a number"),
    ("run", "k_pump", "NaN", "k_pump: nan is not a finite number"),
    ("run", "waveguide.g", '"1e999 GHz"',
     "waveguide.g: '1e999 GHz' is not a finite frequency"),
    # a frequency's grid value: the gate's text, as for any other field
    ("sweep", "sweep.values", '[1e6, true]', "sweep.values: expected a number"),
    ("sweep", "sweep.start", "NaN", "sweep.start: nan is not a finite number"),
    ("sweep", "sweep.values", '["1 kHz", "x"]',
     "sweep.values: cannot parse frequency 'x'; expected e.g. '10 GHz'"),
], ids=["vg-bool", "g-bool", "flux_in-nan", "Omega-inf", "tolerance-str",
        "temperature-401-digits", "k_pump-str", "k_pump-nan", "g-unit-overflow",
        "grid-bool", "grid-start-nan", "grid-unit"])
def test_malformed_field_message(tmp_path, capsys, verb, path, literal, message):
    raw = read_scenario(RUN_SCENARIO)
    if verb == "sweep":
        raw["sweep"] = {"parameter": "waveguide.g", "start": 1e6, "stop": 2e6, "steps": 2}
        if path == "sweep.values":
            raw["sweep"] = {"parameter": "waveguide.g", "values": []}
    assert main([verb, write_with_literal(tmp_path, raw, path, literal)]) == EXIT_SCENARIO
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize("content", [
    Path(RUN_SCENARIO).read_text().replace("backward", "backw\u00e4rd")
    .encode("latin-1"),
    b'{"waveguide": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["latin-1", "nested-100000-deep"])
def test_undecodable_scenario_exits_two(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["run", str(path)]) == EXIT_SCENARIO
    assert "not valid JSON" in capsys.readouterr().err


UNIT_ERROR = "sweep.values: expected a number"
STEPS_ERROR = "sweep.steps: expected an int in [1, 1000000]"


@pytest.mark.parametrize("grid, message", [
    ({"parameter": "drive.flux_in", "values": ["1 kHz"]}, UNIT_ERROR),
    ({"parameter": "waveguide.vg", "values": ["1 kHz"]}, UNIT_ERROR),
    ({"parameter": "waveguide.length", "values": ["1 kHz"]}, UNIT_ERROR),
    ({"parameter": "k_pump", "values": ["1 kHz"]}, UNIT_ERROR),
    ({"parameter": "drive.flux_in", "start": "1 kHz", "stop": 2e12, "steps": 2},
     "sweep.start: expected a number"),
    ({"parameter": "k_pump", "start": -1e308, "stop": 1e308, "steps": 3},
     "sweep: the grid from start -1e+308 to stop 1e+308 overflows the float range"),
    ({"parameter": "drive.flux_in", "start": 1e11, "stop": 2e13, "steps": 1000001},
     STEPS_ERROR),
    ({"parameter": "drive.flux_in", "start": 1e11, "stop": 2e13, "steps": 1000000000},
     STEPS_ERROR),
], ids=["flux-unit", "vg-unit", "length-unit", "k_pump-unit", "start-unit",
        "grid-overflow", "steps-over-bound", "steps-1e9"])
def test_sweep_grid_takes_the_fields_kind(tmp_path, capsys, grid, message):
    raw = read_scenario(SWEEP_SCENARIO)
    raw["sweep"] = grid
    assert main(["sweep", write_scenario(tmp_path, raw)]) == EXIT_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("path, value", [
    ("k_pump", 1e301),
    ("thermal", {"Omega": "1 mHz", "temperature": 1e300, "Gamma": "1 MHz"}),
    # h*Omega/(kB*T) underflows to 0, and the occupation kB*T/(h*Omega) with it
    ("thermal", {"Omega": 1e-300, "temperature": 0.2, "Gamma": "1 MHz"}),
    ("waveguide", {"omega0": "193 THz", "vg": 7e7, "va": 8433.0, "length": 0.01,
                   "g": "1 MHz", "u": 1e-300, "gamma": 0.0}),
    # g * amplitude overflows; it used to reach diagonalize as f = inf
    ("waveguide", {"omega0": "193 THz", "vg": 7e7, "va": 8433.0, "length": 0.01,
                   "g": 1e308, "u": "1 MHz", "gamma": "10 mHz"}),
], ids=["k_pump-1e301", "thermal-n_bar", "thermal-tiny-Omega",
        "pump-photon-number", "pump-coupling"])
def test_overflowing_results_exit_three(tmp_path, capsys, path, value):
    raw = read_scenario(RUN_SCENARIO)
    raw[path] = value
    assert main(["run", write_scenario(tmp_path, raw)]) == EXIT_PHYSICS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PhysicsError" in captured.err


def test_huge_finite_pair_runs_to_a_finite_report(tmp_path, capsys):
    # omega = Omega ~ 1.7e154 Hz: the gap's product form would overflow
    raw = read_scenario(RUN_SCENARIO)
    raw["k_pump"] = 1e150
    assert main(["run", write_scenario(tmp_path, raw)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["squeeze"]["gap"] == payload["squeeze"]["omega_bar"]
    assert all(math.isfinite(value) for value in _flatten(payload).values()
               if isinstance(value, float))


def test_sweep_oracle_miss_exits_four_after_full_report(tmp_path, capsys):
    raw = read_scenario(SWEEP_SCENARIO)
    raw["oracle"] = {"enabled": True, "tolerance": 1e-16}
    assert main(["sweep", write_scenario(tmp_path, raw)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert len(rows) == 9
    assert all(row["oracle_ok"] is False for row in rows)
    assert "beyond tolerance in 9 of 9 rows" in captured.err


def test_sweep_nan_oracle_deviation_ends_in_error_rows(monkeypatch, capsys):
    poison_oracle_table(monkeypatch)
    assert main(["sweep", SWEEP_SCENARIO, "--oracle", "on"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert len(rows) == 9
    assert all(row["status"] == "error" and row["error_type"] == "PhysicsError"
               for row in rows), rows
    assert captured.err == ""


def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    out = tmp_path / "run.json"
    assert main(["run", RUN_SCENARIO, "--db", "--format", "csv"]) == EXIT_OK
    assert main(["sweep", SWEEP_SCENARIO, "--oracle", "off"]) == EXIT_OK
    assert main(["run", RUN_SCENARIO, "--out", str(out)]) == EXIT_OK
    assert built == ["brisq", "brisq run", "brisq sweep", "brisq check"]
    # each call parses into a namespace of its own: no flag carries over
    payload = json.loads(out.read_text())
    assert "decibels" not in payload and "oracle" in payload


def test_check_csv_out_writes_csv(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    assert main(["check", "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.count(": PASS") == 17
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 17
    assert rows[0]["name"] == "coupling |f|"
    assert all(row["ok"] == "True" for row in rows)


@pytest.mark.parametrize("args", [
    ["run", RUN_SCENARIO],
    ["run", RUN_SCENARIO, "--format", "csv", "--db"],
    ["sweep", SWEEP_SCENARIO],
    ["sweep", SWEEP_SCENARIO, "--format", "csv"],
], ids=["run-json", "run-csv", "sweep-json", "sweep-csv"])
def test_stdout_matches_out_file(tmp_path, capsys, args):
    out = tmp_path / "report"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(args) == EXIT_OK
    written = out.read_bytes().decode("utf-8")
    # JSON text has no final newline of its own; stdout adds one
    newline = "\n" if "csv" not in args else ""
    assert capsys.readouterr().out == written + newline


@pytest.mark.parametrize("args", [
    ["run", RUN_SCENARIO, "--format", "csv"],
    ["sweep", SWEEP_SCENARIO],
    ["check", "--format", "csv"],
], ids=["run", "sweep", "check"])
def test_unwritable_out_exits_two(tmp_path, capsys, args):
    # a missing directory, a directory, then an empty name
    for out in (tmp_path / "missing" / "report", tmp_path, ""):
        assert main(args + ["--out", str(out)]) == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {str(out)!r}" in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("args", [
    ["run", RUN_SCENARIO],
    ["sweep", SWEEP_SCENARIO],
    ["check"],
], ids=["run", "sweep", "check"])
def test_full_stdout_exits_two(args):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w", encoding="utf-8") as full:
        done = subprocess.run([sys.executable, "-m", "brisq.cli", *args],
                              env=_src_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert done.returncode == EXIT_SCENARIO
    assert done.stderr == ("scenario error: cannot write '<stdout>': "
                           "No space left on device\n")


@pytest.mark.parametrize("case", ["no-sweep-block", "unwritable-out",
                                  "unwritable-csv-out"])
def test_sweep_refuses_before_any_row_runs(monkeypatch, tmp_path, capsys, case):
    runs = []
    real_run = pipeline.run
    monkeypatch.setattr(pipeline, "run",
                        lambda scenario: runs.append(scenario) or real_run(scenario))
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report\n")
    if case == "no-sweep-block":
        args = ["sweep", RUN_SCENARIO, "--out", str(out)]
    else:
        args = ["sweep", SWEEP_SCENARIO, "--out", str(tmp_path / "missing" / "r.json")]
        if case == "unwritable-csv-out":
            args += ["--format", "csv"]
    assert main(args) == EXIT_SCENARIO
    assert capsys.readouterr().out == ""
    assert runs == []
    assert out.read_bytes() == b"an earlier report\n"


def read_sweep(text, fmt):
    """The rows of a sweep report, as JSON values or as CSV cells."""
    if fmt == "json":
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_memory_stays_flat_in_the_row_count(tmp_path, fmt):
    # rows go to the file as they are computed: a sweep that held every
    # row and the whole text took ~4.9 KB per row here
    steps = 4000
    raw = read_scenario(SWEEP_SCENARIO)
    raw["sweep"]["steps"] = steps
    out = tmp_path / f"rows.{fmt}"
    args = ["sweep", write_scenario(tmp_path, raw), "--oracle", "off",
            "--format", fmt, "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = read_sweep(out.read_text(encoding="utf-8"), fmt)
    assert len(rows) == steps and all(row["status"] == "ok" for row in rows)
    assert peak < 1024 * steps


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_into_a_closed_pipe_exits_two(tmp_path, fmt):
    # the reader takes 100 bytes of a 10**4-row sweep and closes the pipe
    raw = read_scenario(SWEEP_SCENARIO)
    raw["sweep"]["steps"] = 10**4
    args = ["sweep", write_scenario(tmp_path, raw), "--oracle", "off", "--format", fmt]
    with subprocess.Popen([sys.executable, "-m", "brisq.cli", *args], env=_src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert proc.returncode == EXIT_SCENARIO
    assert stderr == b"scenario error: cannot write '<stdout>': Broken pipe\n"


def parse_cell(key, cell):
    """A sweep's CSV cell as the JSON scalar it was written from: the
    text under a text key, else a bool or a float."""
    if key in ("parameter", "status", "error_type", "error"):
        return cell
    if cell in ("True", "False"):
        return cell == "True"
    return float(cell)


@pytest.mark.parametrize("args", [
    [SWEEP_SCENARIO, "--db", "--oracle", "on"],
    [str(SCENARIOS / "threshold_sweep.json")],
], ids=["flux", "threshold"])
def test_csv_sweep_drops_nothing_of_the_json_sweep(tmp_path, args):
    # the CSV header is the fixed column list; a row's empty cells are
    # the keys it lacks, and its other cells are its JSON values as text,
    # which parse back to the same bools and repr-exact floats
    reports = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"rows.{fmt}"
        assert main(["sweep", *args, "--format", fmt, "--out", str(out)]) == EXIT_OK
        reports[fmt] = read_sweep(out.read_text(encoding="utf-8"), fmt)
    assert len(reports["json"]) == len(reports["csv"]) == 9
    for json_row, csv_row in zip(reports["json"], reports["csv"]):
        assert [(key, str(value)) for key, value in json_row.items()] == \
            [(key, cell) for key, cell in csv_row.items() if cell != ""]
        parsed = {key: parse_cell(key, cell) for key, cell in csv_row.items() if cell != ""}
        assert [(key, type(value), repr(value)) for key, value in json_row.items()] == \
            [(key, type(value), repr(value)) for key, value in parsed.items()]
    statuses = {row["status"] for row in reports["json"]}
    assert statuses == ({"ok", "error"} if "threshold" in args[0] else {"ok"})


# keys and strings with the characters a template or CSV could mishandle
TEXT = st.text(st.sampled_from('%"\\,\n\r\t :ab\u00e9\u20ac\U0001d11e\x00'), max_size=6)
SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]),
    st.integers(), st.booleans(), st.none(), TEXT)
# cells for each of the CSV writer's branches: the characters that quote a
# field, None and the text "None", an empty field, and the floats JSON refuses
CELLS = st.one_of(SCALARS, st.sampled_from(
    [",", '"', "\r", "\n", '""', "None", "", None, True, False, 0, -0.0,
     math.nan, math.inf, -math.inf]))
# a sweep grid: empty, of one value or many, or not a list of scalars
GRIDS = st.one_of(st.lists(SCALARS, min_size=1, max_size=1),
                  st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
                  st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=4),
                  SCALARS)


@st.composite
def row_lists(draw):
    """(columns, rows): rows in two key tuples, an ok one and a shorter
    error one, and columns holding both key tuples and maybe more."""
    ok_keys = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    error_keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    shapes = draw(st.lists(st.sampled_from([ok_keys, error_keys]),
                           min_size=1, max_size=6))
    columns = draw(st.permutations(list(dict.fromkeys(
        error_keys + ok_keys + draw(st.lists(TEXT, max_size=2))))))
    return columns, [{key: draw(CELLS) for key in keys} for keys in shapes]


@st.composite
def scenarios(draw):
    """A sweep header's scenario: any dict of scalars, or one holding a
    sweep block whose values are a grid, among its other keys."""
    scenario = draw(st.dictionaries(TEXT, SCALARS))
    if draw(st.booleans()):
        sweep = {**draw(st.dictionaries(TEXT, SCALARS, max_size=2)), "values": draw(GRIDS)}
        items = list(scenario.items())
        items.insert(draw(st.integers(0, len(items))), ("sweep", sweep))
        scenario = dict(items)
    return scenario


def json_cell(cell):
    """A cell JSON accepts: a NaN or infinity as its repr."""
    return repr(cell) if isinstance(cell, float) and not math.isfinite(cell) else cell


GRID_HEADER = {"parameter": "drive.flux_in", "scenario": {
    "geometry": "backward", "sweep": {"parameter": "drive.flux_in", "values": [1e12]}}}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(table=row_lists(), parameter=TEXT, scenario=scenarios())
@example(table=(["a"], [{"a": None}, {"a": ""}, {"a": "None"}, {"a": '"'}]),
         parameter="", scenario={})
@example(table=([""], [{"": ","}, {"": "\r"}, {"": "\n"}, {"": True}, {"": 7}]),
         parameter="p", scenario=GRID_HEADER["scenario"])
@example(table=(["x", "y"], [{"x": -0.0, "y": math.nan}, {"x": math.inf, "y": -math.inf},
                             {"x": None, "y": None}, {"x": "a,b", "y": 'say "hi"'}]),
         parameter="p", scenario={"sweep": {"values": [0.5 * n for n in range(200)]}})
@example(table=(["x"], [{"x": 1.0}]), parameter="p",
         scenario={"sweep": {"values": ["@sweep.values@"]}, "@sweep.values@": 1})
def test_sweep_writers_match_the_library_writers(table, parameter, scenario):
    columns, rows = table
    header = {"parameter": parameter, "scenario": scenario}
    json_rows = [dict(zip(row, map(json_cell, row.values()))) for row in rows]
    assert "".join(_json_sweep(header, json_rows)) == json.dumps(
        {**header, "rows": json_rows}, indent=2, allow_nan=False)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
    writer.writeheader()
    writer.writerows(rows)
    assert "".join(_csv(columns, rows)) == buffer.getvalue()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_sweep_refuses_non_finite_floats(value):
    header = {"parameter": "k_pump", "scenario": {}}
    rows = [{"value": 1.0}, {"value": value}]
    message = "Out of range float values are not JSON compliant"
    with pytest.raises(ValueError, match=message):
        json.dumps({**header, "rows": rows}, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match=message):
        "".join(_json_sweep(header, rows))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_sweep_refuses_a_non_finite_grid_value(value):
    header = copy.deepcopy(GRID_HEADER)
    header["scenario"]["sweep"]["values"].append(value)
    message = "Out of range float values are not JSON compliant"
    with pytest.raises(ValueError, match=message):
        json.dumps(header, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match=message):
        "".join(_json_sweep(header, [{"value": 1.0}]))


def test_a_run_with_a_null_cell_writes_the_csv_of_csv_writer(tmp_path, capsys):
    # every run's oracle.cutoff, and here k_pump, is None: an empty field
    raw = read_scenario(RUN_SCENARIO)
    raw["k_pump"] = None
    path = write_scenario(tmp_path, raw)
    assert main(["run", path]) == EXIT_OK
    payload = _flatten(json.loads(capsys.readouterr().out))
    assert payload["scenario.k_pump"] is None
    out = tmp_path / "run.csv"
    assert main(["run", path, "--format", "csv", "--out", str(out)]) == EXIT_OK
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(payload)
    writer.writerow(payload.values())
    assert out.read_bytes() == buffer.getvalue().encode("utf-8")


def test_flatten():
    nested = {"a": {"b": 1, "c": [2, 3]}, "d": "x"}
    assert _flatten(nested) == {"a.b": 1, "a.c.0": 2, "a.c.1": 3, "d": "x"}
    assert _flatten(7, "y") == {"y": 7}


def test_no_verb_imports_scipy():
    # scipy is only a test dependency; a fresh process catches a lazy
    # import too, which this test process (it imports scipy) would hide
    code = (
        "import contextlib, io, sys\n"
        "from brisq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check']),\n"
        f"             cli.main(['run', {RUN_SCENARIO!r}, '--oracle', 'on']),\n"
        f"             cli.main(['sweep', {SWEEP_SCENARIO!r}, '--oracle', 'on'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _fresh_python(code) == "[0, 0, 0] []"


def test_no_verb_loads_the_record_machinery(tmp_path):
    # brisq's records are plain classes: dataclasses would load inspect
    # (with ast, dis and tokenize) and compile each record's methods at
    # start-up, in every cold process
    out = str(tmp_path / "run.csv")
    code = (
        "import contextlib, io, sys\n"
        "from brisq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check']),\n"
        f"             cli.main(['run', {RUN_SCENARIO!r}]),\n"
        f"             cli.main(['run', {RUN_SCENARIO!r}, '--format', 'csv', '--db',\n"
        f"                       '--out', {out!r}]),\n"
        f"             cli.main(['sweep', {SWEEP_SCENARIO!r}])]\n"
        "print(codes, [m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert _fresh_python(code) == "[0, 0, 0, 0] []"


def test_a_series_oracle_run_builds_no_sector_state_and_loads_no_numpy():
    # the reference device's oracle takes the vacuum series, as the cold
    # request of perfbench's oracle_ramp probe (f/omega_bar = 0.1) does:
    # neither the import nor the run fills the column kernel memo, and
    # numpy stays unloaded
    code = (
        "import contextlib, io, sys\n"
        "import brisq.cli\n"
        "from brisq import cli, focksim\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['run', {RUN_SCENARIO!r}])\n"
        "print(code, focksim._column_kernel.cache_info().currsize, 'numpy' in sys.modules)\n"
    )
    assert _fresh_python(code) == "0 0 False"


def test_no_verb_reads_a_sector_block(monkeypatch, capsys):
    # the verbs' oracles read the n_a = n_b column alone: a cutoff on the
    # SVD route takes its sector spectrum once, to build its column
    # kernel, and no verb builds a whole sector block
    calls = {"_sector_block": [], "_sector_spectrum": [], "_svd_column": []}

    def spy(name):
        original, seen = getattr(focksim, name), calls[name]

        def spied(*args):
            seen.append(args)
            return original(*args)
        return spied

    for name in calls:
        monkeypatch.setattr(focksim, name, spy(name))
    focksim._column_kernel.cache_clear()
    assert main(["check"]) == EXIT_OK
    assert main(["run", RUN_SCENARIO]) == EXIT_OK
    for scenario in (SWEEP_SCENARIO, THRESHOLD_SCENARIO):
        assert main(["sweep", scenario, "--oracle", "on"]) == EXIT_OK
    capsys.readouterr()
    assert calls["_sector_block"] == []
    svd_cutoffs = {cutoff for cutoff, _ in calls["_svd_column"]}
    spectra = len(calls["_sector_spectrum"])
    assert spectra == focksim._column_kernel.cache_info().misses == len(svd_cutoffs) > 0


def test_a_clean_interpreter_loads_no_threading_for_the_cli():
    # under -S no site hook imports anything first, so this sees what the
    # CLI itself loads: the numpy loader's guard needs no lock, and brisq
    # writes its CSV lines itself
    code = ("import sys, brisq.cli\n"
            "print([m for m in ('threading', 'numpy', 'csv', '_csv') if m in sys.modules])\n")
    assert _fresh_python(code, flags=("-S",)) == "[]"


def test_import_loads_blas_single_threaded_and_leaves_env_alone():
    # the oracle's first array loads numpy, and loaded before numpy it
    # loads OpenBLAS with one thread (one task in the process) and
    # removes the variable again; a caller's own value is kept as it was.
    # Importing brisq or focksim, an oracle export asked of brisq, and an
    # oracle run on the reference device, which takes the vacuum series,
    # load no numpy at all
    for first, loads_numpy in (
            ("from brisq import squeezed_vacuum; squeezed_vacuum(64, 1.0)", True),
            ("import brisq", False),
            ("import brisq.focksim", False),
            ("from brisq import squeezed_vacuum", False),
            ("from brisq import pipeline; pipeline.run(pipeline.reference_scenario())",
             False)):
        code = (
            "import os, sys\n"
            f"{first}\n"
            "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks, 'numpy' in sys.modules)\n"
        )
        expected = f"None 1 {loads_numpy}"
        assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == expected, first
        assert _fresh_python(code, OPENBLAS_NUM_THREADS="2").split()[0] == "2", first


def test_threads_that_load_numpy_together_leave_the_env_alone():
    # the oracle's first array sets and deletes OPENBLAS_NUM_THREADS at
    # call time, so several threads reaching it at once must neither fail on
    # the variable nor leave it set, and OpenBLAS still loads with one
    # thread: once the racers have exited, one task is left in the process
    code = (
        "import os, sys, threading, time\n"
        "from brisq import focksim\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, errors = threading.Barrier(8), []\n"
        "def first_array():\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        focksim.squeezed_vacuum(12, 0.3)\n"
        "    except BaseException as err:\n"
        "        errors.append(err)\n"
        "threads = [threading.Thread(target=first_array) for _ in range(8)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(60)\n"
        "def tasks():\n"
        "    return len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1\n"
        "deadline = time.monotonic() + 10\n"
        "while tasks() > 1 and time.monotonic() < deadline: time.sleep(0.01)\n"
        "print(errors, any(t.is_alive() for t in threads), "
        "os.environ.get('OPENBLAS_NUM_THREADS'), tasks())\n"
    )
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == "[] False None 1"


def test_the_loader_passes_when_a_racing_call_deleted_the_env_first():
    # a racing first call can delete OPENBLAS_NUM_THREADS between this
    # call's import and its own del; a finder that deletes it as numpy is
    # looked up makes that order certain
    code = (
        "import os, sys\n"
        "from brisq import focksim\n"
        "class RacingCall:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            del os.environ['OPENBLAS_NUM_THREADS']\n"
        "sys.meta_path.insert(0, RacingCall())\n"
        "focksim.squeezed_vacuum(12, 0.3)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
    )
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=None) == "None True"


def test_the_package_lists_every_export_without_loading_numpy():
    code = ("import sys, brisq\n"
            "print([name for name in brisq.__all__ if name not in dir(brisq)], "
            "'numpy' in sys.modules)\n")
    assert _fresh_python(code) == "[] False"


@pytest.mark.parametrize("command, loads_numpy", [
    (["-c", "import brisq"], False),
    (["-m", "brisq.cli", "sweep", SWEEP_SCENARIO], False),
    (["-m", "brisq.cli", "run", RUN_SCENARIO, "--oracle", "off"], False),
    (["-m", "brisq.cli", "run", RUN_SCENARIO], False),
    (["-m", "brisq.cli", "run", RUN_SCENARIO, "--format", "csv", "--db"], False),
    (["-m", "brisq.cli", "check"], False),
    (["-m", "brisq.cli", "sweep", THRESHOLD_SCENARIO, "--oracle", "on"], True),
], ids=["import", "sweep", "run-oracle-off", "run", "run-csv-db", "check",
        "sweep-oracle-on"])
def test_numpy_loads_only_where_the_oracle_runs(command, loads_numpy):
    # the reference device's oracle takes the vacuum series; the
    # threshold sweep's cutoffs of 11-121 take the sector SVD
    done = subprocess.run([sys.executable, "-X", "importtime", *command],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    # an -X importtime line ends in "| <module>"
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "brisq.pipeline" in imported
    assert ("numpy" in imported) is loads_numpy


# `python -m brisq.cli` with the arguments after -c's code; the prelude
# runs first, in the same interpreter
_CLI_BY_RUNPY = "import runpy\nrunpy.run_module('brisq.cli', run_name='__main__', alter_sys=True)\n"
_NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


def _cli_process(args: list[str], prelude: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", prelude + _CLI_BY_RUNPY, *args],
                          env=_src_env(), capture_output=True, timeout=120)


@pytest.mark.parametrize("args", [
    ["sweep", SWEEP_SCENARIO, "--oracle", "off"],
    ["run", RUN_SCENARIO, "--oracle", "off"],
    ["run", RUN_SCENARIO],
    ["check"],
], ids=["sweep", "run", "run-oracle-on", "check"])
def test_verbs_without_the_oracle_run_where_numpy_cannot_be_imported(args):
    # with the oracle on, the reference device takes the vacuum series
    plain = subprocess.run([sys.executable, "-m", "brisq.cli", *args], env=_src_env(),
                           capture_output=True, timeout=120)
    blocked = _cli_process(args, _NO_NUMPY)
    assert blocked.returncode == plain.returncode == EXIT_OK, blocked.stderr
    assert (blocked.stdout, blocked.stderr) == (plain.stdout, plain.stderr)
    assert blocked.stdout


def test_the_cutoff_gate_runs_where_numpy_cannot_be_imported(tmp_path):
    raw = read_scenario(RUN_SCENARIO)
    raw["oracle"] = {"enabled": True, "cutoff": 500}
    done = _cli_process(["run", write_scenario(tmp_path, raw)], _NO_NUMPY)
    assert done.returncode == EXIT_SCENARIO
    assert done.stderr == b"scenario error: oracle: cutoff: expected an integer in [2, 128]\n"


@pytest.mark.parametrize("args", [
    ["run", RUN_SCENARIO],
    ["sweep", SWEEP_SCENARIO],
    ["check"],
], ids=["run", "sweep", "check"])
def test_main_leaves_the_collector_as_it_was(capsys, args):
    frozen = gc.get_freeze_count()
    assert main(args) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_a_cli_process_reaches_exit_with_its_heap_frozen():
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(), "
             "file=sys.stderr))\n")
    done = _cli_process(["check"], probe)
    assert done.returncode == EXIT_OK
    name, count = done.stderr.split()
    assert name == b"frozen" and int(count) > 0


def test_the_console_script_and_the_module_share_one_entry():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as stream:
        target = tomllib.load(stream)["project"]["scripts"]["brisq"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    main_block = [ast.unparse(statement) for node in tree.body
                  if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"
                  for statement in node.body]
    assert main_block == ["entry()"]


def _fresh_python(code: str, flags: tuple[str, ...] = (), **env_updates) -> str:
    """stdout of `code` run by a new interpreter, given `flags` before `-c`,
    that imports brisq from src."""
    env = _src_env()
    for name, value in env_updates.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120, check=True)
    return done.stdout.strip()


def _src_env() -> dict[str, str]:
    """This environment with brisq's src directory first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
