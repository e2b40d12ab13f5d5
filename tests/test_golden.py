"""Regression contract: CLI reports match goldens written by an earlier build.

Keys, key order, strings, ints and bools must match exactly and floats to
1e-15 relative. Oracle table and deviation entries may move by rounding
when a numerical kernel changes, so they match to 1e-12 absolute.
"""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from brisq.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RUN_SCENARIO = str(ROOT / "scenarios" / "backward_10ghz.json")
SWEEP_SCENARIO = str(ROOT / "scenarios" / "flux_sweep.json")
# f/omega_bar 0.5 to 1.01: the oracle at cutoffs 11-121, then the rows
# past the cap and past threshold
THRESHOLD_SCENARIO = str(ROOT / "scenarios" / "threshold_sweep.json")

CASES = {
    "run.json": ["run", RUN_SCENARIO],
    "run_db.csv": ["run", RUN_SCENARIO, "--format", "csv", "--db"],
    "sweep.json": ["sweep", SWEEP_SCENARIO],
    "sweep_oracle.csv": ["sweep", SWEEP_SCENARIO, "--format", "csv",
                         "--oracle", "on"],
    "sweep_db.csv": ["sweep", SWEEP_SCENARIO, "--format", "csv", "--db"],
    "threshold_sweep.json": ["sweep", THRESHOLD_SCENARIO],
    "threshold_sweep.csv": ["sweep", THRESHOLD_SCENARIO, "--format", "csv"],
    "check.json": ["check"],
    "check.csv": ["check", "--format", "csv"],
}

LOOSE = re.compile(r"(^|\.)oracle\.(table\.|deviation$)|oracle_deviation$"
                   r"|oracle deviation\.value$")


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_cell(text):
    """A CSV cell as the value it was written from."""
    if re.fullmatch(r"-?[0-9]+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return {"True": True, "False": False}.get(text, text)


def parse_report(name, text):
    if name.endswith(".json"):
        return json.loads(text, parse_constant=reject_constant)
    header, *rows = csv.reader(io.StringIO(text))
    return [dict(zip(header, map(parse_cell, row))) for row in rows]


def assert_matches(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), path
        for key, value in want.items():
            assert_matches(got[key], value, f"{path}.{key}" if path else key)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for index, (item, expected) in enumerate(zip(got, want)):
            label = expected.get("name", index) if isinstance(expected, dict) \
                else index
            assert_matches(item, expected, f"{path}.{label}" if path else str(label))
    elif isinstance(want, float):
        assert type(got) is float, path
        if LOOSE.search(path):
            assert abs(got - want) <= 1e-12, path
        else:
            assert abs(got - want) <= 1e-15 * abs(want), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(tmp_path, capsys, name):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    want = parse_report(name, (GOLDEN / name).read_text(encoding="utf-8"))
    got = parse_report(name, out.read_text(encoding="utf-8"))
    assert_matches(got, want)
