"""Properties: any scenario ends in a report or a documented error.

Random and mutated scenario dicts go through `cli.main` in-process. Every
call must return 0, 2, 3 or 4 without raising, and whatever it prints on
stdout must be strict JSON (no NaN or Infinity), or CSV whose every
record has as many cells as its header.

A scenario built in code from edge floats is refused at construction
with ValueError, or run() returns a strictly JSON-ready report or raises
PhysicsError, and sweep() yields JSON-ready ok and error rows only.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from brisq.cli import main
from brisq.errors import PhysicsError
from brisq.pipeline import _BLOCKS, _SWEEPABLE, SweepConfig, reference_scenario, run, sweep

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BASES = [json.loads((SCENARIOS / name).read_text())
         for name in ("backward_10ghz.json", "flux_sweep.json")]
TOP_KEYS = ["waveguide", "drive", "geometry", "k_pump", "oracle", "thermal",
            "sweep", "extra"]
UNITS = ("mHz", "Hz", "kHz", "MHz", "GHz", "THz", "Mhz", "")

# Integers stay small: a mutated sweep.steps asks for that many rows, and
# steps up to 10**6 are accepted.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 200),
    st.floats(),
    st.sampled_from(["forward", "backward", "k_pump", "drive.flux_in",
                     "waveguide.g", "1.2.3 MHz", "1e999 Hz"]),
    st.builds("{} {}".format, st.floats(), st.sampled_from(UNITS)),
    st.text(max_size=6),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def numbers(original):
    """Stand-ins for a numeric field: extreme floats (NaN, infinities,
    subnormals), rescaled values, any magnitude; for a frequency given
    as a string, unit strings too."""
    if not is_number(original):
        return numbers(1e6) | st.builds("{} {}".format, numbers(1.0),
                                        st.sampled_from(UNITS))
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 1e301, 1e-300, 5e-324,
                         0.0, -1.0]),
        st.floats(0.0, 3.0).map(lambda factor: original * factor),
        st.builds(lambda mantissa, exponent: mantissa * float(f"1e{exponent}"),
                  st.floats(0.0, 10.0), st.integers(-330, 330)),
        st.floats(),
    )


def paths(node, prefix=()):
    """Every key path in a nested scenario dict."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from paths(value, prefix + (key,))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def cases(draw):
    """(scenario dict, verb): mostly a repo scenario with one to three
    edits, mostly to numeric fields, so that runs reach the physics; one
    case in five is an arbitrary dict or JSON value."""
    if draw(st.integers(0, 4)) == 0:
        junk = st.dictionaries(st.sampled_from(TOP_KEYS), values, max_size=7)
        return draw(junk | values), draw(st.sampled_from(["run", "sweep"]))
    raw = copy.deepcopy(draw(st.sampled_from(BASES)))
    verb = draw(st.sampled_from(["run", "sweep"] if "sweep" in raw else ["run"]))
    for _ in range(draw(st.integers(1, 3))):
        every = sorted(paths(raw), key=repr)
        numeric = [p for p in every if is_number(node_at(raw, p))
                   or str(node_at(raw, p)).endswith("Hz")]
        action = draw(st.sampled_from(("number",) * 10 + ("any", "delete", "add")))
        if action == "number" and numeric:
            path = draw(st.sampled_from(numeric))
            node_at(raw, path[:-1])[path[-1]] = draw(numbers(node_at(raw, path)))
            continue
        if not every:
            break
        path = draw(st.sampled_from(every))
        if action == "delete":
            del node_at(raw, path[:-1])[path[-1]]
        elif action == "add":
            node_at(raw, path[:-1])[draw(st.text(max_size=8))] = draw(values)
        else:
            node_at(raw, path[:-1])[path[-1]] = draw(values)
    return raw, verb


def node_at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
# found by random draws: h*Omega/(kB*T) underflowed to 0 and the thermal
# occupation divided by expm1(0)
@example(case=({**BASES[0], "thermal": {**BASES[0]["thermal"], "Omega": 1e-300}}, "run"),
         flags=[])
# a CSV sweep whose second row is Unstable: an error row under the full header
@example(case=({**BASES[1], "sweep": {"parameter": "drive.flux_in",
                                      "values": [1e12, 1e15]}}, "sweep"),
         flags=["--format=csv", "--db"])
@given(case=cases(),
       flags=st.lists(st.sampled_from(["--db", "--oracle=on", "--oracle=off",
                                       "--format=csv"]),
                      max_size=2, unique=True))
def test_any_scenario_ends_in_documented_exit(case, flags):
    raw, verb = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scenario.json"
        path.write_text(json.dumps(raw))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([verb, str(path), *flags])
    assert code in (0, 2, 3, 4)
    if code in (0, 4) and "--format=csv" in flags:
        header, *records = csv.reader(io.StringIO(stdout.getvalue(), newline=""))
        assert records and all(len(record) == len(header) for record in records)
    elif code in (0, 4):
        json.loads(stdout.getvalue(), parse_constant=reject_constant)
    else:
        assert stdout.getvalue() == ""


# every numeric input field of a scenario, as (block or None, name)
INPUT_FIELDS = (*((block, name) for block in ("waveguide", "drive", "thermal")
                  for name in _BLOCKS[block]._fields),
                ("oracle", "tolerance"), (None, "k_pump"))
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 0.25, -1.0, 400.0, 1e308)


def test_the_property_below_sets_every_numeric_input_field():
    # seven waveguide, two drive and three thermal fields, the oracle's
    # tolerance and k_pump
    assert len(INPUT_FIELDS) == 14


def with_fields(scenario, changes):
    """The scenario with each (block, name) field set to its value."""
    blocks = {}
    for (block, name), value in changes:
        blocks.setdefault(block, {})[name] = value
    top = blocks.pop(None, {})
    top.update({block: getattr(scenario, block).replace(**fields)
                for block, fields in blocks.items()})
    return scenario.replace(**top)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(changes=st.lists(st.tuples(st.sampled_from(INPUT_FIELDS),
                                  st.sampled_from(EDGE_FLOATS)),
                        min_size=1, max_size=3, unique_by=lambda change: change[0]),
       parameter=st.sampled_from(_SWEEPABLE),
       grid=st.lists(st.sampled_from(EDGE_FLOATS), min_size=1, max_size=3))
def test_a_scenario_built_in_code_never_escapes_run_or_sweep(changes, parameter, grid):
    try:
        scenario = with_fields(reference_scenario(), changes)
    except ValueError:
        return
    try:
        report = run(scenario)
    except PhysicsError:
        pass
    else:
        json.dumps(report.to_dict(), allow_nan=False)
    for row in sweep(scenario.replace(sweep=SweepConfig(parameter, grid))):
        assert row["status"] in ("ok", "error")
        json.dumps(row, allow_nan=False)
