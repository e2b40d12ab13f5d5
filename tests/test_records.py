"""The record contract: every record's fields in __init__'s order, which
is the report's key order, equality field by field, replace() as a
checked copy, and hashing and freezing for the frozen records alone."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import brisq
from brisq._record import FrozenRecord, Record
from brisq.errors import PhysicsError, ScenarioError
from brisq.focksim import BogoliubovResiduals, TwoModeState, vacuum_state
from brisq.pipeline import Scenario, SweepConfig, _plain, reference_scenario, run

REPORT = run(reference_scenario())
SCENARIO = REPORT.scenario

# record -> (an instance, a valid change, an invalid change and its error
# or None where __init__ checks nothing)
RECORDS = {
    "WaveguideParams": (SCENARIO.waveguide, {"g": 2e6}, ({"va": 8e7}, ValueError)),
    "PumpDrive": (SCENARIO.drive, {"flux_in": 4e12}, ({"omega_p": 0.0}, ValueError)),
    "OracleConfig": (SCENARIO.oracle, {"cutoff": 8}, ({"enabled": 1}, ValueError)),
    "ThermalEnv": (SCENARIO.thermal, {"temperature": 0.0}, ({"Gamma": 0.0}, ValueError)),
    "SweepConfig": (SweepConfig("drive.flux_in", (1e12, 2e12)), {"values": [3e12]},
                    ({"parameter": "geometry"}, ValueError)),
    "Scenario": (SCENARIO, {"k_pump": None}, ({"geometry": "sideways"}, ValueError)),
    "BrillouinTriple": (REPORT.triple, {"q_phonon": 0.0},
                        ({"k_pump": math.inf}, PhysicsError)),
    "PumpSteadyState": (REPORT.pump, {"photon_number": 0.0},
                        ({"coupling": complex(1.7e308, 1.7e308)}, PhysicsError)),
    "SqueezeSpec": (REPORT.squeeze, {"r": 0.0}, ({"gap": math.nan}, PhysicsError)),
    "MomentTable": (REPORT.analytic, {"r": None}, ({"values": ()}, ValueError)),
    "RunReport": (REPORT, {"oracle": None}, None),
    "TwoModeState": (vacuum_state(3), {"amplitudes": np.eye(9)[1]},
                     ({"cutoff": 4}, ValueError)),
    "BogoliubovResiduals": (BogoliubovResiduals(0.0, 1e-16, 0.0, 2), {"block": 3}, None),
}
FROZEN = {"WaveguideParams", "PumpDrive", "OracleConfig", "ThermalEnv", "SweepConfig",
          "Scenario", "TwoModeState", "BogoliubovResiduals"}
# the records the report writes as a dict of their fields
REPORTED = {"WaveguideParams", "PumpDrive", "OracleConfig", "ThermalEnv", "SweepConfig",
            "BrillouinTriple", "PumpSteadyState", "SqueezeSpec"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_listed():
    assert {type(value[0]).__name__ for value in RECORDS.values()} == set(RECORDS)
    for module in pkgutil.iter_modules(brisq.__path__):
        importlib.import_module(f"brisq.{module.name}")
    defined = {cls.__name__ for cls in _subclasses(Record)
               if cls.__module__.startswith("brisq.") and cls is not FrozenRecord}
    assert defined == set(RECORDS)


def test_fields_are_read_off_init():
    class Toy(Record):
        def __init__(self, a, b=1, *rest, c, d=2, **extra):
            total = a + b  # a local name, not a field

    class Child(Toy):
        pass

    class Keywords(FrozenRecord):
        def __init__(self, *, x=0.0):
            pass

    # positional then keyword-only parameters, without self, *rest,
    # **extra or a local
    assert Toy._fields == ("a", "b", "c", "d")
    assert Child._fields == Toy._fields
    assert Keywords._fields == ("x",)
    assert Record._fields == FrozenRecord._fields == ()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    record, change, invalid = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    # _fields, read off __init__'s code, is its signature's order and all
    # an instance holds; the report writes a record's fields in that order
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    assert list(vars(record)) == list(cls._fields)
    if name in REPORTED:
        assert list(_plain(record)) == list(cls._fields)
    assert repr(record).startswith(f"{name}({cls._fields[0]}=")

    copy = record.replace()
    assert copy is not record and copy == record and not copy != record
    changed = record.replace(**change)
    for field in cls._fields:
        expected = change[field] if field in change else getattr(record, field)
        if isinstance(expected, list):
            expected = tuple(expected)
        if isinstance(expected, np.ndarray):
            # a state stores its own read-only copy of the array it is given
            assert np.array_equal(getattr(changed, field), expected)
            continue
        assert getattr(changed, field) is expected or getattr(changed, field) == expected
    assert changed != record
    assert record != object() and record.__eq__(object()) is NotImplemented
    if invalid is not None:
        fields, error = invalid
        with pytest.raises(error):
            record.replace(**fields)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)

    if name not in FROZEN:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    if cls is not TwoModeState:  # its amplitudes, an array, are not hashable
        assert hash(copy) == hash(record)
        assert {record: 1}[copy] == 1
    field = cls._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy == record



# the input records' fields that take a number or a flag -> the block a
# scenario file writes them in (None: the scenario's own key)
INPUT_FIELDS = {
    "WaveguideParams": ("waveguide", SCENARIO.waveguide._fields),
    "PumpDrive": ("drive", SCENARIO.drive._fields),
    "ThermalEnv": ("thermal", SCENARIO.thermal._fields),
    "OracleConfig": ("oracle", SCENARIO.oracle._fields),
    "Scenario": (None, ("k_pump",)),
}
JUNK = {"str": "x", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
        "bool": True, "complex": 1j, "list": [1.0], "int-10**400": 10**400}
# the junk values a field takes: no cutoff or k_pump, and an enabled oracle
VALID = {("cutoff", "None"), ("k_pump", "None"), ("enabled", "bool")}
JUNK_CASES = [pytest.param(name, field, label, id=f"{name}.{field}={label}")
              for name, (_, fields) in INPUT_FIELDS.items() for field in fields
              for label in JUNK if (field, label) not in VALID]


def test_junk_matrix_covers_every_input_field():
    assert set(INPUT_FIELDS) <= set(RECORDS)
    assert len(JUNK_CASES) == 141


@pytest.mark.parametrize("name, field, label", JUNK_CASES)
def test_record_refuses_junk_as_a_file_does(name, field, label):
    # a record built in code refuses what the file parser refuses, so
    # run and sweep never see a value their stages cannot take
    record = RECORDS[name][0]
    junk = JUNK[label]
    with pytest.raises(ValueError):
        type(record)(**{**vars(record), field: junk})
    with pytest.raises(ValueError):
        record.replace(**{field: junk})
    block, _ = INPUT_FIELDS[name]
    raw = SCENARIO.to_dict()
    if block is None:
        raw[field] = junk
    elif junk is None and name == "OracleConfig":
        return  # a null oracle field counts as absent and takes its default
    else:
        raw[block] = {**raw[block], field: junk}
    with pytest.raises(ScenarioError):
        Scenario.from_dict(raw)


def test_library_scenario_refuses_a_bad_k_pump_and_tolerance():
    # both were accepted: run raised a bare TypeError (and sweep() raised it
    # out of its iterator), and an infinite tolerance passed every oracle
    with pytest.raises(ValueError, match="^k_pump: expected a number$"):
        reference_scenario().replace(k_pump="fast")
    with pytest.raises(ValueError, match="^tolerance: inf is not a finite number$"):
        SCENARIO.oracle.replace(tolerance=math.inf)
    # fields are stored as the gated float
    assert SCENARIO.waveguide.replace(va=8433).va.__class__ is float
