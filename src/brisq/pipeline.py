"""Scenario-driven runs from waveguide parameters to squeezing statistics.

A scenario is a JSON document naming the waveguide, the drive, the
scattering geometry, and optional oracle / thermal / sweep blocks; a
null entry counts as absent. A field in UNIT_FIELDS may be a string with
a case-sensitive unit suffix ("10 GHz"); every other value goes as given
to the record that owns the field, which checks it as in code. run()
resolves one scenario end to end; sweep() runs a grid over one numeric
field row by row, recording per-row failures without aborting the grid.
"""

from __future__ import annotations

import json
import math
import operator
import re
from typing import Any, Iterable, Iterator, Sequence

from ._record import FrozenRecord, Record, set_field
from .bogoliubov import SqueezeSpec, diagonalize
from .errors import PhysicsError, ScenarioError, Unstable, require_finite, require_real
from .focksim import (
    choose_cutoff,
    diagonal_moments,
    # not called here: perfbench's tracer and its contract test look these two up
    measure_moments,
    require_cutoff,
    squeezed_vacuum,
    vacuum_column,
)
from .pump import PumpDrive, PumpSteadyState, pump_steady_state
from .squeezing import (
    QUAD_KEYS,
    TABLE_LAYOUT,
    TABLE_SLICES,
    MomentTable,
    ThermalEnv,
    full_moment_table,
    pair_probability,
    pair_tail,
    table_deviation,
    thermal_occupation,
    worst,
)
from .waveguide import BACKWARD, FORWARD, BrillouinTriple, WaveguideParams, phase_match

UNIT_SCALES = {
    "mHz": 1e-3,
    "Hz": 1.0,
    "kHz": 1e3,
    "MHz": 1e6,
    "GHz": 1e9,
    "THz": 1e12,
}
_FREQ_RE = re.compile(
    r"^\s*([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)\s*([a-zA-Z]+)\s*$")
# the fields a file may write as a unit string, by the names a sweep gives them
UNIT_FIELDS = {"waveguide.omega0", "waveguide.g", "waveguide.u", "waveguide.gamma",
               "drive.omega_p", "thermal.Omega", "thermal.Gamma"}

PAIR_PROBABILITY_ORDERS = 6
# bounds both grid forms, steps and the length of a values list; the
# grid is built whole at load
MAX_SWEEP_STEPS = 10**6


def parse_value(value: Any, field: str, where: str | None = None) -> Any:
    """A unit string ("10 GHz") given for a field in UNIT_FIELDS as its finite
    frequency in Hz; any other value as given. Errors name where, or the field."""
    if not (isinstance(value, str) and field in UNIT_FIELDS):
        return value
    where = where or field
    match = _FREQ_RE.match(value)
    if not (match and match.group(2) in UNIT_SCALES):
        raise ScenarioError(
            f"{where}: cannot parse frequency {value!r}; expected e.g. '10 GHz'")
    number = float(match.group(1)) * UNIT_SCALES[match.group(2)]
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: {value!r} is not a finite frequency")
    return number


def _require_keys(block: Any, allowed: Iterable[str], required: set[str],
                  where: str) -> dict:
    """The block's entries that are not null (null counts as absent)."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    given = {key: value for key, value in block.items() if value is not None}
    missing = required - set(given)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")
    return given


class OracleConfig(FrozenRecord):
    """Truncated-Fock cross-check settings. When enabled, every analytic
    moment is compared against the numerical state; the run is flagged
    when the largest deviation exceeds tolerance."""

    def __init__(self, enabled: bool = False, cutoff: int | None = None,
                 tolerance: float = 1e-8) -> None:
        tolerance = require_real("tolerance", tolerance)
        if not isinstance(enabled, bool):
            raise ValueError("enabled: expected true or false")
        if cutoff is not None:
            require_cutoff(cutoff)
        if not tolerance > 0:
            raise ValueError("tolerance: must be positive")
        set_field(self, "enabled", enabled)
        set_field(self, "cutoff", cutoff)
        set_field(self, "tolerance", tolerance)


# block -> the record whose _fields are its keys. Every field of a block
# is required but the oracle's, which all have defaults.
_BLOCKS = {"waveguide": WaveguideParams, "drive": PumpDrive, "oracle": OracleConfig,
           "thermal": ThermalEnv}

# the parameters a sweep may vary, in the order its error lists them
_SWEEPABLE = ("k_pump", *(f"{block}.{name}" for block in ("waveguide", "drive")
                          for name in _BLOCKS[block]._fields))


def _require_sweepable(parameter: Any) -> None:
    if parameter not in _SWEEPABLE:
        raise ScenarioError(
            f"sweep.parameter: {parameter!r} is not sweepable; "
            f"choose one of {list(_SWEEPABLE)}")


def _grid_value(value: Any, parameter: str, where: str) -> float:
    """A sweep value of the parameter, as its record would store it."""
    value = parse_value(value, parameter, where)
    try:
        return require_real(where, value)
    except ValueError as err:
        raise ScenarioError(str(err)) from err


class SweepConfig(FrozenRecord):
    """One-dimensional grid over a numeric scenario field; values, a list
    or tuple of values the field takes, is stored as a tuple of floats."""

    def __init__(self, parameter: str, values: Sequence[Any]) -> None:
        _require_sweepable(parameter)
        if not isinstance(values, (list, tuple)):
            raise ScenarioError("sweep.values: expected a list")
        if len(values) > MAX_SWEEP_STEPS:
            raise ScenarioError(
                f"sweep.values: expected at most {MAX_SWEEP_STEPS} entries")
        if not values:
            raise ScenarioError("sweep: empty value grid")
        set_field(self, "parameter", parameter)
        set_field(self, "values", tuple(
            _grid_value(value, parameter, "sweep.values") for value in values))


def _parse_block(block: str, raw: Any) -> Any:
    cls = _BLOCKS[block]
    names = cls._fields
    given = _require_keys(raw, names, set() if block == "oracle" else set(names), block)
    fields = {name: parse_value(value, f"{block}.{name}")
              for name, value in given.items()}
    try:
        return cls(**fields)
    except ValueError as err:
        raise ScenarioError(f"{block}: {err}") from err


def _parse_sweep(raw: Any) -> SweepConfig:
    block = _require_keys(raw, {"parameter", "values", "start", "stop", "steps"},
                          {"parameter"}, "sweep")
    parameter = block["parameter"]
    _require_sweepable(parameter)
    if "values" in block:
        if set(block) & {"start", "stop", "steps"}:
            raise ScenarioError("sweep: give either values or start/stop/steps")
        values = block["values"]
    else:
        for key in ("start", "stop", "steps"):
            if key not in block:
                raise ScenarioError(f"sweep: missing {key}")
        steps = block["steps"]
        if type(steps) is not int or not 1 <= steps <= MAX_SWEEP_STEPS:
            raise ScenarioError(
                f"sweep.steps: expected an int in [1, {MAX_SWEEP_STEPS}]")
        start = _grid_value(block["start"], parameter, "sweep.start")
        stop = _grid_value(block["stop"], parameter, "sweep.stop")
        if steps == 1:
            values = [start]
        else:
            width = (stop - start) / (steps - 1)
            # rounding is monotonic, so every grid value lies between
            # start and the far end: a finite far end means a finite grid
            if not math.isfinite(start + (steps - 1) * width):
                raise ScenarioError(
                    f"sweep: the grid from start {start!r} to stop {stop!r} "
                    "overflows the float range")
            values = [start + i * width for i in range(steps)]
    return SweepConfig(parameter=parameter, values=values)


class Scenario(FrozenRecord):
    """Fully resolved scenario (all frequencies in Hz)."""

    def __init__(self, waveguide: WaveguideParams, drive: PumpDrive,
                 geometry: str = BACKWARD, k_pump: float | None = None,
                 oracle: OracleConfig = OracleConfig(), thermal: ThermalEnv | None = None,
                 sweep: SweepConfig | None = None) -> None:
        k_pump = None if k_pump is None else require_real("k_pump", k_pump)
        if geometry not in (FORWARD, BACKWARD):
            raise ValueError(f"geometry: expected 'forward' or 'backward', "
                             f"got {geometry!r}")
        set_field(self, "waveguide", waveguide)
        set_field(self, "drive", drive)
        set_field(self, "geometry", geometry)
        set_field(self, "k_pump", k_pump)
        set_field(self, "oracle", oracle)
        set_field(self, "thermal", thermal)
        set_field(self, "sweep", sweep)

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        given = _require_keys(raw, cls._fields, {"waveguide", "drive"}, "scenario")
        fields = {key: _parse_block(key, value) if key in _BLOCKS else value
                  for key, value in given.items()}
        if "sweep" in fields:
            fields["sweep"] = _parse_sweep(fields["sweep"])
        try:
            return cls(**fields)
        except ValueError as err:
            raise ScenarioError(str(err)) from err

    def to_dict(self) -> dict:
        """Re-emittable scenario fragment; running it reproduces the run.
        Blocks that are None are left out; k_pump None is written as null."""
        return {key: _plain(getattr(self, key)) for key in self._fields
                if getattr(self, key) is not None or key == "k_pump"}


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as stream:
            raw = json.load(stream)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path!r}: {err}") from err
    except (ValueError, RecursionError) as err:
        # bad JSON or UTF-8, an oversized integer, or nesting too deep to decode
        raise ScenarioError(f"scenario {path!r} is not valid JSON: {err}") from err
    return Scenario.from_dict(raw)


class RunReport(Record):
    """Everything one scenario run produced; to_dict() is the JSON report."""

    def __init__(self, scenario: Scenario, triple: BrillouinTriple,
                 pump: PumpSteadyState, squeeze: SqueezeSpec,
                 pair_probabilities: tuple[float, ...], analytic: MomentTable,
                 oracle: dict | None, thermal: dict | None) -> None:
        self.scenario = scenario
        self.triple = triple
        self.pump = pump
        self.squeeze = squeeze
        self.pair_probabilities = pair_probabilities
        self.analytic = analytic
        self.oracle = oracle
        self.thermal = thermal

    def to_dict(self) -> dict:
        """Fields in declaration order, leaving out the blocks that are None."""
        return {key: value for key, value in _plain(self).items()
                if value is not None}


def _plain(value: Any) -> Any:
    """JSON-ready form of a report value: a number, string or None as
    is, a complex number as {"re", "im"}, a tuple as a list, a dict as
    a copy, the scenario as it re-emits itself, a moment table as r,
    its sections as dicts in TABLE_LAYOUT order and max_imag_discarded,
    and any other record as a dict of its fields."""
    if isinstance(value, (float, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, Scenario):
        return value.to_dict()
    if isinstance(value, MomentTable):
        # each section is a fresh dict of floats
        return {"r": value.r, **{name: getattr(value, name) for name, _ in TABLE_LAYOUT},
                "max_imag_discarded": value.max_imag_discarded}
    return {name: _plain(getattr(value, name)) for name in value._fields}


def run(scenario: Scenario) -> RunReport:
    """Resolve one scenario end to end.

    Pipeline: phase match the pump, settle the classical pump steady
    state, feed |f| into the Bogoliubov diagonalization, tabulate the
    squeezed-vacuum statistics, then optionally cross-check against a
    truncated-Fock state and attach the thermal phonon occupation.
    """
    waveguide = scenario.waveguide
    drive = scenario.drive
    k_pump = scenario.k_pump
    if k_pump is None:
        # drive carrier on the forward branch fixes the pump mode
        k_pump = (drive.omega_p - waveguide.omega0) / waveguide.vg
    triple = phase_match(waveguide, k_pump, scenario.geometry)
    pump = pump_steady_state(waveguide, drive, triple.omega_pump)
    # both frequencies of the finite triple are positive, so omega fits
    omega = triple.omega_pump - triple.omega_signal
    Omega = triple.Omega_phonon
    if omega <= 0 or Omega <= 0:
        raise Unstable(
            f"{scenario.geometry} geometry leaves no positive-frequency "
            "signal/phonon pair to squeeze")
    squeeze = diagonalize(omega, Omega, abs(pump.coupling))
    analytic = full_moment_table(squeeze.r)
    # one call per order through this module's pair_probability, which
    # perfbench's tracer wraps and counts
    pair_probs = tuple(map(pair_probability, (squeeze.r,) * PAIR_PROBABILITY_ORDERS,
                           range(PAIR_PROBABILITY_ORDERS)))

    oracle_block = None
    if scenario.oracle.enabled:
        cutoff = scenario.oracle.cutoff
        if cutoff is None:
            cutoff = choose_cutoff(squeeze.r,
                                   flux_tol=scenario.oracle.tolerance)
        # the squeezed vacuum lives on the n_a = n_b diagonal: its column
        # there, built by whichever kernel vacuum_column chooses, is
        # measured on that diagonal, and no cutoff**2 state is built
        column = vacuum_column(cutoff, squeeze.r)
        numeric = diagonal_moments(column)
        # each P_n against the |n, n> weight of the real column, which is
        # 0 beyond the basis, where |P_n - 0| is P_n
        deviation = worst([table_deviation(analytic, numeric),
                           *map(abs, map(operator.sub, pair_probs,
                                         map(operator.mul, column, column))),
                           *pair_probs[cutoff:]])
        # a NaN or infinity in the numeric table or the weights shows here
        require_finite("oracle deviations", deviation)
        oracle_block = {
            "cutoff": cutoff,
            "tail_mass": pair_tail(squeeze.r, cutoff),
            "deviation": deviation,
            "tolerance": scenario.oracle.tolerance,
            "ok": deviation <= scenario.oracle.tolerance,
            "table": numeric,
        }

    thermal_block = None
    if scenario.thermal is not None:
        thermal_block = {
            "n_bar": thermal_occupation(scenario.thermal),
            "quality": scenario.thermal.quality,
        }

    return RunReport(scenario, triple, pump, squeeze, pair_probs, analytic,
                     oracle_block, thermal_block)


_ERROR_KEYS = ("parameter", "value", "status", "error_type", "error")
_OK_KEYS = (*_ERROR_KEYS[:3], "f", "r", "pump_photons", "P_0", "P_1", "P_2",
            *(f"S_{quad}" for quad in QUAD_KEYS))
_ORACLE_KEYS = ("oracle_deviation", "oracle_ok")
# an ok row's S_<quad> cells, in QUAD_KEYS order as the table holds them
_SQUEEZING_CELLS = TABLE_SLICES["squeezing"]


def sweep_columns(scenario: Scenario) -> tuple[str, ...]:
    """Every key of sweep(scenario)'s rows, in row order: an error
    row's keys, of which an ok row has the first three, then the rest."""
    return (_ERROR_KEYS + _OK_KEYS[3:]
            + (_ORACLE_KEYS if scenario.oracle.enabled else ()))


def _sweep_row(scenario: Scenario, block: str, name: str, value: float) -> dict[str, Any]:
    """The row with the swept field set to value: field name of the
    scenario's block, or of the scenario itself where block is empty.
    That block and the scenario are built anew through their __init__,
    so every field is gated as in a file."""
    parameter = scenario.sweep.parameter
    fields = vars(scenario)
    try:
        try:
            swept = {name: value}
            if block:
                inner = fields[block]
                swept = {block: type(inner)(**{**vars(inner), **swept})}
            changed = Scenario(**{**fields, **swept})
        except ValueError as err:
            raise ScenarioError(f"{parameter}: {err}") from err
        report = run(changed)
    except (PhysicsError, ScenarioError) as err:
        return dict(zip(_ERROR_KEYS,
                        (parameter, value, "error", type(err).__name__, str(err))))
    keys = _OK_KEYS
    squeeze = report.squeeze
    cells = (parameter, value, "ok", squeeze.f, squeeze.r, report.pump.photon_number,
             *report.pair_probabilities[:3], *report.analytic.values[_SQUEEZING_CELLS])
    if report.oracle is not None:
        keys += _ORACLE_KEYS
        cells += (report.oracle["deviation"], report.oracle["ok"])
    return dict(zip(keys, cells))


def sweep(scenario: Scenario) -> Iterator[dict[str, Any]]:
    """Run the scenario once per grid value of the swept parameter.

    Returns an iterator of row dicts in grid order, each computed when it
    is asked for; sweep_columns(scenario) names their keys. A row that
    fails with a physics or scenario error (a grid value its field
    rejects) records the error class and message, and the grid moves on.
    A missing sweep block raises at this call, before any row runs.
    """
    if scenario.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    block, _, name = scenario.sweep.parameter.rpartition(".")
    return (_sweep_row(scenario, block, name, value) for value in scenario.sweep.values)


def reference_scenario() -> Scenario:
    """Backward-scattering reference device with a 10 GHz phonon, oracle on.

    Representative single-mode waveguide numbers (193 THz carrier,
    vg = 7e7 m/s, va = 8433 m/s, 1 cm length) with g = u = 1 MHz,
    gamma = 10 mHz, a resonant 1e12 photons/s drive, and a 200 mK
    phonon bath with 1 MHz linewidth. The pump wavenumber is chosen so
    the phase-matched phonon lands exactly on 10 GHz.
    """
    waveguide = WaveguideParams(omega0=193e12, vg=7e7, va=8433.0,
                                length=0.01, g=1e6, u=1e6, gamma=0.01)
    Omega = 1e10
    k_pump = Omega * (waveguide.vg + waveguide.va) / (2.0 * waveguide.va
                                                      * waveguide.vg)
    omega_p = waveguide.omega0 + waveguide.vg * k_pump
    return Scenario(
        waveguide=waveguide,
        drive=PumpDrive(omega_p=omega_p, flux_in=1e12),
        geometry=BACKWARD,
        k_pump=k_pump,
        oracle=OracleConfig(enabled=True),
        thermal=ThermalEnv(Omega=Omega, temperature=0.2, Gamma=1e6),
    )


def _squeezing(quad: str):
    return lambda report: report.analytic.squeezing[quad]


REFERENCE_CHECKS = (
    # name, value read from the report, kind, expected, tolerance
    ("coupling |f|", lambda report: report.squeeze.f, "rel", 1e9, 1e-3),
    ("cosh^2 r", lambda report: math.cosh(report.squeeze.r) ** 2, "abs", 1.0025, 1e-4),
    ("tanh r", lambda report: math.tanh(report.squeeze.r), "abs", 0.05, 1e-3),
    ("P_0", lambda report: report.pair_probabilities[0], "abs", 0.9975, 1e-4),
    ("P_1", lambda report: report.pair_probabilities[1], "abs", 0.0025, 1e-4),
    ("P_2", lambda report: report.pair_probabilities[2], "rel", 6.25e-6, 2e-2),
    ("S_X_a", _squeezing("X_a"), "abs", 0.0025, 1e-4),
    ("S_Y_a", _squeezing("Y_a"), "abs", 0.0025, 1e-4),
    ("S_X_b", _squeezing("X_b"), "abs", 0.0025, 1e-4),
    ("S_Y_b", _squeezing("Y_b"), "abs", 0.0025, 1e-4),
    ("S_X_c", _squeezing("X_c"), "abs", -0.0475, 5e-4),
    ("S_Y_d", _squeezing("Y_d"), "abs", -0.0475, 5e-4),
    ("S_Y_c", _squeezing("Y_c"), "abs", 0.0525, 5e-4),
    ("S_X_d", _squeezing("X_d"), "abs", 0.0525, 5e-4),
    ("quality Q", lambda report: report.thermal["quality"], "exact", 1e4, 0.0),
    ("thermal n_bar", lambda report: report.thermal["n_bar"], "rel", 0.1, 5e-2),
)


def reference_checks() -> list[dict]:
    """Run the reference device and compare it against its documented values.

    Returns one row per check: name, measured value, expected value,
    tolerance, kind ('abs', 'rel' or 'exact') and ok, then the oracle's
    deviation-vs-tolerance verdict as a row of kind 'max'.
    """
    report = run(reference_scenario())
    rows = []
    for name, read, kind, expected, tolerance in REFERENCE_CHECKS:
        value = read(report)
        if kind == "abs":
            ok = abs(value - expected) <= tolerance
        elif kind == "rel":
            ok = abs(value - expected) <= tolerance * abs(expected)
        else:
            ok = value == expected
        rows.append({"name": name, "value": value, "expected": expected,
                     "tolerance": tolerance, "kind": kind, "ok": ok})
    rows.append({
        "name": "oracle deviation",
        "value": report.oracle["deviation"],
        "expected": report.oracle["tolerance"],
        "tolerance": report.oracle["tolerance"],
        "kind": "max",
        "ok": bool(report.oracle["ok"]),
    })
    return rows
