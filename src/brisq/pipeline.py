"""Scenario-driven runs from waveguide parameters to squeezing statistics.

A scenario is a JSON document naming the waveguide, the drive, the
scattering geometry, and optional oracle / thermal / sweep blocks; a
null entry counts as absent. Every numeric field is either a NUMBER or
a FREQUENCY, which may also be a string with a unit suffix ("10 GHz");
recognized suffixes are mHz, Hz, kHz, MHz, GHz, THz (case sensitive).
Non-finite values are rejected. run() resolves one scenario end to end;
sweep() runs a grid over one numeric scenario field row by row, recording
per-row failures without aborting the grid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .bogoliubov import SqueezeSpec, diagonalize
from .errors import PhysicsError, ScenarioError, Unstable, require_finite
from .focksim import choose_cutoff, measure_moments, require_cutoff, squeezed_vacuum
from .pump import PumpDrive, PumpSteadyState, pump_steady_state
from .squeezing import (
    QUAD_KEYS,
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

PAIR_PROBABILITY_ORDERS = 6
# bounds both grid forms, steps and the length of a values list; the
# grid is built whole at load
MAX_SWEEP_STEPS = 10**6

FREQUENCY = "frequency"
NUMBER = "number"


def parse_value(value: Any, kind: str, where: str = "value") -> float:
    """Finite float from a scenario value of the given kind.

    NUMBER takes a JSON number. FREQUENCY takes a number in Hz or a
    string with a case-sensitive unit suffix ("10 GHz").
    """
    if isinstance(value, str) and kind == FREQUENCY:
        match = _FREQ_RE.match(value)
        if not (match and match.group(2) in UNIT_SCALES):
            raise ScenarioError(
                f"{where}: cannot parse frequency {value!r}; expected e.g. '10 GHz'")
        number = float(match.group(1)) * UNIT_SCALES[match.group(2)]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
    elif kind == FREQUENCY:
        raise ScenarioError(f"{where}: expected a number or unit string")
    else:
        raise ScenarioError(f"{where}: expected a number")
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: {value!r} is not a finite {kind}")
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


@dataclass(frozen=True)
class OracleConfig:
    """Truncated-Fock cross-check settings. When enabled, every analytic
    moment is compared against the numerical state; the run is flagged
    when the largest deviation exceeds tolerance."""

    enabled: bool = False
    cutoff: int | None = None
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError("enabled: expected true or false")
        if self.cutoff is not None:
            require_cutoff(self.cutoff)
        if not self.tolerance > 0:
            raise ValueError("tolerance: must be positive")


# block -> (dataclass, field -> kind), the kinds in the dataclass's field
# order. A kind of None passes the value to the dataclass, which checks it.
_BLOCKS = {
    "waveguide": (WaveguideParams, {
        "omega0": FREQUENCY, "g": FREQUENCY, "u": FREQUENCY, "gamma": FREQUENCY,
        "vg": NUMBER, "va": NUMBER, "length": NUMBER}),
    "drive": (PumpDrive, {"omega_p": FREQUENCY, "flux_in": NUMBER}),
    "oracle": (OracleConfig, {"enabled": None, "cutoff": None, "tolerance": NUMBER}),
    "thermal": (ThermalEnv, {
        "Omega": FREQUENCY, "temperature": NUMBER, "Gamma": FREQUENCY}),
}

# sweepable parameter -> kind of its values
_SWEEPABLE = {"k_pump": NUMBER} | {
    f"{block}.{name}": kind
    for block in ("waveguide", "drive") for name, kind in _BLOCKS[block][1].items()}


def _sweep_kind(parameter: Any) -> str:
    kind = _SWEEPABLE.get(parameter) if isinstance(parameter, str) else None
    if kind is None:
        raise ScenarioError(
            f"sweep.parameter: {parameter!r} is not sweepable; "
            f"choose one of {list(_SWEEPABLE)}")
    return kind


@dataclass(frozen=True)
class SweepConfig:
    """One-dimensional grid over a numeric scenario field; values, a list
    or tuple of the field's kind, is stored as a tuple of floats."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        kind = _sweep_kind(self.parameter)
        if not isinstance(self.values, (list, tuple)):
            raise ScenarioError("sweep.values: expected a list")
        if len(self.values) > MAX_SWEEP_STEPS:
            raise ScenarioError(
                f"sweep.values: expected at most {MAX_SWEEP_STEPS} entries")
        if not self.values:
            raise ScenarioError("sweep: empty value grid")
        object.__setattr__(self, "values", tuple(
            parse_value(value, kind, "sweep.values") for value in self.values))


def _parse_block(block: str, raw: Any) -> Any:
    cls, kinds = _BLOCKS[block]
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    given = _require_keys(raw, kinds, required, block)
    fields = {name: value if kinds[name] is None
              else parse_value(value, kinds[name], f"{block}.{name}")
              for name, value in given.items()}
    try:
        return cls(**fields)
    except ValueError as err:
        raise ScenarioError(f"{block}: {err}") from err


def _parse_sweep(raw: Any) -> SweepConfig:
    block = _require_keys(raw, {"parameter", "values", "start", "stop", "steps"},
                          {"parameter"}, "sweep")
    kind = _sweep_kind(block["parameter"])
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
        start = parse_value(block["start"], kind, "sweep.start")
        stop = parse_value(block["stop"], kind, "sweep.stop")
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
    return SweepConfig(parameter=block["parameter"], values=values)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario (all frequencies in Hz)."""

    waveguide: WaveguideParams
    drive: PumpDrive
    geometry: str = BACKWARD
    k_pump: float | None = None
    oracle: OracleConfig = OracleConfig()
    thermal: ThermalEnv | None = None
    sweep: SweepConfig | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        given = _require_keys(raw, _SCENARIO_KEYS, {"waveguide", "drive"},
                              "scenario")
        fields = {key: _parse_block(key, value) for key, value in given.items()
                  if key in _BLOCKS}
        geometry = given.get("geometry", BACKWARD)
        if geometry not in (FORWARD, BACKWARD):
            raise ScenarioError(f"geometry: expected 'forward' or 'backward', "
                                f"got {geometry!r}")
        if "k_pump" in given:
            fields["k_pump"] = parse_value(given["k_pump"], NUMBER, "k_pump")
        if "sweep" in given:
            fields["sweep"] = _parse_sweep(given["sweep"])
        return cls(geometry=geometry, **fields)

    def to_dict(self) -> dict:
        """Re-emittable scenario fragment; running it reproduces the run.
        Blocks that are None are left out; k_pump None is written as null."""
        return {key: _plain(getattr(self, key)) for key in _SCENARIO_KEYS
                if getattr(self, key) is not None or key == "k_pump"}


# the scenario's keys, in report key order
_SCENARIO_KEYS = tuple(f.name for f in dataclasses.fields(Scenario))


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


@dataclass
class RunReport:
    """Everything one scenario run produced; to_dict() is the JSON report."""

    scenario: Scenario
    triple: BrillouinTriple
    pump: PumpSteadyState
    squeeze: SqueezeSpec
    pair_probabilities: tuple[float, ...]
    analytic: MomentTable
    oracle: dict | None
    thermal: dict | None

    def to_dict(self) -> dict:
        """Fields in declaration order, leaving out the blocks that are None."""
        return {key: value for key, value in _plain(self).items()
                if value is not None}


def _plain(value: Any) -> Any:
    """JSON-ready form of a report value: a number, string or None as
    is, a complex number as {"re", "im"}, a tuple as a list, a dict as
    a copy, the scenario as it re-emits itself and any other
    dataclass as a dict of its fields."""
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
    return {f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)}


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
    pair_probs = tuple(pair_probability(squeeze.r, n)
                       for n in range(PAIR_PROBABILITY_ORDERS))

    oracle_block = None
    if scenario.oracle.enabled:
        cutoff = scenario.oracle.cutoff
        if cutoff is None:
            cutoff = choose_cutoff(squeeze.r,
                                   flux_tol=scenario.oracle.tolerance)
        state = squeezed_vacuum(cutoff, squeeze.r)
        numeric = measure_moments(state)
        # |n, n> weights, read once from the diagonal; 0 beyond the basis
        weights = (abs(state.grid().diagonal()[:PAIR_PROBABILITY_ORDERS]) ** 2).tolist()
        weights += [0.0] * (PAIR_PROBABILITY_ORDERS - len(weights))
        deviation = worst([table_deviation(analytic, numeric),
                           *(abs(p - q) for p, q in zip(pair_probs, weights))])
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

    return RunReport(
        scenario=scenario,
        triple=triple,
        pump=pump,
        squeeze=squeeze,
        pair_probabilities=pair_probs,
        analytic=analytic,
        oracle=oracle_block,
        thermal=thermal_block,
    )


def _replace_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """The scenario with one field set; the changed block is built anew,
    so its __post_init__ checks the value."""
    block, _, name = path.rpartition(".")
    try:
        if not block:
            return Scenario(**{**vars(scenario), name: value})
        inner = getattr(scenario, block)
        inner = type(inner)(**{**vars(inner), name: value})
    except ValueError as err:
        raise ScenarioError(f"{path}: {err}") from err
    return Scenario(**{**vars(scenario), block: inner})


_ERROR_KEYS = ("parameter", "value", "status", "error_type", "error")
_OK_KEYS = (*_ERROR_KEYS[:3], "f", "r", "pump_photons", "P_0", "P_1", "P_2",
            *(f"S_{quad}" for quad in QUAD_KEYS))
_ORACLE_KEYS = ("oracle_deviation", "oracle_ok")


def sweep_columns(scenario: Scenario) -> tuple[str, ...]:
    """Every key of sweep(scenario)'s rows, in row order: an error
    row's keys, of which an ok row has the first three, then the rest."""
    return (_ERROR_KEYS + _OK_KEYS[3:]
            + (_ORACLE_KEYS if scenario.oracle.enabled else ()))


def _sweep_row(scenario: Scenario, value: float) -> dict[str, Any]:
    parameter = scenario.sweep.parameter
    try:
        report = run(_replace_parameter(scenario, parameter, value))
    except (PhysicsError, ScenarioError) as err:
        return dict(zip(_ERROR_KEYS,
                        (parameter, value, "error", type(err).__name__, str(err))))
    keys = _OK_KEYS
    cells = (parameter, value, "ok", report.squeeze.f, report.squeeze.r,
             report.pump.photon_number, *report.pair_probabilities[:3],
             *map(report.analytic.squeezing.__getitem__, QUAD_KEYS))
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
    return (_sweep_row(scenario, value) for value in scenario.sweep.values)


def reference_scenario(oracle: bool = True) -> Scenario:
    """Backward-scattering reference device with a 10 GHz phonon.

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
        oracle=OracleConfig(enabled=oracle),
        thermal=ThermalEnv(Omega=Omega, temperature=0.2, Gamma=1e6),
    )


def _squeezing(quad: str):
    return lambda report: report.analytic.squeezing[quad]


REFERENCE_CHECKS = (
    # name, value read from the report, kind, expected, tolerance
    ("coupling |f|", lambda report: report.squeeze.f, "rel", 1e9, 1e-3),
    ("cosh^2 r", lambda report: math.cosh(report.squeeze.r) ** 2,
     "abs", 1.0025, 1e-4),
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
