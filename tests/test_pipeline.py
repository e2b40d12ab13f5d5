"""Scenario parsing, end-to-end runs, sweeps, and reference checks."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brisq import cli, focksim, pipeline
from brisq.errors import CutoffTooSmall, PhysicsError, ScenarioError, Unstable
from brisq.focksim import _sector_spectrum
from brisq.pipeline import (
    _BLOCKS,
    FREQUENCY,
    MAX_SWEEP_STEPS,
    NUMBER,
    OracleConfig,
    Scenario,
    SweepConfig,
    load_scenario,
    parse_value,
    reference_checks,
    reference_scenario,
    run,
    sweep,
)
from brisq.pump import PumpDrive
from brisq.squeezing import QUAD_KEYS

REFERENCE_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "backward_10ghz.json"
K_PUMP_REF = 592980.2391963544
Q_PHONON_REF = 1185817.6212498515
F_REF = 999999995.0
R_REF = 0.05016767361301254
P0_REF = 0.9974874213492432
P1_REF = 0.002506265599280449
NBAR_REF = 0.09981030749537737


def scenario_dict(**overrides):
    raw = {
        "waveguide": {"omega0": "193 THz", "vg": 7e7, "va": 8433.0,
                      "length": 0.01, "g": "1 MHz", "u": "1 MHz",
                      "gamma": "10 mHz"},
        "drive": {"omega_p": 234508616743744.8, "flux_in": 1e12},
        "geometry": "backward",
        "k_pump": K_PUMP_REF,
        "oracle": {"enabled": True},
        "thermal": {"Omega": "10 GHz", "temperature": 0.2, "Gamma": "1 MHz"},
    }
    raw.update(overrides)
    return {key: value for key, value in raw.items() if value is not None}


def test_parse_frequency():
    assert parse_value("10 GHz", FREQUENCY) == 1e10
    assert parse_value("10 mHz", FREQUENCY) == 0.01
    assert parse_value("2.5kHz", FREQUENCY) == 2500.0
    assert parse_value("1e9 Hz", FREQUENCY) == 1e9
    assert parse_value(".5 Hz", FREQUENCY) == 0.5
    assert parse_value(5, FREQUENCY) == 5.0
    assert parse_value(2.5e6, FREQUENCY) == 2.5e6
    assert parse_value(2.5e6, NUMBER) == 2.5e6
    for bad in ("10 Mhz", "GHz", "1 XHz", "10e9", True, None, [1e9],
                "1.2.3 MHz", ". Hz", "1e999 Hz", "1e300 THz", "nan Hz",
                math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ScenarioError):
            parse_value(bad, FREQUENCY)
    for bad in ("1 kHz", "5", True, None, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ScenarioError):
            parse_value(bad, NUMBER)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_dict()))
    scenario = load_scenario(str(path))
    assert scenario.waveguide.omega0 == 193e12
    assert scenario.waveguide.gamma == 0.01
    assert scenario.drive.flux_in == 1e12
    assert scenario.geometry == "backward"
    assert scenario.k_pump == K_PUMP_REF
    assert scenario.oracle.enabled is True
    assert scenario.oracle.tolerance == 1e-8
    assert scenario.thermal.Omega == 1e10

    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
    top = tmp_path / "list.json"
    top.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(str(top))


def test_scenario_validation_errors():
    cases = [
        scenario_dict(drive=None),                         # missing block
        dict(scenario_dict(), extra=1),                    # unknown key
        scenario_dict(geometry="sideways"),
        scenario_dict(k_pump="fast"),
        scenario_dict(oracle={"enabled": "yes"}),
        scenario_dict(oracle={"enabled": True, "cutoff": 2.5}),
        scenario_dict(oracle={"tolerance": 0.0}),
        scenario_dict(thermal={"Omega": "10 GHz", "temperature": -0.2,
                               "Gamma": "1 MHz"}),
        scenario_dict(thermal={"Omega": "10 GHz"}),
        scenario_dict(sweep={"parameter": "drive.flux_in"}),
        scenario_dict(sweep={"parameter": "drive.flux_in", "values": []}),
        scenario_dict(sweep={"parameter": "drive.flux_in", "values": [1e12],
                             "steps": 3}),
        scenario_dict(sweep={"parameter": "drive.flux_in", "start": 1e11,
                             "stop": 1e12, "steps": 0}),
        scenario_dict(sweep={"parameter": "pump.phase", "values": [0.1]}),
        scenario_dict(waveguide={"omega0": "193 THz", "vg": 7e7}),
        scenario_dict(waveguide={"omega0": "193 THz", "vg": 8433.0,
                                 "va": 7e7, "length": 0.01, "g": "1 MHz",
                                 "u": "1 MHz", "gamma": "10 mHz"}),
    ]
    for raw in cases:
        with pytest.raises(ScenarioError):
            Scenario.from_dict(raw)


def test_sweep_grid_construction():
    raw = scenario_dict(sweep={"parameter": "drive.flux_in", "start": 1e11,
                               "stop": 2e13, "steps": 9})
    scenario = Scenario.from_dict(raw)
    assert len(scenario.sweep.values) == 9
    assert scenario.sweep.values[0] == 1e11
    assert scenario.sweep.values[-1] == 2e13
    single = Scenario.from_dict(scenario_dict(
        sweep={"parameter": "k_pump", "start": 1.0, "stop": 2.0, "steps": 1}))
    assert single.sweep.values == (1.0,)
    units = Scenario.from_dict(scenario_dict(
        sweep={"parameter": "waveguide.g", "values": ["1 MHz", 2e6]}))
    assert units.sweep.values == (1e6, 2e6)


def test_overflowing_grid_names_start_and_stop():
    # the width overflowed (0 * inf made the middle value NaN), or the
    # steps did (6 * (max / 6) rounds past max): either was reported as a
    # grid value the user never wrote
    half = 0.5 * sys.float_info.max
    for start, stop, steps in ((-1e308, 1e308, 3), (1e308, -1e308, 3), (-half, half, 7)):
        with pytest.raises(ScenarioError, match="grid from start .* to stop .* overflows"):
            Scenario.from_dict(scenario_dict(
                sweep={"parameter": "k_pump", "start": start, "stop": stop, "steps": steps}))
    # a span at the edge of the range still makes its grid
    edge = Scenario.from_dict(scenario_dict(
        sweep={"parameter": "k_pump", "start": -8e307, "stop": 8e307, "steps": 3}))
    assert edge.sweep.values == (-8e307, 0.0, 8e307)


def test_oracle_cutoff_goes_through_the_basis_gate():
    for cutoff in (1, 2.0, True, 129):
        with pytest.raises(ScenarioError,
                           match=r"^oracle: cutoff: expected an integer in \[2, 128\]$"):
            Scenario.from_dict(scenario_dict(oracle={"enabled": True, "cutoff": cutoff}))
    assert OracleConfig(enabled=True, cutoff=128).cutoff == 128


def test_reference_scenario_is_the_committed_file():
    # brisq check runs the one, the goldens and the benchmark the other
    assert reference_scenario() == load_scenario(str(REFERENCE_FILE))


def test_sweep_values_list_is_bounded_before_parsing():
    # the first entry is malformed, so only a length check made before
    # parsing reports the bound
    values = ["not a number"] + [1e12] * MAX_SWEEP_STEPS
    with pytest.raises(ScenarioError, match=f"at most {MAX_SWEEP_STEPS}"):
        Scenario.from_dict(scenario_dict(
            sweep={"parameter": "drive.flux_in", "values": values}))
    # a string is refused as a whole, not iterated as a grid of characters
    with pytest.raises(ScenarioError, match="sweep.values: expected a list"):
        Scenario.from_dict(scenario_dict(
            sweep={"parameter": "drive.flux_in", "values": "1e12"}))


def test_sweep_config_checks_its_own_grid():
    # a string grid was iterated as characters, and sweep() died with a
    # TypeError inside PumpDrive
    with pytest.raises(ScenarioError, match="sweep.values: expected a list"):
        SweepConfig(parameter="drive.flux_in", values="12")
    with pytest.raises(ScenarioError, match="sweep.values: expected a number"):
        SweepConfig(parameter="drive.flux_in", values=("1", "2"))
    with pytest.raises(ScenarioError, match=f"at most {MAX_SWEEP_STEPS}"):
        SweepConfig(parameter="drive.flux_in", values=[1e12] * (MAX_SWEEP_STEPS + 1))
    listed = SweepConfig(parameter="drive.omega_p", values=[1e10, "1 GHz"])
    assert listed.values == (1e10, 1e9)


def test_run_reference_device():
    report = run(reference_scenario())
    triple = report.triple
    assert triple.k_pump == K_PUMP_REF
    assert triple.q_phonon == pytest.approx(Q_PHONON_REF, rel=1e-14)
    assert triple.Omega_phonon == pytest.approx(1e10, rel=1e-12)
    # the drive sits exactly on the pump mode
    assert report.pump.detuning.real == 0.0
    # resonant intracavity number: u * flux / (u + gamma/2)^2 ~ flux / u
    assert report.pump.photon_number == pytest.approx(1e6, rel=1e-7)
    # energy bookkeeping: photon frequency drop matches the phonon
    assert report.squeeze.omega == pytest.approx(report.squeeze.Omega,
                                                 rel=1e-10)
    assert report.squeeze.f == pytest.approx(F_REF, rel=1e-12)
    assert report.squeeze.r == pytest.approx(R_REF, rel=1e-12)
    assert report.pair_probabilities[0] == pytest.approx(P0_REF, rel=1e-12)
    assert report.pair_probabilities[1] == pytest.approx(P1_REF, rel=1e-12)
    assert len(report.pair_probabilities) == 6
    assert report.analytic.r == report.squeeze.r

    oracle = report.oracle
    assert oracle["cutoff"] == 5
    assert oracle["tolerance"] == 1e-8
    assert 0.0 < oracle["deviation"] < 1e-9
    assert oracle["ok"] is True

    assert report.thermal["quality"] == 1e4
    assert report.thermal["n_bar"] == pytest.approx(NBAR_REF, rel=1e-12)


def test_run_report_serializes_to_json(capsys):
    report = run(reference_scenario())
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["pump"]["detuning"]["im"] < 0
    assert payload["squeeze"]["r"] == report.squeeze.r
    assert payload["oracle"]["table"]["squeezing"]["X_c"] == pytest.approx(
        -0.0477, abs=1e-4)
    assert payload["scenario"]["geometry"] == "backward"
    # `brisq run --db` writes the same report with the decibels block last
    assert cli.main(["run", str(REFERENCE_FILE), "--db"]) == 0
    *blocks, decibels = json.loads(capsys.readouterr().out).items()
    assert dict(blocks) == payload
    assert decibels[0] == "decibels"
    assert decibels[1]["X_c"] == pytest.approx(-0.4357, abs=2e-4)


def with_flux(scenario, flux_in):
    return dataclasses.replace(
        scenario, drive=dataclasses.replace(scenario.drive, flux_in=flux_in))


def test_run_zero_drive_gives_vacuum():
    scenario = with_flux(reference_scenario(), 0.0)
    report = run(scenario)
    assert report.squeeze.f == 0.0
    assert report.squeeze.r == 0.0
    assert report.pair_probabilities[0] == 1.0
    assert report.pair_probabilities[1] == 0.0
    assert report.oracle["cutoff"] == 2
    assert report.oracle["deviation"] < 1e-14


def test_run_forward_geometry_degenerates():
    scenario = dataclasses.replace(reference_scenario(), geometry="forward")
    with pytest.raises(Unstable):
        run(scenario)


def test_run_strong_drive_goes_unstable():
    with pytest.raises(Unstable):
        run(with_flux(reference_scenario(), 1e15))


def test_run_default_pump_wavenumber_from_drive():
    scenario = dataclasses.replace(reference_scenario(), k_pump=None)
    report = run(scenario)
    assert report.triple.k_pump == pytest.approx(K_PUMP_REF, rel=1e-12)
    assert report.squeeze.r == pytest.approx(R_REF, rel=1e-9)


def test_run_explicit_oracle_cutoff():
    scenario = dataclasses.replace(
        reference_scenario(), oracle=OracleConfig(enabled=True, cutoff=8))
    report = run(scenario)
    assert report.oracle["cutoff"] == 8
    assert report.oracle["ok"] is True


@pytest.mark.parametrize("ratio", [0.000339, 0.00102, 0.00170, 0.01866, 0.01934])
def test_chosen_cutoff_holds_the_moments_at_small_r(ratio):
    # the tail bound alone picks cutoff 2 or 3 at these f/omega_bar, and
    # the moments then miss the dropped top-level flux by ~r^2 > 1e-8
    flux = 1e12 * (ratio / math.tanh(2.0 * R_REF)) ** 2
    drive = {"omega_p": 234508616743744.8, "flux_in": flux}
    report = run(Scenario.from_dict(scenario_dict(drive=drive)))
    assert math.tanh(2.0 * report.squeeze.r) == pytest.approx(ratio, rel=1e-6)
    assert report.oracle["ok"] is True


def threshold_scenario(ratio):
    """The reference device driven to f/omega_bar = ratio: f = 1 GHz at
    1e12 photons/s grows as sqrt(flux_in), and omega_bar = 10 GHz."""
    flux = 1e12 * (ratio * 1e10 / 1e9) ** 2
    drive = {"omega_p": 234508616743744.8, "flux_in": flux}
    return Scenario.from_dict(scenario_dict(drive=drive))


def test_oracle_reaches_the_cap_below_threshold():
    report = run(threshold_scenario(0.9935))
    assert report.oracle["cutoff"] == 121
    assert report.oracle["ok"] is True


@pytest.mark.xfail(strict=True, raises=CutoffTooSmall, reason="ROADMAP item 4")
@pytest.mark.parametrize("ratio", [0.995, 0.998, 0.999, 0.99896])
def test_oracle_passes_near_threshold(ratio):
    assert run(threshold_scenario(ratio)).oracle["ok"] is True


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_oracle_holds_wherever_it_finds_a_cutoff(ratio):
    # below threshold a run ends in a report or, past the cap, in
    # CutoffTooSmall; a report is strict JSON and its oracle passes
    try:
        report = run(threshold_scenario(ratio))
    except CutoffTooSmall:
        return
    json.dumps(report.to_dict(), allow_nan=False)
    assert report.oracle["ok"] is True, report.oracle["deviation"]


@pytest.mark.parametrize("where", ["table", "pair weights"])
def test_oracle_deviation_propagates_nan(monkeypatch, where):
    # run's deviation is the worst of the table deviation and the pair
    # weight differences; a NaN in either, wherever it sits, reaches the
    # deviation instead of being dropped by max, and run refuses it as a
    # physics failure rather than report a NaN
    built = {}

    def vacuum(cutoff, r):
        state = built["state"] = focksim.squeezed_vacuum(cutoff, r)
        if where == "table":
            return state
        amplitudes = state.amplitudes.copy()
        amplitudes[cutoff + 1] = math.nan  # |1, 1>, the P_1 weight
        return focksim.TwoModeState(amplitudes=amplitudes, cutoff=cutoff)

    def moments(state):
        table = focksim.measure_moments(built["state"])
        if where == "table":
            table = dataclasses.replace(table, cross={**table.cross, "n_a": math.nan})
        return table

    monkeypatch.setattr(pipeline, "squeezed_vacuum", vacuum)
    monkeypatch.setattr(pipeline, "measure_moments", moments)
    with pytest.raises(PhysicsError, match="oracle deviations overflow the float range"):
        run(reference_scenario())


def test_oracle_report_does_not_depend_on_the_spectrum_memo():
    scenario = threshold_scenario(0.99)
    _sector_spectrum.cache_clear()
    cold = run(scenario).to_dict()
    warm = run(scenario).to_dict()
    assert cold == warm


def test_run_round_trips_through_scenario_dict():
    first = run(reference_scenario())
    clone = Scenario.from_dict(json.loads(json.dumps(first.to_dict()["scenario"])))
    second = run(clone)
    assert second.squeeze.f == first.squeeze.f
    assert second.squeeze.r == first.squeeze.r
    assert second.triple.q_phonon == first.triple.q_phonon
    assert second.pair_probabilities == first.pair_probabilities
    assert second.oracle["deviation"] == first.oracle["deviation"]


def test_sweep_flux_scaling(monkeypatch):
    scenario = dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="drive.flux_in",
                          values=(1e10, 4e10, 1.6e11)))
    runs = []
    monkeypatch.setattr(pipeline, "run",
                        lambda scenario: runs.append(scenario) or run(scenario))
    lazy = sweep(scenario)
    # each row runs when it is asked for, not when the sweep is made
    assert runs == []
    first = next(lazy)
    assert len(runs) == 1
    rows = (first, *lazy)
    assert len(rows) == 3 and len(runs) == 3
    for row in rows:
        assert row["parameter"] == "drive.flux_in"
        assert row["status"] == "ok"
        assert row["oracle_ok"] is True
        for quad in ("X_a", "Y_a", "X_c", "Y_c"):
            assert f"S_{quad}" in row
    # f scales with the square root of the input flux
    assert rows[1]["f"] == pytest.approx(2.0 * rows[0]["f"], rel=1e-14)
    assert rows[2]["f"] == pytest.approx(4.0 * rows[0]["f"], rel=1e-14)


def test_sweep_records_unstable_rows():
    scenario = dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12, 1e15)))
    rows = tuple(sweep(scenario))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error"
    assert rows[1]["error_type"] == "Unstable"
    assert "f" not in rows[1]


def test_sweep_rows_record_scenario_and_overflow_errors():
    rejected = tuple(sweep(dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12, -1.0)))))
    assert rejected[0]["status"] == "ok"
    assert rejected[1]["status"] == "error"
    assert rejected[1]["error_type"] == "ScenarioError"
    assert "flux_in must be nonnegative" in rejected[1]["error"]
    overflow = tuple(sweep(dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="k_pump", values=(1e301,)))))
    assert overflow[0]["error_type"] == "PhysicsError"


def test_overflowed_pump_coupling_is_a_physics_error():
    # u + gamma/2 overflows and the pump amplitude turns NaN, which the
    # pump steady state refuses before diagonalize sees |f|
    scenario = reference_scenario()
    scenario = dataclasses.replace(scenario, waveguide=dataclasses.replace(
        scenario.waveguide, u=1.7e308, gamma=1.7e308))
    with pytest.raises(PhysicsError, match="overflow the float range"):
        run(scenario)


def test_coupling_magnitude_beyond_the_float_range_is_a_physics_error():
    # a drive one half linewidth off resonance puts f at 45 degrees: both
    # parts fit the float range, |f| does not, and abs() used to raise a
    # raw OverflowError inside run
    scenario = reference_scenario(oracle=False)
    waveguide = dataclasses.replace(scenario.waveguide, g=1.5e308, u=1.0, gamma=0.0)
    omega_pump = run(scenario).triple.omega_pump
    scenario = dataclasses.replace(scenario, waveguide=waveguide, drive=PumpDrive(
        omega_p=omega_pump + 1.0, flux_in=4.0))
    with pytest.raises(PhysicsError, match="overflow the float range"):
        run(scenario)


def test_run_report_keeps_the_resolved_scenario():
    scenario = reference_scenario()
    report = run(scenario)
    assert report.scenario is scenario
    payload = report.to_dict()
    assert list(payload) == ["scenario", "triple", "pump", "squeeze",
                             "pair_probabilities", "analytic", "oracle", "thermal"]
    assert payload["scenario"] == scenario.to_dict()
    assert payload["pump"]["coupling"] == {"re": report.pump.coupling.real,
                                           "im": report.pump.coupling.imag}
    assert payload["pair_probabilities"] == list(report.pair_probabilities)
    assert payload["oracle"]["table"]["r"] is None
    assert payload["analytic"]["squeezing"] == report.analytic.squeezing
    assert payload["analytic"]["squeezing"] is not report.analytic.squeezing


def test_sweep_single_point_matches_run():
    scenario = dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12,)))
    row = tuple(sweep(scenario))[0]
    report = run(reference_scenario())
    assert row["f"] == report.squeeze.f
    assert row["r"] == report.squeeze.r
    assert row["P_1"] == report.pair_probabilities[1]
    assert row["S_X_c"] == report.analytic.squeezing["X_c"]


def test_sweep_other_parameters():
    base = reference_scenario()
    coupling = tuple(sweep(dataclasses.replace(
        base, sweep=SweepConfig(parameter="waveguide.g", values=(5e5, 1e6)))))
    assert coupling[1]["f"] == pytest.approx(
        2.0 * coupling[0]["f"], rel=1e-14)
    wavenumbers = tuple(sweep(dataclasses.replace(
        base, sweep=SweepConfig(parameter="k_pump",
                                values=(0.5 * K_PUMP_REF, K_PUMP_REF)))))
    assert all(row["status"] == "ok" for row in wavenumbers)
    # detuned pump couples more weakly than the matched reference
    assert wavenumbers[0]["r"] < wavenumbers[1]["r"]
    assert wavenumbers[1]["r"] == pytest.approx(R_REF, rel=1e-12)


def test_sweep_with_decibels(tmp_path, capsys):
    scenario = dataclasses.replace(
        reference_scenario(),
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12, 1e15)))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_dict()))
    assert cli.main(["sweep", str(path), "--db"]) == 0
    ok, unstable = json.loads(capsys.readouterr().out)["rows"]
    assert ok["db_X_c"] == pytest.approx(-0.4357, abs=2e-4)
    assert ok["db_Y_c"] > 0
    # the dB columns follow the row's other columns, and an error row has none
    assert list(ok)[-8:] == [f"db_{quad}" for quad in QUAD_KEYS]
    assert unstable["error_type"] == "Unstable"
    assert not any(key.startswith("db_") for key in unstable)


def test_sweep_requires_sweep_block():
    with pytest.raises(ScenarioError):
        sweep(reference_scenario())


def test_reference_checks_all_pass():
    rows = reference_checks()
    assert len(rows) == 17
    names = [row["name"] for row in rows]
    assert len(set(names)) == 17
    assert "oracle deviation" in names
    failing = [row["name"] for row in rows if not row["ok"]]
    assert failing == []


def test_block_kinds_follow_the_dataclass_field_order():
    # the kinds order the "choose one of" list, the fields the report's
    # keys; one order serves both
    for block, (cls, kinds) in _BLOCKS.items():
        assert list(kinds) == [f.name for f in dataclasses.fields(cls)], block


def test_scenario_and_its_blocks_are_frozen():
    # a sweep shares one scenario across its rows, and OracleConfig() is
    # a dataclass default; the stage results are plain records
    scenario = dataclasses.replace(
        reference_scenario(), sweep=SweepConfig("drive.flux_in", (1e12,)))
    inputs = [scenario, scenario.sweep,
              *(getattr(scenario, block) for block in _BLOCKS)]
    assert sorted(type(value).__name__ for value in inputs) == [
        "OracleConfig", "PumpDrive", "Scenario", "SweepConfig", "ThermalEnv",
        "WaveguideParams"]
    for value in inputs:
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_scenario_to_dict_leaves_out_absent_blocks_but_not_k_pump():
    scenario = dataclasses.replace(
        reference_scenario(), k_pump=None, thermal=None,
        sweep=SweepConfig(parameter="waveguide.vg", values=(7e7, 8e7)))
    out = scenario.to_dict()
    assert list(out) == ["waveguide", "drive", "geometry", "k_pump", "oracle",
                         "sweep"]
    assert out["k_pump"] is None
    assert out["sweep"] == {"parameter": "waveguide.vg", "values": [7e7, 8e7]}
    assert list(out["waveguide"]) == ["omega0", "g", "u", "gamma", "vg", "va",
                                      "length"]
    assert out["oracle"] == {"enabled": True, "cutoff": None, "tolerance": 1e-8}
    assert Scenario.from_dict(json.loads(json.dumps(out))) == scenario
    assert list(reference_scenario().to_dict()) == [
        "waveguide", "drive", "geometry", "k_pump", "oracle", "thermal"]
    # a grid given as a list, not the parser's tuple, is written the same
    listed = dataclasses.replace(scenario, sweep=SweepConfig("waveguide.vg", [7e7]))
    assert listed.to_dict()["sweep"] == {"parameter": "waveguide.vg", "values": [7e7]}
