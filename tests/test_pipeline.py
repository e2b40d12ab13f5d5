"""Scenario parsing, end-to-end runs, sweeps, and reference checks."""

import gc
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brisq import cli, focksim, pipeline
from brisq.errors import CutoffTooSmall, PhysicsError, ScenarioError, Unstable
from brisq.focksim import _column_kernel
from brisq.pipeline import (
    _BLOCKS,
    _SWEEPABLE,
    MAX_SWEEP_STEPS,
    UNIT_FIELDS,
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
from brisq.squeezing import CROSS_KEYS, QUAD_KEYS, TABLE_SIZE
from brisq.waveguide import WaveguideParams

REFERENCE_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "backward_10ghz.json"
K_PUMP_REF = 592980.2391963544
Q_PHONON_REF = 1185817.6212498515
F_REF = 999999995.0
R_REF = 0.05016767361301254
P0_REF = 0.9974874213492432
P1_REF = 0.002506265599280449
NBAR_REF = 0.09981030749537737
# cross["n_a"]'s place in a MomentTable's values: cross is the last section
CROSS_N_A = TABLE_SIZE - len(CROSS_KEYS) + CROSS_KEYS.index("n_a")


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
    assert parse_value("10 GHz", "waveguide.g") == 1e10
    assert parse_value("10 mHz", "waveguide.g") == 0.01
    assert parse_value("2.5kHz", "waveguide.g") == 2500.0
    assert parse_value("1e9 Hz", "waveguide.g") == 1e9
    assert parse_value(".5 Hz", "waveguide.g") == 0.5
    # a number, or a value of a field that takes no unit, goes to the record as given
    assert parse_value(5, "waveguide.g") == 5
    assert parse_value(2.5e6, "waveguide.g") == 2.5e6
    assert parse_value("1 kHz", "drive.flux_in") == "1 kHz"
    for bad in ("10 Mhz", "GHz", "1 XHz", "10e9", "1.2.3 MHz", ". Hz", "1e999 Hz",
                "1e300 THz", "nan Hz"):
        with pytest.raises(ScenarioError, match="^waveguide.g: "):
            parse_value(bad, "waveguide.g")
    with pytest.raises(ScenarioError,
                       match="^waveguide.g: '1e999 GHz' is not a finite frequency$"):
        parse_value("1e999 GHz", "waveguide.g")
    with pytest.raises(ScenarioError, match="^sweep.values: cannot parse frequency 'x'"):
        parse_value("x", "waveguide.g", "sweep.values")
    # what parse_value refused before the records checked their own
    # fields is still refused, by the record that owns the field
    waveguide = scenario_dict()["waveguide"]
    for bad in (True, [1e9], math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ScenarioError, match="^waveguide: g: "):
            Scenario.from_dict(scenario_dict(waveguide=dict(waveguide, g=bad)))
    # null counts as absent
    with pytest.raises(ScenarioError, match=r"^waveguide: missing keys \['g'\]$"):
        Scenario.from_dict(scenario_dict(waveguide=dict(waveguide, g=None)))
    for bad in ("1 kHz", "5", True, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ScenarioError, match="^drive: flux_in: "):
            Scenario.from_dict(scenario_dict(drive=dict(
                scenario_dict()["drive"], flux_in=bad)))


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
    return scenario.replace(drive=scenario.drive.replace(flux_in=flux_in))


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
    scenario = reference_scenario().replace(geometry="forward")
    with pytest.raises(Unstable):
        run(scenario)


def test_run_strong_drive_goes_unstable():
    with pytest.raises(Unstable):
        run(with_flux(reference_scenario(), 1e15))


def test_run_default_pump_wavenumber_from_drive():
    scenario = reference_scenario().replace(k_pump=None)
    report = run(scenario)
    assert report.triple.k_pump == pytest.approx(K_PUMP_REF, rel=1e-12)
    assert report.squeeze.r == pytest.approx(R_REF, rel=1e-9)


def test_run_explicit_oracle_cutoff():
    scenario = reference_scenario().replace(oracle=OracleConfig(enabled=True, cutoff=8))
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


# the reference device's oracle (cutoff 5, |r| (2 cutoff - 3) = 0.35)
# takes its column from the vacuum series, threshold_scenario(0.9)'s
# (cutoff 30) from the sector SVD; diagonal_moments measures both
ORACLE_PATHS = {
    "series": (reference_scenario, "_series_column"),
    "svd": (lambda: threshold_scenario(0.9), "_svd_column"),
}


@pytest.mark.parametrize("where", ["table", "pair weights"])
@pytest.mark.parametrize("path", list(ORACLE_PATHS))
def test_oracle_deviation_propagates_nan(monkeypatch, path, where):
    # run's deviation is the worst of the table deviation and the pair
    # weight differences; a NaN in either, wherever it sits, reaches the
    # deviation instead of being dropped by max, and run refuses it as a
    # physics failure rather than report a NaN. Each path's own column
    # producer is patched, and the table measures the clean column
    scenario, producer = ORACLE_PATHS[path]
    produce, measure = getattr(focksim, producer), pipeline.diagonal_moments
    built = {}

    def column(cutoff, r):
        vector = produce(cutoff, r)
        built["column"] = [float(c) for c in vector]
        if where == "pair weights":
            vector[1] = math.nan  # |1, 1>, the P_1 weight
        return vector

    def moments(column):
        table = measure(built["column"])
        if where == "table":
            values = table.values
            table = table.replace(
                values=(*values[:CROSS_N_A], math.nan, *values[CROSS_N_A + 1:]))
        return table

    monkeypatch.setattr(focksim, producer, column)
    monkeypatch.setattr(pipeline, "diagonal_moments", moments)
    with pytest.raises(PhysicsError, match="oracle deviations overflow the float range"):
        run(scenario())
    assert built


def test_run_takes_the_vacuum_series_exactly_where_the_rule_admits_it(monkeypatch):
    # the reference device's r = 0.0502 puts |r| (2 cutoff - 3) at 1.003
    # for cutoff 12 and 0.953 for 11
    calls = []
    for name in ("_series_column", "_svd_column"):
        function = getattr(focksim, name)
        monkeypatch.setattr(focksim, name, lambda cutoff, r, function=function,
                            name=name: calls.append(name) or function(cutoff, r))
    reports = {}
    for cutoff in (11, 12):
        scenario = reference_scenario().replace(
            oracle=OracleConfig(enabled=True, cutoff=cutoff))
        report = reports[cutoff] = run(scenario)
        assert report.oracle["ok"] is True
    assert calls == ["_series_column", "_svd_column"]
    r = reports[11].squeeze.r
    assert abs(r) * (2 * 11 - 3) <= 1.0 < abs(r) * (2 * 12 - 3)
    # both report tables in the same layout, within rounding of each other
    tables = [reports[cutoff].to_dict()["oracle"]["table"] for cutoff in (11, 12)]
    assert tables[0].keys() == tables[1].keys()
    for section in ("first", "second", "products", "squeezing", "cross"):
        assert tables[0][section].keys() == tables[1][section].keys()
        for key, value in tables[0][section].items():
            assert abs(value - tables[1][section][key]) <= 1e-15, (section, key)
    assert tables[0]["max_imag_discarded"] == tables[1]["max_imag_discarded"] == 0.0


def test_a_warm_oracle_run_builds_no_cutoff_squared_state():
    # the oracle measures the squeezed vacuum's n_a = n_b column alone, so
    # a run near threshold (cutoff 121) peaks far below a quarter of one
    # cutoff**2 float64 grid; a TwoModeState alone would be a whole grid
    scenario = threshold_scenario(0.9935)
    cutoff = run(scenario).oracle["cutoff"]
    assert cutoff >= 100
    gc.collect()
    tracemalloc.start()
    try:
        run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cutoff * cutoff * 8 / 4


def test_oracle_report_does_not_depend_on_the_kernel_memo():
    # near threshold the column comes from the sector SVD's kernel, built
    # by the first run and read by the second
    scenario = threshold_scenario(0.99)
    _column_kernel.cache_clear()
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
    scenario = reference_scenario().replace(
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
    scenario = reference_scenario().replace(
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12, 1e15)))
    rows = tuple(sweep(scenario))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error"
    assert rows[1]["error_type"] == "Unstable"
    assert "f" not in rows[1]


def test_sweep_rows_record_scenario_and_overflow_errors():
    rejected = tuple(sweep(reference_scenario().replace(
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12, -1.0)))))
    assert rejected[0]["status"] == "ok"
    assert rejected[1]["status"] == "error"
    assert rejected[1]["error_type"] == "ScenarioError"
    assert "flux_in must be nonnegative" in rejected[1]["error"]
    overflow = tuple(sweep(reference_scenario().replace(
        sweep=SweepConfig(parameter="k_pump", values=(1e301,)))))
    assert overflow[0]["error_type"] == "PhysicsError"


def test_overflowed_pump_coupling_is_a_physics_error():
    # u + gamma/2 overflows and the pump amplitude turns NaN, which the
    # pump steady state refuses before diagonalize sees |f|
    scenario = reference_scenario()
    scenario = scenario.replace(
        waveguide=scenario.waveguide.replace(u=1.7e308, gamma=1.7e308))
    with pytest.raises(PhysicsError, match="overflow the float range"):
        run(scenario)


def test_coupling_magnitude_beyond_the_float_range_is_a_physics_error():
    # a drive one half linewidth off resonance puts f at 45 degrees: both
    # parts fit the float range, |f| does not, and abs() used to raise a
    # raw OverflowError inside run
    scenario = reference_scenario().replace(oracle=OracleConfig())
    waveguide = scenario.waveguide.replace(g=1.5e308, u=1.0, gamma=0.0)
    omega_pump = run(scenario).triple.omega_pump
    scenario = scenario.replace(waveguide=waveguide, drive=PumpDrive(
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
    scenario = reference_scenario().replace(
        sweep=SweepConfig(parameter="drive.flux_in", values=(1e12,)))
    row = tuple(sweep(scenario))[0]
    report = run(reference_scenario())
    assert row["f"] == report.squeeze.f
    assert row["r"] == report.squeeze.r
    assert row["P_1"] == report.pair_probabilities[1]
    assert row["S_X_c"] == report.analytic.squeezing["X_c"]


def test_sweep_other_parameters():
    base = reference_scenario()
    coupling = tuple(sweep(base.replace(
        sweep=SweepConfig(parameter="waveguide.g", values=(5e5, 1e6)))))
    assert coupling[1]["f"] == pytest.approx(
        2.0 * coupling[0]["f"], rel=1e-14)
    wavenumbers = tuple(sweep(base.replace(
        sweep=SweepConfig(parameter="k_pump", values=(0.5 * K_PUMP_REF, K_PUMP_REF)))))
    assert all(row["status"] == "ok" for row in wavenumbers)
    # detuned pump couples more weakly than the matched reference
    assert wavenumbers[0]["r"] < wavenumbers[1]["r"]
    assert wavenumbers[1]["r"] == pytest.approx(R_REF, rel=1e-12)


def replaced_row(scenario, value):
    """The sweep row at value built through replace() and the full run
    report: the reference that sweep()'s own rebuild must match."""
    parameter = scenario.sweep.parameter
    block, _, name = parameter.rpartition(".")
    try:
        try:
            changed = (scenario.replace(**{name: value}) if not block else
                       scenario.replace(**{block: getattr(scenario, block).replace(
                           **{name: value})}))
        except ValueError as err:
            raise ScenarioError(f"{parameter}: {err}") from err
        report = run(changed)
    except (PhysicsError, ScenarioError) as err:
        return {"parameter": parameter, "value": value, "status": "error",
                "error_type": type(err).__name__, "error": str(err)}
    row = {"parameter": parameter, "value": value, "status": "ok",
           "f": report.squeeze.f, "r": report.squeeze.r,
           "pump_photons": report.pump.photon_number,
           **{f"P_{n}": p for n, p in enumerate(report.pair_probabilities[:3])},
           **{f"S_{quad}": s for quad, s in report.analytic.squeezing.items()}}
    if report.oracle is not None:
        row.update(oracle_deviation=report.oracle["deviation"],
                   oracle_ok=report.oracle["ok"])
    return row


REFERENCE_OMEGA_P = reference_scenario().drive.omega_p


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no_oracle"])
@pytest.mark.parametrize("parameter, values, statuses", [
    # flux 0 is the vacuum, whose c/d squeezing entries are -0.0; flux -1
    # fails PumpDrive's own gate
    ("drive.flux_in", (1e12, 0.0, -1.0, 1e15), ("ok", "ok", "ScenarioError", "Unstable")),
    ("waveguide.g", (5e5, 2e6, 0.0), ("ok", "ok", "ok")),
    # va >= vg fails the gate that ties two waveguide fields
    ("waveguide.va", (8433.0, 7e7, 8e7), ("ok", "ScenarioError", "ScenarioError")),
    ("drive.omega_p", (REFERENCE_OMEGA_P, REFERENCE_OMEGA_P + 1e6), ("ok", "ok")),
    ("k_pump", (0.5 * K_PUMP_REF, K_PUMP_REF, 1e301), ("ok", "ok", "PhysicsError")),
])
def test_sweep_rows_equal_the_rows_of_a_replaced_scenario(parameter, values, statuses,
                                                         oracle):
    scenario = reference_scenario().replace(
        oracle=OracleConfig(enabled=oracle), sweep=SweepConfig(parameter, values))
    rows = list(sweep(scenario))
    assert [row.get("error_type", row["status"]) for row in rows] == list(statuses)
    for row, value in zip(rows, values):
        # key for key in order; floats by repr, so -0.0 is not 0.0, and
        # error messages as strings
        assert [(key, type(cell), repr(cell)) for key, cell in row.items()] == \
            [(key, type(cell), repr(cell))
             for key, cell in replaced_row(scenario, value).items()]
    if parameter == "drive.flux_in":
        vacuum = rows[1]
        assert all(math.copysign(1.0, vacuum[f"S_{quad}"]) == -1.0
                   for quad in ("X_c", "Y_d"))
        assert rows[2]["error"] == "drive.flux_in: flux_in must be nonnegative"
    if parameter == "waveguide.va":
        assert rows[1]["error"] == "waveguide.va: velocities must satisfy 0 < va < vg"


def test_sweep_with_decibels(tmp_path, capsys):
    scenario = reference_scenario().replace(
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


def test_sweepable_fields_follow_the_record_field_order():
    # the records' fields order the "choose one of" list and the report's
    # keys; one order serves both
    assert _SWEEPABLE == ("k_pump",
                          *(f"waveguide.{name}" for name in WaveguideParams._fields),
                          *(f"drive.{name}" for name in PumpDrive._fields))
    with pytest.raises(ScenarioError) as refused:
        SweepConfig("geometry", (1.0,))
    assert str(refused.value) == (
        "sweep.parameter: 'geometry' is not sweepable; choose one of ['k_pump', "
        "'waveguide.omega0', 'waveguide.g', 'waveguide.u', 'waveguide.gamma', "
        "'waveguide.vg', 'waveguide.va', 'waveguide.length', 'drive.omega_p', "
        "'drive.flux_in']")


def test_unit_fields_are_fields_of_their_blocks():
    # a stale name would leave a renamed field without its unit strings
    for dotted in UNIT_FIELDS:
        block, name = dotted.split(".")
        assert name in _BLOCKS[block]._fields, dotted


def test_scenario_and_its_blocks_are_frozen():
    # a sweep shares one scenario across its rows, and OracleConfig() is
    # Scenario's default; the stage results are plain records
    scenario = reference_scenario().replace(sweep=SweepConfig("drive.flux_in", (1e12,)))
    inputs = [scenario, scenario.sweep,
              *(getattr(scenario, block) for block in _BLOCKS)]
    assert sorted(type(value).__name__ for value in inputs) == [
        "OracleConfig", "PumpDrive", "Scenario", "SweepConfig", "ThermalEnv",
        "WaveguideParams"]
    for value in inputs:
        name = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


def test_scenario_to_dict_leaves_out_absent_blocks_but_not_k_pump():
    scenario = reference_scenario().replace(
        k_pump=None, thermal=None,
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
    listed = scenario.replace(sweep=SweepConfig("waveguide.vg", [7e7]))
    assert listed.to_dict()["sweep"] == {"parameter": "waveguide.vg", "values": [7e7]}
