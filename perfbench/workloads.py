"""Seeded, deterministic workload generator.

generate(workload, seed, directory) writes the inputs one run serves and
a manifest.json describing them. The same seed gives byte-identical
files; the program only ever sees these files and the CLI arguments,
never the seed. Ratios are drawn by jittered stratification (one uniform
draw per equal-width stratum), so every seed covers each range evenly and
the mix of cheap and costly inputs stays the same from seed to seed. The
oracle_ramp ratios are fixed and the seed only orders them: oracle_ramp
has failures at this commit, and a fixed set of inputs makes their count
the same in every run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import model

# Why each workload exists: which layer it loads, and which ROADMAP item
# should (and should not) move it.
WHY = {
    "cli_mix": (
        "fresh `python -m brisq.cli` processes (run json, run csv --db, sweep, "
        "check): >= 90% of each is interpreter start and import, so taking "
        "scipy off the import path shows here and a faster chain does not"),
    "analytic_grid": (
        "in-process `cli.main sweep --oracle off` over 200-row grids with ~10% "
        "Unstable rows: the scalar chain and report rendering do all the work, "
        "import and focksim none"),
    "oracle_ramp": (
        "in-process run() with the oracle on, f/omega_bar 70% in (0, 0.95) and "
        "30% in (0.95, 0.999): p50 reads measure_moments at small cutoffs, p90 "
        "the sector expm near threshold"),
}

CLI_REQUESTS = {
    "run_json": ["run", "scenarios/backward_10ghz.json"],
    "run_csv_db": ["run", "scenarios/backward_10ghz.json", "--format", "csv", "--db"],
    "sweep_json": ["sweep", "scenarios/flux_sweep.json"],
    "check": ["check"],
}
CLI_ORDER_BLOCKS = 100

GRID_ROWS = 200
GRID_UNSTABLE_ROWS = 20            # ~10% of rows beyond f = omega_bar
GRID_PARAMETERS = (["drive.flux_in"] * 12 + ["waveguide.g"] * 3
                   + ["waveguide.u"] * 3 + ["drive.omega_p"] * 3 + ["k_pump"] * 3)
# --db (dB columns) adds ~20% to a sweep. It is on a quarter of the files,
# not half, so p50 lies inside the plain class and p90 inside the --db
# class instead of on the gap between two equal halves.
GRID_DB_EVERY = 4
# omega_p and k_pump detune the pump, so their base drive must overshoot
# threshold on resonance for the grid to reach f >= omega_bar.
DETUNED_FLUX = 4e14

RAMP_FILES = 2000
RAMP_LOW_SHARE = 0.7
RAMP_LOW = (0.0, 0.95)
RAMP_HIGH = (0.95, 0.999)
RAMP_COLD_RATIO = 0.1
# A run serves whole passes over the ramp files, as many as fit in its
# seconds at this nominal cost of one pass (2000 runs at ~2.5 ms each),
# so attempted and failed ops depend on --seconds only, not on the clock.
RAMP_PASS_S = 5.0


# A run stops on a multiple of this many requests, so it holds whole
# cycles of a mix whose requests differ widely in cost (cli_mix: a sweep
# is 9 ops, a run 1; analytic_grid: --db or not). None means every file.
CYCLE = {"cli_mix": len(CLI_REQUESTS), "analytic_grid": None, "oracle_ramp": 1}


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def midpoints(lo: float, hi: float, count: int) -> list[float]:
    width = (hi - lo) / count
    return [lo + (i + 0.5) * width for i in range(count)]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _cli_mix(rng: random.Random, directory: Path) -> dict:
    order = []
    for _ in range(CLI_ORDER_BLOCKS):
        block = list(CLI_REQUESTS)
        rng.shuffle(block)
        order.extend(block)
    return {"requests": CLI_REQUESTS, "order": order,
            "cold": "run_json"}


def _grid_values(rng: random.Random, base: dict, parameter: str) -> list[float]:
    targets = (stratified(rng, 0.001, 0.99, GRID_ROWS - GRID_UNSTABLE_ROWS)
               + stratified(rng, 1.01, 1.5, GRID_UNSTABLE_ROWS))
    rng.shuffle(targets)
    return [model.solve_parameter(base, parameter, x) for x in targets]


def _analytic_grid(rng: random.Random, directory: Path) -> dict:
    parameters = list(GRID_PARAMETERS)
    rng.shuffle(parameters)
    files = []
    for i, parameter in enumerate(parameters):
        detuned = parameter in ("drive.omega_p", "k_pump")
        base = model.base_scenario(DETUNED_FLUX if detuned else model.FLUX_IN)
        scenario = dict(base, sweep={"parameter": parameter,
                                     "values": _grid_values(rng, base, parameter)})
        name = f"grid_{i:02d}.json"
        _write_json(directory / name, scenario)
        files.append({"scenario": name, "parameter": parameter,
                      "format": "json" if i % 2 == 0 else "csv",
                      "db": (i // 2) % GRID_DB_EVERY == GRID_DB_EVERY - 1})
    return {"files": files, "cold": 0}


def _ramp_scenario(x: float) -> dict:
    base = model.base_scenario()
    flux = model.solve_parameter(base, "drive.flux_in", x)
    scenario = model.with_parameter(base, "drive.flux_in", flux)
    scenario["oracle"] = {"enabled": True, "tolerance": 1e-8}
    scenario["thermal"] = dict(model.THERMAL)
    return scenario


def _oracle_ramp(rng: random.Random, directory: Path) -> dict:
    low = round(RAMP_FILES * RAMP_LOW_SHARE)
    ratios = midpoints(*RAMP_LOW, low) + midpoints(*RAMP_HIGH, RAMP_FILES - low)
    rng.shuffle(ratios)
    files = []
    for i, x in enumerate(ratios):
        name = f"ramp_{i:04d}.json"
        _write_json(directory / name, _ramp_scenario(x))
        files.append(name)
    _write_json(directory / "ramp_cold.json", _ramp_scenario(RAMP_COLD_RATIO))
    return {"files": files, "cold": "ramp_cold.json", "pass_seconds": RAMP_PASS_S}


GENERATORS = {
    "cli_mix": _cli_mix,
    "analytic_grid": _analytic_grid,
    "oracle_ramp": _oracle_ramp,
}


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under directory and return its manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload]}
    manifest.update(GENERATORS[workload](rng, directory))
    manifest["cycle"] = CYCLE[workload] or len(manifest["files"])
    _write_json(directory / "manifest.json", manifest)
    return manifest
