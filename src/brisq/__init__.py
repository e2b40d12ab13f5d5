"""Photon-phonon squeezing in Brillouin waveguides.

Analytic pipeline (dispersion, phase matching, classical pump,
Bogoliubov diagonalization, squeezed-state statistics) with a truncated
Fock-space numerical oracle and a scenario-driven CLI. Frequencies are
ordinary frequencies in Hz throughout; quadratures are normalized so
the vacuum variance is 1/2.

The package exports what the CLI and the end-to-end guarantees use;
everything else is imported from its submodule.

If brisq is imported before numpy, numpy's OpenBLAS is loaded with one
thread. brisq's matrices have at most a few hundred rows, so a second
thread does not help. It does cost: at load it spins ~70 ms of CPU on
another core, and when that core is busy, a fresh `brisq` process runs
~25% slower. To keep your own setting, set OPENBLAS_NUM_THREADS or
import numpy before brisq.
"""

from .bogoliubov import diagonalize
from .errors import PhysicsError, ScenarioError, Unstable
from .focksim import (
    TruncatedFockSpace,
    apply_squeeze_factorized,
    bogoliubov_check,
    herald,
    measure_moments,
    squeeze_operator,
    squeezed_vacuum,
    vacuum_state,
)
from .pipeline import (
    RunReport,
    Scenario,
    SweepReport,
    load_scenario,
    reference_checks,
    reference_scenario,
    run,
    sweep,
)
from .squeezing import (
    ThermalEnv,
    full_moment_table,
    pair_probability,
    pair_tail,
    table_deviation,
    thermal_occupation,
)
from .waveguide import BACKWARD, FORWARD, WaveguideParams, phase_match

__version__ = "0.1.0"

__all__ = [
    "BACKWARD",
    "FORWARD",
    "PhysicsError",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SweepReport",
    "ThermalEnv",
    "TruncatedFockSpace",
    "Unstable",
    "WaveguideParams",
    "apply_squeeze_factorized",
    "bogoliubov_check",
    "diagonalize",
    "full_moment_table",
    "herald",
    "load_scenario",
    "measure_moments",
    "pair_probability",
    "pair_tail",
    "phase_match",
    "reference_checks",
    "reference_scenario",
    "run",
    "squeeze_operator",
    "squeezed_vacuum",
    "sweep",
    "table_deviation",
    "thermal_occupation",
    "vacuum_state",
]
