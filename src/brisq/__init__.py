"""Photon-phonon squeezing in Brillouin waveguides.

Analytic pipeline (dispersion, phase matching, classical pump,
Bogoliubov diagonalization, squeezed-state statistics) with a truncated
Fock-space numerical oracle and a scenario-driven CLI. Frequencies are
ordinary frequencies in Hz throughout; quadratures are normalized so
the vacuum variance is 1/2.

The package exports what the CLI and the end-to-end guarantees use;
everything else is imported from its submodule.

Only the Fock oracle (brisq.focksim) needs numpy, and it imports numpy
at its first call that needs an array, not with the package. A run's
oracle takes a pure-Python Taylor series of the squeezed vacuum where
|r| (2 cutoff - 3) <= 1, as on the reference device, so importing
brisq, `brisq check`, a sweep or run with the oracle off, and a run or
sweep whose oracle takes that series never load numpy; an oracle that
needs the sector SVD does.

If the oracle loads numpy before anything else has, numpy's OpenBLAS
is loaded with one thread. brisq's matrices have at most a few hundred
rows, so a second thread does not help. It does cost: at load it spins
~70 ms of CPU on another core, and when that core is busy, a fresh
`brisq` process runs ~25% slower. To keep your own setting, set
OPENBLAS_NUM_THREADS or import numpy before the oracle's first array.
"""

from .bogoliubov import diagonalize
from .errors import PhysicsError, ScenarioError, Unstable
from .focksim import (
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
    "ThermalEnv",
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
