"""Classical pump steady state and the effective parametric coupling.

The strongly driven pump mode is replaced by its classical input-output
steady amplitude. That amplitude multiplies the bare photon-phonon
coupling g into the effective pair coupling f between the signal photon
and the phonon. All rates and frequencies are ordinary frequencies in Hz;
the drive is specified by its photon flux in photons/s.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord, Record, set_field
from .errors import DegenerateLinewidth, require_finite, require_number, require_real
from .waveguide import WaveguideParams


class PumpDrive(FrozenRecord):
    """Coherent drive at carrier frequency omega_p with photon flux flux_in.

    flux_in is the injected photon flux in photons/s, so the input field
    amplitude is sqrt(flux_in).
    """

    def __init__(self, omega_p: float, flux_in: float) -> None:
        omega_p, flux_in = map(require_real, self._fields, (omega_p, flux_in))
        if not omega_p > 0:
            raise ValueError("omega_p must be positive")
        if not flux_in >= 0:
            raise ValueError("flux_in must be nonnegative")
        set_field(self, "omega_p", omega_p)
        set_field(self, "flux_in", flux_in)


class PumpSteadyState(Record):
    """Resolved steady state of the driven pump mode.

    detuning is the complex detuning of the pump mode, amplitude the
    classical intracavity amplitude, photon_number = |amplitude|^2, and
    coupling the pump-enhanced pair coupling f = g * amplitude (complex
    in general, real and positive on resonance).
    """

    def __init__(self, detuning: complex, amplitude: complex, photon_number: float,
                 coupling: complex) -> None:
        # |coupling| is the f that diagonalize takes, so it must fit too
        require_finite("pump steady-state values", detuning, amplitude, photon_number,
                       coupling, math.hypot(coupling.real, coupling.imag))
        self.detuning = detuning
        self.amplitude = amplitude
        self.photon_number = photon_number
        self.coupling = coupling


def pump_steady_state(params: WaveguideParams, drive: PumpDrive,
                      omega_mode: float) -> PumpSteadyState:
    """Resolve the full steady state of the pump mode at omega_mode.

    The complex detuning is (omega_mode - omega_p) - i*(u + gamma/2),
    minus the half linewidth in its imaginary part, and the steady
    intracavity amplitude is sqrt(u) * sqrt(flux_in) / (i * detuning):
    real and positive on resonance, with |amplitude|^2 =
    u * flux_in / |detuning|^2.

    Raises
    ------
    DegenerateLinewidth
        If u + gamma/2 == 0; an undamped driven mode has no steady state.
    ValueError
        If omega_mode is NaN.
    PhysicsError
        If a value, or the magnitude of the coupling, is beyond the
        float range.
    """
    require_number("omega_mode", omega_mode)
    half_linewidth = params.u + 0.5 * params.gamma
    if half_linewidth == 0.0:
        raise DegenerateLinewidth("u + gamma/2 == 0: driven mode never settles")
    detuning = (omega_mode - drive.omega_p) - 1j * half_linewidth
    amplitude = math.sqrt(params.u) * math.sqrt(drive.flux_in) / (1j * detuning)
    try:
        photon_number = abs(amplitude) ** 2
    except OverflowError:  # ** and complex abs raise where * gives inf
        photon_number = math.inf
    return PumpSteadyState(detuning, amplitude, photon_number, params.g * amplitude)
