"""Dispersion and Brillouin phase matching for a single-mode waveguide.

Conventions used throughout the package: frequencies are ordinary
frequencies in Hz (energy = h * frequency), wavenumbers are in rad/m,
velocities in m/s, lengths in m. The photon dispersion is linearized
around a reference mode at omega0; the linearization is only trusted in
a wavenumber window around that point, and the caller is responsible
for staying inside it.
"""

from __future__ import annotations

from ._record import FrozenRecord, Record, set_field
from .errors import require_finite, require_number, require_real

FORWARD = "forward"
BACKWARD = "backward"


class WaveguideParams(FrozenRecord):
    """Waveguide with linearized photon branches and a linear acoustic branch.

    Attributes
    ----------
    omega0 : float
        Reference photon frequency in Hz (branch crossing point).
    g : float
        Single-quantum photon-phonon coupling rate in Hz.
    u : float
        External coupling loss rate of the photon modes in Hz.
    gamma : float
        Intrinsic photon loss rate in Hz.
    vg : float
        Photon group velocity in m/s.
    va : float
        Acoustic velocity in m/s, 0 < va < vg.
    length : float
        Waveguide length in m. Validated and echoed in reports; no
        result depends on it.
    """

    def __init__(self, *, omega0: float, g: float, u: float, gamma: float,
                 vg: float, va: float, length: float) -> None:
        omega0, g, u, gamma, vg, va, length = map(
            require_real, self._fields, (omega0, g, u, gamma, vg, va, length))
        if not omega0 > 0:
            raise ValueError("omega0 must be positive")
        if not 0 < va < vg:
            raise ValueError("velocities must satisfy 0 < va < vg")
        if not length > 0:
            raise ValueError("length must be positive")
        for name, rate in (("g", g), ("u", u), ("gamma", gamma)):
            if not rate >= 0:
                raise ValueError(f"{name} must be nonnegative")
        set_field(self, "omega0", omega0)
        set_field(self, "g", g)
        set_field(self, "u", u)
        set_field(self, "gamma", gamma)
        set_field(self, "vg", vg)
        set_field(self, "va", va)
        set_field(self, "length", length)


class BrillouinTriple(Record):
    """One phase-matched pump/signal/phonon triple.

    Wavenumbers satisfy k_pump = k_signal + q_phonon exactly;
    frequencies satisfy omega_pump = omega_signal + Omega_phonon to
    rounding. All frequencies in Hz, wavenumbers in rad/m.
    """

    def __init__(self, k_pump: float, k_signal: float, q_phonon: float,
                 omega_pump: float, omega_signal: float, Omega_phonon: float) -> None:
        require_finite("phase-matched values", k_pump, k_signal, q_phonon,
                       omega_pump, omega_signal, Omega_phonon)
        self.k_pump = k_pump
        self.k_signal = k_signal
        self.q_phonon = q_phonon
        self.omega_pump = omega_pump
        self.omega_signal = omega_signal
        self.Omega_phonon = Omega_phonon


def phase_match(
    params: WaveguideParams, k_pump: float, geometry: str = BACKWARD
) -> BrillouinTriple:
    """Solve momentum and energy conservation for the Stokes process.

    A pump photon at k_pump scatters into a signal photon at
    k_pump - q and a phonon at q. In the backward geometry the signal
    sits on the counterpropagating branch and the phonon bridges the
    branch mismatch:

        q = 2 * k_pump * vg / (vg + va)

    which satisfies both conservation laws exactly for the linearized
    branches. In the forward geometry both photons share a branch and
    the only intra-branch solution is the degenerate one, q = 0,
    Omega = 0.

    The photon branches are omega0 + vg*k (forward) and omega0 - vg*k
    (backward), the acoustic one va*|q|. The pump is placed on the
    branch matching its propagation direction (forward branch for
    k_pump >= 0, backward otherwise); the returned triple then has
    Omega_phonon >= 0 and omega_signal <= omega_pump.

    Raises
    ------
    ValueError
        If k_pump is NaN.
    PhysicsError
        If a value of the triple is beyond the float range.
    """
    require_number("k_pump", k_pump)
    vg, va = params.vg, params.va
    pump_slope = vg if k_pump >= 0 else -vg
    if geometry == FORWARD:
        q = 0.0
        signal_slope = pump_slope
    elif geometry == BACKWARD:
        q = 2.0 * k_pump * vg / (vg + va)
        signal_slope = -pump_slope
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    k_signal = k_pump - q
    return BrillouinTriple(k_pump, k_signal, q, params.omega0 + pump_slope * k_pump,
                           params.omega0 + signal_slope * k_signal, va * abs(q))
