"""Bogoliubov diagonalization of the photon-phonon pair Hamiltonian.

The linearized interaction in the signal/phonon pair frame is

    H / h = omega a^dag a + Omega b^dag b - f (a b + a^dag b^dag)

with omega the signal photon frequency, Omega the phonon frequency and
f the real, nonnegative pair coupling, all in Hz. The two-mode squeeze
rotation a = cosh(r) alpha + sinh(r) beta^dag, b = cosh(r) beta +
sinh(r) alpha^dag with tanh(2r) = f / omega_bar removes the pair terms
and leaves two stable normal modes whenever f < omega_bar =
(omega+Omega)/2. While f^2 < omega Omega, the ground state is the
two-mode squeezed vacuum with Fock amplitudes c_{n+1}/c_n = +tanh(r)
and <ab> = +cosh(r) sinh(r), the sign that the squeezing tables and
the Fock oracle report. Between sqrt(omega Omega) and omega_bar, a band
that needs omega != Omega, omega_beta = gap - delta is negative and H
is unbounded below: the squeezed vacuum is then the stationary
Bogoliubov vacuum, annihilated by alpha and beta, but not a ground
state.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import Unstable, require_finite


class SqueezeSpec(Record):
    """Result of diagonalizing the pair Hamiltonian.

    omega, Omega, f echo the inputs. omega_bar and delta are the half
    sum and half difference of the mode frequencies, gap the common
    normal-mode frequency sqrt(omega_bar^2 - f^2), r the squeeze
    parameter. omega_alpha = gap + delta and omega_beta = gap - delta
    are the normal-mode frequencies; omega_zero = gap - omega_bar <= 0
    is the constant offset picked up by the transformed vacuum.
    """

    def __init__(self, omega: float, Omega: float, f: float, omega_bar: float,
                 delta: float, gap: float, r: float, omega_alpha: float,
                 omega_beta: float, omega_zero: float) -> None:
        require_finite("squeeze values", omega, Omega, f, omega_bar, delta, gap, r,
                       omega_alpha, omega_beta, omega_zero)
        self.omega = omega
        self.Omega = Omega
        self.f = f
        self.omega_bar = omega_bar
        self.delta = delta
        self.gap = gap
        self.r = r
        self.omega_alpha = omega_alpha
        self.omega_beta = omega_beta
        self.omega_zero = omega_zero


def diagonalize(omega: float, Omega: float, f: float) -> SqueezeSpec:
    """Diagonalize H by a two-mode squeeze rotation.

    Parameters
    ----------
    omega, Omega : float
        Signal photon and phonon frequencies in Hz, both positive.
    f : float
        Pair coupling in Hz, real and nonnegative. Complex couplings are
        rejected: rotate the pump phase into the mode definitions first.

    Raises
    ------
    Unstable
        If f >= omega_bar; the normal-mode frequencies turn complex and
        no squeezed ground state exists.
    ValueError
        If omega or Omega is not positive or f is negative, or any is NaN.
    PhysicsError
        If a value of the spec is beyond the float range.
    """
    if isinstance(f, complex):
        raise TypeError("f must be real; rotate the pump phase out first")
    if not (omega > 0 and Omega > 0):
        raise ValueError("omega and Omega must be positive")
    if not f >= 0:  # NaN fails every comparison, so it is refused here
        raise ValueError("f must be nonnegative")
    # one power-of-two scale keeps the sum and the product-form gap in the
    # float range; what it drops of a tiny frequency lies far below the
    # sum's last bit, so omega_bar and delta are correctly rounded
    exponent = math.frexp(max(omega, Omega))[1]
    w, v = math.ldexp(omega, -exponent), math.ldexp(Omega, -exponent)
    bar = 0.5 * (w + v)
    omega_bar = math.ldexp(bar, exponent)
    delta = math.ldexp(0.5 * (w - v), exponent)
    if omega_bar <= f:
        raise Unstable(
            f"pair coupling f = {f:g} Hz reaches the mean frequency "
            f"omega_bar = {omega_bar:g} Hz"
        )
    # product form keeps the gap accurate close to threshold; f is scaled
    # only here, as f * 2**-exponent would overflow for a huge f
    pair = math.ldexp(f, -exponent)
    gap = math.ldexp(math.sqrt((bar - pair) * (bar + pair)), exponent)
    r = 0.5 * math.atanh(f / omega_bar)
    return SqueezeSpec(omega, Omega, f, omega_bar, delta, gap, r, gap + delta,
                       gap - delta, gap - omega_bar)

