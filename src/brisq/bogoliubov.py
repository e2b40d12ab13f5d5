"""Bogoliubov diagonalization of the photon-phonon pair Hamiltonian.

The linearized interaction in the signal/phonon pair frame is

    H / h = omega a^dag a + Omega b^dag b + f (a b + a^dag b^dag)

with omega the signal photon frequency, Omega the phonon frequency and
f the real, nonnegative pair coupling, all in Hz. A two-mode squeeze
rotation by r with tanh(2r) = f / omega_bar removes the pair terms and
leaves two stable normal modes whenever f < omega_bar = (omega+Omega)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Unstable


@dataclass(frozen=True)
class SqueezeSpec:
    """Result of diagonalizing the pair Hamiltonian.

    omega, Omega, f echo the inputs. omega_bar and delta are the half
    sum and half difference of the mode frequencies, gap the common
    normal-mode frequency sqrt(omega_bar^2 - f^2), r the squeeze
    parameter. omega_alpha = gap + delta and omega_beta = gap - delta
    are the normal-mode frequencies; omega_zero = gap - omega_bar <= 0
    is the constant offset picked up by the transformed vacuum.
    """

    omega: float
    Omega: float
    f: float
    omega_bar: float
    delta: float
    gap: float
    r: float
    omega_alpha: float
    omega_beta: float
    omega_zero: float


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
    """
    if isinstance(f, complex):
        raise TypeError("f must be real; rotate the pump phase out first")
    if not (omega > 0 and Omega > 0):
        raise ValueError("omega and Omega must be positive")
    if not f >= 0:  # NaN fails every comparison, so it is refused here
        raise ValueError("f must be nonnegative")
    omega_bar = 0.5 * (omega + Omega)
    delta = 0.5 * (omega - Omega)
    if omega_bar <= f:
        raise Unstable(
            f"pair coupling f = {f:g} Hz reaches the mean frequency "
            f"omega_bar = {omega_bar:g} Hz"
        )
    # product form keeps the gap accurate close to threshold
    gap = math.sqrt((omega_bar - f) * (omega_bar + f))
    r = 0.5 * math.atanh(f / omega_bar)
    return SqueezeSpec(
        omega=omega,
        Omega=Omega,
        f=f,
        omega_bar=omega_bar,
        delta=delta,
        gap=gap,
        r=r,
        omega_alpha=gap + delta,
        omega_beta=gap - delta,
        omega_zero=gap - omega_bar,
    )


def hamiltonian_coefficients(omega: float, Omega: float, f: float,
                             r: float) -> tuple[float, float, float, float]:
    """Coefficients of H rewritten in trial squeeze modes at parameter r.

    Substituting a = cosh(r) alpha - sinh(r) beta^dag and
    b = cosh(r) beta - sinh(r) alpha^dag gives

        H / h = constant + alpha_number alpha^dag alpha
                + beta_number beta^dag beta
                - offdiagonal (alpha beta + alpha^dag beta^dag)

    Returns (constant, alpha_number, beta_number, offdiagonal); note the
    minus sign in front of the off-diagonal bracket, so offdiagonal
    equals -f at r = 0. The bracket crosses zero exactly at the
    diagonalizing r, where alpha_number and beta_number reduce to the
    normal-mode frequencies and constant to omega_zero.
    """
    c = math.cosh(r)
    s = math.sinh(r)
    cs = c * s
    constant = (omega + Omega) * s * s - 2.0 * f * cs
    alpha_number = omega * c * c + Omega * s * s - 2.0 * f * cs
    beta_number = Omega * c * c + omega * s * s - 2.0 * f * cs
    offdiagonal = (omega + Omega) * cs - f * (c * c + s * s)
    return constant, alpha_number, beta_number, offdiagonal
