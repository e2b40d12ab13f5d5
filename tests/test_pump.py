"""Pump steady-state and effective-coupling tests."""

import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brisq.errors import DegenerateLinewidth
from brisq.pump import PumpDrive, pump_steady_state
from test_waveguide import make_params

UNIT = 2.0 ** -53  # unit roundoff of a float64


def steady(omega_mode, omega_p=1e10, flux_in=1e12, **params):
    return pump_steady_state(make_params(**params), PumpDrive(omega_p, flux_in),
                             omega_mode)


def test_resonant_detuning_is_pure_damping():
    detuning = steady(1e10, u=1e6, gamma=0.01).detuning
    assert detuning.real == 0.0
    assert detuning.imag == -1000000.005
    # |detuning|^2 collapses to the squared half linewidth on resonance
    assert abs(detuning) ** 2 == 1000000.005 ** 2


def test_detuned_mode():
    assert steady(1e10 + 2e6, u=1e6, gamma=0.0).detuning == 2e6 - 1e6j


def test_degenerate_linewidth_raises():
    with pytest.raises(DegenerateLinewidth):
        steady(1e10, u=0.0, gamma=0.0)


def test_drive_validation():
    with pytest.raises(ValueError):
        PumpDrive(omega_p=0.0, flux_in=1.0)
    with pytest.raises(ValueError):
        PumpDrive(omega_p=1e10, flux_in=-1.0)
    with pytest.raises(ValueError, match="^flux_in: nan is not a finite number$"):
        PumpDrive(omega_p=1e10, flux_in=math.nan)
    # the input amplitude is sqrt(flux_in): sqrt(u) * 2e6 / (u + gamma/2)
    assert steady(1e10, flux_in=4e12, u=1e6, gamma=0.0).amplitude == 2e3


def test_zero_drive_has_zero_amplitude():
    assert steady(1e10, flux_in=0.0, u=1e6, gamma=0.0).amplitude == 0.0


def test_amplitude_scales_with_root_flux():
    small = steady(1e10, flux_in=1e12, u=1e6, gamma=0.01).amplitude
    large = steady(1e10, flux_in=4e12, u=1e6, gamma=0.01).amplitude
    assert large == pytest.approx(2.0 * small, rel=1e-15)


def test_resonant_photon_number_exact():
    # u = 1 MHz, gamma = 0, flux 1e12/s: n = u * flux / |detuning|^2 = 1e6
    state = steady(1e10, flux_in=1e12, u=1e6, gamma=0.0)
    assert abs(state.amplitude) ** 2 == 1e6
    assert state.photon_number == 1e6
    assert state.amplitude.real == 1000.0
    assert state.amplitude.imag == 0.0


def test_photon_number_amplitude_and_flux_paths_agree():
    # detuned case: both routes to the photon number must coincide
    state = steady(1e10 + 2e6, flux_in=1e12, u=1e6, gamma=0.0)
    flux_path = 1e6 * 1e12 / abs(state.detuning) ** 2
    assert flux_path == pytest.approx(2e5, rel=1e-12)
    assert abs(state.amplitude) ** 2 == pytest.approx(flux_path, rel=1e-12)


def test_effective_coupling_reference_device():
    # g = u = 1 MHz, gamma = 10 mHz, resonant 1e12/s drive: f ~ 1 GHz
    state = steady(1e10)
    f = state.coupling
    assert f.imag == 0.0
    assert f.real == pytest.approx(999999995.0, rel=1e-12)
    assert abs(f) == pytest.approx(1e9, rel=1e-3)
    # |f| also follows from g * sqrt(u * flux) / |detuning|
    assert abs(f) == pytest.approx(
        1e6 * math.sqrt(1e6 * 1e12) / abs(state.detuning), rel=1e-14)


def test_coupling_scales_with_root_flux():
    params = make_params()
    f1 = pump_steady_state(params, PumpDrive(1e10, 1e12), 1e10).coupling
    f2 = pump_steady_state(params, PumpDrive(1e10, 9e12), 1e10).coupling
    assert abs(f2) == pytest.approx(3.0 * abs(f1), rel=1e-15)


def test_steady_state_composite_matches_parts():
    params = make_params()
    drive = PumpDrive(omega_p=193.00001e12, flux_in=1e12)
    omega_mode = 193e12
    state = pump_steady_state(params, drive, omega_mode)
    detuning = (omega_mode - drive.omega_p) - 1j * (params.u + 0.5 * params.gamma)
    amplitude = math.sqrt(params.u) * math.sqrt(drive.flux_in) / (1j * detuning)
    assert state.detuning == detuning
    assert state.amplitude == amplitude
    assert state.photon_number == abs(amplitude) ** 2
    assert state.coupling == params.g * amplitude


def decades(low, high):
    """Floats 10**e for e in [low, high], so every decade is drawn alike."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(u=decades(-6, 12), gamma=st.just(0.0) | decades(-6, 12),
       detuning=st.just(0.0) | decades(-3, 12) | decades(-3, 12).map(operator.neg),
       flux_in=decades(-3, 20))
@example(u=1e6, gamma=0.01, detuning=0.0, flux_in=1e12)  # the reference device
def test_the_pump_conserves_photon_flux(u, gamma, detuning, flux_in):
    # The model is a resonator driven through a port of rate u, with a
    # second port of rate u and an intrinsic loss gamma (README): the
    # steady state damps at u + gamma/2 and couples in through sqrt(u),
    # so the photons in leave through the two ports and the loss,
    #   flux_in = (u + gamma) n + |sqrt(flux_in) - sqrt(u) a|^2,
    # at every detuning. The bound counts roundings, UNIT for each basic
    # operation and sqrt, 2 UNIT for abs (hypot) and ** 2 (pow):
    # - u + gamma/2 rounds once, which moves the identity by 2 UNIT F;
    # - a is within 9 UNIT of exact (two sqrt, a product and at most six
    #   in Smith's complex division), so n within 24 UNIT, and the first
    #   term, at most F, within 26 UNIT;
    # - the out-coupled field cancels, but its error is at most 10 UNIT
    #   |sqrt(u) a|, and |field| |sqrt(u) a| <= F/2, so its square moves
    #   by 10 UNIT F, plus 10 UNIT of itself for sqrt(flux_in) squared,
    #   the subtraction, abs and ** 2;
    # - the sum rounds once.
    # That is 39 UNIT F to first order.
    omega_p = 2e14
    state = steady(omega_p + detuning, omega_p=omega_p, flux_in=flux_in, u=u, gamma=gamma)
    outgoing = abs(math.sqrt(flux_in) - math.sqrt(u) * state.amplitude) ** 2
    balance = (u + gamma) * state.photon_number + outgoing
    assert abs(balance - flux_in) <= 40 * UNIT * flux_in
