"""Pump steady-state and effective-coupling tests."""

import math

import pytest

from brisq.errors import DegenerateLinewidth
from brisq.pump import PumpDrive, pump_steady_state
from test_waveguide import make_params


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
