"""Pump steady-state and effective-coupling tests."""

import math

import pytest

from brisq.errors import DegenerateLinewidth
from brisq.pump import (
    PumpDrive,
    pump_detuning,
    pump_steady_amplitude,
    pump_steady_state,
)
from test_waveguide import make_params


def test_resonant_detuning_is_pure_damping():
    detuning = pump_detuning(1e10, 1e10, 1e6, 0.01)
    assert detuning.real == 0.0
    assert detuning.imag == -1000000.005
    # |detuning|^2 collapses to the squared half linewidth on resonance
    assert abs(detuning) ** 2 == 1000000.005 ** 2


def test_detuned_mode():
    detuning = pump_detuning(1e10 + 2e6, 1e10, 1e6, 0.0)
    assert detuning == 2e6 - 1e6j


def test_degenerate_linewidth_raises():
    with pytest.raises(DegenerateLinewidth):
        pump_detuning(1e10, 1e10, 0.0, 0.0)
    drive = PumpDrive(omega_p=1e10, flux_in=1e12)
    with pytest.raises(DegenerateLinewidth):
        pump_steady_amplitude(drive, complex(2e6, 0.0), 1e6)


def test_drive_validation():
    with pytest.raises(ValueError):
        PumpDrive(omega_p=0.0, flux_in=1.0)
    with pytest.raises(ValueError):
        PumpDrive(omega_p=1e10, flux_in=-1.0)
    assert PumpDrive(omega_p=1e10, flux_in=4e12).amplitude_in == 2e6


def test_zero_drive_has_zero_amplitude():
    drive = PumpDrive(omega_p=1e10, flux_in=0.0)
    detuning = pump_detuning(1e10, 1e10, 1e6, 0.0)
    assert pump_steady_amplitude(drive, detuning, 1e6) == 0.0


def test_amplitude_scales_with_root_flux():
    detuning = pump_detuning(1e10, 1e10, 1e6, 0.01)
    small = pump_steady_amplitude(PumpDrive(1e10, 1e12), detuning, 1e6)
    large = pump_steady_amplitude(PumpDrive(1e10, 4e12), detuning, 1e6)
    assert large == pytest.approx(2.0 * small, rel=1e-15)


def test_resonant_photon_number_exact():
    # u = 1 MHz, gamma = 0, flux 1e12/s: n = u * flux / |detuning|^2 = 1e6
    drive = PumpDrive(omega_p=1e10, flux_in=1e12)
    detuning = pump_detuning(1e10, 1e10, 1e6, 0.0)
    amplitude = pump_steady_amplitude(drive, detuning, 1e6)
    assert abs(amplitude) ** 2 == 1e6
    assert amplitude.real == 1000.0
    assert amplitude.imag == 0.0


def test_photon_number_amplitude_and_flux_paths_agree():
    # detuned case: both routes to the photon number must coincide
    drive = PumpDrive(omega_p=1e10, flux_in=1e12)
    detuning = pump_detuning(1e10 + 2e6, 1e10, 1e6, 0.0)
    amplitude = pump_steady_amplitude(drive, detuning, 1e6)
    flux_path = 1e6 * drive.flux_in / abs(detuning) ** 2
    assert flux_path == pytest.approx(2e5, rel=1e-12)
    assert abs(amplitude) ** 2 == pytest.approx(flux_path, rel=1e-12)


def test_effective_coupling_reference_device():
    # g = u = 1 MHz, gamma = 10 mHz, resonant 1e12/s drive: f ~ 1 GHz
    drive = PumpDrive(omega_p=1e10, flux_in=1e12)
    detuning = pump_detuning(1e10, 1e10, 1e6, 0.01)
    f = pump_steady_state(make_params(), drive, 1e10).coupling
    assert f.imag == 0.0
    assert f.real == pytest.approx(999999995.0, rel=1e-12)
    assert abs(f) == pytest.approx(1e9, rel=1e-3)
    # |f| also follows from g * sqrt(u * flux) / |detuning|
    assert abs(f) == pytest.approx(
        1e6 * math.sqrt(1e6 * 1e12) / abs(detuning), rel=1e-14)


def test_coupling_scales_with_root_flux():
    params = make_params()
    f1 = pump_steady_state(params, PumpDrive(1e10, 1e12), 1e10).coupling
    f2 = pump_steady_state(params, PumpDrive(1e10, 9e12), 1e10).coupling
    assert abs(f2) == pytest.approx(3.0 * abs(f1), rel=1e-15)


def test_steady_state_composite_matches_parts():
    params = make_params()
    drive = PumpDrive(omega_p=193.00001e12, flux_in=1e12)
    omega_mode = 193e12
    steady = pump_steady_state(params, drive, omega_mode)
    detuning = pump_detuning(omega_mode, drive.omega_p, params.u, params.gamma)
    amplitude = pump_steady_amplitude(drive, detuning, params.u)
    assert steady.detuning == detuning
    assert steady.amplitude == amplitude
    assert steady.photon_number == abs(amplitude) ** 2
    assert steady.coupling == params.g * amplitude
