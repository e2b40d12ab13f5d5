"""Dispersion and phase-matching tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from brisq.errors import NoSolution
from brisq.waveguide import (
    BACKWARD,
    FORWARD,
    WaveguideParams,
    phase_match,
    phonon_frequency,
    photon_frequency,
)


def make_params(**overrides):
    fields = dict(omega0=193e12, vg=7e7, va=8433.0, length=0.01,
                  g=1e6, u=1e6, gamma=0.01)
    fields.update(overrides)
    return WaveguideParams(**fields)


def test_reference_mode_frequency():
    params = make_params()
    assert photon_frequency(params, 0.0, FORWARD) == 193e12
    assert photon_frequency(params, 0.0, BACKWARD) == 193e12


def test_forward_branch_slope():
    params = make_params()
    assert photon_frequency(params, 1e4, FORWARD) == 193e12 + 7e7 * 1e4
    assert photon_frequency(params, 1e4, FORWARD) == pytest.approx(
        1.937e14, rel=1e-15)


def test_branch_mirror_symmetry():
    params = make_params()
    for k in (0.0, 12.5, 1e4, -3.7e5, 5.9e5):
        assert photon_frequency(params, k, FORWARD) == \
            photon_frequency(params, -k, BACKWARD)


def test_unknown_branch_rejected():
    with pytest.raises(ValueError):
        photon_frequency(make_params(), 1.0, "sideways")


def test_phonon_frequency_even_and_linear():
    params = make_params()
    assert phonon_frequency(params, 0.0) == 0.0
    for q in (1.0, 1e3, 2.7e6):
        assert phonon_frequency(params, q) == phonon_frequency(params, -q)
    # 10 GHz phonon sits at q = Omega / va
    q = 1e10 / 8433.0
    assert phonon_frequency(params, q) == pytest.approx(1e10, rel=1e-12)


def test_phase_match_backward_reference_device():
    params = make_params()
    k_pump = 592980.2391963544  # places the phonon at 10 GHz
    triple = phase_match(params, k_pump, BACKWARD)
    expected_q = 2.0 * k_pump * params.vg / (params.vg + params.va)
    assert triple.q_phonon == expected_q
    assert triple.q_phonon == pytest.approx(1185817.6212498515, rel=1e-15)
    assert triple.Omega_phonon == pytest.approx(1e10, rel=1e-12)
    assert triple.k_pump - triple.k_signal - triple.q_phonon == 0.0
    residual = triple.omega_pump - triple.omega_signal - triple.Omega_phonon
    assert abs(residual) / triple.omega_pump < 1e-12


def test_phase_match_conservation_grid():
    rng = np.random.default_rng(23)
    for _ in range(200):
        params = make_params(
            vg=float(rng.uniform(1e7, 3e8)),
            va=float(rng.uniform(1e3, 2e4)),
            omega0=float(rng.uniform(1e14, 5e14)),
        )
        k_pump = float(rng.choice([-1.0, 1.0])
                       * 10 ** rng.uniform(2.0, 7.0))
        for geometry in (BACKWARD, FORWARD):
            triple = phase_match(params, k_pump, geometry)
            assert triple.k_pump - triple.k_signal - triple.q_phonon == 0.0
            residual = (triple.omega_pump - triple.omega_signal
                        - triple.Omega_phonon)
            assert abs(residual) / triple.omega_pump < 1e-12
            assert triple.Omega_phonon >= 0.0
            assert triple.omega_signal <= triple.omega_pump


def test_phase_match_forward_is_degenerate():
    params = make_params()
    triple = phase_match(params, 1e5, FORWARD)
    assert triple.q_phonon == 0.0
    assert triple.Omega_phonon == 0.0
    assert triple.k_signal == triple.k_pump
    assert triple.omega_signal == triple.omega_pump


def test_phase_match_counterpropagating_pump():
    params = make_params()
    triple = phase_match(params, -4.2e5, BACKWARD)
    assert triple.q_phonon < 0.0
    assert triple.Omega_phonon > 0.0
    assert triple.omega_pump > params.omega0
    assert triple.omega_signal < triple.omega_pump


def test_phase_match_no_solution_for_parallel_branches():
    degenerate = SimpleNamespace(vg=5e3, va=5e3, omega0=193e12)
    with pytest.raises(NoSolution):
        phase_match(degenerate, 1e4, BACKWARD)


def test_phase_match_unknown_geometry():
    with pytest.raises(ValueError):
        phase_match(make_params(), 1e4, "oblique")


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(va=8e7)  # va >= vg
    with pytest.raises(ValueError):
        make_params(va=0.0)
    with pytest.raises(ValueError):
        make_params(length=0.0)
    with pytest.raises(ValueError):
        make_params(omega0=-1.0)
    with pytest.raises(ValueError):
        make_params(g=-1.0)
    with pytest.raises(ValueError):
        make_params(gamma=-0.5)
