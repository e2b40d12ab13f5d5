"""Dispersion and phase-matching tests."""

import math

import numpy as np
import pytest

from brisq.waveguide import BACKWARD, FORWARD, WaveguideParams, phase_match


def make_params(**overrides):
    fields = dict(omega0=193e12, vg=7e7, va=8433.0, length=0.01,
                  g=1e6, u=1e6, gamma=0.01)
    fields.update(overrides)
    return WaveguideParams(**fields)


def test_reference_mode_frequency():
    params = make_params()
    for geometry in (FORWARD, BACKWARD):
        triple = phase_match(params, 0.0, geometry)
        assert triple.omega_pump == 193e12
        assert triple.omega_signal == 193e12


def test_forward_branch_slope():
    params = make_params()
    triple = phase_match(params, 1e4, FORWARD)
    assert triple.omega_pump == 193e12 + 7e7 * 1e4
    assert triple.omega_pump == pytest.approx(1.937e14, rel=1e-15)


def test_branch_mirror_symmetry():
    # the pump sits on the branch of its propagation direction, so the
    # triple at -k mirrors the one at k
    params = make_params()
    for k in (0.0, 12.5, 1e4, -3.7e5, 5.9e5):
        for geometry in (FORWARD, BACKWARD):
            ahead = phase_match(params, k, geometry)
            behind = phase_match(params, -k, geometry)
            assert ahead.omega_pump == behind.omega_pump
            assert ahead.omega_signal == behind.omega_signal
            assert ahead.Omega_phonon == behind.Omega_phonon


def test_phonon_frequency_even_and_linear():
    params = make_params()
    assert phase_match(params, 0.0, BACKWARD).Omega_phonon == 0.0
    for k in (1.0, 1e3, 2.7e6):
        ahead = phase_match(params, k, BACKWARD)
        behind = phase_match(params, -k, BACKWARD)
        assert ahead.Omega_phonon == behind.Omega_phonon
        assert ahead.Omega_phonon == params.va * ahead.q_phonon
    # 10 GHz phonon sits at q = Omega / va
    q = 1e10 / 8433.0
    k_pump = q * (params.vg + params.va) / (2.0 * params.vg)
    triple = phase_match(params, k_pump, BACKWARD)
    assert triple.q_phonon == pytest.approx(q, rel=1e-15)
    assert triple.Omega_phonon == pytest.approx(1e10, rel=1e-12)


def test_phase_match_branches_are_bit_exact():
    # forward branch omega0 + vg*k, backward branch omega0 - vg*k; the
    # pump takes the branch of its sign, the signal the same one in the
    # forward geometry and the other one in the backward geometry
    params = make_params()
    omega0, vg, va = params.omega0, params.vg, params.va

    def branch(k, forward):
        return omega0 + vg * k if forward else omega0 - vg * k

    for k_pump in (-4.2e5, -12.5, -0.0, 0.0, 3.3, 5.9e5):
        for geometry in (FORWARD, BACKWARD):
            triple = phase_match(params, k_pump, geometry)
            pump_forward = k_pump >= 0
            signal_forward = pump_forward == (geometry == FORWARD)
            assert triple.omega_pump == branch(k_pump, pump_forward)
            assert triple.omega_signal == branch(triple.k_signal, signal_forward)
            assert triple.Omega_phonon == va * abs(triple.q_phonon)


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


def test_params_refuse_nan_rates():
    # NaN passes `< 0`, so the rates are checked as `not x >= 0`
    for name in ("g", "u", "gamma"):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            make_params(**{name: math.nan})


def test_params_first_error_follows_the_check_order():
    # the field order changed, the order of the checks did not
    with pytest.raises(ValueError, match="omega0"):
        make_params(omega0=-1.0, g=-1.0, va=0.0, length=0.0)
    with pytest.raises(ValueError, match="velocities"):
        make_params(g=-1.0, va=0.0, length=0.0)
    with pytest.raises(ValueError, match="length"):
        make_params(g=-1.0, length=0.0)


def test_params_are_keyword_only():
    # the fields are in report order, so a positional call in the old
    # (omega0, vg, va, length, ...) order must not fill them silently
    with pytest.raises(TypeError):
        WaveguideParams(193e12, 7e7, 8433.0, 0.01, 1e6, 1e6, 0.01)
