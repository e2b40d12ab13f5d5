"""Bogoliubov diagonalization tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brisq.bogoliubov import diagonalize
from brisq.errors import Unstable
from brisq.focksim import choose_cutoff, squeezed_vacuum

# reference device: omega = Omega = 10 GHz, f from the resonant pump chain
F_REF = 999999995.0
R_REF = 0.05016767361301254


def hamiltonian_coefficients(omega, Omega, f, r):
    """Coefficients of H rewritten in trial squeeze modes at parameter r.

    Substituting a = cosh(r) alpha + sinh(r) beta^dag and
    b = cosh(r) beta + sinh(r) alpha^dag into
    H / h = omega a^dag a + Omega b^dag b - f (a b + a^dag b^dag) gives

        H / h = constant + alpha_number alpha^dag alpha
                + beta_number beta^dag beta
                + offdiagonal (alpha beta + alpha^dag beta^dag)

    Returns (constant, alpha_number, beta_number, offdiagonal), so
    offdiagonal equals -f at r = 0. The bracket crosses zero exactly at
    the diagonalizing r, where alpha_number and beta_number reduce to
    the normal-mode frequencies and constant to omega_zero.
    """
    c = math.cosh(r)
    s = math.sinh(r)
    cs = c * s
    constant = (omega + Omega) * s * s - 2.0 * f * cs
    alpha_number = omega * c * c + Omega * s * s - 2.0 * f * cs
    beta_number = Omega * c * c + omega * s * s - 2.0 * f * cs
    offdiagonal = (omega + Omega) * cs - f * (c * c + s * s)
    return constant, alpha_number, beta_number, offdiagonal


def test_reference_device_numbers():
    spec = diagonalize(1e10, 1e10, F_REF)
    assert spec.r == pytest.approx(R_REF, rel=1e-12)
    assert math.tanh(spec.r) == pytest.approx(0.05, abs=1e-3)
    assert math.cosh(spec.r) ** 2 == pytest.approx(1.0025, abs=1e-4)
    assert math.sinh(spec.r) ** 2 == pytest.approx(0.0025, abs=1e-4)
    assert spec.delta == 0.0
    assert spec.omega_alpha == spec.omega_beta


def test_gap_and_ground_offset_at_one_gigahertz():
    spec = diagonalize(1e10, 1e10, 1e9)
    assert spec.gap == pytest.approx(9949874371.0662, rel=1e-12)
    assert spec.omega_zero == pytest.approx(-50125628.93379974, rel=1e-10)
    # about -0.0501 GHz below the bare mean frequency
    assert spec.omega_zero == pytest.approx(-0.0501e9, rel=1e-3)


def test_normal_modes_match_dynamical_matrix():
    # eigenfrequencies of d/dt (a, b^dag) = -i M (a, b^dag) are an
    # independent route to omega_alpha and -omega_beta
    for (omega, Omega, f) in [(1e10, 1e10, 1e9), (1.2e10, 0.8e10, 3e9),
                              (5e6, 2e6, 3.4e6)]:
        spec = diagonalize(omega, Omega, f)
        dyn = np.array([[omega, -f], [f, -Omega]])
        eigen = np.sort(np.linalg.eigvals(dyn).real)
        assert eigen[1] == pytest.approx(spec.omega_alpha, rel=1e-10)
        assert eigen[0] == pytest.approx(-spec.omega_beta, rel=1e-10)


def test_zero_coupling_is_identity_rotation():
    spec = diagonalize(1.3e10, 0.7e10, 0.0)
    assert spec.r == 0.0
    assert spec.gap == pytest.approx(spec.omega_bar, rel=1e-15)
    assert spec.omega_alpha == pytest.approx(1.3e10, rel=1e-15)
    assert spec.omega_beta == pytest.approx(0.7e10, rel=1e-15)
    assert abs(spec.omega_zero) < 1e-3


def test_unstable_boundary():
    omega_bar = 1e10
    spec = diagonalize(1e10, 1e10, omega_bar * (1.0 - 1e-12))
    assert spec.gap > 0.0
    with pytest.raises(Unstable):
        diagonalize(1e10, 1e10, omega_bar)
    with pytest.raises(Unstable):
        diagonalize(1e10, 1e10, omega_bar * (1.0 + 1e-12))


def test_input_validation():
    with pytest.raises(TypeError):
        diagonalize(1e10, 1e10, 1e9 + 0j)
    with pytest.raises(ValueError):
        diagonalize(0.0, 1e10, 1e9)
    with pytest.raises(ValueError):
        diagonalize(1e10, -1e10, 1e9)
    with pytest.raises(ValueError):
        diagonalize(1e10, 1e10, -1e9)
    # NaN passes f < 0; an infinite coupling is past threshold
    with pytest.raises(ValueError, match="f must be nonnegative"):
        diagonalize(1e10, 1e10, float("nan"))
    with pytest.raises(Unstable):
        diagonalize(1e10, 1e10, float("inf"))


def test_transform_identities_over_random_stable_draws():
    rng = np.random.default_rng(97)
    for _ in range(1000):
        omega = 10.0 ** rng.uniform(6.0, 12.0)
        Omega = 10.0 ** rng.uniform(6.0, 12.0)
        ratio = rng.uniform(0.0, 0.999)
        spec = diagonalize(omega, Omega, ratio * 0.5 * (omega + Omega))
        c, s = math.cosh(spec.r), math.sinh(spec.r)
        assert abs(c * c - s * s - 1.0) < 1e-12
        # rotation consistency: cosh sinh = f / (2 gap)
        assert c * s == pytest.approx(spec.f / (2.0 * spec.gap), abs=1e-10)
        assert spec.omega_alpha + spec.omega_beta == pytest.approx(
            2.0 * spec.gap, rel=1e-12)
        diff = spec.omega_alpha - spec.omega_beta
        # the subtraction cancels terms of size gap + |delta|
        scale = spec.gap + abs(spec.delta)
        assert abs(diff - (spec.omega - spec.Omega)) <= 8.0 * np.finfo(float).eps * scale
        assert spec.omega_zero <= 0.0


def test_gap_is_the_product_form_wherever_that_product_is_normal():
    # the power-of-two scaling is exact, so it changes no bit of the gap
    rng = np.random.default_rng(11)
    for _ in range(20000):
        omega_bar = 10.0 ** rng.uniform(-150.0, 150.0)
        ratio = rng.choice([rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-16.0, 0.0),
                            10.0 ** rng.uniform(-300.0, 0.0)])
        spec = diagonalize(omega_bar, omega_bar, ratio * omega_bar)
        product = (spec.omega_bar - spec.f) * (spec.omega_bar + spec.f)
        if product >= sys.float_info.min:
            assert spec.gap == math.sqrt(product)


@pytest.mark.parametrize("omega, f", [(1.7e154, 1e-143), (8e307, 4e307)])
def test_gap_where_its_product_form_overflows(omega, f):
    # (omega_bar - f) * (omega_bar + f) is past the float range, the gap not
    spec = diagonalize(omega, omega, f)
    assert spec.gap == pytest.approx(math.sqrt(1.0 - (f / omega) ** 2) * omega,
                                     rel=1e-15)


def test_gap_where_its_product_form_underflows():
    # (1e-160)^2 underflows to a subnormal; the exact gap is 1e-160
    spec = diagonalize(1e-160, 1e-160, 0.0)
    assert spec.gap == 1e-160
    assert spec.omega_zero == 0.0
    assert spec.omega_alpha == spec.omega_beta == 1e-160


# halving is exact from 2**-1021 up; below it a half is subnormal and rounds
HALVABLE = st.floats(min_value=2.0 ** -1021, max_value=sys.float_info.max)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@example(omega=8.9e307, Omega=8.9e307)
@example(omega=1e10, Omega=9999999999.999998)
@given(omega=HALVABLE, Omega=HALVABLE)
def test_halved_mean_and_difference_are_the_halved_sum_and_difference(omega, Omega):
    # 0.5 * omega + 0.5 * Omega is bit-equal to 0.5 * (omega + Omega)
    # wherever that sum is finite, and likewise for the difference
    assume(math.isfinite(omega + Omega))
    spec = diagonalize(omega, Omega, 0.0)
    assert spec.omega_bar.hex() == (0.5 * (omega + Omega)).hex()
    assert spec.delta.hex() == (0.5 * (omega - Omega)).hex()


def test_mean_where_the_sum_of_frequencies_overflows():
    # omega + Omega = 2e308 is past the float range, omega_bar not
    spec = diagonalize(1e308, 1e308, 0.0)
    assert spec.gap == spec.omega_bar == 1e308
    assert spec.omega_zero == 0.0
    assert spec.delta == 0.0


def test_beyond_the_ground_state_range_a_normal_mode_turns_negative():
    # omega_beta >= 0 exactly while f^2 <= omega * Omega; with omega != Omega
    # a stable f can pass that, and H is then unbounded below
    omega, Omega, f = 1.2e10, 0.8e10, 0.99e10
    assert omega * Omega < f * f and f < 0.5 * (omega + Omega)
    spec = diagonalize(omega, Omega, f)
    assert spec.omega_beta < 0
    assert spec.omega_alpha > 0


def test_squeeze_parameter_paths_agree():
    # r from atanh(f/omega_bar)/2 against the hyperbolic-coefficient
    # route sinh^2 r = (omega_bar - gap) / (2 gap), rationalized to
    # f^2 / ((omega_bar + gap) 2 gap) so it stays stable for small f
    for ratio in (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.6, 0.9, 0.99):
        spec = diagonalize(1.2e10, 0.8e10, ratio * 1e10)
        sinh_sq = spec.f ** 2 / ((spec.omega_bar + spec.gap) * 2.0 * spec.gap)
        alternate = math.asinh(math.sqrt(sinh_sq))
        assert alternate == pytest.approx(spec.r, rel=1e-12)
    # cosh route is fine away from f -> 0
    for ratio in (0.1, 0.5, 0.9, 0.99):
        spec = diagonalize(1e10, 1e10, ratio * 1e10)
        alternate = math.acosh(
            math.sqrt((spec.omega_bar + spec.gap) / (2.0 * spec.gap)))
        assert alternate == pytest.approx(spec.r, rel=1e-12)


def test_hamiltonian_coefficients_at_zero_rotation():
    constant, alpha, beta, off = hamiltonian_coefficients(
        1.2e10, 0.8e10, 3e9, 0.0)
    assert constant == 0.0
    assert alpha == 1.2e10
    assert beta == 0.8e10
    assert off == -3e9


def test_hamiltonian_coefficients_diagonalize():
    for (omega, Omega, f) in [(1e10, 1e10, F_REF), (1.2e10, 0.8e10, 3e9),
                              (5e6, 2e6, 3.4e6)]:
        spec = diagonalize(omega, Omega, f)
        constant, alpha, beta, off = hamiltonian_coefficients(
            omega, Omega, f, spec.r)
        assert abs(off) < 1e-12 * (omega + Omega)
        assert alpha == pytest.approx(spec.omega_alpha, rel=1e-12)
        assert beta == pytest.approx(spec.omega_beta, rel=1e-12)
        assert constant == pytest.approx(spec.omega_zero, rel=1e-10)


def test_offdiagonal_changes_sign_at_diagonalizing_r():
    spec = diagonalize(1.2e10, 0.8e10, 3e9)
    below = hamiltonian_coefficients(1.2e10, 0.8e10, 3e9, spec.r - 1e-4)[3]
    above = hamiltonian_coefficients(1.2e10, 0.8e10, 3e9, spec.r + 1e-4)[3]
    assert below < 0.0 < above


@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 0.99])
def test_ground_state_is_the_reported_squeezed_vacuum(ratio):
    # the n_a = n_b sector of H / h = omega a^dag a + Omega b^dag b
    # - f (a b + a^dag b^dag): <n, n|H|n, n> = (omega + Omega) n and
    # <n+1, n+1|H|n, n> = -f (n + 1)
    omega, Omega = 1.2e10, 0.8e10
    spec = diagonalize(omega, Omega, ratio * 0.5 * (omega + Omega))
    cutoff = choose_cutoff(spec.r)
    n = np.arange(cutoff)
    sector = (np.diag((omega + Omega) * n.astype(float))
              - np.diag(spec.f * n[1:].astype(float), 1)
              - np.diag(spec.f * n[1:].astype(float), -1))
    energies, vectors = np.linalg.eigh(sector)
    ground = vectors[:, 0] * np.sign(vectors[0, 0])
    reported = squeezed_vacuum(cutoff, spec.r).grid().diagonal()
    assert np.max(np.abs(ground - reported)) < 1e-5
    assert energies[0] / spec.omega_bar == pytest.approx(
        spec.omega_zero / spec.omega_bar, abs=1e-10)
