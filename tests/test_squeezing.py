"""Closed-form squeezed-vacuum statistics tests."""

import dataclasses
import math

import pytest
import scipy.constants

from brisq.squeezing import (
    BOLTZMANN_K,
    CROSS_KEYS,
    MODE_KEYS,
    PLANCK_H,
    QUAD_KEYS,
    MomentTable,
    ThermalEnv,
    full_moment_table,
    pair_probability,
    pair_tail,
    table_deviation,
    thermal_occupation,
)

R_REF = 0.05016767361301254  # reference device squeeze parameter

R_GRID = (0.0, 1e-6, 0.01, R_REF, 0.3, 1.0, 1.5)


def brute_tail(r, n_min):
    """Accumulate the pair distribution term by term until it converges."""
    total = 0.0
    n = n_min
    while True:
        term = pair_probability(r, n)
        total += term
        if term < 1e-25 or n > n_min + 5000:
            return total
        n += 1


def test_pair_probabilities_reference_device():
    assert pair_probability(R_REF, 0) == pytest.approx(0.9975, abs=1e-4)
    assert pair_probability(R_REF, 1) == pytest.approx(0.0025, abs=1e-4)
    assert pair_probability(R_REF, 2) == pytest.approx(6.25e-6, rel=2e-2)


def test_vacuum_limit():
    assert pair_probability(0.0, 0) == 1.0
    assert pair_probability(0.0, 3) == 0.0
    assert pair_tail(0.0, 1) == 0.0
    with pytest.raises(ValueError):
        pair_probability(0.3, -1)
    with pytest.raises(ValueError):
        pair_tail(0.3, -2)


def test_tail_closed_form_matches_brute_sum():
    for r in (0.05, 0.3, 0.8):
        for n_min in (0, 1, 4, 10):
            assert pair_tail(r, n_min) == pytest.approx(
                brute_tail(r, n_min), rel=1e-12)
    # normalization: everything plus nothing
    for r in R_GRID:
        head = sum(pair_probability(r, n) for n in range(64))
        assert head + pair_tail(r, 64) == pytest.approx(1.0, abs=1e-14)


def test_mean_pair_number_is_sinh_squared():
    for r in (0.05, 0.3, 0.8, 1.2):
        mean = 0.0
        for n in range(1, 2000):
            term = n * pair_probability(r, n)
            mean += term
            if term < 1e-25:
                break
        assert mean == pytest.approx(math.sinh(r) ** 2, rel=1e-12)


def test_independent_moments_structure():
    table = full_moment_table(0.0)
    for key in ("X_a", "Y_a", "X_b", "Y_b"):
        assert table.second[key] == 0.5
        assert table.squeezing[key] == 0.0
        assert table.first[key] == 0.0
    assert table.products["a"] == 0.5

    table = full_moment_table(0.3)
    assert table.second["X_a"] == pytest.approx(0.5 * math.cosh(0.6),
                                                rel=1e-15)
    # both bare quadratures are antisqueezed equally
    assert table.squeezing["X_a"] == table.squeezing["Y_a"]
    assert table.squeezing["X_a"] == pytest.approx(math.sinh(0.3) ** 2,
                                                   rel=1e-15)


def test_heisenberg_products():
    for r in R_GRID:
        table = full_moment_table(r)
        expected = 0.5 + math.sinh(r) ** 2
        for mode in ("a", "b"):
            assert abs(table.products[mode] - expected) < 1e-12
        for mode in ("c", "d"):
            assert abs(table.products[mode] - 0.5) < 1e-12


def test_mixed_moments_squeeze_antisqueeze():
    table = full_moment_table(0.3)
    assert table.second["X_c"] == pytest.approx(0.5 * math.exp(-0.6),
                                                rel=1e-15)
    assert table.second["Y_c"] == pytest.approx(0.5 * math.exp(0.6),
                                                rel=1e-15)
    assert table.second["X_d"] == table.second["Y_c"]
    assert table.second["Y_d"] == table.second["X_c"]
    for r in R_GRID[1:]:
        squeezing = full_moment_table(r).squeezing
        assert squeezing["X_c"] < 0.0 < squeezing["Y_c"]
        assert squeezing["X_c"] == squeezing["Y_d"]
        assert squeezing["Y_c"] == squeezing["X_d"]


def test_reference_device_squeezing_values():
    squeezing = full_moment_table(R_REF).squeezing
    assert squeezing["X_c"] == pytest.approx(-0.0475, abs=5e-4)
    assert squeezing["Y_c"] == pytest.approx(0.0525, abs=5e-4)
    antisqueeze = squeezing["X_a"]
    assert antisqueeze == pytest.approx(0.0025, abs=1e-4)


def test_marginal_variances_are_additive():
    for r in R_GRID:
        second = full_moment_table(r).second
        total = second["X_c"] + second["X_d"]
        assert total == pytest.approx(2.0 * second["X_a"],
                                      rel=1e-14)


def test_correlation_moments():
    table = full_moment_table(0.3)
    s2 = math.sinh(0.3) ** 2
    cs = math.cosh(0.3) * math.sinh(0.3)
    for key in ("n_a", "n_b", "n_c", "n_d"):
        assert table.cross[key] == pytest.approx(s2, rel=1e-15)
    assert table.cross["ab"] == pytest.approx(cs, rel=1e-15)
    assert table.cross["c2"] == -table.cross["ab"]
    assert table.cross["d2"] == table.cross["ab"]
    assert table.cross["adag_b"] == 0.0
    assert table.cross["a2"] == 0.0
    assert table.cross["b2"] == 0.0
    # <ab>^2 = n (n + 1) for the pair-correlated state
    for r in R_GRID:
        cross = full_moment_table(r).cross
        assert cross["ab"] ** 2 == pytest.approx(
            cross["n_a"] * (cross["n_a"] + 1.0), rel=1e-12)


def test_full_table_merges_consistently():
    table = full_moment_table(0.3)
    assert set(table.second) == {"X_a", "Y_a", "X_b", "Y_b",
                                 "X_c", "Y_c", "X_d", "Y_d"}
    assert set(table.products) == {"a", "b", "c", "d"}
    assert len(table.cross) == 10
    assert table.r == 0.3
    # a table is built whole: no section has a default
    with pytest.raises(TypeError):
        MomentTable(r=0.3, second=dict(table.second))
    for r in R_GRID:
        table = full_moment_table(r)
        assert list(table.first) == list(QUAD_KEYS)
        assert list(table.second) == list(QUAD_KEYS)
        assert list(table.squeezing) == list(QUAD_KEYS)
        assert list(table.products) == list(MODE_KEYS)
        assert list(table.cross) == list(CROSS_KEYS)


def test_table_deviation():
    left = full_moment_table(0.3)
    assert table_deviation(left, full_moment_table(0.3)) == 0.0
    bumped = dataclasses.replace(
        left, second={**left.second, "X_a": left.second["X_a"] + 1e-3})
    assert table_deviation(left, bumped) == pytest.approx(1e-3, rel=1e-9)
    # every entry is compared by name: a moment one side lacks is an
    # error, whichever side it is
    for section in ("first", "second", "products", "squeezing", "cross"):
        entries = dict(getattr(left, section))
        entries.popitem()
        short = dataclasses.replace(left, **{section: entries})
        with pytest.raises(KeyError):
            table_deviation(left, short)
        with pytest.raises(KeyError):
            table_deviation(short, left)


def test_thermal_occupation_reference_bath():
    env = ThermalEnv(Omega=1e10, temperature=0.2, Gamma=1e6)
    assert env.quality == 1e4
    n_bar = thermal_occupation(env)
    assert n_bar == pytest.approx(0.1, rel=5e-2)
    # independent arithmetic path with the 2019 SI exact constants
    x = 6.62607015e-34 * 1e10 / (1.380649e-23 * 0.2)
    assert n_bar == pytest.approx(1.0 / (math.exp(x) - 1.0), rel=1e-10)
    assert n_bar == pytest.approx(0.09981030749537737, rel=1e-12)


def test_si_constants_are_scipys():
    assert PLANCK_H == scipy.constants.h
    assert BOLTZMANN_K == scipy.constants.k


def test_thermal_occupation_limits():
    env = ThermalEnv(Omega=1e10, temperature=0.0, Gamma=1e6)
    assert thermal_occupation(env) == 0.0
    # kB*T underflows to zero: the T = 0 limit, not a division by zero
    env = ThermalEnv(Omega=1e10, temperature=5e-324, Gamma=1e6)
    assert thermal_occupation(env) == 0.0
    # far detuned / ultracold: underflows to zero instead of overflowing
    frozen = ThermalEnv(Omega=1e14, temperature=1e-3, Gamma=1e6)
    assert thermal_occupation(frozen) == 0.0
    warm = thermal_occupation(ThermalEnv(Omega=1e10, temperature=4.0,
                                         Gamma=1e6))
    cold = thermal_occupation(ThermalEnv(Omega=1e10, temperature=0.1,
                                         Gamma=1e6))
    assert warm > cold
    with pytest.raises(ValueError):
        ThermalEnv(Omega=1e10, temperature=-0.1, Gamma=1e6)
    with pytest.raises(ValueError):
        ThermalEnv(Omega=0.0, temperature=0.2, Gamma=1e6)
    with pytest.raises(ValueError):
        ThermalEnv(Omega=1e10, temperature=0.2, Gamma=0.0)
