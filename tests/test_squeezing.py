"""Closed-form squeezed-vacuum statistics tests."""

import math

import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st

from brisq.errors import PhysicsError
from brisq.pipeline import _plain
from brisq.squeezing import (
    BOLTZMANN_K,
    CROSS_KEYS,
    MODE_KEYS,
    PLANCK_H,
    QUAD_KEYS,
    TABLE_LAYOUT,
    TABLE_SIZE,
    MomentTable,
    ThermalEnv,
    full_moment_table,
    pair_probability,
    pair_tail,
    table_deviation,
    thermal_occupation,
    worst,
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
    # a bool is refused, as every other gate refuses one, not read as the
    # order 1 or 0
    for order in (True, False):
        with pytest.raises(ValueError, match=f"^n must be nonnegative and whole, not {order}$"):
            pair_probability(0.3, order)
        with pytest.raises(ValueError,
                           match=f"^n_min must be nonnegative and whole, not {order}$"):
            pair_tail(0.3, order)



def test_orders_beyond_the_float_range_take_the_limit():
    # 2 n does not fit a float, so tanh(r) ** (2 n) cannot be formed:
    # the tail is its limit, 0 where |tanh r| < 1 and 1 where tanh r
    # rounds to +-1, and P_n is 0
    order = 10**400
    for r, tail in ((0.0, 0.0), (0.3, 0.0), (-0.3, 0.0), (400.0, 1.0),
                    (math.inf, 1.0), (-math.inf, 1.0)):
        assert pair_tail(r, order) == tail, r
        assert pair_probability(r, order) == 0.0, r

def test_nan_r_is_refused_by_name():
    # without the gate each returns NaN, or a table of NaNs
    for call in (lambda r: pair_probability(r, 3), lambda r: pair_tail(r, 3),
                 full_moment_table):
        with pytest.raises(ValueError, match="r = nan"):
            call(math.nan)
    # the order checks still come first
    with pytest.raises(ValueError, match="n must be nonnegative"):
        pair_probability(math.nan, -1)
    with pytest.raises(ValueError, match="n_min must be nonnegative"):
        pair_tail(math.nan, -1)


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
    # a table is built whole: values has no default
    with pytest.raises(TypeError):
        MomentTable(r=0.3)
    for r in R_GRID:
        table = full_moment_table(r)
        assert list(table.first) == list(QUAD_KEYS)
        assert list(table.second) == list(QUAD_KEYS)
        assert list(table.squeezing) == list(QUAD_KEYS)
        assert list(table.products) == list(MODE_KEYS)
        assert list(table.cross) == list(CROSS_KEYS)


def test_sections_read_back_in_layout_order():
    # the sections partition values in TABLE_LAYOUT order, each a fresh
    # read-only dict, and a report writes them in that order between r
    # and max_imag_discarded
    table = full_moment_table(0.3)
    assert [name for name, _ in TABLE_LAYOUT] == [
        "first", "second", "products", "squeezing", "cross"]
    assert [keys for _, keys in TABLE_LAYOUT] == [
        QUAD_KEYS, QUAD_KEYS, MODE_KEYS, QUAD_KEYS, CROSS_KEYS]
    assert TABLE_SIZE == len(table.values) == 38
    sections = [getattr(table, name) for name, _ in TABLE_LAYOUT]
    assert [list(section) for section in sections] == [
        list(keys) for _, keys in TABLE_LAYOUT]
    assert tuple(value for section in sections for value in section.values()) \
        == table.values
    assert table.first is not table.first
    table.squeezing["X_c"] = 1.0
    assert table.squeezing["X_c"] == 0.5 * math.expm1(-0.6)
    for name, _ in TABLE_LAYOUT:
        with pytest.raises(AttributeError):
            setattr(table, name, {})
    assert _plain(table) == {"r": 0.3, **dict(zip(
        [name for name, _ in TABLE_LAYOUT], sections)), "max_imag_discarded": 0.0}
    assert list(_plain(table)) == ["r", "first", "second", "products", "squeezing",
                                   "cross", "max_imag_discarded"]


def test_table_deviation():
    left = full_moment_table(0.3)
    assert table_deviation(left, full_moment_table(0.3)) == 0.0
    second_x_a = len(QUAD_KEYS)
    bumped = left.replace(values=(
        *left.values[:second_x_a], left.second["X_a"] + 1e-3,
        *left.values[second_x_a + 1:]))
    assert bumped.second["X_a"] == left.second["X_a"] + 1e-3
    assert table_deviation(left, bumped) == pytest.approx(1e-3, rel=1e-9)
    # every entry is compared: a table short of or beyond the layout by
    # one entry, in any section, cannot be built
    for size in range(TABLE_SIZE):
        with pytest.raises(ValueError, match="holds 38 values"):
            MomentTable(0.3, left.values[:size])
    for extra in (0.0, math.nan):
        with pytest.raises(ValueError, match="holds 38 values"):
            MomentTable(0.3, (*left.values, extra))


def test_table_deviation_propagates_nan():
    # a NaN in any of the 38 entries, on either side, makes the deviation
    # NaN; the builtin max kept it only where it was compared first,
    # first["X_a"]
    left = full_moment_table(0.3)
    for i in range(TABLE_SIZE):
        poisoned = left.replace(
            values=(*left.values[:i], math.nan, *left.values[i + 1:]))
        assert math.isnan(table_deviation(left, poisoned)), i
        assert math.isnan(table_deviation(poisoned, left)), i


def test_worst_is_the_largest_or_nan():
    assert worst([0.0, 3.0, 2.0]) == 3.0
    for values in ([math.nan, 1.0], [1.0, math.nan], [2.0, 0.0, math.nan]):
        assert math.isnan(worst(values)), values
    assert math.isnan(worst(iter([1.0, math.nan])))


# any float, with NaN, the infinities and both zeros drawn often
EDGE_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
                        st.floats())


def reference_worst(values):
    """NaN if any value is NaN, else the builtin max."""
    return math.nan if any(map(math.isnan, values)) else max(values)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(EDGE_FLOATS, min_size=1, max_size=40))
def test_worst_is_the_reference_at_every_position(values):
    # repr tells -0.0 from 0.0 and reads every NaN alike
    assert repr(worst(values)) == repr(reference_worst(values))
    assert repr(worst(iter(values))) == repr(reference_worst(values))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(EDGE_FLOATS, min_size=2 * TABLE_SIZE, max_size=2 * TABLE_SIZE))
def test_table_deviation_is_the_reference_at_every_position(values):
    left, right = (MomentTable(None, tuple(values[i::2])) for i in (0, 1))
    differences = [abs(a - b) for a, b in zip(left.values, right.values)]
    assert repr(table_deviation(left, right)) == repr(reference_worst(differences))


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
    # h*Omega/(kB*T) underflows to 0, or to a subnormal (4.8e-311 at
    # 1 Hz and 1e300 K) whose inverse overflows: kB*T/(h*Omega) is past
    # the float range, a PhysicsError, not inf or a ZeroDivisionError
    for Omega, temperature in ((1e-300, 0.2), (5e-324, 0.2), (1.0, 1e300)):
        with pytest.raises(PhysicsError, match="overflow the float range"):
            thermal_occupation(ThermalEnv(Omega, temperature, 1e6))
    assert math.isfinite(thermal_occupation(ThermalEnv(1e-290, 0.2, 1e6)))
    # Omega/Gamma overflows: the check is made where Q is read, not at
    # construction, so a sweep row with this bath ends in a row error
    slow = ThermalEnv(Omega=1e10, temperature=0.2, Gamma=1e-300)
    with pytest.raises(PhysicsError, match="overflow the float range"):
        slow.quality
    warm = thermal_occupation(ThermalEnv(Omega=1e10, temperature=4.0,
                                         Gamma=1e6))
    cold = thermal_occupation(ThermalEnv(Omega=1e10, temperature=0.1,
                                         Gamma=1e6))
    assert warm > cold
    with pytest.raises(ValueError):
        ThermalEnv(Omega=1e10, temperature=-0.1, Gamma=1e6)
    with pytest.raises(ValueError, match="^temperature: nan is not a finite number$"):
        ThermalEnv(Omega=1e10, temperature=math.nan, Gamma=1e6)
    with pytest.raises(ValueError):
        ThermalEnv(Omega=0.0, temperature=0.2, Gamma=1e6)
    with pytest.raises(ValueError):
        ThermalEnv(Omega=1e10, temperature=0.2, Gamma=0.0)
