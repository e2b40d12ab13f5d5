"""Truncated Fock-space oracle tests."""

import gc
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from brisq import focksim
from brisq.errors import CutoffTooSmall, ZeroProbability
from brisq.focksim import (
    CUTOFF_CAP,
    DENSE_CAP,
    EDGE_TOL,
    TAIL_TOL,
    TwoModeState,
    apply_squeeze_factorized,
    bogoliubov_check,
    choose_cutoff,
    fock_state,
    herald,
    measure_moments,
    squeeze_operator,
    squeezed_vacuum,
    vacuum_state,
)
from brisq.squeezing import (
    QUAD_KEYS,
    full_moment_table,
    pair_probability,
    pair_tail,
    table_deviation,
)
from brisq.focksim import (
    _PLAN_MEMO_BYTES,
    _band_plan,
    _band_plans,
    _sector_block,
    _sector_index,
    _sector_spectrum,
)

R_REF = 0.05016767361301254
# top of the range the cutoff cap serves: pair_tail(EDGE_R, 128) = 1e-12,
# up to rounding that may put it just past the tail gate (see gate_edge)
EDGE_R = math.atanh(TAIL_TOL ** (1.0 / (2 * CUTOFF_CAP)))  # ~1.46


def gate_edge(cutoff):
    """The largest r the tail gate admits at this cutoff: EDGE_R at the
    cap, down to the last ulp."""
    r = math.atanh(TAIL_TOL ** (1.0 / (2 * cutoff)))
    while pair_tail(r, cutoff) > TAIL_TOL:
        r = math.nextafter(r, 0.0)
    return r


class Ladders(NamedTuple):
    a: np.ndarray
    adag: np.ndarray
    b: np.ndarray
    bdag: np.ndarray


def ladder_operators(cutoff):
    """Dense two-mode ladder matrices in the row-major basis, the reference
    for the grid shifts, the moments and the sector exponentials.

    Built as Kronecker products of the single-mode lowering matrix
    a|k> = sqrt(k)|k-1> with the identity; [a, b^dag] = 0 exactly, and
    [a, a^dag] equals the identity except for the expected -(cutoff-1)
    entry in the highest photon row.
    """
    low = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    eye = np.eye(cutoff)
    a = np.kron(low, eye)
    b = np.kron(eye, low)
    return Ladders(a=a, adag=a.T.copy(), b=b, bdag=b.T.copy())


def test_ladder_operators_two_levels():
    ops = ladder_operators(2)
    low = [[0.0, 1.0], [0.0, 0.0]]
    assert np.array_equal(ops.a, np.kron(low, np.eye(2)))
    assert np.array_equal(ops.b, np.kron(np.eye(2), low))
    assert np.array_equal(ops.adag, ops.a.T)
    assert np.array_equal(ops.bdag, ops.b.T)


def test_dense_path_refuses_cutoffs_above_its_cap():
    # checked before anything is allocated: one operator at cutoff 49
    # would take ~46 MB
    cutoff = DENSE_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense operator"):
            squeeze_operator(cutoff, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the state-vector path and the sector-wise check keep the larger cap
    assert squeezed_vacuum(cutoff, 0.1).cutoff == DENSE_CAP + 1
    residuals = bogoliubov_check(cutoff, 0.1)
    assert max(residuals.alpha, residuals.beta, residuals.commutator) < 1e-10


def test_space_validation():
    # one cutoff gate: every builder and TwoModeState refuse what
    # OracleConfig refuses, with its message
    builders = (vacuum_state,
                lambda n: fock_state(n, 0, 0),
                lambda n: squeezed_vacuum(n, 0.1),
                lambda n: squeeze_operator(n, 0.1),
                lambda n: bogoliubov_check(n, 0.1))
    refusal = r"^cutoff: expected an integer in \[2, 128\]$"
    for cutoff in (1, -2, 2.0, True, 200, CUTOFF_CAP + 1, None, "8"):
        for build in builders:
            with pytest.raises(ValueError, match=refusal):
                build(cutoff)
    # amplitudes of the matching length: only the gate can refuse these
    for cutoff in (1, -2, 2.0, True, 200):
        with pytest.raises(ValueError, match=refusal):
            TwoModeState(amplitudes=np.full(int(cutoff) ** 2, 0.5), cutoff=cutoff)
    assert vacuum_state(2).cutoff == 2
    assert squeezed_vacuum(CUTOFF_CAP, 0.1).cutoff == CUTOFF_CAP
    # the basis is row major: |n_a, n_b> sits at n_a * cutoff + n_b
    assert np.flatnonzero(fock_state(6, 2, 3).amplitudes).tolist() == [15]


def test_ladder_commutators():
    ops = ladder_operators(5)
    eye = np.eye(5)
    # [a, a^dag] = 1 everywhere except the truncation row
    expected = np.kron(np.diag([1.0, 1.0, 1.0, 1.0, -4.0]), eye)
    comm = ops.a @ ops.adag - ops.adag @ ops.a
    assert np.max(np.abs(comm - expected)) < 1e-14
    # different modes commute exactly
    zero = ops.a @ ops.bdag - ops.bdag @ ops.a
    assert np.array_equal(zero, np.zeros_like(zero))
    assert np.array_equal(ops.adag, ops.a.T)
    number = ops.adag @ ops.a
    assert np.allclose(number, np.kron(np.diag(np.arange(5.0)), eye),
                       atol=1e-14)


def test_grid_actions_match_dense_products():
    # each image of a band plan is the dense ladder product on the
    # plan's points, and the product is zero off them: on a dense state
    # (every sector) and on one occupying sectors 1..2 alone
    ops = ladder_operators(6)
    rng = np.random.default_rng(5)
    dense = rng.normal(size=36) + 1j * rng.normal(size=36)
    n_a, n_b = np.divmod(np.arange(36), 6)
    banded = np.where((n_a - n_b >= 1) & (n_a - n_b <= 2), dense, 0.0)
    for amp, lo, hi in ((dense, -5, 5), (banded, 1, 2)):
        sources, weights = _band_plan(6, lo, hi)
        points = sources[0]  # psi reads itself
        sector = n_a - n_b
        assert np.array_equal(np.sort(points),
                              np.flatnonzero((sector >= lo - 1) & (sector <= hi + 1)))
        images = weights * amp[sources]
        for image, op in zip(images, (np.eye(36), ops.a, ops.b, ops.adag, ops.bdag)):
            product = op @ amp
            assert np.array_equal(image, product[points])
            assert not np.delete(product, points).any()


def test_squeeze_operator_identity_at_zero():
    assert np.array_equal(squeeze_operator(7, 0.0), np.eye(49))


def test_squeeze_operator_matches_dense_generator_exponential():
    # independent construction: exp of the full dense generator
    cutoff = 20
    r = 0.43
    ops = ladder_operators(cutoff)
    generator = r * (ops.adag @ ops.bdag - ops.a @ ops.b)
    dense = expm(generator)
    assert np.max(np.abs(squeeze_operator(cutoff, r) - dense)) < 1e-12


def sector_generator(r, cutoff, m):
    """Dense r (a^dag b^dag - a b) on the sector n_a - n_b = m, in the
    order of _sector_index: K[k+1, k] = r sqrt(n_a n_b) of level k + 1."""
    n_a, n_b = np.divmod(_sector_index(cutoff, m), cutoff)
    amp = r * np.sqrt(n_a[1:] * n_b[1:])
    return np.diag(amp, -1) - np.diag(amp, 1)


def sectors(cutoff):
    return range(-(cutoff - 1), cutoff)


def test_sector_index_walks_each_sector_diagonal():
    for cutoff in (2, 5):
        covered = np.concatenate([_sector_index(cutoff, m) for m in sectors(cutoff)])
        assert np.array_equal(np.sort(covered), np.arange(cutoff * cutoff))
    n_a, n_b = np.divmod(_sector_index(5, -2), 5)
    assert n_a.tolist() == [0, 1, 2] and n_b.tolist() == [2, 3, 4]


@pytest.mark.parametrize("cutoff", [2, 5, 16, 48, 128])
def test_sector_blocks_match_expm(cutoff):
    # Whole blocks are compared with expm up to EDGE_R / 2 only: beyond
    # r ~ 1 at cutoff 128, scipy's scaled-and-squared expm is itself off
    # by up to 1.4e-12 (against 40-digit arithmetic at r = 1.43; the eigh
    # blocks are within ~1e-14 there). The group law exp(2K) = exp(K)^2 carries the
    # check to EDGE_R, and the vacuum column, which is what the oracle
    # reads, is compared with expm all the way.
    for r in (0.3, EDGE_R / 2):
        # one pass per library: interleaving numpy's and scipy's BLAS
        # calls makes their thread pools contend and doubles the run time
        blocks = [_sector_block(r, cutoff, m) for m in sectors(cutoff)]
        expected = [expm(sector_generator(r, cutoff, m)) for m in sectors(cutoff)]
        for m, block, ref in zip(sectors(cutoff), blocks, expected):
            assert np.max(np.abs(block - ref)) <= 1e-12
            if m == 0:
                assert np.max(np.abs(block[:, 0] - ref[:, 0])) <= 1e-14
    for m in sectors(cutoff):
        half = _sector_block(EDGE_R / 2, cutoff, m)
        block = _sector_block(EDGE_R, cutoff, m)
        assert np.max(np.abs(block - half @ half)) <= 1e-12
    vacuum = _sector_block(EDGE_R, cutoff, 0)[:, 0]
    expected = expm(sector_generator(EDGE_R, cutoff, 0))[:, 0]
    assert np.max(np.abs(vacuum - expected)) <= 1e-14
    # the oracle's own path, which forms that column without the block,
    # at the largest r the tail gate lets through
    edge = gate_edge(cutoff)
    state = squeezed_vacuum(cutoff, edge)
    amplitudes = state.amplitudes[_sector_index(cutoff, 0)]
    expected = expm(sector_generator(edge, cutoff, 0))[:, 0]
    assert np.max(np.abs(amplitudes - expected)) <= 1e-14
    assert np.max(np.abs(amplitudes - _sector_block(edge, cutoff, 0)[:, 0])) <= 1e-15


def test_r_zero_gives_exactly_the_identity():
    # 1 - cos is written 2 sin^2(r S / 2), which is exactly 0 at r = 0
    for cutoff in (2, 5, 16):
        for m in sectors(cutoff):
            block = _sector_block(0.0, cutoff, m)
            assert np.array_equal(block, np.eye(cutoff - abs(m))), (cutoff, m)
        assert np.array_equal(squeezed_vacuum(cutoff, 0.0).amplitudes,
                              vacuum_state(cutoff).amplitudes)


@pytest.mark.parametrize("cutoff", [2, 5, 16, 48])
def test_negative_r_matches_expm(cutoff):
    # r enters only through sin(r S), odd in r, and sin^2(r S / 2)
    for r in (-0.3, -1.0, -1.4):
        blocks = [_sector_block(r, cutoff, m) for m in sectors(cutoff)]
        expected = [expm(sector_generator(r, cutoff, m)) for m in sectors(cutoff)]
        for m, block, ref in zip(sectors(cutoff), blocks, expected):
            assert np.max(np.abs(block - ref)) <= 1e-12, (r, m)
        column = expected[cutoff - 1][:, 0]  # sector 0
        assert np.max(np.abs(blocks[cutoff - 1][:, 0] - column)) <= 1e-14, r
        if pair_tail(r, cutoff) <= TAIL_TOL:
            state = squeezed_vacuum(cutoff, r)
            amplitudes = state.amplitudes[_sector_index(cutoff, 0)]
            assert np.max(np.abs(amplitudes - column)) <= 1e-14, r


def test_outputs_do_not_depend_on_call_order():
    # cold: the spectrum is decomposed for this call; warm: it was left
    # by a sector walk at another r
    cutoff, r = 40, 0.7
    _sector_spectrum.cache_clear()
    cold_state = squeezed_vacuum(cutoff, r).amplitudes
    _sector_spectrum.cache_clear()
    cold_block = _sector_block(r, 40, 3)
    _sector_spectrum.cache_clear()
    bogoliubov_check(cutoff, 0.2)
    hits = _sector_spectrum.cache_info().hits
    warm_state = squeezed_vacuum(cutoff, r).amplitudes
    warm_block = _sector_block(r, 40, 3)
    assert _sector_spectrum.cache_info().hits == hits + 2
    assert np.array_equal(cold_state, warm_state)
    assert np.array_equal(cold_block, warm_block)


def test_spectrum_memo_memory_is_bounded():
    # 256 entries of at most 66 KB (size 128): ~14.4 MB, whatever the walk
    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    _sector_spectrum.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for cutoff in range(2, CUTOFF_CAP + 1):
            squeezed_vacuum(cutoff, 0.0)
        for cutoff in range(100, CUTOFF_CAP + 1):
            bogoliubov_check(cutoff, 1.0)
        walked = retained()
        # the 256 largest sectors of all: sizes 113-128
        for size in range(113, CUTOFF_CAP + 1):
            for cutoff in range(size, CUTOFF_CAP + 1):
                for m in {cutoff - size, size - cutoff}:
                    _sector_spectrum(cutoff, m)
        largest = retained()
    finally:
        tracemalloc.stop()
    assert _sector_spectrum.cache_info().currsize == 256
    assert walked <= 16_000_000
    assert largest <= 16_000_000
    for part in _sector_spectrum(16, 3):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1.0


def test_nan_r_is_refused_by_name():
    # NaN passes every tail comparison; the infinities fail the tail gate
    cutoff = 5
    for call in (choose_cutoff, lambda r: squeezed_vacuum(cutoff, r),
                 lambda r: bogoliubov_check(cutoff, r),
                 lambda r: squeeze_operator(cutoff, r),
                 lambda r: apply_squeeze_factorized(vacuum_state(cutoff), r)):
        with pytest.raises(ValueError, match="r = nan"):
            call(math.nan)
        for r in (math.inf, -math.inf):
            with pytest.raises(CutoffTooSmall):
                call(r)


@pytest.mark.parametrize("cutoff", [5, 16, 40])
def test_squeeze_operator_is_orthogonal(cutoff):
    r = math.atanh(TAIL_TOL ** (1.0 / (2 * cutoff)))  # tail mass 1e-12
    squeeze = squeeze_operator(cutoff, r)
    gram = squeeze @ squeeze.T
    assert np.max(np.abs(gram - np.eye(cutoff * cutoff))) <= 1e-12


def test_squeeze_operator_unitary_on_low_block():
    squeeze = squeeze_operator(40, 0.5)
    gram = squeeze @ squeeze.T
    low = [na * 40 + nb for na in range(20) for nb in range(20)]
    residual = np.abs(gram[np.ix_(low, low)] - np.eye(400))
    assert np.max(residual) < 1e-10


def test_cutoff_gate():
    with pytest.raises(CutoffTooSmall):
        squeeze_operator(10, 1.0)
    with pytest.raises(CutoffTooSmall):
        squeezed_vacuum(10, 1.0)


def test_squeezed_vacuum_matches_operator_application():
    cutoff = 16
    state = squeezed_vacuum(cutoff, 0.3)
    direct = squeeze_operator(cutoff, 0.3) @ vacuum_state(cutoff).amplitudes
    assert np.max(np.abs(state.amplitudes - direct)) < 1e-13
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_squeezed_vacuum_amplitudes_closed_form():
    cutoff = 60
    r = 0.8
    state = squeezed_vacuum(cutoff, r)
    grid = state.grid()
    for n in range(30):
        expected = math.tanh(r) ** n / math.cosh(r)
        assert abs(grid[n, n] - expected) < 1e-10
    # pair structure: off-diagonal occupations are structurally absent
    off = grid.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(off, np.zeros_like(off))


def test_squeezed_vacuum_reference_pair_weight():
    state = squeezed_vacuum(12, R_REF)
    assert state.probability(1, 1) == pytest.approx(0.0025, abs=1e-4)
    assert state.probability(1, 1) == pytest.approx(
        pair_probability(R_REF, 1), rel=1e-9)


def test_factorized_application_agrees_with_direct():
    cutoff = 40
    r = 0.5
    direct = squeezed_vacuum(cutoff, r)
    factorized = apply_squeeze_factorized(vacuum_state(cutoff), r)
    assert np.max(np.abs(direct.amplitudes - factorized.amplitudes)) < 1e-10
    # also on a low-occupation superposition, against the dense operator
    grid = np.zeros((cutoff, cutoff), dtype=complex)
    grid[0, 0] = grid[1, 1] = 1.0 / math.sqrt(3.0)
    grid[2, 1] = 1j / math.sqrt(3.0)
    amp = grid.reshape(-1)
    state = TwoModeState(amplitudes=amp, cutoff=cutoff)
    dense = squeeze_operator(cutoff, r) @ amp
    routed = apply_squeeze_factorized(state, r)
    assert np.max(np.abs(routed.amplitudes - dense)) < 1e-10


def test_bogoliubov_conjugation_residuals():
    residuals = bogoliubov_check(40, 0.3)
    # the block stops where squeezed Fock columns start leaking off the
    # edge; inside it the identities hold to rounding, far below 1e-8
    assert residuals.block == 8
    assert residuals.alpha < 1e-10
    assert residuals.beta < 1e-10
    assert residuals.commutator < 1e-10
    calm = bogoliubov_check(12, 0.0)
    assert calm.block == 6
    assert calm.alpha == 0.0
    assert calm.beta == 0.0
    assert calm.commutator == 0.0


def test_bogoliubov_check_builds_each_sector_once(monkeypatch):
    # block 8 at cutoff 40 and r = 0.3: sectors -8..8, the diagonal one
    # included, each built once
    built = []
    sector_block = focksim._sector_block

    def counted(r, cutoff, m):
        built.append(m)
        return sector_block(r, cutoff, m)

    monkeypatch.setattr(focksim, "_sector_block", counted)
    assert bogoliubov_check(40, 0.3).block == 8
    assert sorted(built) == list(range(-8, 9))


def test_bogoliubov_block_starts_at_two():
    # every ladder operator moves the vacuum out of its sector, so a block
    # of 1 compared zeros with zeros; a 4-level basis is too small at this r
    residuals = bogoliubov_check(4, 0.025)
    assert residuals.block == 2
    assert residuals.alpha > 1e-8


def dense_residuals(cutoff, r):
    """bogoliubov_check's block and residuals from the dense matrices:
    S^T a S and S^T b S over the whole basis, read on the low block."""
    squeeze = squeeze_operator(cutoff, r)
    ops = ladder_operators(cutoff)
    edge = np.abs(squeeze[-1, ::cutoff + 1])
    block = 2
    while block < cutoff // 2 and edge[block] < EDGE_TOL:
        block += 1
    low = (np.arange(block)[:, None] * cutoff + np.arange(block)[None, :]).reshape(-1)

    def low_max(matrix):
        return float(np.max(np.abs(matrix[np.ix_(low, low)])))

    c, s = math.cosh(r), math.sinh(r)
    alpha = squeeze.T @ ops.a @ squeeze
    beta = squeeze.T @ ops.b @ squeeze
    return block, (low_max(alpha - (c * ops.a + s * ops.bdag)),
                   low_max(beta - (c * ops.b + s * ops.adag)),
                   low_max(alpha @ beta.T - beta.T @ alpha))


def test_bogoliubov_check_matches_dense_conjugation():
    checked = 0
    for cutoff in (2, 3, 8, 16, 24):
        for r in (0.0, 0.01, 0.3, 0.8):
            if pair_tail(r, cutoff) > TAIL_TOL:
                continue
            residuals = bogoliubov_check(cutoff, r)
            block, dense = dense_residuals(cutoff, r)
            assert residuals.block == block, (cutoff, r)
            measured = (residuals.alpha, residuals.beta, residuals.commutator)
            for value, expected in zip(measured, dense):
                assert abs(value - expected) <= 1e-13, (cutoff, r)
            checked += 1
    assert checked == 11


@pytest.mark.parametrize("cutoff, rs, bound", [
    (40, (0.3,), 5_000_000),
    (CUTOFF_CAP, (0.0, 0.1, 0.5, 1.0, 1.45), 32_000_000),
])
def test_bogoliubov_check_memory_is_bounded(cutoff, rs, bound):
    # sector by sector: no n^2 x n^2 matrix, whatever the cutoff
    for r in rs:
        tracemalloc.start()
        try:
            residuals = bogoliubov_check(cutoff, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, r
        assert max(residuals.alpha, residuals.beta, residuals.commutator) < 1e-8, r


def test_measure_moments_vacuum():
    # quadrature halves pick up one rounding from the 1/sqrt(2) factors
    table = measure_moments(vacuum_state(6))
    for key, value in table.second.items():
        assert value == pytest.approx(0.5, abs=1e-15), key
    for key, value in table.squeezing.items():
        assert abs(value) < 1e-15, key
    for value in table.first.values():
        assert value == 0.0
    for value in table.products.values():
        assert value == pytest.approx(0.5, abs=1e-15)
    for value in table.cross.values():
        assert value == 0.0
    assert table.max_imag_discarded == 0.0


def dense_moments(state):
    """Every first, second and cross moment as a complex <psi|O|psi> with
    O built from the dense ladder matrices."""
    ops = ladder_operators(state.cutoff)
    psi = state.amplitudes
    modes = {
        "a": ops.a, "b": ops.b,
        "c": (ops.a - ops.b) / math.sqrt(2.0), "d": (ops.a + ops.b) / math.sqrt(2.0),
    }
    first, second = {}, {}
    for mode, low in modes.items():
        up = low.T
        for quad, op in ((f"X_{mode}", (low + up) / math.sqrt(2.0)),
                         (f"Y_{mode}", -1j * (low - up) / math.sqrt(2.0))):
            first[quad] = np.vdot(psi, op @ psi)
            second[quad] = np.vdot(psi, op @ op @ psi)
    cross = {f"n_{mode}": np.vdot(psi, low.T @ low @ psi) for mode, low in modes.items()}
    cross.update(
        ab=np.vdot(psi, ops.a @ ops.b @ psi),
        adag_b=np.vdot(psi, ops.adag @ ops.b @ psi),
        **{f"{mode}2": np.vdot(psi, modes[mode] @ modes[mode] @ psi) for mode in "abcd"},
    )
    return first, second, cross


def test_measure_moments_match_dense_expectations():
    rng = np.random.default_rng(2024)
    states = []
    for cutoff in (2, 3, 6):
        amp = rng.normal(size=cutoff * cutoff) + 1j * rng.normal(size=cutoff * cutoff)
        states.append(TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff))
    # truncated coherent amplitudes in both modes: a displaced state
    levels = np.arange(8)
    weights = np.array([1.0 / math.sqrt(math.factorial(k)) for k in levels])
    displaced = np.outer((0.6 + 0.3j) ** levels * weights, (-0.4j) ** levels * weights)
    states.append(TwoModeState(amplitudes=displaced.reshape(-1) / np.linalg.norm(displaced),
                               cutoff=8))
    for state in states:
        table = measure_moments(state)
        first, second, cross = dense_moments(state)
        assert table.first.keys() == first.keys()
        assert table.cross.keys() == cross.keys()
        for measured, dense in ((table.first, first), (table.second, second),
                                (table.cross, cross)):
            for key, value in dense.items():
                assert abs(measured[key] - value.real) <= 1e-12, key
        for mode in "abcd":
            var_x = (second[f"X_{mode}"] - first[f"X_{mode}"] ** 2).real
            var_y = (second[f"Y_{mode}"] - first[f"Y_{mode}"] ** 2).real
            assert abs(table.squeezing[f"X_{mode}"] - (var_x - 0.5)) <= 1e-12
            assert abs(table.squeezing[f"Y_{mode}"] - (var_y - 0.5)) <= 1e-12
            assert abs(table.products[mode] - math.sqrt(var_x * var_y)) <= 1e-12
        worst_imag = max(abs(value.imag) for values in (first, second, cross)
                         for value in values.values())
        assert worst_imag > 1e-3  # the pair moments of these states are complex
        assert abs(table.max_imag_discarded - worst_imag) <= 1e-12


@st.composite
def supported_states(draw):
    """A normalized state at cutoff 2-16 on a drawn support: one band of
    up to three sectors, two sectors at least two apart, a basis-corner
    Fock state |n-1, 0> or |0, n-1>, or every sector; real or complex,
    with random amplitudes on a random part of that support."""
    cutoff = draw(st.integers(2, 16))
    n_a, n_b = np.divmod(np.arange(cutoff * cutoff), cutoff)
    sector = n_a - n_b
    kind = draw(st.sampled_from(("band", "two bands", "corner", "dense")))
    if kind == "band":
        lo = draw(st.integers(1 - cutoff, cutoff - 1))
        support = (sector >= lo) & (sector <= lo + draw(st.integers(0, 2)))
    elif kind == "two bands":
        first = draw(st.integers(1 - cutoff, cutoff - 3))
        second = draw(st.integers(first + 2, cutoff - 1))
        support = (sector == first) | (sector == second)
    elif kind == "corner":
        corner = draw(st.sampled_from(((cutoff - 1, 0), (0, cutoff - 1))))
        support = (n_a == corner[0]) & (n_b == corner[1])
    else:
        support = np.ones(cutoff * cutoff, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    thinned = support & (rng.random(support.size) < draw(st.floats(0.3, 1.0)))
    if thinned.any():
        support = thinned
    amp = rng.normal(size=support.size)
    if draw(st.booleans()):
        amp = amp + 1j * rng.normal(size=support.size)
    amp = np.where(support, amp, 0.0)
    return TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff)


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(supported_states())
def test_band_moments_match_dense_expectations_on_any_support(state):
    table = measure_moments(state)
    first, second, cross = dense_moments(state)
    for measured, dense in ((table.first, first), (table.second, second),
                            (table.cross, cross)):
        assert list(measured) == list(dense)
        for key, value in dense.items():
            assert abs(measured[key] - value.real) <= 1e-12, key
    for mode in "abcd":
        var_x = (second[f"X_{mode}"] - first[f"X_{mode}"] ** 2).real
        var_y = (second[f"Y_{mode}"] - first[f"Y_{mode}"] ** 2).real
        assert abs(table.squeezing[f"X_{mode}"] - (var_x - 0.5)) <= 1e-12
        assert abs(table.squeezing[f"Y_{mode}"] - (var_y - 0.5)) <= 1e-12
        assert abs(table.products[mode] - math.sqrt(var_x * var_y)) <= 1e-12
    worst_imag = max(abs(value.imag) for values in (first, second, cross)
                     for value in values.values())
    assert abs(table.max_imag_discarded - worst_imag) <= 1e-12


def test_a_negative_variance_product_raises(monkeypatch):
    # a variance below 0 is rounding or a broken combination; math.sqrt
    # refuses the product where np.sqrt would return NaN. Rows 8-15 of
    # the table coefficients are the second moments in QUAD_KEYS order
    coefficients = focksim._TABLE_COEFFICIENTS.copy()
    coefficients[8 + QUAD_KEYS.index("X_a")] *= -1.0
    monkeypatch.setattr(focksim, "_TABLE_COEFFICIENTS", coefficients)
    with pytest.raises(ValueError, match="math domain error"):
        measure_moments(vacuum_state(4))


def test_measure_moments_requires_a_normalized_state():
    # at cutoff 5 (<psi|psi> = 18.4) the table used to come back silently
    # wrong, at 14 (182.3) as a math domain error from the products
    for cutoff in (5, 14):
        amp = np.random.default_rng(0).normal(size=cutoff * cutoff)
        with pytest.raises(ValueError, match="not normalized"):
            measure_moments(TwoModeState(amplitudes=amp, cutoff=cutoff))
        normalized = TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff)
        assert measure_moments(normalized).max_imag_discarded < 1e-15


def test_measure_moments_memory_is_bounded():
    # a loose ceiling of 11 complex grids: the band kernel measures this
    # squeezed vacuum in ~0.2 real grids, ~0.6 when its plan is built
    # inside the window. The tight bound is
    # test_squeezed_vacuum_is_measured_on_its_band_alone's, and the
    # dense complex bound test_dense_complex_state_memory_is_bounded's
    cutoff = 128
    state = squeezed_vacuum(cutoff, 1.0)
    tracemalloc.start()
    try:
        measure_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * cutoff * cutoff * 16


def test_measure_moments_of_a_real_state_takes_real_grids():
    # a real state's five images and its Gram matrix are real, and
    # .conj() of a real array is the array itself. The images cover the
    # band alone, ~3 * cutoff points here, so this squeezed vacuum takes
    # ~0.2 real grids and the ceiling of 7 is loose
    cutoff = 128
    state = squeezed_vacuum(cutoff, 1.0)
    tracemalloc.start()
    try:
        measure_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * cutoff * cutoff * 8


def test_squeezed_vacuum_is_measured_on_its_band_alone():
    # the images cover sectors -1..1 only: below 2 real grids at cutoff
    # 128 (~0.2 measured: the occupancy mask is 1/8 of a grid), plan
    # built inside the window or not
    cutoff = 128
    state = squeezed_vacuum(cutoff, 1.0)
    for cold in (True, False):
        if cold:
            _band_plans.clear()
        gc.collect()
        tracemalloc.start()
        try:
            measure_moments(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * cutoff * cutoff * 8, cold


def test_dense_complex_state_memory_is_bounded():
    # every sector is in the band: five complex images and their
    # conjugate (10 complex grids), the occupied indices and their
    # sectors (~1.5), and a cold plan (5), ~17 measured
    cutoff = 128
    rng = np.random.default_rng(3)
    amp = rng.normal(size=cutoff * cutoff) + 1j * rng.normal(size=cutoff * cutoff)
    state = TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff)
    _band_plans.clear()
    gc.collect()
    tracemalloc.start()
    try:
        measure_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * cutoff * cutoff * 16


def test_plan_memo_memory_is_bounded():
    # 80 bytes per band point: the squeezed vacuum's plans of cutoffs
    # 2-128 take ~2.0 MB and a dense plan at 128 ~1.3 MB, so all of them
    # stay; more dense plans evict the least recently used, and the memo
    # never holds more than _PLAN_MEMO_BYTES (4 MB)
    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    states = [squeezed_vacuum(cutoff, 0.0) for cutoff in range(2, CUTOFF_CAP + 1)]
    rng = np.random.default_rng(4)
    amp = rng.normal(size=CUTOFF_CAP ** 2)
    dense = TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=CUTOFF_CAP)
    cold = [measure_moments(state) for state in (*states[::9], dense)]
    _band_plans.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for state in states:
            measure_moments(state)
        measure_moments(dense)
        walked = retained()
        held = len(_band_plans.plans), _band_plans.size
        for cutoff in range(110, CUTOFF_CAP + 1):
            _band_plans(cutoff, 1 - cutoff, cutoff - 1)
        crowded = retained()
    finally:
        tracemalloc.stop()
    assert held[0] == len(states) + 1
    assert held[1] <= 3_400_000
    assert walked <= _PLAN_MEMO_BYTES
    assert _band_plans.size <= _PLAN_MEMO_BYTES
    assert crowded <= _PLAN_MEMO_BYTES + 100_000
    # a plan rebuilt after eviction gives the same table, bit for bit
    assert [measure_moments(state) for state in (*states[::9], dense)] == cold
    for part in _band_plan(16, -2, 3):
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 1


def test_states_keep_the_dtype_they_are_given():
    real = squeezed_vacuum(24, 0.3)
    assert real.amplitudes.dtype == np.float64
    assert fock_state(5, 1, 2).amplitudes.dtype == np.float64
    assert vacuum_state(5).amplitudes.dtype == np.float64
    assert apply_squeeze_factorized(real, 0.1).amplitudes.dtype == np.float64
    # integers are promoted to float64, not kept
    assert TwoModeState(amplitudes=[1, 0, 0, 0], cutoff=2).amplitudes.dtype == np.float64
    # a complex state stays complex, through the builder too
    complex_state = TwoModeState(amplitudes=real.amplitudes.astype(complex), cutoff=24)
    assert complex_state.amplitudes.dtype == np.complex128
    assert apply_squeeze_factorized(complex_state, 0.1).amplitudes.dtype == np.complex128
    single = np.zeros(4, dtype=np.complex64)
    single[0] = 1.0
    assert TwoModeState(amplitudes=single, cutoff=2).amplitudes.dtype == np.complex128
    # a non-numeric dtype converts to complex128
    boxed = TwoModeState(amplitudes=np.array([1.0, 0.0, 0.0, 0.0], dtype=object), cutoff=2)
    assert boxed.amplitudes.dtype == np.complex128
    assert measure_moments(boxed).second["X_a"] == pytest.approx(0.5, abs=1e-15)


# At cutoff 128 and r = 1.46 the real and complex BLAS kernels add the
# Gram entries' ~128 products in different orders and land up to 6 ulp
# apart (5.3e-15 on entries ~5). The c and d products amplify that ~9
# times: sqrt(var_X * var_Y) with var_X = 0.027 and var_Y = 9.27.
@pytest.mark.parametrize("cutoff, bound", [(5, 1e-15), (24, 1e-15), (128, 1e-13)])
def test_real_and_complex_states_measure_alike(cutoff, bound):
    # the widest squeeze each cutoff holds
    real = squeezed_vacuum(cutoff, gate_edge(cutoff))
    twin = TwoModeState(amplitudes=real.amplitudes.astype(complex), cutoff=cutoff)
    measured, reference = measure_moments(real), measure_moments(twin)
    for section in ("first", "second", "products", "squeezing", "cross"):
        ours, theirs = getattr(measured, section), getattr(reference, section)
        assert list(ours) == list(theirs)
        for key, value in ours.items():
            assert abs(value - theirs[key]) <= bound, (section, key)
    assert measured.max_imag_discarded == 0.0


def test_measure_moments_against_closed_forms():
    for r, cutoff in ((R_REF, 24), (0.3, 40)):
        state = squeezed_vacuum(cutoff, r)
        numeric = measure_moments(state)
        analytic = full_moment_table(r)
        for section in ("first", "second", "products", "squeezing", "cross"):
            assert list(getattr(numeric, section)) == list(getattr(analytic, section))
        deviation = table_deviation(analytic, numeric)
        assert deviation < 1e-9
        assert numeric.max_imag_discarded < 1e-12
    # the reference device squeeze shows up in the mixed quadrature
    state = squeezed_vacuum(24, R_REF)
    squeezing = measure_moments(state).squeezing
    assert squeezing["X_c"] == pytest.approx(-0.0475, abs=5e-4)
    assert squeezing["Y_c"] == pytest.approx(0.0525, abs=5e-4)


def test_herald_on_squeezed_vacuum_is_diagonal():
    state = squeezed_vacuum(20, 0.3)
    for n in (0, 1, 2):
        result = herald(state, n)
        expected = np.zeros(20)
        expected[n] = 1.0
        assert np.array_equal(result.distribution, expected)
        assert result.probability == pytest.approx(
            pair_probability(0.3, n), rel=1e-10)


def test_herald_on_product_state():
    state = fock_state(6, 2, 0)
    result = herald(state, 2)
    assert result.probability == 1.0
    assert np.array_equal(result.distribution,
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroProbability):
        herald(state, 1)
    with pytest.raises(ValueError):
        herald(state, 25)


def test_choose_cutoff():
    assert choose_cutoff(0.0) == 2
    assert choose_cutoff(0.5) == 18
    assert choose_cutoff(1.0) == 51
    assert choose_cutoff(0.8) < choose_cutoff(1.0)
    assert pair_tail(0.5, 18) < 1e-12 < pair_tail(0.5, 17)
    with pytest.raises(CutoffTooSmall):
        choose_cutoff(2.0)
    # the top kept level's flux, n * pair_tail(r, n - 1), is bounded too
    assert choose_cutoff(1e-4) == 2
    assert choose_cutoff(1e-4, flux_tol=1e-8) == 3
    assert choose_cutoff(0.5, flux_tol=1e-8) == 18
    with pytest.raises(CutoffTooSmall):
        choose_cutoff(1.4, flux_tol=1e-30)
    # tanh(20) == 1.0 in doubles: refused before log(t) = 0 divides
    with pytest.raises(CutoffTooSmall, match="tanh\\(r\\) rounds to 1"):
        choose_cutoff(20.0)


def test_state_validation_and_accessors():
    with pytest.raises(ValueError):
        TwoModeState(amplitudes=np.zeros(5), cutoff=3)
    state = fock_state(3, 1, 2)
    assert state.probability(1, 2) == 1.0
    # as herald and fock_state do: no wrap-around from the far end, no IndexError
    vacuum = squeezed_vacuum(30, 0.3)
    for n_a, n_b in ((-1, -1), (30, 30), (0, -1), (30, 0)):
        with pytest.raises(ValueError, match="outside the truncated basis"):
            vacuum.probability(n_a, n_b)
    assert state.grid()[1, 2] == 1.0 + 0j


def test_occupation_is_an_int_in_the_basis():
    # probability, herald and fock_state share one check: a bool, a
    # float or a level past the edge is refused by name, not read as
    # row 1, a numpy IndexError or the whole joint distribution
    state = squeezed_vacuum(30, 0.3)
    refused = (lambda n: state.probability(n, 0), lambda n: state.probability(0, n),
               lambda n: herald(state, n), lambda n: fock_state(30, n, 0),
               lambda n: fock_state(30, 0, n))
    for n in (True, False, 1.0, 1.5, np.float64(1.0), -1, 30, None, "1"):
        for call in refused:
            with pytest.raises(ValueError, match="outside the truncated basis"):
                call(n)
    # numpy ints are ints
    level = np.int64(2)
    assert state.probability(level, level) == state.probability(2, 2)
    assert np.array_equal(herald(state, level).distribution, herald(state, 2).distribution)
    assert np.array_equal(fock_state(30, level, np.int32(1)).amplitudes,
                          fock_state(30, 2, 1).amplitudes)
