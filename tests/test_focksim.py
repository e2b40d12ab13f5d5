"""Truncated Fock-space oracle tests."""

import contextlib
import gc
import math
import operator
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    diagonal_moments,
    fock_state,
    herald,
    measure_moments,
    squeeze_operator,
    squeezed_vacuum,
    vacuum_column,
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
    _column_kernel,
    _sector_block,
    _sector_images,
    _sector_index,
    _series_admits,
    _series_column,
    _svd_column,
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
    # each sector's five images are the dense ladder products on the
    # sector's points, and over the band the state occupies, widened by
    # one on each side, the products are zero off those points: on a
    # dense state (every sector) and on one occupying sectors 1..2 alone
    ops = ladder_operators(6)
    rng = np.random.default_rng(5)
    dense = rng.normal(size=36) + 1j * rng.normal(size=36)
    n_a, n_b = np.divmod(np.arange(36), 6)
    banded = np.where((n_a - n_b >= 1) & (n_a - n_b <= 2), dense, 0.0)
    for amp, lo, hi in ((dense, -5, 5), (banded, 1, 2)):
        walked = []
        for m in range(max(lo - 1, -5), min(hi + 1, 5) + 1):
            points = _sector_index(6, m)
            walked.extend(points)
            images = _sector_images(amp, 6, m)
            assert images.dtype == amp.dtype
            for image, op in zip(images, (np.eye(36), ops.a, ops.b, ops.adag, ops.bdag)):
                assert np.array_equal(image, (op @ amp)[points])
        sector = n_a - n_b
        assert np.array_equal(np.sort(walked),
                              np.flatnonzero((sector >= lo - 1) & (sector <= hi + 1)))
        for op in (np.eye(36), ops.a, ops.b, ops.adag, ops.bdag):
            assert not np.delete(op @ amp, walked).any()


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
    # cold: the column kernel is built for this call; warm: it was left
    # by a column at another r, after a sector walk at the same cutoff
    cutoff, r = 40, 0.7
    _column_kernel.cache_clear()
    cold_column = vacuum_column(cutoff, r)
    _column_kernel.cache_clear()
    cold_state = squeezed_vacuum(cutoff, r).amplitudes
    cold_block = _sector_block(r, 40, 3)
    bogoliubov_check(cutoff, 0.2)
    vacuum_column(cutoff, 0.5)  # the sector SVD's kernel: 0.5 (2 cutoff - 3) > 1
    warm_column = vacuum_column(cutoff, r)
    warm_state = squeezed_vacuum(cutoff, r).amplitudes
    warm_block = _sector_block(r, 40, 3)
    assert list(map(float.hex, cold_column)) == list(map(float.hex, warm_column))
    assert np.array_equal(cold_state, warm_state)
    assert np.array_equal(cold_block, warm_block)


def test_only_the_column_kernel_keeps_a_sector_svd(monkeypatch):
    # a column at a cutoff whose kernel is memoized takes no SVD, at any
    # r; the block builders take one per sector they build on every call
    # and leave the kernel memo as it was
    taken = []
    svd = np.linalg.svd

    def counted(block):
        taken.append(block.shape)
        return svd(block)

    def svds(call, *args):
        before = len(taken)
        result = call(*args)
        return len(taken) - before, result

    monkeypatch.setattr(np.linalg, "svd", counted)
    _column_kernel.cache_clear()
    cutoff = 40
    assert svds(vacuum_column, cutoff, 0.5)[0] == 1
    for r in (0.5, -0.02, -0.5 * gate_edge(cutoff), gate_edge(cutoff)):
        assert not _series_admits(cutoff, r)
        assert svds(vacuum_column, cutoff, r)[0] == 0, r
    kept = _column_kernel.cache_info()
    for _ in range(2):
        for n, r in ((40, 0.3), (2, 0.0), (CUTOFF_CAP, 1.0)):
            count, residuals = svds(bogoliubov_check, n, r)
            assert count == 2 * min(residuals.block, n - 1) + 1, (n, r)
        for n, r in ((7, 0.05), (40, 0.5)):
            assert svds(squeeze_operator, n, r)[0] == 2 * n - 1, (n, r)
    assert _column_kernel.cache_info() == kept


def test_column_kernel_memo_memory_is_bounded():
    # one read-only kernel per allowed cutoff, ~cutoff**2 / 2 floats each:
    # all 127 at once retain ~3.0 MB, and no block builder between them
    # leaves a sector spectrum behind. numpy, whose import alone retains
    # ~7 MB, is loaded and its SVD run once before tracing starts
    np.linalg.svd(np.eye(2))
    _column_kernel.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for cutoff in range(2, CUTOFF_CAP + 1):
            _svd_column(cutoff, 1.0)
            if cutoff >= 120:
                bogoliubov_check(cutoff, 1.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _column_kernel.cache_info().currsize == CUTOFF_CAP - 1
    assert held <= 3_500_000
    for cutoff in range(2, CUTOFF_CAP + 1):
        for part in _column_kernel(cutoff):
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
    # refuses the product where np.sqrt would return NaN, on both measure
    # paths. Rows 8-15 of the forms are the second moments in QUAD_KEYS order
    row = 8 + QUAD_KEYS.index("X_a")
    coefficients = focksim._table_coefficients().copy()
    coefficients[row] *= -1.0
    monkeypatch.setattr(focksim, "_table_coefficients", lambda: coefficients)
    with pytest.raises(ValueError, match="math domain error"):
        measure_moments(vacuum_state(4))
    # diagonal_moments evaluates each distinct collapsed row of
    # _diagonal_forms once and expands the values; X_a shares its row with
    # Y_a, so the negated row is appended and the expansion reads it for
    # X_a alone
    forms, expand = focksim._diagonal_forms()
    rows = list(expand(range(len(forms))))
    forms = (*forms, tuple(-value for value in forms[rows[row]]))
    rows[row] = len(forms) - 1
    monkeypatch.setattr(focksim, "_diagonal_forms",
                        lambda: (forms, operator.itemgetter(*rows)))
    with pytest.raises(ValueError, match="math domain error"):
        diagonal_moments([1.0, 0.0, 0.0, 0.0])


def test_measure_moments_requires_a_normalized_state():
    # at cutoff 5 (<psi|psi> = 18.4) the table used to come back silently
    # wrong, at 14 (182.3) as a math domain error from the products
    for cutoff in (5, 14):
        amp = np.random.default_rng(0).normal(size=cutoff * cutoff)
        with pytest.raises(ValueError, match="not normalized"):
            measure_moments(TwoModeState(amplitudes=amp, cutoff=cutoff))
        normalized = TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff)
        assert measure_moments(normalized).max_imag_discarded < 1e-15
    # an all-zero state occupies no sector: the walk is empty, and the
    # norm check, not a reduction over no sectors, refuses it
    for cutoff in (2, CUTOFF_CAP):
        for dtype in (float, complex):
            zero = TwoModeState(amplitudes=np.zeros(cutoff * cutoff, dtype=dtype),
                                cutoff=cutoff)
            with pytest.raises(ValueError, match="not normalized"):
                measure_moments(zero)


def test_measure_moments_memory_is_bounded():
    # a loose ceiling of 11 complex grids: the sector walk measures this
    # squeezed vacuum in ~0.27 real grids. The tight bound is
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
    # .conj() of a real array is the array itself. The images cover one
    # sector at a time, at most cutoff points, so this squeezed vacuum
    # takes ~0.27 real grids and the ceiling of 7 is loose
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
    # the walk covers sectors -1..1 only: below 2 real grids at cutoff
    # 128 (~0.27 measured: the occupied indices are cutoff entries, and
    # each sector's images and their read indices a few times cutoff)
    cutoff = 128
    state = squeezed_vacuum(cutoff, 1.0)
    gc.collect()
    tracemalloc.start()
    try:
        measure_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cutoff * cutoff * 8


def test_dense_complex_state_memory_is_bounded():
    # every sector is walked, one at a time, and no sector's images
    # outlive it, so the peak is finding the band: the occupied indices,
    # their rows and columns and their sectors, four int64 arrays of a
    # real grid each: 2.0 complex grids measured
    cutoff = 128
    rng = np.random.default_rng(3)
    amp = rng.normal(size=cutoff * cutoff) + 1j * rng.normal(size=cutoff * cutoff)
    state = TwoModeState(amplitudes=amp / np.linalg.norm(amp), cutoff=cutoff)
    gc.collect()
    tracemalloc.start()
    try:
        measure_moments(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * cutoff * cutoff * 16, peak


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


@pytest.mark.parametrize("cutoff, bound", [(5, 1e-15), (24, 1e-15), (128, 1e-15)])
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


# unit roundoff of float64
UNIT = 2.0 ** -53


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), the relative error of n roundings."""
    return n * UNIT / (1.0 - n * UNIT)


def series_error(cutoff, r):
    """Bound on |_series_column(cutoff, r) - exp(r K0) e_0| in every level,
    from the term count J and theta = ||r K0||_inf <= 1.

    Truncation: the dropped terms (r K0)^j e_0 / j!, j > J, sum to at
    most theta^(J+1)/(J+1)! (J+2)/(J+2-theta). Rounding: each of a
    level's at most J/2 + 1 terms p_j r^j carries one rounding of its
    exact coefficient, up to J - 1 in r^j and one in the product, and
    their sum J/2 more, so the level is off by at most gamma_(3J/2+1)
    sum_j |p_j| |r|^j, and that sum is a level of exp(|r| |K0|) e_0,
    whose inf-norm is e^theta (|K0| has K0's row sums).
    """
    terms = focksim.SERIES_TERMS
    theta = abs(r) * (2 * cutoff - 3)
    assert theta <= 1.0
    tail = (theta ** (terms + 1) / math.factorial(terms + 1)
            * (terms + 2) / (terms + 2 - theta))
    return tail + gamma(terms + terms // 2 + 1) * math.exp(theta)


def svd_error(cutoff, r):
    """Bound on |_svd_column(cutoff, r) - exp(r K0) e_0| in every level,
    in the standard model with LAPACK's p(N) = N: the SVD of the
    sector's bidiagonal block B0 is exact for B0 + E with ||E|| <= N u
    ||B0||, and its U and W are orthogonal to N u.

    E moves the column by at most ||r E|| <= N u theta (exp of a skew
    generator is orthogonal); U and W's departure from orthogonality,
    under |1 - cos| <= 2 and |sin| <= 1, by 2 N u; and forming the two
    products, sums of at most N terms whose magnitudes add up to at most
    2 over unit rows (Cauchy-Schwarz), with the sines' few roundings, by
    2 gamma_(N+3).
    """
    theta = abs(r) * (2 * cutoff - 3)
    return cutoff * UNIT * (theta + 2.0) + 2.0 * gamma(cutoff + 3)


def moment_error(cutoff, column_error, spread):
    """Bound on how far a moment of two columns within column_error of
    each other (in every level) can part, for a form whose 25 Gram
    coefficients have absolute sum spread.

    A column difference delta has ||delta||_2 <= sqrt(N) column_error
    =: d; every image is a truncated ladder of norm at most sqrt(N - 1)
    applied to a unit column, so a Gram entry moves by at most (N - 1)
    (2 + d) d, and each side forms it with at most N + 30 roundings: N
    for the sum over levels, a few for its weights and 25 for the form.
    """
    d = math.sqrt(cutoff) * column_error
    return spread * max(cutoff - 1, 1) * ((2.0 + d) * d + 2.0 * gamma(cutoff + 30))


def widest_series_r(cutoff):
    """The largest r that both _series_admits and the tail gate admit."""
    r = min(1.0 / (2 * cutoff - 3), gate_edge(cutoff))
    while not _series_admits(cutoff, r):
        r = math.nextafter(r, 0.0)
    return r


def taylor_terms(theta):
    """The fewest terms J of exp's Taylor series whose remainder, at most
    theta^(J+1) / (J+1)! * (J+2) / (J+2 - theta) for J + 2 > theta, is
    below 1e-40: the bound of series_error, taken in logarithms."""
    terms = max(1, math.floor(theta))
    while theta and ((terms + 1) * math.log(theta) - math.lgamma(terms + 2)
                     + math.log((terms + 2) / (terms + 2 - theta)) > math.log(1e-40)):
        terms += 1
    return terms


def exact_vacuum_column(cutoff, r):
    """exp(r K0) e_0 in rational arithmetic, to within 1e-40 in every
    level: its Taylor series to taylor_terms(|r| (2 cutoff - 3)) terms,
    on the truncated K0, summed exactly.

    Horner's rule, W_J = e_0 and W_j = e_0 + r / (j + 1) K0 W_(j+1), is
    carried on integer vectors X_j over one denominator D_j: with r =
    p / q, D_j = q (j + 1) D_(j+1) and X_j = D_j e_0 + p K0 X_(j+1), so
    every step is integer products and sums and no fraction is reduced
    before the end.
    """
    p, q = Fraction(r).as_integer_ratio()
    x, d = [1] + [0] * cutoff, 1  # the trailing 0 is read as level cutoff
    for j in reversed(range(taylor_terms(abs(r) * (2 * cutoff - 3)))):
        # (K0 x)_k = k x_(k-1) - (k + 1) x_(k+1); x[-1] is the trailing 0
        d *= q * (j + 1)
        x = [p * (k * x[k - 1] - (k + 1) * x[k + 1]) for k in range(cutoff)] + [0]
        x[0] += d
    return [Fraction(value, d) for value in x[:cutoff]]


@pytest.mark.parametrize("cutoff", [2, 3, 5, 12, 40, 128])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_vacuum_series_is_within_its_bound_of_exact_arithmetic(cutoff, sign):
    # at the widest r the rule admits, where the bound is loosest
    r = sign * widest_series_r(cutoff)
    column = _series_column(cutoff, r)
    exact = exact_vacuum_column(cutoff, r)
    assert len(column) == cutoff
    assert all(type(value) is float for value in column)
    assert max(abs(Fraction(c) - e) for c, e in zip(column, exact)) <= series_error(cutoff, r)


@pytest.mark.parametrize("cutoff", [12, 40, 128])
@pytest.mark.parametrize("share", [-0.5, 1.0])
def test_svd_column_is_within_its_bound_of_exact_arithmetic(cutoff, share):
    # up to the largest r the tail gate admits, where the bound is loosest
    r = share * gate_edge(cutoff)
    assert not _series_admits(cutoff, r)
    column = _svd_column(cutoff, r)
    exact = exact_vacuum_column(cutoff, r)
    assert len(column) == cutoff
    assert all(type(value) is float for value in column)
    assert max(abs(Fraction(c) - e) for c, e in zip(column, exact)) <= svd_error(cutoff, r)


def test_svd_column_is_column_zero_of_the_sector_block():
    # the kernel forms column 0 of the n_a = n_b block without the block
    for cutoff in range(2, CUTOFF_CAP + 1):
        for r in (gate_edge(cutoff), -0.5 * gate_edge(cutoff)):
            column = _svd_column(cutoff, r)
            block = _sector_block(r, cutoff, 0)
            assert len(column) == cutoff, (cutoff, r)
            assert np.max(np.abs(np.array(column) - block[:, 0])) <= 1e-14, (cutoff, r)


@st.composite
def series_points(draw):
    """(cutoff, r) that _series_admits and the tail gate both admit."""
    cutoff = draw(st.integers(2, CUTOFF_CAP))
    limit = widest_series_r(cutoff)
    r = draw(st.floats(-limit, limit))
    assume(_series_admits(cutoff, r))
    return cutoff, r


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(series_points())
def test_vacuum_series_agrees_with_the_sector_svd(point):
    # the two kernels of vacuum_column, at points where it takes the series
    cutoff, r = point
    column, svd_column = _series_column(cutoff, r), _svd_column(cutoff, r)
    state = TwoModeState(np.diag(svd_column).reshape(-1), cutoff)
    apart = series_error(cutoff, r) + svd_error(cutoff, r)
    assert np.abs(np.array(column) - svd_column).max() <= apart

    series, svd = diagonal_moments(column), measure_moments(state)
    # one bound per form, its spread read off the forms both paths share
    spreads = [sum(map(abs, row)) for row in focksim._table_forms()]
    assert_tables_within(series, svd, [moment_error(cutoff, apart, spread)
                                       for spread in spreads])


def assert_tables_within(got, want, bounds):
    """Every entry of the real tables got and want within its bound:
    bounds[i] for form i of _table_forms (first moments, second moments,
    then cross moments), and the squeezing and product entries within
    what those second moments' bounds propagate to, plus their own
    roundings."""
    assert got.max_imag_discarded == want.max_imag_discarded == 0.0
    names = ([("first", q) for q in QUAD_KEYS] + [("second", q) for q in QUAD_KEYS]
             + [("cross", key) for key in want.cross])
    for (section, key), bound in zip(names, bounds, strict=True):
        assert abs(getattr(got, section)[key] - getattr(want, section)[key]) <= bound, \
            (section, key)
    # both first moments vanish exactly, so a squeezing entry moves with
    # its second moment, up to one rounding of the - 1/2 on each side
    for i, quad in enumerate(QUAD_KEYS):
        assert got.first[quad] == want.first[quad] == 0.0
        moved = bounds[8 + i] + 2.0 * UNIT * (want.second[quad] + 0.5)
        assert abs(got.squeezing[quad] - want.squeezing[quad]) <= moved, quad
    # a product sqrt(x y) moves by (sqrt(y/x) dx + sqrt(x/y) dy) / 2,
    # and two roundings on each side
    for m, mode in enumerate("abcd"):
        x, y = (want.squeezing[quad] + 0.5 for quad in QUAD_KEYS[2 * m:2 * m + 2])
        dx, dy = (bounds[8 + 2 * m] + 2.0 * UNIT, bounds[9 + 2 * m] + 2.0 * UNIT)
        moved = (math.sqrt(y / x) * dx + math.sqrt(x / y) * dy) / 2.0
        moved += 4.0 * UNIT * want.products[mode]
        assert abs(got.products[mode] - want.products[mode]) <= moved, mode


def diagonal_measure_error(column):
    """Bound on how far diagonal_moments(column) and measure_moments of
    the state sum_k column[k] |k, k> can part, form by form, from the
    summation lengths alone: both read the same four Gram sums of
    _DIAGONAL_GRAM, every other Gram entry is an exact 0 on both sides.

    diagonal_moments forms a sum's N terms with at most two roundings
    each and adds them up: within gamma_(N+1) of its absolute sum A.
    measure_moments gathers both images with rounded sqrt weights (two
    roundings an image entry), multiplies them (one) and sums the points
    of one sector, then the band's sectors, 3N - 2 points at most:
    within gamma_(3N+2) A. Each form then adds its
    coefficients times the sums, up to 25 terms on one side and 4
    collapsed coefficients of up to 4 terms on the other: gamma_26 and
    gamma_8 of sum |coefficient| A, the rounded sums' own growth taken
    into the next index of each gamma.
    """
    n = len(column)
    levels = range(1, n)
    absolute = (sum(c * c for c in column),
                sum(k * c * c for k, c in zip(levels, column[1:])),
                sum(k * c * c for k, c in zip(levels, column)),
                sum(k * abs(c * d) for k, c, d in zip(levels, column, column[1:])))
    rate = gamma(n + 2) + gamma(3 * n + 3) + gamma(27) + gamma(9)
    return [rate * sum(abs(row[5 * i + j]) * total
                       for entries, total in zip(focksim._DIAGONAL_GRAM, absolute)
                       for i, j in entries)
            for row in focksim._table_forms()]


@st.composite
def svd_points(draw):
    """(cutoff, r) that the tail gate admits and _series_admits refuses,
    where vacuum_column takes the sector SVD; cutoffs 7-128 have them."""
    cutoff = draw(st.integers(2, CUTOFF_CAP))
    low, high = math.nextafter(1.0 / (2 * cutoff - 3), 2.0), gate_edge(cutoff)
    assume(low <= high)
    r = draw(st.floats(low, high)) * draw(st.sampled_from((1.0, -1.0)))
    assume(not _series_admits(cutoff, r))
    return cutoff, r


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(svd_points())
def test_the_diagonal_measure_agrees_with_the_state_measure(point):
    # a run's oracle measures vacuum_column with diagonal_moments; the
    # library's general builder and measurer are its reference
    cutoff, r = point
    column = vacuum_column(cutoff, r)
    state = squeezed_vacuum(cutoff, r)
    assert all(type(value) is float for value in column)
    assert column == state.grid().diagonal().tolist()
    # run's pair weights c * c, one rounding from the exact square, and
    # the state's abs(c) ** 2, which libm's pow takes to within one ulp
    for k, c in enumerate(column[:6]):
        weight = state.probability(k, k)
        assert abs(c * c - weight) <= 3.0 * UNIT * weight, k
    assert_tables_within(diagonal_moments(column), measure_moments(state),
                         diagonal_measure_error(column))


def test_series_admits_exactly_the_unit_generator_norm():
    # ||r K0||_inf = |r| (2 cutoff - 3), the row n = cutoff - 2 summing
    # n + (n + 1); it is 1 at cutoff 2 for every |r| <= 1
    for cutoff in (2, 3, 5, 12, 128):
        generator = np.zeros((cutoff, cutoff))
        for k in range(cutoff - 1):
            generator[k + 1, k], generator[k, k + 1] = k + 1, -(k + 1)
        assert np.abs(generator).sum(axis=1).max() == 2 * cutoff - 3
        assert _series_admits(cutoff, 1.0 / (2 * cutoff - 3))
        assert _series_admits(cutoff, -1.0 / (2 * cutoff - 3))
        assert not _series_admits(cutoff, (1.0 + 1e-12) / (2 * cutoff - 3))
    assert _series_admits(5, 0.0) and not _series_admits(5, math.nan)


def test_vacuum_column_gates_its_inputs_before_either_kernel(monkeypatch):
    # the kernels gate nothing: vacuum_column refuses before it reaches
    # either, where the series rule admits (3, 0.1) as where it sends
    # (7, 0.5) and both NaNs to the SVD
    def unreachable(cutoff, r):
        raise AssertionError(f"kernel reached at cutoff {cutoff!r}, r = {r!r}")

    for kernel in ("_series_column", "_svd_column"):
        monkeypatch.setattr(focksim, kernel, unreachable)
    for cutoff, r, error, message in ((1, 0.0, ValueError, "cutoff"),
                                      (129, 0.0, ValueError, "cutoff"),
                                      (3, 0.1, CutoffTooSmall, "tail mass"),  # tail 1e-6
                                      (7, 0.5, CutoffTooSmall, "tail mass"),
                                      (5, math.nan, ValueError, "not a number"),
                                      (40, math.nan, ValueError, "not a number")):
        with pytest.raises(error, match=message):
            vacuum_column(cutoff, r)
    monkeypatch.undo()
    assert vacuum_column(4, 0.0) == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("cutoff, r", [(5, R_REF), (30, 0.3)])
def test_squeezed_vacuum_scatters_the_one_vacuum_column(cutoff, r):
    # bit for bit, at the reference device's series point and at an SVD
    # point: |r| (2 cutoff - 3) is 0.35 and 17.1
    column = vacuum_column(cutoff, r)
    state = squeezed_vacuum(cutoff, r)
    assert state.grid().diagonal().tolist() == column
    assert np.array_equal(state.grid(), np.diag(column))


def test_vacuum_column_refuses_what_squeezed_vacuum_refuses():
    # with the same error on either path: the series rule admits (3, 0.1),
    # whose tail is 1e-6, and sends (7, 0.5) and both NaNs to the SVD
    for cutoff, r in ((1, 0.0), (129, 0.0), (True, 0.0), (3, 0.1), (7, 0.5),
                      (5, math.nan), (40, math.nan)):
        with pytest.raises((ValueError, CutoffTooSmall)) as refused:
            squeezed_vacuum(cutoff, r)
        with pytest.raises(refused.type) as same:
            vacuum_column(cutoff, r)
        assert str(same.value) == str(refused.value)
    assert vacuum_column(4, 0.0) == [1.0, 0.0, 0.0, 0.0]


def test_diagonal_moments_requires_a_normalized_column():
    for column in ([1.0, 0.5], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            diagonal_moments(column)
    vacuum = diagonal_moments([1.0, 0.0, 0.0])
    assert vacuum == measure_moments(vacuum_state(3))


def test_distinct_diagonal_forms_give_every_entry_bit_for_bit():
    # diagonal_moments evaluates the 9 distinct rows of _diagonal_forms and
    # expands them to the 26 table entries; forming every row, the
    # reference, collapsed here from _table_forms itself, gives the same
    # bits at each cutoff that oracle runs reach with f/omega_bar in
    # (0, 0.95) and (0.95, 0.999), the benchmark's oracle ramp
    every_row = []
    for row in focksim._table_forms():
        collapsed = [complex(sum(row[5 * i + j] for i, j in entries))
                     for entries in focksim._DIAGONAL_GRAM]
        assert all(value.imag == 0.0 for value in collapsed)
        every_row.append(tuple(value.real + 0.0 for value in collapsed))
    forms, expand = focksim._diagonal_forms()
    assert len(set(forms)) == len(forms) == 9
    assert expand(forms) == tuple(every_row)
    cutoffs = {}
    for low, high, count in ((0.0, 0.95, 140), (0.95, 0.999, 60)):
        for i in range(count):
            r = 0.5 * math.atanh(low + (i + 0.5) * (high - low) / count)
            with contextlib.suppress(CutoffTooSmall):
                cutoffs.setdefault(choose_cutoff(r, flux_tol=1e-8), r)
    assert len(cutoffs) == 78 and min(cutoffs) == 3 and max(cutoffs) == 123
    for cutoff, r in cutoffs.items():
        column = vacuum_column(cutoff, r)
        squares = [c * c for c in column]
        levels = [float(k) for k in range(1, cutoff)]
        norm2 = sum(squares)
        lowered = sum(k * s for k, s in zip(levels, squares[1:]))
        raised = sum(k * s for k, s in zip(levels, squares))
        paired = sum(k * (c * d) for k, c, d in zip(levels, column, column[1:]))
        every = [a * norm2 + b * lowered + c * raised + d * paired
                 for a, b, c, d in every_row]
        reference = focksim._moment_table(norm2, every, 0.0)
        assert ([value.hex() for value in diagonal_moments(column).values]
                == [value.hex() for value in reference.values]), cutoff


def test_diagonal_moments_takes_a_column_the_cutoff_gate_admits():
    # the column's length is its basis size: 2 to CUTOFF_CAP levels, as
    # every other builder's cutoff
    for size in (1, CUTOFF_CAP + 1):
        with pytest.raises(ValueError, match="cutoff"):
            diagonal_moments([1.0] + [0.0] * (size - 1))
    for size in (2, CUTOFF_CAP):
        column = [1.0] + [0.0] * (size - 1)
        assert diagonal_moments(column) == measure_moments(vacuum_state(size))


def test_series_tables_do_not_grow_with_the_cutoff():
    # the series table depends on the level count alone, at most
    # SERIES_TERMS + 1, so a walk over every cutoff leaves at most 18
    # tables; the diagonal measure reads one constant level tuple
    def retained():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    focksim._diagonal_forms()  # the moment forms, built once for any cutoff
    focksim._series_coefficients.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = retained()
        for cutoff in range(2, CUTOFF_CAP + 1):
            diagonal_moments(vacuum_column(cutoff, 0.0))
        grown = retained() - before
    finally:
        tracemalloc.stop()
    assert focksim._series_coefficients.cache_info().currsize <= 18
    assert grown <= 100_000


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



def test_states_compare_by_cutoff_and_amplitudes():
    # one truth value per comparison, from np.array_equal, not an
    # elementwise array; a real state equals its complex twin
    state = TwoModeState(np.eye(4)[0], 2)
    assert state == TwoModeState(np.eye(4)[0], 2)
    assert not state != TwoModeState(np.eye(4)[0], 2)
    assert state != TwoModeState(np.eye(4)[1], 2)
    assert not state == TwoModeState(np.eye(4)[1], 2)
    assert state != TwoModeState(np.eye(9)[0], 3)
    twin = TwoModeState(np.eye(4)[0].astype(complex), 2)
    assert twin.amplitudes.dtype == complex and state == twin
    # the amplitudes are an array, so a state is not hashable; it still
    # refuses assignment
    with pytest.raises(TypeError, match="unhashable"):
        hash(state)
    with pytest.raises(AttributeError, match="cannot assign"):
        state.cutoff = 3


def test_a_state_owns_read_only_amplitudes():
    # a write to the array a state was built from does not reach it, nor
    # its copies, and its own amplitudes refuse writes, whatever the dtype
    for dtype in (float, complex, np.float32):
        given_amplitudes = np.eye(4, dtype=dtype)[0]
        state = TwoModeState(given_amplitudes, 2)
        copy = state.replace()
        given_amplitudes[0] = 0.5
        assert state.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert state == copy and state.amplitudes is not copy.amplitudes
        for array in (state.amplitudes, copy.amplitudes, state.grid()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5


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
