"""Truncated two-mode Fock-space oracle.

Everything the closed forms in this package predict can be cross-checked
here by building states and operators in a finite photon-phonon number
basis and measuring them with no analytic shortcuts: every expectation
value is <psi|O|psi> with O applied to the state vector.

Every builder takes the cutoff, the number of levels per mode, and a
TwoModeState carries it; require_cutoff, the one gate for it, caps it at
CUTOFF_CAP. Basis ordering is row major over (n_a, n_b) with the phonon
index n_b fastest: index = n_a * cutoff + n_b. Truncation artifacts
concentrate near the edge n ~ cutoff, so operator identities are checked
on the low-occupation block n_a, n_b < cutoff/2; the closed-form tail
mass tanh(r)^(2*cutoff) bounds how much of the squeezed vacuum the basis
cannot hold.

A TwoModeState keeps the dtype of its amplitudes, promoted to at least
float64. The builders make real states, since the squeezed vacuum's
amplitudes are real, and everything downstream follows the state's
dtype: a real state is squeezed and measured in real arithmetic, a
complex one in complex arithmetic, on one code path.

measure_moments walks the band of sectors n_a - n_b a state occupies,
widened by one on each side, since every ladder operator moves a
sector by exactly one, and sums its Gram matrix one sector at a time:
the squeezed vacuum, on the n_a = n_b diagonal, is measured on three
sectors, about 3 * cutoff points instead of cutoff**2, and no sector
takes more than O(cutoff) memory.

vacuum_column is the one builder of the squeezed vacuum's n_a = n_b
column, as a list; squeezed_vacuum scatters it into a state. A run's
oracle measures the column alone with diagonal_moments, through the
same moment forms as measure_moments, in O(cutoff) time and memory;
squeezed_vacuum and measure_moments are the reference for that path.

numpy is imported at the first call that needs an array (_load_numpy),
not with this module. choose_cutoff and diagonal_moments run in pure
Python, and so does vacuum_column where ||r K0||_inf = |r| (2 cutoff -
3) <= 1: there it takes the column from the Taylor series of
exp(r K0)|0, 0>, exact to rounding, and loads no numpy; elsewhere it
takes the column from the sector SVD, through an r-free kernel built
from it once per cutoff, at its first use, so that a column costs one
np.sin, an in-place square and one matrix product. That kernel is the
one per-cutoff array focksim keeps across calls; a sector spectrum is
taken anew for each block that reads it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from typing import Any, Callable, NamedTuple, Sequence

from ._record import FrozenRecord, set_field
from .errors import CutoffTooSmall, ZeroProbability, require_number
from .squeezing import CROSS_KEYS, QUAD_KEYS, MomentTable, pair_tail

# A basis of cutoff levels per mode has cutoff**2 states. A dense
# operator on it costs 8 * cutoff**4 bytes, 2.1 GB at CUTOFF_CAP, so the
# one dense builder, squeeze_operator, stops at DENSE_CAP, ~42 MB per
# matrix; everything else works sector by sector or on state vectors.
CUTOFF_CAP = 128
DENSE_CAP = 48
TAIL_TOL = 1e-12
EDGE_TOL = 1e-10
NORM_TOL = 1e-10
SQRT2 = math.sqrt(2.0)
# Taylor terms of _series_column, enough for the widest norm it is used
# at, ||r K0||_inf = 1: the tail sum_{j > 18} 1/j! < (1/19!) (20/19) < 1e-17
SERIES_TERMS = 18


def _load_numpy() -> Any:
    """numpy, imported at the first call that needs an array and bound to
    this module's np, so later calls find it there directly."""
    global np
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        # numpy loads OpenBLAS with one thread (see the package docstring),
        # which reads this once, at load. Racing first calls each set it and
        # del it after their import, so it ends unset; a del may find it
        # gone, and os.environ.pop would not help: it reads, then dels.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            with contextlib.suppress(KeyError):
                del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy
    np = numpy
    return numpy


class _NumpyOnFirstUse:
    """Stands in for numpy in this module until one of its names is read."""

    def __getattr__(self, name: str) -> Any:
        return getattr(_load_numpy(), name)


np = _NumpyOnFirstUse()


def require_cutoff(cutoff: int) -> None:
    """The one cutoff gate: ValueError unless cutoff is an int in
    [2, CUTOFF_CAP]."""
    if type(cutoff) is not int or not 2 <= cutoff <= CUTOFF_CAP:
        raise ValueError(f"cutoff: expected an integer in [2, {CUTOFF_CAP}]")


def _require_occupation(cutoff: int, *levels: int) -> None:
    # a bool is an int to Python and a float reaches numpy's indexing
    # as an IndexError, so both are refused here
    for n in levels:
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not 0 <= n < cutoff):
            raise ValueError(f"occupation {n!r} outside the truncated basis: "
                             f"expected an int in [0, {cutoff})")


class TwoModeState(FrozenRecord):
    """State vector over the row-major (n_a, n_b) basis.

    The cutoff must pass require_cutoff; the amplitudes, copied into a
    read-only array, may be unnormalized, but measure_moments requires
    <psi|psi> = 1 to NORM_TOL. A numeric dtype is kept, promoted to at
    least float64: a real state stays float64 and is measured in real
    arithmetic, a complex one stays complex128. Other dtypes convert to
    complex128. Two states are equal when their cutoffs are and their
    amplitudes are by np.array_equal; a state, like its array, is not
    hashable.
    """

    def __init__(self, amplitudes: np.ndarray, cutoff: int) -> None:
        require_cutoff(cutoff)
        amp = np.asarray(amplitudes)
        # the state's own read-only copy, in a numeric dtype promoted to at
        # least float64; anything else, such as an object array, converts
        # to complex128
        numeric = amp.dtype.kind in "biufc"
        amp = amp.astype(np.result_type(amp.dtype, float) if numeric else complex)
        amp.flags.writeable = False
        if amp.shape != (cutoff * cutoff,):
            raise ValueError("amplitude vector does not match cutoff**2")
        set_field(self, "amplitudes", amp)
        set_field(self, "cutoff", cutoff)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cutoff == other.cutoff
                and bool(np.array_equal(self.amplitudes, other.amplitudes)))

    __hash__ = None

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to (n_a, n_b); a view, not a copy."""
        return self.amplitudes.reshape(self.cutoff, self.cutoff)

    def probability(self, n_a: int, n_b: int) -> float:
        """Weight of |n_a, n_b>; ValueError outside the truncated basis."""
        _require_occupation(self.cutoff, n_a, n_b)
        return float(abs(self.grid()[n_a, n_b]) ** 2)


class HeraldResult(NamedTuple):
    """Conditional phonon distribution and the herald probability."""

    distribution: np.ndarray
    probability: float


class BogoliubovResiduals(FrozenRecord):
    """Residuals of the conjugation identities
    S^dag a S = cosh(r) a + sinh(r) b^dag (alpha), its b counterpart
    (beta), and of [alpha, beta^dag] = 0 (commutator), all measured on
    the block n_a, n_b < block.

    block is the number of leading Fock columns whose squeezed image
    keeps its edge amplitude below EDGE_TOL, at least 2 and otherwise
    at most cutoff/2: squeezing stretches occupations by about exp(2r),
    so a fixed half-basis block would press against the truncation edge
    and the reflected flux would swamp the comparison."""

    def __init__(self, alpha: float, beta: float, commutator: float, block: int) -> None:
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "commutator", commutator)
        set_field(self, "block", block)


def fock_state(cutoff: int, n_a: int, n_b: int) -> TwoModeState:
    require_cutoff(cutoff)
    _require_occupation(cutoff, n_a, n_b)
    amp = np.zeros(cutoff * cutoff)
    amp[n_a * cutoff + n_b] = 1.0
    return TwoModeState(amplitudes=amp, cutoff=cutoff)


def vacuum_state(cutoff: int) -> TwoModeState:
    return fock_state(cutoff, 0, 0)


def choose_cutoff(r: float, flux_tol: float = math.inf) -> int:
    """Smallest cutoff n whose closed-form tail mass is below TAIL_TOL and
    whose top-level flux bound n * pair_tail(r, n - 1) is below flux_tol.

    The second bound is for moments measured on the truncated state:
    the raising shifts in measure_moments drop the flux of the highest
    kept level, which at small r outweighs the tail mass (cutoff 2 at
    r ~ 1e-4 leaves a tail of ~1e-16 but moments off by ~r^2).

    Raises CutoffTooSmall when no cutoff up to CUTOFF_CAP suffices and
    ValueError when r is NaN.
    """
    require_number("squeeze parameter r", r)
    t = math.tanh(abs(r))
    if t == 0.0:
        return 2
    if t >= 1.0:
        raise CutoffTooSmall(f"tanh(r) rounds to 1 at r = {r:g}")
    n = max(2, math.ceil(math.log(TAIL_TOL) / (2.0 * math.log(t))))
    while n <= CUTOFF_CAP and (pair_tail(r, n) > TAIL_TOL
                               or n * pair_tail(r, n - 1) > flux_tol):
        n += 1
    if n > CUTOFF_CAP:
        raise CutoffTooSmall(
            f"tail mass {TAIL_TOL:g} and top-level flux {flux_tol:g} at r = {r:g} "
            f"need cutoff > cap {CUTOFF_CAP}")
    return n


def _require_tail(cutoff: int, r: float) -> None:
    tail = pair_tail(r, cutoff)
    if tail > TAIL_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} > {TAIL_TOL:g} "
            f"at r = {r:g}")


def _sector_index(cutoff: int, m: int) -> np.ndarray:
    """Flat basis indices of the sector n_a - n_b = m, in the order
    |na0 + n, nb0 + n> with na0 = max(m, 0) and nb0 = max(-m, 0)."""
    start = max(m, 0) * cutoff + max(-m, 0)
    return np.arange(start, start + (cutoff - abs(m)) * (cutoff + 1), cutoff + 1)


def _sector_spectrum(cutoff: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed SVD (U, sigma, W^T) of the r-free even-to-odd block of the
    n_a - n_b = m sector, taken anew on every call: focksim keeps no
    spectrum, only the column kernels built from one.

    In the sector basis |na0 + n, nb0 + n> of _sector_index the pair
    generator r (a^dag b^dag - a b) has K[n+1, n] = r * sqrt((na0+n+1)
    (nb0+n+1)), so r only scales the symmetric tridiagonal matrix T0 of
    the same entries at r = 1. T0 has a zero diagonal: over the even and
    odd levels T0 = [[0, B0], [B0^T, 0]], B0 the ceil(size/2) x
    floor(size/2) bidiagonal block, and B0 = U S W^T. The rows of U and
    the columns of W^T are signed by s_n = (-1)^(n // 2) of their level,
    which turns the phases i^(m-n) of exp(K) into exact signs (see
    _sector_block).
    """
    size, na0, nb0 = cutoff - abs(m), max(m, 0), max(-m, 0)
    ns = np.arange(size - 1)
    amp = np.sqrt((ns + na0 + 1.0) * (ns + nb0 + 1.0))
    even, odd = (size + 1) // 2, size // 2
    block = np.zeros((even, odd))
    flat = block.reshape(-1)
    flat[::odd + 1] = amp[0::2]  # B[i, i] = T[2i, 2i + 1]
    flat[odd::odd + 1] = amp[1::2]  # B[i, i - 1] = T[2i, 2i - 1]
    u, sigma, wt = np.linalg.svd(block)
    # s_n is (-1)^i on the even level n = 2i and (-1)^j on the odd 2j + 1
    u[1::2] *= -1.0
    wt[:, 1::2] *= -1.0
    return u, sigma, wt


def _sector_block(r: float, cutoff: int, m: int) -> np.ndarray:
    """exp of the pair generator restricted to the n_a - n_b = m sector.

    The restriction is exact: the generator conserves n_a - n_b. With
    T = r T0 (see _sector_spectrum) and D = diag(i^n), K = D^-1 (i T) D,
    so exp(K)[n, m] = i^(m-n) (cos T + i sin T)[n, m]. From B0 = U S W^T,
    one SVD per call, cos T = I - U (1 - cos rS) U^T on the even-even
    block, I - W (1 - cos rS) W^T on the odd-odd block and sin T =
    U sin(rS) W^T on the even-odd block. 1 - cos is written as the versine
    2 sin^2(rS/2), padded with 0 for an odd size's extra left singular
    vector, so r = 0 gives exactly the identity and small r loses
    nothing to cancellation; sin is odd, so a negative r needs no
    special case. The phase i^(m-n) (times i on sin) is exactly s_n s_m,
    with an extra minus sign where n is even and m odd, and the signed U
    and W^T carry it, so the result is real and no scaling and squaring
    amplifies rounding: at cutoff 128 and r = 1.43 a block agrees with a
    40-digit evaluation to ~5e-14, where scipy's scaled-and-squared expm
    is off by ~1.4e-12.
    """
    u, sigma, wt = _sector_spectrum(cutoff, m)
    even, odd = u.shape[0], wt.shape[0]
    versine = np.zeros(even)
    versine[:sigma.size] = 2.0 * np.sin(0.5 * r * sigma) ** 2
    out = np.empty((even + odd, even + odd))
    out[0::2, 0::2] = np.eye(even) - (u * versine) @ u.T
    out[1::2, 1::2] = np.eye(odd) - (wt.T * versine[:odd]) @ wt
    sin_block = (u[:, :odd] * np.sin(r * sigma)) @ wt
    out[0::2, 1::2] = -sin_block
    out[1::2, 0::2] = sin_block.T
    return out


def squeeze_operator(cutoff: int, r: float) -> np.ndarray:
    """Dense two-mode squeeze operator exp(r (a^dag b^dag - a b)).

    The generator conserves n_a - n_b, so the matrix is assembled
    exactly from one matrix exponential per sector, which agrees with
    exp of the full dense generator to rounding but stays cheap at
    large cutoffs. The result is real orthogonal.

    Raises ValueError for a cutoff the gate refuses or above DENSE_CAP,
    both checked before anything is allocated, or when r is NaN, and
    CutoffTooSmall when the closed-form tail mass of the squeezed vacuum
    at this r exceeds TAIL_TOL.
    """
    require_cutoff(cutoff)
    n = cutoff
    if n > DENSE_CAP:
        raise ValueError(f"cutoff {n} > {DENSE_CAP}: a dense operator would need "
                         f"{8 * n ** 4 / 1e6:.0f} MB")
    _require_tail(n, r)
    out = np.zeros((n * n, n * n))
    for m in range(-(n - 1), n):
        idx = _sector_index(n, m)
        out[np.ix_(idx, idx)] = _sector_block(r, n, m)
    return out


@functools.lru_cache(maxsize=CUTOFF_CAP)
def _column_kernel(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-free kernel (M, F) of column 0 of the n_a = n_b sector's
    block, as read-only arrays, memoized per cutoff: the gate admits
    fewer than CUTOFF_CAP cutoffs, so an entry is never evicted, and all
    of them hold ~3 MB.

    Column 0 of _sector_block is e_0 - A vers(r S) on the even levels and
    B sin(r S) on the odd ones, with A = U diag(U[0]) and B = W diag(U[0])
    over the k singular values (U's columns past k meet a zero versine),
    vers x = 1 - cos x = 2 sin^2(x/2). M is the (ceil(cutoff/2), 2k)
    matrix [-2A | B], B padded with a zero row for an odd cutoff, and F the
    (2k, 2) frequencies [[S/2, 0], [0, S]]: with sin(r F), its first
    column squared in place, row i of M sin(r F) holds levels 2i and
    2i + 1 of the column less e_0, so its flat form is the column in
    level order. M holds ~cutoff**2 / 2 floats, as the sector's spectrum
    does, and F 4k."""
    u, sigma, wt = _sector_spectrum(cutoff, 0)
    k = sigma.size
    top = u[0, :k]
    kernel = np.zeros((u.shape[0], 2 * k))
    kernel[:, :k] = -2.0 * u[:, :k] * top
    kernel[:wt.shape[0], k:] = wt.T * top
    frequencies = np.zeros((2 * k, 2))
    frequencies[:k, 0] = 0.5 * sigma
    frequencies[k:, 1] = sigma
    for part in (kernel, frequencies):
        part.flags.writeable = False
    return kernel, frequencies


def _svd_column(cutoff: int, r: float) -> list[float]:
    """The n_a = n_b column of the squeezed vacuum, amplitude k on |k, k>,
    as a list, from the sector SVD: column 0 of the n_a = n_b sector's
    block, formed from the cutoff's _column_kernel with one np.sin, an
    in-place square and one matrix product, without the block or an SVD
    after the cutoff's first column. A kernel of vacuum_column, which
    gates its inputs, and the tests' reference for the series kernel."""
    kernel, frequencies = _column_kernel(cutoff)
    sines = np.sin(r * frequencies)
    halves = sines[:, 0]
    halves *= halves  # sin^2(r S / 2): -2A carries the versine's factor 2
    column = (kernel @ sines).ravel().tolist()
    column[0] += 1.0
    del column[cutoff:]  # an odd cutoff's padding row
    return column


def squeezed_vacuum(cutoff: int, r: float) -> TwoModeState:
    """Squeeze operator applied to the two-mode vacuum: the list that
    vacuum_column returns, on the n_a = n_b diagonal of a cutoff**2 state.

    The generator conserves n_a - n_b, so the vacuum's image lies in the
    n_a = n_b sector; the restriction is exact, not an approximation.
    Raises CutoffTooSmall and ValueError as squeeze_operator does, but
    has no dense cap.
    """
    amp = np.diag(vacuum_column(cutoff, r)).reshape(-1)
    return TwoModeState(amplitudes=amp, cutoff=cutoff)


def apply_squeeze_factorized(state: TwoModeState, r: float) -> TwoModeState:
    """Apply the squeeze operator through its normal-ordered factorization

        exp(tanh r * a^dag b^dag)
        * exp(-ln cosh r * (a^dag a + b^dag b + 1))
        * exp(-tanh r * a b)

    Each exponential is a finite series here: the pair raising and
    lowering operators are nilpotent in the truncated basis. The
    factorization equals the direct exponential on states with
    negligible weight near the cutoff edge (the identity is exact only
    in the untruncated space, and the two paths shed different edge
    flux). Raises CutoffTooSmall and ValueError for r as
    squeezed_vacuum does, at the state's cutoff.
    """
    n = state.cutoff
    _require_tail(n, r)
    t = math.tanh(r)
    grid = state.grid()
    root = np.sqrt(np.arange(1.0, n))

    def lower_pair(y: np.ndarray) -> np.ndarray:  # a b
        out = np.zeros_like(y)
        out[:-1, :-1] = root[:, None] * (root[None, :] * y[1:, 1:])
        return out

    def raise_pair(y: np.ndarray) -> np.ndarray:  # a^dag b^dag
        out = np.zeros_like(y)
        out[1:, 1:] = root[:, None] * (root[None, :] * y[:-1, :-1])
        return out

    def pair_series(start: np.ndarray, coeff: float,
                    action: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        total = start.copy()
        term = start
        for k in range(1, n + 1):
            term = (coeff / k) * action(term)
            if not term.any():
                break
            total = total + term
        return total

    grid = pair_series(grid, -t, lower_pair)
    occupations = np.arange(n)
    weights = np.exp(-math.log(math.cosh(r))
                     * (occupations[:, None] + occupations[None, :] + 1.0))
    grid = weights * grid
    grid = pair_series(grid, t, raise_pair)
    return TwoModeState(amplitudes=grid.reshape(-1), cutoff=n)


def _conjugation_block(diagonal: np.ndarray) -> int:
    """Largest count of leading Fock columns safe for conjugation checks,
    read off diagonal, the n_a = n_b sector block.

    Column n of that block is the squeezed |n, n>; its entry in the
    block's last row, |cutoff-1, cutoff-1>, is the truncation flux that
    column reflects back into the basis. Every ladder operator moves the
    vacuum out of its sector, so the block starts at 2, the least in
    which a maps a low column to a low row; a too-small basis then shows
    up as a large residual, not an exemption.
    """
    edge = np.abs(diagonal[-1])
    limit = 2
    while limit < edge.size // 2 and edge[limit] < EDGE_TOL:
        limit += 1
    return limit


def _sector_ladder(cutoff: int, m: int, da: int, db: int) -> np.ndarray:
    """The truncated ladder operator moving n_a by da or n_b by db (+-1),
    as a matrix from sector m into sector m + da - db."""
    source = _sector_index(cutoff, m)
    target = _sector_index(cutoff, m + da - db)
    occupation = source // cutoff if da else source % cutoff
    # an index that wraps past a row end lands outside the target sector
    hits = np.equal.outer(target, source + da * cutoff + db)
    return hits * np.sqrt(occupation + max(da + db, 0))


def bogoliubov_check(cutoff: int, r: float) -> BogoliubovResiduals:
    """Conjugate the ladder operators with the squeeze operator and compare
    against the hyperbolic mixing, on the edge-safe low-occupation block.

    S keeps n_a - n_b; a and b^dag lower it by one, b and a^dag raise it.
    So sector k takes only the images S_k^T L S_(k+-1) of the low columns
    of sectors k+-1: alpha and beta read their low rows, and the
    commutator pairs sectors k+1 and k-1 through the whole of sector k.
    Raises CutoffTooSmall and, for a NaN r, ValueError as squeeze_operator
    does, but has no dense cap.
    """
    require_cutoff(cutoff)
    n = cutoff
    _require_tail(n, r)
    c, s = math.cosh(r), math.sinh(r)
    diagonal = _sector_block(r, n, 0)
    limit = _conjugation_block(diagonal)
    reach = min(limit, n - 1)
    blocks = {m: _sector_block(r, n, m) if m else diagonal
              for m in range(-reach, reach + 1)}

    def images(k: int, m: int, first: tuple[int, int], second: tuple[int, int]):
        """S_k^T L S_m on sector m's low columns for the ladders first and
        second, both from sector m into k, and c first + s second there."""
        low = max(limit - abs(m), 0)
        columns = blocks.get(m, np.zeros((n - abs(m), 0)))[:, :low]
        one, two = (_sector_ladder(n, m, *step) for step in (first, second))
        # S is real orthogonal, so the adjoint is the transpose
        return (blocks[k].T @ (one @ columns), blocks[k].T @ (two @ columns),
                (c * one + s * two)[:, :low])

    worst = np.zeros(3)  # alpha, beta, commutator
    for k in range(-reach, reach + 1):
        rows = limit - abs(k)
        a_image, bdag_image, a_mixed = images(k, k + 1, (-1, 0), (0, 1))
        b_image, adag_image, b_mixed = images(k, k - 1, (0, -1), (1, 0))
        # alpha^T = S^T a^dag S and beta^T = S^T b^dag S
        parts = ((a_image - a_mixed)[:rows], (b_image - b_mixed)[:rows],
                 adag_image.T @ bdag_image - b_image.T @ a_image)
        worst = np.maximum(worst, [np.abs(part).max(initial=0.0) for part in parts])
    return BogoliubovResiduals(*worst.tolist(), block=limit)


def _sector_images(amplitudes: np.ndarray, cutoff: int, m: int) -> np.ndarray:
    """The five images psi, a psi, b psi, a^dag psi and b^dag psi of a
    state on the sector n_a - n_b = m, as the rows of a (5, cutoff - |m|)
    array in the state's dtype, points in the order of _sector_index.

    Image k reads the level its occupation names, sqrt(level) its weight:
    psi reads itself with weight 1, a reads n_a + 1 with sqrt(n_a + 1),
    a^dag n_a - 1 with sqrt(n_a); a read outside the truncated basis (an
    occupation of 0 or cutoff) has weight 0 and reads index 0, so each
    image is elementwise the truncated Kronecker ladder matrix times the
    state, on the sector.
    """
    n = cutoff
    points = _sector_index(n, m)
    n_a, n_b = np.divmod(points, n)
    occupation = np.stack([np.ones_like(n_a), n_a + 1, n_b + 1, n_a, n_b])
    inside = (occupation > 0) & (occupation < n)
    shift = np.array([[0], [n], [1], [-n], [-1]])
    images = amplitudes[np.where(inside, points + shift, 0)]
    images *= np.where(inside, np.sqrt(occupation), 0.0)
    return images


@functools.cache
def _table_forms() -> tuple[tuple[complex, ...], ...]:
    """Every first, second and cross moment as a bra/ket pair over the
    five images of _sector_images (psi, a psi, b psi, a^dag psi, b^dag psi),
    flattened to coefficients of the Gram matrix, one row per table
    entry: first and second moments by QUAD_KEYS, then cross moments by
    CROSS_KEYS. The rows are plain Python numbers, read by both measure
    paths: measure_moments as one array, diagonal_moments collapsed onto
    the Gram entries a diagonal state has.

    <bra|ket> = sum_ij conj(bra_i) ket_j G[i, j] for G[i, j] =
    <image_i|image_j>. Moments of two lowerings, <psi|x y psi>, become
    <x^dag psi|y psi>: the truncated raising matrix is the transpose of
    the lowering one, and a and b commute exactly in the Kronecker basis.
    c = (a - b)/sqrt(2) and d = (a + b)/sqrt(2).
    """
    psi, low_a, low_b, up_a, up_b = ([float(i == j) for j in range(5)] for i in range(5))

    def mix(x: list, y: list, sign: float = 1.0, phase: complex = 1.0) -> list:
        # phase * (x + sign * y) / sqrt(2), entry by entry
        return [phase * (p + sign * q) / SQRT2 for p, q in zip(x, y)]

    low_c, up_c = mix(low_a, low_b, -1.0), mix(up_a, up_b, -1.0)
    low_d, up_d = mix(low_a, low_b), mix(up_a, up_b)
    first, second = {}, {}
    for mode, down, up in (("a", low_a, up_a), ("b", low_b, up_b),
                           ("c", low_c, up_c), ("d", low_d, up_d)):
        for quad, acted in ((f"X_{mode}", mix(down, up)),
                            (f"Y_{mode}", mix(down, up, -1.0, -1j))):
            first[quad], second[quad] = (psi, acted), (acted, acted)
    cross = {
        "n_a": (low_a, low_a),
        "n_b": (low_b, low_b),
        "n_c": (low_c, low_c),
        "n_d": (low_d, low_d),
        "ab": (up_a, low_b),
        "adag_b": (low_a, low_b),
        "a2": (up_a, low_a),
        "b2": (up_b, low_b),
        "c2": (up_c, low_c),
        "d2": (up_d, low_d),
    }
    assert tuple(first) == tuple(second) == QUAD_KEYS and tuple(cross) == CROSS_KEYS
    forms = [*first.values(), *second.values(), *cross.values()]
    return tuple(tuple(b.conjugate() * k for b in bra for k in ket) for bra, ket in forms)


@functools.cache
def _table_coefficients() -> np.ndarray:
    """_table_forms as one read-only complex array, (26, 25)."""
    coefficients = np.array(_table_forms(), dtype=complex)
    coefficients.flags.writeable = False
    return coefficients


# The Gram entries a state on the n_a = n_b diagonal can have nonzero,
# grouped by value (the images are numbered as in _sector_images): psi lies
# in sector 0, a psi and b^dag psi in sector -1, b psi and a^dag psi in
# sector +1, so images in different sectors are orthogonal, and for
# psi = sum_k c_k |k, k> with real c_k
#   <psi|psi>                                   = sum_k c_k^2
#   <a psi|a psi> = <b psi|b psi>               = sum_k k c_k^2
#   <a^dag psi|a^dag psi> = <b^dag psi|b^dag psi> = sum_k<N-1 (k+1) c_k^2
#   <a psi|b^dag psi> = <b psi|a^dag psi>, and
#   their transposes                            = sum_k<N-1 (k+1) c_k c_k+1
_DIAGONAL_GRAM = (((0, 0),), ((1, 1), (2, 2)), ((3, 3), (4, 4)),
                  ((1, 4), (4, 1), (2, 3), (3, 2)))


@functools.cache
def _diagonal_forms() -> tuple[tuple[tuple[float, ...], ...],
                               Callable[[Sequence[float]], tuple[float, ...]]]:
    """_table_forms collapsed onto the four Gram sums of _DIAGONAL_GRAM, in
    which row i times the sums is table entry i of a real diagonal state:
    the distinct collapsed rows, 9 of the 26, and the itemgetter that
    expands one value per distinct row, in that order, to the 26 entries
    in _table_forms order.

    The collapsed coefficients are real, so such a state's moments have
    no imaginary part to discard; a -0.0 is made 0.0, so that a moment
    whose coefficients all vanish comes out as 0.0.
    """
    rows = []
    for row in _table_forms():
        collapsed = [complex(sum(row[5 * i + j] for i, j in entries))
                     for entries in _DIAGONAL_GRAM]
        assert all(value.imag == 0.0 for value in collapsed)
        rows.append(tuple(value.real + 0.0 for value in collapsed))
    distinct = tuple(dict.fromkeys(rows))
    return distinct, operator.itemgetter(*map(distinct.index, rows))


def _moment_table(norm2: float, entries: Sequence[float], max_imag: float) -> MomentTable:
    """The MomentTable of a state from <psi|psi> and its 26 real moment
    entries in _table_forms order (first, second, cross), max_imag the
    largest imaginary part dropped from them: the products and the
    squeezing are derived from the variances and put in TABLE_LAYOUT
    order. Raises ValueError unless <psi|psi> is within NORM_TOL of 1."""
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: <psi|psi> = {norm2!r}")
    first, second = entries[:8], entries[8:16]
    variances = tuple(map(operator.sub, second, map(operator.mul, first, first)))
    return MomentTable(None, (
        *first, *second,
        # QUAD_KEYS pairs X and Y of each mode; math.sqrt refuses a negative
        *map(math.sqrt, map(operator.mul, variances[0::2], variances[1::2])),
        *map(operator.sub, variances, (0.5,) * 8),  # S = var - 1/2
        *entries[16:]), max_imag)


def measure_moments(state: TwoModeState) -> MomentTable:
    """Quadrature, Heisenberg, squeezing, and pair moments of a state.

    Every entry is an expectation value <psi|O|psi> built from the
    state and its four truncated ladder images (each elementwise
    identical to a dense matrix product): one 5x5 Gram matrix of those
    images holds every inner product, and each moment is a fixed linear
    combination of its entries. No commutation relation is used; the
    combinations rely only on the raising matrix being the transpose of
    the lowering one and on a and b commuting in the Kronecker basis,
    both exact for the truncated matrices.

    Every ladder moves a sector n_a - n_b by exactly one, so the images
    vanish outside the band of sectors the state occupies, widened by
    one on each side, and images on different sectors are orthogonal.
    The Gram matrix is summed over that band one sector at a time, from
    the five images on the sector's points (_sector_images): for a
    squeezed vacuum, on the n_a = n_b diagonal alone, that is three
    sectors and O(cutoff) work, for a dense state all 2 cutoff - 1, and
    the working memory beyond the band's search is O(cutoff) either way.
    The images and the Gram matrix take the state's dtype, so a real
    state is measured in real arithmetic and a complex one in complex
    arithmetic, on one path. Imaginary parts, which vanish for the real
    squeezed states produced here, are dropped and their largest
    magnitude recorded in max_imag_discarded. The squeezing and
    Heisenberg entries use variances, so they remain meaningful for
    displaced states too.

    Raises ValueError when the state is not normalized: <psi|psi>,
    the Gram matrix's first entry, must be within NORM_TOL of 1.
    """
    n, amplitudes = state.cutoff, state.amplitudes
    occupied = np.flatnonzero(amplitudes)
    sectors = occupied // n - occupied % n
    # an all-zero state walks no sector and fails the norm check
    band = range(sectors.min() - 1, sectors.max() + 2) if occupied.size else ()
    gram = np.zeros((5, 5), dtype=amplitudes.dtype)
    for m in band:
        images = _sector_images(amplitudes, n, m)
        gram += images.conj() @ images.T
    values = _table_coefficients() @ gram.reshape(-1)
    return _moment_table(float(gram[0, 0].real), values.real.tolist(),
                         float(abs(values.imag).max()))


def _series_admits(cutoff: int, r: float) -> bool:
    """Whether _series_column is exact to rounding at this cutoff and r:
    ||r K0||_inf = |r| (2 cutoff - 3) <= 1, K0 the pair generator on the
    n_a = n_b sector (its row n = cutoff - 2 sums n + (n + 1))."""
    return abs(r) * (2 * cutoff - 3) <= 1.0


@functools.cache
def _series_coefficients(levels: int) -> tuple[tuple[float, ...], ...]:
    """Row k: the Taylor coefficients (K0^j e_0)_k / j! of level k of
    exp(r K0)|0, 0>, for j = k, k + 2, ... up to SERIES_TERMS, on a basis
    of levels levels per mode.

    K0|k, k> = (k + 1)|k + 1, k + 1> - k|k - 1, k - 1>, with the raising
    term dropped at the top level levels - 1, so K0^j e_0 has integer
    entries, on the levels of j's parity up to j: they are formed
    exactly and divided by j! with one rounding. A level above
    SERIES_TERMS gets no term, so _series_column asks for levels =
    min(cutoff, SERIES_TERMS + 1): the memo holds at most 18 tables of at
    most 100 floats, whatever the cutoffs visited.
    """
    rows: list[list[float]] = [[] for _ in range(levels)]
    # K0^j e_0 on the levels, then a 0 that power[-1] and power[levels] read
    power = [1] + [0] * levels
    factorial = 1
    for j in range(SERIES_TERMS + 1):
        if j:
            factorial *= j
            power = [k * power[k - 1] - (k + 1) * power[k + 1]
                     for k in range(levels)] + [0]
        for k in range(j % 2, min(j, levels - 1) + 1, 2):
            rows[k].append(power[k] / factorial)
    return tuple(map(tuple, rows))


def _series_column(cutoff: int, r: float) -> list[float]:
    """The n_a = n_b column of the squeezed vacuum, amplitude k on |k, k>,
    in pure Python from the Taylor series of exp(r K0)|0, 0>: the kernel
    vacuum_column takes where _series_admits(cutoff, r) holds, after its
    gates.

    Level k sums the terms p_k,j r^j of SERIES_TERMS + 1 in all, r's
    powers formed by repeated products. With theta = |r| (2 cutoff - 3)
    <= 1 the dropped terms add at most (1/19!) (20/19) < 1e-17 to any
    level (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), and rounding at
    most gamma_28 e^theta ~ 28 u e^theta, u = 2^-53: a term carries up
    to SERIES_TERMS + 1 roundings and the sum SERIES_TERMS / 2 more, and
    the |terms| of a level add up to at most a level of exp(|r| |K0|)
    e_0, whose inf-norm is e^theta.
    """
    powers = list(itertools.accumulate(itertools.repeat(r, SERIES_TERMS), operator.mul,
                                       initial=1.0))
    rows = _series_coefficients(min(cutoff, SERIES_TERMS + 1))
    column = [sum(map(operator.mul, row, powers[k::2])) for k, row in enumerate(rows)]
    return column + [0.0] * (cutoff - len(column))


def vacuum_column(cutoff: int, r: float) -> list[float]:
    """The n_a = n_b column of the squeezed vacuum, amplitude k on |k, k>,
    as a list: the one builder of that column, which squeezed_vacuum
    scatters into its state. Both gates run once, before either kernel,
    and raise CutoffTooSmall and ValueError as squeeze_operator does;
    the column comes from the Taylor series where _series_admits holds
    and from the sector SVD otherwise.
    """
    require_cutoff(cutoff)
    _require_tail(cutoff, r)
    if _series_admits(cutoff, r):
        return _series_column(cutoff, r)
    return _svd_column(cutoff, r)


# The levels 1, ..., CUTOFF_CAP - 1 as floats: a float times a float
# skips the int conversion a product with an int level makes, and gives
# the same bits. map stops at its shorter operand, so a sum over a column
# of cutoff levels reads the first cutoff - 1 of them.
_LEVELS = tuple(map(float, range(1, CUTOFF_CAP)))


def diagonal_moments(column: Sequence[float]) -> MomentTable:
    """measure_moments of the state sum_k column[k] |k, k>, real
    amplitudes on the n_a = n_b diagonal, in pure Python.

    The images of such a state overlap only within a sector, so four
    sums over the column give every nonzero entry of its Gram matrix
    (see _DIAGONAL_GRAM), and each moment is the same form as in
    measure_moments, read on those entries; a form that several moments
    share is evaluated once. Raises ValueError unless the column's
    length, its basis size, passes require_cutoff, and when the state is
    not normalized, as measure_moments does.
    """
    require_cutoff(len(column))
    squares = list(map(operator.mul, column, column))
    norm2 = sum(squares)
    lowered = sum(map(operator.mul, _LEVELS, squares[1:]))
    raised = sum(map(operator.mul, _LEVELS, squares[:-1]))
    paired = sum(map(operator.mul, _LEVELS, map(operator.mul, column, column[1:])))
    forms, expand = _diagonal_forms()
    return _moment_table(norm2, expand([a * norm2 + b * lowered + c * raised + d * paired
                                        for a, b, c, d in forms]), 0.0)


def herald(state: TwoModeState, n_detected: int) -> HeraldResult:
    """Condition the phonon mode on detecting n_detected photons.

    Returns the normalized phonon number distribution and the herald
    probability. Raises ZeroProbability when the state assigns zero
    weight to that photon number, and ValueError when n_detected is not
    an int in [0, cutoff).
    """
    _require_occupation(state.cutoff, n_detected)
    joint = np.abs(state.grid()) ** 2
    probability = float(joint[n_detected, :].sum())
    if probability == 0.0:
        raise ZeroProbability(
            f"no amplitude on photon number {n_detected}")
    return HeraldResult(distribution=joint[n_detected, :] / probability,
                        probability=probability)
