"""Truncated two-mode Fock-space oracle.

Everything the closed forms in this package predict can be cross-checked
here by building states and operators in a finite photon-phonon number
basis and measuring them with no analytic shortcuts: every expectation
value is <psi|O|psi> with O applied to the state vector.

Basis ordering is row major over (n_a, n_b) with the phonon index n_b
fastest: index = n_a * cutoff + n_b. Truncation artifacts concentrate
near the edge n ~ cutoff, so operator identities are checked on the
low-occupation block n_a, n_b < cutoff/2; the closed-form tail mass
tanh(r)^(2*cutoff) bounds how much of the squeezed vacuum the basis
cannot hold.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    # numpy loads OpenBLAS with one thread (see the package docstring).
    # OpenBLAS reads the variable once, when numpy loads it; child
    # processes do not inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from .errors import CutoffTooSmall, ZeroProbability
from .squeezing import CROSS_KEYS, MODE_KEYS, MomentTable, pair_tail

CUTOFF_CAP = 128
DENSE_CAP = 48
TAIL_TOL = 1e-12
EDGE_TOL = 1e-10
NORM_TOL = 1e-10
SQRT2 = math.sqrt(2.0)
# sector spectra kept by _sector_spectrum: every sector of the largest
# cutoff, 2 * CUTOFF_CAP - 1 = 255 of them, fits at once
_SPECTRUM_MEMO = 256


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Two-mode Fock space with occupations 0..cutoff-1 per mode.

    The joint dimension is cutoff**2. A dense operator on the space
    costs 8 * cutoff**4 bytes, 2.1 GB at CUTOFF_CAP, so the one dense
    builder, squeeze_operator, stops at DENSE_CAP, ~42 MB per matrix;
    everything else works sector by sector or on state vectors.
    """

    cutoff: int

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, int):
            raise TypeError("cutoff must be an int")
        if not 2 <= self.cutoff <= CUTOFF_CAP:
            raise ValueError(f"cutoff must be in [2, {CUTOFF_CAP}]")

    @property
    def dim(self) -> int:
        return self.cutoff * self.cutoff

    def index(self, n_a: int, n_b: int) -> int:
        """Flat basis index of |n_a, n_b>."""
        if not (0 <= n_a < self.cutoff and 0 <= n_b < self.cutoff):
            raise ValueError("occupation outside the truncated basis")
        return n_a * self.cutoff + n_b


@dataclass(frozen=True)
class TwoModeState:
    """State vector over the row-major (n_a, n_b) basis.

    The amplitudes are taken as given; measure_moments requires them
    normalized, <psi|psi> = 1 to NORM_TOL.
    """

    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.cutoff * self.cutoff,):
            raise ValueError("amplitude vector does not match cutoff**2")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to (n_a, n_b); a view, not a copy."""
        return self.amplitudes.reshape(self.cutoff, self.cutoff)

    def probability(self, n_a: int, n_b: int) -> float:
        """Weight of |n_a, n_b>; ValueError outside the truncated basis."""
        if not (0 <= n_a < self.cutoff and 0 <= n_b < self.cutoff):
            raise ValueError("occupation outside the truncated basis")
        return float(abs(self.grid()[n_a, n_b]) ** 2)


class HeraldResult(NamedTuple):
    """Conditional phonon distribution and the herald probability."""

    distribution: np.ndarray
    probability: float


@dataclass(frozen=True)
class BogoliubovResiduals:
    """Residuals of the conjugation identities
    S^dag a S = cosh(r) a + sinh(r) b^dag (alpha), its b counterpart
    (beta), and of [alpha, beta^dag] = 0 (commutator), all measured on
    the block n_a, n_b < block.

    block is the number of leading Fock columns whose squeezed image
    keeps its edge amplitude below EDGE_TOL, at least 2 and otherwise
    at most cutoff/2: squeezing stretches occupations by about exp(2r),
    so a fixed half-basis block would press against the truncation edge
    and the reflected flux would swamp the comparison."""

    alpha: float
    beta: float
    commutator: float
    block: int


def fock_state(space: TruncatedFockSpace, n_a: int, n_b: int) -> TwoModeState:
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index(n_a, n_b)] = 1.0
    return TwoModeState(amplitudes=amp, cutoff=space.cutoff)


def vacuum_state(space: TruncatedFockSpace) -> TwoModeState:
    return fock_state(space, 0, 0)


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
    _require_number(r)
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


def _require_number(r: float) -> None:
    # NaN passes every tail comparison, so it is refused by name
    if math.isnan(r):
        raise ValueError(f"squeeze parameter r = {r!r} is not a number")


def _require_tail(cutoff: int, r: float) -> None:
    _require_number(r)
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


@functools.lru_cache(maxsize=_SPECTRUM_MEMO)
def _sector_spectrum(cutoff: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed SVD (U, sigma, W^T) of the r-free even-to-odd block of the
    n_a - n_b = m sector, as read-only arrays.

    In the sector basis |na0 + n, nb0 + n> of _sector_index the pair
    generator r (a^dag b^dag - a b) has K[n+1, n] = r * sqrt((na0+n+1)
    (nb0+n+1)), so r only scales the symmetric tridiagonal matrix T0 of
    the same entries at r = 1. T0 has a zero diagonal: over the even and
    odd levels T0 = [[0, B0], [B0^T, 0]], B0 the ceil(size/2) x
    floor(size/2) bidiagonal block, and B0 = U S W^T. The rows of U and
    the columns of W^T are signed by s_n = (-1)^(n // 2) of their level,
    which turns the phases i^(m-n) of exp(K) into exact signs (see
    _sector_block). The result depends on (cutoff, m) alone, so it is
    memoized: the oracle reads one sector per cutoff and a sweep revisits
    the same few cutoffs. An entry is at most 66 KB (size 128), so the
    full memo holds at most ~14.4 MB; every sector of cutoff 128 is 5.7 MB.
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
    for part in (u, sigma, wt):
        part.flags.writeable = False
    return u, sigma, wt


def _sector_rotation(r: float, cutoff: int,
                     m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sector's signed spectrum with r applied: U, W^T, the angles'
    sines sin(r S) and the versines 2 sin(r S / 2)^2 = 1 - cos(r S),
    padded with 0 for an odd size's extra left singular vector."""
    u, sigma, wt = _sector_spectrum(cutoff, m)
    versine = np.zeros(u.shape[0])
    versine[:sigma.size] = 2.0 * np.sin(0.5 * r * sigma) ** 2
    return u, wt, np.sin(r * sigma), versine


def _sector_block(r: float, cutoff: int, m: int) -> np.ndarray:
    """exp of the pair generator restricted to the n_a - n_b = m sector.

    The restriction is exact: the generator conserves n_a - n_b. With
    T = r T0 (see _sector_spectrum) and D = diag(i^n), K = D^-1 (i T) D,
    so exp(K)[n, m] = i^(m-n) (cos T + i sin T)[n, m]. From the memoized
    B0 = U S W^T, cos T = I - U (1 - cos rS) U^T on the even-even block,
    I - W (1 - cos rS) W^T on the odd-odd block and sin T = U sin(rS) W^T
    on the even-odd block. 1 - cos is written 2 sin^2(rS/2), so r = 0
    gives exactly the identity and small r loses nothing to cancellation;
    sin is odd, so a negative r needs no special case. The phase i^(m-n)
    (times i on sin) is exactly s_n s_m, with an extra minus sign where n
    is even and m odd, and the signed U and W^T carry it, so the result
    is real and no scaling and squaring amplifies rounding: at cutoff
    128 and r = 1.43 a block agrees with a 40-digit evaluation to
    ~5e-14, where scipy's scaled-and-squared expm is off by ~1.4e-12.
    """
    u, wt, sin, versine = _sector_rotation(r, cutoff, m)
    even, odd = u.shape[0], wt.shape[0]
    out = np.empty((even + odd, even + odd))
    out[0::2, 0::2] = np.eye(even) - (u * versine) @ u.T
    out[1::2, 1::2] = np.eye(odd) - (wt.T * versine[:odd]) @ wt
    sin_block = (u[:, :odd] * sin) @ wt
    out[0::2, 1::2] = -sin_block
    out[1::2, 0::2] = sin_block.T
    return out


def squeeze_operator(space: TruncatedFockSpace, r: float) -> np.ndarray:
    """Dense two-mode squeeze operator exp(r (a^dag b^dag - a b)).

    The generator conserves n_a - n_b, so the matrix is assembled
    exactly from one matrix exponential per sector, which agrees with
    exp of the full dense generator to rounding but stays cheap at
    large cutoffs. The result is real orthogonal.

    Raises ValueError above DENSE_CAP, checked before anything is
    allocated, or when r is NaN, and CutoffTooSmall when the closed-form
    tail mass of the squeezed vacuum at this r exceeds TAIL_TOL.
    """
    n = space.cutoff
    if n > DENSE_CAP:
        raise ValueError(f"cutoff {n} > {DENSE_CAP}: a dense operator would need "
                         f"{8 * space.dim ** 2 / 1e6:.0f} MB")
    _require_tail(n, r)
    out = np.zeros((space.dim, space.dim))
    for m in range(-(n - 1), n):
        idx = _sector_index(n, m)
        out[np.ix_(idx, idx)] = _sector_block(r, n, m)
    return out


def squeezed_vacuum(space: TruncatedFockSpace, r: float) -> TwoModeState:
    """Squeeze operator applied to the two-mode vacuum.

    The vacuum lives in the n_a = n_b sector, so only column 0 of that
    sector's block is needed; the restriction is exact, not an
    approximation, and the column is formed without the block. Raises
    CutoffTooSmall and ValueError as squeeze_operator does.
    """
    n = space.cutoff
    _require_tail(n, r)
    u, wt, sin, versine = _sector_rotation(r, n, 0)
    # column 0 of _sector_block: e_0 - U (1 - cos rS) U[0] on the even
    # levels, U[0] sin(rS) W^T on the odd ones
    column = np.zeros(n)
    column[0] = 1.0
    column[0::2] -= u @ (versine * u[0])
    column[1::2] = (u[0, :wt.shape[0]] * sin) @ wt
    amp = np.zeros(space.dim, dtype=complex)
    amp[_sector_index(n, 0)] = column
    return TwoModeState(amplitudes=amp, cutoff=n)


def apply_squeeze_factorized(space: TruncatedFockSpace, r: float,
                             state: TwoModeState) -> TwoModeState:
    """Apply the squeeze operator through its normal-ordered factorization

        exp(tanh r * a^dag b^dag)
        * exp(-ln cosh r * (a^dag a + b^dag b + 1))
        * exp(-tanh r * a b)

    Each exponential is a finite series here: the pair raising and
    lowering operators are nilpotent in the truncated basis. The
    factorization equals the direct exponential on states with
    negligible weight near the cutoff edge (the identity is exact only
    in the untruncated space, and the two paths shed different edge
    flux).
    """
    if state.cutoff != space.cutoff:
        raise ValueError("state does not live in this space")
    n = space.cutoff
    t = math.tanh(r)
    grid = state.grid().astype(complex).copy()
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


def bogoliubov_check(space: TruncatedFockSpace, r: float) -> BogoliubovResiduals:
    """Conjugate the ladder operators with the squeeze operator and compare
    against the hyperbolic mixing, on the edge-safe low-occupation block.

    S keeps n_a - n_b; a and b^dag lower it by one, b and a^dag raise it.
    So sector k takes only the images S_k^T L S_(k+-1) of the low columns
    of sectors k+-1: alpha and beta read their low rows, and the
    commutator pairs sectors k+1 and k-1 through the whole of sector k.
    Raises CutoffTooSmall and, for a NaN r, ValueError as squeeze_operator
    does, but has no dense cap.
    """
    n = space.cutoff
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


def _ladder_images(grid: np.ndarray) -> np.ndarray:
    """psi, a psi, b psi, a^dag psi and b^dag psi as one (5, n, n) array.

    Each shift is elementwise identical to the product of the truncated
    Kronecker ladder matrix with the state, written straight into its slot.
    """
    n = grid.shape[0]
    root = np.sqrt(np.arange(1.0, n))
    images = np.zeros((5, n, n), dtype=complex)
    images[0] = grid
    np.multiply(root[:, None], grid[1:, :], out=images[1, :-1, :])
    np.multiply(root[None, :], grid[:, 1:], out=images[2, :, :-1])
    np.multiply(root[:, None], grid[:-1, :], out=images[3, 1:, :])
    np.multiply(root[None, :], grid[:, :-1], out=images[4, :, 1:])
    return images


def _moment_forms() -> tuple[tuple[tuple[str, str], ...], np.ndarray]:
    """Every first, second and cross moment as a bra/ket pair over the
    rows of _ladder_images, flattened to coefficients of the Gram matrix.

    <bra|ket> = sum_ij conj(bra_i) ket_j G[i, j] for G[i, j] =
    <image_i|image_j>. Moments of two lowerings, <psi|x y psi>, become
    <x^dag psi|y psi>: the truncated raising matrix is the transpose of
    the lowering one, and a and b commute exactly in the Kronecker basis.
    c = (a - b)/sqrt(2) and d = (a + b)/sqrt(2).
    """
    psi, low_a, low_b, up_a, up_b = np.eye(5)
    low_c, up_c = (low_a - low_b) / SQRT2, (up_a - up_b) / SQRT2
    low_d, up_d = (low_a + low_b) / SQRT2, (up_a + up_b) / SQRT2
    forms = []
    for mode, down, up in (("a", low_a, up_a), ("b", low_b, up_b),
                           ("c", low_c, up_c), ("d", low_d, up_d)):
        for quad, acted in ((f"X_{mode}", (down + up) / SQRT2),
                            (f"Y_{mode}", -1j * (down - up) / SQRT2)):
            forms += [(("first", quad), psi, acted), (("second", quad), acted, acted)]
    pairs = {
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
    assert tuple(pairs) == CROSS_KEYS
    forms += [(("cross", key), bra, ket) for key, (bra, ket) in pairs.items()]
    coefficients = np.array([np.outer(np.conj(bra), ket).reshape(-1)
                             for _, bra, ket in forms])
    return tuple(key for key, _, _ in forms), coefficients


_MOMENT_KEYS, _MOMENT_COEFFICIENTS = _moment_forms()


def measure_moments(state: TwoModeState) -> MomentTable:
    """Quadrature, Heisenberg, squeezing, and pair moments of a state.

    Every entry is an expectation value <psi|O|psi> built from the
    state and its four truncated ladder images (each elementwise
    identical to a dense matrix product): one 5x5 Gram matrix of those
    images holds every inner product, and each moment is a fixed linear
    combination of its entries. No commutation relation is used; the
    combinations rely only on the raising matrix being the transpose of
    the lowering one and on a and b commuting in the Kronecker basis,
    both exact for the truncated matrices. Imaginary parts, which vanish
    for the real squeezed states produced here, are dropped and their
    largest magnitude recorded in max_imag_discarded. The squeezing and
    Heisenberg entries use variances, so they remain meaningful for
    displaced states too.

    Raises ValueError when the state is not normalized: <psi|psi>,
    the Gram matrix's first entry, must be within NORM_TOL of 1.
    """
    images = _ladder_images(state.grid()).reshape(5, -1)
    gram = np.conj(images) @ images.T
    norm2 = gram[0, 0].real
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: <psi|psi> = {norm2!r}")
    values = _MOMENT_COEFFICIENTS @ gram.reshape(-1)
    tables: dict[str, dict[str, float]] = {"first": {}, "second": {}, "cross": {}}
    for (table, key), value in zip(_MOMENT_KEYS, values.real.tolist()):
        tables[table][key] = value
    first, second = tables["first"], tables["second"]
    variances = {quad: second[quad] - first[quad] * first[quad] for quad in first}
    return MomentTable(
        r=None,
        first=first,
        second=second,
        products={mode: math.sqrt(variances[f"X_{mode}"] * variances[f"Y_{mode}"])
                  for mode in MODE_KEYS},
        squeezing={quad: var - 0.5 for quad, var in variances.items()},
        cross=tables["cross"],
        max_imag_discarded=float(np.max(np.abs(values.imag))),
    )


def herald(state: TwoModeState, n_detected: int) -> HeraldResult:
    """Condition the phonon mode on detecting n_detected photons.

    Returns the normalized phonon number distribution and the herald
    probability. Raises ZeroProbability when the state assigns zero
    weight to that photon number, and ValueError when n_detected lies
    outside the truncated basis.
    """
    if not 0 <= n_detected < state.cutoff:
        raise ValueError("n_detected outside the truncated basis")
    joint = np.abs(state.grid()) ** 2
    probability = float(joint[n_detected, :].sum())
    if probability == 0.0:
        raise ZeroProbability(
            f"no amplitude on photon number {n_detected}")
    return HeraldResult(distribution=joint[n_detected, :] / probability,
                        probability=probability)
