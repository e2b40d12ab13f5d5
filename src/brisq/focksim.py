"""Truncated two-mode Fock-space oracle.

Everything the closed forms in this package predict can be cross-checked
here by building states and operators in a finite photon-phonon number
basis and measuring them with no analytic shortcuts: every expectation
value is <psi|O|psi> with O applied to the state vector.

Every builder takes the cutoff, the number of levels per mode, and a
TwoModeState carries it; require_cutoff is the one gate for it. Basis
ordering is row major over (n_a, n_b) with the phonon index n_b
fastest: index = n_a * cutoff + n_b. Truncation artifacts concentrate
near the edge n ~ cutoff, so operator identities are checked on the
low-occupation block n_a, n_b < cutoff/2; the closed-form tail mass
tanh(r)^(2*cutoff) bounds how much of the squeezed vacuum the basis
cannot hold.

A TwoModeState keeps the dtype of its amplitudes, promoted to at least
float64. The builders make real states, since the squeezed vacuum's
amplitudes are real, and everything downstream follows the state's
dtype: a real state is squeezed and measured in real arithmetic, a
complex one in complex arithmetic, on one code path.

measure_moments works on the band of sectors n_a - n_b a state
occupies, widened by one on each side, since every ladder operator
moves a sector by exactly one: the squeezed vacuum, on the n_a = n_b
diagonal, is measured on about 3 * cutoff points instead of cutoff**2.
The gather plan of each (cutoff, band) is memoized, at most
_PLAN_MEMO_BYTES (4 MB) of plans in all.
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

from .errors import CutoffTooSmall, ZeroProbability, require_number
from .squeezing import CROSS_KEYS, MODE_KEYS, QUAD_KEYS, MomentTable, pair_tail

CUTOFF_CAP = 128
DENSE_CAP = 48
TAIL_TOL = 1e-12
EDGE_TOL = 1e-10
NORM_TOL = 1e-10
SQRT2 = math.sqrt(2.0)
# sector spectra kept by _sector_spectrum: every sector of the largest
# cutoff, 2 * CUTOFF_CAP - 1 = 255 of them, fits at once
_SPECTRUM_MEMO = 256
# bytes of band plans kept by measure_moments: the squeezed vacuum's
# plans of every cutoff up to the cap and a dense plan at the cap fit
_PLAN_MEMO_BYTES = 4_000_000


def require_cutoff(cutoff: int) -> None:
    """The one cutoff gate: ValueError unless cutoff is an int in
    [2, CUTOFF_CAP].

    A basis of cutoff levels per mode has cutoff**2 states. A dense
    operator on it costs 8 * cutoff**4 bytes, 2.1 GB at CUTOFF_CAP, so
    the one dense builder, squeeze_operator, stops at DENSE_CAP, ~42 MB
    per matrix; everything else works sector by sector or on state
    vectors.
    """
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


@dataclass(frozen=True)
class TwoModeState:
    """State vector over the row-major (n_a, n_b) basis.

    The cutoff must pass require_cutoff; the amplitudes are taken as
    given, but measure_moments requires them normalized, <psi|psi> = 1
    to NORM_TOL. A numeric dtype is kept, promoted to at least float64:
    a real state stays float64 and is measured in real arithmetic, a
    complex one stays complex128. Other dtypes convert to complex128.
    """

    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self) -> None:
        require_cutoff(self.cutoff)
        amp = np.asarray(self.amplitudes)
        # a numeric dtype is kept, promoted to at least float64; anything
        # else, such as an object array, converts to complex128
        numeric = amp.dtype.kind in "biufc"
        amp = amp.astype(np.result_type(amp.dtype, float) if numeric else complex,
                         copy=False)
        if amp.shape != (self.cutoff * self.cutoff,):
            raise ValueError("amplitude vector does not match cutoff**2")
        object.__setattr__(self, "amplitudes", amp)

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


def squeezed_vacuum(cutoff: int, r: float) -> TwoModeState:
    """Squeeze operator applied to the two-mode vacuum.

    The vacuum lives in the n_a = n_b sector, so only column 0 of that
    sector's block is needed; the restriction is exact, not an
    approximation, and the column is formed without the block. Raises
    CutoffTooSmall and ValueError as squeeze_operator does, but has no
    dense cap.
    """
    require_cutoff(cutoff)
    n = cutoff
    _require_tail(n, r)
    u, wt, sin, versine = _sector_rotation(r, n, 0)
    # column 0 of _sector_block: e_0 - U (1 - cos rS) U[0] on the even
    # levels, U[0] sin(rS) W^T on the odd ones
    column = np.zeros(n)
    column[0] = 1.0
    column[0::2] -= u @ (versine * u[0])
    column[1::2] = (u[0, :wt.shape[0]] * sin) @ wt
    amp = np.zeros(n * n)
    amp[_sector_index(n, 0)] = column
    return TwoModeState(amplitudes=amp, cutoff=n)


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


def _band_plan(cutoff: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the five images psi, a psi, b psi, a^dag psi and b^dag psi
    of a state on the sectors n_a - n_b = lo..hi read it, and with what
    weight, on every basis point of sectors lo-1..hi+1 (a ladder moves a
    sector by exactly one, so no image reaches further).

    Returns (sources, weights), both (5, m): image k at the i-th point
    of the band is weights[k, i] * amplitudes[sources[k, i]]. Image k
    reads the level its occupation names, sqrt(level) its weight: psi
    reads itself with weight 1, a reads n_a + 1 with sqrt(n_a + 1), a^dag
    n_a - 1 with sqrt(n_a); a read outside the truncated basis (an
    occupation of 0 or cutoff) has weight 0 and source 0, so each image
    is elementwise the truncated Kronecker ladder matrix times the state.
    """
    n = cutoff
    n_a = np.arange(n)[:, None]
    n_b = n_a - np.arange(lo - 1, hi + 2)
    kept = (n_b >= 0) & (n_b < n)
    n_a, n_b = np.broadcast_to(n_a, n_b.shape)[kept], n_b[kept]
    occupation = np.stack([np.ones_like(n_a), n_a + 1, n_b + 1, n_a, n_b])
    inside = (occupation > 0) & (occupation < n)
    shift = np.array([[0], [n], [1], [-n], [-1]])
    sources = np.where(inside, n_a * n + n_b + shift, 0)
    weights = np.where(inside, np.sqrt(occupation), 0.0)
    for part in (sources, weights):
        part.flags.writeable = False
    return sources, weights


class _PlanMemo:
    """Band plans by (cutoff, lo, hi), least recently used first out,
    together at most budget bytes."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.size = 0
        self.plans: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, cutoff: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        key = (cutoff, lo, hi)
        plan = self.plans.pop(key, None)
        if plan is None:
            plan = _band_plan(cutoff, lo, hi)
            self.size += _plan_bytes(plan)
            while self.plans and self.size > self.budget:
                self.size -= _plan_bytes(self.plans.pop(next(iter(self.plans))))
        self.plans[key] = plan
        return plan

    def clear(self) -> None:
        self.plans.clear()
        self.size = 0


def _plan_bytes(plan: tuple[np.ndarray, np.ndarray]) -> int:
    return sum(part.nbytes for part in plan)


_band_plans = _PlanMemo(_PLAN_MEMO_BYTES)


def _moment_forms() -> tuple[tuple[tuple[str, str], ...], np.ndarray]:
    """Every first, second and cross moment as a bra/ket pair over the
    five images of _band_plan (psi, a psi, b psi, a^dag psi, b^dag psi),
    flattened to coefficients of the Gram matrix.

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
# the coefficient rows in table order: first and second entries by
# QUAD_KEYS, then cross entries by CROSS_KEYS
_TABLE_COEFFICIENTS = _MOMENT_COEFFICIENTS[
    [_MOMENT_KEYS.index(("first", quad)) for quad in QUAD_KEYS]
    + [_MOMENT_KEYS.index(("second", quad)) for quad in QUAD_KEYS]
    + [_MOMENT_KEYS.index(("cross", key)) for key in CROSS_KEYS]]


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

    The images live on the band of sectors n_a - n_b the state occupies,
    widened by one on each side, since every ladder moves a sector by
    exactly one: for a squeezed vacuum, on the n_a = n_b diagonal alone,
    the images and their Gram matrix cost O(cutoff), for a dense state
    O(cutoff**2); finding the band is one scan of a bool mask of the
    amplitudes. The images are gathered from the amplitudes through a plan memoized per (cutoff,
    band), at most _PLAN_MEMO_BYTES (4 MB) of plans in all: 80 bytes per
    band point, ~30 KB for a squeezed vacuum at cutoff 128 and ~1.3 MB
    for a dense state there. The images and the Gram matrix take the
    state's dtype, so a real state is measured in real arithmetic and
    .conj() copies nothing. Imaginary parts, which vanish for the real
    squeezed states produced here, are dropped and their largest
    magnitude recorded in max_imag_discarded. The squeezing and
    Heisenberg entries use variances, so they remain meaningful for
    displaced states too.

    Raises ValueError when the state is not normalized: <psi|psi>,
    the Gram matrix's first entry, must be within NORM_TOL of 1.
    """
    # n_a - n_b of every occupied basis point; nonzero() scans a bool
    # mask ~8x faster than the amplitudes themselves
    occupied, = state.amplitudes.astype(bool).nonzero()
    n_a, n_b = np.divmod(occupied, state.cutoff)
    sectors = n_a - n_b
    # an all-zero state gets an empty band and fails the norm check
    sources, weights = _band_plans(state.cutoff, int(sectors.min(initial=state.cutoff)),
                                   int(sectors.max(initial=-state.cutoff)))
    images = state.amplitudes[sources]
    images *= weights
    gram = images.conj() @ images.T
    norm2 = gram[0, 0].real
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: <psi|psi> = {norm2!r}")
    values = _TABLE_COEFFICIENTS @ gram.reshape(-1)
    entries = values.real.tolist()
    first, second, cross = entries[:8], entries[8:16], entries[16:]
    variances = [s - f * f for f, s in zip(first, second)]
    return MomentTable(
        r=None,
        first=dict(zip(QUAD_KEYS, first)),
        second=dict(zip(QUAD_KEYS, second)),
        # QUAD_KEYS pairs X and Y of each mode; math.sqrt refuses a negative
        products={mode: math.sqrt(x * y) for mode, x, y
                  in zip(MODE_KEYS, variances[0::2], variances[1::2])},
        squeezing={quad: var - 0.5 for quad, var in zip(QUAD_KEYS, variances)},
        cross=dict(zip(CROSS_KEYS, cross)),
        max_imag_discarded=float(abs(values.imag).max()),
    )


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
