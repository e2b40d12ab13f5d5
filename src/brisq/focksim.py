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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import CutoffTooSmall, ZeroProbability
from .squeezing import CROSS_KEYS, MomentTable, pair_tail

CUTOFF_CAP = 128
TAIL_TOL = 1e-12
EDGE_TOL = 1e-10
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Two-mode Fock space with occupations 0..cutoff-1 per mode.

    The joint dimension is cutoff**2. Dense operators on the space cost
    8 * cutoff**4 bytes each; the cap keeps that bounded.
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
    """State vector over the row-major (n_a, n_b) basis."""

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
        return float(abs(self.grid()[n_a, n_b]) ** 2)


class LadderOperators(NamedTuple):
    """Dense two-mode ladder matrices in the row-major basis."""

    a: np.ndarray
    adag: np.ndarray
    b: np.ndarray
    bdag: np.ndarray


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
    keeps its edge amplitude below EDGE_TOL, capped at cutoff/2:
    squeezing stretches occupations by about exp(2r), so a fixed
    half-basis block would press against the truncation edge and the
    reflected flux would swamp the comparison."""

    alpha: float
    beta: float
    commutator: float
    block: int


def lowering_matrix(n: int) -> np.ndarray:
    """Single-mode lowering operator on n levels: a|k> = sqrt(k)|k-1>."""
    if n < 1:
        raise ValueError("need at least one level")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def ladder_operators(space: TruncatedFockSpace) -> LadderOperators:
    """Dense two-mode ladder operators a, a^dag, b, b^dag.

    Built as Kronecker products of the single-mode lowering matrix with
    the identity; [a, b^dag] = 0 exactly, and [a, a^dag] equals the
    identity except for the expected -(cutoff-1) entry in the highest
    photon row.
    """
    low = lowering_matrix(space.cutoff)
    eye = np.eye(space.cutoff)
    a = np.kron(low, eye)
    b = np.kron(eye, low)
    return LadderOperators(a=a, adag=a.T.copy(), b=b, bdag=b.T.copy())


def vacuum_state(space: TruncatedFockSpace) -> TwoModeState:
    amp = np.zeros(space.dim, dtype=complex)
    amp[0] = 1.0
    return TwoModeState(amplitudes=amp, cutoff=space.cutoff)


def fock_state(space: TruncatedFockSpace, n_a: int, n_b: int) -> TwoModeState:
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index(n_a, n_b)] = 1.0
    return TwoModeState(amplitudes=amp, cutoff=space.cutoff)


def choose_cutoff(r: float, flux_tol: float = math.inf) -> int:
    """Smallest cutoff n whose closed-form tail mass is below TAIL_TOL and
    whose top-level flux bound n * pair_tail(r, n - 1) is below flux_tol.

    The second bound is for moments measured on the truncated state:
    the raising shifts in measure_moments drop the flux of the highest
    kept level, which at small r outweighs the tail mass (cutoff 2 at
    r ~ 1e-4 leaves a tail of ~1e-16 but moments off by ~r^2).

    Raises CutoffTooSmall when no cutoff up to CUTOFF_CAP suffices.
    """
    t = math.tanh(abs(r))
    if t == 0.0:
        return 2
    if t >= 1.0:
        raise CutoffTooSmall(f"tanh(r) rounds to 1 at r = {r:g}")
    n = max(2, math.ceil(math.log(TAIL_TOL) / (2.0 * math.log(t))))
    while pair_tail(r, n) > TAIL_TOL:  # guard the ceil against rounding
        n += 1
    if n > CUTOFF_CAP:
        raise CutoffTooSmall(
            f"tail mass {TAIL_TOL:g} at r = {r:g} needs cutoff {n} > cap {CUTOFF_CAP}")
    while n * pair_tail(r, n - 1) > flux_tol:
        n += 1
        if n > CUTOFF_CAP:
            raise CutoffTooSmall(
                f"top-level flux {flux_tol:g} at r = {r:g} needs cutoff > cap {CUTOFF_CAP}")
    return n


def _require_tail(cutoff: int, r: float) -> None:
    tail = pair_tail(r, cutoff)
    if tail > TAIL_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} > {TAIL_TOL:g} "
            f"at r = {r:g}")


def _sector_block(r: float, size: int, na0: int, nb0: int) -> np.ndarray:
    """exp of the pair generator restricted to one n_a - n_b sector.

    In the sector basis |na0 + n, nb0 + n> the generator
    r (a^dag b^dag - a b) is antisymmetric bidiagonal with
    K[n+1, n] = r * sqrt((na0+n+1)(nb0+n+1)); its exponential is the
    exact restriction of the full squeeze operator.

    The exponential comes from one symmetric eigendecomposition. With T
    the symmetric tridiagonal matrix of the same off-diagonal entries and
    D = diag(i^n), K = D^-1 (i T) D, so exp(K) = D^-1 V exp(i W) V^T D
    for T = V W V^T. Signing the rows of V by s_n = (-1)^(n // 2) leaves
    that real: exp(K)[n, m] is (s V cos(W) V^T s)[n, m] where n - m is
    even and -/+ (s V sin(W) V^T s)[n, m] where n is even/odd and m is
    not. The phases are applied exactly, and no scaling and squaring
    amplifies rounding: at cutoff 128 and r = 1.43 a block agrees with
    a 40-digit evaluation to ~1e-14, where scipy's scaled-and-squared
    expm is off by ~1e-12.
    """
    ns = np.arange(size - 1)
    amp = r * np.sqrt((ns + na0 + 1.0) * (ns + nb0 + 1.0))
    # eigh reads the lower triangle only
    w, v = np.linalg.eigh(np.diag(amp, -1))
    v *= np.array((1.0, 1.0, -1.0, -1.0))[np.arange(size) % 4, None]
    out = (v * np.cos(w)) @ v.T
    sin = (v * np.sin(w)) @ v.T
    out[0::2, 1::2] = -sin[0::2, 1::2]
    out[1::2, 0::2] = sin[1::2, 0::2]
    return out


def squeeze_operator(space: TruncatedFockSpace, r: float) -> np.ndarray:
    """Dense two-mode squeeze operator exp(r (a^dag b^dag - a b)).

    The generator conserves n_a - n_b, so the matrix is assembled
    exactly from one matrix exponential per sector, which agrees with
    exp of the full dense generator to rounding but stays cheap at
    large cutoffs. The result is real orthogonal.

    Raises CutoffTooSmall when the closed-form tail mass of the
    squeezed vacuum at this r exceeds TAIL_TOL.
    """
    _require_tail(space.cutoff, r)
    n = space.cutoff
    out = np.zeros((space.dim, space.dim))
    for m in range(-(n - 1), n):
        size = n - abs(m)
        na0, nb0 = max(m, 0), max(-m, 0)
        idx = (np.arange(size) + na0) * n + (np.arange(size) + nb0)
        out[np.ix_(idx, idx)] = _sector_block(r, size, na0, nb0)
    return out


def squeezed_vacuum(space: TruncatedFockSpace, r: float) -> TwoModeState:
    """Squeeze operator applied to the two-mode vacuum.

    The vacuum lives in the n_a = n_b sector, so only that block of the
    operator is needed; the restriction is exact, not an approximation.
    """
    _require_tail(space.cutoff, r)
    n = space.cutoff
    column = _sector_block(r, n, 0, 0)[:, 0]
    amp = np.zeros(space.dim, dtype=complex)
    amp[(np.arange(n)) * n + np.arange(n)] = column
    return TwoModeState(amplitudes=amp, cutoff=n)


def _lower_a(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    out = np.zeros_like(grid)
    out[:-1, :] = np.sqrt(np.arange(1.0, n))[:, None] * grid[1:, :]
    return out


def _raise_a(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    out = np.zeros_like(grid)
    out[1:, :] = np.sqrt(np.arange(1.0, n))[:, None] * grid[:-1, :]
    return out


def _lower_b(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[1]
    out = np.zeros_like(grid)
    out[:, :-1] = np.sqrt(np.arange(1.0, n))[None, :] * grid[:, 1:]
    return out


def _raise_b(grid: np.ndarray) -> np.ndarray:
    n = grid.shape[1]
    out = np.zeros_like(grid)
    out[:, 1:] = np.sqrt(np.arange(1.0, n))[None, :] * grid[:, :-1]
    return out


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

    grid = pair_series(grid, -t, lambda y: _lower_a(_lower_b(y)))
    occupations = np.arange(n)
    weights = np.exp(-math.log(math.cosh(r))
                     * (occupations[:, None] + occupations[None, :] + 1.0))
    grid = weights * grid
    grid = pair_series(grid, t, lambda y: _raise_a(_raise_b(y)))
    return TwoModeState(amplitudes=grid.reshape(-1), cutoff=n)


def _conjugation_block(space: TruncatedFockSpace, r: float) -> int:
    """Largest count of leading Fock columns safe for conjugation checks.

    Column n of the n_a = n_b sector block is the squeezed |n, n>; its
    amplitude on the edge row measures how much truncation flux that
    column reflects back into the basis. At least the vacuum column is
    always used, so a too-small basis shows up as a large residual
    rather than as a hidden exemption.
    """
    edge = np.abs(_sector_block(r, space.cutoff, 0, 0)[-1, :])
    limit = 1
    while limit < space.cutoff // 2 and edge[limit] < EDGE_TOL:
        limit += 1
    return limit


def bogoliubov_check(space: TruncatedFockSpace, r: float) -> BogoliubovResiduals:
    """Conjugate the ladder operators with the squeeze matrix and compare
    against the hyperbolic mixing, on the edge-safe low-occupation block."""
    squeeze = squeeze_operator(space, r)
    ops = ladder_operators(space)
    c, s = math.cosh(r), math.sinh(r)
    n = space.cutoff
    limit = _conjugation_block(space, r)
    low = (np.arange(limit)[:, None] * n + np.arange(limit)[None, :]).reshape(-1)

    def low_max(matrix: np.ndarray) -> float:
        return float(np.max(np.abs(matrix[np.ix_(low, low)])))

    # squeeze is real orthogonal, so the adjoint is the transpose
    alpha = squeeze.T @ ops.a @ squeeze
    beta = squeeze.T @ ops.b @ squeeze
    return BogoliubovResiduals(
        alpha=low_max(alpha - (c * ops.a + s * ops.bdag)),
        beta=low_max(beta - (c * ops.b + s * ops.adag)),
        commutator=low_max(alpha @ beta.T - beta.T @ alpha),
        block=limit,
    )


def measure_moments(state: TwoModeState) -> MomentTable:
    """Quadrature, Heisenberg, squeezing, and pair moments of a state.

    Every entry is an expectation value <psi|O|psi> computed by applying
    the operators to the amplitude grid (elementwise identical to dense
    matrix products); no commutation relations are used. Imaginary
    parts, which vanish for the real squeezed states produced here, are
    dropped and their largest magnitude recorded in max_imag_discarded.
    The squeezing and Heisenberg entries use variances, so they remain
    meaningful for displaced states too.
    """
    grid = state.grid()
    worst_imag = 0.0

    def expect(bra: np.ndarray, ket: np.ndarray) -> float:
        nonlocal worst_imag
        value = np.vdot(bra, ket)
        worst_imag = max(worst_imag, abs(value.imag))
        return float(value.real)

    # each shift of the grid is elementwise identical to the dense
    # matrix-vector product; c = (a - b)/sqrt(2) and d = (a + b)/sqrt(2)
    # act through the a and b shifts, each taken once
    low_a, low_b = _lower_a(grid), _lower_b(grid)
    up_a, up_b = _raise_a(grid), _raise_b(grid)
    low_c, low_d = (low_a - low_b) / SQRT2, (low_a + low_b) / SQRT2
    # mode -> (lowered, raised) grid
    actions = {
        "a": (low_a, up_a),
        "b": (low_b, up_b),
        "c": (low_c, (up_a - up_b) / SQRT2),
        "d": (low_d, (up_a + up_b) / SQRT2),
    }
    first: dict[str, float] = {}
    second: dict[str, float] = {}
    products: dict[str, float] = {}
    squeezing: dict[str, float] = {}
    for mode, (down, up) in actions.items():
        x_grid = (down + up) / SQRT2
        y_grid = -1j * (down - up) / SQRT2
        variances = []
        for quad, acted in ((f"X_{mode}", x_grid), (f"Y_{mode}", y_grid)):
            mean = expect(grid, acted)
            raw = expect(acted, acted)
            first[quad] = mean
            second[quad] = raw
            variances.append(raw - mean * mean)
            squeezing[quad] = variances[-1] - 0.5
        products[mode] = math.sqrt(variances[0] * variances[1])

    cross = {
        "n_a": expect(low_a, low_a),
        "n_b": expect(low_b, low_b),
        "n_c": expect(low_c, low_c),
        "n_d": expect(low_d, low_d),
        "ab": expect(grid, _lower_a(low_b)),
        "adag_b": expect(low_a, low_b),
        "a2": expect(grid, _lower_a(low_a)),
        "b2": expect(grid, _lower_b(low_b)),
        "c2": expect(grid, (_lower_a(low_c) - _lower_b(low_c)) / SQRT2),
        "d2": expect(grid, (_lower_a(low_d) + _lower_b(low_d)) / SQRT2),
    }
    assert set(cross) == set(CROSS_KEYS)
    return MomentTable(
        r=None,
        first=first,
        second=second,
        products=products,
        squeezing=squeezing,
        cross=cross,
        max_imag_discarded=worst_imag,
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
