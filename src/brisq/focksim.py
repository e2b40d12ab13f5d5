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
from .squeezing import CROSS_KEYS, MODE_KEYS, MomentTable, pair_tail

CUTOFF_CAP = 128
DENSE_CAP = 48
TAIL_TOL = 1e-12
EDGE_TOL = 1e-10
NORM_TOL = 1e-10
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Two-mode Fock space with occupations 0..cutoff-1 per mode.

    The joint dimension is cutoff**2. A dense operator on the space
    costs 8 * cutoff**4 bytes, 2.1 GB at CUTOFF_CAP, so the dense path
    (squeeze_operator, ladder_operators, bogoliubov_check) stops at
    DENSE_CAP, ~42 MB per matrix.
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


def _require_dense(space: TruncatedFockSpace) -> None:
    if space.cutoff > DENSE_CAP:
        raise ValueError(
            f"cutoff {space.cutoff} > {DENSE_CAP}: a dense operator would need "
            f"{8 * space.dim ** 2 / 1e6:.0f} MB")


def ladder_operators(space: TruncatedFockSpace) -> LadderOperators:
    """Dense two-mode ladder operators a, a^dag, b, b^dag.

    Built as Kronecker products of the single-mode lowering matrix
    a|k> = sqrt(k)|k-1> with the identity; [a, b^dag] = 0 exactly, and
    [a, a^dag] equals the identity except for the expected -(cutoff-1)
    entry in the highest photon row. Raises ValueError above DENSE_CAP.
    """
    _require_dense(space)
    low = np.diag(np.sqrt(np.arange(1.0, space.cutoff)), 1)
    eye = np.eye(space.cutoff)
    a = np.kron(low, eye)
    b = np.kron(eye, low)
    return LadderOperators(a=a, adag=a.T.copy(), b=b, bdag=b.T.copy())


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

    Raises CutoffTooSmall when no cutoff up to CUTOFF_CAP suffices.
    """
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


def _sector_block(r: float, size: int, na0: int, nb0: int) -> np.ndarray:
    """exp of the pair generator restricted to one n_a - n_b sector.

    In the sector basis |na0 + n, nb0 + n> the generator
    r (a^dag b^dag - a b) is antisymmetric bidiagonal with
    K[n+1, n] = r * sqrt((na0+n+1)(nb0+n+1)); its exponential is the
    exact restriction of the full squeeze operator.

    With T the symmetric tridiagonal matrix of the same off-diagonal
    entries and D = diag(i^n), K = D^-1 (i T) D, so
    exp(K)[n, m] = i^(m-n) (cos T + i sin T)[n, m]. T has a zero
    diagonal, so it only links even to odd levels: over the even and
    odd levels T = [[0, B], [B^T, 0]] with B the ceil(size/2) x
    floor(size/2) bidiagonal block. One SVD B = U S W^T then gives
    cos T = U cos(S) U^T on the even-even block (an extra left singular
    vector of an odd size has S = 0, so cos 0 = 1), W cos(S) W^T on the
    odd-odd block and sin T = U sin(S) W^T on the even-odd block. The
    phase i^(m-n) (times i on sin) is exactly s_n s_m, with an extra
    minus sign where n is even and m odd, for s_n = (-1)^(n // 2); it
    is applied by signing the rows of U and W, so the result is real and
    no scaling and squaring amplifies rounding: at cutoff 128 and
    r = 1.43 a block agrees with a 40-digit evaluation to ~5e-14, where
    scipy's scaled-and-squared expm is off by ~1.4e-12.
    """
    ns = np.arange(size - 1)
    amp = r * np.sqrt((ns + na0 + 1.0) * (ns + nb0 + 1.0))
    even, odd = (size + 1) // 2, size // 2
    block = np.zeros((even, odd))
    flat = block.reshape(-1)
    flat[::odd + 1] = amp[0::2]  # B[i, i] = T[2i, 2i + 1]
    flat[odd::odd + 1] = amp[1::2]  # B[i, i - 1] = T[2i, 2i - 1]
    u, sigma, wt = np.linalg.svd(block)
    # s_n is (-1)^i on the even level n = 2i and (-1)^j on the odd 2j + 1
    u[1::2] *= -1.0
    wt[:, 1::2] *= -1.0
    cos = np.ones(even)
    cos[:odd] = np.cos(sigma)
    out = np.empty((size, size))
    out[0::2, 0::2] = (u * cos) @ u.T
    out[1::2, 1::2] = (wt.T * cos[:odd]) @ wt
    sin = (u[:, :odd] * np.sin(sigma)) @ wt
    out[0::2, 1::2] = -sin
    out[1::2, 0::2] = sin.T
    return out


def squeeze_operator(space: TruncatedFockSpace, r: float) -> np.ndarray:
    """Dense two-mode squeeze operator exp(r (a^dag b^dag - a b)).

    The generator conserves n_a - n_b, so the matrix is assembled
    exactly from one matrix exponential per sector, which agrees with
    exp of the full dense generator to rounding but stays cheap at
    large cutoffs. The result is real orthogonal.

    Raises ValueError above DENSE_CAP, and CutoffTooSmall when the
    closed-form tail mass of the squeezed vacuum at this r exceeds
    TAIL_TOL.
    """
    _require_dense(space)
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
    amp[::n + 1] = column
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


def _conjugation_block(squeeze: np.ndarray, cutoff: int) -> int:
    """Largest count of leading Fock columns safe for conjugation checks.

    Column n of the n_a = n_b sector block is the squeezed |n, n>; its
    amplitude on the edge row |cutoff-1, cutoff-1>, the last row of the
    dense squeeze operator, measures how much truncation flux that
    column reflects back into the basis. At least the vacuum column is
    always used, so a too-small basis shows up as a large residual
    rather than as a hidden exemption.
    """
    edge = np.abs(squeeze[-1, ::cutoff + 1])
    limit = 1
    while limit < cutoff // 2 and edge[limit] < EDGE_TOL:
        limit += 1
    return limit


def bogoliubov_check(space: TruncatedFockSpace, r: float) -> BogoliubovResiduals:
    """Conjugate the ladder operators with the squeeze matrix and compare
    against the hyperbolic mixing, on the edge-safe low-occupation block."""
    squeeze = squeeze_operator(space, r)
    ops = ladder_operators(space)
    c, s = math.cosh(r), math.sinh(r)
    n = space.cutoff
    limit = _conjugation_block(squeeze, n)
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


def _ladder_images(grid: np.ndarray) -> np.ndarray:
    """psi, a psi, b psi, a^dag psi and b^dag psi as one (5, n, n) array.

    Each shift is elementwise identical to the dense matrix-vector
    product of ladder_operators, written straight into its slot.
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
