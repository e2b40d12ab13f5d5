"""Closed-form statistics of the two-mode squeezed vacuum.

Quadratures are X = (o + o^dag)/sqrt(2), Y = -i (o - o^dag)/sqrt(2), so
every vacuum quadrature variance is 1/2 and squeezing parameters are
S = (Delta X)^2 - 1/2 (negative below vacuum). Besides the bare photon
mode a and phonon mode b, the table covers the mixed modes
c = (a - b)/sqrt(2) and d = (a + b)/sqrt(2), which carry the actual
squeezing of the pair state.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import require_finite, require_number

# exact by definition since the 2019 SI redefinition
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J / K

QUAD_KEYS = ("X_a", "Y_a", "X_b", "Y_b", "X_c", "Y_c", "X_d", "Y_d")
MODE_KEYS = ("a", "b", "c", "d")
CROSS_KEYS = ("n_a", "n_b", "n_c", "n_d", "ab", "adag_b", "a2", "b2", "c2", "d2")


@dataclass
class MomentTable:
    """Moments of a two-mode state, keyed by quadrature and mode labels.

    first and second hold <X> and <X^2> for the eight quadratures in
    QUAD_KEYS; products holds the Heisenberg products dX*dY per mode in
    MODE_KEYS; squeezing holds S = var - 1/2 per quadrature; cross holds
    the number and pair moments in CROSS_KEYS. Every table holds every
    key; analytic tables carry their r, numerical ones None.
    max_imag_discarded records the largest imaginary magnitude dropped
    when a numerical table was built (0 for analytic tables).
    """

    r: float | None
    first: dict[str, float]
    second: dict[str, float]
    products: dict[str, float]
    squeezing: dict[str, float]
    cross: dict[str, float]
    max_imag_discarded: float = 0.0


@dataclass(frozen=True)
class ThermalEnv:
    """Thermal environment of the phonon mode: frequency Omega (Hz),
    temperature in K, and phonon linewidth Gamma (Hz)."""

    Omega: float
    temperature: float
    Gamma: float

    def __post_init__(self) -> None:
        if not self.Omega > 0:
            raise ValueError("Omega must be positive")
        if not self.temperature >= 0:
            raise ValueError("temperature must be nonnegative")
        if not self.Gamma > 0:
            raise ValueError("Gamma must be positive")

    @property
    def quality(self) -> float:
        """Quality factor Q = Omega / Gamma. Raises PhysicsError where
        Q is beyond the float range (a Gamma below ~Omega * 5.6e-309)."""
        quality = self.Omega / self.Gamma
        require_finite("quality factors Omega/Gamma", quality)
        return quality


def pair_probability(r: float, n: int) -> float:
    """Probability of n photon-phonon pairs in the squeezed vacuum,
    P_n = tanh(r)^(2n) / cosh(r)^2. Geometric in n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    require_number("squeeze parameter r", r)
    try:
        return math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
    except OverflowError:  # cosh(r)^2 overflows; P_n is 0, as at r = inf
        return 0.0


def pair_tail(r: float, n_min: int) -> float:
    """Probability of n_min or more pairs. The geometric sum collapses
    to exactly tanh(r)^(2*n_min)."""
    if n_min < 0:
        raise ValueError("n_min must be nonnegative")
    require_number("squeeze parameter r", r)
    return math.tanh(r) ** (2 * n_min)


def full_moment_table(r: float) -> MomentTable:
    """All analytic moments of the squeezed vacuum at parameter r.

    The bare modes a and b each look thermal: <X^2> = <Y^2> = cosh(2r)/2,
    the Heisenberg product is 1/2 + sinh(r)^2 and both quadratures are
    antisqueezed by S = sinh(r)^2. The mixed modes c = (a-b)/sqrt(2) and
    d = (a+b)/sqrt(2) carry the squeezing: <X_c^2> = <Y_d^2> = exp(-2r)/2
    and <Y_c^2> = <X_d^2> = exp(+2r)/2, so each saturates the Heisenberg
    bound dX*dY = 1/2. All four mode populations equal sinh(r)^2; the only
    nonzero pair moments are <ab> = cosh(r) sinh(r) and the mixed-mode
    squeezes <c^2> = -<d^2> = -cosh(r) sinh(r). Raises PhysicsError
    where exp(2|r|)/2, the largest entry, overflows (|r| >~ 355).
    """
    require_number("squeeze parameter r", r)
    try:
        lo = 0.5 * math.exp(-2.0 * r)
        hi = 0.5 * math.exp(2.0 * r)
    except OverflowError:  # math.exp raises where * gives inf
        lo = hi = math.inf
    require_finite("squeezed-vacuum moments", lo, hi)
    var = 0.5 * math.cosh(2.0 * r)
    s2 = math.sinh(r) ** 2
    s_lo = 0.5 * math.expm1(-2.0 * r)
    s_hi = 0.5 * math.expm1(2.0 * r)
    cs = math.cosh(r) * math.sinh(r)
    return MomentTable(
        r=r,
        first=dict.fromkeys(QUAD_KEYS, 0.0),
        second={"X_a": var, "Y_a": var, "X_b": var, "Y_b": var,
                "X_c": lo, "Y_c": hi, "X_d": hi, "Y_d": lo},
        products={"a": var, "b": var,
                  "c": math.sqrt(lo * hi), "d": math.sqrt(hi * lo)},
        squeezing={"X_a": s2, "Y_a": s2, "X_b": s2, "Y_b": s2,
                   "X_c": s_lo, "Y_c": s_hi, "X_d": s_hi, "Y_d": s_lo},
        cross={"n_a": s2, "n_b": s2, "n_c": s2, "n_d": s2, "ab": cs,
               "adag_b": 0.0, "a2": 0.0, "b2": 0.0, "c2": -cs, "d2": cs},
    )


def worst(deviations: Iterable[float]) -> float:
    """The largest of deviations, or NaN if any is NaN.

    The builtin max keeps a NaN only in first place, since every
    comparison with NaN is False, so a NaN anywhere else would vanish.
    """
    values = list(deviations)
    return math.nan if any(map(math.isnan, values)) else max(values)


def table_deviation(left: MomentTable, right: MomentTable) -> float:
    """Largest absolute difference over every entry, matched by name, or
    NaN if any difference is NaN; an entry only one table holds raises
    KeyError instead of being skipped."""
    sections = [(getattr(left, name), getattr(right, name))
                for name in ("first", "second", "products", "squeezing", "cross")]
    for a, b in sections:
        if a.keys() != b.keys():
            raise KeyError(f"entries on one side only: {sorted(a.keys() ^ b.keys())}")
    return worst(abs(a[key] - b[key]) for a, b in sections for key in a)


def thermal_occupation(env: ThermalEnv) -> float:
    """Bose occupation of the phonon mode, 1/(exp(h*Omega/(kB*T)) - 1).

    Omega is an ordinary frequency, so the quantum of energy is
    h*Omega. Returns 0 for T = 0. Where x = h*Omega/(kB*T) is 0 or a
    subnormal below ~5.6e-309, the occupation ~1/x is beyond the float
    range and raises PhysicsError. An infinite Omega and T raise ValueError.
    """
    thermal_energy = BOLTZMANN_K * env.temperature
    if thermal_energy == 0.0:  # T = 0, or so small that kB*T underflows
        return 0.0
    x = PLANCK_H * env.Omega / thermal_energy
    require_number("h*Omega/(kB*T)", x)  # inf / inf
    if x > 700.0:
        # expm1 would overflow; the occupation is exp(-x) to this accuracy
        return math.exp(-x)
    occupation = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    require_finite("thermal occupation numbers", occupation)
    return occupation
