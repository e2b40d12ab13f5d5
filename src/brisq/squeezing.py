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
import operator
from collections.abc import Iterable

from ._record import FrozenRecord, Record, set_field
from .errors import require_finite, require_number, require_real

# exact by definition since the 2019 SI redefinition
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J / K

QUAD_KEYS = ("X_a", "Y_a", "X_b", "Y_b", "X_c", "Y_c", "X_d", "Y_d")
MODE_KEYS = ("a", "b", "c", "d")
CROSS_KEYS = ("n_a", "n_b", "n_c", "n_d", "ab", "adag_b", "a2", "b2", "c2", "d2")


# the layout of MomentTable.values: each section and its keys, in order
TABLE_LAYOUT = (("first", QUAD_KEYS), ("second", QUAD_KEYS), ("products", MODE_KEYS),
                ("squeezing", QUAD_KEYS), ("cross", CROSS_KEYS))
TABLE_SIZE = sum(len(keys) for _, keys in TABLE_LAYOUT)


def _section_slices() -> dict[str, slice]:
    slices, start = {}, 0
    for name, keys in TABLE_LAYOUT:
        slices[name] = slice(start, start + len(keys))
        start += len(keys)
    return slices


# each section's slice of MomentTable.values
TABLE_SLICES = _section_slices()


def _section(name: str) -> property:
    """MomentTable's section name: its slice of values as a fresh dict
    in key order."""
    keys, cells = dict(TABLE_LAYOUT)[name], TABLE_SLICES[name]
    return property(lambda table: dict(zip(keys, table.values[cells])))


class MomentTable(Record):
    """Moments of a two-mode state, as one tuple in TABLE_LAYOUT order.

    values holds TABLE_SIZE = 38 floats: <X> and <X^2> for the eight
    quadratures in QUAD_KEYS, the Heisenberg products dX*dY per mode in
    MODE_KEYS, S = var - 1/2 per quadrature, and the number and pair
    moments in CROSS_KEYS. The read-only properties first, second,
    products, squeezing and cross return each section as a fresh dict
    keyed by those labels. A values of any other length raises
    ValueError, so every table holds every entry. Analytic tables carry
    their r, numerical ones None. max_imag_discarded records the largest
    imaginary magnitude dropped when a numerical table was built (0 for
    analytic tables).
    """

    def __init__(self, r: float | None, values: tuple[float, ...],
                 max_imag_discarded: float = 0.0) -> None:
        if len(values) != TABLE_SIZE:
            raise ValueError(f"a moment table holds {TABLE_SIZE} values, "
                             f"not {len(values)}")
        self.r = r
        self.values = values
        self.max_imag_discarded = max_imag_discarded

    first = _section("first")
    second = _section("second")
    products = _section("products")
    squeezing = _section("squeezing")
    cross = _section("cross")


class ThermalEnv(FrozenRecord):
    """Thermal environment of the phonon mode: frequency Omega (Hz),
    temperature in K, and phonon linewidth Gamma (Hz)."""

    def __init__(self, Omega: float, temperature: float, Gamma: float) -> None:
        Omega, temperature, Gamma = map(require_real, self._fields,
                                        (Omega, temperature, Gamma))
        if not Omega > 0:
            raise ValueError("Omega must be positive")
        if not temperature >= 0:
            raise ValueError("temperature must be nonnegative")
        if not Gamma > 0:
            raise ValueError("Gamma must be positive")
        set_field(self, "Omega", Omega)
        set_field(self, "temperature", temperature)
        set_field(self, "Gamma", Gamma)

    @property
    def quality(self) -> float:
        """Quality factor Q = Omega / Gamma. Raises PhysicsError where
        Q is beyond the float range (a Gamma below ~Omega * 5.6e-309)."""
        quality = self.Omega / self.Gamma
        require_finite("quality factors Omega/Gamma", quality)
        return quality


def _require_order(name: str, n: int) -> None:
    """ValueError naming a pair order that is not a nonnegative whole
    number: tanh(r) ** (2 * n) is complex for a negative r and a
    fractional n. A bool is refused too, as every other gate refuses
    one, though Python counts it as a whole number."""
    if isinstance(n, bool) or not (n >= 0 and n % 1 == 0):  # a NaN or an infinity too
        raise ValueError(f"{name} must be nonnegative and whole, not {n!r}")


def pair_probability(r: float, n: int) -> float:
    """Probability of n photon-phonon pairs in the squeezed vacuum,
    P_n = tanh(r)^(2n) / cosh(r)^2. Geometric in n."""
    if not (type(n) is int and n >= 0 and r == r):  # else both gates pass
        _require_order("n", n)
        require_number("squeeze parameter r", r)
    try:
        return math.tanh(r) ** (2 * n) / math.cosh(r) ** 2
    except OverflowError:  # cosh(r)^2 overflows; P_n is 0, as at r = inf
        return 0.0


def pair_tail(r: float, n_min: int) -> float:
    """Probability of n_min or more pairs. The geometric sum collapses
    to exactly tanh(r)^(2*n_min)."""
    _require_order("n_min", n_min)
    require_number("squeeze parameter r", r)
    t = math.tanh(r)
    try:
        return t ** (2 * n_min)
    except OverflowError:  # an order beyond the float range: the power's limit
        return 1.0 if abs(t) == 1.0 else 0.0


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
    return MomentTable(r, (
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,  # first
        var, var, var, var, lo, hi, hi, lo,  # second
        var, var, math.sqrt(lo * hi), math.sqrt(hi * lo),  # products
        s2, s2, s2, s2, s_lo, s_hi, s_hi, s_lo,  # squeezing
        s2, s2, s2, s2, cs, 0.0, 0.0, 0.0, -cs, cs))  # cross


def worst(deviations: Iterable[float]) -> float:
    """The largest of deviations, or NaN if any is NaN.

    The builtin max keeps a NaN only in first place, since every
    comparison with NaN is False, so a NaN anywhere else would vanish.
    A NaN anywhere makes the sum NaN, and so do +inf and -inf together,
    so only a NaN sum is searched for a NaN.
    """
    values = list(deviations)
    if math.isnan(sum(values)) and any(map(math.isnan, values)):
        return math.nan
    return max(values)


def table_deviation(left: MomentTable, right: MomentTable) -> float:
    """Largest absolute difference over every entry, position by
    position in TABLE_LAYOUT, or NaN if any difference is NaN."""
    return worst(map(abs, map(operator.sub, left.values, right.values)))


def thermal_occupation(env: ThermalEnv) -> float:
    """Bose occupation of the phonon mode, 1/(exp(h*Omega/(kB*T)) - 1).

    Omega is an ordinary frequency, so the quantum of energy is
    h*Omega. Returns 0 for T = 0. Where x = h*Omega/(kB*T) is 0 or a
    subnormal below ~5.6e-309, the occupation ~1/x is beyond the float
    range and raises PhysicsError.
    """
    thermal_energy = BOLTZMANN_K * env.temperature
    if thermal_energy == 0.0:  # T = 0, or so small that kB*T underflows
        return 0.0
    x = PLANCK_H * env.Omega / thermal_energy
    if x > 700.0:
        # expm1 would overflow; the occupation is exp(-x) to this accuracy
        return math.exp(-x)
    occupation = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    require_finite("thermal occupation numbers", occupation)
    return occupation
