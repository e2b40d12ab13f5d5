"""Exception types and the three float gates shared across the package.
The Fock basis's cutoff gate lives with the basis, in focksim."""

import cmath
import math

_FLOAT_MAX = 1.7976931348623157e308  # sys.float_info.max


class PhysicsError(Exception):
    """Base class for failures with a physical meaning (as opposed to
    malformed input). The CLI maps these to exit code 3."""


class DegenerateLinewidth(PhysicsError):
    """u + gamma/2 == 0: the driven pump mode has no steady state."""


class Unstable(PhysicsError):
    """Pair coupling reaches or exceeds the mean mode frequency; the
    Bogoliubov spectrum is complex and no squeezed ground state exists."""


class CutoffTooSmall(PhysicsError):
    """Requested Fock-space truncation cannot hold the state at the
    required tail tolerance."""


class ZeroProbability(PhysicsError):
    """Heralding on an outcome the state assigns zero probability."""


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input, or an output file the
    CLI cannot write. CLI exit code 2."""


def require_real(name: str, value: object) -> float:
    """value as a finite float; ValueError naming the field for a bool, any
    other non-number, a NaN, an infinity or an int beyond the float range."""
    if type(value) is float and value - value == 0.0:  # finite: inf - inf is NaN
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # an int compares exactly
        raise ValueError(f"{name}: {value!r} is not a finite number")
    return float(value)


def require_number(name: str, value: float) -> None:
    """ValueError naming a NaN argument, which passes every range check."""
    if math.isnan(value):
        raise ValueError(f"{name} = {value!r} is not a number")


def require_finite(what: str, *values: complex) -> None:
    """PhysicsError unless each value is finite (a complex one in both parts)."""
    if not all(map(cmath.isfinite, values)):
        raise PhysicsError(f"{what} overflow the float range")

