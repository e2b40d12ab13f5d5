"""Exception types and the two float gates shared across the package.
The Fock basis's cutoff gate lives with the basis, in focksim."""

import cmath
import math


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


def require_number(name: str, value: float) -> None:
    """ValueError naming a NaN argument, which passes every range check."""
    if math.isnan(value):
        raise ValueError(f"{name} = {value!r} is not a number")


def require_finite(what: str, *values: complex) -> None:
    """PhysicsError unless each value is finite (a complex one in both parts)."""
    if not all(map(cmath.isfinite, values)):
        raise PhysicsError(f"{what} overflow the float range")

