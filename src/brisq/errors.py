"""Exception types shared across the package."""


class PhysicsError(Exception):
    """Base class for failures with a physical meaning (as opposed to
    malformed input). The CLI maps these to exit code 3."""


class NoSolution(PhysicsError):
    """Phase matching has no solution (degenerate dispersion, vg == va)."""


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
