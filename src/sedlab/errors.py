"""Exception hierarchy shared by all sedlab modules."""


class SedlabError(Exception):
    """Base class for all sedlab errors."""


class InvalidParams(SedlabError):
    """One or more parameter invariants are violated.

    Carries the full list of violations so a caller sees every problem at
    once, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NegativeFrequency(SedlabError):
    """Spectral densities are one-sided; omega must be >= 0."""


class ZeroFrequencyMomentum(SedlabError):
    """The canonical-momentum spectrum carries 1/omega^2 and is undefined at omega = 0."""


class QuadratureFailure(SedlabError):
    """Adaptive quadrature did not reach the requested accuracy."""


class GridTooCoarse(SedlabError):
    """Frequency lattice too coarse to resolve the resonance."""


class BurnInExceedsTrajectory(SedlabError):
    """The stationarity burn-in would discard the whole trajectory."""


class LagTooLong(SedlabError):
    """Requested lag exceeds the periodicity guard (series length / 10)."""


class WindowTooLong(SedlabError):
    """Energy window exceeds the guard (duration / 10)."""


class EmptySeries(SedlabError):
    """Statistic requested on an empty series."""


class UnknownScenario(SedlabError):
    """Scenario name not in the registry."""


class NonFiniteReport(SedlabError):
    """A report holds a NaN or infinity, which canonical JSON cannot carry."""
