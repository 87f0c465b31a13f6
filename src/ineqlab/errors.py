"""Exception hierarchy used across the package.

Every error raised on purpose derives from :class:`IneqLabError`, so callers
(and the CLI) can distinguish model/config problems from genuine bugs.
"""


class IneqLabError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(IneqLabError):
    """A numeric field violates its documented bounds."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"out of range: {field}")


class GrowthConditionViolated(IneqLabError):
    """Sustained-growth requirement on productivity vs. discounting fails."""


class NonPositiveInput(IneqLabError):
    """A quantity that must be strictly positive is not."""


class MissingContextMean(IneqLabError):
    """An operation needs the economy-wide mean holding but none was set."""


class WrongRegime(IneqLabError):
    """Operation called for a regime it is not defined in."""


class NegativeBequest(IneqLabError):
    """The capital-market bequest formula produced a non-positive bequest."""


class GridTooCoarse(IneqLabError):
    """Allocation grid step too large relative to total capital."""


class ThetaZeroNoSteadyState(IneqLabError):
    """Exogenous continuous-time steady state diverges when theta = 0."""


class StateLeftDomain(IneqLabError):
    """An integration step produced a non-positive holding or consumption."""


class ShootingFailed(IneqLabError):
    """Saddle-path search failed to find a path into the terminal band.

    The path did not arrive by the horizon, dt was too coarse for the
    solve, or the autarky spillover Newton solve did not converge within
    ``max_iterations`` or left the positive domain at every damping.
    """


class DecompositionInconsistent(IneqLabError):
    """Household asset paths failed to aggregate back to the mean path."""


class NotProductive(IneqLabError):
    """Input-coefficient matrix has spectral radius >= 1."""


class AllZero(IneqLabError):
    """Distribution statistics are undefined for an all-zero vector."""


class WouldViolatePositivity(IneqLabError):
    """Requested transfer would push the donor to zero or below."""


class NotSpreadIncreasing(IneqLabError):
    """Transfer direction would reduce dispersion instead of raising it."""


class UnknownFigure(IneqLabError):
    """Figure name not in the reproducible set."""


class ParseError(IneqLabError):
    """Scenario document is not well-formed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(IneqLabError):
    """Scenario document is well-formed but semantically invalid."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"invalid value for {field}")
