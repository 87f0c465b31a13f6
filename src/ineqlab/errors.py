"""Exception hierarchy used across the package.

Every error raised on purpose derives from :class:`IneqLabError`, so callers
(and the CLI) can distinguish model/config problems from genuine bugs.

Each input fault is named once: the type or function that owns a bound
raises :class:`OutOfRange` naming its field (``"dt"``, ``"alpha"``), and
``core.float_guard`` names a solver's float fault ``"params"``. The
scenario module names the scenario key of that field, the CLI the option.
"""


class IneqLabError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(IneqLabError):
    """An input violates a bound of its owner; ``field`` names it there."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"out of range: {field}")


class GrowthConditionViolated(IneqLabError):
    """Sustained-growth requirement on productivity vs. discounting fails."""


class WrongRegime(IneqLabError):
    """Operation called for a regime it is not defined in."""


class NegativeBequest(IneqLabError):
    """The capital-market bequest formula produced a non-positive bequest."""


class StateLeftDomain(IneqLabError):
    """An integration step produced a non-positive holding or consumption."""


class ShootingFailed(IneqLabError):
    """Saddle-path search failed to find a path into the terminal band.

    The path did not arrive by the horizon, dt was too coarse for the
    solve, or the autarky spillover Newton solve did not converge within
    ``max_iterations`` or left the positive domain at every damping.
    """


class DecompositionInconsistent(IneqLabError):
    """Household asset paths of a market failed to aggregate back to the
    mean's saddle ride that they were split from."""


class NotProductive(IneqLabError):
    """Input-coefficient matrix has spectral radius >= 1."""


class AllZero(IneqLabError):
    """Distribution statistics are undefined for an all-zero vector."""


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
