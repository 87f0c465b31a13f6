"""Exception hierarchy used across the package.

Every error raised on purpose is one of the five subclasses of
:class:`IneqLabError`, so callers (and the CLI) can distinguish
model/config problems from genuine bugs.

Each input fault is one :class:`OutOfRange` naming its field, raised by the
type or function that owns the bound: a parameter (``"dt"``, ``"alpha"``), a
growth condition or a solver's float fault (``"params"``), an all-zero
distribution (``"values"``), an unproductive input matrix
(``"input_matrix"``) or a scenario value of the wrong type (its key). A
boundary renames the field through :func:`named_by`: the scenario module to
the scenario key, the CLI to the option. A scenario line that is not
``key = value`` is a ParseError, and an operation asked of a regime it is
not defined in is WrongRegime.

A solve that truly fails raises ShootingFailed when no saddle path is found,
and StateLeftDomain when a market household's share of the mean's ride
leaves the positive domain.
"""

from contextlib import contextmanager


class IneqLabError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(IneqLabError):
    """An input violates a bound of its owner; ``field`` names it there."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"out of range: {field}")


class WrongRegime(IneqLabError):
    """Operation called for a regime it is not defined in."""


class StateLeftDomain(IneqLabError):
    """A household's share of a market's saddle ride reaches a non-positive
    holding or initial consumption."""


class ShootingFailed(IneqLabError):
    """Saddle-path search failed to find a path into the terminal band.

    The path did not arrive by the horizon, dt was too coarse for the
    solve, or the autarky spillover Newton solve did not converge within
    ``max_iterations`` or left the positive domain at every damping.
    """


class ParseError(IneqLabError):
    """Scenario document is not well-formed."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@contextmanager
def named_by(names: dict[str, str]):
    """Re-raise an OutOfRange of a field in ``names`` as an OutOfRange
    naming ``names[field]``: ``"name: message"``. A fault of any other
    field passes through unchanged."""
    try:
        yield
    except OutOfRange as exc:
        if exc.field not in names:
            raise
        raise OutOfRange(names[exc.field], f"{names[exc.field]}: {exc}") from exc
