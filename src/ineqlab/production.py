"""Production technologies and the equal-allocation optimality check.

Two technologies are supported. With fixed productivity, output per worker is
concave in own capital. With the aggregate-capital spillover (the AK form),
returns are constant in aggregate capital but each household still faces a
concave private problem, because it must treat the economy-wide average
``context_mean`` as given. That wedge between private and social marginal
products is the whole point of the endogenous regimes, so the view object
forces callers to freeze the average before evaluating private quantities.

``household_production`` is the one home of a household's output and
marginal product: the solvers, the trajectory recorders and the CSV writer
all take them from it, on raw arrays, and ``per_capita_output`` and
``mpk_private`` are its checked forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import EconomyParams, Technology, WealthDistribution
from .errors import GridTooCoarse, MissingContextMean, NonPositiveInput, WrongRegime


@dataclass(frozen=True)
class TechnologyView:
    """Parameters plus the frozen economy-wide mean capital.

    ``context_mean`` is required for per-household quantities under the AK
    technology (the spillover makes private productivity depend on the
    aggregate) and for the social marginal product under fixed technology.
    """

    params: EconomyParams
    technology: Technology
    context_mean: float | None = None

    def __post_init__(self):
        if self.context_mean is not None and not (self.context_mean > 0.0):
            raise NonPositiveInput("context_mean must be > 0")

    def _require_mean(self) -> float:
        if self.context_mean is None:
            raise MissingContextMean(
                "operation needs context_mean (economy-wide average capital)"
            )
        return self.context_mean


def aggregate_output(K: float, L: float, view: TechnologyView) -> float:
    """Economy-wide output from total capital K and total labor L."""
    if not (K > 0.0) or not (L > 0.0):
        raise NonPositiveInput("aggregate_output requires K > 0 and L > 0")
    p = view.params
    if view.technology is Technology.EXOGENOUS:
        return p.tfp * K ** p.alpha * L ** (1.0 - p.alpha)
    return p.tfp * K * L ** (1.0 - p.alpha)


def household_production(k, kbar, params: EconomyParams, technology: Technology,
                         market: bool = False):
    """(output, marginal product of own capital) of households holding ``k``.

    ``k`` and the economy-wide mean ``kbar`` are floats or arrays that
    broadcast; nothing is validated. Without ``market`` each household
    operates its own capital, and under the AK technology its productivity
    takes the spillover from ``kbar``, held fixed in the marginal product.
    With ``market`` every household operates ``kbar``, so both values are
    the mean's and shaped like ``kbar``, except that under AK the output is
    m kbar and the marginal product is the constant alpha m.
    """
    alpha = params.alpha
    if technology is Technology.ENDOGENOUS_AK:
        m = params.ak_scale()
        if market:
            return m * kbar, alpha * m
        return (m * kbar ** (1.0 - alpha) * k ** alpha,
                alpha * m * (kbar / k) ** (1.0 - alpha))
    if market:
        k = kbar
    return params.tfp * k ** alpha, alpha * params.tfp * k ** (alpha - 1.0)


def _checked_production(k_i, view: TechnologyView, caller: str):
    k = np.asarray(k_i, dtype=float)
    if np.any(k <= 0.0):
        raise NonPositiveInput(f"{caller} requires k_i > 0")
    kbar = (view._require_mean() if view.technology is Technology.ENDOGENOUS_AK
            else None)
    return household_production(k, kbar, view.params, view.technology)


def per_capita_output(k_i, view: TechnologyView):
    """Output of a household operating capital ``k_i``.

    Accepts a scalar or an ndarray of capital levels. Under the AK technology
    the spillover term uses the frozen ``context_mean``.
    """
    out, _ = _checked_production(k_i, view, "per_capita_output")
    return out if isinstance(k_i, np.ndarray) else float(out)


def mpk_private(k_i, view: TechnologyView):
    """Marginal return on own capital, aggregate spillover held fixed."""
    _, out = _checked_production(k_i, view, "mpk_private")
    return out if isinstance(k_i, np.ndarray) else float(out)


def mpk_social(view: TechnologyView) -> float:
    """Marginal product of aggregate capital.

    Constant under the AK technology; under fixed technology it equals the
    private marginal product evaluated at the mean.
    """
    p = view.params
    if view.technology is Technology.ENDOGENOUS_AK:
        return p.ak_scale()
    kbar = view._require_mean()
    return p.alpha * p.tfp * kbar ** (p.alpha - 1.0)


def allocation_output(dist: WealthDistribution, view: TechnologyView) -> float:
    """Total output when household i operates dist[i]."""
    return float(np.sum(per_capita_output(dist.as_array(), view)))


@dataclass(frozen=True)
class AllocationCheck:
    """Result of the brute-force allocation search."""

    argmax: np.ndarray
    argmax_output: float
    equal_allocation: np.ndarray
    equal_output: float
    equal_minus_max: float
    equal_is_argmax: bool
    grid_step: float


def _composition_outputs(N: int, L: int, step: float, tfp: float, alpha: float):
    """Yield (allocation_units, total_output) over positive grid allocations.

    Each head fixes the first L - 2 parts; the last two split what is left
    every way at once. Allocations come in lexicographic order.
    """
    for head in itertools.product(range(1, N), repeat=L - 2):
        rest = N - sum(head)
        if rest < 2:
            continue
        last = np.arange(1, rest)
        units = np.column_stack([np.tile(head, (rest - 1, 1)), last, rest - last])
        yield units, tfp * np.sum((units * step) ** alpha, axis=1)


def equal_allocation_is_optimal(K: float, L: int, view: TechnologyView,
                                grid_step: float | None = None) -> AllocationCheck:
    """Enumerate grid allocations of K across L households and locate the max.

    The grid step defaults to K / (100 * L) and is snapped to an exact divisor
    of K. Only defined for the fixed technology where returns diminish; under
    AK the split is irrelevant for aggregate output at fixed spillover.
    """
    if view.technology is not Technology.EXOGENOUS:
        raise WrongRegime("allocation check only meaningful under fixed technology")
    if not (K > 0.0) or L < 1:
        raise NonPositiveInput("need K > 0 and L >= 1")
    if grid_step is None:
        grid_step = K / (100.0 * L)
    if grid_step > K / (10.0 * L):
        raise GridTooCoarse(
            f"grid_step {grid_step} exceeds K/(10 L) = {K / (10.0 * L)}"
        )
    N = int(round(K / grid_step))
    step = K / N
    p = view.params

    best_units = None
    best_out = -np.inf
    if L == 1:
        best_units = np.array([N])
        best_out = p.tfp * K ** p.alpha
    else:
        for units, outs in _composition_outputs(N, L, step, p.tfp, p.alpha):
            i = int(np.argmax(outs))
            if outs[i] > best_out:
                best_out = float(outs[i])
                best_units = np.asarray(units[i]).reshape(-1)

    argmax = best_units * step
    equal = np.full(L, K / L)
    equal_out = float(p.tfp * np.sum(equal ** p.alpha))
    return AllocationCheck(
        argmax=argmax,
        argmax_output=best_out,
        equal_allocation=equal,
        equal_output=equal_out,
        equal_minus_max=equal_out - best_out,
        equal_is_argmax=bool(np.max(np.abs(argmax - K / L)) <= step + 1e-12),
        grid_step=step,
    )
