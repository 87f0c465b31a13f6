"""Production technologies and the equal-allocation optimality check.

Two technologies are supported. With fixed productivity, output per worker is
concave in own capital. With the aggregate-capital spillover (the AK form),
returns are constant in aggregate capital but each household still faces a
concave private problem, because it takes the economy-wide mean capital as
given. That wedge between private and social marginal products is the whole
point of the endogenous regimes.

``household_production`` is the one home of a household's output and
marginal product: the solvers, the trajectory recorders, the CSV writer and
the allocation check all take them from it, on raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EconomyParams, Technology
from .errors import OutOfRange


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


@dataclass(frozen=True)
class AllocationCheck:
    """Result of the allocation search."""

    argmax: np.ndarray
    argmax_output: float
    equal_allocation: np.ndarray
    equal_output: float
    equal_minus_max: float
    grid_step: float


def equal_allocation_is_optimal(K: float, L: int, params: EconomyParams,
                                grid_step: float | None = None) -> AllocationCheck:
    """Locate the best grid allocation of K across L households.

    The grid step defaults to K / (100 * L) and is snapped to an exact
    divisor of K, giving N units. Output is strictly concave per household,
    so moving a unit from a household that holds at least two more than
    another raises it; the grid maxima are exactly the balanced
    compositions, in which N mod L households hold one unit more than the
    rest (marginal analysis, Fox 1966). They are permutations of one
    multiset, whose float sums can differ in the last bit, so ``argmax`` is
    the lexicographically first of them, [q] * (L - r) + [q + 1] * r with
    q, r = divmod(N, L), and ``argmax_output`` is its output summed in that
    order; each of its entries lies within one grid step of K / L. Only the
    fixed technology is covered: under AK the split is irrelevant for
    aggregate output at fixed spillover.
    """
    if not K > 0.0 or L < 1:
        raise OutOfRange("K" if L >= 1 else "L",
                         f"need K > 0 and L >= 1, got K={K!r}, L={L!r}")
    if grid_step is None:
        grid_step = K / (100.0 * L)
    if grid_step > K / (10.0 * L):
        raise OutOfRange(
            "grid_step", f"grid_step {grid_step} exceeds K/(10 L) = {K / (10.0 * L)}"
        )
    N = int(round(K / grid_step))
    step = K / N
    q, r = divmod(N, L)
    argmax = np.array([q] * (L - r) + [q + 1] * r) * step
    best_out = float(np.sum(
        household_production(argmax, None, params, Technology.EXOGENOUS)[0]))
    equal = np.full(L, K / L)
    equal_out = float(np.sum(
        household_production(equal, None, params, Technology.EXOGENOUS)[0]))
    return AllocationCheck(
        argmax=argmax,
        argmax_output=best_out,
        equal_allocation=equal,
        equal_output=equal_out,
        equal_minus_max=equal_out - best_out,
        grid_step=step,
    )
