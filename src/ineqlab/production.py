"""Production technologies: a household's output and marginal product.

Two technologies are supported. With fixed productivity, output per worker is
concave in own capital. With the aggregate-capital spillover (the AK form),
returns are constant in aggregate capital but each household still faces a
concave private problem, because it takes the economy-wide mean capital as
given. That wedge between private and social marginal products is the whole
point of the endogenous regimes.

``household_production`` is the one home of a household's output and
marginal product, on raw arrays. The generation map calls it once a
generation, and each solver once on the rows it records, for their output
and rates; ``metrics.record_trajectory`` records what the solver passes,
and the CSV writer reads the recorded output. Output is strictly concave in own
capital, so under fixed technology an equal split of a capital stock yields
the most output of any split.
"""

from __future__ import annotations

from .core import EconomyParams, Technology


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
