"""Continuous-time dynasty models: Euler growth, RK4, saddle-path solvers.

The four benchmarks share one state layout, per-household (holding,
consumption) pairs, but differ in how holdings feed production:

* capital market: every household operates the economy-wide mean; the
  interest rate is the marginal product at that mean, and asset drift is
  wage income plus interest minus consumption;
* autarky: each household farms its own capital.

The market economy with the spillover technology is on its balanced path
from t = 0, so it is written down in closed form: the interest rate is
constant, and every household's holding and consumption grow at the common
rate g from levels fixed by its budget. Under fixed technology, an autarky
household and the aggregate of a market economy obey the same 2-D system,
whose stable manifold is one policy c = phi(k). It is computed once per
solve by time elimination (integrating dc/dk outward from the steady state),
and every path then rides the 1-D equation k' = f(k) - phi(k), all
households as one vector. A fixed-technology market economy decomposes into
household asset paths that are linear in the aggregate prices, and each
household's consumption gap solves a linear equation. The autarky spillover
case needs a genuinely multidimensional search: multiple shooting, one
Newton solve over every segment of [0, T] at once, with the Jacobian from
the variational equations integrated alongside the state. Equal autarky
households are on the balanced ray from t = 0 and take the market's closed
form. Every integration is the one RK4 step ``rk4_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    RAMSEY_AUTARKY_EXOG,
    EconomyParams,
    Regime,
    SteadyState,
    Trajectory,
    WealthDistribution,
    check_population,
    validate_params,
)
from .errors import (
    DecompositionInconsistent,
    NonPositiveInput,
    ShootingFailed,
    StateLeftDomain,
    ThetaZeroNoSteadyState,
    WrongRegime,
)
from .metrics import coefficient_of_variation, gini, ratio_max_min
from .production import household_production

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ShootingConfig:
    """Solver controls for saddle-path shooting.

    ``horizon`` caps the solved path's time; None picks a per-regime
    default. Fixed-technology and autarky spillover paths stop on arrival,
    so a long cap costs nothing there, and a path that has not arrived by
    the cap raises ShootingFailed. A spillover path that starts on its ray
    is recorded over the whole horizon. ``terminal_band`` is the relative
    distance from the steady state (or balanced ray) that counts as
    arrival. ``max_iterations`` caps the Newton iterations of the autarky
    spillover solve. ``record_stride`` keeps every n-th step of the
    recorded path, plus its last.
    """

    horizon: float | None = None
    dt: float = 1e-2
    max_iterations: int = 200
    terminal_band: float = 1e-4
    record_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.terminal_band < math.inf):
            raise NonPositiveInput("dt and terminal_band must be finite and > 0")
        if self.horizon is not None and not (self.dt < self.horizon < math.inf):
            raise NonPositiveInput("horizon must be finite and exceed dt")
        if self.max_iterations < 1 or self.record_stride < 1:
            raise NonPositiveInput("max_iterations and record_stride must be >= 1")


# ---------------------------------------------------------------------------
# vector field


def ramsey_rhs(k: np.ndarray, c: np.ndarray, params: EconomyParams,
               regime: Regime):
    """Time derivatives (dk, dc) of per-household holdings and consumption.

    ``k`` and ``c`` are arrays with one entry per household; nothing is
    validated. Under a capital market a household earns the wage, labour's
    share of the mean's output, plus interest on its own assets; under
    autarky it keeps its own output. Consumption grows at the Euler rate
    (mpk - theta) / gamma, which a market sets from the mean.
    """
    y, mpk = household_production(k, k.sum() / k.size, params,
                                  regime.technology, regime.is_market)
    if regime.is_market:
        dk = (1.0 - params.alpha) * y + mpk * k - c
    else:
        dk = y - c
    return dk, ((mpk - params.theta) / params.gamma) * c


def rk4_step(f, x, y, h):
    """One classical RK4 step of y' = f(x, y), on floats or arrays."""
    d1 = f(x, y)
    d2 = f(x + 0.5 * h, y + 0.5 * h * d1)
    d3 = f(x + 0.5 * h, y + 0.5 * h * d2)
    d4 = f(x + h, y + h * d3)
    return y + (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


def ramsey_steady_state(params: EconomyParams, regime: Regime) -> SteadyState:
    """Long-run target of the dynasty models.

    Fixed technology: capital where the private return equals the discount
    rate. Endogenous technology: balanced growth at (alpha tfp L**(1-alpha)
    - theta) / gamma; the transformation rule r = theta + gamma g holds by
    construction.
    """
    validate_params(params, regime)
    if regime.is_olg:
        raise WrongRegime("ramsey_steady_state requires a Ramsey regime")
    if regime.is_endogenous:
        m = params.ak_scale()
        r_star = params.alpha * m
        g_star = (r_star - params.theta) / params.gamma
        return SteadyState(
            holding_star=None,
            growth_star=g_star,
            interest_star=r_star,
            regime=regime,
        )
    if params.theta == 0.0:
        raise ThetaZeroNoSteadyState(
            "with theta = 0 the fixed-technology target capital diverges"
        )
    k_star = (params.alpha * params.tfp / params.theta) ** (1.0 / (1.0 - params.alpha))
    c_star = params.tfp * k_star ** params.alpha
    return SteadyState(
        holding_star=k_star,
        growth_star=0.0,
        interest_star=params.theta,
        regime=regime,
        consumption_star=c_star,
    )


# ---------------------------------------------------------------------------
# fixed technology: one saddle policy c = phi(k) for every autarky household
# and for the aggregate of a market economy

_POLICY_STEPS = 500  # RK4 steps in log k on either side of k*
_POLICY_REFINE = 40  # table points per step
_POLICY_MARGIN = 0.05  # in log k, beyond the starts and k*
_CHUNK = 4096  # table points per vectorised RK4 step
_ARRIVAL_BLOCK = 64  # ride rows per arrival test


@dataclass(frozen=True)
class _Policy:
    """The saddle policy of a fixed-technology economy, tabulated for one dt.

    ``consumption`` holds phi at the capital levels in ``grid``, and
    ``step`` the RK4 map of k' = f(k) - phi(k) over one dt there, so one
    step of a ride is one np.interp call for all households at once.
    ``lam_s`` is the stable root at the steady state (k*, c*).
    """

    k_star: float
    c_star: float
    lam_s: float
    grid: np.ndarray
    consumption: np.ndarray
    step: np.ndarray


def _saddle_policy(params: EconomyParams, k0: np.ndarray, dt: float) -> _Policy:
    """Tabulate c = phi(k) over [min(k0, k*), max(k0, k*)] and a margin.

    Time elimination: on the saddle path dc/dk = c (f'(k) - theta) /
    (gamma (f(k) - c)), and in u = log k, as k f'(k) = alpha f(k),
    dc/du = c (alpha f - theta k) / (gamma (f - c)). RK4 in u runs outward
    from (k*, c*) on either side. The first node comes from the manifold's
    Taylor expansion at k*, whose slope is theta - lam_s for the stable
    root lam_s of lam^2 - theta lam + c* f''(k*) / gamma. Run outward, the
    unstable root pulls neighbouring curves onto the manifold, so an early
    error dies out. The nodes and their exact slopes give a cubic Hermite
    interpolant, sampled _POLICY_REFINE times per step for np.interp.
    """
    A, alpha, theta, gamma = params.tfp, params.alpha, params.theta, params.gamma
    target = ramsey_steady_state(params, RAMSEY_AUTARKY_EXOG)
    k_star, c_star = target.holding_star, target.consumption_star
    f2 = alpha * (alpha - 1.0) * A * k_star ** (alpha - 2.0)
    f3 = (alpha - 2.0) * f2 / k_star
    lam_s = 0.5 * (theta - math.sqrt(theta * theta - 4.0 * c_star * f2 / gamma))
    s = theta - lam_s
    # phi''(k*): differentiate phi' (f - phi) = phi (f' - theta) / gamma twice
    q = ((2.0 * s * f2 + c_star * f3) / gamma - s * f2) / (3.0 * lam_s - theta)

    def slope(u, c):
        k = math.exp(u)
        y = A * k ** alpha
        return c * (alpha * y - theta * k) / (gamma * (y - c))

    u_star = math.log(k_star)
    ends = (math.log(min(float(k0.min()), k_star)) - _POLICY_MARGIN,
            math.log(max(float(k0.max()), k_star)) + _POLICY_MARGIN)
    t = np.arange(_POLICY_REFINE) / _POLICY_REFINE
    hermite = np.array([(1.0 + 2.0 * t) * (1.0 - t) ** 2, t * (1.0 - t) ** 2,
                        t * t * (3.0 - 2.0 * t), t * t * (t - 1.0)])
    grid, consumption = [], []
    for end in ends:
        h = (end - u_star) / _POLICY_STEPS
        d = k_star * math.expm1(h)
        c = c_star + d * (s + 0.5 * q * d)
        nodes = [(c_star, s * k_star), (c, slope(u_star + h, c))]
        for i in range(1, _POLICY_STEPS):
            c = rk4_step(slope, u_star + i * h, c, h)
            nodes.append((c, slope(u_star + (i + 1) * h, c)))
        C, D = np.array(nodes[::-1] if h < 0.0 else nodes).T
        h = abs(h)
        left = np.arange(_POLICY_STEPS) + t[:, None]
        grid.append(np.exp(min(end, u_star) + h * left.T).ravel())
        consumption.append((np.column_stack(
            [C[:-1], h * D[:-1], C[1:], h * D[1:]]) @ hermite).ravel())
    # the upper side's last node closes the table
    grid = np.concatenate(grid + [[math.exp(ends[1])]])
    consumption = np.concatenate(consumption + [C[-1:]])

    def drift(_, k):
        return A * k ** alpha - np.interp(k, grid, consumption)

    # in chunks: whole-grid temporaries raised the process's peak memory
    step = np.concatenate([rk4_step(drift, 0.0, grid[i:i + _CHUNK], dt)
                           for i in range(0, grid.size, _CHUNK)])
    if step.min() < grid[0] or step.max() > grid[-1]:
        raise ShootingFailed(f"dt={dt} overshoots the saddle policy; take a smaller dt")
    return _Policy(k_star, c_star, lam_s, grid, consumption, step)


def _ride(policy: _Policy, k0: np.ndarray, n_steps: int,
          arrival=(math.inf, -math.inf)) -> np.ndarray:
    """Capital rows of k' = f(k) - phi(k) from k0, one column per household.

    Stops at the first row whose entries all lie in the ``arrival``
    interval (lo, hi); by default it takes all n_steps. Arrival is tested
    once per block of _ARRIVAL_BLOCK rows, and the block is cut at its
    first arrived row.
    """
    lo, hi = arrival
    grid, step = policy.grid, policy.step
    k = k0
    blocks = [k0[None]]
    for start in range(0, n_steps, _ARRIVAL_BLOCK):
        rows = []
        for _ in range(min(_ARRIVAL_BLOCK, n_steps - start)):
            k = np.interp(k, grid, step)
            rows.append(k)
        block = np.stack(rows)
        arrived = np.flatnonzero((lo <= block.min(axis=1)) & (block.max(axis=1) <= hi))
        if arrived.size:
            blocks.append(block[:arrived[0] + 1])
            break
        blocks.append(block)
    return np.concatenate(blocks)


def _ride_into_band(k0: np.ndarray, params: EconomyParams, config: ShootingConfig):
    """Ride the saddle policy from k0 into the terminal band; (times, K, C)."""
    policy = _saddle_policy(params, k0, config.dt)
    k_star, c_star, band = policy.k_star, policy.c_star, config.terminal_band
    # phi rises through (k*, c*), so the band in (k, c) is an interval of k
    k_lo, k_hi = np.interp([c_star * (1.0 - band), c_star * (1.0 + band)],
                           policy.consumption, policy.grid)
    lo, hi = max(k_star * (1.0 - band), k_lo), min(k_star * (1.0 + band), k_hi)
    T = config.horizon
    if T is None:
        # deviations shrink like e^(lam_s t) near k*; the ride stops on
        # arrival, so allowing twice that time costs nothing
        reach = min(hi - k_star, k_star - lo)
        dev = max(float(np.max(np.abs(k0 - k_star))), reach)
        T = 2.0 * (math.log(dev / reach) + 1.0) / -policy.lam_s
    K = _ride(policy, k0, int(round(T / config.dt)), (lo, hi))
    if not (lo <= K[-1].min() and K[-1].max() <= hi):
        raise ShootingFailed(
            f"no arrival in the terminal band by horizon {T}; "
            f"widen the horizon or the band"
        )
    times = config.dt * np.arange(K.shape[0])
    return times, K, np.interp(K, policy.grid, policy.consumption)


def _ramsey_trajectory(times, K, C, params, regime, note=""):
    n = times.shape[0]
    mean_holding = K.mean(axis=1)
    y, mpk = household_production(K, mean_holding[:, None], params,
                                  regime.technology, regime.is_market)
    # a market's (T, 1) column, or its AK constant, is the mean's
    r = np.broadcast_to(mpk, y.shape).mean(axis=1)
    if regime.is_market:
        growth = (r - params.theta) / params.gamma
    else:
        rates = (mpk - params.theta) / params.gamma
        growth = (rates * C).sum(axis=1) / C.sum(axis=1)
    return Trajectory(
        times=times,
        holdings=K,
        consumption=C,
        mean_holding=mean_holding,
        mean_output=y.mean(axis=1),
        interest=r,
        growth=growth,
        gini=np.array([gini(K[i]) for i in range(n)]),
        cv=np.array([coefficient_of_variation(K[i]) for i in range(n)]),
        ratio_max_min=np.array([ratio_max_min(K[i]) for i in range(n)]),
        regime=regime,
        converged=True,
        note=note,
    )


# ---------------------------------------------------------------------------
# autarky, fixed technology: independent household saddles


def _shoot_autarky_exog(dist0, params, regime, config):
    times, K, C = _ride_into_band(dist0.as_array(), params, config)
    return _ramsey_trajectory(times, K, C, params, regime)


# ---------------------------------------------------------------------------
# market regimes: the spillover economy in closed form; fixed technology as
# an aggregate saddle plus a linear household decomposition


def _balanced_path(a0, params, regime, config):
    """The closed-form path of a spillover economy that is on its ray at t = 0.

    Under a capital market r = alpha m is constant, so every household is
    on its balanced path from t = 0: a_i = a_i0 e^(gt), c_i = c_i0 e^(gt),
    with c_i0 the wage plus the interest on a_i0 beyond what growth
    retains. Equal autarky households farm the mean, so their path is the
    same, with c_i0 = mu a_i0.
    """
    m = params.ak_scale()
    r = params.alpha * m
    g = (r - params.theta) / params.gamma
    # the default horizon is the one a float64 shot could hold the ray
    # for; it is kept so that the recorded rows stay the same
    T = config.horizon if config.horizon is not None else max(
        2.0, math.log(config.terminal_band / (256.0 * _EPS)) / (m - g))
    times = np.arange(int(round(T / config.dt)) + 1) * config.dt
    growth = np.exp(g * times)[:, None]
    c0 = (1.0 - params.alpha) * m * float(a0.mean()) + (r - g) * a0
    return _ramsey_trajectory(times, growth * a0, growth * c0, params,
                              regime, note="closed-form balanced path")


def _shoot_market(dist0, params, regime, config):
    a0 = dist0.as_array()
    if regime.is_endogenous:
        return _balanced_path(a0, params, regime, config)

    kbar0 = float(a0.mean())
    times, K, C = _ride_into_band(np.array([kbar0]), params, config)
    aggregate = _ramsey_trajectory(times, K, C, params, regime,
                                   note="aggregate (per-capita) path")
    if len(dist0) == 1:
        return aggregate
    return market_decompose(aggregate, dist0, params, regime)


def market_decompose(aggregate: Trajectory, a0: WealthDistribution,
                     params: EconomyParams, regime: Regime) -> Trajectory:
    """Expand a fixed-technology aggregate market path into household paths.

    The aggregate is ridden again from its initial capital on its own grid,
    along the same saddle policy; it must match that ride, or
    DecompositionInconsistent is raised. Each household consumes its own
    initial level grown by the common factor; its assets obey the linear
    equation da = wage + r a - c. Working in
    deviations from the aggregate, a_i = kbar + phi * (a_i0 - kbar0) -
    (c_i0 - cbar0) * pg, the initial consumption gap of each household is
    the root of a linear equation: it makes the deviation's drift vanish at
    the end of the path, which kills its growing mode. Deviations are
    mean-zero by construction, so the household paths must aggregate back
    to the mean path; failure raises DecompositionInconsistent. The
    spillover market needs no decomposition (its path is in closed form)
    and raises WrongRegime.
    """
    validate_params(params, regime)
    if regime.is_olg or not regime.is_market or regime.is_endogenous:
        raise WrongRegime(
            "market_decompose requires the fixed-technology Ramsey "
            "capital-market regime"
        )
    if len(aggregate.times) < 2:
        raise DecompositionInconsistent("aggregate trajectory too short")
    a = a0.as_array()
    kbar0 = float(aggregate.mean_holding[0])
    if abs(float(a.mean()) - kbar0) > 1e-10 * max(1.0, kbar0):
        raise DecompositionInconsistent(
            "mean of household assets does not match the aggregate initial capital"
        )
    dt = float(aggregate.times[1] - aggregate.times[0])
    steps = np.diff(aggregate.times)
    if not np.allclose(steps, dt, rtol=0.0, atol=1e-12 * max(dt, 1.0)):
        raise DecompositionInconsistent("aggregate trajectory must use a uniform grid")
    # re-ride the aggregate on its own grid; it must be the saddle path
    policy = _saddle_policy(params, np.array([kbar0]), dt)
    k_path = _ride(policy, np.array([kbar0]), len(aggregate.times) - 1)[:, 0]
    c_path = np.interp(k_path, policy.grid, policy.consumption)
    gap = max(np.max(np.abs(aggregate.mean_holding / k_path - 1.0)),
              np.max(np.abs(aggregate.consumption[:, 0] / c_path - 1.0)))
    if gap > 1e-8:
        raise DecompositionInconsistent(
            f"aggregate is not the saddle path from its initial capital "
            f"(max relative gap {gap:.3e})"
        )
    cbar0 = float(c_path[0])
    growth_factor = c_path / cbar0
    phi, pg = _aggregate_bases(policy, params, k_path, cbar0, dt)

    # terminal drift of the deviation, dc G_T - r_T (phi_T da - dc pg_T),
    # is zero at this consumption gap
    r_T = params.alpha * params.tfp * k_path[-1] ** (params.alpha - 1.0)
    G_T, phi_T, pg_T = growth_factor[-1], phi[-1], pg[-1]
    dc = r_T * phi_T * (a - kbar0) / (G_T + r_T * pg_T)

    c0 = cbar0 + dc
    if np.any(c0 <= 0.0):
        raise StateLeftDomain(
            "a household initial consumption left the positive domain"
        )
    assets = k_path[:, None] + np.outer(phi, a - kbar0) - np.outer(pg, dc)
    consumption = np.outer(growth_factor, c0)
    if np.any(assets <= 0.0):
        raise StateLeftDomain(
            "a household asset path left the positive domain during decomposition"
        )
    agg_err = np.max(np.abs(assets.mean(axis=1) - k_path) / np.abs(k_path))
    if agg_err > 1e-8:
        raise DecompositionInconsistent(
            f"household paths do not aggregate to the mean path "
            f"(max relative error {agg_err:.3e})"
        )
    return _ramsey_trajectory(
        aggregate.times, assets, consumption, params, regime,
        note="household decomposition of the aggregate path",
    )


def _aggregate_bases(policy, params, k_path, cbar0, dt):
    """The decomposition's bases phi and pg along the aggregate's ride.

    They solve phi' = r phi with phi(0) = 1, and pg' = r pg + c / cbar0 with
    pg(0) = 0, where r and c follow the aggregate k, all three by RK4 at dt.
    Both equations are linear, so one step maps (phi, pg) to (M phi,
    M pg + N): one RK4 step of every row at once, from phi = 1 and pg = 0,
    gives M and N, and the bases are then a running product and sum.
    """
    A, alpha = params.tfp, params.alpha

    def joint(_, z):
        k, phi, pg = z
        c = np.interp(k, policy.grid, policy.consumption)
        r = alpha * A * k ** (alpha - 1.0)
        return np.array([A * k ** alpha - c, r * phi, r * pg + c / cbar0])

    n = k_path.size - 1
    start = np.array([k_path[:-1], np.ones(n), np.zeros(n)])
    _, M, N = rk4_step(joint, 0.0, start, dt)
    phi = np.concatenate([[1.0], np.cumprod(M)])
    return phi, phi * np.concatenate([[0.0], np.cumsum(N / phi[1:])])


# ---------------------------------------------------------------------------
# autarky with spillover: multiple shooting by Newton with exact Jacobians

_NEWTON_TOL = 1e-12  # on the detrended matching and terminal residuals
_MIN_DAMPING = 2.0 ** -30  # smallest Newton step fraction tried


def _asym_rates(params: EconomyParams):
    """Linearised rates around the equalised balanced ray.

    Returns (mu, lam_plus, lam_minus, slope) where x' = a11 x - mu u and
    u' = -q x describe a household's relative capital x and consumption u,
    and slope maps x onto the stable manifold: u = slope * x.
    """
    m = params.ak_scale()
    alpha, gamma, theta = params.alpha, params.gamma, params.theta
    g = (alpha * m - theta) / gamma
    mu = m - g
    a11 = m * alpha - g
    q = alpha * m * (1.0 - alpha) / gamma
    disc = math.sqrt(a11 * a11 + 4.0 * mu * q)
    lam_plus = 0.5 * (a11 + disc)
    lam_minus = 0.5 * (a11 - disc)
    slope = (a11 - lam_minus) / mu
    return mu, lam_plus, lam_minus, slope


def _variational_field(params: EconomyParams, L: int):
    """The autarky spillover field, stacked with its variational equations.

    Y holds one segment per leading index: the state s = (k, c) in column 0
    and the sensitivities Phi = ds/ds0 in the others. The field is
    homogeneous of degree one in s, so Df(s) s = f(s), and one product
    Df(s) Y gives the drift of the state and of Phi together. RK4 on the
    stacked system is the exact derivative of the RK4 map of s.
    """
    m = params.ak_scale()
    alpha, theta, gamma = params.alpha, params.theta, params.gamma

    def field(_, Y):
        Yk, Yc = Y[:, :L], Y[:, L:]
        k, c = Yk[:, :, :1], Yc[:, :, :1]
        kbar = k.mean(axis=1, keepdims=True)
        y = m * kbar ** (1.0 - alpha) * k ** alpha
        mpk = alpha * y / k
        # d kbar / d k_j = 1 / L spills into every household's output
        spill = Yk.sum(axis=1, keepdims=True) / (L * kbar)
        dk = mpk * Yk + (1.0 - alpha) * y * spill - Yc
        dc = (((1.0 - alpha) * mpk * c / gamma) * (spill - Yk / k)
              + ((mpk - theta) / gamma) * Yc)
        return np.concatenate([dk, dc], axis=1)

    return field


def _newton_step(G, gap, tail, B, L):
    """The multiple-shooting Newton update of every node, in O(S) memory.

    Solves G_j d_j - d_(j+1) = -gap_j for j < S - 1 and
    B G_(S-1) d_(S-1) = -tail, with node 0's holdings fixed. A backward
    sweep carries the terminal condition to every node as L orthonormal
    constraints C_j d_j = e_j; they span the directions in which the
    segments amplify errors. The forward sweep then takes node 0's
    consumption from C_0, and every later node from the continuity
    condition with its component in those directions replaced by the
    constraint, so rounding cannot grow along the path.
    """
    S, n, _ = G.shape
    C, e = B @ G[-1], -tail
    constraints = [None] * S
    for j in range(S - 1, -1, -1):
        Q, R = np.linalg.qr(C.T)
        C, e = Q.T, np.linalg.solve(R.T, e)
        constraints[j] = C, e
        if j:
            C, e = C @ G[j - 1], e - C @ gap[j - 1]
    step = np.zeros((S, n))
    step[0, L:] = np.linalg.solve(C[:, L:], e)
    for j in range(S - 1):
        C, e = constraints[j + 1]
        p = G[j] @ step[j] + gap[j]
        step[j + 1] = p - C.T @ (C @ p - e)
    return step


def _shoot_autarky_endog(dist0, params, regime, config):
    """Multiple shooting over [0, T] by Newton with exact Jacobians.

    Time is cut into S segments of the same number of dt steps, each about
    a third of the fastest unstable time 1 / max(mu, lam_plus) long, so no
    segment amplifies an error much (Lipton, Poterba, Sachs and Summers
    1982). The unknowns are c(0) and the state at every later node,
    detrended by kbar0 e^(gt); the field is homogeneous of degree one, so a
    segment integrates its detrended state directly. The conditions are
    continuity at every node and, at T, the linearised stable manifold
    c_i - cbar = mu slope (k_i - kbar), cbar = mu kbar. All segments and
    their variational equations run as one RK4 batch; a Newton step that
    takes a segment out of the positive domain is halved. T is the time the
    linearised dispersion needs to fall to half the band, capped by the
    horizon. The path is recorded from the converged segments and stops at
    arrival. Equal holdings sit on the ray at t = 0 and take the closed
    form.
    """
    k0 = dist0.as_array()
    if np.all(k0 == k0[0]):
        return _balanced_path(k0, params, regime, config)
    L = k0.size
    n = 2 * L
    mu, lam_plus, lam_minus, slope = _asym_rates(params)
    g = params.ak_scale() - mu
    dt, band = config.dt, config.terminal_band
    steps = max(1, round(1.0 / (3.0 * max(mu, lam_plus) * dt)))
    seg = steps * dt
    decay = math.exp(-g * seg)  # detrends one segment's end to the next node
    kbar0 = float(k0.mean())
    T = math.log(max(float(np.max(np.abs(k0 / kbar0 - 1.0))), band)
                 / (0.5 * band)) / -lam_minus
    limit = round(config.horizon / dt) if config.horizon is not None else math.inf
    S = max(1, math.ceil(min(T / seg, limit / steps)))
    field = _variational_field(params, L)
    # the terminal conditions are linear in the state: B s(T) = 0
    centre = np.eye(L) - 1.0 / L
    B = np.block([[-mu * slope * centre[:-1], centre[:-1]],
                  [np.full((1, L), -mu / L), np.full((1, L), 1.0 / L)]])
    sensitivity = np.broadcast_to(np.eye(n), (S, n, n))

    def evaluate(nodes):
        """(gaps, terminal residual, Jacobians, rows), or None off the domain."""
        Y = np.concatenate([nodes[:, :, None], sensitivity], axis=2)
        rows = [nodes]
        with np.errstate(all="ignore"):  # checked below
            for _ in range(steps):
                Y = rk4_step(field, 0.0, Y, dt)
                rows.append(Y[:, :, 0].copy())
        if not (np.all(np.isfinite(Y)) and np.all(Y[:, :, 0] > 0.0)):
            return None
        ends = decay * Y[:, :, 0]
        return ends[:-1] - nodes[1:], B @ ends[-1], decay * Y[:, :, 1:], rows

    # first guess: the linearised stable manifold, taken in logs so that it
    # stays positive far from the ray: log(k_i / kbar) decays like
    # e^(lam_minus t), and c_i = mu kbar (k_i / kbar)^slope
    rel = (k0 / kbar0) ** np.exp(lam_minus * seg * np.arange(S))[:, None]
    nodes = np.hstack([rel, mu * rel ** slope])
    out = evaluate(nodes)
    if out is None:
        raise ShootingFailed("the first guess of the saddle path left the positive "
                             "domain; take a smaller dt")
    for iteration in range(config.max_iterations + 1):
        gap, tail, G, rows = out
        residual = max(np.max(np.abs(gap), initial=0.0), np.max(np.abs(tail)))
        if residual <= _NEWTON_TOL:
            break
        if iteration == config.max_iterations:
            raise ShootingFailed(
                f"Newton did not converge in {config.max_iterations} "
                f"iterations (residual {residual:.3e})")
        try:
            step = _newton_step(G, gap, tail, B, L)
        except np.linalg.LinAlgError:
            raise ShootingFailed("singular multiple-shooting Newton system") from None
        damping = 1.0
        while (trial := evaluate(nodes + damping * step)) is None:
            damping *= 0.5
            if damping < _MIN_DAMPING:
                raise ShootingFailed(
                    "every damped Newton step left the positive domain")
        nodes, out = nodes + damping * step, trial

    # the path from the converged segments, rescaled: segment j's rows
    # start at node j, and the last segment's end closes the path
    rows = np.stack(rows)
    w = kbar0 * np.exp(g * seg * np.arange(S))
    path = np.vstack([(rows[:-1] * w[:, None]).transpose(1, 0, 2)
                      .reshape(S * steps, n), w[-1] * rows[-1, -1]])
    K, C = path[:, :L], path[:, L:]
    kbar = K.mean(axis=1)
    off = np.maximum(np.max(np.abs(K / kbar[:, None] - 1.0), axis=1),
                     np.abs(C.mean(axis=1) / (mu * kbar) - 1.0))
    arrived = 1 + np.flatnonzero(off[1:] <= band)
    if not arrived.size or arrived[0] > limit:
        cap = "" if config.horizon is None else f" (horizon cap {config.horizon:g})"
        raise ShootingFailed(
            f"autarky spillover path did not arrive in the band {band} by "
            f"t={min(S * seg, limit * dt):g}{cap}; widen the horizon or the band")
    end = arrived[0] + 1
    return _ramsey_trajectory(dt * np.arange(end), K[:end], C[:end], params,
                              regime)


def shoot_saddle_path(dist0: WealthDistribution, params: EconomyParams,
                      regime: Regime,
                      config: ShootingConfig | None = None) -> Trajectory:
    """Find the saddle path from the given holdings and record it.

    Consumption levels at time zero are solved so the path enters the
    terminal band around the steady state (fixed technology) or the balanced
    growth ray (spillover technology) within the horizon; the recorded
    trajectory stops at arrival. A spillover economy that starts on its
    ray (any market, or equal autarky holdings) is on its balanced path
    from the start and is recorded over the whole horizon.
    """
    validate_params(params, regime)
    if regime.is_olg:
        raise WrongRegime("shoot_saddle_path requires a Ramsey regime")
    check_population(dist0, params)
    if config is None:
        config = ShootingConfig()
    if regime.is_market:
        traj = _shoot_market(dist0, params, regime, config)
    elif regime.is_endogenous:
        traj = _shoot_autarky_endog(dist0, params, regime, config)
    else:
        traj = _shoot_autarky_exog(dist0, params, regime, config)
    if config.record_stride == 1:
        return traj
    n = len(traj)
    keep = np.unique(np.r_[0:n:config.record_stride, n - 1])
    return replace(traj, **{
        f.name: getattr(traj, f.name)[keep] for f in fields(traj)
        if isinstance(getattr(traj, f.name), np.ndarray)
    })
