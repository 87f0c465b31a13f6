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
households as one vector. A fixed-technology market economy rides it once,
from its mean, and that one ride splits into household paths: each
household's gap to the mean is its start gap times one common factor, run
backward along the ride. The autarky spillover case needs a genuinely
multidimensional search: multiple shooting, one Newton solve over every
segment of [0, T] at once, with the Jacobian from the variational equations
integrated alongside the state. Equal autarky households are on the
balanced ray from t = 0 and take the market's closed form. Every
integration is the one RK4 step ``rk4_step``. Each method returns only its
rows (K, C), and shoot_saddle_path records the rows its stride keeps, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_STEPS,
    RAMSEY_AUTARKY_EXOG,
    EconomyParams,
    Regime,
    SteadyState,
    Trajectory,
    WealthDistribution,
    check_population,
    float_guard,
    validate_params,
)
from .errors import OutOfRange, ShootingFailed, StateLeftDomain, WrongRegime
# bench/spans.py wraps gini, coefficient_of_variation and ratio_max_min here
from .metrics import coefficient_of_variation, gini, ratio_max_min, record_trajectory
from .production import household_production

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ShootingConfig:
    """Solver controls for saddle-path shooting.

    ``horizon`` caps the solved path's time; None picks a per-regime
    default. Paths that stop on arrival take a long horizon at no cost up
    to the step cap of shoot_saddle_path, and raise ShootingFailed if they
    have not arrived by it. A path on its ray from t = 0 is recorded over
    the whole horizon. ``terminal_band`` is the relative distance from the
    steady state (or balanced ray) that counts as arrival.
    ``max_iterations`` caps the Newton iterations of the autarky spillover
    solve. ``record_stride`` keeps every n-th step of the solved path, plus
    its last; the kept rows are chosen before the statistics are taken.
    ``dt`` is finite and > 0, ``terminal_band`` inside (0, 1) (a band of 1
    or more counts a zero holding as arrival), ``horizon`` finite and above
    ``dt``, and the two counts >= 1, or OutOfRange names the field.
    """

    horizon: float | None = None
    dt: float = 1e-2
    max_iterations: int = 200
    terminal_band: float = 1e-4
    record_stride: int = 1

    def __post_init__(self):
        for field, low, high in (("dt", 0.0, math.inf), ("terminal_band", 0.0, 1.0),
                                 ("horizon", self.dt, math.inf),
                                 ("max_iterations", 0, math.inf),
                                 ("record_stride", 0, math.inf)):
            value = getattr(self, field)
            if value is not None and not low < value < high:
                raise OutOfRange(field, f"{field} must lie inside ({low!r}, {high!r}), "
                                        f"got {value!r}")


def _steps(T: float, dt: float, given: bool = False) -> int:
    """The number of dt steps in horizon T; above MAX_STEPS, OutOfRange.

    The fault is named ``horizon`` when T is ``given`` (the config's own
    horizon) and alone exceeds the cap, T > MAX_STEPS; otherwise ``dt``.
    """
    n = T / dt
    if n > MAX_STEPS:
        if given and T > MAX_STEPS:
            raise OutOfRange("horizon", f"horizon={T!r} asks for {n:.4g} steps "
                                        f"of dt={dt!r}, above the cap of {MAX_STEPS}")
        raise OutOfRange("dt", f"dt={dt!r} asks for {n:.4g} steps to t={T:g}, "
                               f"above the cap of {MAX_STEPS}")
    return round(n)


# ---------------------------------------------------------------------------
# the integrator and the steady state


def rk4_step(f, x, y, h):
    """One classical RK4 step of y' = f(x, y), on floats or arrays."""
    d1 = f(x, y)
    d2 = f(x + 0.5 * h, y + 0.5 * h * d1)
    d3 = f(x + 0.5 * h, y + 0.5 * h * d2)
    d4 = f(x + h, y + h * d3)
    return y + (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


@float_guard
def ramsey_steady_state(params: EconomyParams, regime: Regime) -> SteadyState:
    """Long-run target of the dynasty models.

    Fixed technology: capital where the private return equals the discount
    rate. Endogenous technology: balanced growth at (alpha tfp L**(1-alpha)
    - theta) / gamma; the transformation rule r = theta + gamma g holds by
    construction. A ratio alpha tfp / theta that puts k* or c* outside
    (0, inf) in float64 is OutOfRange("params").
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
    ratio = params.alpha * params.tfp / params.theta
    k_star = ratio ** (1.0 / (1.0 - params.alpha))
    c_star = params.tfp * k_star ** params.alpha
    if not (0.0 < k_star < math.inf and 0.0 < c_star < math.inf):
        raise OutOfRange("params", f"alpha*tfp/theta={ratio!r} puts k*={k_star!r} "
                                   f"or c*={c_star!r} outside (0, inf)")
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


def _ride_into_band(k0: np.ndarray, params: EconomyParams,
                    config: ShootingConfig) -> tuple[_Policy, np.ndarray, np.ndarray]:
    """Ride the saddle policy from k0 into the terminal band.

    Returns the policy and the ride's capital and consumption rows.
    """
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
    K = _ride(policy, k0, _steps(T, config.dt, config.horizon is not None),
              (lo, hi))
    if not (lo <= K[-1].min() and K[-1].max() <= hi):
        raise ShootingFailed(
            f"no arrival in the terminal band by horizon {T}; "
            f"widen the horizon or the band"
        )
    return policy, K, np.interp(K, policy.grid, policy.consumption)


# ---------------------------------------------------------------------------
# balanced spillover paths in closed form; fixed-technology market households


def _balanced_path(a0, params, regime, config):
    """Rows (K, C) of a spillover economy that is on its ray at t = 0.

    Under a capital market r = alpha m is constant, so every household is
    on its balanced path from t = 0: a_i = a_i0 e^(gt), c_i = c_i0 e^(gt),
    with c_i0 the wage plus the interest on a_i0 beyond what growth
    retains. Equal autarky households farm the mean, so their path is the
    same, with c_i0 = mu a_i0.
    """
    ray = ramsey_steady_state(params, regime)
    r, g, m = ray.interest_star, ray.growth_star, params.ak_scale()
    # the default horizon is the one a float64 shot could hold the ray
    # for; it is kept so that the recorded rows stay the same
    T = config.horizon if config.horizon is not None else max(
        2.0, math.log(config.terminal_band / (256.0 * _EPS)) / (m - g))
    times = np.arange(_steps(T, config.dt, config.horizon is not None) + 1) * config.dt
    growth = np.exp(g * times)[:, None]
    c0 = (1.0 - params.alpha) * m * float(a0.mean()) + (r - g) * a0
    return growth * a0, growth * c0


def market_decompose(policy: _Policy, k_path: np.ndarray, c_path: np.ndarray,
                     dt: float, a: np.ndarray, params: EconomyParams):
    """Split a fixed-technology market's mean ride into household rows.

    ``k_path`` and ``c_path`` are the mean capital and consumption ridden
    along ``policy`` at step ``dt`` from the mean of the holdings ``a``;
    the rows (assets, consumption) have one column per household. Each
    consumes its own initial level grown by the common factor G = c / cbar0,
    and its assets obey da = wage + r a - c, so its deviation x = a - kbar
    obeys x' = r x - dc G, with dc its initial consumption gap. The solution
    whose drift vanishes at the end of the path, which kills its growing
    mode, is x = dc P for the one factor P of _deviation_factor. Hence
    a_i = kbar + (a_i0 - kbar0) P / P(0) and dc = (a_i0 - kbar0) / P(0):
    the deviations are the start gaps, whose mean is zero, times one factor,
    so the households aggregate to the mean path. A household whose initial
    consumption or assets leave the positive domain raises StateLeftDomain.
    """
    kbar0 = float(k_path[0])
    cbar0 = float(c_path[0])
    P = _deviation_factor(policy, params, k_path, c_path, dt)
    gap = a - kbar0
    c0 = cbar0 + gap / P[0]
    if np.any(c0 <= 0.0):
        raise StateLeftDomain("a household initial consumption left the positive domain")
    assets = k_path[:, None] + np.outer(P / P[0], gap)
    if np.any(assets <= 0.0):
        raise StateLeftDomain("a household asset path left the positive domain "
                              "during decomposition")
    return assets, np.outer(c_path / cbar0, c0)


def _deviation_factor(policy, params, k_path, c_path, dt):
    """The factor P of every household deviation along the mean's ride.

    P' = r P - G is the value of the future consumption factor G at the
    interest r, with P_T = G_T / r_T, where a deviation's drift vanishes;
    r and c follow the mean's k. RK4 at dt maps P_n to M_n P_n - N_n: one
    RK4 step of every row at once, of phi' = r phi from phi = 1 and of
    q' = r q + G from q = 0, gives M and N. Run backward (reverse shooting,
    Judd 1998, ch. 10), P_n = (P_(n+1) + N_n) / M_n contracts. With phi
    the running product of M, that recurrence is the reverse sum
    P_n / phi_n = P_T / phi_T + sum_(j >= n) N_j / phi_(j+1), whose terms
    are all positive, so nothing cancels. A phi beyond float64 is
    shoot_saddle_path's OutOfRange("params").
    """
    A, alpha = params.tfp, params.alpha
    cbar0 = float(c_path[0])

    def joint(_, z):
        k, phi, q = z
        c = np.interp(k, policy.grid, policy.consumption)
        r = alpha * A * k ** (alpha - 1.0)
        return np.array([A * k ** alpha - c, r * phi, r * q + c / cbar0])

    n = k_path.size - 1
    start = np.array([k_path[:-1], np.ones(n), np.zeros(n)])
    _, M, N = rk4_step(joint, 0.0, start, dt)
    phi = np.concatenate([[1.0], np.cumprod(M)])
    P_T = c_path[-1] / cbar0 / (alpha * A * k_path[-1] ** (alpha - 1.0))
    terms = np.append(N / phi[1:], P_T / phi[-1])
    return phi * np.cumsum(terms[::-1])[::-1]


# ---------------------------------------------------------------------------
# autarky with spillover: multiple shooting by Newton with exact Jacobians

_NEWTON_TOL = 1e-12  # on the detrended matching and terminal residuals
_MIN_DAMPING = 2.0 ** -30  # smallest Newton step fraction tried


def _asym_rates(params: EconomyParams, regime: Regime):
    """Linearised rates around the equalised balanced ray.

    Returns (mu, lam_plus, lam_minus, slope) where x' = a11 x - mu u and
    u' = -q x describe a household's relative capital x and consumption u,
    and slope maps x onto the stable manifold: u = slope * x.
    """
    m, alpha, gamma = params.ak_scale(), params.alpha, params.gamma
    g = ramsey_steady_state(params, regime).growth_star
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


def _shoot_autarky_endog(k0, params, regime, config):
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
    horizon. A path that has not arrived by T is solved again over twice the
    time, until it arrives or the horizon (without one, MAX_STEPS steps)
    caps it; a path that leaves float64 before it arrives, or one at its
    cap, raises ShootingFailed. The rows (K, C) come from the converged
    segments and stop at arrival.
    """
    L = k0.size
    n = 2 * L
    mu, lam_plus, lam_minus, slope = _asym_rates(params, regime)
    g = params.ak_scale() - mu
    dt, band = config.dt, config.terminal_band
    steps = max(1, round(1.0 / (3.0 * max(mu, lam_plus) * dt)))
    seg = steps * dt
    decay = math.exp(-g * seg)  # detrends one segment's end to the next node
    kbar0 = float(k0.mean())
    T = math.log(max(float(np.max(np.abs(k0 / kbar0 - 1.0))), band)
                 / (0.5 * band)) / -lam_minus
    limit = (_steps(config.horizon, dt, given=True) if config.horizon is not None
             else math.inf)
    S = max(1, math.ceil(min(T / seg, limit / steps)))
    _steps(S * seg, dt)  # and the steps the segments take
    # a path that has not arrived is solved again over twice the segments,
    # up to the horizon, or without one up to the step cap
    most = MAX_STEPS // steps if limit == math.inf else math.ceil(limit / steps)
    field = _variational_field(params, L)
    # the terminal conditions are linear in the state: B s(T) = 0
    centre = np.eye(L) - 1.0 / L
    B = np.block([[-mu * slope * centre[:-1], centre[:-1]],
                  [np.full((1, L), -mu / L), np.full((1, L), 1.0 / L)]])

    def evaluate(nodes):
        """(gaps, terminal residual, Jacobians, rows), or None off the domain."""
        sensitivity = np.broadcast_to(np.eye(n), (len(nodes), n, n))
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

    while True:
        # first guess: the linearised stable manifold, taken in logs so that
        # it stays positive far from the ray: log(k_i / kbar) decays like
        # e^(lam_minus t), and c_i = mu kbar (k_i / kbar)^slope
        rel = (k0 / kbar0) ** np.exp(lam_minus * seg * np.arange(S))[:, None]
        nodes = np.hstack([rel, mu * rel ** slope])
        out = evaluate(nodes)
        if out is None:
            raise ShootingFailed("the first guess of the saddle path left the "
                                 "positive domain; take a smaller dt")
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
        # start at node j, and the last segment's end closes the path; past
        # a row that leaves float64 it is inf or nan, and never arrives
        rows = np.stack(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            w = kbar0 * np.exp(g * seg * np.arange(S))
            path = np.vstack([(rows[:-1] * w[:, None]).transpose(1, 0, 2)
                              .reshape(S * steps, n), w[-1] * rows[-1, -1]])
            K, C = path[:, :L], path[:, L:]
            kbar = K.mean(axis=1)
            off = np.maximum(np.max(np.abs(K / kbar[:, None] - 1.0), axis=1),
                             np.abs(C.mean(axis=1) / (mu * kbar) - 1.0))
        arrived = 1 + np.flatnonzero(off[1:] <= band)
        if arrived.size and arrived[0] <= limit:
            end = arrived[0] + 1
            return K[:end], C[:end]
        if S >= most or not math.isfinite(off[-1]):
            cap = "" if config.horizon is None else f" (horizon cap {config.horizon:g})"
            raise ShootingFailed(
                f"autarky spillover path did not arrive in the band {band} by "
                f"t={min(S * seg, limit * dt):g}{cap}; widen the horizon or the band")
        S = min(2 * S, most)


@float_guard
def shoot_saddle_path(dist0: WealthDistribution, params: EconomyParams,
                      regime: Regime,
                      config: ShootingConfig | None = None) -> Trajectory:
    """Find the saddle path from the given holdings and record it.

    Consumption at time zero is solved so that the path enters the terminal
    band around the steady state or the balanced growth ray within the
    horizon, and the recorded trajectory stops at arrival. A horizon (given
    or default) of more than 10**6 dt steps, or shooting segments that take
    more, is OutOfRange("dt") before any step, and a float fault on the way
    is OutOfRange("params"). One method per economy returns the rows (K, C),
    and the rows ``config.record_stride`` keeps are recorded once:

    * spillover with a market, or equal holdings: on the ray from t = 0,
      so the closed-form balanced path over the whole horizon;
    * spillover autarky, unequal holdings: multiple shooting, again over
      twice the time while the path has not arrived;
    * fixed-technology market, more than one household: the mean rides
      the saddle policy once, and market_decompose splits that ride;
    * otherwise every household rides the saddle policy.
    """
    validate_params(params, regime)
    if regime.is_olg:
        raise WrongRegime("shoot_saddle_path requires a Ramsey regime")
    check_population(dist0, params)
    if config is None:
        config = ShootingConfig()
    k0 = dist0.as_array()
    note = ""
    if regime.is_endogenous and (regime.is_market or np.all(k0 == k0[0])):
        K, C = _balanced_path(k0, params, regime, config)
        note = "closed-form balanced path"
    elif regime.is_endogenous:
        K, C = _shoot_autarky_endog(k0, params, regime, config)
    elif regime.is_market and k0.size > 1:
        policy, k, c = _ride_into_band(k0.mean(keepdims=True), params, config)
        K, C = market_decompose(policy, k[:, 0], c[:, 0], config.dt, k0, params)
        note = "household decomposition of the aggregate path"
    else:
        _, K, C = _ride_into_band(k0, params, config)
    rows = np.arange(K.shape[0])
    if config.record_stride > 1:
        # at stride 1 the rows stay uncopied
        rows = np.unique(np.r_[rows[::config.record_stride], rows[-1]])
        K, C = K[rows], C[rows]
    # the output and the instantaneous rates of the kept rows: a market's
    # (T, 1) column, or its AK constant, is the mean's
    y, mpk = household_production(K, K.mean(axis=1)[:, None], params,
                                  regime.technology, regime.is_market)
    r = np.broadcast_to(mpk, y.shape).mean(axis=1)
    if regime.is_market:
        growth = (r - params.theta) / params.gamma
    else:
        growth = (((mpk - params.theta) / params.gamma) * C).sum(axis=1) / C.sum(axis=1)
    return record_trajectory(config.dt * rows, K, C, y, r, growth, regime,
                             note=note)
