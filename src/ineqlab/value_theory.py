"""Leontief value theory: the surplus and profit-sign theorems, judged once.

The economy is a single-technique input-output system: ``input_matrix[i, j]``
units of commodity i plus ``labor[j]`` units of direct labor produce one unit
of commodity j, and workers consume ``wage_bundle`` per unit of labor. Two
classical results are checkable exactly here: positive surplus value is
equivalent to economy-wide profitability (the Fundamental Marxian Theorem),
and the same equivalence holds with any commodity (not just labor) as the
value numeraire.

Commodity values come in closed form. Take the wage-augmented matrix
M = A + b l^T, a numeraire commodity j and the rest R of the commodities.
The content of j in the rest is w_R = M[j, R] (I - M[R, R])^-1, and its own
value is the Schur complement

    w_j = M[j, j] + M[j, R] (I - M[R, R])^-1 M[R, j].

Only the rest block is inverted, never I - M, which is exactly singular on
the zero-profit knife edge. When the rest cannot reproduce itself, that is
when rho(M[R, R]) >= 1 - 1e-10, every value of numeraire j is ``inf``.
With n = 1 the rest is empty and w_0 = M[0, 0].

One judge, ``_judge``, decides for a stack of productive economies: the
surplus value rate, the profit sign, and the values of every numeraire.
It takes no eigenvalues: each question asked of a spectrum is a threshold,
rho(B) < s, which the Hawkins-Simon test of ``_radius_below`` answers, in
one elimination over the stack [M, M] and one over the rest blocks. The
productivity of A is decided before the judge: by the ``LeontiefEconomy``
constructor, which raises OutOfRange("input_matrix") where rho(A) >= 1,
and by the bounds of a sweep's draws.
``fmt_sweep`` runs the judge on blocks of at most 32 drawn economies; the
one-economy names run it on a stack of one. Blocks are bounded because the
working arrays grow with the block: sweeping 400 trials at each of n = 3, 5,
8 and 10 as single blocks raised a process's peak RSS by 6.6 MB, and in
blocks of 32 by 0.25 MB, as much as one economy at a time, at the same speed.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange

_SIGN_TOL = 1e-10


@contextmanager
def _within_float64(field: str, what: str):
    """Raise OutOfRange(field) for an overflow or invalid operation of ``what``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise OutOfRange(field, f"{what} leaves float64") from exc


def _radius_below(stack: np.ndarray, bound) -> np.ndarray:
    """Whether rho(B) < bound, for each nonnegative B of a stack (..., m, m).

    ``bound`` is one number for every matrix, or an array of bounds that
    broadcasts over the stack's leading axes, one for each matrix.

    The Hawkins-Simon test: for nonnegative B, ``bound * I - B`` is a
    nonsingular M-matrix, that is B is below, exactly when every pivot of
    its elimination without row exchanges is positive. The first pivot that is not positive decides its matrix; its later pivots
    are taken as inf, so the elimination leaves it alone. Every operation
    is element-wise within one matrix, so a matrix gets the same pivots
    alone as in any stack. True when m = 0.

    While the pivots stay positive the eliminated entries can grow like
    (max B / bound)^(m - 1), so a bound far below the entries of B can
    overflow; the sweep's bounds are near 1 and its entries below 20.
    """
    m = stack.shape[-1]
    z = np.asarray(bound, dtype=float)[..., None, None] * np.eye(m) - stack
    below = np.ones(z.shape[:-2], dtype=bool)
    for k in range(m):
        below &= z[..., k, k] > 0.0
        pivot = np.where(below, z[..., k, k], np.inf)
        z[..., k + 1:, k + 1:] -= (z[..., k + 1:, k, None]
                                   * (z[..., None, k, k + 1:] / pivot[..., None, None]))
    return below


def spectral_radius(matrix: np.ndarray) -> float:
    """Perron root of a nonnegative matrix: the largest eigenvalue modulus.

    The eigenvalue oracle of the tests; no program path decides with it.
    A dense eigenvalue solve (LAPACK ``geev`` through ``np.linalg.eigvals``),
    backward stable, with no special case for periodic or defective patterns.
    """
    eigenvalues = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    return float(np.max(np.abs(eigenvalues), initial=0.0))


@dataclass(frozen=True, eq=False)
class LeontiefEconomy:
    """Input coefficients, direct labor, and the per-labor wage bundle.

    The input matrix must be productive (spectral radius below one); labor
    requirements are strictly positive; wage consumption is nonnegative.
    """

    input_matrix: np.ndarray
    labor: np.ndarray
    wage_bundle: np.ndarray

    def __post_init__(self):
        A = np.array(self.input_matrix, dtype=float, copy=True)
        l = np.array(self.labor, dtype=float, copy=True).reshape(-1)
        b = np.array(self.wage_bundle, dtype=float, copy=True).reshape(-1)
        n = l.size
        if A.shape != (n, n) or b.size != n or n < 1:
            raise OutOfRange("shape", "need an n x n matrix with length-n vectors")
        if np.any(A < 0.0) or not np.all(np.isfinite(A)):
            raise OutOfRange("input_matrix", "input coefficients must be >= 0")
        if np.any(l <= 0.0) or not np.all(np.isfinite(l)):
            raise OutOfRange("labor", "labor requirements must be > 0")
        if np.any(b < 0.0) or not np.all(np.isfinite(b)):
            raise OutOfRange("wage_bundle", "wage bundle must be >= 0")
        with _within_float64("input_matrix", "the Hawkins-Simon elimination"):
            if not _radius_below(A, 1.0):
                raise OutOfRange("input_matrix", "input matrix spectral radius must be < 1")
        for arr in (A, l, b):
            arr.flags.writeable = False
        object.__setattr__(self, "input_matrix", A)
        object.__setattr__(self, "labor", l)
        object.__setattr__(self, "wage_bundle", b)

    @property
    def n(self) -> int:
        return int(self.labor.size)


def _labor_values(A: np.ndarray, l: np.ndarray) -> np.ndarray:
    """v = v A + l for each economy of a stack, with the residual checked."""
    n = l.shape[-1]
    v = np.linalg.solve(np.eye(n) - np.swapaxes(A, -1, -2), l[..., None])[..., 0]
    residual = np.max(np.abs((v[..., None, :] @ A)[..., 0, :] + l - v), axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(v), axis=-1))
    if np.any(residual > 1e-10 * scale):
        raise OutOfRange("economy",
                         f"value system residual too large: {np.max(residual):.3e}")
    return v


def _wage_bundle(wage_scale: np.ndarray, direction: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """For each economy of a stack with labor values ``v``, the bundle along
    ``direction`` whose labor value is ``wage_scale``."""
    return (wage_scale[:, None] * direction
            / np.einsum("ki,ki->k", v, direction)[:, None])


@dataclass(frozen=True)
class GcetReport:
    """Embodied content of one commodity in every commodity."""

    numeraire: int
    values: np.ndarray
    own_value: float


def numeraire_values(M: np.ndarray, numeraires):
    """Content of each numeraire j in every commodity, for a stack of M.

    The array form of ``gcet_values``. ``M`` is a stack (..., n, n) of
    wage-augmented matrices and ``numeraires`` holds J commodity indices.
    Returns ``(rest, own)`` of shapes (..., J, n - 1) and (..., J): the
    closed form of the module docstring, w_R over the other commodities in
    index order and w_j, both ``inf`` where rho(M[R, R]) >= 1 - 1e-10.

    Raises OutOfRange for a numeraire outside [0, n), for an ``M`` with an
    entry that is negative or not finite, where the Hawkins-Simon test does
    not apply, and for an ``M`` whose elimination or content leaves float64.
    """
    n = M.shape[-1]
    if not np.all((M >= 0.0) & (M < np.inf)):
        raise OutOfRange("M", "wage-augmented matrices must be finite and >= 0")
    numeraires = np.asarray(numeraires)
    if np.any((numeraires < 0) | (numeraires >= n)):
        raise OutOfRange("numeraire", f"commodity index must be in [0, {n})")
    j = numeraires[:, None]
    rest = np.arange(n - 1) + (np.arange(n - 1) >= j)
    block = M[..., rest[:, :, None], rest[:, None, :]]
    # an elimination without overflow raises no floating-point flag
    with _within_float64("M", "the Hawkins-Simon elimination"):
        infinite = ~_radius_below(block, 1.0 - _SIGN_TOL)
    lhs = np.eye(n - 1) - np.swapaxes(block, -1, -2)
    lhs[infinite] = np.eye(n - 1)  # keeps the stacked solve nonsingular
    with np.errstate(over="ignore", invalid="ignore"):
        w_rest = np.linalg.solve(lhs, M[..., j, rest][..., None])[..., 0]
        own = M[..., numeraires, numeraires] + np.sum(w_rest * M[..., rest, j], axis=-1)
    # a finite own value needs every term of its sum finite
    if not np.all(infinite | np.isfinite(own)):
        raise OutOfRange("M", "(I - M[R, R])^-1 leaves float64")
    w_rest[infinite] = np.inf
    own[infinite] = np.inf
    return w_rest, own


def _judge(A: np.ndarray, l: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Surplus, profit and commodity values of a stack of economies.

    ``A``, ``l``, ``b`` and their labor values ``v`` are stacks (k, n, n) and
    (k, n); a drawn economy scales its wage bundle with ``v``. Returns the
    surplus value rate 1 - v b, the profit sign (1, 0 or -1, zero within
    1e-10 of the knife edge) and ``numeraire_values`` of M = A + b l^T for
    every numeraire.

    Every A is productive: a ``LeontiefEconomy`` checks it when it is made,
    and a drawn A has row sums below 0.4, so rho(A) < 0.4. The profit sign
    comes from one elimination over the stack [M, M]; ``_radius_below``
    gives each matrix the same pivots as alone.
    """
    surplus = 1.0 - np.sum(v * b, axis=-1)
    M = A + b[:, :, None] * l[:, None, :]
    profitable, not_losing = _radius_below(
        np.stack([M, M]), [[1.0 - _SIGN_TOL], [1.0 + _SIGN_TOL]])
    rest, own = numeraire_values(M, np.arange(l.shape[-1]))
    profit = np.where(profitable, 1, np.where(not_losing, 0, -1))
    return surplus, profit, rest, own


def _judge_economy(econ: LeontiefEconomy):
    """``_judge`` on ``econ`` alone, raising OutOfRange beyond float64."""
    A, l, b = econ.input_matrix[None], econ.labor[None], econ.wage_bundle[None]
    with _within_float64("economy", "a value of the economy"):
        surplus, profit, rest, own = _judge(A, l, b, _labor_values(A, l))
    return surplus[0], profit[0], rest[0], own[0]


def surplus_value_rate(econ: LeontiefEconomy) -> float:
    """Surplus labor per unit of labor: 1 - (labor value of the wage bundle)."""
    surplus, _, _, _ = _judge_economy(econ)
    return float(surplus)


def profit_sign(econ: LeontiefEconomy) -> str:
    """'positive', 'zero', or 'negative': can the economy reproduce a surplus?

    Profitability economy-wide is exactly rho(A + b l^T) < 1, the matrix of
    everything consumed per unit of gross output; 'zero' is within 1e-10.
    """
    _, profit, _, _ = _judge_economy(econ)
    return {1: "positive", 0: "zero", -1: "negative"}[profit]


def gcet_values(econ: LeontiefEconomy, numeraire: int) -> GcetReport:
    """Embodied content of commodity ``numeraire`` over the augmented system.

    The chosen commodity is the primitive substance, as labor is for labor
    values: its content solves w_k = M[j, k] + sum_{i != j} w_i M[i, k] (the
    closed form is in the module docstring). The theorem: the own value w_j
    is below one precisely when the economy is profitable, whichever j.
    """
    j = numeraire
    if not 0 <= j < econ.n:
        raise OutOfRange("numeraire", f"commodity index must be in [0, {econ.n})")
    _, _, rest, own = _judge_economy(econ)
    return GcetReport(numeraire=j, values=np.insert(rest[j], j, own[j]),
                      own_value=float(own[j]))


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``rng.uniform(low, high)`` of the standard uniforms ``u``."""
    return low + (high - low) * u


def _draw(rng: np.random.Generator, n: int, wage_drawn: np.ndarray):
    """Wage scales, input coefficients, labor and wage directions of
    ``wage_drawn.size`` random economies, from one generator call.

    Economy k takes, in this order: a wage scale uniform on [0.3, 1.7] when
    ``wage_drawn[k]`` (otherwise its scale is exactly 1), then A uniform on
    [0, 0.4/n] row by row, l on [0.1, 1] and the direction on [0.05, 1].
    Each value is low + (high - low) u for the next u of ``rng.random``,
    which is the value and the stream position of ``rng.uniform`` with the
    same bounds, call by call.
    """
    count = wage_drawn.size
    width = n * n + 2 * n
    u = rng.random(count * width + int(np.count_nonzero(wage_drawn)))
    # economy k starts after k economies and the wage scales up to its own
    first = np.arange(count) * width + np.cumsum(wage_drawn)
    wage_scale = np.ones(count)
    wage_scale[wage_drawn] = _uniform(u[first[wage_drawn] - 1], 0.3, 1.7)
    econ = u[first[:, None] + np.arange(width)]
    return (wage_scale,
            _uniform(econ[:, :n * n], 0.0, 0.4 / n).reshape(count, n, n),
            _uniform(econ[:, n * n:n * n + n], 0.1, 1.0),
            _uniform(econ[:, n * n + n:], 0.05, 1.0))


def random_economy(rng: np.random.Generator, n: int,
                   wage_scale: float) -> LeontiefEconomy:
    """Draw a productive economy whose surplus rate is exactly 1 - wage_scale.

    Input coefficients are uniform on [0, 0.4/n] (row sums below 0.4 keep the
    matrix safely productive); labor is uniform on [0.1, 1]; the wage bundle
    is a random direction scaled so that its labor value equals wage_scale.
    """
    _, A, l, direction = _draw(rng, n, np.zeros(1, dtype=bool))
    b = _wage_bundle(np.full(1, wage_scale), direction, _labor_values(A, l))
    return LeontiefEconomy(A[0], l[0], b[0])


@dataclass(frozen=True)
class SweepReport:
    """Counterexample counts over a randomized theorem sweep."""

    trials: int
    n: int
    seed: int
    fmt_counterexamples: int
    gcet_counterexamples: int

    @property
    def clean(self) -> bool:
        return self.fmt_counterexamples == 0 and self.gcet_counterexamples == 0

    def text(self) -> str:
        lines = [
            f"theorem sweep: trials={self.trials} n={self.n} seed={self.seed}",
            f"surplus/profit sign mismatches: {self.fmt_counterexamples}",
            f"own-value/profit mismatches:    {self.gcet_counterexamples}",
            "result: " + ("PASS" if self.clean else "FAIL"),
        ]
        return "\n".join(lines)


#: Most economies ``fmt_sweep`` holds in its working arrays at once.
_SWEEP_BLOCK = 32


class TrialBlock(NamedTuple):
    """Consecutive trials of a theorem sweep.

    Per trial: the sign of the surplus value rate and of profit (1, 0 or -1,
    zero within 1e-10 of the knife edge), and the GCET own value of every
    commodity, shape (trials, n).
    """

    surplus_sign: np.ndarray
    profit_sign: np.ndarray
    own_values: np.ndarray


def _trial_block(rng: np.random.Generator, trials: range, n: int) -> TrialBlock:
    """Draw the economies of ``trials`` in sweep order and judge them at once."""
    wage_scale, A, l, direction = _draw(
        rng, n, np.arange(trials.start, trials.stop) % 3 != 2)
    v = _labor_values(A, l)
    surplus, profit, _, own = _judge(A, l, _wage_bundle(wage_scale, direction, v), v)
    surplus_sign = np.where(np.abs(surplus) <= _SIGN_TOL, 0, np.sign(surplus))
    return TrialBlock(surplus_sign=surplus_sign.astype(int), profit_sign=profit,
                      own_values=own)


def sweep_trials(trials: int, n: int, seed: int) -> Iterator[TrialBlock]:
    """The trials of ``fmt_sweep``, in blocks of at most 32.

    Trial t draws its wage scale, uniform on [0.3, 1.7] or exactly 1 (the
    zero-surplus knife edge) when t % 3 == 2, and then its economy as
    ``random_economy`` would, from one generator seeded with ``seed``. A
    block takes all of its draws from one ``rng.random`` call, in that
    order, with the bits of one ``rng.uniform`` call per draw.
    """
    if trials < 1:
        raise OutOfRange("trials", f"trials must be >= 1, got {trials}")
    if not (1 <= n <= 10):
        raise OutOfRange("n", "sweep economies are desk-scale: 1 <= n <= 10")
    if seed < 0:
        raise OutOfRange("seed", f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return (_trial_block(rng, range(start, min(start + _SWEEP_BLOCK, trials)), n)
            for start in range(0, trials, _SWEEP_BLOCK))


def fmt_sweep(trials: int, n: int, seed: int) -> SweepReport:
    """Randomized check of both sign theorems; every third draw sits exactly
    on the zero-surplus knife edge."""
    fmt_bad = 0
    gcet_bad = 0
    for e_sign, p_sign, own in sweep_trials(trials, n, seed):
        fmt_bad += int(np.count_nonzero(e_sign != p_sign))
        all_below = np.all(own < 1.0 - _SIGN_TOL, axis=1)
        # knife edge: own values must exist and sit at one
        at_one = np.max(np.abs(own - 1.0), axis=1) <= 1e-6
        bad = np.where(p_sign == 1, ~all_below,
                       np.where(p_sign == -1, all_below, ~at_one))
        gcet_bad += int(np.count_nonzero(bad))
    return SweepReport(
        trials=trials, n=n, seed=seed,
        fmt_counterexamples=fmt_bad, gcet_counterexamples=gcet_bad,
    )
