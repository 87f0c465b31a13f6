"""Leontief values, surplus, and the two sign theorems."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ineqlab import (
    LeontiefEconomy,
    augmented_matrix,
    embodied_labor_values,
    fmt_check,
    fmt_sweep,
    gcet_values,
    numeraire_values,
    profit_sign,
    random_economy,
    spectral_radius,
    surplus_value_rate,
    sweep_trials,
)
from ineqlab import value_theory
from ineqlab.cli import EXIT_CONFIG, EXIT_OK, main
from ineqlab.errors import NonPositiveInput, NotProductive, OutOfRange
from ineqlab.value_theory import _draw, _radius_below, _trial_block


def corn(a=0.5, l=1.0, wage=0.3):
    return LeontiefEconomy(np.array([[a]]), np.array([l]), np.array([wage]))


def series_values(econ, terms=50):
    """Truncated power-series oracle: sum_k labor . A^k."""
    A = econ.input_matrix
    total = np.zeros_like(econ.labor)
    power = np.eye(econ.n)
    for _ in range(terms):
        total = total + econ.labor @ power
        power = power @ A
    return total


def gcet_oracle(econ, j):
    """Content of commodity j from the whole system with row j zeroed."""
    M = augmented_matrix(econ)
    M_rest = M.copy()
    M_rest[j, :] = 0.0
    if spectral_radius(M_rest) >= 1.0 - 1e-10:
        return np.full(econ.n, np.inf)
    return np.linalg.solve(np.eye(econ.n) - M_rest.T, M[j, :])


def sign(x):
    return 0 if abs(x) <= 1e-10 else (1 if x > 0.0 else -1)


def one_economy_trials(trials, n, seed):
    """Per trial (surplus sign, profit sign, own values), one economy at a time."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        wage_scale = 1.0 if trial % 3 == 2 else float(rng.uniform(0.3, 1.7))
        econ = random_economy(rng, n, wage_scale)
        rho = spectral_radius(augmented_matrix(econ))
        yield (sign(surplus_value_rate(econ)), sign(1.0 - rho),
               [gcet_values(econ, j).own_value for j in range(n)])


def per_trial_draws(rng, n, trials):
    """Wage scales, A, l and directions of ``trials``, one rng.uniform call
    per draw in sweep order."""
    wage, A, l, direction = [], [], [], []
    for trial in trials:
        wage.append(rng.uniform(0.3, 1.7) if trial % 3 != 2 else 1.0)
        A.append(rng.uniform(0.0, 0.4 / n, size=(n, n)))
        l.append(rng.uniform(0.1, 1.0, size=n))
        direction.append(rng.uniform(0.05, 1.0, size=n))
    return np.array(wage), np.array(A), np.array(l), np.array(direction)


class CountingGenerator:
    """A generator that counts the methods taken from it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius(np.array([[0.8]])) == pytest.approx(0.8, abs=1e-12)

    def test_periodic_pattern(self):
        # permutation matrix: eigenvalues on the unit circle, Perron root 1
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spectral_radius(M) == pytest.approx(1.0, abs=1e-10)

    @given(arrays(float, (3, 3), elements=st.floats(0.0, 1.0)))
    @example(np.array([[1e-4, 1e-4, 1e-4],
                       [1e-4, 1e-4, 0.0],
                       [1e-4, 0.25, 1e-4]]))
    @settings(max_examples=150, deadline=None)
    def test_matches_eigvals_oracle(self, M):
        expected = max(abs(np.linalg.eigvals(M)))
        rho = spectral_radius(M)
        assert rho == pytest.approx(expected, rel=1e-8, abs=1e-9)
        # independent of any eigensolver: the Perron root of a nonnegative
        # matrix lies between its smallest and largest row sums
        rows = M.sum(axis=1)
        assert rows.min() - 1e-12 <= rho <= rows.max() + 1e-12


@st.composite
def stacks_and_bounds(draw):
    """A stack of nonnegative m x m matrices, m in 0..10, and a bound that
    is either free or close to the radius of the first matrix.

    Entries are at most 1 and bounds at least 1e-3, so the elimination
    stays far inside float64 (see ``_radius_below``).
    """
    m = draw(st.integers(0, 10))
    stack = draw(arrays(float, (draw(st.integers(1, 3)), m, m),
                        elements=st.floats(0.0, 1.0)))
    rho = spectral_radius(stack[0])
    offset = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]))
    bound = draw(st.floats(0.0, 11.0) | st.sampled_from(
        [rho * (1.0 + offset), rho * (1.0 - offset)]))
    return stack, max(bound, 1e-3)


class TestRadiusBelow:
    """The Hawkins-Simon test against the dense eigenvalue solve."""

    @given(stacks_and_bounds())
    @settings(max_examples=300, deadline=None)
    def test_matches_spectral_radius(self, case):
        stack, bound = case
        rho = np.array([spectral_radius(B) for B in stack])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            below = _radius_below(stack, bound)
        assert below.shape == rho.shape
        clear = np.abs(rho - bound) > 1e-12 * np.maximum(1.0, rho)
        assert np.array_equal(below[clear], rho[clear] < bound)

    def test_periodic_permutation(self):
        # Perron root exactly 1, with -1 just as large
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert _radius_below(P, 1.0 + 1e-10)
        assert not _radius_below(P, 1.0 - 1e-10)
        assert not _radius_below(P, 1.0)

    def test_diagonal_and_triangular(self):
        D = np.diag([0.3, 0.9, 0.5])
        assert _radius_below(D, 0.9 + 1e-12) and not _radius_below(D, 0.9)
        # reducible: the off-diagonal entries do not move the Perron root
        T = np.array([[0.2, 5.0, 7.0], [0.0, 0.7, 3.0], [0.0, 0.0, 0.4]])
        for B in (T, T.T):
            assert _radius_below(B, 0.7 + 1e-12) and not _radius_below(B, 0.7)
        # a Jordan block at the Perron root
        J = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert _radius_below(J, 0.5 + 1e-12) and not _radius_below(J, 0.5)

    def test_zero_and_empty(self):
        Z = np.zeros((3, 3))
        assert _radius_below(Z, 1e-300) and not _radius_below(Z, 0.0)
        assert _radius_below(np.zeros((2, 0, 0)), 0.0).tolist() == [True, True]

    def test_unproductive_rest_block(self):
        # the rest block of numeraire 0 in test_unproductive_rest_gives_infinite_values
        rest = np.array([[[1.1]], [[0.2]]])
        assert _radius_below(rest, 1.0 - 1e-10).tolist() == [False, True]
        assert _radius_below(rest, 1.2).tolist() == [True, True]

    @pytest.mark.parametrize("stack, bounds", [
        # the Jordan block fails at its first pivot at its root, not above it
        (np.array([[[0.5, 1.0], [0.0, 0.5]]] * 2), [0.5, 0.5 + 1e-12]),
        # the rest block of 1.1 fails at its first pivot
        (np.array([[[1.1]], [[0.2]]]), [1.0 - 1e-10, 1.2]),
        (np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.5, 1.0], [0.0, 0.5]],
                   np.zeros((2, 2))]), [1.0 + 1e-10, 0.5, 0.0]),
        (np.zeros((3, 3, 3)), [1e-300, 0.0, 1.0]),
        (np.zeros((2, 0, 0)), [0.0, 1.0]),
    ])
    def test_per_matrix_bounds_match_scalar_calls(self, stack, bounds):
        expected = [bool(_radius_below(B, bound)) for B, bound in zip(stack, bounds)]
        assert _radius_below(stack, np.array(bounds)).tolist() == expected
        # one bound per stack of a stack of stacks, as in the sweep
        outer = np.array([min(bounds), max(bounds)])
        nested = _radius_below(np.stack([stack, stack]), outer[:, None])
        assert nested.tolist() == [_radius_below(stack, b).tolist() for b in outer]


class TestEmbodiedValues:
    def test_corn_geometric_series(self):
        econ = corn()
        v = embodied_labor_values(econ)
        assert v[0] == pytest.approx(2.0, rel=1e-12)
        assert v[0] == pytest.approx(series_values(econ)[0], rel=1e-12)

    def test_no_intermediates(self):
        econ = LeontiefEconomy(np.zeros((2, 2)), np.array([0.7, 1.3]),
                               np.array([0.1, 0.1]))
        assert np.allclose(embodied_labor_values(econ), [0.7, 1.3])

    def test_two_sector_system(self):
        A = np.array([[0.2, 0.1], [0.3, 0.4]])
        econ = LeontiefEconomy(A, np.array([1.0, 1.0]), np.array([0.1, 0.1]))
        v = embodied_labor_values(econ)
        # defining equation holds to tight residual
        assert np.max(np.abs(v @ A + econ.labor - v)) < 1e-10
        assert np.allclose(v, series_values(econ, 60), rtol=1e-9)

    def test_series_truncation_bound(self):
        econ = LeontiefEconomy(np.array([[0.3, 0.2], [0.1, 0.25]]),
                               np.array([0.5, 0.8]), np.array([0.2, 0.1]))
        v = embodied_labor_values(econ)
        rho = spectral_radius(econ.input_matrix)
        for K in (5, 10, 20):
            approx = series_values(econ, K)
            bound = np.max(econ.labor) * rho ** K / (1.0 - rho)
            assert np.max(np.abs(v - approx)) <= bound * 10.0

    def test_not_productive(self):
        with pytest.raises(NotProductive):
            LeontiefEconomy(np.array([[1.0]]), np.array([1.0]), np.array([0.1]))
        with pytest.raises(NotProductive):
            LeontiefEconomy(np.array([[0.6, 0.6], [0.6, 0.6]]),
                            np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_input_validation(self):
        with pytest.raises(NonPositiveInput):
            LeontiefEconomy(np.array([[0.1]]), np.array([0.0]), np.array([0.1]))
        with pytest.raises(OutOfRange):
            LeontiefEconomy(np.array([[-0.1]]), np.array([1.0]), np.array([0.1]))


class TestSurplusAndProfit:
    def test_corn_surplus(self):
        assert surplus_value_rate(corn(wage=0.3)) == pytest.approx(0.4, rel=1e-12)
        assert surplus_value_rate(corn(wage=0.5)) == pytest.approx(0.0, abs=1e-14)
        assert surplus_value_rate(corn(wage=0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_corn_profit_signs(self):
        assert profit_sign(corn(wage=0.3)) == "positive"   # M = 0.8
        assert profit_sign(corn(wage=0.5)) == "zero"        # M = 1.0
        assert profit_sign(corn(wage=0.7)) == "negative"    # M = 1.2

    def test_fmt_corn(self):
        rep = fmt_check(corn(wage=0.3))
        assert rep.surplus_positive and rep.profit_positive and rep.equivalent
        rep = fmt_check(corn(wage=0.7))
        assert (not rep.surplus_positive and not rep.profit_positive
                and rep.equivalent)


class TestGcet:
    def test_corn_own_value_equals_augmented_coefficient(self):
        assert gcet_values(corn(wage=0.3), 0).own_value == pytest.approx(0.8)
        assert gcet_values(corn(wage=0.5), 0).own_value == pytest.approx(1.0)

    def test_two_sector_theorem_content(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            scale = float(rng.uniform(0.3, 1.7))
            econ = random_economy(rng, 2, scale)
            rho = spectral_radius(augmented_matrix(econ))
            own = [gcet_values(econ, j).own_value for j in range(2)]
            if rho < 1.0 - 1e-10:
                assert all(o < 1.0 - 1e-10 for o in own)
            elif rho > 1.0 + 1e-10:
                assert not all(o < 1.0 - 1e-10 for o in own)

    def test_bad_numeraire(self):
        with pytest.raises(OutOfRange):
            gcet_values(corn(), 1)
        with pytest.raises(OutOfRange):
            gcet_values(corn(), -1)
        with pytest.raises(OutOfRange):
            numeraire_values(augmented_matrix(corn())[None], [0, 1])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -1e-3])
    def test_rejects_matrices_it_cannot_judge(self, entry):
        M = augmented_matrix(random_economy(np.random.default_rng(2), 3, 0.5))
        M[1, 2] = entry
        with pytest.raises(OutOfRange) as exc:
            numeraire_values(M[None], np.arange(3))
        assert exc.value.field == "M"

    def test_values_beyond_float64_are_typed(self):
        # the 0.01 background closes the 1e160 chain into a cycle, so the
        # elimination overflows; without it the chain is nilpotent and the
        # elimination passes, but (I - M[R, R])^-1 holds 1e320
        cyclic = np.full((4, 4), 0.01)
        cyclic[0, 2] = cyclic[1, 0] = 1e160
        chain = np.zeros((4, 4))
        chain[0, 1] = chain[1, 2] = 1e160
        chain[3, 0] = 1.0
        # nilpotent too (rho = 0), but the overflowed entry meets a zero and
        # leaves a NaN pivot, which alone would read as rho >= 1
        nan_pivot = np.zeros((4, 4))
        nan_pivot[0, 1] = nan_pivot[2, 0] = 1e200
        for M in (cyclic, chain, nan_pivot):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OutOfRange) as exc:
                    numeraire_values(M[None], [3])
            assert exc.value.field == "M"

    def test_schur_complement_matches_whole_system_oracle(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 6, 10):
            for trial in range(40):
                scale = 1.0 if trial % 3 == 2 else float(rng.uniform(0.3, 1.7))
                econ = random_economy(rng, n, scale)
                for j in range(n):
                    got, expected = gcet_values(econ, j).values, gcet_oracle(econ, j)
                    finite = np.isfinite(expected)
                    assert np.array_equal(np.isfinite(got), finite)
                    np.testing.assert_allclose(got[finite], expected[finite],
                                               rtol=1e-12, atol=0.0)

    def test_unproductive_rest_gives_infinite_values(self):
        # M = [[0.2, 0.1], [0.6, 1.1]]: without commodity 0 the rest is
        # commodity 1 alone, with rho = 1.1; without commodity 1, rho = 0.2
        econ = LeontiefEconomy(np.diag([0.1, 0.5]), np.array([1.0, 1.0]),
                               np.array([0.1, 0.6]))
        M = augmented_matrix(econ)
        np.testing.assert_allclose(M, [[0.2, 0.1], [0.6, 1.1]], rtol=1e-15)
        first = gcet_values(econ, 0)
        assert first.own_value == np.inf and np.all(np.isinf(first.values))
        second = gcet_values(econ, 1)
        # w_0 = 0.6 / (1 - 0.2) and w_1 = 1.1 + w_0 * 0.1
        np.testing.assert_allclose(second.values, [0.75, 1.175], rtol=1e-14)
        # the array form, with a productive economy in the same stack
        stack = np.stack([M, augmented_matrix(random_economy(
            np.random.default_rng(1), 2, 0.5))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rest, own = numeraire_values(stack, np.arange(2))
        assert own[0, 0] == np.inf and np.all(np.isinf(rest[0, 0]))
        assert own[0, 1] == second.own_value
        assert np.all(np.isfinite(own[1])) and np.all(own[1] < 1.0)

    def test_single_commodity_own_value_is_the_augmented_coefficient(self):
        # n = 1: the rest is empty, so w_0 = M[0, 0] even when it is above one
        for wage in (0.3, 0.5, 0.7):
            econ = corn(wage=wage)
            M = augmented_matrix(econ)
            assert gcet_values(econ, 0).own_value == M[0, 0]
            rest, own = numeraire_values(M[None], np.array([0]))
            assert rest.shape == (1, 1, 0) and own[0, 0] == M[0, 0]


class TestDraw:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_draw_is_the_per_trial_draw(self, n):
        block_rng = np.random.default_rng(n)
        trial_rng = np.random.default_rng(n)
        # blocks at every phase of trial % 3, then a partial block of one
        for trials in (range(0, 32), range(32, 64), range(64, 96), range(96, 97)):
            drawn = _draw(block_rng, n,
                          np.arange(trials.start, trials.stop) % 3 != 2)
            for got, want in zip(drawn, per_trial_draws(trial_rng, n, trials)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert block_rng.bit_generator.state == trial_rng.bit_generator.state

    def test_random_economy_draws_like_three_uniform_calls(self):
        rng = np.random.default_rng(9)
        oracle = np.random.default_rng(9)
        for n in (1, 4, 10):
            econ = random_economy(rng, n, 0.5)
            A = oracle.uniform(0.0, 0.4 / n, size=(n, n))
            l = oracle.uniform(0.1, 1.0, size=n)
            oracle.uniform(0.05, 1.0, size=n)
            assert econ.input_matrix.tobytes() == A.tobytes()
            assert econ.labor.tobytes() == l.tobytes()
            assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_block_makes_one_draw_and_two_eliminations(self, n, monkeypatch):
        calls = []

        def counted(stack, bound):
            calls.append(stack.shape)
            return _radius_below(stack, bound)

        monkeypatch.setattr(value_theory, "_radius_below", counted)
        rng = CountingGenerator(n)
        block = _trial_block(rng, range(32, 64), n)
        assert len(block.profit_sign) == 32
        assert rng.calls == 1
        assert len(calls) == 2


class TestSweep:
    def test_thousand_trials_clean(self):
        # (5, 0) and (8, 1) draw knife-edge economies that need the radius
        # exact to well below the 1e-10 sign tolerance
        for n, seed in ((2, 42), (3, 42), (5, 0), (8, 1)):
            report = fmt_sweep(trials=1000, n=n, seed=seed)
            assert report.clean, report.text()

    @pytest.mark.parametrize("n, seed", [(2, 42), (3, 42), (5, 0), (8, 1),
                                         (1, 3), (10, 4)])
    def test_blocks_match_one_economy_at_a_time(self, n, seed):
        trials = 100  # three full blocks and a partial one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = list(sweep_trials(trials, n, seed))
            expected = list(one_economy_trials(trials, n, seed))
        assert all(len(b.profit_sign) <= 32 for b in blocks)
        e_sign = np.concatenate([b.surplus_sign for b in blocks])
        p_sign = np.concatenate([b.profit_sign for b in blocks])
        own = np.concatenate([b.own_values for b in blocks])
        assert e_sign.tolist() == [e for e, _, _ in expected]
        assert p_sign.tolist() == [p for _, p, _ in expected]
        own_expected = np.array([o for _, _, o in expected])
        finite = np.isfinite(own_expected)
        assert np.array_equal(np.isfinite(own), finite)
        np.testing.assert_allclose(own[finite], own_expected[finite],
                                   rtol=1e-12, atol=0.0)
        assert set(p_sign.tolist()) == {-1, 0, 1}

    def test_makes_no_eigenvalue_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called np.linalg.eigvals")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for n in (1, 2, 5, 10):
            blocks = list(sweep_trials(100, n, 0))
            assert sum(len(b.profit_sign) for b in blocks) == 100
        assert fmt_sweep(trials=100, n=5, seed=0).clean

    def test_deterministic_report(self):
        a = fmt_sweep(trials=50, n=2, seed=123).text()
        b = fmt_sweep(trials=50, n=2, seed=123).text()
        assert a == b

    def test_rejects_bad_args(self):
        with pytest.raises(NonPositiveInput):
            fmt_sweep(trials=0, n=2, seed=1)
        with pytest.raises(OutOfRange):
            fmt_sweep(trials=10, n=11, seed=1)

    def test_surplus_rate_tracks_wage_scale(self):
        rng = np.random.default_rng(5)
        for scale in (0.4, 1.0, 1.6):
            econ = random_economy(rng, 3, scale)
            assert surplus_value_rate(econ) == pytest.approx(1.0 - scale,
                                                             rel=1e-10, abs=1e-12)


class TestSweepCli:
    def test_prints_the_report(self, capsys):
        argv = ["fmt-sweep", "--size", "4", "--trials", "50", "--seed", "1"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == fmt_sweep(50, 4, 1).text() + "\n"

    @pytest.mark.parametrize("size, seed", [("11", "1"), ("3", "-1")],
                             ids=["size", "seed"])
    def test_size_out_of_range_is_a_config_error(self, capsys, size, seed):
        argv = ["fmt-sweep", "--size", size, "--trials", "50", "--seed", seed]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
