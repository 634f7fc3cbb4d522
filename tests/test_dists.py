import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbtrader.dists import (
    DiscretePriceDistribution,
    ForecastScores,
    MixtureForecast,
    crps,
    flatten,
    score_batch,
)
from imbtrader.market_impact import Regime
from imbtrader.price_models import QuantileModelBank, predict_regulation_distribution


def uniform_dist(values):
    n = len(values)
    return DiscretePriceDistribution(values, np.full(n, 1.0 / n))


def quantile_forecast(values):
    """Equal-mass forecast of a bank whose level i predicts exactly ``values[i]``.

    Level i puts all its softmax mass on ladder entry i, and the ladder
    prices are ``values``, so the bank's raw outputs arrive unordered.
    """
    n = len(values)
    bank = QuantileModelBank(
        regime=Regime.MDP, taus=(np.arange(n) + 0.5) / n, weights=np.zeros((n, n, 1)),
        biases=300.0 * np.eye(n), scaler=None,
    )
    return predict_regulation_distribution(bank, [0.0], values)


class TestCanonicalForm:
    def test_sorted_and_merged(self):
        d = DiscretePriceDistribution([3.0, 1.0, 1.0 + 1e-13], [0.2, 0.5, 0.3])
        assert d.values.tolist() == [1.0, 3.0]
        assert d.masses.tolist() == [0.8, 0.2]

    def test_zero_mass_atoms_dropped(self):
        d = DiscretePriceDistribution([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert d.values.tolist() == [1.0, 3.0]

    def test_zero_mass_atom_cannot_shift_a_merge(self):
        # the zero atom sits within merge tolerance just below a real one
        d = DiscretePriceDistribution([1.0, 1.0 - 5e-13], [1.0, 0.0])
        assert d.values.tolist() == [1.0]

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscretePriceDistribution([1.0], [0.9])
        with pytest.raises(ValueError):
            DiscretePriceDistribution([1.0, 2.0], [-0.1, 1.1])
        with pytest.raises(ValueError):
            DiscretePriceDistribution([], [])

    def test_immutable(self):
        d = DiscretePriceDistribution([1.0], [1.0])
        with pytest.raises(AttributeError):
            d.values = np.array([2.0])
        with pytest.raises(ValueError):
            d.values[0] = 2.0


class TestFlatten:
    def test_degenerate_pi_one_returns_down(self):
        down = uniform_dist([10.0, 20.0])
        up = uniform_dist([100.0, 200.0])
        assert flatten(MixtureForecast(1.0, down, up)) == down

    def test_degenerate_pi_zero_returns_up(self):
        down = uniform_dist([10.0, 20.0])
        up = uniform_dist([100.0, 200.0])
        assert flatten(MixtureForecast(0.0, down, up)) == up

    def test_even_mixture(self):
        m = MixtureForecast(
            0.5, DiscretePriceDistribution([-10.0], [1.0]), DiscretePriceDistribution([200.0], [1.0])
        )
        flat = flatten(m)
        assert flat.values.tolist() == [-10.0, 200.0]
        assert flat.masses.tolist() == [0.5, 0.5]

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mass_always_one(self, pi):
        down = uniform_dist([1.0, 2.0, 5.0])
        up = uniform_dist([50.0, 80.0])
        flat = flatten(MixtureForecast(pi, down, up))
        assert abs(float(flat.masses.sum()) - 1.0) <= 1e-9


class TestMoments:
    def test_point_mass(self):
        d = DiscretePriceDistribution([42.0], [1.0])
        assert d.mean() == 42.0
        assert d.std() == 0.0

    def test_uniform_expectation(self):
        assert uniform_dist([1.0, 2.0, 3.0, 4.0]).mean() == pytest.approx(2.5)

    def test_quantile_left_continuous_inverse(self):
        d = DiscretePriceDistribution([0.0, 1.0], [0.5, 0.5])
        assert d.quantile(0.5) == 0.0
        assert d.quantile(0.5 + 1e-12) == 1.0
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == 1.0

    def test_quantile_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 15)
            masses = rng.random(n) + 1e-3
            d = DiscretePriceDistribution(rng.normal(size=n) * 50, masses / masses.sum())
            taus = np.sort(rng.random(30))
            qs = [d.quantile(t) for t in taus]
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_quantile_rejects_out_of_range(self):
        d = DiscretePriceDistribution([1.0], [1.0])
        with pytest.raises(ValueError):
            d.quantile(1.5)


class TestReorder:
    """Unordered quantile outputs become a sorted equal-mass forecast."""

    def test_basic_sort(self):
        d = quantile_forecast([1.0, 3.0, 2.0])
        assert d.values.tolist() == [1.0, 2.0, 3.0]

    def test_idempotent(self):
        once = quantile_forecast([5.0, 5.0, 1.0])
        assert once.values.tolist() == [1.0, 5.0]
        assert once.masses.tolist() == pytest.approx([1 / 3, 2 / 3])
        assert DiscretePriceDistribution(once.values, once.masses) == once

    def test_multiset_preserved(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=9)
        d = quantile_forecast(values)
        assert d.values.tolist() == sorted(values.tolist())
        assert np.all(d.masses == 1.0 / 9)

    def test_levels_validated(self):
        def bank(taus):
            n = len(taus)
            return QuantileModelBank(
                regime=Regime.MDP, taus=np.array(taus), weights=np.zeros((n, 2, 1)),
                biases=np.zeros((n, 2)), scaler=None,
            )

        with pytest.raises(ValueError, match="evenly spaced"):
            bank([0.1, 0.5, 0.8])
        with pytest.raises(ValueError, match="inside"):
            bank([0.0, 0.5])


class TestCrps:
    def test_perfect_point_forecast(self):
        assert crps(DiscretePriceDistribution([100.0], [1.0]), 100.0) == 0.0

    def test_point_forecast_equals_absolute_error(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, y = rng.normal(scale=100, size=2)
            got = crps(DiscretePriceDistribution([a], [1.0]), y)
            assert got == pytest.approx(abs(a - y), abs=1e-9)

    def test_two_atom_example(self):
        d = DiscretePriceDistribution([0.0, 1.0], [0.5, 0.5])
        assert crps(d, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_matches_trapezoid_integration(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            masses = rng.random(20) + 0.05
            d = DiscretePriceDistribution(rng.uniform(0.0, 5.0, 20), masses / masses.sum())
            y = rng.uniform(-0.5, 5.5)
            grid = np.arange(d.min_value - 1.0, max(d.max_value, y) + 1.0, 1e-3)
            cdf = np.array([d.cdf(x) for x in grid])
            integrand = (cdf - (grid >= y)) ** 2
            oracle = np.trapezoid(integrand, grid)
            assert crps(d, y) == pytest.approx(oracle, abs=1e-3)


class TestScoreBatch:
    def test_perfect_forecasts(self):
        obs = [10.0, -5.0, 30.0]
        forecasts = [DiscretePriceDistribution([y], [1.0]) for y in obs]
        assert score_batch(forecasts, obs) == ForecastScores(0.0, 0.0, 0.0, 0.0)

    def test_single_pair_closed_form(self):
        d = DiscretePriceDistribution([0.0, 2.0], [0.5, 0.5])
        scores = score_batch([d], [1.0])
        assert scores.rmse == pytest.approx(0.0)
        assert scores.mae == pytest.approx(1.0)  # median convention: left inverse -> 0
        assert scores.std == pytest.approx(1.0)
        assert scores.crps == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            score_batch([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_batch([DiscretePriceDistribution([1.0], [1.0])], [1.0, 2.0])
