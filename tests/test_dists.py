import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmark_oracle import score_batch, std
from canonical_oracle import canonical_atoms
from crps_oracle import crps_atoms
from imbtrader.dists import (
    MERGE_TOL,
    DiscretePriceDistribution,
    ForecastScores,
    MixtureForecast,
    canonical_rows,
    crps,
    crps_rows,
    flatten,
    flatten_rows,
    moment_rows,
    quantile_rows,
    row_atoms,
    score_rows,
)
from imbtrader.market_impact import Regime
from imbtrader.price_models import QuantileModelBank, predict_regulation_distribution


def uniform_dist(values):
    n = len(values)
    return DiscretePriceDistribution(values, np.full(n, 1.0 / n))


def as_rows(dists):
    """Distribution objects as canonical rows: their atoms, padded with zero-mass copies of the first."""
    width = max(d.n_atoms for d in dists)
    values = np.array([np.pad(d.values, (0, width - d.n_atoms), constant_values=d.values[0]) for d in dists])
    return values, np.array([np.pad(d.masses, (0, width - d.n_atoms)) for d in dists])


# Atom values with exact duplicates, ties within MERGE_TOL and near misses just outside it.
ATOM_VALUES = st.sampled_from([-3.0, 0.0, 1.0, 2.5, 100.0]).flatmap(
    lambda v: st.sampled_from([v, v + 0.5 * MERGE_TOL, v + MERGE_TOL, v - MERGE_TOL, v + 3 * MERGE_TOL])
)


@st.composite
def distribution_rows(draw, n_rows, max_atoms=10):
    """(values, masses) of ``n_rows`` distributions with zero masses among the atoms; every row keeps one."""
    k = draw(st.integers(1, max_atoms))
    values = np.array(draw(st.lists(ATOM_VALUES, min_size=n_rows * k, max_size=n_rows * k))).reshape(n_rows, k)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=n_rows * k, max_size=n_rows * k)), dtype=float)
    weights = weights.reshape(n_rows, k)
    weights[:, 0] += weights.sum(axis=1) == 0.0
    return values, weights / weights.sum(axis=1, keepdims=True)


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
    def test_flatten_is_one_canonicalization_of_both_regimes(self, pi):
        # down atoms then up, weighted by pi and 1 - pi, canonicalized once: an up atom within MERGE_TOL merges
        down = uniform_dist([1.0, 2.0, 5.0])
        up = DiscretePriceDistribution([2.0 + 0.1 * MERGE_TOL, 50.0, 80.0], [0.2, 0.3, 0.5])
        want = DiscretePriceDistribution(np.concatenate([down.values, up.values]),
                                         np.concatenate([down.masses * pi, up.masses * (1.0 - pi)]))
        flat = flatten(MixtureForecast(pi, down, up))
        assert flat.values.tobytes() == want.values.tobytes() and flat.masses.tobytes() == want.masses.tobytes()

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
        assert [m.tolist() for m in moment_rows(*as_rows([d]))] == [[42.0], [0.0]]

    def test_uniform_expectation(self):
        assert uniform_dist([1.0, 2.0, 3.0, 4.0]).mean() == pytest.approx(2.5)

    def test_quantile_left_continuous_inverse(self):
        d = DiscretePriceDistribution([0.0, 1.0], [0.5, 0.5])
        assert quantile_rows(*as_rows([d]), [0.5, 0.5 + 1e-12, 0.0, 1.0]).tolist() == [[0.0, 1.0, 0.0, 1.0]]

    def test_quantile_monotone_in_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 15)
            masses = rng.random(n) + 1e-3
            d = DiscretePriceDistribution(rng.normal(size=n) * 50, masses / masses.sum())
            qs = quantile_rows(*as_rows([d]), np.sort(rng.random(30)))[0]
            assert np.all(np.diff(qs) >= 0.0)

    def test_quantile_of_a_padded_row_stays_on_its_atoms(self):
        # ten masses of 0.1 sum to just under 1, so tau = 1 falls past the CDF; the padding must not answer
        short = DiscretePriceDistribution(np.arange(10.0), np.full(10, 0.1))
        wide = uniform_dist(np.arange(20.0))
        assert quantile_rows(*as_rows([short, wide]), 1.0).tolist() == [[9.0], [19.0]]

    def test_moments_of_wide_rows_are_the_objects(self):
        # products over the padding too would sum in another order at these widths
        rng = np.random.default_rng(8)
        dists = [uniform_dist(rng.normal(size=k) * 50.0) for k in rng.integers(1, 200, size=60)]
        means, stds = moment_rows(*as_rows(dists))
        assert means.tolist() == [d.mean() for d in dists]
        assert stds.tolist() == [std(d) for d in dists]

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_rows(*as_rows([DiscretePriceDistribution([1.0], [1.0])]), 1.5)

    @pytest.mark.parametrize("taus", [[np.nan], [0.5, np.nan]])
    def test_quantile_rejects_nan_level(self, taus):
        # NaN passed the range check and gave each row's first atom
        with pytest.raises(ValueError, match="outside \\[0, 1\\] or not a number"):
            quantile_rows(*as_rows([uniform_dist([1.0, 2.0])]), taus)


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

        with pytest.raises(ValueError, match="bin midpoints"):
            bank([0.1, 0.5, 0.8])
        with pytest.raises(ValueError, match="bin midpoints"):
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


def crps_case(rng, n_atoms, where):
    """A canonical row of ``n_atoms`` random atoms and an observation ``where`` relative to them."""
    values = np.unique(rng.normal(50.0, 30.0, n_atoms))
    masses = rng.random(values.size) + 0.05
    masses /= masses.sum()
    i = rng.integers(values.size)
    observed = {"below": values[0] - rng.random() - 0.5, "above": values[-1] + rng.random() + 0.5,
                "on": values[i], "between": values[min(i, values.size - 2)] + 1e-3}[where]
    return values, masses, observed


class TestCrpsRows:
    """``crps_rows`` against the one-row routine it replaced, bit for bit."""

    @pytest.mark.parametrize("where", ["below", "above", "on", "between"])
    def test_term_counts_around_the_pairwise_blocks(self, where):
        # a row has one term per breakpoint gap: its atoms, plus the observation unless it sits on one
        rng = np.random.default_rng(["below", "above", "on", "between"].index(where))
        extra = 1 if where == "on" else 0
        counts = [n for n in (1, 2, 7, 8, 9, 128, 129, 201) if n + extra >= 2 or where != "between"]
        cases = [crps_case(rng, n + extra, where) for n in counts]
        dists = [DiscretePriceDistribution(v, m) for v, m, _ in cases]
        observed = np.array([y for _, _, y in cases])
        assert [np.unique(np.append(d.values, y)).size - 1 for d, y in zip(dists, observed)] == counts
        want = [crps_atoms(d.values, d.masses, y) for d, y in zip(dists, observed)]
        assert crps_rows(*as_rows(dists), observed).tolist() == want
        assert [crps(d, y) for d, y in zip(dists, observed)] == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_rows_equal_the_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        values, masses = canonical_rows(*data.draw(distribution_rows(n, max_atoms=40)))
        observed = data.draw(st.lists(ATOM_VALUES | st.floats(-200.0, 200.0), min_size=n, max_size=n))
        want = [crps_atoms(v, m, y) for (v, m), y in zip(row_atoms(values, masses), observed)]
        assert crps_rows(values, masses, observed).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observed_price_must_be_finite(self, bad):
        values, masses = as_rows([uniform_dist([1.0, 2.0])] * 2)
        with pytest.raises(ValueError, match="observed price must be finite"):
            crps_rows(values, masses, [1.5, bad])
        with pytest.raises(ValueError, match="observed price must be finite"):
            crps(uniform_dist([1.0, 2.0]), bad)


class TestScoreBatch:
    """``score_rows``, the batch scorer of canonical rows."""

    def test_perfect_forecasts(self):
        obs = [10.0, -5.0, 30.0]
        forecasts = [DiscretePriceDistribution([y], [1.0]) for y in obs]
        assert score_rows(*as_rows(forecasts), obs) == ForecastScores(0.0, 0.0, 0.0, 0.0)

    def test_single_pair_closed_form(self):
        d = DiscretePriceDistribution([0.0, 2.0], [0.5, 0.5])
        scores = score_rows(*as_rows([d]), [1.0])
        assert scores.rmse == pytest.approx(0.0)
        assert scores.mae == pytest.approx(1.0)  # median convention: left inverse -> 0
        assert scores.std == pytest.approx(1.0)
        assert scores.crps == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            score_rows(np.empty((0, 1)), np.empty((0, 1)), [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_rows(*as_rows([DiscretePriceDistribution([1.0], [1.0])]), [1.0, 2.0])


class TestRows:
    """The row kernels give each row the bits of its distribution object."""

    @given(st.integers(1, 6).flatmap(distribution_rows))
    @settings(max_examples=200, deadline=None)
    def test_canonical_rows_are_the_objects(self, rows):
        # Both the kernel and the object that calls it on one row keep the bits of the one-row oracle.
        values, masses = canonical_rows(*rows)
        for v, m, raw_v, raw_m in zip(values, masses, *rows):
            want_v, want_m = canonical_atoms(raw_v, raw_m)
            k = want_v.size
            assert v[:k].tobytes() == want_v.tobytes() and m[:k].tobytes() == want_m.tobytes()
            assert np.all(v[k:] == v[0]) and np.all(m[k:] == 0.0)
            d = DiscretePriceDistribution(raw_v, raw_m)
            assert d.values.tobytes() == want_v.tobytes() and d.masses.tobytes() == want_m.tobytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_scorer_equals_the_object_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        raw_down, raw_up = data.draw(distribution_rows(n)), data.draw(distribution_rows(n))
        pi = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
        observed = data.draw(st.lists(ATOM_VALUES | st.floats(-200.0, 200.0), min_size=n, max_size=n))
        values, masses = flatten_rows(np.array(pi), canonical_rows(*raw_down), canonical_rows(*raw_up))
        flat = [
            flatten(MixtureForecast(p, DiscretePriceDistribution(*down), DiscretePriceDistribution(*up)))
            for p, down, up in zip(pi, zip(*raw_down), zip(*raw_up))
        ]
        assert np.array_equal(values, as_rows(flat)[0]) and np.array_equal(masses, as_rows(flat)[1])
        assert score_rows(values, masses, observed) == score_batch(flat, observed)
