import logging
import re

import numpy as np
import pytest

from benchmark_oracle import benchmark_rows, dynamic_transition_matrix, markov_state_probability
from linear_bank_oracle import descent_linear_quantile_bank, linear_pinball_loss_and_grad
from imbtrader import benchmarks
from imbtrader._optim import _GAP_TOL, _design, fit_quantile_lp
from imbtrader.benchmarks import (
    DEFAULT_HORIZON,
    LinearQuantileBank,
    chain_state_probability,
    dynamic_feature_columns,
    fit_benchmark_suite,
    fit_linear_quantile_bank,
    fit_static_transitions,
    fit_transition_models,
    run_benchmark,
)
from imbtrader.data_io import FeatureLayout
from imbtrader.dists import canonical_rows
from imbtrader.pipeline import LeakageError, attach_z
from imbtrader.price_models import DegenerateLabelsError, LogisticModel, pinball_loss, quantile_levels
from test_backtest import toy_models, toy_tick
from test_price_models import BAD_CAPS, no_solver


class TestStaticTransitions:
    def test_alternating_sequence(self):
        labels = np.array([True, False] * 20)
        t = fit_static_transitions(labels)
        assert t[0].tolist() == [0.0, 1.0]
        assert t[1].tolist() == [1.0, 0.0]

    def test_constant_sequence_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="imbtrader.benchmarks"):
            t = fit_static_transitions(np.array([True] * 10))
        assert t[0].tolist() == [1.0, 0.0]
        assert t[1].tolist() == [0.5, 0.5]
        assert "never visited" in caplog.text

    def test_iid_labels_approach_marginal(self):
        rng = np.random.default_rng(0)
        labels = rng.random(100_000) < 0.7
        t = fit_static_transitions(labels)
        assert np.allclose(t[:, 0], 0.7, atol=0.02)

    def test_rows_stochastic_under_powers(self):
        rng = np.random.default_rng(1)
        raw = rng.random((2, 2))
        t = raw / raw.sum(axis=1, keepdims=True)
        powered = np.linalg.matrix_power(t, 5)
        assert np.all(np.abs(powered.sum(axis=1) - 1.0) <= 1e-12)


class TestMarkovPropagation:
    def test_identity_matrix_keeps_state(self):
        eye = np.eye(2)
        for horizon in (1, 5, 50):
            assert markov_state_probability(eye, True, horizon) == 1.0
            assert markov_state_probability(eye, False, horizon) == 0.0

    def test_matches_matrix_power_oracle(self):
        t = np.array([[0.9, 0.1], [0.2, 0.8]])
        got = markov_state_probability(t, True, 5)
        oracle = np.linalg.matrix_power(t, 5)[0, 0]
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_long_horizon_converges_to_stationary(self):
        t = np.array([[0.9, 0.1], [0.2, 0.8]])
        eigvals, eigvecs = np.linalg.eig(t.T)
        stat = np.real(eigvecs[:, np.argmax(np.real(eigvals))])
        stat = stat / stat.sum()
        for start in (True, False):
            assert markov_state_probability(t, start, 200) == pytest.approx(stat[0], abs=1e-6)

    @pytest.mark.parametrize(
        "labels, error, message",
        [
            # the one surplus tick is the last: no transition leaves surplus
            ([False] * 9 + [True], ValueError, "transitions from surplus: training data has no rows"),
            # every tick after a shortage is a shortage
            ([True, True, False, False, False, False], DegenerateLabelsError,
             "transitions from shortage: training data contains a single label"),
        ],
        ids=["no rows", "single label"],
    )
    def test_unfittable_state_named(self, labels, error, message):
        features = np.random.default_rng(0).normal(size=(len(labels), 2))
        with pytest.raises(error, match=f"^{message}$"):
            fit_transition_models(labels, features)

    @BAD_CAPS
    def test_bad_iteration_cap_rejected_by_name(self, monkeypatch, cap, message):
        monkeypatch.setattr(benchmarks, "fit_logistic", no_solver)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_transition_models(rng.random(40) < 0.5, rng.normal(size=(40, 2)), max_iter=cap)

    def test_dynamic_with_constant_inputs_reproduces_static_exactly(self):
        # constant inputs give input-independent transitions
        rng = np.random.default_rng(2)
        labels = rng.random(400) < 0.6
        features = rng.normal(size=(400, 3))
        pair = fit_transition_models(labels, features * 0.0)  # constant inputs
        f = np.zeros(3)
        t_step = dynamic_transition_matrix(pair, f)
        dynamic = chain_state_probability([dynamic_transition_matrix(pair, f) for _ in range(5)], True)
        static = chain_state_probability([t_step] * 5, True)
        assert dynamic == static


def levels(bank) -> np.ndarray:
    """A linear bank's levels, from its level count."""
    return quantile_levels(bank.biases.size)


def training_losses(bank, x, y) -> np.ndarray:
    """Each level's mean pinball loss on the training rows."""
    preds = bank.predict_matrix(x)
    return np.array([np.mean(pinball_loss(tau, y - preds[:, i])) for i, tau in enumerate(levels(bank))])


class TestLinearQuantileBank:
    def test_planted_linear_recovery(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = x @ w + 7.0
        bank = fit_linear_quantile_bank(x, y, n_q=4, max_iter=600)
        preds = bank.predict_matrix(x)
        losses = [
            float(np.mean(pinball_loss(tau, y - preds[:, i]))) for i, tau in enumerate(levels(bank))
        ]
        assert max(losses) <= 1e-3

    def test_constant_target_flat_quantiles(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        bank = fit_linear_quantile_bank(x, np.full(100, 42.0), n_q=3)
        prices = bank.predict_matrix(np.zeros(2))
        values, masses = canonical_rows(prices, np.full(prices.shape, 1.0 / 3))
        assert values.shape == (1, 1) and masses[0, 0] == pytest.approx(1.0)
        assert values[0, 0] == pytest.approx(42.0, abs=1e-3)

    def test_rows_get_the_bits_of_one_row_calls(self):
        rng = np.random.default_rng(6)
        bank = fit_linear_quantile_bank(rng.normal(size=(80, 4)), rng.normal(size=80), n_q=5, max_iter=20)
        x = rng.normal(size=(300, 4))
        assert np.array_equal(bank.predict_matrix(x), np.vstack([bank.predict_matrix(row) for row in x]))

    @pytest.mark.parametrize("n_q", [2.5, 8.0])
    def test_level_count_must_be_an_integer(self, n_q):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=f"^n_q: expected an integer, got {n_q}$"):
            fit_linear_quantile_bank(rng.normal(size=(60, 3)), rng.normal(size=60), n_q=n_q)

    @BAD_CAPS
    def test_bad_iteration_cap_rejected_by_name(self, monkeypatch, cap, message):
        monkeypatch.setattr(benchmarks, "fit_quantile_lp", no_solver)
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_linear_quantile_bank(rng.normal(size=(60, 3)), rng.normal(size=60), n_q=4,
                                     max_iter=cap)

    @pytest.mark.parametrize("name", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, name, bad):
        rng = np.random.default_rng(9)
        data = {"x": rng.normal(size=(60, 3)), "y": rng.normal(size=60)}
        data[name][7] = bad
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            fit_linear_quantile_bank(data["x"], data["y"], n_q=4)

    def test_every_level_at_most_the_descent_loss(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 5))
        y = x @ np.array([3.0, -1.0, 0.5, 0.0, 2.0]) + 4.0 + rng.standard_t(2.0, 400) * (1.0 + np.abs(x[:, 0]))
        bank = fit_linear_quantile_bank(x, y, n_q=9)
        descent = descent_linear_quantile_bank(x, y, n_q=9)
        exact, reference = (training_losses(b, x, y) for b in (bank, descent))
        assert np.all(exact <= reference)
        result = fit_quantile_lp(x, y, levels(bank), max_iter=400)
        assert np.all(result.converged) and np.all(result.gap <= _GAP_TOL)
        # the loss is convex, so a point that no small step improves on is its minimum
        for direction in rng.normal(size=(20, 6)):
            for step in (1e-3, -1e-3):
                moved = LinearQuantileBank(bank.weights + step * direction[:5], bank.biases + step * direction[5])
                assert np.all(training_losses(moved, x, y) >= exact * (1.0 - _GAP_TOL))

    def test_intercept_only_gives_the_sample_quantiles(self):
        y = np.random.default_rng(12).lognormal(size=101)
        bank = fit_linear_quantile_bank(np.empty((101, 0)), y, n_q=4)
        assert bank.biases == pytest.approx(np.quantile(y, levels(bank), method="inverted_cdf"), rel=1e-6)

    @pytest.mark.parametrize("categories", [6, 5], ids=["every_row_in_a_group", "reference_category"])
    def test_indicator_block_and_dense_design_agree(self, categories):
        # The same regression with the indicators scaled by 2: no longer 0/1, so every column is
        # dense. Odd group sizes keep size * tau off the integers at every level (tau = odd / 18),
        # so each level has one optimum; with a whole optimal face the two runs may stop at
        # different points of it.
        rng = np.random.default_rng(13)
        group = rng.permutation(np.repeat(np.arange(6), [49, 51, 47, 53, 45, 55]))
        n = group.size
        x = np.hstack([np.eye(6)[group][:, :categories], rng.normal(size=(n, 3))])
        y = 10.0 * group + x[:, -3:] @ np.array([1.0, -2.0, 0.5]) + rng.standard_t(3.0, n)
        doubled = x.copy()
        doubled[:, :categories] *= 2.0
        assert _design(x).indicators.size == categories and _design(doubled).indicators.size == 0
        fitted = fit_linear_quantile_bank(x, y, n_q=9).predict_matrix(x)
        dense = fit_linear_quantile_bank(doubled, y, n_q=9).predict_matrix(doubled)
        assert np.abs(fitted - dense).max() <= 1e-8 * np.abs(fitted).max()

    @pytest.mark.parametrize("n", [6, 9, 12, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_design_keeps_each_column_that_adds_rank(self, seed, n):
        # Dependent columns before independent ones, on fewer rows than columns too: a dependent column still
        # takes a direction in a QR, so a single QR of such a design can drop a later column that adds rank.
        rng = np.random.default_rng(seed)
        onehot = np.eye(4)[rng.integers(0, 4, n)][:, :3]  # the fourth group's rows are in no group
        free = rng.normal(size=(n, 3))
        x = np.column_stack([onehot, free[:, 0], 2.0 * free[:, 0], np.full(n, 3.0), onehot @ rng.normal(size=3),
                             free[:, 1], free[:, 0] - free[:, 1], free[:, 2], rng.normal(size=n)])
        design = _design(x)
        others = np.setdiff1d(np.arange(x.shape[1]), design.indicators)
        ordered = np.column_stack([x[:, design.indicators], np.ones(n), x[:, others]])
        ranks = [np.linalg.matrix_rank(ordered[:, :i]) for i in range(design.indicators.size, ordered.shape[1] + 1)]
        adds_rank = np.concatenate(([-1], others))[np.diff(ranks) > 0]
        assert design.columns.tolist() == adds_rank.tolist()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        params = rng.normal(size=3)
        val, grad = linear_pinball_loss_and_grad(params, x, y, 0.3)
        fd = np.empty_like(params)
        for i in range(3):
            up, dn = params.copy(), params.copy()
            up[i] += 1e-5
            dn[i] -= 1e-5
            fd[i] = (
                linear_pinball_loss_and_grad(up, x, y, 0.3)[0]
                - linear_pinball_loss_and_grad(dn, x, y, 0.3)[0]
            ) / 2e-5
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


class TestBenchmarkRun:
    def test_table_shape_and_order(self, trained):
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        table = run_benchmark(suite, test_ticks)
        assert [name for name, _ in table.rows] == [
            "mixture", "static_rsmm", "dynamic_rsmm", "linear_quantile",
        ]
        assert table.n_scored == len(test_ticks) - DEFAULT_HORIZON
        csv_text = table.to_csv_string()
        assert csv_text.splitlines()[0] == "model,rmse,mae,std,crps"
        assert len(csv_text.splitlines()) == 5
        assert "mixture" in table.to_text()

    def test_mixture_beats_static_rsmm_on_signal_driven_market(self, trained):
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        table = run_benchmark(suite, test_ticks)
        scores = dict(table.rows)
        assert scores["mixture"].crps <= scores["static_rsmm"].crps

    def test_matched_transition_models_give_identical_rows(self, trained):
        # dynamic models with zero weights transition identically everywhere;
        # pointing the static matrix at that same matrix must reproduce the
        # dynamic row bit for bit
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        zeroed = tuple(
            LogisticModel(bias=m.bias, weights=np.zeros_like(m.weights), scaler=m.scaler)
            for m in suite.transition_models
        )
        suite.transition_models = zeroed
        probe = np.zeros(dynamic_feature_columns(models.layout).size)
        suite.static_matrix = dynamic_transition_matrix(zeroed, probe)
        table = run_benchmark(suite, test_ticks)
        scores = dict(table.rows)
        assert scores["static_rsmm"] == scores["dynamic_rsmm"]

    def test_rows_equal_the_per_tick_object_oracle(self, trained):
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        assert run_benchmark(suite, test_ticks).rows == benchmark_rows(suite, test_ticks)

    def test_no_distribution_object_per_tick(self, trained, distribution_objects):
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        run_benchmark(suite, test_ticks)
        assert distribution_objects == []

    def test_max_iter_caps_the_transition_fits_only(self, trained, monkeypatch):
        # the linear bank's interior-point levels keep fit_linear_quantile_bank's own cap
        models, train_ticks, _ = trained
        caps = {}
        for name in ("fit_transition_models", "fit_linear_quantile_bank"):
            def capture(*args, _name=name, _fit=getattr(benchmarks, name), **kwargs):
                caps[_name] = kwargs.get("max_iter")
                return _fit(*args, **kwargs)
            monkeypatch.setattr(benchmarks, name, capture)
        fit_benchmark_suite(train_ticks, models, max_iter=7)
        assert caps == {"fit_transition_models": 7, "fit_linear_quantile_bank": None}

    def test_split_mismatch_rejected(self, trained):
        models, train_ticks, test_ticks = trained
        suite = fit_benchmark_suite(train_ticks, models, max_iter=150)
        with pytest.raises(LeakageError):
            run_benchmark(suite, train_ticks[-20:] + test_ticks)

    def test_bundle_training_range_rejected(self, seed5_bundle):
        # the suite's own fit ends at tick 99, but the mixture row scores the bundle's forecasts
        models, ticks = seed5_bundle
        suite = fit_benchmark_suite(ticks[:100], models)
        message = f"tick {ticks[150].timestamp.isoformat()} is not after the training end {models.train_end.isoformat()}"
        with pytest.raises(LeakageError, match=f"^{re.escape(message)}$"):
            run_benchmark(suite, attach_z(ticks[150:300], models))

    @pytest.mark.parametrize("dropped", ["quarter_onehot", "price_diff"])
    def test_layout_without_a_block_rejected_by_name(self, trained, dropped):
        layout = trained[0].layout
        blocks = {name: bounds for name, bounds in layout.blocks.items() if name != dropped}
        message = f"the dynamic benchmark needs the feature block '{dropped}', the layout has none"
        with pytest.raises(ValueError, match=f"^{message}$"):
            dynamic_feature_columns(FeatureLayout(names=layout.names, blocks=blocks))

    @pytest.mark.parametrize("models, kwargs, message", [
        # a hand-built bundle whose one block is "all": no dynamic benchmark columns
        (toy_models(), {}, "the dynamic benchmark needs the feature block 'quarter_onehot', the layout has none"),
        (None, {"max_iter": -1}, "max_iter must be at least 0, got -1"),
        (None, {"max_iter": 2.5}, "max_iter: expected an integer, got 2.5"),
    ], ids=["single block layout", "negative max_iter", "fractional max_iter"])
    def test_bad_suite_input_fails_before_any_fit(self, trained, monkeypatch, models, kwargs, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        for name in ("fit_static_transitions", "fit_transition_models", "fit_linear_quantile_bank"):
            monkeypatch.setattr(benchmarks, name, no_fit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_benchmark_suite([toy_tick()] * 3, models or trained[0], **kwargs)

    @pytest.mark.parametrize("n_ticks", [0, 1, 2])
    def test_too_few_training_ticks_named_before_any_fit(self, trained, caplog, n_ticks):
        with caplog.at_level(logging.DEBUG), \
                pytest.raises(ValueError, match=f"^need at least 3 training ticks, got {n_ticks}$"):
            fit_benchmark_suite(trained[1][:n_ticks], trained[0])
        assert caplog.records == []

    def test_dynamic_feature_columns_subset(self, trained):
        models, _, _ = trained
        cols = dynamic_feature_columns(models.layout)
        assert cols.size == 96 + 3 + 3 + 1
        assert "s_lag_4" not in [models.layout.names[c] for c in cols]
