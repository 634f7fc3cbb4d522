import json
import math
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from logistic_oracle import descent_logistic, training_loss_and_grad
from position_oracle import midpoint_position_loss

from imbtrader import _optim, price_models
from imbtrader.data_io import FeatureLayout, MarketTick
from imbtrader.market_impact import ImpactParams, Regime
from imbtrader.pipeline import TrainedModels, _reader, _to_json, make_forecaster
from imbtrader.price_models import (
    DegenerateLabelsError,
    LogisticModel,
    QuantileModelBank,
    ReserveGrid,
    augment_with_positions,
    clipped_sigmoid,
    fit_logistic,
    fit_position_model,
    fit_quantile_bank,
    logistic_loss_and_grad,
    pinball_loss,
    position_loss,
    predict_regulation_distribution,
    quantile_levels,
    quantile_loss_and_grad,
    quantile_matrix,
)


# Iteration caps that are no count: a fraction ran as its floor, a negative cap as 0.
BAD_CAPS = pytest.mark.parametrize("cap, message", [
    (2.5, "max_iter: expected an integer, got 2.5"),
    (-1, "max_iter must be at least 0, got -1"),
], ids=["fraction", "negative"])


def no_solver(*args, **kwargs):
    raise AssertionError("the solver ran before the iteration cap was checked")


def bare_logistic(bias, weights, position_index=None):
    return LogisticModel(
        bias=bias, weights=np.asarray(weights, float), scaler=None,
        position_weight_index=position_index,
    )


def one_level_bank(weight_matrix, biases):
    """A bank with a single quantile level: one softmax allocation over the ladder."""
    return QuantileModelBank(
        regime=Regime.MDP,
        taus=np.array([0.5]),
        weights=np.asarray(weight_matrix, float)[None],
        biases=np.asarray(biases, float)[None],
        scaler=None,
    )


def softmax_weights(bank, z):
    """Allocation of a one-level bank, read back through the one-hot ladder o = I."""
    k = bank.n_outputs
    return quantile_matrix(bank, np.tile(np.asarray(z, float), (k, 1)), np.eye(k))[:, 0]


def expected_reserve_price(bank, z, o):
    """Allocation-weighted ladder price <w(z), o> of a one-level bank."""
    return float(quantile_matrix(bank, np.atleast_2d(np.asarray(z, float)), [o])[0, 0])


class TestSigmoidPredict:
    def test_zero_score_is_half(self):
        model = bare_logistic(0.0, [0.0, 0.0])
        assert model.predict([3.0, -1.0]) == 0.5

    def test_direct_evaluation(self):
        model = bare_logistic(0.0, [1.0])
        assert model.predict([math.log(3.0)]) == pytest.approx(0.75)

    def test_saturation_without_overflow(self):
        model = bare_logistic(0.0, [1.0])
        p = model.predict([1e6])
        assert 1.0 - 1e-12 < p < 1.0
        p_lo = model.predict([-1e6])
        assert 0.0 < p_lo < 1e-12

    def test_dimension_mismatch(self):
        model = bare_logistic(0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            model.predict([1.0])

    @pytest.mark.parametrize("index, where", [(0, "is not the last of"), (1, "is not the last of"),
                                              (3, "is outside"), (-1, "is outside")])
    def test_position_feature_is_the_last(self, index, where):
        with pytest.raises(ValueError, match=f"^position_weight_index {index} {where} the 3 weights$"):
            bare_logistic(0.0, [1.0, 2.0, 3.0], position_index=index)
        assert bare_logistic(0.0, [1.0, 2.0, 3.0], position_index=2).position_weight_index == 2

    def test_strictly_inside_unit_interval_and_monotone(self):
        rng = np.random.default_rng(0)
        model = bare_logistic(float(rng.normal()), rng.normal(size=3))
        scores = []
        for t in np.linspace(-50, 50, 21):
            x = t * model.weights  # moves along the weight direction
            p = model.predict(x)
            assert 0.0 < p < 1.0
            scores.append(p)
        assert all(a <= b for a, b in zip(scores, scores[1:]))


class TestFitLogistic:
    def test_separable_data_fits_tightly(self):
        # sign-separable with a margin, so finite iterations reach high confidence
        x, y = separable_data()
        model = fit_logistic(x, y, l2=1e-10)
        p = model.predict(x)
        assert np.all(np.where(y == 1, p, 1 - p) >= 0.95)

    def test_uninformative_features_reproduce_base_rate(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4000, 3))
        y = (rng.random(4000) < 0.7).astype(float)
        model = fit_logistic(x, y)
        assert np.mean(model.predict(x)) == pytest.approx(y.mean(), abs=0.01)

    def test_intercept_only_even_labels(self):
        x = np.zeros((10, 0))
        y = np.array([0.0, 1.0] * 5)
        model = fit_logistic(x, y)
        assert model.predict(np.zeros((1, 0)))[0] == pytest.approx(0.5, abs=1e-6)

    def test_single_label_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            fit_logistic(np.zeros((4, 1)), np.ones(4))

    def test_no_rows_rejected_by_name(self):
        # numpy's "zero-size array to reduction operation minimum" before this check
        with pytest.raises(ValueError, match="^training data has no rows$"):
            fit_logistic(np.zeros((0, 2)), np.zeros(0))

    @BAD_CAPS
    def test_bad_iteration_cap_rejected_by_name(self, monkeypatch, cap, message):
        monkeypatch.setattr(price_models, "minimize_newton", no_solver)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]), max_iter=cap)

    @pytest.mark.parametrize("index, message", [
        (0, "position_weight_index 0 is not the last of the 2 weights"),
        (2, "position_weight_index 2 is outside the 2 weights"),
    ])
    def test_position_index_that_is_not_the_last_rejected_before_the_fit(self, monkeypatch, index, message):
        monkeypatch.setattr(price_models, "minimize_newton", no_solver)
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_logistic(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), position_weight_index=index)

    @pytest.mark.parametrize("l2", [-1.0, float("nan"), float("inf")])
    def test_bad_l2_rejected_by_name(self, l2):
        # a negative penalty rewards large weights: the descent ran them up to 1e153 before this check
        with pytest.raises(ValueError, match=f"^l2 must be finite and at least 0, got {l2}$"):
            fit_logistic(np.zeros((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]), l2=l2)

    def test_intercept_only_matches_base_rate(self):
        rng = np.random.default_rng(3)
        y = (rng.random(2000) < 0.31).astype(float)
        model = fit_logistic(np.zeros((2000, 0)), y)
        assert model.predict(np.zeros((1, 0)))[0] == pytest.approx(y.mean(), abs=0.01)


def separable_data():
    """``test_separable_data_fits_tightly``'s sign-separable data."""
    rng = np.random.default_rng(1)
    x = (np.sign(rng.normal(size=200)) * (0.25 + np.abs(rng.normal(size=200))))[:, None]
    return x, (x[:, 0] > 0).astype(float)


def random_data():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(300, 8)) * rng.uniform(0.1, 10.0, size=8) + rng.normal(size=8)
    y = (x @ rng.normal(size=8) * 0.1 + rng.logistic(size=300) > 0).astype(float)
    return x, y


def intercept_only_data():
    rng = np.random.default_rng(3)
    return np.zeros((2000, 0)), (rng.random(2000) < 0.31).astype(float)


class TestNewtonAgainstDescent:
    """The Newton fit against the descent it replaced, on the same data and penalty."""

    @pytest.mark.parametrize("data, l2", [(random_data, 1e-4), (separable_data, 1e-10), (intercept_only_data, 1e-4)],
                             ids=["random", "separable", "intercept_only"])
    def test_loss_no_higher_and_gradient_within_tolerance(self, data, l2):
        x, y = data()
        newton_loss, grad = training_loss_and_grad(fit_logistic(x, y, l2=l2), x, y, l2)
        oracle_loss, _ = training_loss_and_grad(descent_logistic(x, y, l2=l2), x, y, l2)
        assert newton_loss <= oracle_loss
        assert np.abs(grad).max() <= _optim._NEWTON_TOL


class TestGradients:
    def central_difference(self, fun, params, h=1e-5):
        grad = np.empty_like(params)
        for i in range(params.size):
            up = params.copy()
            dn = params.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (fun(up) - fun(dn)) / (2.0 * h)
        return grad

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(20):
            params = rng.normal(size=4)
            val, grad = logistic_loss_and_grad(params, x, y, l2=1e-4)
            fd = self.central_difference(lambda p: logistic_loss_and_grad(p, x, y, 1e-4)[0], params)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

    def test_quantile_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        n, d, k = 30, 2, 4
        z = rng.normal(size=(n, d))
        o = rng.normal(scale=50.0, size=(n, k))
        y = rng.normal(scale=50.0, size=n)
        for _ in range(20):
            tau = float(rng.uniform(0.05, 0.95))
            params = rng.normal(size=k * d + k)
            val, grad = quantile_loss_and_grad(params, z, o, y, tau, k)
            fd = self.central_difference(
                lambda p: quantile_loss_and_grad(p, z, o, y, tau, k)[0], params
            )
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


class TestAugmentWithPositions:
    def test_zero_beta_labels_ignore_positions(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 2))
        s = rng.normal(size=50)
        x_aug, labels, _ = augment_with_positions(x, s, u_max=5.0, beta=0.0, rng=0)
        assert np.array_equal(labels, s >= 0)
        assert np.all(x_aug[:, -1] == 0.0)  # zero imbalance shift appended

    def test_labels_follow_shifted_sign_rule(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 1))
        s = rng.normal(scale=3.0, size=200)
        x_aug, labels, u = augment_with_positions(x, s, u_max=5.0, beta=0.8, rng=11)
        assert np.array_equal(labels, s + 0.8 * u >= 0)
        assert np.allclose(x_aug[:, -1], 0.8 * u)
        assert np.all((u >= 0.0) & (u <= 5.0))

    def test_known_thresholds(self):
        # s = -3 with an imbalance shift of 5 stays positive; shift 2 does not.
        x = np.zeros((2, 1))
        s = np.array([-3.0, -3.0])
        x_aug, labels, u = augment_with_positions(x, s, u_max=1.0, beta=1.0, rng=0)
        by_hand = s + 1.0 * u >= 0
        assert np.array_equal(labels, by_hand)
        assert (-3.0 + 5.0 >= 0) and not (-3.0 + 2.0 >= 0)  # the rule the rows follow

    def test_zero_shifted_imbalance_counts_as_surplus(self):
        # s == -beta * u exactly: the shifted imbalance is zero, which is a surplus
        u = np.random.default_rng(3).uniform(0.0, 5.0, 40)
        s = -0.5 * u
        _, labels, u_drawn = augment_with_positions(np.zeros((40, 1)), s, u_max=5.0, beta=0.5, rng=3)
        assert np.array_equal(u_drawn, u)
        assert np.all(labels)
        _, labels, _ = augment_with_positions(np.zeros((3, 1)), np.zeros(3), u_max=5.0, beta=0.0, rng=0)
        assert np.all(labels)

    # numpy's uniform draw would fail on a non-finite bound without naming it (train_models checks u_max)
    @pytest.mark.parametrize("u_min", [-math.inf, math.nan, 6.0])
    def test_bad_u_min_rejected_by_name(self, u_min):
        with pytest.raises(ValueError, match=f"^u_min must be finite and not exceed u_max, got {u_min}$"):
            augment_with_positions(np.zeros((3, 1)), np.ones(3), u_max=5.0, beta=1.0, rng=0, u_min=u_min)

    def test_deterministic_under_seed(self):
        x = np.zeros((20, 1))
        s = np.linspace(-2, 2, 20)
        a = augment_with_positions(x, s, u_max=5.0, beta=1.0, rng=42)
        b = augment_with_positions(x, s, u_max=5.0, beta=1.0, rng=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_u_max(self):
        with pytest.raises(ValueError):
            augment_with_positions(np.zeros((2, 1)), np.zeros(2), u_max=0.0, beta=1.0, rng=0)

    def test_signed_range_for_short_training(self):
        x = np.zeros((500, 1))
        s = np.zeros(500)
        _, _, u = augment_with_positions(x, s, u_max=5.0, beta=1.0, rng=1, u_min=-5.0)
        assert u.min() < -2.0 and u.max() > 2.0


def position_rows(n=120, seed=8, u_max=5.0):
    """Scores and imbalances of ``n`` rows, about a third of them within ``u_max`` of their flip."""
    rng = np.random.default_rng(seed)
    return rng.normal(scale=1.5, size=n), rng.normal(scale=3.0 * u_max, size=n)


class TestPositionLoss:
    def test_the_rule_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        np.testing.assert_allclose(price_models._POSITION_NODES, nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(price_models._POSITION_WEIGHTS, weights, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("c", [-0.08, 0.0, 0.03])
    def test_derivatives_match_finite_differences(self, c):
        eta, s = position_rows()
        h = 1e-4
        _, slope, curvature = position_loss(c, eta, s, 5.0)
        below, above = position_loss(c - h, eta, s, 5.0), position_loss(c + h, eta, s, 5.0)
        assert slope == pytest.approx((above[0] - below[0]) / (2 * h), rel=1e-6)
        assert curvature == pytest.approx((above[1] - below[1]) / (2 * h), rel=1e-6)
        assert curvature > 0.0

    @pytest.mark.parametrize("c", [-0.05, 0.03, 0.1])
    def test_quadrature_matches_midpoints(self, c):
        eta, s = position_rows(n=40)
        assert position_loss(c, eta, s, 5.0)[0] == pytest.approx(midpoint_position_loss(c, eta, s, 5.0), rel=1e-8)

    def test_no_row_near_its_flip_gives_no_position_effect(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 3))
        s = np.where(x[:, 0] + rng.normal(size=200) >= 0.0, 1.0, -1.0) * (5.0 + rng.exponential(4.0, size=200))
        c = fit_position_model(fit_logistic(x, s >= 0.0), x, s, u_max=5.0)
        assert type(c) is float and abs(c) <= 1e-12

    def test_position_zero_gives_the_weight_models_probability(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(300, 4))
        s = 6.0 * (x[:, 1] + rng.normal(size=300))
        weight_model = fit_logistic(x, s >= 0.0)
        c = fit_position_model(weight_model, x, s, u_max=5.0)
        assert type(c) is float and c > 0.0
        for row in x[:20]:
            assert clipped_sigmoid(weight_model.score(row[None, :]) + c * 0.0)[0] == weight_model.predict(row)

    @pytest.mark.parametrize("u_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_u_max_rejected_before_the_solver(self, monkeypatch, u_max):
        x = np.random.default_rng(6).normal(size=(20, 2))
        weight_model = fit_logistic(x, x[:, 0] >= 0.0)
        monkeypatch.setattr(price_models, "minimize_newton", no_solver)
        with pytest.raises(ValueError, match=f"^u_max must be positive and finite, got {u_max}$"):
            fit_position_model(weight_model, x, x[:, 0], u_max=u_max)


class TestSoftmaxWeights:
    def test_equal_logits_uniform(self):
        w = softmax_weights(one_level_bank(np.zeros((4, 2)), np.zeros(4)), [1.0, -1.0])
        assert np.allclose(w, 0.25)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_dominant_logit_saturates(self):
        w = softmax_weights(one_level_bank(np.zeros((3, 1)), [50.0, 0.0, 0.0]), [0.0])
        assert w[0] >= 1.0 - 1e-15

    def test_direct_two_way_softmax(self):
        w = softmax_weights(one_level_bank(np.zeros((2, 1)), [0.0, math.log(3.0)]), [0.0])
        assert w[0] == pytest.approx(0.25)
        assert w[1] == pytest.approx(0.75)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=5)
        m1 = one_level_bank(np.zeros((5, 1)), logits)
        m2 = one_level_bank(np.zeros((5, 1)), logits + 123.456)
        assert np.allclose(softmax_weights(m1, [0.0]), softmax_weights(m2, [0.0]), atol=1e-12)

    def test_dimension_mismatch(self):
        bank = one_level_bank(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="features"):
            softmax_weights(bank, [1.0])
        with pytest.raises(ValueError, match="ladder prices"):
            quantile_matrix(bank, [[1.0, 2.0]], [[1.0, 2.0, 3.0]])


class TestExpectedReservePrice:
    def test_one_hot_selects_entry(self):
        bank = one_level_bank(np.zeros((3, 1)), [80.0, 0.0, 0.0])
        assert expected_reserve_price(bank, [0.0], [10.0, 20.0, 30.0]) == pytest.approx(10.0)

    def test_uniform_average(self):
        bank = one_level_bank(np.zeros((2, 1)), np.zeros(2))
        assert expected_reserve_price(bank, [0.0], [10.0, 20.0]) == pytest.approx(15.0)

    def test_constant_ladder_is_identity(self):
        rng = np.random.default_rng(9)
        bank = one_level_bank(rng.normal(size=(4, 2)), rng.normal(size=4))
        assert expected_reserve_price(bank, [0.3, -0.7], [42.0] * 4) == pytest.approx(42.0)

    def test_within_ladder_range(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            bank = one_level_bank(rng.normal(size=(5, 2)), rng.normal(size=5))
            o = rng.normal(scale=100.0, size=5)
            got = expected_reserve_price(bank, rng.normal(size=2), o)
            assert o.min() - 1e-9 <= got <= o.max() + 1e-9


class TestPinballLoss:
    def test_zero_residual(self):
        assert pinball_loss(0.9, 0.0) == 0.0

    def test_positive_residual(self):
        assert pinball_loss(0.9, 1.0) == pytest.approx(0.9)

    def test_negative_residual(self):
        assert pinball_loss(0.9, -1.0) == pytest.approx(0.1)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        e = rng.normal(size=100)
        assert np.all(pinball_loss(0.3, e) >= 0.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            pinball_loss(1.2, 0.0)


class TestQuantileBank:
    def test_levels_are_midpoints(self):
        taus = quantile_levels(4)
        assert taus.tolist() == [0.125, 0.375, 0.625, 0.875]
        assert quantile_levels(1).tolist() == [0.5]
        assert np.array_equal(quantile_levels(np.int64(4)), taus)

    @pytest.mark.parametrize("n_q, message", [
        (0, "n_q must be at least 1, got 0"),
        (2.5, "n_q: expected an integer, got 2.5"),
        (8.0, "n_q: expected an integer, got 8.0"),
        (True, "n_q: expected an integer, got boolean"),
    ])
    def test_level_count_must_be_a_positive_integer(self, n_q, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quantile_levels(n_q)

    def test_planted_one_hot_recovery(self):
        rng = np.random.default_rng(12)
        n = 400
        z = rng.uniform(-1.0, 1.0, size=(n, 1))
        planted = 100.0 + 60.0 * z[:, 0]
        o = np.column_stack([planted + 70.0, planted, planted - 55.0, planted + 120.0])
        bank = fit_quantile_bank(z, o, planted, regime=Regime.MDP, n_q=4, max_iter=600)
        preds = quantile_matrix(bank, z, o)
        losses = [
            np.mean(pinball_loss(tau, planted - preds[:, i]))
            for i, tau in enumerate(bank.taus)
        ]
        assert max(losses) <= 1e-3

    def test_constant_target_collapses(self):
        n = 60
        z = np.linspace(-1, 1, n)[:, None]
        o = np.full((n, 3), 25.0)
        bank = fit_quantile_bank(z, o, np.full(n, 25.0), regime=Regime.MIP, n_q=3)
        dist = predict_regulation_distribution(bank, [0.2], [25.0, 25.0, 25.0])
        assert dist.n_atoms == 1
        assert dist.values[0] == pytest.approx(25.0)

    def test_heteroskedastic_quantiles(self):
        rng = np.random.default_rng(13)
        n = 4000
        z = rng.uniform(0.5, 1.5, size=n)
        y = z * rng.normal(1.0, 0.15, size=n)
        o = np.tile([0.0, 3.0], (n, 1))
        bank = fit_quantile_bank(z[:, None], o, y, regime=Regime.MIP, n_q=5, max_iter=800)
        preds = quantile_matrix(bank, z[:, None], o)
        probe = np.array([0.6, 1.0, 1.4])
        probe_preds = quantile_matrix(bank, probe[:, None], np.tile([0.0, 3.0], (3, 1)))
        from math import erf, sqrt

        def normal_quantile(tau):
            # bisect the standard normal CDF; enough accuracy for a 5% check
            lo, hi = -5.0, 5.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if 0.5 * (1.0 + erf(mid / sqrt(2.0))) < tau:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for i, tau in enumerate([0.1, 0.5, 0.9]):
            idx = list(bank.taus).index(tau)
            analytic = probe * (1.0 + 0.15 * normal_quantile(tau))
            assert np.all(np.abs(probe_preds[:, idx] - analytic) <= 0.05 * np.abs(analytic))

    @BAD_CAPS
    def test_bad_iteration_cap_rejected_by_name(self, monkeypatch, cap, message):
        monkeypatch.setattr(price_models, "minimize_gd", no_solver)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_quantile_bank(rng.uniform(size=(30, 1)), np.sort(rng.normal(50.0, 9.0, (30, 3)), axis=1),
                              rng.normal(50.0, 9.0, 30), regime=Regime.MIP, n_q=3, max_iter=cap)

    def test_empty_regime_rejected(self):
        with pytest.raises(ValueError):
            fit_quantile_bank(np.zeros((0, 1)), np.zeros((0, 2)), np.zeros(0), regime=Regime.MDP, n_q=2)

    @pytest.mark.parametrize("o, message", [
        (np.full(30, 50.0), r"ladder prices o must be 2-D \(rows x ladder columns\), got shape \(30,\)"),
        (np.zeros((30, 0)), "ladder prices o have no ladder columns"),
    ], ids=["one-dimensional", "zero-width"])
    def test_bad_ladder_named(self, o, message):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_quantile_bank(rng.uniform(size=(30, 1)), o, rng.normal(50.0, 9.0, 30), regime=Regime.MIP, n_q=3)

    @pytest.mark.parametrize("name", ["z", "o", "y"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input_rejected(self, name, bad):
        rng = np.random.default_rng(14)
        data = {"z": rng.uniform(size=(30, 1)), "o": np.sort(rng.normal(50.0, 9.0, (30, 3)), axis=1),
                "y": rng.normal(50.0, 9.0, 30)}
        data[name][4] = bad
        with pytest.raises(ValueError, match=f"^non-finite {name}$"):
            fit_quantile_bank(data["z"], data["o"], data["y"], regime=Regime.MIP, n_q=3)

    @pytest.mark.parametrize(
        "taus, weights_shape, biases_shape, message",
        [
            ([0.1, 0.5, 0.8], (3, 2, 1), (3, 2), "bin midpoints"),
            ([0.1, 0.2, 0.3], (3, 2, 1), (3, 2), "bin midpoints"),
            ([0.0, 0.5], (2, 2, 1), (2, 2), "bin midpoints"),
            ([0.75, 0.25], (2, 2, 1), (2, 2), "bin midpoints"),
            ([[0.25, 0.75]], (2, 2, 1), (2, 2), "bin midpoints"),
            ([0.25, 0.75], (3, 2, 1), (2, 2), "weights"),
            ([0.25, 0.75], (2, 2), (2, 2), "weights"),
            ([0.25, 0.75], (2, 2, 1), (2, 3), "biases"),
        ],
    )
    def test_construction_checks_levels_and_shapes(self, taus, weights_shape, biases_shape, message):
        with pytest.raises(ValueError, match=message):
            QuantileModelBank(
                regime=Regime.MDP, taus=np.array(taus), weights=np.zeros(weights_shape),
                biases=np.zeros(biases_shape), scaler=None,
            )


class TestPredictRegulationDistribution:
    def test_two_quantiles_half_mass_each(self):
        weights = np.zeros((2, 2, 1))
        biases = np.array([[200.0, 0.0], [0.0, 200.0]])
        bank = QuantileModelBank(
            regime=Regime.MDP, taus=quantile_levels(2), weights=weights, biases=biases, scaler=None
        )
        dist = predict_regulation_distribution(bank, [0.0], [10.0, 30.0])
        assert dist.values.tolist() == [10.0, 30.0]
        assert dist.masses.tolist() == [0.5, 0.5]

    def test_unordered_quantiles_reordered(self):
        weights = np.zeros((2, 2, 1))
        biases = np.array([[0.0, 200.0], [200.0, 0.0]])  # first level picks the larger price
        bank = QuantileModelBank(
            regime=Regime.MDP, taus=quantile_levels(2), weights=weights, biases=biases, scaler=None
        )
        dist = predict_regulation_distribution(bank, [0.0], [10.0, 30.0])
        assert np.all(np.diff(dist.values) > 0)

    def test_expectation_is_mean_of_quantiles(self):
        rng = np.random.default_rng(14)
        bank = QuantileModelBank(
            regime=Regime.MIP,
            taus=quantile_levels(8),
            weights=rng.normal(size=(8, 3, 2)),
            biases=rng.normal(size=(8, 3)),
            scaler=None,
        )
        z, o = rng.normal(size=2), rng.normal(scale=40.0, size=3)
        dist = predict_regulation_distribution(bank, z, o)
        raw = quantile_matrix(bank, z[None, :], o[None, :])[0]
        assert dist.mean() == pytest.approx(raw.mean())


class TestForecast:
    """The position-adjusted mixture, built by ``make_forecaster`` on a hand-made bundle."""

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.weight_model = LogisticModel(bias=0.1, weights=np.array([0.5, -0.2]))
        self.bank_down = QuantileModelBank(
            regime=Regime.MDP,
            taus=quantile_levels(4),
            weights=rng.normal(size=(4, 2, 1)),
            biases=rng.normal(size=(4, 2)),
            scaler=None,
        )
        self.bank_up = QuantileModelBank(
            regime=Regime.MIP,
            taus=quantile_levels(4),
            weights=rng.normal(size=(4, 2, 1)),
            biases=rng.normal(size=(4, 2)),
            scaler=None,
        )
        self.x = np.array([0.3, -1.0])
        self.z = np.array([0.4])
        self.o = np.array([20.0, 180.0])
        utc = timezone.utc
        self.models = TrainedModels(
            weight_model=self.weight_model,
            position_coef=0.03,
            bank_mdp=self.bank_down,
            bank_mip=self.bank_up,
            grid=ReserveGrid((1.0,), (1.0,)),
            impact=ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41),
            layout=FeatureLayout(names=("f0", "f1"), blocks={"all": (0, 2)}),
            n_q=4,
            kfold=1,
            train_start=datetime(2024, 1, 1, tzinfo=utc),
            train_end=datetime(2024, 1, 31, tzinfo=utc),
            seed=0,
        )
        self.tick = MarketTick(
            timestamp=datetime(2024, 6, 1, tzinfo=utc), x=self.x, o=self.o, s=5.0,
            p_mdp=40.0, p_mip=180.0, z=self.z,
        )

    def forecast(self, u, beta_est=1.0):
        return make_forecaster(self.models, self.tick, beta_est)(u)

    def test_zero_position_matches_unadjusted(self):
        f = self.forecast(0.0)
        down0 = predict_regulation_distribution(self.bank_down, self.z, self.o)
        up0 = predict_regulation_distribution(self.bank_up, self.z, self.o)
        assert f.down == down0
        assert f.up == up0
        assert f.pi == self.weight_model.predict(self.x)

    def test_position_shifts_up_regime_quantiles(self):
        f0 = self.forecast(0.0)
        f5 = self.forecast(5.0)
        assert np.allclose(f5.up.values, f0.up.values - 2.05)
        assert np.allclose(f5.down.values, f0.down.values - 2.0)

    def test_beta_zero_changes_nothing_with_u(self):
        f0 = self.forecast(0.0, beta_est=0.0)
        f5 = self.forecast(5.0, beta_est=0.0)
        assert f5.pi == f0.pi
        assert f5.down == f0.down and f5.up == f0.up

    def test_pi_monotone_in_u_with_weight_sign(self):
        pis = [self.forecast(u).pi for u in np.linspace(-5, 5, 11)]
        assert all(a <= b for a, b in zip(pis, pis[1:]))  # c = 0.03 > 0


def table_round_trip(value):
    """``value`` written through the models.json field table as JSON text and read back through it."""
    return _reader(type(value))(json.loads(json.dumps(_to_json(value))))


class TestSerialization:
    def test_logistic_round_trip(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(100, 3))
        y = (x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=100) > 0).astype(float)
        model = fit_logistic(x, y)
        restored = table_round_trip(model)
        assert np.array_equal(restored.predict(x), model.predict(x))
        assert np.array_equal(restored.weights, model.weights)
        assert np.array_equal(restored.scaler.scale, model.scaler.scale)

    def test_bank_round_trip(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=(50, 1))
        o = rng.normal(scale=30.0, size=(50, 3)) + 100.0
        y = o[:, 1] + rng.normal(scale=5.0, size=50)
        bank = fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=3, max_iter=100)
        restored = table_round_trip(bank)
        assert restored.regime is Regime.MIP
        probe_z, probe_o = [0.1], [90.0, 100.0, 140.0]
        assert predict_regulation_distribution(restored, probe_z, probe_o) == \
            predict_regulation_distribution(bank, probe_z, probe_o)

    def test_reserve_grid_round_trip_and_validation(self):
        grid = ReserveGrid((1.0, 50.0, 100.0), (1.0, 100.0, 700.0))
        assert table_round_trip(grid) == grid
        assert grid.size == 6
        assert grid.column_labels()[0] == "afrr_1"
        with pytest.raises(ValueError):
            ReserveGrid((50.0, 1.0), (1.0,))

    @pytest.mark.parametrize("afrr, mfrr, field", [
        ((float("nan"),), (1.0,), "afrr_volumes"),
        ((1.0, float("nan")), (1.0,), "afrr_volumes"),
        ((1.0,), (1.0, float("inf")), "mfrr_volumes"),
    ], ids=["afrr-nan-only", "afrr-nan-last", "mfrr-inf-last"])
    def test_reserve_grid_rejects_non_finite_volumes(self, afrr, mfrr, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ReserveGrid(afrr, mfrr)
