from datetime import datetime, timezone

import numpy as np
import pytest

from imbtrader.data_io import MarketTick
from imbtrader.market_impact import (
    ImpactParams,
    Regime,
    SensitivityError,
    adjust_price,
    estimate_sensitivities,
    is_surplus,
    realized_settlement_price,
)


class TestEstimateSensitivities:
    def test_exact_line_recovers_slope(self):
        s = np.concatenate([np.linspace(1, 400, 50), np.linspace(-400, -1, 50)])
        p = 100.0 - 0.41 * s
        k_mdp, k_mip = estimate_sensitivities(s, p)
        assert k_mdp == pytest.approx(0.41, abs=1e-9)
        assert k_mip == pytest.approx(0.41, abs=1e-9)

    def test_two_point_slope_negated(self):
        s = np.array([0.0, 1.0, -1.0, -2.0])
        p = np.array([0.0, -2.0, 5.0, 7.0])
        k_mdp, k_mip = estimate_sensitivities(s, p)
        assert k_mdp == pytest.approx(2.0)
        assert k_mip == pytest.approx(2.0)

    def test_planted_slopes_under_gaussian_noise(self):
        rng = np.random.default_rng(5)
        n = 20000
        s = rng.normal(scale=300.0, size=n)
        noise = rng.normal(scale=10.0, size=n)
        p = np.where(s >= 0, 40.0 - 0.40 * s, 180.0 - 0.55 * s) + noise
        k_mdp, k_mip = estimate_sensitivities(s, p)
        # 3-sigma band of the slope estimator: sigma / (sd(s) * sqrt(n_regime))
        for k_hat, k_true, mask in ((k_mdp, 0.40, s >= 0), (k_mip, 0.55, s < 0)):
            se = 10.0 / (np.std(s[mask]) * np.sqrt(mask.sum()))
            assert abs(k_hat - k_true) < 3.0 * se + 1e-3

    def test_too_few_points_rejected(self):
        with pytest.raises(SensitivityError):
            estimate_sensitivities([5.0, -1.0, -2.0], [1.0, 2.0, 3.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(SensitivityError):
            estimate_sensitivities([3.0, 3.0, -1.0, -2.0], [1.0, 2.0, 3.0, 4.0])

    def test_zero_imbalance_counts_as_mdp(self):
        # Two MDP points (one of them s = 0) are enough for the MDP slope.
        s = np.array([0.0, 10.0, -5.0, -10.0])
        p = np.array([50.0, 40.0, 200.0, 210.0])
        k_mdp, _ = estimate_sensitivities(s, p)
        assert k_mdp == pytest.approx(1.0)


class TestIsSurplus:
    def test_zero_imbalance_is_surplus(self):
        assert is_surplus(0.0) and is_surplus(-0.0) and not is_surplus(-1e-300)
        assert is_surplus(np.array([-1.0, 0.0, 1.0])).tolist() == [False, True, True]
        tick = MarketTick(
            timestamp=datetime(2024, 6, 1, tzinfo=timezone.utc), x=np.zeros(1), o=np.zeros(1),
            s=0.0, p_mdp=30.0, p_mip=200.0,
        )
        assert tick.settlement_price == 30.0

    def test_zero_shifted_imbalance_settles_mdp(self):
        params = ImpactParams(beta=0.5, k_mdp=0.1, k_mip=0.2)
        assert realized_settlement_price(-2.0, 4.0, params, 30.0, 200.0) == pytest.approx(30.0 - 0.1 * 0.5 * 4.0)


class TestAdjustPrice:
    def test_zero_position_unchanged(self):
        params = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41)
        assert adjust_price(100.0, Regime.MIP, 0.0, params) == 100.0

    def test_worked_example(self):
        params = ImpactParams(beta=1.0, k_mdp=0.41, k_mip=0.41)
        assert adjust_price(100.0, Regime.MIP, 5.0, params) == pytest.approx(97.95)

    def test_beta_zero_unchanged(self):
        params = ImpactParams(beta=0.0, k_mdp=0.41, k_mip=0.41)
        assert adjust_price(100.0, Regime.MDP, 123.0, params) == 100.0

    def test_linear_in_u(self):
        params = ImpactParams(beta=0.7, k_mdp=0.3, k_mip=0.5)
        for u in np.linspace(-10, 10, 21):
            expected = 80.0 - 0.5 * 0.7 * u
            assert adjust_price(80.0, Regime.MIP, u, params) == pytest.approx(expected, abs=1e-12)


class TestRealizedSettlement:
    def test_positive_imbalance_settles_mdp(self):
        params = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41)
        assert realized_settlement_price(10.0, 0.0, params, 30.0, 200.0) == 30.0

    def test_own_trade_flips_regime(self):
        params = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41)
        got = realized_settlement_price(-3.0, 5.0, params, 30.0, 200.0)
        assert got == pytest.approx(30.0 - 0.4 * 5.0)

    def test_beta_zero_keeps_regime_and_price(self):
        params = ImpactParams(beta=0.0, k_mdp=0.4, k_mip=0.41)
        assert realized_settlement_price(-3.0, 5.0, params, 30.0, 200.0) == 200.0

    def test_regime_switch_exactly_at_threshold(self):
        params = ImpactParams(beta=0.5, k_mdp=0.1, k_mip=0.2)
        s = -4.0
        u_switch = -s / params.beta
        below = realized_settlement_price(s, u_switch - 1e-9, params, 30.0, 200.0)
        at = realized_settlement_price(s, u_switch, params, 30.0, 200.0)
        assert below == pytest.approx(200.0 - 0.2 * 0.5 * (u_switch - 1e-9))
        assert at == pytest.approx(30.0 - 0.1 * 0.5 * u_switch)


class TestImpactParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImpactParams(beta=1.5, k_mdp=0.1, k_mip=0.1)
        with pytest.raises(ValueError):
            ImpactParams(beta=0.5, k_mdp=-0.1, k_mip=0.1)

    def test_sensitivity_lookup(self):
        params = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41)
        assert params.sensitivity(Regime.MDP) == 0.4
        assert params.sensitivity(Regime.MIP) == 0.41
