import copy
import json
import logging
import math
import re
from dataclasses import replace
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from position_oracle import appended_position_pi

from imbtrader import backtest, pipeline, price_models
from imbtrader._optim import NEWTON_MAX_ITER
from imbtrader.backtest import SimConfig, beta_sweep, run_backtest
from imbtrader.benchmarks import fit_benchmark_suite, run_benchmark
from imbtrader.data_io import SyntheticConfig, reference_layout, synthetic_ticks
from imbtrader.dists import DiscretePriceDistribution, MixtureForecast, flatten
from imbtrader.market_impact import is_surplus, realized_settlement_price
from imbtrader.pipeline import (
    LeakageError, PositionForecast, TrainedModels, _to_json, attach_z, forecast_rows, make_forecaster, train_models,
)
from imbtrader.price_models import predict_regulation_distribution
from imbtrader.strategy import ActionSpace, leg_positions
from test_backtest import toy_models


def full_forecast(weight_model, position_coef, mdp_bank, mip_bank, x, z, o, u, impact):
    """Reference: rebuild the position-adjusted mixture from scratch at one position.

    The mixture weight is the weight model extended by the imbalance shift
    ``beta * u`` as a position feature of coefficient ``position_coef``;
    each regime distribution is shifted down by its sensitivity times the
    same shift.
    """
    pi = float(appended_position_pi(weight_model, position_coef, x, [impact.beta * u])[0])
    down = predict_regulation_distribution(mdp_bank, z, o).shift(-impact.k_mdp * impact.beta * u)
    up = predict_regulation_distribution(mip_bank, z, o).shift(-impact.k_mip * impact.beta * u)
    return MixtureForecast(pi=pi, down=down, up=up)


class TestTrainModels:
    def test_bundle_contents(self, trained, small_market):
        cfg, _, truth = small_market
        models, train_ticks, _ = trained
        assert models.n_q == 12
        assert models.grid == cfg.grid
        assert models.layout == reference_layout()
        assert models.train_start == train_ticks[0].timestamp
        assert models.train_end == train_ticks[-1].timestamp
        assert type(models.position_coef) is float and math.isfinite(models.position_coef)
        # mild noise: sensitivities land near the planted slopes
        assert models.impact.k_mdp == pytest.approx(truth["k_mdp"], abs=0.05)
        assert models.impact.k_mip == pytest.approx(truth["k_mip"], abs=0.05)

    def test_attach_z_fills_probabilities(self, trained):
        models, _, test_ticks = trained
        for tick in test_ticks[:20]:
            assert tick.z.shape == (1,)
            assert 0.0 < tick.z[0] < 1.0

    def test_attach_z_keeps_existing_inputs(self, trained, small_market):
        models, _, test_ticks = trained
        _, raw_ticks, _ = small_market
        mixed = [test_ticks[0], raw_ticks[-1]]
        out = attach_z(mixed, models)
        assert out[0] is test_ticks[0]
        assert out[1] is not raw_ticks[-1] and raw_ticks[-1].z is None
        assert out[1].z.tolist() == [models.weight_model.predict(raw_ticks[-1].x)]

    @pytest.mark.parametrize("change, message", [
        # train_models names its features with reference_layout(), so ticks of another width are refused
        ({"width": 5}, "ticks carry 5 features, the layout names 107"),
        ({"kfold": 1}, "kfold must be at least 2, got 1"),
        ({"kfold": 0}, "kfold must be at least 2, got 0"),
        ({"logistic_max_iter": -5}, "logistic_max_iter must be at least 0, got -5"),
        ({"bank_max_iter": -1}, "bank_max_iter must be at least 0, got -1"),
        ({"seed": -3}, "seed must be at least 0, got -3"),
        ({"n_q": 1}, "n_q must be at least 2, got 1"),
        ({"kfold": 3.0}, "kfold: expected an integer, got 3.0"),
        ({"n_q": 2.5}, "n_q: expected an integer, got 2.5"),
        ({"n_q": 8.0}, "n_q: expected an integer, got 8.0"),
        ({"seed": 1.0}, "seed: expected an integer, got 1.0"),
        ({"logistic_max_iter": 20.0}, "logistic_max_iter: expected an integer, got 20.0"),
        ({"bank_max_iter": 5.5}, "bank_max_iter: expected an integer, got 5.5"),
        ({"u_max": 0.0}, "u_max must be positive and finite, got 0.0"),
        ({"u_max": -1.0}, "u_max must be positive and finite, got -1.0"),
        ({"u_max": math.nan}, "u_max must be positive and finite, got nan"),
        ({"u_max": math.inf}, "u_max must be positive and finite, got inf"),
    ], ids=["width", "kfold 1", "kfold 0", "logistic_max_iter", "bank_max_iter", "seed", "n_q", "kfold float",
            "n_q 2.5", "n_q 8.0", "seed float", "logistic_max_iter float", "bank_max_iter float", "u_max 0",
            "u_max < 0", "u_max nan", "u_max inf"])
    def test_bad_input_rejected_before_the_first_fit(self, small_market, monkeypatch, change, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        monkeypatch.setattr(pipeline, "fit_logistic", no_fit)
        cfg, ticks, _ = small_market
        kwargs = {"n_q": 4, "kfold": 2, "logistic_max_iter": 20, "bank_max_iter": 5} | change
        width = kwargs.pop("width", None)
        train = [replace(t, x=t.x[:width]) for t in ticks[:300]]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_models(train, grid=cfg.grid, **kwargs)

    @pytest.mark.parametrize("l2", [-1.0, float("nan")])
    def test_bad_l2_rejected(self, small_market, l2):
        # fit_logistic's rule, met by the first fit before its solver runs
        cfg, ticks, _ = small_market
        with pytest.raises(ValueError, match=f"^l2 must be finite and at least 0, got {l2}$"):
            train_models(ticks[:300], grid=cfg.grid, n_q=4, kfold=2, l2=l2)

    def test_numpy_integer_counts_give_a_bundle_that_saves(self, small_market, tmp_path):
        cfg, ticks, _ = small_market
        models = train_models(ticks[:300], grid=cfg.grid, n_q=np.int64(4), kfold=np.int64(2), seed=np.int64(1),
                              logistic_max_iter=20, bank_max_iter=5)
        models.save(tmp_path / "models.json")
        loaded = TrainedModels.load(tmp_path / "models.json")
        assert (loaded.n_q, loaded.kfold, loaded.seed) == (4, 2, 1)

    def test_bundle_stores_its_counts_as_python_ints(self, trained, tmp_path):
        models = trained[0]
        numpy_counts = replace(models, n_q=np.int64(models.n_q), kfold=np.int32(models.kfold),
                               seed=np.uint8(models.seed))
        assert all(type(getattr(numpy_counts, name)) is int for name in ("n_q", "kfold", "seed"))
        models.save(tmp_path / "python.json")
        numpy_counts.save(tmp_path / "numpy.json")
        assert (tmp_path / "numpy.json").read_text() == (tmp_path / "python.json").read_text()
        with pytest.raises(ValueError, match=r"^kfold: expected an integer, got 3\.0$"):
            replace(models, kfold=3.0)

    def test_empty_ticks_rejected(self, small_market):
        cfg, _, _ = small_market
        with pytest.raises(ValueError):
            train_models([], grid=cfg.grid)

    def test_every_logistic_fit_converges_on_a_four_day_window(self, caplog):
        # perfbench retrain's sizes and caps: 384 training rows, n_q = 100, its iteration caps;
        # the two transition fits, about 170 rows x 103 features each, are the hardest to converge
        cfg = SyntheticConfig(seed=1, n_periods=96 * 5, price_noise_std=8.0, price_gap_std=5.0)
        ticks, _ = synthetic_ticks(cfg)
        with caplog.at_level(logging.WARNING):
            models = train_models(ticks[:384], grid=cfg.grid, n_q=100, logistic_max_iter=2000, bank_max_iter=400)
            fit_benchmark_suite(ticks[:384], models, max_iter=400)
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("logistic fit")] == []

    def test_the_seed_draws_nothing(self, small_market):
        cfg, ticks, _ = small_market
        kwargs = {"grid": cfg.grid, "n_q": 4, "kfold": 2, "logistic_max_iter": 20, "bank_max_iter": 5}
        first, second = (_to_json(train_models(ticks[:300], seed=seed, **kwargs)) for seed in (0, 5))
        assert (first.pop("seed"), second.pop("seed")) == (0, 5)
        assert first == second

    def test_surplus_grows_with_the_position(self, trained):
        # a long position adds surplus (the shift beta * u), so it raises the fitted surplus probability
        assert trained[0].position_coef > 0.0

    def test_logistic_fits_stay_far_below_the_newton_cap(self, small_market, monkeypatch):
        # the cap is five times the most Newton iterations a fit was measured to take (20), so a change that slows
        # the fits toward it fails here before it cuts one short
        results = []

        def recorded(*args, **kwargs):
            results.append(newton(*args, **kwargs))
            return results[-1]

        newton = price_models.minimize_newton
        monkeypatch.setattr(price_models, "minimize_newton", recorded)
        cfg, ticks, _ = small_market
        train = ticks[: int(len(ticks) * 0.6)]
        fit_benchmark_suite(train, train_models(train, grid=cfg.grid, n_q=12, kfold=3, bank_max_iter=150))
        assert len(results) == 7  # the weight model, its 3 folds, the position coefficient and the 2 transition fits
        assert all(r.converged[0] and not r.stalled[0] for r in results)
        assert max(r.iterations[0] for r in results) <= 20 <= NEWTON_MAX_ITER // 5


class TestForecaster:
    def test_closure_matches_full_forecast(self, trained):
        models, _, test_ticks = trained
        tick = test_ticks[10]
        for beta_est in (0.0, 0.5, 1.0):
            fn = make_forecaster(models, tick, beta_est)
            impact = models.impact_with_beta(beta_est)
            for u in (-3.0, 0.0, 0.1, 5.0):
                fast = fn(u)
                slow = full_forecast(
                    models.weight_model, models.position_coef, models.bank_mdp, models.bank_mip,
                    tick.x, tick.z, tick.o, u, impact,
                )
                assert fast.pi == slow.pi
                assert fast.down == slow.down
                assert fast.up == slow.up

    def test_flat_position_trades_on_the_weight_models_probability(self, trained):
        models, _, test_ticks = trained
        for tick in test_ticks:
            for beta_est in (0.0, 0.5, 1.0):
                pi = make_forecaster(models, tick, beta_est).regime_rows([0.0])[0]
                assert pi[0] == models.weight_model.predict(tick.x)

    @pytest.mark.parametrize("leg", ["long", "short"])
    def test_weights_are_the_extended_models_bit_for_bit(self, trained, leg):
        # pi(u) = sigmoid(score + c * (beta * u)) keeps the bits of the weight model extended by a position feature
        models, _, test_ticks = trained
        us = leg_positions(ActionSpace(), leg)
        for tick in test_ticks:
            for beta_est in (0.0, 0.5, 1.0):
                pi = make_forecaster(models, tick, beta_est).regime_rows(us)[0]
                want = appended_position_pi(models.weight_model, models.position_coef, tick.x, beta_est * us)
                assert pi.tobytes() == want.tobytes()

    def test_replay_forecasts_match_a_fresh_forecast(self, trained, monkeypatch):
        # The replay builds each (tick, beta_est) forecast from the rows of one forecast_rows call.
        models, _, test_ticks = trained
        ticks, grid = test_ticks[:8], [0.0, 0.5, 1.0]
        built = []

        class Recorded(PositionForecast):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(backtest, "PositionForecast", Recorded)
        config = SimConfig(measure="cvar", alpha=0.9, actions=ActionSpace(step=0.5, u_max=3.0))
        beta_sweep(config, models, ticks, grid, [1.0])
        assert len(built) == len(ticks) * len(grid)
        us = np.linspace(-3.0, 3.0, 13)
        for forecast, (tick, beta_est) in zip(built, [(t, b) for t in ticks for b in grid]):
            fresh = make_forecaster(models, tick, beta_est)
            got, want = forecast.regime_rows(us), fresh.regime_rows(us)
            assert got[0].tobytes() == want[0].tobytes()
            for (values, masses), (values_want, masses_want) in zip(got[1:], want[1:]):
                assert values.tobytes() == values_want.tobytes()
                assert masses.tobytes() == masses_want.tobytes()
            for u in (-3.0, 0.0, 2.5):
                a, b = forecast(u), fresh(u)
                assert (a.pi, a.down, a.up) == (b.pi, b.down, b.up)

    @pytest.mark.parametrize("leg", ["long", "short"])
    @pytest.mark.parametrize("beta_est", [0.0, 0.5])
    def test_rows_shift_by_minus_k_beta_u(self, trained, leg, beta_est):
        # each regime row is v + (-k * beta) * u bit for bit, u = 0 and the short leg's -0.0 start included;
        # a call at one position is that position's row of regime_rows([u])
        models, _, test_ticks = trained
        impact = models.impact_with_beta(beta_est)
        fn = make_forecaster(models, test_ticks[10], beta_est)
        us = leg_positions(ActionSpace(), leg)
        assert us[0] == 0.0 and np.signbit(us[0]) == (leg == "short")
        _, *rows = fn.regime_rows(us)
        for (values, masses), (v, m), k in zip(rows, (fn.down, fn.up), (impact.k_mdp, impact.k_mip)):
            assert values.tobytes() == (v + (-k * impact.beta * us)[:, None]).tobytes()
            assert np.ascontiguousarray(masses).tobytes() == np.tile(m, (us.size, 1)).tobytes()
        for u in us:
            (pi,), *one = fn.regime_rows([u])
            forecast = fn(u)
            assert forecast.pi == pi
            assert (forecast.down, forecast.up) == tuple(DiscretePriceDistribution(v[0], m[0]) for v, m in one)

    @settings(max_examples=100, deadline=None)
    @given(prices=st.tuples(*[st.floats(-500.0, 500.0)] * 2), u=st.floats(-5.0, 5.0), beta=st.floats(0.0, 1.0),
           s=st.floats(-50.0, 50.0))
    def test_one_atom_regime_settles_at_its_shifted_price(self, trained, prices, u, beta, s):
        # the forecast's shift and the settlement are one impact law
        models, _, test_ticks = trained
        p_mdp, p_mip = prices
        forecast = PositionForecast(models, test_ticks[0].x, *[(np.array([p]), np.ones(1)) for p in prices], beta)
        _, (down, _), (up, _) = forecast.regime_rows([u])
        shifted = down[0, 0] if is_surplus(s + beta * u) else up[0, 0]
        assert shifted == realized_settlement_price(s, u, models.impact_with_beta(beta), p_mdp, p_mip)

    def test_rows_build_no_distribution_object(self, trained, distribution_objects):
        models, _, test_ticks = trained
        make_forecaster(models, test_ticks[0], 1.0).regime_rows(np.linspace(0.0, 5.0, 51))
        assert distribution_objects == []

    def test_flattened_forecast_is_valid_distribution(self, trained):
        models, _, test_ticks = trained
        fn = make_forecaster(models, test_ticks[0], 1.0)
        flat = flatten(fn(2.5))
        assert abs(float(flat.masses.sum()) - 1.0) <= 1e-9
        assert np.all(np.diff(flat.values) > 0)



def without_z(ticks):
    return [replace(t, z=None) for t in ticks]


def rows_bits(rows):
    """The bytes of every array of a ``forecast_rows`` result, or of a ``regime_rows`` one."""
    pi, down, up = rows
    return [np.ascontiguousarray(a).tobytes() for a in (pi, *down, *up)]


class TestBankInput:
    """A forecast takes each tick's own price-model input ``z``, or else computes it with the weight model."""

    def test_forecast_rows_same_bits_without_z(self, trained):
        models, _, test_ticks = trained
        ticks = test_ticks[:40]
        assert rows_bits(forecast_rows(models, without_z(ticks))) == rows_bits(forecast_rows(models, ticks))

    def test_forecaster_same_bits_without_z(self, trained):
        models, _, test_ticks = trained
        us = np.linspace(-3.0, 3.0, 13)
        for tick in test_ticks[:5]:
            for beta_est in (0.0, 1.0):
                raw = make_forecaster(models, replace(tick, z=None), beta_est)
                attached = make_forecaster(models, tick, beta_est)
                assert rows_bits(raw.regime_rows(us)) == rows_bits(attached.regime_rows(us))

    def test_hand_set_z_is_kept(self, trained):
        models, _, test_ticks = trained
        tick = replace(test_ticks[0], z=np.array([0.3]))
        pi, _, _ = forecast_rows(models, [tick])
        assert pi.tolist() == [0.3]
        assert attach_z([tick], models)[0] is tick
        forecast = make_forecaster(models, tick, 0.0)(0.0)
        assert forecast.down == predict_regulation_distribution(models.bank_mdp, tick.z, tick.o)
        assert forecast.up == predict_regulation_distribution(models.bank_mip, tick.z, tick.o)
        assert forecast.down != make_forecaster(models, test_ticks[0], 0.0)(0.0).down

    def test_replays_and_benchmark_same_without_z(self, trained):
        models, train_ticks, test_ticks = trained
        ticks, raw = test_ticks[:30], without_z(test_ticks[:30])
        config = SimConfig(measure="cvar", window=5, alpha_grid_size=8, actions=ActionSpace(step=0.5, u_max=2.0))
        a, b = run_backtest(config, models, raw), run_backtest(config, models, ticks)
        assert (a.ledger, a.report, a.skipped) == (b.ledger, b.report, b.skipped)
        sweeps = [beta_sweep(config, models, t, [0.5, 1.0], [0.0, 1.0]).profits.tobytes() for t in (raw, ticks)]
        assert sweeps[0] == sweeps[1]
        suite = fit_benchmark_suite(train_ticks, models, max_iter=50)
        assert run_benchmark(suite, raw).rows == run_benchmark(suite, ticks).rows

    def test_replay_forecasts_the_given_ticks(self, trained, monkeypatch):
        # no copy of a tick to attach its z: forecast_rows gets the replay's own tick objects
        models, _, test_ticks = trained
        raw, seen = without_z(test_ticks[:10]), []

        def capture(models, ticks):
            seen.extend(ticks)
            return forecast_rows(models, ticks)

        monkeypatch.setattr(backtest, "forecast_rows", capture)
        run_backtest(SimConfig(alpha=0.9, actions=ActionSpace(step=0.5, u_max=2.0)), models, raw)
        assert len(seen) == len(raw) and all(a is b for a, b in zip(seen, raw))
        assert all(t.z is None for t in raw)


# test_backtest.toy_models() as saved: the key order, and a value of every kind the format writes
TOY_BUNDLE_TEXT = (
    '{"format_version": 2, "package": "imbtrader", "train_start": "2024-01-01T00:00:00+00:00", '
    '"train_end": "2024-01-31T00:00:00+00:00", "seed": 0, "n_q": 2, "kfold": 1, '
    '"grid": {"afrr_volumes": [1.0], "mfrr_volumes": [1.0]}, "impact": {"beta": 1.0, "k_mdp": 0.0, "k_mip": 0.0}, '
    '"layout": {"names": ["f0", "f1"], "blocks": {"all": [0, 2]}}, '
    '"weight_model": {"bias": 0.0, "weights": [0.0, 0.0], "scaler": null}, "position_coef": 0.0, '
    '"bank_mdp": {"regime": "mdp", "taus": [0.25, 0.75], "weights": [[[0.0], [0.0]], [[0.0], [0.0]]], '
    '"biases": [[300.0, 0.0], [300.0, 0.0]], "scaler": null}, '
    '"bank_mip": {"regime": "mip", "taus": [0.25, 0.75], "weights": [[[0.0], [0.0]], [[0.0], [0.0]]], '
    '"biases": [[0.0, 300.0], [0.0, 300.0]], "scaler": null}}'
)


def resize(model, edit):
    """Apply ``edit`` to a saved logistic model's weights and its scaler's mean and scale alike, so the
    model stays whole in itself."""
    for values in (model["weights"], model["scaler"]["mean"], model["scaler"]["scale"]):
        edit(values)


class TestSerialization:
    def test_save_load_round_trip(self, trained, tmp_path):
        models, _, test_ticks = trained
        path = tmp_path / "models.json"
        models.save(path)
        restored = TrainedModels.load(path)
        assert restored.train_start == models.train_start
        assert restored.train_end == models.train_end
        assert restored.impact == models.impact
        assert restored.layout == models.layout
        tick = test_ticks[3]
        fn_a = make_forecaster(models, tick, 1.0)
        fn_b = make_forecaster(restored, tick, 1.0)
        fa, fb = fn_a(1.5), fn_b(1.5)
        assert fa.pi == fb.pi
        assert fa.down == fb.down and fa.up == fb.up

    @pytest.mark.parametrize("bundle", ["trained", "toy"])
    def test_save_load_save_gives_the_same_bytes(self, trained, tmp_path, bundle):
        # the toy bundle has no scalers, tuples, Regime values and datetimes
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        (trained[0] if bundle == "trained" else toy_models()).save(first)
        TrainedModels.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_toy_bundle_text(self, tmp_path):
        path = tmp_path / "models.json"
        toy_models().save(path)
        assert path.read_text() == TOY_BUNDLE_TEXT

    def test_version_checked(self, trained, tmp_path):
        models, _, _ = trained
        path = tmp_path / "models.json"
        models.save(path)
        doc = path.read_text().replace('"format_version": 2', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="version"):
            TrainedModels.load(path)

    def test_version_1_bundle_rejected(self, trained, tmp_path):
        # format 1 held the position coefficient as the last weight of a second logistic model
        models, _, _ = trained
        path = tmp_path / "models.json"
        models.save(path)
        doc = json.loads(path.read_text())
        c = doc.pop("position_coef")
        position_model = dict(doc["weight_model"], weights=doc["weight_model"]["weights"] + [c],
                              position_weight_index=len(doc["weight_model"]["weights"]))
        path.write_text(json.dumps({**doc, "format_version": 1, "position_model": position_model}))
        with pytest.raises(ValueError, match=r"^models\.json: format_version: unsupported model file version 1$"):
            TrainedModels.load(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["bank_mdp"].update(taus=[t * t for t in doc["bank_mdp"]["taus"]]),
             "taus must be quantile_levels"),
            (lambda doc: doc["grid"]["mfrr_volumes"].append(10_000.0), "bank_mdp"),
            (lambda doc: resize(doc["weight_model"], list.pop), "weight_model has"),
            (lambda doc: [doc["bank_mip"]["scaler"][k].append(1.0) for k in ("mean", "scale")], "scaler widths"),
            (lambda doc: doc.update(n_q=doc["n_q"] + 1), "bank_mdp has 12 quantile levels, n_q is 13"),
        ],
        ids=["uneven_taus", "bank_outputs_vs_grid", "weight_features_vs_layout", "bank_scaler_width",
             "bank_levels_vs_n_q"],
    )
    def test_malformed_bundle_rejected(self, trained, tmp_path, edit, field):
        models, _, _ = trained
        path = tmp_path / "models.json"
        models.save(path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            TrainedModels.load(path)


# Every top-level field of models.json, with a value of the wrong JSON type for it
WRONG_TYPE = {"format_version": "1", "package": 5, "train_start": 5, "train_end": None, "seed": "7",
              "n_q": None, "kfold": 3.0, "grid": [], "impact": "0.5", "layout": 0, "weight_model": None,
              "position_coef": "0.5", "bank_mdp": True, "bank_mip": "mip"}
BUNDLE_FIELDS = list(WRONG_TYPE)
NESTED = [
    # (id, edit, message); one or more nested fields per model
    ("weight_model.bias", lambda doc: doc["weight_model"].pop("bias"), "weight_model.bias: missing"),
    ("weight_model.scaler.mean", lambda doc: doc["weight_model"]["scaler"].pop("mean"),
     "weight_model.scaler.mean: missing"),
    ("weight_model.position_weight_index", lambda doc: doc["weight_model"].update(position_weight_index=None),
     "weight_model.position_weight_index: unexpected field"),
    ("bank_mdp.weights", lambda doc: doc["bank_mdp"].update(weights="0.5"),
     "bank_mdp.weights: expected an array of numbers, got string"),
    ("bank_mdp.biases", lambda doc: doc["bank_mdp"]["biases"][2].__setitem__(0, "1.5"),
     "bank_mdp.biases: expected an array of numbers, found a value that is not a number"),
    ("bank_mip.taus", lambda doc: doc["bank_mip"].pop("taus"), "bank_mip.taus: missing"),
    ("bank_mip.regime", lambda doc: doc["bank_mip"].update(regime="up"), "bank_mip.regime: 'up' is not a valid Regime"),
    ("grid.afrr_volumes", lambda doc: doc["grid"]["afrr_volumes"].__setitem__(1, "50"),
     "grid.afrr_volumes.1: expected a number, got string"),
    ("impact.gamma", lambda doc: doc["impact"].update(gamma=1.0), "impact.gamma: unexpected field"),
    ("impact.beta", lambda doc: doc["impact"].update(beta=None), "impact.beta: expected a number, got null"),
    ("layout.names", lambda doc: doc["layout"].pop("names"), "layout.names: missing"),
    ("layout.blocks", lambda doc: [v.pop() for v in doc["layout"]["blocks"].values()], "expected [start, end]"),
    ("extra", lambda doc: doc.update(extra=1), "extra: unexpected field"),
    ("train_end", lambda doc: doc.update(train_end="yesterday"), "train_end: Invalid isoformat string: 'yesterday'"),
    # read field by field, then rejected by the constructor of the model that holds them
    ("weight_model.weights-2d", lambda doc: doc["weight_model"].update(weights=[doc["weight_model"]["weights"]]),
     "weight_model: weights must be 1-D, got shape (1, 107)"),
    ("weight_model.scaler.mean-short", lambda doc: doc["weight_model"]["scaler"]["mean"].pop(),
     "weight_model: scaler widths [(106,), (107,)] do not match the model's 107 weights"),
    ("bank_mdp.scaler.scale-zero", lambda doc: doc["bank_mdp"]["scaler"].update(scale=[0.0]),
     "bank_mdp.scaler: scale entries must be > 0, entry 0 is 0.0"),
    ("weight_model.scaler.scale-negative", lambda doc: doc["weight_model"]["scaler"]["scale"].__setitem__(5, -1.0),
     "weight_model.scaler: scale entries must be > 0, entry 5 is -1.0"),
    ("layout.blocks-past-the-names", lambda doc: doc["layout"]["blocks"].update(price_diff=[106, 200]),
     "layout: block 'price_diff' is [106, 200], need 0 <= start <= end <= 107"),
    ("layout.blocks-negative-start", lambda doc: doc["layout"]["blocks"].update(price_diff=[-3, 2]),
     "layout: block 'price_diff' is [-3, 2], need 0 <= start <= end <= 107"),
    ("bank_mdp.regime-of-the-other-bank", lambda doc: doc["bank_mdp"].update(regime="mip"),
     "models.json: bank_mdp.regime is mip, expected mdp"),
    ("train_start-after-train_end", lambda doc: doc.update(train_start=doc["train_end"], train_end=doc["train_start"]),
     "models.json: train_start 2024-01-05T19:30:00+00:00 is after train_end 2024-01-01T01:45:00+00:00"),
]


class TestBundleReaderErrors:
    @pytest.fixture
    def saved(self, trained, tmp_path):
        """Save the trained bundle; return its document and ``rewrite(doc) -> path``."""
        path = tmp_path / "models.json"
        trained[0].save(path)

        def rewrite(doc):
            path.write_text(json.dumps(doc))
            return path

        return json.loads(path.read_text()), rewrite

    def test_fields_are_the_saved_ones(self, saved):
        assert sorted(saved[0]) == sorted(BUNDLE_FIELDS)

    @pytest.mark.parametrize("field", BUNDLE_FIELDS)
    def test_missing_field_named(self, saved, field):
        doc, rewrite = saved
        del doc[field]
        with pytest.raises(ValueError, match=re.escape(f"models.json: {field}: missing")):
            TrainedModels.load(rewrite(doc))

    @pytest.mark.parametrize("field", BUNDLE_FIELDS)
    def test_retyped_field_named(self, saved, field):
        doc, rewrite = saved
        doc[field] = WRONG_TYPE[field]
        with pytest.raises(ValueError, match=re.escape(f"models.json: {field}: ")):
            TrainedModels.load(rewrite(doc))

    @pytest.mark.parametrize("edit, message", [case[1:] for case in NESTED], ids=[case[0] for case in NESTED])
    def test_nested_field_named(self, saved, edit, message):
        doc, rewrite = saved
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            TrainedModels.load(rewrite(doc))
        assert str(info.value).startswith("models.json: ")

    def test_truncated_bundle_named(self, saved):
        path = saved[1](saved[0])
        path.write_text(path.read_text()[:1000])
        with pytest.raises(ValueError, match=r"^models\.json: .+: line 1 column \d+ \(char \d+\)$"):
            TrainedModels.load(path)

    def test_document_not_an_object(self, saved):
        with pytest.raises(ValueError, match=re.escape("models.json: expected an object, got array")):
            TrainedModels.load(saved[1]([]))

    @pytest.mark.parametrize("path, bad, shown", [
        (("weight_model", "bias"), math.nan, "nan"),
        (("impact", "k_mdp"), math.inf, "inf"),
        (("grid", "afrr_volumes", 1), math.nan, "nan"),
        (("weight_model", "weights", 3), -math.inf, "-inf"),
        (("weight_model", "scaler", "scale", 5), math.inf, "inf"),
        (("bank_mdp", "weights", 2, 1, 0), math.nan, "nan"),
        (("bank_mip", "taus", 0), math.nan, "nan"),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_non_finite_number_named(self, saved, path, bad, shown):
        doc, rewrite = saved
        reduce(getitem, path[:-1], doc)[path[-1]] = bad
        with pytest.raises(ValueError, match=re.escape(
            f"models.json: {'.'.join(map(str, path))}: expected a finite number, got {shown}"
        )):
            TrainedModels.load(rewrite(doc))

    def test_number_too_large_for_a_float_named(self, saved):
        doc, rewrite = saved
        doc["weight_model"]["bias"] = 10**400
        with pytest.raises(ValueError, match=re.escape("models.json: weight_model.bias: ")):
            TrainedModels.load(rewrite(doc))

    @pytest.mark.parametrize("bad, message", [  # a missing one is test_missing_field_named[position_coef]
        ("0.01", "position_coef: expected a number, got string"),
        (math.nan, "position_coef: expected a finite number, got nan"),
        (10**400, "position_coef: int too large to convert to float"),
    ], ids=["string", "nan", "10**400"])
    def test_bad_position_coef_named(self, saved, bad, message):
        doc, rewrite = saved
        doc["position_coef"] = bad
        with pytest.raises(ValueError, match=f"^models\\.json: {re.escape(message)}$"):
            TrainedModels.load(rewrite(doc))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_hand_built_bundle_with_a_non_finite_coefficient_rejected(self, trained, c):
        with pytest.raises(ValueError, match=f"^position_coef: expected a finite number, got {c!r}$"):
            replace(trained[0], position_coef=c)


def numeric_leaves(doc, path=()):
    """Paths of every number in a JSON document; booleans are not numbers."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in numeric_leaves(value, path + (key,))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc) for leaf in numeric_leaves(value, path + (i,))]
    return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


class TestNonFiniteBundleProperty:
    @pytest.fixture(scope="class")
    def bundle(self, trained, tmp_path_factory):
        """The saved bundle's path and document, and its numeric leaves grouped by field."""
        path = tmp_path_factory.mktemp("bundle") / "models.json"
        trained[0].save(path)
        doc = json.loads(path.read_text())
        fields: dict[tuple, list[tuple]] = {}
        for leaf in numeric_leaves(doc):
            fields.setdefault(tuple(k for k in leaf if isinstance(k, str)), []).append(leaf)
        return path, doc, fields

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_non_finite_leaf_is_named(self, bundle, data):
        path, doc, fields = bundle
        # a field first, then one of its numbers, so scalars are drawn as often as large arrays
        field = data.draw(st.sampled_from(sorted(fields, key=str)), label="field")
        leaf = data.draw(st.sampled_from(fields[field]), label="leaf")
        edited = copy.deepcopy(doc)
        reduce(getitem, leaf[:-1], edited)[leaf[-1]] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        path.write_text(json.dumps(edited))
        with pytest.raises(ValueError, match=re.escape(f"models.json: {'.'.join(map(str, leaf))}: ")):
            TrainedModels.load(path)


class TestTrainingBoundary:
    @pytest.fixture(scope="class")
    def scored(self, trained):
        """A benchmark suite fitted on the bundle's training range, and the training ticks with z."""
        models, train_ticks, _ = trained
        return fit_benchmark_suite(train_ticks, models, max_iter=50), attach_z(train_ticks, models)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_in_sample_ticks_anywhere_rejected(self, trained, scored, data):
        models, _, test_ticks = trained
        suite, inside = scored
        ticks = data.draw(st.lists(st.sampled_from(test_ticks), max_size=6), label="out of sample")
        # the last training tick, the boundary itself, about half the time
        for tick in data.draw(st.lists(st.sampled_from(inside) | st.just(inside[-1]), min_size=1, max_size=3)):
            ticks.insert(data.draw(st.integers(0, len(ticks)), label="position"), tick)
        first = next(t for t in ticks if t.timestamp <= models.train_end)
        message = f"tick {first.timestamp.isoformat()} is not after the training end {models.train_end.isoformat()}"
        config = SimConfig(alpha=0.9, actions=ActionSpace(step=0.5, u_max=2.0))
        for run in (lambda: run_backtest(config, models, ticks),
                    lambda: beta_sweep(config, models, ticks, [0.5, 1.0], [1.0]),
                    lambda: run_benchmark(suite, ticks)):
            with pytest.raises(LeakageError, match=f"^{re.escape(message)}$"):
                run()
