import json
import re
from collections import Counter
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from imbtrader import backtest
from imbtrader.backtest import (
    LeakageError,
    SimConfig,
    beta_sweep,
    leg_positions,
    read_ledger,
    run_backtest,
    write_ledger,
)
from imbtrader.data_io import PERIOD, FeatureLayout, MarketTick, SyntheticConfig, synthetic_ticks
from imbtrader.market_impact import ImpactParams
from imbtrader.pipeline import TrainedModels, attach_z, make_forecaster, train_models
from imbtrader.price_models import LogisticModel, QuantileModelBank, ReserveGrid
from imbtrader.risk import RiskSpec
from imbtrader.strategy import LEGS, ActionSpace, AlphaAdapter, OrderBook, fill_prices, optimal_position

UTC = timezone.utc


def toy_models(price=100.0):
    """Hand-built bundle: pi = 0.5 everywhere, both regimes a point mass."""
    weight = LogisticModel(bias=0.0, weights=np.zeros(2), scaler=None)
    one_hot = 300.0
    bank_mdp = QuantileModelBank(
        weights=np.zeros((2, 2, 1)),
        biases=np.array([[one_hot, 0.0], [one_hot, 0.0]]),
        scaler=None,
    )
    bank_mip = QuantileModelBank(
        weights=np.zeros((2, 2, 1)),
        biases=np.array([[0.0, one_hot], [0.0, one_hot]]),
        scaler=None,
    )
    return TrainedModels(
        weight_model=weight,
        position_coef=0.0,
        bank_mdp=bank_mdp,
        bank_mip=bank_mip,
        grid=ReserveGrid((1.0,), (1.0,)),
        impact=ImpactParams(beta=1.0, k_mdp=0.0, k_mip=0.0),
        layout=FeatureLayout(names=("f0", "f1"), blocks={"all": (0, 2)}),
        kfold=1,
        train_start=datetime(2024, 1, 1, tzinfo=UTC),
        train_end=datetime(2024, 1, 31, tzinfo=UTC),
    )


def toy_tick(ts=None, price=100.0, ask=80.0, s=5.0):
    return MarketTick(
        timestamp=ts or datetime(2024, 6, 1, 12, 0, tzinfo=UTC),
        x=np.zeros(2),
        o=np.array([price, price]),
        s=s,
        p_mdp=price,
        p_mip=price,
        book=OrderBook(asks=((ask, 10.0),), bids=((ask - 1.0, 10.0),)),
        z=np.array([0.5]),
    )


def with_bad_books(ticks):
    """A copy of the ticks with a too-shallow book at index 5 and no book at index 6."""
    ticks = list(ticks)
    ticks[5] = replace(ticks[5], book=OrderBook(asks=((50.0, 0.5),), bids=((49.0, 0.5),)))
    ticks[6] = replace(ticks[6], book=None)
    return ticks


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(measure="var")
        with pytest.raises(ValueError):
            SimConfig(beta_est=1.5)
        with pytest.raises(ValueError):
            SimConfig(alpha=2.0)
        with pytest.raises(ValueError):
            SimConfig(window=0)

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_alpha_grid_below_two_rejected_by_name(self, size):
        with pytest.raises(ValueError, match=f"^alpha_grid_size must be at least 2, got {size}$"):
            SimConfig(alpha_grid_size=size)

    @pytest.mark.parametrize("name", ["window", "alpha_grid_size"])
    @pytest.mark.parametrize("value, got", [(2.5, "2.5"), (3.0, "3.0"), (True, "boolean"), ("3", "string")],
                             ids=["2.5", "3.0", "True", "3"])
    def test_non_integer_counts_rejected_by_name(self, name, value, got):
        # a float window was truncated by the adapter and stamped unchanged in the ledger header
        with pytest.raises(ValueError, match=f"^{name}: expected an integer, got {got}$"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("window", [0, 2.5, True])
    def test_window_follows_the_adapter_rule(self, window):
        # SimConfig reads its window by the rule of the adapter that keeps it, so their messages agree
        with pytest.raises(ValueError) as adapter:
            AlphaAdapter(np.linspace(0.0, 1.0, 3), window=window, kind="cvar")
        with pytest.raises(ValueError, match=f"^{re.escape(str(adapter.value))}$"):
            SimConfig(window=window)

    def test_unknown_measure_named_by_the_risk_rule(self):
        with pytest.raises(ValueError, match=r"^unknown risk kind 'var'; expected one of \('expectation', 'cvar', "
                                             r"'evar'\)$"):
            SimConfig(measure="var")

    def test_numpy_integer_counts_accepted(self):
        config = SimConfig(window=np.int64(3), alpha_grid_size=np.int32(5))
        assert (config.window, config.alpha_grid_size) == (3, 5)

    def test_delta_is_the_settlement_period_not_a_setting(self):
        assert SimConfig.delta_hours == SimConfig().delta_hours == PERIOD / timedelta(hours=1) == 0.25
        assert "delta_hours" not in {f.name for f in fields(SimConfig)}
        with pytest.raises(TypeError, match="delta_hours"):
            SimConfig(delta_hours=1.0)

    def test_adaptive_flag(self):
        assert SimConfig(alpha=None).adaptive
        assert not SimConfig(alpha=0.9).adaptive


class TestLegPositions:
    def test_long_and_short_grids(self):
        actions = ActionSpace(step=0.5, u_max=1.5)
        assert leg_positions(actions, "long").tolist() == [0.0, 0.5, 1.0, 1.5]
        assert leg_positions(actions, "short").tolist() == [0.0, -0.5, -1.0, -1.5]

    def test_flat_short_is_negative_zero(self):
        # ledgers print a flat short leg as -0.0
        flat = leg_positions(ActionSpace(step=0.5, u_max=1.5), "short")[0]
        assert flat == 0.0 and np.signbit(flat)

    @pytest.mark.parametrize("leg", ["Long", "shorts", ""])
    def test_unknown_leg_rejected_by_name(self, leg):
        # any leg but "long" used to get the short grid
        message = f"unknown leg {leg!r}; expected one of ('long', 'short')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            leg_positions(ActionSpace(step=0.5, u_max=1.5), leg)

    def test_run_legs_are_the_strategy_legs(self):
        assert SimConfig(actions=ActionSpace(allow_short=True)).legs == LEGS == ("long", "short")
        assert SimConfig().legs == ("long",)


class TestHandLedger:
    def test_single_tick_point_mass(self):
        models = toy_models()
        tick = toy_tick()
        config = SimConfig(
            measure="expectation", alpha=1.0, beta_est=0.0, beta_true=0.0,
            actions=ActionSpace(step=1.0, u_max=5.0),
        )
        result = run_backtest(config, models, [tick])
        assert len(result.ledger) == 1
        record = result.ledger[0]
        assert record.u == 5.0
        assert record.fill_price == 80.0
        assert record.realized_price == 100.0
        assert result.report.total_profit == pytest.approx((100.0 - 80.0) * 5.0 * 0.25)
        assert result.report.traded_volume_mwh == pytest.approx(5.0 * 0.25)

    def test_forced_flat_is_zero(self):
        models = toy_models()
        tick = toy_tick(ask=10_000.0)  # hopeless edge
        config = SimConfig(measure="expectation", alpha=1.0, beta_est=0.0, beta_true=0.0)
        result = run_backtest(config, models, [tick])
        assert result.report.total_profit == 0.0
        assert result.report.traded_volume_mwh == 0.0

    @pytest.mark.parametrize("bid_volume, allow_short, rows", [(1.4, False, 1), (1.4, True, 2), (1.3, False, 1),
                                                               (1.3, True, 0)])
    def test_skips_by_the_fill_rule(self, bid_volume, allow_short, rows):
        # levels of 1.6, 1.7, 1.4 and 0.3 MW sum left to right to 4.999999999999999 MW, yet fill 5 MW: the
        # tick is traded; a side 0.1 MW short of a traded leg's largest position skips it
        asks = [(80.0 + i, v) for i, v in enumerate((1.6, 1.7, 1.4, 0.3))]
        bids = [(79.0 - i, v) for i, v in enumerate((1.6, 1.7, bid_volume, 0.3))]
        book = OrderBook(asks=asks, bids=bids)
        assert book.depth("ask") < 5.0 and fill_prices(book, [5.0]).size == 1
        config = SimConfig(measure="expectation", alpha=1.0,
                           actions=ActionSpace(step=1.0, u_max=5.0, allow_short=allow_short))
        result = run_backtest(config, toy_models(), [replace(toy_tick(), book=book)])
        assert len(result.ledger) == rows
        assert result.report.n_skipped == (rows == 0)

    def test_no_ticks_rejected(self):
        with pytest.raises(ValueError, match="^no ticks to replay$"):
            run_backtest(SimConfig(alpha=0.9), toy_models(), [])


class TestAgainstSynthetic:
    def make_config(self, **overrides):
        defaults = dict(
            measure="cvar", alpha=None, beta_est=1.0, beta_true=1.0,
            window=30, alpha_grid_size=24, actions=ActionSpace(step=0.5, u_max=3.0),
        )
        defaults.update(overrides)
        return SimConfig(**defaults)

    def test_determinism_byte_identical_ledgers(self, trained, tmp_path):
        models, _, test_ticks = trained
        config = self.make_config()
        a = run_backtest(config, models, test_ticks)
        b = run_backtest(config, models, test_ticks)
        write_ledger(tmp_path / "a.csv", a)
        write_ledger(tmp_path / "b.csv", b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_ledger_conservation(self, trained):
        models, _, test_ticks = trained
        config = self.make_config()
        result = run_backtest(config, models, test_ticks)
        recomputed = sum(
            (r.realized_price - r.fill_price) * r.u * config.delta_hours for r in result.ledger
        )
        assert result.report.total_profit == recomputed

    def test_leakage_guard(self, trained):
        models, train_ticks, _ = trained
        config = self.make_config()
        with pytest.raises(LeakageError):
            run_backtest(config, models, train_ticks[-10:])

    def test_bundle_train_end_without_offset_reads_as_utc(self, trained, tmp_path):
        models, train_ticks, _ = trained
        path = tmp_path / "models.json"
        models.save(path)
        doc = json.loads(path.read_text())
        doc["train_end"] = models.train_end.replace(tzinfo=None).isoformat()
        path.write_text(json.dumps(doc))
        loaded = TrainedModels.load(path)
        assert loaded.train_end == models.train_end and loaded.train_end.tzinfo == UTC
        with pytest.raises(LeakageError):
            run_backtest(self.make_config(), loaded, train_ticks[-10:])

    def test_in_sample_tick_after_the_first_rejected(self, seed5_bundle):
        # the first tick is out of sample, so a check of the first tick alone lets the last two through
        models, ticks = seed5_bundle
        replay = attach_z(ticks[450:460], models)[::-1] + attach_z(ticks[390:392], models)
        message = f"tick {ticks[390].timestamp.isoformat()} is not after the training end {models.train_end.isoformat()}"
        with pytest.raises(LeakageError, match=f"^{re.escape(message)}$"):
            run_backtest(SimConfig(alpha=0.9), models, replay)

    def test_adaptive_alpha_path_recorded(self, trained):
        models, _, test_ticks = trained
        config = self.make_config()
        result = run_backtest(config, models, test_ticks)
        path = result.report.alpha_path["long"]
        assert len(path) == result.report.n_periods
        assert path[0][1] == 1.0  # warm start at pure expectation
        assert all(0.0 <= a <= 1.0 for _, a in path)

    def test_integration_identity_with_standalone_strategy(self, trained):
        models, _, test_ticks = trained
        ticks = test_ticks[:40]
        config = self.make_config(
            measure="expectation", alpha=1.0, beta_est=0.0, beta_true=0.0,
        )
        result = run_backtest(config, models, ticks)
        by_ts = {r.timestamp: r for r in result.ledger}
        long_grid = leg_positions(config.actions, "long")
        for tick in ticks:
            fn = make_forecaster(models, tick, 0.0)
            decision = optimal_position(
                fn, tick.book, RiskSpec("expectation"), ActionSpace(step=0.5, u_max=3.0)
            )
            assert by_ts[tick.timestamp].u == decision.u

    def test_skipped_ticks_excluded(self, trained):
        models, _, test_ticks = trained
        ticks = with_bad_books(test_ticks[:20])
        result = run_backtest(self.make_config(), models, ticks)
        assert result.report.n_skipped == 2
        skipped_ts = {ts for ts, _ in result.skipped}
        assert ticks[5].timestamp in skipped_ts and ticks[6].timestamp in skipped_ts
        assert all(r.timestamp not in skipped_ts for r in result.ledger)

    def test_short_leg_enabled(self, trained):
        models, _, test_ticks = trained
        config = self.make_config(
            actions=ActionSpace(step=0.5, u_max=3.0, allow_short=True)
        )
        result = run_backtest(config, models, test_ticks[:50])
        legs = {r.leg for r in result.ledger}
        assert legs == {"long", "short"}
        assert set(result.report.alpha_path) == {"long", "short"}

    def test_all_skipped_two_legs_keep_empty_alpha_paths(self, trained):
        models, _, test_ticks = trained
        config = self.make_config(actions=ActionSpace(step=0.5, u_max=3.0, allow_short=True))
        result = run_backtest(config, models, [replace(t, book=None) for t in test_ticks[:5]])
        assert result.ledger == [] and result.report.n_skipped == 5
        assert result.report.to_dict()["alpha_path"] == {"long": [], "short": []}


@pytest.fixture
def ledger_lines(trained, tmp_path):
    """A written ledger of a short fixed-alpha run: its path and its lines."""
    models, _, test_ticks = trained
    config = SimConfig(measure="cvar", alpha=0.9, actions=ActionSpace(step=0.5, u_max=3.0))
    path = tmp_path / "ledger.csv"
    write_ledger(path, run_backtest(config, models, test_ticks[:5]))
    return path, path.read_text().splitlines()


class TestLedgerIO:
    def test_round_trip(self, trained, tmp_path):
        models, _, test_ticks = trained
        config = SimConfig(
            measure="cvar", alpha=0.9, actions=ActionSpace(step=0.5, u_max=3.0),
        )
        result = run_backtest(config, models, test_ticks[:30])
        path = tmp_path / "ledger.csv"
        write_ledger(path, result)
        records, meta = read_ledger(path)
        assert len(records) == len(result.ledger)
        assert meta["measure"] == "cvar"
        assert (meta["delta_hours"], meta["n_skipped"], meta["legs"]) == (0.25, 0, ("long",))
        # the "# profit_eur = ..." comment line names no key
        assert "" not in meta
        total = sum(r.profit(config.delta_hours) for r in records)
        assert total == pytest.approx(result.report.total_profit)

    def test_nonpositive_delta_rejected(self, trained, tmp_path):
        models, _, test_ticks = trained
        config = SimConfig(measure="cvar", alpha=0.9, actions=ActionSpace(step=0.5, u_max=3.0))
        path = tmp_path / "ledger.csv"
        write_ledger(path, run_backtest(config, models, test_ticks[:5]))
        path.write_text(path.read_text().replace("delta_hours=0.25", "delta_hours=0.0"))
        with pytest.raises(ValueError, match="delta_hours"):
            read_ledger(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delta_rejected(self, ledger_lines, value):
        path, lines = ledger_lines
        path.write_text("\n".join(lines).replace("delta_hours=0.25", f"delta_hours={value}") + "\n")
        with pytest.raises(ValueError, match="delta_hours"):
            read_ledger(path)

    @pytest.mark.parametrize("value", ["abc", "1.0", "0.5", "-0.25"])
    def test_delta_other_than_the_settlement_period_names_its_header_line(self, ledger_lines, value):
        # the profit_eur column is at the quarter-hour; a header stating another period would rescale the totals
        path, lines = ledger_lines
        assert "delta_hours=0.25" in lines[1]  # line 2
        path.write_text("\n".join(lines).replace("delta_hours=0.25", f"delta_hours={value}") + "\n")
        message = f"ledger line 2: delta_hours must be the settlement period 0.25, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_ledger(path)

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "nan", ""])
    def test_unreadable_skip_count_names_its_header_line(self, ledger_lines, value):
        path, lines = ledger_lines
        assert lines[3].endswith(" n_skipped=0")  # line 4, the totals
        path.write_text("\n".join(lines).replace("n_skipped=0", f"n_skipped={value}") + "\n")
        with pytest.raises(ValueError, match=f"^ledger line 4: n_skipped must be a count, got {value}$"):
            read_ledger(path)

    def test_header_records_no_seed_and_an_old_seed_token_is_read(self, ledger_lines):
        # a backtest draws nothing, so its header records no seed; a ledger written with one still reads
        path, lines = ledger_lines
        assert not any(token.startswith("seed=") for token in lines[1].split())
        records, meta = read_ledger(path)
        path.write_text("\n".join(lines).replace(" legs=long", " seed=7 legs=long") + "\n")
        assert read_ledger(path) == (records, {**meta, "seed": "7"})

    @pytest.mark.parametrize("allow_short, legs", [(False, ("long",)), (True, ("long", "short"))])
    def test_header_names_the_legs(self, trained, tmp_path, allow_short, legs):
        models, _, test_ticks = trained
        actions = ActionSpace(step=0.5, u_max=3.0, allow_short=allow_short)
        path = tmp_path / "ledger.csv"
        write_ledger(path, run_backtest(SimConfig(measure="cvar", alpha=0.9, actions=actions), models, test_ticks[:5]))
        assert path.read_text().splitlines()[1].endswith(f" legs={','.join(legs)}")  # line 2
        assert read_ledger(path)[1]["legs"] == legs

    @pytest.mark.parametrize("value", ["both", "long,", "", "long,flat"])
    def test_unknown_leg_names_its_header_line(self, ledger_lines, value):
        path, lines = ledger_lines
        path.write_text("\n".join(lines).replace("legs=long", f"legs={value}") + "\n")
        with pytest.raises(ValueError, match=f"^ledger line 2: legs must be long or short, got {value}$"):
            read_ledger(path)

    def test_repeated_leg_names_its_header_line(self, ledger_lines):
        path, lines = ledger_lines
        path.write_text("\n".join(lines).replace("legs=long", "legs=long,long") + "\n")
        with pytest.raises(ValueError, match="^ledger line 2: legs must name each leg once, got long,long$"):
            read_ledger(path)

    @pytest.mark.parametrize("token", ["delta_hours=0.25", "n_skipped=0", "legs=long"])
    def test_header_without_a_token_fails_naming_it(self, ledger_lines, token):
        path, lines = ledger_lines
        assert sum(token in line.split() for line in lines) == 1
        path.write_text("\n".join(lines).replace(token, "") + "\n")
        with pytest.raises(ValueError, match=f"^ledger header has no {token.split('=')[0]}$"):
            read_ledger(path)

    def test_record_of_a_leg_the_header_does_not_name_fails(self, ledger_lines):
        path, lines = ledger_lines
        row = lines[6].split(",")
        lines[6] = ",".join(row[:1] + ["short"] + row[2:])
        path.write_text("\n".join(lines) + "\n")
        message = f"ledger record at {row[0]} is of leg 'short', the header names long"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_ledger(path)

    # (field index, new text); None truncates the row to five fields.
    @pytest.mark.parametrize("field, value", [
        (None, None), (0, "yesterday"), (2, "two"), (2, "nan"), (3, "nan"), (4, "inf"), (5, "nan"),
    ])
    def test_malformed_row_names_its_line(self, ledger_lines, field, value):
        path, lines = ledger_lines
        assert lines[4].startswith("timestamp,")  # so lines[6] is line 7, the second data row
        row = lines[6].split(",")
        lines[6] = ",".join(row[:5] if field is None else row[:field] + [value] + row[field + 1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^ledger line 7: "):
            read_ledger(path)

    # profit_eur is the row's own product, as the writer prints it, and measure one of risk.RISK_KINDS
    @pytest.mark.parametrize("field, value, message", [
        (7, "nan", "profit_eur is nan"),
        (7, "999.0", "profit_eur is 999.0, not (realized_price - fill_price) * u_mw * delta_hours, "),
        (6, "bogus", "unknown risk kind 'bogus'; expected one of ('expectation', 'cvar', 'evar')"),
    ], ids=["profit nan", "profit wrong", "measure"])
    def test_row_that_contradicts_itself_names_its_line(self, ledger_lines, field, value, message):
        path, lines = ledger_lines
        row = lines[6].split(",")
        assert float(row[7]) != 999.0
        lines[6] = ",".join(row[:field] + [value] + row[field + 1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape('ledger line 7: ' + message)}"):
            read_ledger(path)

    def test_every_written_profit_reads_back(self, trained, tmp_path):
        models, _, test_ticks = trained
        config = SimConfig(measure="evar", actions=ActionSpace(step=0.5, u_max=3.0, allow_short=True), window=10)
        result = run_backtest(config, models, test_ticks[:60])
        path = tmp_path / "ledger.csv"
        write_ledger(path, result)
        assert any(r.u != 0.0 for r in result.ledger)
        assert read_ledger(path)[0] == result.ledger


SWEEP_GRID = [0.0, 0.5, 1.0]


class TestBetaSweep:
    @pytest.mark.parametrize("measure, alpha, allow_short", [
        ("cvar", None, False), ("evar", None, True), ("expectation", 0.9, False), ("cvar", 0.9, True),
    ], ids=["cvar-adaptive-long", "evar-adaptive-short", "expectation-fixed-long", "cvar-fixed-short"])
    def test_single_cell_equals_single_run(self, trained, measure, alpha, allow_short):
        models, _, test_ticks = trained
        ticks = with_bad_books(test_ticks[:60])
        config = SimConfig(
            measure=measure, alpha=alpha, window=10, alpha_grid_size=24,
            actions=ActionSpace(step=0.5, u_max=3.0, allow_short=allow_short),
        )
        sweep = beta_sweep(config, models, ticks, SWEEP_GRID, SWEEP_GRID)
        for i, b_est in enumerate(SWEEP_GRID):
            for j, b_true in enumerate(SWEEP_GRID):
                single = run_backtest(replace(config, beta_est=b_est, beta_true=b_true), models, ticks)
                assert single.report.n_skipped == 2
                assert sweep.profits[i, j] == single.report.total_profit

    def test_tables_and_predictions_shared_across_cells(self, trained, monkeypatch, distribution_objects):
        # Decisions depend on beta_est only and the regime predictions on neither beta: one
        # forecast_rows call per replay, and no distribution object.
        models, _, test_ticks = trained
        ticks = with_bad_books(test_ticks[:20])
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(backtest, "decision_table", counted("tables", backtest.decision_table))
        monkeypatch.setattr(backtest, "forecast_rows", counted("predictions", backtest.forecast_rows))
        config = SimConfig(
            measure="cvar", alpha=None, window=10, alpha_grid_size=24,
            actions=ActionSpace(step=0.5, u_max=3.0, allow_short=True),
        )
        beta_sweep(config, models, ticks, SWEEP_GRID, SWEEP_GRID)
        traded = len(ticks) - 2
        assert calls == {"tables": 3 * traded * 2, "predictions": 1}
        assert distribution_objects == []

    def test_margin_erosion_fixture_monotone(self):
        # noiseless, profitable-edge market; fixed alpha so decisions are
        # identical across true-reactivity cells
        cfg = SyntheticConfig(seed=21, n_periods=96 * 4, edge=6.0)
        ticks, _ = synthetic_ticks(cfg)
        split = 200
        models = train_models(
            ticks[:split], grid=cfg.grid, n_q=8, kfold=3,
            logistic_max_iter=200, bank_max_iter=120,
        )
        eval_ticks = attach_z(ticks[split:], models)
        config = SimConfig(
            measure="cvar", alpha=0.9, actions=ActionSpace(step=0.5, u_max=3.0),
        )
        sweep = beta_sweep(config, models, eval_ticks, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        assert sweep.profits.shape == (3, 3)
        assert all(sweep.row_monotone_non_increasing())
        csv_text = sweep.to_csv_string()
        assert len(csv_text.splitlines()) == 4
