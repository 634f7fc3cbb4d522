import logging
from datetime import timedelta, timezone

import numpy as np
import pytest

from imbtrader.data_io import (
    DataValidationError,
    MarketCsvSchema,
    SyntheticConfig,
    build_features,
    generate_synthetic_market,
    load_dataset,
    load_market_csv,
    load_order_books,
    quarter_of_day,
    resolve_data_dir,
    synthetic_ticks,
    write_market_csv,
    write_order_books,
    write_synthetic_dataset,
)
from imbtrader.market_impact import estimate_sensitivities
from imbtrader.price_models import fit_logistic

UTC = timezone.utc


def small_cfg(**overrides):
    defaults = dict(seed=3, n_periods=96 * 4)
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


class TestCsvRoundTrip:
    def test_round_trip_identical(self, tmp_path):
        cfg = small_cfg(price_noise_std=6.0, price_gap_std=10.0, book_noise_std=1.0)
        records, books, _ = generate_synthetic_market(cfg)
        schema = MarketCsvSchema(cfg.grid)
        write_market_csv(tmp_path / "market.csv", records, schema)
        loaded = load_market_csv(tmp_path / "market.csv", schema)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.timestamp == b.timestamp
            assert a.s == b.s and a.p_mdp == b.p_mdp and a.p_mip == b.p_mip
            assert a.price_id == b.price_id
            assert np.array_equal(a.reserve_prices, b.reserve_prices)
        write_order_books(tmp_path / "books.csv", books)
        loaded_books = load_order_books(tmp_path / "books.csv")
        assert loaded_books == books

    def test_well_formed_day_loads_fully(self, tmp_path):
        cfg = small_cfg(n_periods=96)
        records, _, _ = generate_synthetic_market(cfg)
        schema = MarketCsvSchema(cfg.grid)
        write_market_csv(tmp_path / "market.csv", records, schema)
        assert len(load_market_csv(tmp_path / "market.csv", schema)) == 96

    def test_duplicate_timestamp_rejected_with_row(self, tmp_path):
        cfg = small_cfg(n_periods=10)
        records, _, _ = generate_synthetic_market(cfg)
        records[5].timestamp = records[4].timestamp
        schema = MarketCsvSchema(cfg.grid)
        write_market_csv(tmp_path / "market.csv", records, schema)
        with pytest.raises(DataValidationError, match="row 7"):
            load_market_csv(tmp_path / "market.csv", schema)

    def test_gap_rejected(self, tmp_path):
        cfg = small_cfg(n_periods=10)
        records, _, _ = generate_synthetic_market(cfg)
        del records[3]
        schema = MarketCsvSchema(cfg.grid)
        write_market_csv(tmp_path / "market.csv", records, schema)
        with pytest.raises(DataValidationError, match="gap"):
            load_market_csv(tmp_path / "market.csv", schema)

    def test_header_mismatch_rejected(self, tmp_path):
        (tmp_path / "market.csv").write_text("time,s\n2024-01-01T00:00:00+00:00,1\n")
        with pytest.raises(DataValidationError, match="header"):
            load_market_csv(tmp_path / "market.csv", MarketCsvSchema(small_cfg().grid))

    @pytest.mark.parametrize("edit, got", [(lambda f: f[:3], 3), (lambda f: f + ["1.0"], 5)],
                             ids=["short", "long"])
    def test_book_row_width_rejected_with_row(self, tmp_path, edit, got):
        _, books, _ = generate_synthetic_market(small_cfg(n_periods=4))
        path = tmp_path / "books.csv"
        write_order_books(path, books)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match=f"row 4: expected 4 fields, got {got}"):
            load_order_books(path)

    @pytest.mark.parametrize("field, value", [(2, "nan"), (3, "inf"), (2, "-inf"), (3, "nan")],
                             ids=["price-nan", "volume-inf", "price-neg-inf", "volume-nan"])
    def test_book_non_finite_rejected_with_row(self, tmp_path, field, value):
        _, books, _ = generate_synthetic_market(small_cfg(n_periods=4))
        path = tmp_path / "books.csv"
        write_order_books(path, books)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[field] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="row 3: non-finite value"):
            load_order_books(path)

    def test_misaligned_timestamp_rejected(self, tmp_path):
        cfg = small_cfg(n_periods=5)
        records, _, _ = generate_synthetic_market(cfg)
        for r in records:
            r.timestamp = r.timestamp + timedelta(minutes=7)
        schema = MarketCsvSchema(cfg.grid)
        write_market_csv(tmp_path / "market.csv", records, schema)
        with pytest.raises(DataValidationError, match="aligned"):
            load_market_csv(tmp_path / "market.csv", schema)


class TestBuildFeatures:
    def test_rows_dropped_for_missing_lags(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=20))
        features = build_features(records)
        assert features.first_index == 7
        assert features.x.shape[0] == 13

    def test_lag_columns_match_history(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=30))
        features = build_features(records)
        s = [r.s for r in records]
        sl = features.layout.block_slice("imbalance_lags")
        for row, idx in enumerate(range(7, 30)):
            assert features.x[row, sl].tolist() == [s[idx - 4], s[idx - 5], s[idx - 6], s[idx - 7]]

    def test_quarter_one_hot(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=200))
        features = build_features(records)
        sl = features.layout.block_slice("quarter_onehot")
        for row, record in enumerate(records[7:]):
            onehot = features.x[row, sl]
            assert onehot.sum() == 1.0
            assert onehot[quarter_of_day(record.timestamp)] == 1.0

    def test_hourly_deviation_matches_naive_recomputation(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=96))
        features = build_features(records)
        sl = features.layout.block_slice("hourly_deviation")
        for row, record in enumerate(records[7:]):
            same_hour = [
                r for r in records
                if (r.timestamp.date(), r.timestamp.hour)
                == (record.timestamp.date(), record.timestamp.hour)
            ]
            naive = record.solar_id - np.mean([r.solar_id for r in same_hour])
            assert features.x[row, sl][0] == pytest.approx(naive, abs=1e-9)

    def test_too_short_history_rejected(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=10))
        with pytest.raises(DataValidationError):
            build_features(records[:7])


class TestSyntheticGenerator:
    def test_deterministic_under_seed(self, tmp_path):
        cfg = small_cfg(price_noise_std=5.0)
        write_synthetic_dataset(tmp_path / "a", cfg)
        write_synthetic_dataset(tmp_path / "b", cfg)
        assert (tmp_path / "a/market.csv").read_bytes() == (tmp_path / "b/market.csv").read_bytes()
        assert (tmp_path / "a/books.csv").read_bytes() == (tmp_path / "b/books.csv").read_bytes()

    def test_generated_dataset_passes_validation(self, tmp_path):
        cfg = small_cfg()
        truth = write_synthetic_dataset(tmp_path, cfg)
        ticks = load_dataset(tmp_path, cfg.grid)
        assert len(ticks) == cfg.n_periods - 7
        assert all(t.book is not None for t in ticks)
        assert truth["k_mdp"] == cfg.k_mdp

    def test_unmatched_books_reported(self, tmp_path, caplog):
        cfg = small_cfg(n_periods=96)
        write_synthetic_dataset(tmp_path, cfg)
        with caplog.at_level(logging.WARNING, logger="imbtrader.data_io"):
            matched = load_dataset(tmp_path, cfg.grid)
        assert caplog.records == []
        _, books, _ = generate_synthetic_market(small_cfg(n_periods=96 + 3))
        write_order_books(tmp_path / "books.csv", books)
        with caplog.at_level(logging.WARNING, logger="imbtrader.data_io"):
            ticks = load_dataset(tmp_path, cfg.grid)
        first = (matched[-1].timestamp + timedelta(minutes=15)).isoformat()
        assert [r.getMessage() for r in caplog.records] == [
            f"books.csv: 3 order books have no market.csv row and are ignored; first at {first}"
        ]
        assert [t.timestamp for t in ticks] == [t.timestamp for t in matched]

    def test_noise_free_sensitivity_recovery(self):
        cfg = small_cfg(n_periods=96 * 10, price_noise_std=0.0, price_gap_std=0.0)
        records, _, truth = generate_synthetic_market(cfg)
        s = np.array([r.s for r in records])
        price = np.array([r.settlement_price for r in records])
        k_mdp, k_mip = estimate_sensitivities(s, price)
        assert k_mdp == pytest.approx(truth["k_mdp"], abs=1e-6)
        assert k_mip == pytest.approx(truth["k_mip"], abs=1e-6)

    def test_anchored_ladder_columns_equal_prices_when_noiseless(self):
        cfg = small_cfg(price_noise_std=0.0, price_gap_std=0.0)
        records, _, truth = generate_synthetic_market(cfg)
        for r in records:
            assert r.reserve_prices[truth["mdp_anchor_column"]] == pytest.approx(r.p_mdp)
            assert r.reserve_prices[truth["mip_anchor_column"]] == pytest.approx(r.p_mip)

    def test_zero_signal_gives_base_rate_weight(self):
        cfg = small_cfg(n_periods=96 * 20, signal_strength=0.0, regime_persistence=0.0, seed=9)
        records, _, truth = generate_synthetic_market(cfg)
        features = build_features(records)
        labels = np.array([r.s > 0 for r in records[features.first_index :]], dtype=float)
        model = fit_logistic(features.x, labels, max_iter=300)
        preds = model.predict(features.x)
        assert np.mean(preds) == pytest.approx(labels.mean(), abs=0.02)
        assert abs(truth["base_rate"] - labels.mean()) < 0.05

    def test_books_have_grid_depth(self):
        cfg = small_cfg()
        _, books, _ = generate_synthetic_market(cfg)
        for book in books.values():
            assert book.depth("ask") >= 5.0
            assert book.depth("bid") >= 5.0

    def test_synthetic_ticks_helper(self):
        ticks, truth = synthetic_ticks(small_cfg(n_periods=96))
        assert len(ticks) == 96 - 7
        assert ticks[0].z is None
        assert ticks[0].x.shape[0] == 107


class TestResolveDataDir:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("IMBTRADER_DATA_DIR", "/env/path")
        assert str(resolve_data_dir("/cli/path")) == "/cli/path"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("IMBTRADER_DATA_DIR", "/env/path")
        assert str(resolve_data_dir(None)) == "/env/path"

    def test_missing_everywhere(self, monkeypatch):
        monkeypatch.delenv("IMBTRADER_DATA_DIR", raising=False)
        with pytest.raises(ValueError):
            resolve_data_dir(None)
