import csv
import dataclasses
import logging
import math
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from imbtrader import data_io
from imbtrader.data_io import (
    BASE_COLUMNS,
    FEATURE_BLOCKS,
    DataValidationError,
    MarketRecords,
    SyntheticConfig,
    assemble_ticks,
    build_features,
    generate_synthetic_market,
    load_dataset,
    load_market_csv,
    load_order_books,
    quarter_of_day,
    reference_layout,
    resolve_data_dir,
    synthetic_ticks,
    write_market_csv,
    write_order_books,
    write_synthetic_dataset,
)
from imbtrader.market_impact import estimate_sensitivities, is_surplus
from imbtrader.price_models import ReserveGrid

UTC = timezone.utc
FIXTURE_DAY = Path(__file__).resolve().parents[1] / "data" / "fixture_day"


def small_cfg(**overrides):
    defaults = dict(seed=3, n_periods=96 * 4)
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


def with_timestamps(records, timestamps):
    return MarketRecords(timestamps, records.values)


def bits(a):
    return a.shape, a.tobytes()


class TestCsvRoundTrip:
    def test_round_trip_identical(self, tmp_path):
        cfg = small_cfg(price_noise_std=6.0, price_gap_std=10.0)
        records, books, _ = generate_synthetic_market(cfg)
        write_market_csv(tmp_path / "market.csv", records, cfg.grid)
        loaded = load_market_csv(tmp_path / "market.csv", cfg.grid)
        assert loaded.timestamps == records.timestamps
        assert bits(loaded.values) == bits(records.values)
        write_order_books(tmp_path / "books.csv", books)
        loaded_books = load_order_books(tmp_path / "books.csv")
        assert loaded_books.timestamps == books.timestamps
        for name in ("prices", "volumes", "counts"):
            assert bits(getattr(loaded_books, name)) == bits(getattr(books, name))

    def test_blocks_of_rows_load_the_same_bits(self, tmp_path, monkeypatch):
        # 7-row blocks split both files, and the books' ladders, across many blocks
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", 7)
        cfg = small_cfg(n_periods=30, price_noise_std=6.0, price_gap_std=10.0)
        records, books, _ = generate_synthetic_market(cfg)
        write_market_csv(tmp_path / "market.csv", records, cfg.grid)
        write_order_books(tmp_path / "books.csv", books)
        loaded = load_market_csv(tmp_path / "market.csv", cfg.grid)
        assert loaded.timestamps == records.timestamps
        assert bits(loaded.values) == bits(records.values)
        loaded_books = load_order_books(tmp_path / "books.csv")
        assert loaded_books.timestamps == books.timestamps
        for name in ("prices", "volumes", "counts"):
            assert bits(getattr(loaded_books, name)) == bits(getattr(books, name))

    @pytest.mark.parametrize("file, field, value, message", [
        ("market.csv", 0, "noon", "bad timestamp 'noon'"),
        ("market.csv", 3, "x", "unparseable number"),
        ("market.csv", 3, "inf", "non-finite value"),
        ("books.csv", 0, "noon", "bad timestamp 'noon'"),
        ("books.csv", 1, "offer", "side must be ask or bid, got 'offer'"),
        ("books.csv", 2, "x", "unparseable number"),
        ("books.csv", 3, "nan", "non-finite value"),
        ("books.csv", 4, "1.0", "expected 4 fields, got 5"),
    ], ids=["market-timestamp", "market-number", "market-non-finite", "books-timestamp", "books-side",
            "books-number", "books-non-finite", "books-width"])
    def test_fault_in_a_later_block_names_its_row(self, tmp_path, monkeypatch, file, field, value, message):
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", 7)
        cfg = small_cfg(n_periods=30)
        records, books, _ = generate_synthetic_market(cfg)
        write_market_csv(tmp_path / "market.csv", records, cfg.grid)
        write_order_books(tmp_path / "books.csv", books)
        path = tmp_path / file
        lines = path.read_text().splitlines()
        cells = lines[17].split(",")  # row 18: the fourth row of the third block
        cells[field:field + 1] = [value]  # past the last field: one extra field
        lines[17] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match=f"^row 18: {re.escape(message)}"):
            load_dataset(tmp_path, cfg.grid)

    def test_fixture_day_rewrites_byte_for_byte(self, tmp_path):
        grid = SyntheticConfig().grid
        write_market_csv(tmp_path / "market.csv", load_market_csv(FIXTURE_DAY / "market.csv", grid), grid)
        write_order_books(tmp_path / "books.csv", load_order_books(FIXTURE_DAY / "books.csv"))
        for name in ("market.csv", "books.csv"):
            assert (tmp_path / name).read_bytes() == (FIXTURE_DAY / name).read_bytes()

    def test_book_rows_need_not_be_adjacent(self, tmp_path):
        _, books, _ = generate_synthetic_market(small_cfg(n_periods=4))
        path = tmp_path / "books.csv"
        write_order_books(path, books)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[1:][::-1]) + "\n")  # every ladder reversed
        with pytest.raises(DataValidationError, match="^row 3: bids: prices must be strictly descending$"):
            load_order_books(path)
        bids_first = sorted(lines[1:], key=lambda line: ",ask," in line)  # stable: each ladder keeps its order
        path.write_text("\n".join(lines[:1] + bids_first) + "\n")
        loaded = load_order_books(path)
        assert loaded.timestamps == books.timestamps
        assert bits(loaded.prices) == bits(books.prices)

    def test_well_formed_day_loads_fully(self, tmp_path):
        cfg = small_cfg(n_periods=96)
        records, _, _ = generate_synthetic_market(cfg)
        write_market_csv(tmp_path / "market.csv", records, cfg.grid)
        loaded = load_market_csv(tmp_path / "market.csv", cfg.grid)
        assert len(loaded.timestamps) == 96
        assert loaded.values.shape == (96, len(BASE_COLUMNS) - 1 + cfg.grid.size)

    def test_empty_data_section_keeps_its_width(self, tmp_path):
        cfg = small_cfg()
        width = len(BASE_COLUMNS) - 1 + cfg.grid.size
        write_market_csv(tmp_path / "market.csv", MarketRecords([], np.empty((0, width))), cfg.grid)
        loaded = load_market_csv(tmp_path / "market.csv", cfg.grid)
        assert loaded.timestamps == []
        assert loaded.values.shape == (0, width)
        assert loaded.reserve_prices.shape == (0, cfg.grid.size)

    def test_duplicate_timestamp_rejected_with_row(self, tmp_path):
        cfg = small_cfg(n_periods=10)
        records, _, _ = generate_synthetic_market(cfg)
        timestamps = list(records.timestamps)
        timestamps[5] = timestamps[4]
        write_market_csv(tmp_path / "market.csv", with_timestamps(records, timestamps), cfg.grid)
        with pytest.raises(DataValidationError, match="row 7"):
            load_market_csv(tmp_path / "market.csv", cfg.grid)

    def test_gap_rejected(self, tmp_path):
        cfg = small_cfg(n_periods=10)
        records, _, _ = generate_synthetic_market(cfg)
        kept = [i for i in range(10) if i != 3]
        gapped = MarketRecords([records.timestamps[i] for i in kept], records.values[kept])
        write_market_csv(tmp_path / "market.csv", gapped, cfg.grid)
        with pytest.raises(DataValidationError, match="row 5: gap"):
            load_market_csv(tmp_path / "market.csv", cfg.grid)

    def test_market_on_another_ladder_names_the_first_differing_column(self, tmp_path):
        cfg = small_cfg(n_periods=10, grid=ReserveGrid(afrr_volumes=(1.0, 60.0, 120.0, 180.0, 240.0)))
        records, _, _ = generate_synthetic_market(cfg)
        write_market_csv(tmp_path / "market.csv", records, cfg.grid)
        message = "market.csv: header column 14 is 'afrr_60', expected 'afrr_50'"
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            load_market_csv(tmp_path / "market.csv", small_cfg().grid)

    @pytest.mark.parametrize("edit, message", [
        (lambda header: [], "no header row"),
        (lambda header: ["time", "s"], "header column 1 is 'time', expected 'timestamp'"),
        (lambda header: header[:15], "header column 16 'afrr_150' is missing (the header has 15 columns)"),
        (lambda header: header + ["mfrr_900"], "header column 24 'mfrr_900' is extra (expected 23 columns)"),
        (lambda header: header[:2] + ["p_mip", "p_mdp"] + header[4:], "header column 3 is 'p_mip', expected 'p_mdp'"),
    ], ids=["no_header_row", "another_schema", "missing_columns", "extra_column", "swapped_columns"])
    def test_market_header_fault_named(self, tmp_path, edit, message):
        grid = small_cfg().grid
        cells = edit(BASE_COLUMNS + grid.column_labels())
        path = tmp_path / "market.csv"
        path.write_text(",".join(cells) + "\n" if cells else "")
        with pytest.raises(DataValidationError, match=f"^{re.escape('market.csv: ' + message)}$"):
            load_market_csv(path, grid)

    @pytest.mark.parametrize("header, message", [
        ("", "no header row"),
        ("timestamp,side,px,volume", "header column 3 is 'px', expected 'price'"),
        ("timestamp,side,price", "header column 4 'volume' is missing (the header has 3 columns)"),
    ], ids=["no_header_row", "renamed_column", "missing_column"])
    def test_book_header_fault_named(self, tmp_path, header, message):
        path = tmp_path / "books.csv"
        path.write_text(header + "\n" if header else "")
        with pytest.raises(DataValidationError, match=f"^{re.escape('books.csv: ' + message)}$"):
            load_order_books(path)

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

    @pytest.mark.parametrize("line, field, value, message", [
        (2, 2, "1.0", "row 3: asks: prices must be strictly ascending"),
        (5, 2, "1e9", "row 6: bids: prices must be strictly descending"),
        (3, 3, "0.0", "row 4: asks: volumes must be positive"),
        (4, 3, "-6.0", "row 5: bids: volumes must be positive"),
        (6, 1, "offer", "row 7: side must be ask or bid, got 'offer'"),
    ], ids=["asks-not-ascending", "bids-not-descending", "zero-volume", "negative-volume", "bad-side"])
    def test_book_ladder_fault_rejected_with_row(self, tmp_path, line, field, value, message):
        _, books, _ = generate_synthetic_market(small_cfg(n_periods=4))
        path = tmp_path / "books.csv"
        write_order_books(path, books)
        lines = path.read_text().splitlines()
        cells = lines[line].split(",")
        cells[field] = value
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match=f"^{message}$"):
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
        shifted = [ts + timedelta(minutes=7) for ts in records.timestamps]
        write_market_csv(tmp_path / "market.csv", with_timestamps(records, shifted), cfg.grid)
        with pytest.raises(DataValidationError, match="aligned"):
            load_market_csv(tmp_path / "market.csv", cfg.grid)


class TestBuildFeatures:
    def test_rows_dropped_for_missing_lags(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=20))
        x = build_features(records)
        assert x.shape == (13, len(reference_layout().names))
        assert [t.timestamp for t in assemble_ticks(records, x)] == records.timestamps[7:]

    def test_lag_columns_match_history(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=30))
        x = build_features(records)
        s = records.column("s_mw").tolist()
        sl = slice(*reference_layout().blocks["imbalance_lags"])
        for row, idx in enumerate(range(7, 30)):
            assert x[row, sl].tolist() == [s[idx - 4], s[idx - 5], s[idx - 6], s[idx - 7]]

    def test_quarter_one_hot(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=200))
        x = build_features(records)
        sl = slice(*reference_layout().blocks["quarter_onehot"])
        for row, ts in enumerate(records.timestamps[7:]):
            onehot = x[row, sl]
            assert onehot.sum() == 1.0
            assert onehot[quarter_of_day(ts)] == 1.0

    def test_hourly_deviation_matches_naive_recomputation(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=96))
        x = build_features(records)
        sl = slice(*reference_layout().blocks["hourly_deviation"])
        intraday = [records.column(f"{k}_id") for k in ("solar", "wind", "load")]
        for row, ts in enumerate(records.timestamps[7:], start=7):
            same_hour = [
                i for i, other in enumerate(records.timestamps)
                if (other.date(), other.hour) == (ts.date(), ts.hour)
            ]
            naive = [column[row] - np.mean(column[same_hour]) for column in intraday]
            assert x[row - 7, sl].tolist() == pytest.approx(naive, abs=1e-9)

    def test_hourly_sums_add_rows_in_order(self):
        # -0.0 + -0.0 is -0.0 and 0.0 + -0.0 is 0.0: the sum must start from
        # the first row, not from +0.0, to keep the sign of an all-zero hour
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=16))
        values = records.values.copy()
        solar_id = BASE_COLUMNS.index("solar_id") - 1
        values[:, solar_id] = -0.0
        x = build_features(MarketRecords(records.timestamps, values))
        deviation = x[:, slice(*reference_layout().blocks["hourly_deviation"])][:, 0]
        assert [math.copysign(1.0, v) for v in deviation] == [1.0] * len(deviation)

    def test_layout_is_the_block_table(self):
        layout = reference_layout()
        assert [name for name, _ in FEATURE_BLOCKS] == list(layout.blocks)
        for name, columns in FEATURE_BLOCKS:
            assert layout.names[slice(*layout.blocks[name])] == columns
        assert layout.blocks["imbalance_lags"] == (0, 4) and layout.blocks["price_diff"] == (106, 107)
        assert layout.names[:2] == ("s_lag_4", "s_lag_5") and layout.names[-1] == "price_id_minus_da"

    def test_assemble_rejects_another_row_count(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=20))
        with pytest.raises(ValueError, match="^12 feature rows for 20 records, need one from row 7 on$"):
            assemble_ticks(records, build_features(records)[1:])

    def test_too_short_history_rejected(self):
        records, _, _ = generate_synthetic_market(small_cfg(n_periods=10))
        with pytest.raises(DataValidationError):
            build_features(MarketRecords(records.timestamps[:7], records.values[:7]))


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
        assert truth["k_mdp"] == 0.40

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
        s = records.column("s_mw")
        price = np.where(is_surplus(s), records.column("p_mdp"), records.column("p_mip"))
        k_mdp, k_mip = estimate_sensitivities(s, price)
        assert k_mdp == pytest.approx(truth["k_mdp"], abs=1e-6)
        assert k_mip == pytest.approx(truth["k_mip"], abs=1e-6)

    # the anchors are aFRR column 2 and mFRR column 3, so the mFRR anchor's column follows the aFRR ladder's length
    @pytest.mark.parametrize("grid, columns", [
        (ReserveGrid(), (2, 5 + 3)),
        (ReserveGrid((1.0, 20.0, 40.0, 60.0), (1.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)), (2, 4 + 3)),
    ], ids=["default", "other"])
    def test_anchored_ladder_columns_equal_prices_when_noiseless(self, grid, columns):
        cfg = small_cfg(price_noise_std=0.0, price_gap_std=0.0, grid=grid)
        records, _, truth = generate_synthetic_market(cfg)
        reserve = records.reserve_prices
        assert reserve.shape[1] == grid.size
        assert (truth["mdp_anchor_column"], truth["mip_anchor_column"]) == columns
        assert reserve[:, truth["mdp_anchor_column"]] == pytest.approx(records.column("p_mdp"))
        assert reserve[:, truth["mip_anchor_column"]] == pytest.approx(records.column("p_mip"))

    # the generator prices each ladder from its anchor column: aFRR column 2, mFRR column 3
    @pytest.mark.parametrize("grid, message", [
        (ReserveGrid(afrr_volumes=(1.0, 50.0)), "grid.afrr_volumes must hold at least 3 volumes, got (1.0, 50.0)"),
        (ReserveGrid(mfrr_volumes=(1.0, 100.0, 200.0)),
         "grid.mfrr_volumes must hold at least 4 volumes, got (1.0, 100.0, 200.0)"),
    ], ids=["afrr", "mfrr"])
    def test_ladder_shorter_than_its_anchor_rejected(self, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_cfg(grid=grid)

    def test_books_have_grid_depth(self):
        cfg = small_cfg()
        _, books, _ = generate_synthetic_market(cfg)
        for book in map(books.book, range(len(books.timestamps))):
            assert book.depth("ask") >= 5.0
            assert book.depth("bid") >= 5.0

    @pytest.mark.parametrize("n_periods", [0, -1])
    def test_too_few_periods_rejected(self, n_periods):
        with pytest.raises(ValueError, match="^n_periods must be at least 1"):
            small_cfg(n_periods=n_periods)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            small_cfg(seed=-1)

    def test_market_starts_at_the_generator_start(self):
        # the start is a constant of the generator, like its planted law: no setting holds it
        records, books, _ = generate_synthetic_market(small_cfg(n_periods=3))
        first = datetime(2024, 1, 1, tzinfo=UTC)
        assert records.timestamps == books.timestamps == [first + i * timedelta(minutes=15) for i in range(3)]
        assert [f.name for f in dataclasses.fields(SyntheticConfig)] == [
            "seed", "n_periods", "price_gap_std", "price_noise_std", "edge", "grid",
        ]

    @pytest.mark.parametrize("field", ["price_gap_std", "price_noise_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_scale_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite"):
            small_cfg(**{field: value})

    # the book's shape is the generator's; its edge is the one book field left
    @pytest.mark.parametrize("field, value, problem", [
        ("edge", math.inf, "must be finite"),
        ("edge", math.nan, "must be finite"),
    ])
    def test_bad_book_field_rejected_by_name(self, field, value, problem):
        with pytest.raises(ValueError, match=f"^{field} {problem}"):
            small_cfg(**{field: value})

    def test_tick_below_price_resolution_rejected(self):
        # an edge of 1e308 passes the config, but the book's tick does not move a price that large:
        # the stack check names the book
        message = "^book at 2024-01-01T00:00:00[+]00:00: asks: prices must be strictly ascending$"
        with pytest.raises(ValueError, match=message):
            generate_synthetic_market(small_cfg(n_periods=4, edge=1e308))

    def test_one_period_market(self):
        records, books, truth = generate_synthetic_market(small_cfg(n_periods=1))
        assert len(records.timestamps) == 1 and len(books.timestamps) == 1
        assert all(math.isfinite(v) for v in truth.values() if isinstance(v, float))

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


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _not_a_timestamp(text):
    try:
        datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return True
    return False


CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12)
PROPERTY_CFG = small_cfg(n_periods=12)
WIDTH = len(BASE_COLUMNS) - 1 + PROPERTY_CFG.grid.size


class TestMarketCsvProperties:
    @pytest.fixture(scope="class")
    def market_rows(self, tmp_path_factory):
        """A written market.csv and its parsed rows, header first."""
        path = tmp_path_factory.mktemp("market") / "market.csv"
        write_market_csv(path, generate_synthetic_market(PROPERTY_CFG)[0], PROPERTY_CFG.grid)
        with path.open(newline="") as fh:
            return path, list(csv.reader(fh))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_one_bad_cell_names_its_row(self, market_rows, data):
        path, rows = market_rows
        r = data.draw(st.integers(1, len(rows) - 1), label="data row")
        cells = list(rows[r])
        kind = data.draw(st.sampled_from(["not a number", "non-finite", "missing", "extra", "timestamp"]))
        if kind == "timestamp":
            cells[0] = data.draw(CELL_TEXT.filter(_not_a_timestamp))
        elif kind == "missing":
            del cells[data.draw(st.integers(0, len(cells) - 1))]
        elif kind == "extra":
            cells.insert(data.draw(st.integers(0, len(cells))), data.draw(CELL_TEXT))
        else:
            bad = CELL_TEXT.filter(_not_a_number) if kind == "not a number" else st.sampled_from(
                ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e400"]
            )
            cells[data.draw(st.integers(1, len(cells) - 1))] = data.draw(bad)
        corrupt = path.with_name("corrupt.csv")
        with corrupt.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows[:r] + [cells] + rows[r + 1 :])
        with pytest.raises(DataValidationError, match=f"^row {r + 1}: "):
            load_market_csv(corrupt, PROPERTY_CFG.grid)

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.datetimes(datetime(2000, 1, 1), datetime(2099, 12, 31)).map(
            lambda d: d.replace(minute=d.minute // 15 * 15, second=0, microsecond=0, tzinfo=UTC)
        ),
        values=hnp.arrays(
            float, st.tuples(st.integers(0, 8), st.just(WIDTH)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_write_then_load_is_exact(self, market_rows, start, values):
        records = MarketRecords([start + i * timedelta(minutes=15) for i in range(len(values))], values)
        path = market_rows[0].with_name("round_trip.csv")
        write_market_csv(path, records, PROPERTY_CFG.grid)
        loaded = load_market_csv(path, PROPERTY_CFG.grid)
        assert loaded.timestamps == records.timestamps
        assert bits(loaded.values) == bits(values)
