"""CSV ingestion, feature engineering, and the synthetic market generator.

Two file schemas are defined here and documented in the README:

``market.csv``
    One row per quarter-hour: timestamp (ISO 8601, UTC), system imbalance
    volume ``s_mw``, both regulation prices, intraday/day-ahead forecasts
    of solar, wind and load, day-ahead and intraday reference prices, and
    one reserve-ladder price column per volume of the reserve grid
    (``afrr_<MW>`` columns first, then ``mfrr_<MW>``).

``books.csv``
    Order-book snapshot rows: timestamp, side (``ask``/``bid``), price,
    volume; asks best-first ascending, bids best-first descending. In
    memory the books of a file are one stack of arrays, ``OrderBooks``.

Timestamps are UTC everywhere; conversion from market-local time happens
at the boundary, before files reach this module. The synthetic generator
stands in for licensed market feeds: it plants known regime dynamics,
sensitivity slopes, and ladder anchors, and returns them so tests can
assert recovery.
"""
from __future__ import annotations

import csv
import logging
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from ._fields import count, timestamp
from .market_impact import is_surplus
from .price_models import ReserveGrid
from .strategy import SIDES, OrderBook, ladder_fault

__all__ = [
    "DataValidationError",
    "BASE_COLUMNS",
    "MarketRecords",
    "OrderBooks",
    "MarketTick",
    "FeatureLayout",
    "load_market_csv",
    "write_market_csv",
    "load_order_books",
    "write_order_books",
    "build_features",
    "assemble_ticks",
    "load_dataset",
    "SyntheticConfig",
    "generate_synthetic_market",
    "synthetic_ticks",
    "write_synthetic_dataset",
    "resolve_data_dir",
    "DATA_DIR_ENV",
]

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "IMBTRADER_DATA_DIR"

PERIOD = timedelta(minutes=15)

BASE_COLUMNS = [
    "timestamp",
    "s_mw",
    "p_mdp",
    "p_mip",
    "solar_id",
    "solar_da",
    "wind_id",
    "wind_da",
    "load_id",
    "load_da",
    "price_da",
    "price_id",
]
BOOK_COLUMNS = ["timestamp", "side", "price", "volume"]


class DataValidationError(ValueError):
    """Input data violates the schema; the message carries row numbers."""


@dataclass(frozen=True)
class MarketRecords:
    """Quarter-hours of market data as columns.

    Row ``i`` of ``values`` holds the numbers of the ``market.csv`` row for
    ``timestamps[i]`` in file column order: every column after ``timestamp``,
    the reserve-ladder prices last.
    """

    timestamps: list[datetime]
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or len(self.values) != len(self.timestamps):
            raise ValueError(f"values must have one row per timestamp, got shape {self.values.shape}")

    def column(self, name: str) -> np.ndarray:
        """The column named ``name`` in ``BASE_COLUMNS``."""
        return self.values[:, BASE_COLUMNS.index(name) - 1]

    @property
    def reserve_prices(self) -> np.ndarray:
        """The reserve-ladder price columns, aFRR first (a view of ``values``)."""
        return self.values[:, len(BASE_COLUMNS) - 1 :]


@dataclass(frozen=True)
class OrderBooks:
    """Order books as one stack, one book per timestamp, in time order.

    ``prices`` and ``volumes`` are (books, 2 sides, levels), asks first and
    best level first; ``counts`` (books, 2) holds each side's level count,
    and the cells past it are zero. Loading or generating checks the stack.
    """

    timestamps: list[datetime]
    prices: np.ndarray
    volumes: np.ndarray
    counts: np.ndarray

    def book(self, i: int) -> OrderBook:
        return OrderBook.of(self.prices[i], self.volumes[i], self.counts[i])


@dataclass
class MarketTick:
    """Feature-complete snapshot consumed by models and the backtester.

    ``z`` optionally overrides the price-model input (the mixture-weight output);
    loading leaves it None, and a forecast computes it with the bundle's weight model.
    """

    timestamp: datetime
    x: np.ndarray
    o: np.ndarray
    s: float
    p_mdp: float
    p_mip: float
    book: OrderBook | None = None
    z: np.ndarray | None = None

    @property
    def settlement_price(self) -> float:
        return self.p_mdp if is_surplus(self.s) else self.p_mip


@dataclass(frozen=True)
class FeatureLayout:
    """Names and named column blocks of the mixture-weight feature vector."""

    names: tuple[str, ...]
    blocks: dict[str, tuple[int, int]]

    def __post_init__(self):
        for name, (start, end) in self.blocks.items():
            if not 0 <= start <= end <= len(self.names):
                raise ValueError(f"block {name!r} is [{start}, {end}], need 0 <= start <= end <= {len(self.names)}")


# Loaders parse their files in blocks of this many rows, so a file's cell texts
# are never all alive at once.
_BLOCK_ROWS = 1024


def _read_blocks(path: Path, header: list[str]) -> Iterator[tuple[int, list[tuple[str, ...]]]]:
    """The data rows of a CSV file with ``header``, in blocks of at most _BLOCK_ROWS rows.

    Each block comes as the index of its first data row and its columns.
    The readers below check one rule at a time over a block; the
    ``DataValidationError`` names the first row of the block that breaks it.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        fault = _header_fault(next(reader, None), header)
        if fault:
            raise DataValidationError(f"{path.name}: {fault}")
        start = 0
        while rows := list(islice(reader, _BLOCK_ROWS)):
            widths = np.fromiter(map(len, rows), int, len(rows))
            _reject_first(widths != len(header), lambda i: f"expected {len(header)} fields, got {widths[i]}", start)
            yield start, list(zip(*rows))
            start += len(rows)


def _header_fault(found: list[str] | None, header: list[str]) -> str | None:
    """What is wrong with the header row ``found``: its first column that differs from ``header``, or None."""
    if not found:
        return "no header row"
    for column, (got, want) in enumerate(zip_longest(found, header), start=1):
        if got is None:
            return f"header column {column} {want!r} is missing (the header has {len(found)} columns)"
        if want is None:
            return f"header column {column} {got!r} is extra (expected {len(header)} columns)"
        if got != want:
            return f"header column {column} is {got!r}, expected {want!r}"


def _reject_first(bad: np.ndarray, message, start: int) -> None:
    """Raise naming the first ``bad`` row of a block whose first data row is ``start``."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise DataValidationError(f"row {start + hits[0] + 2}: {message(hits[0])}")


def _read_timestamps(texts: tuple[str, ...], start: int, parsed: dict[str, datetime]) -> list[datetime]:
    """Each text of a block as a UTC timestamp; a text already in ``parsed`` is not parsed again."""
    for text in dict.fromkeys(texts):
        if text not in parsed:
            try:
                parsed[text] = timestamp(text)
            except ValueError as exc:
                row = start + texts.index(text) + 2
                raise DataValidationError(f"row {row}: bad timestamp {text!r}: {exc}") from None
    return list(map(parsed.get, texts))


def _read_numbers(columns: list[tuple[str, ...]], start: int) -> np.ndarray:
    """The columns of a block as a (rows, columns) array of finite numbers."""
    try:
        flat = np.fromiter(map(float, chain.from_iterable(columns)), float, len(columns) * len(columns[0]))
    except ValueError:  # name the first row with a cell that is not a number
        for row, cells in enumerate(zip(*columns), start=start + 2):
            try:
                list(map(float, cells))
            except ValueError as exc:
                raise DataValidationError(f"row {row}: unparseable number: {exc}") from None
    values = np.ascontiguousarray(flat.reshape(len(columns), -1).T)
    _reject_first(~np.isfinite(values).all(axis=1), lambda i: "non-finite value", start)
    return values


def _on_quarter_hour(ts: datetime) -> bool:
    return ts.minute % 15 == 0 and ts.second == 0 and ts.microsecond == 0


def _validate_cadence(timestamps: list[datetime]) -> None:
    for i, ts in enumerate(timestamps):
        if not _on_quarter_hour(ts):
            raise DataValidationError(f"row {i + 2}: timestamp {ts.isoformat()} not quarter-hour aligned")
    for i, (a, b) in enumerate(zip(timestamps, timestamps[1:])):
        if b == a:
            raise DataValidationError(f"row {i + 3}: duplicate timestamp {b.isoformat()}")
        if b - a != PERIOD:
            raise DataValidationError(
                f"row {i + 3}: gap or disorder between {a.isoformat()} and {b.isoformat()}"
            )


def load_market_csv(path, grid: ReserveGrid) -> MarketRecords:
    """Read and validate a ``market.csv`` file with the columns of ``grid``.

    Raises ``DataValidationError`` naming the first header column that
    differs from the grid's, or the offending row number on unparseable
    numbers, misaligned timestamps, duplicates, or quarter-hour gaps.
    """
    header = BASE_COLUMNS + grid.column_labels()
    timestamps, values, parsed = [], [np.empty((0, len(header) - 1))], {}  # an empty file keeps its width
    for start, columns in _read_blocks(Path(path), header):
        timestamps += _read_timestamps(columns[0], start, parsed)
        values.append(_read_numbers(columns[1:], start))
    _validate_cadence(timestamps)
    return MarketRecords(timestamps, np.concatenate(values))


def write_market_csv(path, records: MarketRecords, grid: ReserveGrid) -> None:
    """Write records in the documented schema; floats keep full precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BASE_COLUMNS + grid.column_labels())
        for ts, row in zip(records.timestamps, records.values.tolist()):
            writer.writerow([ts.isoformat()] + [repr(v) for v in row])


def load_order_books(path) -> OrderBooks:
    """Read and validate ``books.csv`` into one stack of books, sorted by timestamp.

    A book's rows need not be adjacent. A wrong width, timestamp, side or
    number, a non-finite value, and a level that breaks a ladder rule
    (``strategy.ladder_fault``) raise ``DataValidationError`` naming the row.
    """
    stamps, bids, values, parsed = [], [np.empty(0, bool)], [np.empty((0, 2))], {}
    for start, columns in _read_blocks(Path(path), BOOK_COLUMNS):
        stamps += _read_timestamps(columns[0], start, parsed)
        sides = np.array(columns[1], dtype=str)
        _reject_first((sides != "ask") & (sides != "bid"),
                      lambda i: f"side must be ask or bid, got {columns[1][i]!r}", start)
        bids.append(sides == "bid")
        values.append(_read_numbers(columns[2:], start))
    values = np.concatenate(values)
    timestamps = sorted(set(parsed.values()))
    index = {ts: i for i, ts in enumerate(timestamps)}
    ladders = 2 * np.fromiter(map(index.get, stamps), int, len(stamps)) + np.concatenate(bids)  # 2 * book + side
    order = np.argsort(ladders, kind="stable")  # the rows of each ladder, in file order
    ladders = ladders[order]
    levels = np.arange(ladders.size) - np.searchsorted(ladders, ladders)
    cells = np.zeros((3, len(timestamps), 2, levels.max(initial=0) + 1))  # price, volume and row of each level
    cells[:, ladders // 2, ladders % 2, levels] = np.vstack([values.T, np.arange(ladders.size)])[:, order]
    prices, volumes, row_of = cells
    counts = np.bincount(ladders, minlength=2 * len(timestamps)).reshape(-1, 2)
    fault = ladder_fault(prices, volumes, counts, rank=row_of)
    if fault:
        raise DataValidationError(f"row {int(row_of[fault[0]]) + 2}: {fault[1]}")
    return OrderBooks(timestamps, prices, volumes, counts)


def write_order_books(path, books: OrderBooks) -> None:
    """Write ``books.csv``: each book its asks then its bids, best first; floats keep full precision."""
    live = np.arange(books.prices.shape[-1]) < books.counts[..., None]
    book, side, _ = np.nonzero(live)
    stamps = [ts.isoformat() for ts in books.timestamps]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOOK_COLUMNS)
        writer.writerows(zip(
            [stamps[i] for i in book], [SIDES[i] for i in side],
            map(repr, books.prices[live].tolist()), map(repr, books.volumes[live].tolist()),
        ))


# Imbalance lags in quarter-hours. Trading closes just over an hour before
# delivery, so the most recent observable volume is four periods old.
IMBALANCE_LAGS = (4, 5, 6, 7)
QUARTERS_PER_DAY = 96


def quarter_of_day(ts: datetime) -> int:
    return ts.hour * 4 + ts.minute // 15


# The mixture-weight feature vector: its blocks in column order, each with its column names.
# ``build_features`` stacks its blocks in this order and ``reference_layout`` names them from it.
FEATURE_BLOCKS = (
    ("imbalance_lags", tuple(f"s_lag_{lag}" for lag in IMBALANCE_LAGS)),
    ("quarter_onehot", tuple(f"quarter_{q}" for q in range(QUARTERS_PER_DAY))),
    ("forecast_diffs", ("solar_id_minus_da", "wind_id_minus_da", "load_id_minus_da")),
    ("hourly_deviation", ("solar_hourly_dev", "wind_hourly_dev", "load_hourly_dev")),
    ("price_diff", ("price_id_minus_da",)),
)


def build_features(records: MarketRecords) -> np.ndarray:
    """Mixture-weight features per the reference schema, one row per record from row ``max(IMBALANCE_LAGS)`` on.

    Blocks (``FEATURE_BLOCKS``): lagged imbalance volumes (information
    cutoff one hour before delivery), one-hot quarter of day,
    intraday-minus-day-ahead forecast differences, deviation of the intraday
    forecasts from their hourly mean, and the intraday/day-ahead price
    difference. The first records, without full lag history, get no row.
    """
    max_lag = max(IMBALANCE_LAGS)
    n = len(records.timestamps)
    if n <= max_lag:
        raise DataValidationError(f"need more than {max_lag} records for lag features, got {n}")
    s = records.column("s_mw")
    intraday = np.column_stack([records.column(f"{k}_id") for k in ("solar", "wind", "load")])
    diffs = intraday - np.column_stack([records.column(f"{k}_da") for k in ("solar", "wind", "load")])
    price_diff = records.column("price_id") - records.column("price_da")

    # hourly mean of the intraday forecasts over the (possibly partial) clock
    # hour; the sums start at -0.0, the additive identity, so each is the
    # left-to-right sum of its hour's rows
    hours = [ts.toordinal() * 24 + ts.hour for ts in records.timestamps]
    _, hour_of_row, counts = np.unique(hours, return_inverse=True, return_counts=True)
    sums = np.full((counts.size, 3), -0.0)
    np.add.at(sums, hour_of_row, intraday)
    deviations = intraday - sums[hour_of_row] / counts[hour_of_row, None]

    quarters = np.array([quarter_of_day(ts) for ts in records.timestamps])
    onehot = np.zeros((n, QUARTERS_PER_DAY))
    onehot[np.arange(n), quarters] = 1.0

    rows = np.arange(max_lag, n)
    blocks = {
        "imbalance_lags": np.column_stack([s[rows - lag] for lag in IMBALANCE_LAGS]),
        "quarter_onehot": onehot[rows],
        "forecast_diffs": diffs[rows],
        "hourly_deviation": deviations[rows],
        "price_diff": price_diff[rows, None],
    }
    return np.hstack([blocks[name] for name, _ in FEATURE_BLOCKS])


def reference_layout() -> FeatureLayout:
    """Layout of the feature vector ``build_features`` emits (data independent)."""
    names: list[str] = []
    blocks = {}
    for block, columns in FEATURE_BLOCKS:
        blocks[block] = (len(names), len(names) + len(columns))
        names += columns
    return FeatureLayout(names=tuple(names), blocks=blocks)


def assemble_ticks(
    records: MarketRecords,
    x: np.ndarray,
    books: OrderBooks | None = None,
) -> list[MarketTick]:
    """Join records, their ``build_features`` matrix, and (optionally) order books into ticks."""
    start = max(IMBALANCE_LAGS)
    if len(x) != len(records.timestamps) - start:
        raise ValueError(f"{len(x)} feature rows for {len(records.timestamps)} records, need one from row {start} on")
    book_of = {ts: i for i, ts in enumerate(books.timestamps)} if books is not None else {}
    # tolist() keeps s and the prices Python floats, as ledgers print them
    s, p_mdp, p_mip = (records.column(name)[start:].tolist() for name in ("s_mw", "p_mdp", "p_mip"))
    return [
        MarketTick(
            timestamp=ts, x=x_t, o=o, s=s_t, p_mdp=mdp_t, p_mip=mip_t,
            book=books.book(book_of[ts]) if ts in book_of else None,
        )
        for ts, x_t, o, s_t, mdp_t, mip_t in zip(
            records.timestamps[start:], x, records.reserve_prices[start:], s, p_mdp, p_mip
        )
    ]


def load_dataset(data_dir, grid: ReserveGrid) -> list[MarketTick]:
    """Load ``market.csv`` (and ``books.csv`` when present) from a directory."""
    data_dir = Path(data_dir)
    records = load_market_csv(data_dir / "market.csv", grid)
    books_path = data_dir / "books.csv"
    books = load_order_books(books_path) if books_path.exists() else None
    if books is not None:
        known = set(records.timestamps)
        unmatched = [ts for ts in books.timestamps if ts not in known]
        if unmatched:
            logger.warning(
                "%s: %d order books have no market.csv row and are ignored; first at %s",
                books_path.name, len(unmatched), min(unmatched).isoformat(),
            )
    return assemble_ticks(records, build_features(records), books)


def resolve_data_dir(cli_value) -> Path:
    """CLI flag wins; otherwise fall back to the environment override."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise ValueError(f"no data directory given and {DATA_DIR_ENV} is not set")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic market; its planted law is the generator's constants below, returned as truth.

    With ``price_noise_std`` and ``price_gap_std`` both zero the regulation
    prices are exactly affine in the imbalance volume and exactly equal to
    their anchored ladder column, so sensitivity and quantile fits recover
    the planted values to numerical precision.
    """

    seed: int = 0
    n_periods: int = 96 * 30
    price_gap_std: float = 0.0
    price_noise_std: float = 0.0
    edge: float = 4.0
    grid: ReserveGrid = field(default_factory=ReserveGrid)

    def __post_init__(self):
        count("seed", self.seed, 0)
        count("n_periods", self.n_periods, 1)
        for name, rule, ok in (  # NaN fails every rule
            ("price_gap_std", "nonnegative and finite", 0.0 <= self.price_gap_std < math.inf),
            ("price_noise_std", "nonnegative and finite", 0.0 <= self.price_noise_std < math.inf),
            ("edge", "finite", math.isfinite(self.edge)),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        for name, anchor in (("afrr_volumes", _MDP_ANCHOR), ("mfrr_volumes", _MIP_ANCHOR)):
            volumes = getattr(self.grid, name)
            if len(volumes) <= anchor:  # too short to hold its anchor column
                raise ValueError(f"grid.{name} must hold at least {anchor + 1} volumes, got {volumes}")


# The synthetic market's first period.
_START = datetime(2024, 1, 1, tzinfo=timezone.utc)
# The planted law of the synthetic market (see the README). The regime: a surplus period's log-odds are the
# bias, plus the signal (the couplings below of the forecast differences, times its strength), plus the
# persistence times the four-period-lagged imbalance over its scale (MW), which also spreads the imbalance.
_REGIME_BIAS, _REGIME_PERSISTENCE, _SIGNAL_STRENGTH, _IMBALANCE_SCALE = 0.3, 0.6, 1.0, 120.0
_SIGNAL_WEIGHTS = {"solar": 0.004, "wind": 0.003, "load": -0.003, "price": -0.05}
# The prices (EUR/MWh): p_mdp = mean - k_mdp * s and p_mip = mean + gap - k_mip * s, the gap's mean below.
_K_MDP, _K_MIP, _MDP_PRICE_MEAN, _PRICE_GAP_MEAN = 0.40, 0.41, 40.0, 140.0
# The reserve ladder's price law: a column is its ladder's system price plus the ladder's slope (EUR/MWh
# per MW) times its volume's distance from the anchor column's, which carries that price itself.
_AFRR_SLOPE, _MFRR_SLOPE = 0.05, 0.08
_MDP_ANCHOR, _MIP_ANCHOR = 2, 3  # the aFRR column of the downregulation price, the mFRR column of the upregulation
# The books: levels per side, volume per level (MW), and the tick between levels and the spread (EUR/MWh).
_BOOK_LEVELS, _BOOK_LEVEL_VOLUME, _BOOK_TICK, _BOOK_SPREAD = 3, 6.0, 1.5, 2.0


def generate_synthetic_market(
    cfg: SyntheticConfig,
) -> tuple[MarketRecords, OrderBooks, dict]:
    """Simulate a two-regime balancing market with planted parameters.

    The latent regime follows a logistic law that is linear in features the
    mixture-weight model observes (forecast differences, price difference,
    and the four-period-lagged imbalance), so the model family is well
    specified. Regulation prices follow the planted sensitivity slopes and
    equal their anchored ladder columns up to the configured noise.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_periods
    timestamps = [_START + i * PERIOD for i in range(n)]
    quarters = np.array([quarter_of_day(ts) for ts in timestamps])

    daylight = np.clip(np.sin((quarters - 24) * np.pi / 48.0), 0.0, None)
    solar_da = 3000.0 * daylight * rng.uniform(0.7, 1.0, size=n)
    wind_da = np.clip(1500.0 + np.cumsum(rng.normal(0.0, 30.0, size=n)), 100.0, None)
    load_da = 9000.0 + 2500.0 * np.sin((quarters - 20) * np.pi / 48.0) ** 2
    diff_solar = rng.normal(0.0, 200.0, size=n) * (daylight > 0)
    diff_wind = rng.normal(0.0, 200.0, size=n)
    diff_load = rng.normal(0.0, 250.0, size=n)
    price_da = 60.0 + 20.0 * (load_da - 9000.0) / 2500.0 + rng.normal(0.0, 4.0, size=n)
    diff_price = rng.normal(0.0, 8.0, size=n)

    signal = _SIGNAL_STRENGTH * (
        _SIGNAL_WEIGHTS["solar"] * diff_solar
        + _SIGNAL_WEIGHTS["wind"] * diff_wind
        + _SIGNAL_WEIGHTS["load"] * diff_load
        + _SIGNAL_WEIGHTS["price"] * diff_price
    )
    s = np.empty(n)
    logits = np.empty(n)
    magnitudes = np.abs(rng.normal(0.0, _IMBALANCE_SCALE, size=n)) + 1e-9
    regime_draws = rng.random(n)
    for t in range(n):
        lagged = s[t - 4] / _IMBALANCE_SCALE if t >= 4 else 0.0
        logits[t] = _REGIME_BIAS + signal[t] + _REGIME_PERSISTENCE * lagged
        positive = regime_draws[t] < 1.0 / (1.0 + np.exp(-logits[t]))
        s[t] = magnitudes[t] if positive else -magnitudes[t]

    p_mdp_sys = _MDP_PRICE_MEAN - _K_MDP * s
    gap = _PRICE_GAP_MEAN + cfg.price_gap_std * rng.normal(size=n)
    p_mip_sys = _MDP_PRICE_MEAN + gap - _K_MIP * s
    p_mdp = p_mdp_sys + cfg.price_noise_std * rng.normal(size=n)
    p_mip = p_mip_sys + cfg.price_noise_std * rng.normal(size=n)

    afrr, mfrr = np.asarray(cfg.grid.afrr_volumes), np.asarray(cfg.grid.mfrr_volumes)
    afrr_prices = p_mdp_sys[:, None] + _AFRR_SLOPE * (afrr - afrr[_MDP_ANCHOR])
    mfrr_prices = p_mip_sys[:, None] + _MFRR_SLOPE * (mfrr - mfrr[_MIP_ANCHOR])

    pi = 1.0 / (1.0 + np.exp(-logits))
    expected_settlement = pi * p_mdp_sys + (1.0 - pi) * p_mip_sys
    best_ask = expected_settlement - cfg.edge

    # columns in BASE_COLUMNS order, then the reserve ladder
    values = np.column_stack([
        s, p_mdp, p_mip,
        solar_da + diff_solar, solar_da,
        wind_da + diff_wind, wind_da,
        load_da + diff_load, load_da,
        price_da, price_da + diff_price,
        afrr_prices, mfrr_prices,
    ])
    steps = np.arange(_BOOK_LEVELS) * _BOOK_TICK
    prices = np.stack([best_ask[:, None] + steps, best_ask[:, None] - _BOOK_SPREAD - steps], axis=1)
    volumes = np.full(prices.shape, _BOOK_LEVEL_VOLUME)
    books = OrderBooks(timestamps, prices, volumes, np.full((n, 2), _BOOK_LEVELS))
    fault = ladder_fault(books.prices, books.volumes, books.counts)
    if fault:  # a price that overflows, or one too large for the tick to move it
        raise ValueError(f"book at {timestamps[fault[0][0]].isoformat()}: {fault[1]}")

    truth = {
        "k_mdp": _K_MDP,
        "k_mip": _K_MIP,
        "regime_bias": _REGIME_BIAS,
        "regime_persistence": _REGIME_PERSISTENCE,
        "signal_weights": dict(_SIGNAL_WEIGHTS),
        "signal_strength": _SIGNAL_STRENGTH,
        "base_rate": float(np.mean(is_surplus(s))),
        "mdp_anchor_column": _MDP_ANCHOR,
        "mip_anchor_column": len(cfg.grid.afrr_volumes) + _MIP_ANCHOR,
        "edge": cfg.edge,
    }
    return MarketRecords(timestamps, values), books, truth


def synthetic_ticks(cfg: SyntheticConfig) -> tuple[list[MarketTick], dict]:
    """Generate and assemble feature-complete ticks in one call."""
    records, books, truth = generate_synthetic_market(cfg)
    ticks = assemble_ticks(records, build_features(records), books)
    return ticks, truth


def write_synthetic_dataset(out_dir, cfg: SyntheticConfig) -> dict:
    """Generate a dataset and write ``market.csv`` plus ``books.csv``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, books, truth = generate_synthetic_market(cfg)
    write_market_csv(out_dir / "market.csv", records, cfg.grid)
    write_order_books(out_dir / "books.csv", books)
    return truth
