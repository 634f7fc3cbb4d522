"""Deterministic event-driven replay of the full trading loop.

Each settlement period: re-tune alpha from the trailing window (adaptive
mode), pick the position with the assumed market reactivity, fill against
the recorded ladder, settle at the impact-adjusted realized price, and
append one ledger row per strategy leg. Long and short legs run as two
one-sided decisions with separate alpha tracks; their net position drives
the settlement price. Ticks with missing or too-shallow books are skipped
and excluded from both the ledger and the adaptive window. A reactivity
sweep is one replay that carries every (assumed, true) pair; a single
backtest is its one-pair case.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import ClassVar

import numpy as np

from ._fields import count, timestamp
from .data_io import PERIOD, MarketTick
from .market_impact import realized_settlement_price
from .dists import row_atoms
from .pipeline import LeakageError, PositionForecast, TrainedModels, check_out_of_sample, forecast_rows
from .risk import _check_kind
from .strategy import (
    ActionSpace,
    AlphaAdapter,
    InsufficientDepthError,
    LEGS,
    TradeRecord,
    decision_table,
    default_alpha_grid,
    fill_prices,
    leg_positions,
)

__all__ = [
    "LeakageError",
    "SimConfig",
    "Report",
    "BacktestResult",
    "run_backtest",
    "write_ledger",
    "read_ledger",
    "SweepResult",
    "beta_sweep",
    "leg_positions",
]

logger = logging.getLogger(__name__)

LEDGER_COLUMNS = ["timestamp", "leg", "u_mw", "fill_price", "realized_price", "alpha", "measure", "profit_eur"]


@dataclass(frozen=True)
class SimConfig:
    """One backtest run; ``alpha=None`` selects adaptive tuning."""

    measure: str = "cvar"
    alpha: float | None = None
    beta_est: float = 1.0
    beta_true: float = 1.0
    window: int = 500
    alpha_grid_size: int = 200
    actions: ActionSpace = field(default_factory=ActionSpace)
    seed: int = 0
    delta_hours: ClassVar[float] = PERIOD / timedelta(hours=1)  # MWh per MW held one period; not a setting

    def __post_init__(self):
        _check_kind(self.measure)
        for name in ("beta_est", "beta_true"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} {b} outside [0, 1]")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        count("window", self.window, 1)  # AlphaAdapter's rule
        count("alpha_grid_size", self.alpha_grid_size, 2)  # default_alpha_grid's rule

    @property
    def adaptive(self) -> bool:
        return self.alpha is None

    @property
    def legs(self) -> tuple[str, ...]:
        return LEGS if self.actions.allow_short else LEGS[:1]


@dataclass
class Report:
    """Aggregates of one backtest run."""

    total_profit: float
    total_per_mw_period: float
    traded_volume_mwh: float
    profit_per_trade: float
    n_periods: int
    n_skipped: int
    daily_cumulative: list[tuple[date, float]]
    alpha_path: dict[str, list[tuple[datetime, float]]]

    def to_dict(self) -> dict:
        return {
            "total_profit_eur": self.total_profit,
            "total_per_mw_period": self.total_per_mw_period,
            "traded_volume_mwh": self.traded_volume_mwh,
            "profit_per_trade_eur_per_mwh": self.profit_per_trade,
            "n_periods": self.n_periods,
            "n_skipped": self.n_skipped,
            "daily_cumulative": [[d.isoformat(), p] for d, p in self.daily_cumulative],
            "alpha_path": {
                leg: [[ts.isoformat(), a] for ts, a in path] for leg, path in self.alpha_path.items()
            },
        }


@dataclass
class BacktestResult:
    config: SimConfig
    report: Report
    ledger: list[TradeRecord]
    skipped: list[tuple[datetime, str]]


def run_backtest(config: SimConfig, models: TrainedModels, ticks: list[MarketTick]) -> BacktestResult:
    """Replay the strategy over recorded ticks; no randomness is consumed.

    Raises ``LeakageError`` naming the first tick at or before the models'
    training end, and ``ValueError`` on no ticks. Settlement applies the
    true reactivity to the recorded regulation prices and the realized
    imbalance, shifted by the net executed position of both legs.
    """
    return _replay(config, models, ticks, [config.beta_est], [config.beta_true])[0][0]


class _Cell:
    """One (beta_est, beta_true) pair of a replay: its settlement, ledger and alpha tracks."""

    def __init__(self, config: SimConfig, models: TrainedModels, alphas):
        self.config, self.alphas = config, alphas
        self.impact_true = models.impact_with_beta(config.beta_true)
        self.adapters = (
            {leg: AlphaAdapter(alphas, config.window, config.measure) for leg in config.legs}
            if config.adaptive else None
        )
        self.ledger: list[TradeRecord] = []

    def trade(self, tick: MarketTick, tables: dict) -> None:
        """Execute this cell's choice from the shared tables' decisions, settle it, and update its alphas."""
        executed = {}
        for leg, table in tables.items():
            us, qs, _ = table.best_positions()
            idx = self.adapters[leg].current_index if self.adapters else 0
            executed[leg] = (float(us[idx]), float(qs[idx]), float(self.alphas[idx]))
        u_net = sum(u for u, _, _ in executed.values())
        p_real = realized_settlement_price(tick.s, u_net, self.impact_true, tick.p_mdp, tick.p_mip)
        for leg, (u, q, alpha_used) in executed.items():
            self.ledger.append(
                TradeRecord(
                    timestamp=tick.timestamp, leg=leg, u=u, fill_price=q,
                    realized_price=p_real, alpha=alpha_used, measure=self.config.measure,
                )
            )
        if self.adapters:
            for leg, adapter in self.adapters.items():
                adapter.record(tables[leg].hindsight_losses(p_real))
                adapter.update()

    def result(self, skipped: list[tuple[datetime, str]]) -> BacktestResult:
        report = _build_report(self.ledger, len(skipped), self.config.legs)
        return BacktestResult(config=self.config, report=report, ledger=self.ledger, skipped=list(skipped))


def _replay(
    config: SimConfig, models: TrainedModels, ticks, beta_est_grid, beta_true_grid
) -> list[list[BacktestResult]]:
    """One replay of the ticks for every (assumed, true) reactivity pair.

    Leakage and skip checks run once per tick, the regime predictions
    once for all traded ticks (``forecast_rows``), and the decision tables
    once per tick, assumed reactivity and leg, since decisions do not
    depend on the true reactivity. Each pair keeps its own settlement,
    ledger and adaptive alphas, and reads its legs' decisions and
    hindsight losses off the shared tables. Returns one ``BacktestResult`` per
    pair, indexed ``[i_est][i_true]``.
    """
    if not ticks:
        raise ValueError("no ticks to replay")
    check_out_of_sample(ticks, models.train_end)

    legs = config.legs
    positions = {leg: leg_positions(config.actions, leg) for leg in legs}
    if config.adaptive:
        alphas = default_alpha_grid(config.measure, config.alpha_grid_size)
    else:
        alphas = np.array([config.alpha])
    cells = [
        [_Cell(replace(config, beta_est=e, beta_true=t), models, alphas) for t in beta_true_grid]
        for e in beta_est_grid
    ]

    skipped: list[tuple[datetime, str]] = []
    traded = []
    largest = [positions[leg][-1] for leg in legs]  # a book that fills these fills every position of the legs
    for tick in ticks:
        if tick.book is None:
            reason = "missing order book"
        else:
            try:  # the fill kernel's own depth rule
                fill_prices(tick.book, largest)
            except InsufficientDepthError:
                reason = "insufficient book depth"
            else:
                traded.append(tick)
                continue
        skipped.append((tick.timestamp, reason))
        logger.info("skipping %s: %s", tick.timestamp.isoformat(), reason)

    # the regime predictions depend on neither reactivity: one forecast_rows call for every traded tick
    regimes = [row_atoms(*rows) for rows in forecast_rows(models, traded)[1:]] if traded else ([], [])
    for tick, down, up in zip(traded, *regimes):
        for b_est, row in zip(beta_est_grid, cells):
            forecast = PositionForecast(models, tick.x, down, up, b_est)
            tables = {
                leg: decision_table(forecast, tick.book, positions[leg], config.measure, alphas)
                for leg in legs
            }
            for cell in row:
                cell.trade(tick, tables)

    return [[cell.result(skipped) for cell in row] for row in cells]


def _build_report(ledger, n_skipped: int, legs) -> Report:
    """Aggregates of a ledger whose records trade the ``legs``; each leg's alpha path is read off its records.

    Each of the ``legs`` reports a path, so a leg without records reports an empty one. The totals are
    floats (0.0) when there are no records.
    """
    delta_hours = SimConfig.delta_hours
    total = sum((r.profit(delta_hours) for r in ledger), 0.0)
    per_period = sum(((r.realized_price - r.fill_price) * r.u for r in ledger), 0.0)
    volume = sum((abs(r.u) * delta_hours for r in ledger), 0.0)
    daily: list[tuple[date, float]] = []
    alpha_path: dict = {leg: [] for leg in legs}
    running = 0.0
    current_day = None
    for r in ledger:
        alpha_path[r.leg].append((r.timestamp, r.alpha))
        day = r.timestamp.date()
        if current_day is None:
            current_day = day
        if day != current_day:
            daily.append((current_day, running))
            current_day = day
        running += r.profit(delta_hours)
    if current_day is not None:
        daily.append((current_day, running))
    timestamps = {r.timestamp for r in ledger}
    return Report(
        total_profit=total,
        total_per_mw_period=per_period,
        traded_volume_mwh=volume,
        profit_per_trade=(total / volume) if volume > 0 else 0.0,
        n_periods=len(timestamps),
        n_skipped=n_skipped,
        daily_cumulative=daily,
        alpha_path=alpha_path,
    )


def write_ledger(path, result: BacktestResult) -> None:
    """Ledger CSV with a commented header stating both profit conventions."""
    config, report = result.config, result.report
    alpha_text = "adaptive" if config.adaptive else repr(config.alpha)
    lines = [
        "# imbtrader ledger v1",
        f"# measure={config.measure} alpha={alpha_text} beta_est={config.beta_est!r} "
        f"beta_true={config.beta_true!r} window={config.window} "
        f"delta_hours={config.delta_hours!r} seed={config.seed} legs={','.join(config.legs)}",
        "# profit_eur = (realized_price - fill_price) * u_mw * delta_hours",
        f"# total_profit_eur={report.total_profit!r} "
        f"total_per_mw_period={report.total_per_mw_period!r} "
        f"traded_volume_mwh={report.traded_volume_mwh!r} n_skipped={report.n_skipped}",
        ",".join(LEDGER_COLUMNS),
    ]
    for r in result.ledger:
        lines.append(
            f"{r.timestamp.isoformat()},{r.leg},{r.u!r},{r.fill_price!r},"
            f"{r.realized_price!r},{r.alpha!r},{r.measure}"
            f",{r.profit(config.delta_hours)!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _ledger_record(parts: list[str]) -> TradeRecord:
    if len(parts) != len(LEDGER_COLUMNS):
        raise ValueError(f"expected {len(LEDGER_COLUMNS)} fields, got {len(parts)}")
    u, fill_price, realized_price, alpha, profit = numbers = [float(p) for p in parts[2:6] + parts[7:]]
    for name, value in zip(LEDGER_COLUMNS[2:6] + LEDGER_COLUMNS[7:], numbers):
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value}")
    _check_kind(parts[6])
    record = TradeRecord(
        timestamp=timestamp(parts[0]), leg=parts[1], u=u, fill_price=fill_price,
        realized_price=realized_price, alpha=alpha, measure=parts[6],
    )
    if profit != (expected := record.profit(SimConfig.delta_hours)):  # the writer prints this product's repr
        raise ValueError(f"profit_eur is {parts[7]}, not (realized_price - fill_price) * u_mw * delta_hours, "
                         f"{expected!r}")
    return record


def _ledger_delta(text: str) -> float:
    try:
        delta = float(text)
    except ValueError:
        delta = math.nan
    if delta != SimConfig.delta_hours:  # NaN fails too
        raise ValueError(f"delta_hours must be the settlement period {SimConfig.delta_hours!r}, got {text}")
    return delta


def _ledger_count(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"n_skipped must be a count, got {text}")
    return int(text)


def _ledger_legs(text: str) -> tuple[str, ...]:
    legs = tuple(text.split(","))
    if not set(legs) <= set(LEGS):
        raise ValueError(f"legs must be {' or '.join(LEGS)}, got {text}")
    if len(set(legs)) < len(legs):
        raise ValueError(f"legs must name each leg once, got {text}")
    return legs


# readers of the header values that report reads; a ledger must have all three
_LEDGER_HEADER = {"delta_hours": _ledger_delta, "n_skipped": _ledger_count, "legs": _ledger_legs}


def read_ledger(path) -> tuple[list[TradeRecord], dict]:
    """Parse a ledger CSV back into records and header metadata.

    A malformed data row (wrong field count, a bad timestamp or number, a
    non-finite number, a ``measure`` outside ``risk.RISK_KINDS``, or a
    ``profit_eur`` other than the row's own product, which the writer prints
    exactly) or header ``delta_hours`` (which must be the settlement period,
    ``SimConfig.delta_hours``), ``n_skipped`` or ``legs`` (each leg once) raises a
    ``ValueError`` that names its line; the metadata holds the first two as
    numbers and ``legs`` as a tuple. A header without one of those three, or
    a record of a leg the header does not name, raises a ``ValueError`` too.
    """
    meta: dict = {}
    records: list[TradeRecord] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line or line.startswith("timestamp,"):
            continue
        try:
            if line.startswith("#"):  # key=value tokens: a token that starts with "=" names no key
                header = dict(token.split("=", 1) for token in line[1:].split() if token.find("=") > 0)
                meta.update({key: _LEDGER_HEADER.get(key, str)(value) for key, value in header.items()})
            else:
                records.append(_ledger_record(line.split(",")))
        except ValueError as exc:
            raise ValueError(f"ledger line {lineno}: {exc}") from exc
    missing = next((key for key in _LEDGER_HEADER if key not in meta), None)
    if missing is not None:
        raise ValueError(f"ledger header has no {missing}")
    stray = next((r for r in records if r.leg not in meta["legs"]), None)
    if stray is not None:
        raise ValueError(f"ledger record at {stray.timestamp.isoformat()} is of leg {stray.leg!r}, "
                         f"the header names {','.join(meta['legs'])}")
    return records, meta


@dataclass
class SweepResult:
    """Profit matrix of a reactivity sweep (rows: assumed, cols: true)."""

    beta_est_grid: np.ndarray
    beta_true_grid: np.ndarray
    profits: np.ndarray  # (n_est, n_true)

    def row_monotone_non_increasing(self) -> list[bool]:
        return [bool(np.all(np.diff(row) <= 1e-9)) for row in self.profits]

    def to_csv_string(self) -> str:
        header = "beta_est\\beta_true," + ",".join(repr(float(b)) for b in self.beta_true_grid)
        lines = [header]
        for i, b_est in enumerate(self.beta_est_grid):
            lines.append(
                repr(float(b_est)) + "," + ",".join(repr(float(p)) for p in self.profits[i])
            )
        return "\n".join(lines) + "\n"


def beta_sweep(
    config: SimConfig,
    models: TrainedModels,
    ticks: list[MarketTick],
    beta_est_grid,
    beta_true_grid,
) -> SweepResult:
    """Profit of every (assumed, true) reactivity pair, from one replay of the ticks.

    Each cell equals ``run_backtest`` at its pair; the decision tables are
    built once per assumed reactivity and shared by every true one.
    """
    est = np.atleast_1d(np.asarray(beta_est_grid, dtype=float))
    true = np.atleast_1d(np.asarray(beta_true_grid, dtype=float))
    results = _replay(config, models, ticks, [float(b) for b in est], [float(b) for b in true])
    profits = np.array([[r.report.total_profit for r in row] for row in results]).reshape(est.size, true.size)
    return SweepResult(beta_est_grid=est, beta_true_grid=true, profits=profits)
