"""The four benchmark workloads: retrain, live_cvar, live_evar_short, sweep.

Every workload builds its market with the package's synthetic generator from
the seed it is given, writes it as CSV, loads it back, and then drives the
package only through public functions, the same calls the acceptance tests
and the CLI make.  Sizes follow the paper: n_q = 100 quantile levels per
regime, 5 folds, positions in 0.1 MW steps up to 5 MW (51 per leg), 200
alphas and an adaptive window of 500 trades.

The timed phase is a session of operations: settlement-period steps of a
live trader, periods of a reactivity sweep, or nightly retrains.  Each
operation is timed on its own, and untraced runs also express it at the
reference speed of ``speed.SpeedSampler``.  The first ``MIN_OPS``
operations always run, and their outputs, which depend only on the seed,
form the outcome digest.

With a ``Tracer`` the same code records spans around each public call, and
times the layers that run inside ``decision_table``, ``train_models`` and
``fit_benchmark_suite`` by calling them again beside the call, on the same
inputs (spans named ``beside.*`` hold those calls).  Layers a workload never
calls are timed by a short probe on the workload's own data, so every layer
metric is a measured per-call cost on every workload.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from imbtrader.backtest import SimConfig, beta_sweep, leg_positions, run_backtest
from imbtrader.benchmarks import fit_benchmark_suite, fit_linear_quantile_bank, run_benchmark
from imbtrader.data_io import SyntheticConfig, load_dataset, write_synthetic_dataset
from imbtrader.dists import MASS_TOL, MixtureForecast, crps, flatten
from imbtrader.market_impact import Regime, realized_settlement_price
from imbtrader.pipeline import TrainedModels, attach_z, make_forecaster, train_models
from imbtrader.price_models import (
    augment_with_positions,
    fit_logistic,
    fit_quantile_bank,
    predict_regulation_distribution,
)
from imbtrader.risk import cvar_grid, evar_grid
from imbtrader.strategy import ActionSpace, AlphaAdapter, decision_table, default_alpha_grid, fill_cost

from spans import NullTracer, Tracer, percentile, span_cost, summarize
from speed import SpeedSampler

# Paper and ROADMAP sizes, and the train_models settings of configs/example.yaml.
N_Q = 100
KFOLD = 5
L2 = 1e-4
LOGISTIC_MAX_ITER = 2000
BANK_MAX_ITER = 400
BENCH_MAX_ITER = 400
ACTIONS = ActionSpace(step=0.1, u_max=5.0)
N_ALPHAS = 200
WINDOW = 500
DELTA_HOURS = 0.25
BETA = 1.0  # assumed and true reactivity of the live workloads
SWEEP_GRID = (0.0, 0.5, 1.0)
SWEEP_ALPHA = 0.9

DAY = 96  # quarter-hours
N_TRAIN = 4 * DAY  # training window
N_EVAL = 2 * DAY  # retrain's out-of-sample slice
NIGHTS = 4  # retrain windows, one day apart
N_REPLAY = 10 * DAY  # periods the live and sweep sessions walk through
MIN_SETUP_S = 1.0  # set up at least twice, and until set-ups took this long
MIN_OPS = {"retrain": 2, "live_cvar": 16, "live_evar_short": 16, "sweep": 8}
TRACE_OPS = {"retrain": 1, "live_cvar": 16, "live_evar_short": 8, "sweep": 4}
PROBE_TICKS = 4


@dataclass(frozen=True)
class Trader:
    """One live strategy: risk measure, alpha grid and legs."""

    measure: str
    alphas: np.ndarray
    legs: tuple[str, ...]


TRADERS = {
    "live_cvar": Trader("cvar", default_alpha_grid("cvar", N_ALPHAS), ("long",)),
    "live_evar_short": Trader("evar", default_alpha_grid("evar", N_ALPHAS), ("long", "short")),
}
# The sweep's decision, for probing its layers: one alpha column, long only.
SWEEP_TRADER = Trader("cvar", np.array([SWEEP_ALPHA]), ("long",))
SWEEP_CONFIG = SimConfig(measure="cvar", alpha=SWEEP_ALPHA)


@dataclass
class Context:
    """What a workload's set-up leaves for its operations."""

    workload: str
    seed: int
    workdir: Path
    grid: object
    ticks: list  # retrain: the whole market; trading workloads: replay ticks with z
    train: list  # trading workloads: the training window
    rows: int
    models: TrainedModels | None = None
    setups: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per set-up
    train_s: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass
class OpResult:
    t0: float  # perf_counter at the start and end of the timed operation
    t1: float
    attempted: int
    failed: int = 0
    ledger: list[str] = field(default_factory=list)  # (timestamp, leg, u, fill, alpha) or output rows
    profit_eur: float | None = None
    train_s: float | None = None
    benchmark_s: float | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------- set-up


def build_market(tracer, seed: int, n_ticks: int, workdir: Path):
    """Generate the synthetic market, write it as CSV and load it back."""
    cfg = SyntheticConfig(seed=seed, n_periods=n_ticks + DAY, price_noise_std=8.0, price_gap_std=5.0)
    with tracer.span("data_io.generate"):
        write_synthetic_dataset(workdir, cfg)
    with tracer.span("data_io.load"):
        ticks = load_dataset(workdir, cfg.grid)
    if len(ticks) < n_ticks:
        raise RuntimeError(f"market has {len(ticks)} ticks, need {n_ticks}")
    return cfg.grid, ticks


def fit_bundle(tracer, grid, train_ticks, seed: int, workdir: Path) -> tuple[TrainedModels, float]:
    """The CLI ``train`` step: fit, save and reload the model bundle."""
    t0 = time.perf_counter()
    with tracer.span("pipeline.train_models"):
        models = train_models(
            train_ticks, grid=grid, n_q=N_Q, kfold=KFOLD, l2=L2, u_max=ACTIONS.u_max,
            seed=seed, logistic_max_iter=LOGISTIC_MAX_ITER, bank_max_iter=BANK_MAX_ITER,
        )
    train_s = time.perf_counter() - t0
    path = workdir / "models.json"
    with tracer.span("pipeline.save"):
        models.save(path)
    with tracer.span("pipeline.load"):
        models = TrainedModels.load(path)
    return models, train_s


def saturated_levels(bank, z: np.ndarray) -> int:
    """Bank levels whose largest softmax weight exceeds 0.999 for every z."""
    zs = z[:, None] if bank.scaler is None else bank.scaler.transform(z[:, None])
    logits = np.einsum("qkd,nd->nqk", bank.weights, zs) + bank.biases
    top = 1.0 / np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1)
    return int(np.sum(np.all(top > 0.999, axis=0)))


def mirror_training(tracer, train_ticks, models: TrainedModels, seed: int) -> dict:
    """Repeat the fits train_models makes, one span per public fit call.

    The refitted quantile banks are compared with the bundle's: if a later
    train_models stops matching this mirror, ``mirror_matches`` says so
    instead of the fit times silently describing other work.
    """
    x = np.stack([t.x for t in train_ticks])
    s = np.array([t.s for t in train_ticks])
    o = np.stack([t.o for t in train_ticks])
    labels = (s > 0.0).astype(float)
    n = s.size
    z = np.empty(n)
    pos = s >= 0.0
    refit = {}
    with tracer.span("beside.train_models"):
        with tracer.span("price_models.fit_logistic"):
            fit_logistic(x, labels, l2=L2, max_iter=LOGISTIC_MAX_ITER)
        for fold in np.array_split(np.arange(n), KFOLD):
            rest = np.setdiff1d(np.arange(n), fold, assume_unique=True)
            with tracer.span("price_models.fit_logistic"):
                cv = fit_logistic(x[rest], labels[rest], l2=L2, max_iter=LOGISTIC_MAX_ITER)
            z[fold] = cv.predict(x[fold])
        x_aug, aug_labels, _ = augment_with_positions(
            x, s, u_max=ACTIONS.u_max, beta=1.0, rng=seed, u_min=-ACTIONS.u_max
        )
        with tracer.span("price_models.fit_logistic"):
            fit_logistic(x_aug, aug_labels.astype(float), l2=L2, max_iter=LOGISTIC_MAX_ITER,
                         position_weight_index=x.shape[1])
        for regime, mask, col in ((Regime.MDP, pos, "p_mdp"), (Regime.MIP, ~pos, "p_mip")):
            y = np.array([getattr(t, col) for t in train_ticks])
            with tracer.span(f"price_models.fit_quantile_bank.{regime.value}"):
                refit[regime] = fit_quantile_bank(
                    z[mask], o[mask], y[mask], regime=regime, n_q=N_Q, max_iter=BANK_MAX_ITER
                )
    return {
        "mirror_matches": bool(
            np.array_equal(refit[Regime.MDP].weights, models.bank_mdp.weights)
            and np.array_equal(refit[Regime.MIP].weights, models.bank_mip.weights)
        ),
        "saturated_levels": saturated_levels(models.bank_mdp, z[pos])
        + saturated_levels(models.bank_mip, z[~pos]),
    }


def setup_once(workload: str, seed: int, workdir: Path, tracer) -> Context:
    if workload == "retrain":
        grid, ticks = build_market(tracer, seed, N_TRAIN + (NIGHTS - 1) * DAY + N_EVAL, workdir)
        return Context(workload, seed, workdir, grid, ticks, [], len(ticks))
    grid, ticks = build_market(tracer, seed, N_TRAIN + N_REPLAY, workdir)
    train, replay = ticks[:N_TRAIN], ticks[N_TRAIN : N_TRAIN + N_REPLAY]
    models, train_s = fit_bundle(tracer, grid, train, seed, workdir)
    with tracer.span("pipeline.attach_z"):
        replay = attach_z(replay, models)
    ctx = Context(workload, seed, workdir, grid, replay, train, len(ticks), models)
    ctx.train_s.append(train_s)
    return ctx


def setup(workload: str, seed: int, workdir: Path, tracer) -> Context:
    """Build the workload's inputs.

    Untraced runs set up at least twice and until the set-ups took
    ``MIN_SETUP_S``; the inputs of the first are kept, all are timed.
    """
    ctx = None
    while True:
        t0 = time.perf_counter()
        current = setup_once(workload, seed, workdir, tracer)
        t1 = time.perf_counter()
        if ctx is None:
            ctx = current
        else:
            ctx.train_s += current.train_s
        ctx.setups.append((t0, t1))
        if tracer.enabled or (len(ctx.setups) >= 2 and t1 - ctx.setups[0][0] >= MIN_SETUP_S):
            break
    if tracer.enabled and ctx.models is not None:
        ctx.info.update(mirror_training(tracer, ctx.train, ctx.models, seed))
    return ctx


# ---------------------------------------------------------------- live


def beside_rows(tracer, models, tick, key, forecasts, alphas) -> tuple[list[int], bool]:
    """Time the per-row layers of a decision table by calling them again.

    Returns the atom counts of the flattened forecasts and whether every
    flattened forecast keeps its mass within the package tolerance.
    """
    impact = models.impact_with_beta(BETA)
    atoms, losses, mass_ok = [], [], True
    with tracer.span("beside.decision_table", key):
        for u, forecast in forecasts:
            with tracer.span("dists.shift"):
                forecast.down.shift(-impact.k_mdp * impact.beta * u)
            with tracer.span("dists.shift"):
                forecast.up.shift(-impact.k_mip * impact.beta * u)
            with tracer.span("dists.flatten"):
                flat = flatten(forecast)
            with tracer.span("dists.negate"):
                loss = flat.negate()
            with tracer.span("risk.cvar_grid"):
                cvar_grid(loss, alphas)
            with tracer.span("strategy.fill_cost"):
                fill_cost(tick.book, u)
            atoms.append(flat.n_atoms)
            losses.append(loss)
            mass_ok &= abs(float(flat.masses.sum()) - 1.0) <= MASS_TOL
        # In its own loop: its large temporaries would evict the small
        # objects the calls above work on, which the table never does.
        for loss in losses:
            with tracer.span("risk.evar_grid"):
                evar_grid(loss, alphas)
    return atoms, mass_ok


class LiveSession:
    """A live trader walking the replay ticks one settlement period per op.

    The adapters start with the window at capacity, filled the way
    acceptance criterion 9 fills them, and then keep their state.
    """

    def __init__(self, ctx: Context, trader: Trader, tracer):
        self.ctx, self.trader, self.tracer = ctx, trader, tracer
        self.positions = {leg: leg_positions(ACTIONS, leg) for leg in trader.legs}
        self.grids = {leg: set(self.positions[leg].tolist()) for leg in trader.legs}
        rng = np.random.default_rng(ctx.seed)
        self.adapters = {}
        for leg in trader.legs:
            adapter = AlphaAdapter(trader.alphas, window=WINDOW, kind=trader.measure)
            for _ in range(WINDOW):
                adapter.record(rng.normal(size=trader.alphas.size))
            self.adapters[leg] = adapter
        self.last_alpha: dict[str, float] = {}
        self.counts = {"alpha_switches": {leg: 0 for leg in trader.legs},
                       "trades_at_u_max": {leg: 0 for leg in trader.legs}}
        self.atoms: list[int] = []

    def step(self, tick, key):
        """Forecast, tables, choice, settlement and alpha update, as run_backtest does."""
        tracer, trader, models = self.tracer, self.trader, self.ctx.models
        with tracer.span("pipeline.make_forecaster", key):
            forecast_fn = make_forecaster(models, tick, BETA)
        asked: dict[str, list] = {}
        tables = {}
        for leg in trader.legs:
            fn = forecast_fn
            if tracer.enabled:
                asked[leg] = []

                def fn(u, _asked=asked[leg]):
                    with tracer.span("pipeline.forecast_fn"):
                        forecast = forecast_fn(u)
                    _asked.append((u, forecast))
                    return forecast

            with tracer.span("strategy.decision_table", key):
                tables[leg] = decision_table(fn, tick.book, self.positions[leg], trader.measure,
                                             trader.alphas)
        executed = {}
        for leg in trader.legs:
            with tracer.span("strategy.best_positions", key):
                us, qs, _ = tables[leg].best_positions()
            idx = self.adapters[leg].current_index
            executed[leg] = (float(us[idx]), float(qs[idx]), float(trader.alphas[idx]))
        u_net = sum(u for u, _, _ in executed.values())
        with tracer.span("market_impact.settlement", key):
            p_real = realized_settlement_price(
                tick.s, u_net, models.impact_with_beta(BETA), tick.p_mdp, tick.p_mip
            )
        for leg in trader.legs:
            with tracer.span("strategy.hindsight_losses", key):
                losses = tables[leg].hindsight_losses(p_real)
            with tracer.span("strategy.alpha_update", key):
                self.adapters[leg].record(losses)
                self.adapters[leg].update()
        return executed, p_real, asked

    def op(self, k: int) -> OpResult:
        tick = self.ctx.ticks[k % len(self.ctx.ticks)]
        key = tick.timestamp.isoformat()
        t0 = time.perf_counter()
        try:
            with self.tracer.span("live.step", key):
                executed, p_real, asked = self.step(tick, key)
        except Exception as exc:  # a step that raises is a failed operation
            return OpResult(t0, time.perf_counter(), 1, 1, problems=[f"{key}: raised {exc!r}"])
        result = OpResult(t0, time.perf_counter(), 1, profit_eur=0.0)

        problems = []
        if not math.isfinite(p_real):
            problems.append(f"realized price {p_real!r}")
        forecast_fn = make_forecaster(self.ctx.models, tick, BETA)
        for leg, (u, q, alpha) in executed.items():
            result.ledger.append(f"{key},{leg},{u!r},{q!r},{alpha!r}")
            result.profit_eur += (p_real - q) * u * DELTA_HOURS
            if u not in self.grids[leg] or abs(u) > ACTIONS.u_max:
                problems.append(f"{leg} u={u!r} off the grid")
            if not math.isfinite(q):
                problems.append(f"{leg} fill {q!r}")
            mass = float(flatten(forecast_fn(u)).masses.sum())
            if abs(mass - 1.0) > MASS_TOL:
                problems.append(f"{leg} forecast mass {mass!r}")
            self.counts["alpha_switches"][leg] += self.last_alpha.get(leg, alpha) != alpha
            self.counts["trades_at_u_max"][leg] += abs(u) == ACTIONS.u_max
            self.last_alpha[leg] = alpha
        for leg, forecasts in asked.items():
            leg_atoms, mass_ok = beside_rows(self.tracer, self.ctx.models, tick, key, forecasts,
                                             self.trader.alphas)
            self.atoms += leg_atoms
            if not mass_ok:
                problems.append(f"{leg}: a flattened forecast lost mass")
        if problems:
            result.failed = 1
            result.problems.append(f"{key}: " + "; ".join(problems))
        return result

    def info(self) -> dict:
        out = dict(self.counts)
        if self.atoms:
            out["atoms_mean"] = float(np.mean(self.atoms))
        return out


# ---------------------------------------------------------------- sweep


class SweepSession:
    """The 3x3 reactivity sweep replayed one settlement period per op.

    With one fixed alpha no state carries between periods, so the cells'
    profits over a window are the sums of these per-period profits.
    Untraced ops call ``beta_sweep``; traced ops call ``run_backtest`` per
    cell, the function beta_sweep loops over.
    """

    def __init__(self, ctx: Context, tracer):
        self.ctx, self.tracer = ctx, tracer
        self.profits = np.zeros((len(SWEEP_GRID), len(SWEEP_GRID)))
        self.skipped = 0
        self.cells = 0

    def op(self, k: int) -> OpResult:
        tick = self.ctx.ticks[k % len(self.ctx.ticks)]
        window = [tick]
        key = tick.timestamp.isoformat()
        t0 = time.perf_counter()
        if self.tracer.enabled:
            profits = np.empty_like(self.profits)
            for i, b_est in enumerate(SWEEP_GRID):
                for j, b_true in enumerate(SWEEP_GRID):
                    cell = replace(SWEEP_CONFIG, beta_est=b_est, beta_true=b_true)
                    with self.tracer.span("backtest.run_backtest", f"{key}:{b_est}/{b_true}"):
                        res = run_backtest(cell, self.ctx.models, window)
                    profits[i, j] = res.report.total_profit
                    self.skipped += res.report.n_skipped
                    self.cells += 1
        else:
            profits = beta_sweep(SWEEP_CONFIG, self.ctx.models, window, SWEEP_GRID, SWEEP_GRID).profits
        result = OpResult(t0, time.perf_counter(), profits.size)
        self.profits += profits
        bad = ~np.isfinite(profits)
        result.failed = int(bad.sum())
        result.ledger = [key + "," + ",".join(repr(float(p)) for p in profits.ravel())]
        result.profit_eur = float(profits[SWEEP_GRID.index(1.0), SWEEP_GRID.index(1.0)])
        if bad.any():
            result.problems.append(f"{key}: non-finite sweep profits at {np.argwhere(bad).tolist()}")
        return result

    def info(self) -> dict:
        out = {"profits": self.profits.tolist()}
        if self.tracer.enabled:
            out.update({"cells": self.cells, "ticks_skipped": self.skipped})
        return out


# ---------------------------------------------------------------- retrain


def score_bundle(tracer, models, train_ticks, eval_ticks):
    """The CLI ``benchmark`` step: fit the benchmark suite and score it."""
    t0 = time.perf_counter()
    with tracer.span("benchmarks.fit_benchmark_suite"):
        suite = fit_benchmark_suite(train_ticks, models, max_iter=BENCH_MAX_ITER)
    with tracer.span("benchmarks.run_benchmark"):
        table = run_benchmark(suite, eval_ticks)
    bench_s = time.perf_counter() - t0
    if tracer.enabled:
        with tracer.span("beside.benchmarks"):
            x = np.hstack([np.stack([t.x for t in train_ticks]), np.stack([t.o for t in train_ticks])])
            y = np.array([t.settlement_price for t in train_ticks])
            with tracer.span("benchmarks.fit_linear_quantile_bank"):
                fit_linear_quantile_bank(x, y, n_q=models.n_q, max_iter=BENCH_MAX_ITER)
            for tick in eval_ticks:
                down = predict_regulation_distribution(models.bank_mdp, tick.z, tick.o)
                up = predict_regulation_distribution(models.bank_mip, tick.z, tick.o)
                flat = flatten(MixtureForecast(float(models.weight_model.predict(tick.x)), down, up))
                with tracer.span("dists.crps"):
                    crps(flat, tick.settlement_price)
    return suite, table, bench_s


class RetrainSession:
    """Nightly retrains; night k trains on the four days that start on day k."""

    def __init__(self, ctx: Context, tracer):
        self.ctx, self.tracer = ctx, tracer
        self.crps: dict | None = None

    def op(self, k: int) -> OpResult:
        ctx, tracer = self.ctx, self.tracer
        start = (k % NIGHTS) * DAY
        train = ctx.ticks[start : start + N_TRAIN]
        after = ctx.ticks[start + N_TRAIN : start + N_TRAIN + N_EVAL]
        t0 = time.perf_counter()
        models, train_s = fit_bundle(tracer, ctx.grid, train, ctx.seed, ctx.workdir)
        with tracer.span("pipeline.attach_z"):
            eval_ticks = attach_z(after, models)
        suite, table, bench_s = score_bundle(tracer, models, train, eval_ticks)
        t1 = time.perf_counter()

        banks = {
            "bank_mdp": (models.bank_mdp.weights, models.bank_mdp.biases),
            "bank_mip": (models.bank_mip.weights, models.bank_mip.biases),
            "linear_quantile": (suite.linear_bank.weights, suite.linear_bank.biases),
        }
        problems = [f"night {k}: {name} has non-finite parameters" for name, arrays in banks.items()
                    if not all(np.all(np.isfinite(a)) for a in arrays)]
        bad_scores = [name for name, sc in table.rows
                      if not (math.isfinite(sc.crps) and math.isfinite(sc.rmse))]
        problems += [f"night {k}: {name} has a non-finite CRPS or RMSE" for name in bad_scores]
        if self.crps is None:
            self.crps = {name: sc.crps for name, sc in table.rows}
        if tracer.enabled:
            ctx.models, ctx.train, ctx.ticks = models, train, eval_ticks  # for the probes
            ctx.info.update(mirror_training(tracer, train, models, ctx.seed))
            ctx.info["benchmark_ticks"] = len(eval_ticks)
        return OpResult(
            t0=t0,
            t1=t1,
            attempted=len(banks) + table.n_scored,
            failed=len(problems) - len(bad_scores) + (table.n_scored if bad_scores else 0),
            ledger=table.to_csv_string().splitlines(),
            train_s=train_s,
            benchmark_s=bench_s,
            problems=problems,
        )

    def info(self) -> dict:
        return {"crps": self.crps}


def session(ctx: Context, tracer):
    if ctx.workload == "retrain":
        return RetrainSession(ctx, tracer)
    if ctx.workload == "sweep":
        return SweepSession(ctx, tracer)
    return LiveSession(ctx, TRADERS[ctx.workload], tracer)


# ---------------------------------------------------------------- probes


def probe_missing(tracer, ctx: Context) -> list[str]:
    """Time, on this workload's data, the layers its own calls never reached."""
    seen = {s.name for s in tracer.spans}
    probed = []
    with tracer.span("probe"):
        if "strategy.decision_table" not in seen:
            trader = SWEEP_TRADER if ctx.workload == "sweep" else TRADERS["live_cvar"]
            live = LiveSession(ctx, trader, tracer)
            for k in range(PROBE_TICKS):
                live.op(k)
            ctx.info["probe_atoms_mean"] = live.info()["atoms_mean"]
            probed.append(f"decision step ({trader.measure}, {trader.alphas.size} alphas)")
        if "backtest.run_backtest" not in seen:
            cell = replace(SWEEP_CONFIG, beta_est=BETA, beta_true=BETA)
            for tick in ctx.ticks[:PROBE_TICKS]:
                with tracer.span("backtest.run_backtest", "probe"):
                    run_backtest(cell, ctx.models, [tick])
            probed.append("run_backtest")
        if "benchmarks.fit_benchmark_suite" not in seen:
            score_bundle(tracer, ctx.models, ctx.train, ctx.ticks[: 6 * PROBE_TICKS])
            ctx.info["benchmark_ticks"] = 6 * PROBE_TICKS
            probed.append("benchmark suite")
    return probed


def layer_metrics(summary: dict, ctx: Context, traced_info: dict) -> dict:
    """Per-layer metrics, name -> (value, unit), from the span summary."""

    def mean(name, scale=1.0):
        row = summary[name]
        return row["total_s"] / row["calls"] * scale

    measure = {"live_evar_short": "evar"}.get(ctx.workload, "cvar")
    tables = summary["strategy.decision_table"]
    inside = sum(
        summary[n]["total_s"]
        for n in ("dists.flatten", "dists.negate", f"risk.{measure}_grid", "strategy.fill_cost")
    )
    return {
        "data_io.generate_s": (mean("data_io.generate"), "s"),
        "data_io.load_s": (mean("data_io.load"), "s"),
        "pipeline.train_models_s": (mean("pipeline.train_models"), "s"),
        "pipeline.save_ms": (mean("pipeline.save", 1e3), "ms"),
        "pipeline.load_ms": (mean("pipeline.load", 1e3), "ms"),
        "pipeline.attach_z_ms": (mean("pipeline.attach_z", 1e3), "ms"),
        "price_models.fit_logistic_s": (mean("price_models.fit_logistic"), "s"),
        "price_models.fit_quantile_bank_mdp_s": (mean("price_models.fit_quantile_bank.mdp"), "s"),
        "price_models.fit_quantile_bank_mip_s": (mean("price_models.fit_quantile_bank.mip"), "s"),
        "price_models.saturated_levels": (ctx.info["saturated_levels"], "count"),
        "pipeline.make_forecaster_us": (mean("pipeline.make_forecaster", 1e6), "us"),
        "pipeline.forecast_fn_us": (mean("pipeline.forecast_fn", 1e6), "us"),
        "dists.shift_us": (mean("dists.shift", 1e6), "us"),
        "dists.flatten_us": (mean("dists.flatten", 1e6), "us"),
        "dists.negate_us": (mean("dists.negate", 1e6), "us"),
        "dists.atoms_mean": (traced_info.get("atoms_mean", ctx.info.get("probe_atoms_mean")), "count"),
        "dists.crps_us": (mean("dists.crps", 1e6), "us"),
        "risk.cvar_grid_us": (mean("risk.cvar_grid", 1e6), "us"),
        "risk.evar_grid_us": (mean("risk.evar_grid", 1e6), "us"),
        "strategy.fill_cost_us": (mean("strategy.fill_cost", 1e6), "us"),
        "strategy.decision_table_ms": (mean("strategy.decision_table", 1e3), "ms"),
        "strategy.decision_table_self_ms": ((tables["self_s"] - inside) / tables["calls"] * 1e3, "ms"),
        "strategy.best_positions_us": (mean("strategy.best_positions", 1e6), "us"),
        "strategy.hindsight_losses_us": (mean("strategy.hindsight_losses", 1e6), "us"),
        "strategy.alpha_update_ms": (mean("strategy.alpha_update", 1e3), "ms"),
        "market_impact.settlement_us": (mean("market_impact.settlement", 1e6), "us"),
        "backtest.run_backtest_tick_ms": (mean("backtest.run_backtest", 1e3), "ms"),
        "benchmarks.fit_benchmark_suite_s": (mean("benchmarks.fit_benchmark_suite"), "s"),
        "benchmarks.fit_linear_quantile_bank_s": (mean("benchmarks.fit_linear_quantile_bank"), "s"),
        "benchmarks.run_benchmark_tick_ms": (mean("benchmarks.run_benchmark", 1e3) / ctx.info["benchmark_ticks"], "ms"),
    }


def shares(workload: str, summary: dict) -> dict:
    """How much of a step, or of training, the heaviest layers explain."""
    out = {}
    if workload.startswith("live_"):
        steps = summary["live.step"]
        grid = "risk.evar_grid" if workload == "live_evar_short" else "risk.cvar_grid"
        out[f"share.{grid}_of_step"] = (summary[grid]["total_s"] / steps["total_s"], "ratio")
        out["share.forecast_fn_of_step"] = (summary["pipeline.forecast_fn"]["total_s"] / steps["total_s"], "ratio")
        out["share.rows_per_step"] = (summary["strategy.fill_cost"]["calls"] / steps["calls"], "count")
    banks = sum(summary[f"price_models.fit_quantile_bank.{r}"]["total_s"] for r in ("mdp", "mip"))
    out["share.fit_quantile_bank_of_train"] = (banks / summary["pipeline.train_models"]["total_s"], "ratio")
    return out


# ---------------------------------------------------------------- runs


def run_ops(sess, n_min: int, seconds: float | None) -> list[OpResult]:
    """At least ``n_min`` ops, then more until the next would end past ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(sess.op(len(results)))
        if len(results) < n_min:
            continue
        if seconds is None:
            return results
        if time.perf_counter() - start + median(r.wall_s for r in results) > seconds:
            return results


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcomes(ops: list[OpResult], n: int) -> dict:
    """Seed-determined outcome values of the first ``n`` operations."""
    first = ops[:n]
    out = {"ops": n, "digest": digest([line for r in first for line in r.ledger])}
    profits = [r.profit_eur for r in first if r.profit_eur is not None]
    if profits:
        out["profit_eur"] = sum(profits)
    return out


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    tracer = NullTracer()
    with SpeedSampler() as speed:
        ctx = setup(workload, seed, workdir, tracer)
        sess = session(ctx, tracer)
        t0 = time.perf_counter()
        ops = run_ops(sess, MIN_OPS[workload], seconds)
        run_s = time.perf_counter() - t0
    setup_s = [speed.nominal_s(a, b) for a, b in ctx.setups]
    op_ms = [speed.nominal_s(r.t0, r.t1) * 1e3 for r in ops]
    raw_ms = [speed.raw_s(r.t0, r.t1) * 1e3 for r in ops]
    train = [r.train_s for r in ops if r.train_s is not None] or ctx.train_s
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "op_ms": (median(op_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    p95 = percentile(raw_ms, 95)
    info = {
        "setup_s_raw": (median(speed.raw_s(a, b) for a, b in ctx.setups), "s"),
        "op_ms_raw": (median(raw_ms), "ms"),
        "op_ms_raw_p95": (p95, "ms"),
        "ops": (len(ops), "count"),
        "ops_beyond_p95": (sum(ms > p95 for ms in raw_ms), "count"),
        "reference_ms": (median(speed.durations) * 1e3, "ms"),
        "run_s": (run_s, "s"),
        "train_s_raw": (median(train), "s"),
    }
    if workload.startswith("live_"):
        info["decide_ms_p50"] = info["op_ms_raw"]
        info["decide_ms_p95"] = info["op_ms_raw_p95"]
    bench = [r.benchmark_s for r in ops if r.benchmark_s is not None]
    if bench:
        info["benchmark_s_raw"] = (median(bench), "s")
    result_outcomes = outcomes(ops, MIN_OPS[workload])
    result_outcomes.update({k: v for k, v in sess.info().items() if k in ("crps", "profits")})
    return {
        "metrics": metrics,
        "info": info,
        "attempted": sum(r.attempted for r in ops),
        "failed": sum(r.failed for r in ops),
        "problems": [p for r in ops for p in r.problems],
        "outcomes": result_outcomes,
        "samples": {"setup_s": setup_s, "op_ms": op_ms, "op_ms_raw": raw_ms, "train_s_raw": train,
                    "reference_s": speed.durations},
    }


def run_traced(workload: str, seed: int, workdir: Path) -> dict:
    """The same ops untraced and then traced, then the layer probes."""
    tracer = Tracer()
    ctx = setup(workload, seed, workdir, tracer)
    n = TRACE_OPS[workload]
    plain = run_ops(session(ctx, NullTracer()), n, None)
    traced_sess = session(ctx, tracer)
    with tracer.span("session"):
        traced = run_ops(traced_sess, n, None)
    probed = probe_missing(tracer, ctx)
    cost = span_cost()
    summary = summarize(tracer.spans, cost)
    traced_info = traced_sess.info()
    metrics = layer_metrics(summary, ctx, traced_info)
    same = digest([x for r in plain for x in r.ledger]) == digest([x for r in traced for x in r.ledger])
    problems = [p for r in plain + traced for p in r.problems]
    if not same:
        problems.append("tracing changed the decisions digest")
    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    info = {
        "run_s_untraced": (plain_s, "s"),
        "run_s_traced": (traced_s, "s"),
        "trace_overhead_s": (traced_s - plain_s, "s"),
        "spans": (len(tracer.spans), "count"),
        "span_cost_us": (cost * 1e6, "us"),
        "mirror_matches": (ctx.info["mirror_matches"], "bool"),
        "data_io.rows": (ctx.rows, "count"),
        "price_models.fit_logistic_calls": (
            summary["price_models.fit_logistic"]["calls"] // summary["beside.train_models"]["calls"],
            "count"),
    }
    for key in ("cells", "ticks_skipped"):
        if key in traced_info:
            info[f"backtest.{key}"] = (traced_info[key], "count")
    for key in ("alpha_switches", "trades_at_u_max"):
        for leg, count in traced_info.get(key, {}).items():
            info[f"strategy.{key}.{leg}"] = (count, "count")
    info.update(shares(workload, summary))
    return {
        "metrics": metrics,
        "info": info,
        "attempted": sum(r.attempted for r in plain + traced) + 1,
        "failed": sum(r.failed for r in plain + traced) + (not same),
        "problems": problems,
        "outcomes": {**outcomes(traced, n), "digests_equal": same},
        "probed": probed,
        "summary": summary,
        "spans": tracer.spans,
    }
