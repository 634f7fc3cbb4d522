"""Benchmark forecasters: regime-switching Markov chains and linear quantiles.

All explicit benchmarks share the trained regulation-price banks and differ
only in how they predict the balancing-state probability; the implicit
linear model predicts the settlement price distribution directly from the
full feature set. A benchmark run scores every model on the same aligned
evaluation slice and emits one metric row per model.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ._fields import count
from ._optim import NEWTON_MAX_ITER, fit_quantile_lp, log_unfinished
from .data_io import FeatureLayout, MarketTick
from .dists import ForecastScores, canonical_rows, flatten_rows, score_rows
from .market_impact import is_surplus
from .pipeline import TrainedModels, check_out_of_sample, forecast_rows
from .price_models import LogisticModel, fit_logistic, quantile_levels

__all__ = [
    "fit_static_transitions",
    "chain_state_probability",
    "fit_transition_models",
    "LinearQuantileBank",
    "fit_linear_quantile_bank",
    "dynamic_feature_columns",
    "BenchmarkSuite",
    "fit_benchmark_suite",
    "BenchmarkTable",
    "run_benchmark",
    "DEFAULT_HORIZON",
]

logger = logging.getLogger(__name__)

# Gate closure sits five quarter-hours before delivery, so Markov benchmarks
# must propagate the balancing state that far.
DEFAULT_HORIZON = 5

_STATE_POS, _STATE_NEG = 0, 1


def fit_static_transitions(labels) -> np.ndarray:
    """Empirical 2x2 transition matrix over {s >= 0, s < 0}.

    Rows are row-normalized counts; a never-visited state gets a uniform
    row (logged), keeping the matrix row-stochastic.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.size < 2:
        raise ValueError("need at least 2 consecutive labels")
    states = np.where(labels, _STATE_POS, _STATE_NEG)
    counts = np.zeros((2, 2))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    matrix = np.empty((2, 2))
    for row in range(2):
        total = counts[row].sum()
        if total == 0.0:
            logger.warning("state %d never visited; using a uniform transition row", row)
            matrix[row] = 0.5
        else:
            matrix[row] = counts[row] / total
    return matrix


def chain_state_probability(matrices, start_positive: bool) -> float:
    """P(s >= 0) after stepping through the given transition matrices."""
    nu = np.array([1.0, 0.0]) if start_positive else np.array([0.0, 1.0])
    for t in matrices:
        t = np.asarray(t, dtype=float)
        if t.shape != (2, 2):
            raise ValueError("transition matrices must be 2x2")
        nu = nu @ t
    return float(nu[_STATE_POS])


def fit_transition_models(labels, features, *, max_iter: int = NEWTON_MAX_ITER):
    """Input-conditioned transitions: one logistic model per current state.

    Each model predicts P(next state is positive) from the next period's
    exogenous features.
    """
    max_iter = count("max_iter", max_iter, 0)
    labels = np.asarray(labels, dtype=bool)
    features = np.asarray(features, dtype=float)
    if labels.size != features.shape[0] or labels.size < 3:
        raise ValueError("need aligned labels and features with at least 3 rows")
    prev = labels[:-1]
    nxt = labels[1:].astype(float)
    rows = features[1:]
    models = []
    for state, mask in (("surplus", prev), ("shortage", ~prev)):
        try:
            models.append(fit_logistic(rows[mask], nxt[mask], max_iter=max_iter))
        except ValueError as err:
            raise type(err)(f"transitions from {state}: {err}") from err
    return tuple(models)


@dataclass(frozen=True)
class LinearQuantileBank:
    """Per-level affine models of the settlement price (implicit benchmark), at ``quantile_levels(n_q)``."""

    weights: np.ndarray  # (n_q, n_features), on the input's own columns
    biases: np.ndarray  # (n_q,)

    def predict_matrix(self, x) -> np.ndarray:
        """One row of n_q prices per input row; a stacked matmul gives each row the bits of its own call."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.matmul(x[:, None, :], self.weights.T)[:, 0] + self.biases


def fit_linear_quantile_bank(x, y, *, n_q: int, max_iter: int = 400) -> LinearQuantileBank:
    """Exact linear quantile regressions of ``y`` on ``x``, one per level, in one LP solver call.

    ``max_iter`` caps the interior-point iterations of each level.
    """
    max_iter = count("max_iter", max_iter, 0)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != y.size or y.size == 0:
        raise ValueError("inconsistent training shapes")
    for name, values in (("x", x), ("y", y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite {name}")
    result = fit_quantile_lp(x, y, quantile_levels(n_q), max_iter=max_iter)
    log_unfinished(logger, "bank linear", result, max_iter,
                   note=f"largest relative duality gap {result.gap.max():.1e}")
    return LinearQuantileBank(weights=result.weights, biases=result.intercepts)


def dynamic_feature_columns(layout: FeatureLayout) -> np.ndarray:
    """Columns the dynamic Markov benchmark conditions on.

    Quarter-of-day one-hot, production and load derived variables, and the
    intraday/day-ahead price difference; a layout without one of those
    blocks raises a ``ValueError`` naming the first missing one.
    """
    wanted = ("quarter_onehot", "forecast_diffs", "hourly_deviation", "price_diff")
    missing = next((name for name in wanted if name not in layout.blocks), None)
    if missing is not None:
        raise ValueError(f"the dynamic benchmark needs the feature block {missing!r}, the layout has none")
    return np.concatenate([np.arange(*layout.blocks[name]) for name in wanted])


def _linear_design(ticks: list[MarketTick]) -> np.ndarray:
    """The implicit linear benchmark's input rows ``[x, o]``: a tick's features, then its reserve-ladder prices."""
    return np.hstack([np.stack([t.x for t in ticks]), np.stack([t.o for t in ticks])])


@dataclass
class BenchmarkSuite:
    """Trained benchmark models sharing one regulation-price bank pair."""

    models: TrainedModels
    static_matrix: np.ndarray
    transition_models: tuple[LogisticModel, LogisticModel]
    linear_bank: LinearQuantileBank
    train_end: datetime


def fit_benchmark_suite(
    train_ticks: list[MarketTick],
    models: TrainedModels,
    *,
    max_iter: int = NEWTON_MAX_ITER,
) -> BenchmarkSuite:
    """Fit the state-transition and linear benchmarks on the training slice; bad inputs fail before any fit.

    ``max_iter`` caps the Newton iterations of the two transition fits; the linear bank's LP keeps its own cap.
    """
    if len(train_ticks) < 3:  # fit_transition_models' minimum, checked before the static chain is fitted
        raise ValueError(f"need at least 3 training ticks, got {len(train_ticks)}")
    max_iter = count("max_iter", max_iter, 0)
    dyn_cols = dynamic_feature_columns(models.layout)
    labels = np.array([is_surplus(t.s) for t in train_ticks])
    x = np.stack([t.x for t in train_ticks])
    y = np.array([t.settlement_price for t in train_ticks])
    static_matrix = fit_static_transitions(labels)
    transition_models = fit_transition_models(labels, x[:, dyn_cols], max_iter=max_iter)
    linear_bank = fit_linear_quantile_bank(_linear_design(train_ticks), y, n_q=models.n_q)
    return BenchmarkSuite(
        models=models,
        static_matrix=static_matrix,
        transition_models=transition_models,
        linear_bank=linear_bank,
        train_end=train_ticks[-1].timestamp,
    )


@dataclass
class BenchmarkTable:
    """Per-model forecast metrics over one aligned evaluation slice."""

    rows: list[tuple[str, ForecastScores]]
    n_scored: int

    def to_csv_string(self) -> str:
        lines = ["model,rmse,mae,std,crps"]
        for name, scores in self.rows:
            lines.append(f"{name},{scores.rmse!r},{scores.mae!r},{scores.std!r},{scores.crps!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'model':<16}{'RMSE':>10}{'MAE':>10}{'Std':>10}{'CRPS':>10}"
        lines = [header, "-" * len(header)]
        for name, scores in self.rows:
            lines.append(
                f"{name:<16}{scores.rmse:>10.4f}{scores.mae:>10.4f}{scores.std:>10.4f}{scores.crps:>10.4f}"
            )
        return "\n".join(lines) + "\n"


def run_benchmark(suite: BenchmarkSuite, ticks: list[MarketTick]) -> BenchmarkTable:
    """Score every benchmark model on the ticks all of them can forecast: all but the first
    ``DEFAULT_HORIZON``, whose balancing state that many periods back the Markov models need. A tick at or
    before the suite's or its bundle's training end (the ``mixture`` row scores the bundle) raises ``LeakageError``."""
    check_out_of_sample(ticks, max(suite.train_end, suite.models.train_end))
    h = DEFAULT_HORIZON
    scored = ticks[h:]
    if not scored:
        raise ValueError("no evaluation ticks with full benchmark coverage")
    pi, down, up = forecast_rows(suite.models, scored)
    start_positive = [bool(is_surplus(t.s)) for t in ticks[: len(ticks) - h]]
    static = {s: chain_state_probability([suite.static_matrix] * h, s) for s in (True, False)}
    dyn_cols = dynamic_feature_columns(suite.models.layout)
    # one tick at a time: a product over all ticks would move the last bits of the probabilities
    p = np.array([[m.predict(t.x[dyn_cols]) for m in suite.transition_models] for t in ticks])
    steps = np.stack([p, 1.0 - p], axis=2)  # tick i: [[p_pos, 1 - p_pos], [p_neg, 1 - p_neg]]
    weights = {
        "mixture": pi,
        "static_rsmm": np.array([static[s] for s in start_positive]),
        # tick k + h steps from the state of tick k through the matrices of ticks k+1 .. k+h
        "dynamic_rsmm": np.array([chain_state_probability(steps[k + 1 : k + h + 1], s)
                                  for k, s in enumerate(start_positive)]),
    }
    observed = [t.settlement_price for t in scored]
    rows = [(name, score_rows(*flatten_rows(w, down, up), observed)) for name, w in weights.items()]
    prices = suite.linear_bank.predict_matrix(_linear_design(scored))
    linear = canonical_rows(prices, np.full(prices.shape, 1.0 / prices.shape[1]))
    rows.append(("linear_quantile", score_rows(*linear, observed)))
    return BenchmarkTable(rows=rows, n_scored=len(scored))
