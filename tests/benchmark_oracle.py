"""Reference scoring and benchmark forecasts for the tests: one distribution object per tick.

``score_batch`` scores ``DiscretePriceDistribution`` objects one at a time,
with the standard deviation and quantiles those objects computed themselves
before ``dists.score_rows`` took canonical rows, and the one-row CRPS of
``crps_oracle``. ``benchmark_rows`` is the
benchmark runner as it was: per tick, both regime distributions, one
flattened mixture per explicit model with its transition matrices
recomputed for every window, and the linear bank's distribution from a
one-row product, all scored by ``score_batch``.
"""
import numpy as np

from crps_oracle import crps
from imbtrader.benchmarks import DEFAULT_HORIZON, chain_state_probability, dynamic_feature_columns
from imbtrader.dists import DiscretePriceDistribution, ForecastScores, MixtureForecast, flatten
from imbtrader.market_impact import is_surplus
from imbtrader.price_models import predict_regulation_distribution


def std(d: DiscretePriceDistribution) -> float:
    mu = d.mean()
    var = float((d.values * d.values) @ d.masses) - mu * mu
    return float(np.sqrt(max(var, 0.0)))


def quantile(d: DiscretePriceDistribution, tau: float) -> float:
    """Left-continuous CDF inverse: smallest value with CDF >= tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"quantile level {tau} outside [0, 1]")
    cdf = np.cumsum(d.masses)
    idx = int(np.searchsorted(cdf, tau, side="left"))
    idx = min(idx, d.values.size - 1)  # guard float cumsum < 1 at tau=1
    return float(d.values[idx])


def score_batch(forecasts, observations) -> ForecastScores:
    """RMSE of the means, MAE of the medians, mean standard deviation and mean CRPS."""
    if len(forecasts) != len(observations):
        raise ValueError("forecasts and observations must be equal length")
    if len(forecasts) == 0:
        raise ValueError("empty batch")
    obs = np.asarray(observations, dtype=float)
    means = np.array([d.mean() for d in forecasts])
    medians = np.array([quantile(d, 0.5) for d in forecasts])
    stds = np.array([std(d) for d in forecasts])
    scores = np.array([crps(d, y) for d, y in zip(forecasts, obs)])
    return ForecastScores(
        rmse=float(np.sqrt(np.mean((means - obs) ** 2))),
        mae=float(np.mean(np.abs(medians - obs))),
        std=float(np.mean(stds)),
        crps=float(np.mean(scores)),
    )


def markov_state_probability(matrix, start_positive: bool, horizon: int = 5) -> float:
    """Static-chain state probability after ``horizon`` quarter-hours."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return chain_state_probability([matrix] * horizon, start_positive)


def dynamic_transition_matrix(models, features) -> np.ndarray:
    """Per-step transition matrix from the two conditional logistic models."""
    p_pos = float(models[0].predict(np.asarray(features, dtype=float)))
    p_neg = float(models[1].predict(np.asarray(features, dtype=float)))
    return np.array([[p_pos, 1.0 - p_pos], [p_neg, 1.0 - p_neg]])


def linear_distribution(bank, x) -> DiscretePriceDistribution:
    """Equal-mass distribution over the linear bank's prices for one feature row."""
    values = (np.atleast_2d(np.asarray(x, dtype=float)) @ bank.weights.T + bank.biases)[0]
    return DiscretePriceDistribution(values, np.full(values.size, 1.0 / values.size))


def benchmark_rows(suite, ticks) -> list:
    """``run_benchmark(suite, ticks).rows``, one distribution object per model and tick."""
    dyn_cols = dynamic_feature_columns(suite.models.layout)
    h = DEFAULT_HORIZON
    out = {"mixture": [], "static_rsmm": [], "dynamic_rsmm": [], "linear_quantile": []}
    for i in range(h, len(ticks)):
        tick = ticks[i]
        down = predict_regulation_distribution(suite.models.bank_mdp, tick.z, tick.o)
        up = predict_regulation_distribution(suite.models.bank_mip, tick.z, tick.o)
        start_positive = is_surplus(ticks[i - h].s)
        steps = [dynamic_transition_matrix(suite.transition_models, ticks[j].x[dyn_cols])
                 for j in range(i - h + 1, i + 1)]
        for name, pi in (
            ("mixture", float(suite.models.weight_model.predict(tick.x))),
            ("static_rsmm", chain_state_probability([suite.static_matrix] * h, start_positive)),
            ("dynamic_rsmm", chain_state_probability(steps, start_positive)),
        ):
            out[name].append(flatten(MixtureForecast(pi, down, up)))
        out["linear_quantile"].append(linear_distribution(suite.linear_bank, np.concatenate([tick.x, tick.o])))
    observed = [t.settlement_price for t in ticks[h:]]
    return [(name, score_batch(series, observed)) for name, series in out.items()]
