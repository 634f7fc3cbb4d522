"""Intraday trading toolkit for single-price balancing markets.

Forecast the settlement-price distribution with a two-regime mixture model,
adjust it for the trader's own market impact, size positions by minimizing
a coherent risk measure, re-tune the risk weight on a rolling window, and
backtest the whole loop deterministically.
"""

__version__ = "0.1.0"

from .dists import (
    DiscretePriceDistribution,
    ForecastScores,
    MixtureForecast,
    crps,
    flatten,
)
from .market_impact import (
    ImpactParams,
    Regime,
    adjust_price,
    estimate_sensitivities,
    realized_settlement_price,
)
from .risk import RiskSpec, cvar, evar
from .strategy import (
    ActionSpace,
    AlphaAdapter,
    OrderBook,
    TradeRecord,
    convexity_bound,
    fill_cost,
    newton_expected_position,
    optimal_position,
)

__all__ = [
    "__version__",
    "DiscretePriceDistribution",
    "MixtureForecast",
    "ForecastScores",
    "flatten",
    "crps",
    "Regime",
    "ImpactParams",
    "estimate_sensitivities",
    "adjust_price",
    "realized_settlement_price",
    "RiskSpec",
    "cvar",
    "evar",
    "ActionSpace",
    "OrderBook",
    "TradeRecord",
    "AlphaAdapter",
    "fill_cost",
    "optimal_position",
    "newton_expected_position",
    "convexity_bound",
]
