"""Training orchestration: fit every model of the trading loop and bundle them.

The bundle is what backtests pin: the logistic weight model, the position
coefficient that trades add to its score (one number), the two quantile
banks (each regime's by its slot, with the one level count both share), the
reserve grid, estimated sensitivities, the feature layout and the training
date range for leakage checks. The bundle's file format, a versioned JSON
document, is one field table that states each fact once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from ._fields import (
    array_of, count, floats, integer, number, object_of, optional, read_field, read_fields, string, timestamp,
)
from ._optim import NEWTON_MAX_ITER
from .data_io import FeatureLayout, MarketTick, reference_layout
from .dists import DiscretePriceDistribution, MixtureForecast, canonical_rows, row_atoms
from .market_impact import ImpactParams, Regime, adjust_price, estimate_sensitivities, is_surplus
from .price_models import (
    BANK_MAX_ITER,
    FeatureScaler,
    LogisticModel,
    QuantileModelBank,
    ReserveGrid,
    _check_u_max,
    clipped_sigmoid,
    fit_logistic,
    fit_position_model,
    fit_quantile_bank,
    quantile_matrix,
)

__all__ = ["LeakageError", "check_out_of_sample", "TrainedModels", "train_models", "attach_z", "forecast_rows",
           "PositionForecast", "make_forecaster"]

FORMAT_VERSION = 3


class LeakageError(ValueError):
    """A scored or traded tick at or before the end of a training range."""


def check_out_of_sample(ticks, train_end: datetime) -> None:
    """Raise ``LeakageError`` naming the first tick, in list order, at or before ``train_end``; every tick
    is looked at, since a list need not be sorted."""
    for t in ticks:
        if t.timestamp <= train_end:
            raise LeakageError(f"tick {t.timestamp.isoformat()} is not after the training end {train_end.isoformat()}")


@dataclass
class TrainedModels:
    """Everything a backtest needs, pinned to its training range; checked when built."""

    weight_model: LogisticModel
    position_coef: float
    bank_mdp: QuantileModelBank
    bank_mip: QuantileModelBank
    grid: ReserveGrid
    impact: ImpactParams
    layout: FeatureLayout
    kfold: int
    train_start: datetime
    train_end: datetime

    def __post_init__(self):
        self.kfold = read_field("kfold", integer, self.kfold)  # a Python int, which the bundle's JSON holds
        self.position_coef = read_field("position_coef", number, self.position_coef)  # a finite Python float
        n, got = len(self.layout.names), self.weight_model.n_features
        if got != n:
            raise ValueError(f"weight_model has {got} features for the layout's {n} names")
        for name in ("bank_mdp", "bank_mip"):
            bank = getattr(self, name)
            if bank.weights.shape[2] != 1:
                raise ValueError(f"{name} takes {bank.weights.shape[2]} inputs, expected 1 (z)")
            if bank.n_outputs != self.grid.size:
                raise ValueError(f"{name} outputs must match the grid's {self.grid.size} reserve prices")
        if self.bank_mdp.n_q != self.bank_mip.n_q:
            raise ValueError(f"bank_mdp has {self.bank_mdp.n_q} quantile levels, bank_mip {self.bank_mip.n_q}")
        if self.train_start > self.train_end:
            start, end = self.train_start.isoformat(), self.train_end.isoformat()
            raise ValueError(f"train_start {start} is after train_end {end}")

    @property
    def n_q(self) -> int:
        """The level count of both banks."""
        return self.bank_mdp.n_q

    def impact_with_beta(self, beta: float) -> ImpactParams:
        return replace(self.impact, beta=beta)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(_HEADER | _to_json(self)))

    @classmethod
    def load(cls, path) -> "TrainedModels":
        """Read a bundle written by ``save``; a bad field raises a ValueError naming its dotted path."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
            if isinstance(doc, dict) and "format_version" in doc:  # first: another version has other fields
                read_field("format_version", _format_version, doc["format_version"])
            return _reader(cls)(doc)
        except ValueError as e:  # a JSONDecodeError too
            raise ValueError(f"{path.name}: {e}") from None


_HEADER = {"format_version": FORMAT_VERSION, "package": "imbtrader"}


def _format_version(value) -> int:
    if integer(value) != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {value!r}")
    return value


def _block_bounds(value) -> tuple[int, int]:
    bounds = tuple(array_of(integer)(value))
    if len(bounds) != 2:
        raise ValueError(f"expected [start, end], got {len(bounds)} numbers")
    return bounds


def _reader(kind):
    """A reader of one bundle type: its fields through its table, then its constructor, which checks them."""

    def read(d):
        fields = read_fields(d, _FORMAT[kind])
        return kind(**{key: value for key, value in fields.items() if key not in _HEADER})

    return read


def _to_json(value):
    """The JSON value of one bundle value: a bundle type through its table, every other kind by one rule."""
    if type(value) in _FORMAT:
        return {key: _to_json(getattr(value, key)) for key in _FORMAT[type(value)] if key not in _HEADER}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, tuple):
        return list(value)  # the format's tuples hold numbers or strings
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    return value  # None, an int, a float or a string


# The models.json format: the fields of each bundle type and their readers, in the order they are written
# and checked, after the two ``_HEADER`` keys that open the document (the version first). ``load`` reads a
# document through these tables and ``save`` writes one by walking them, so a field is added in one place.
_FORMAT = {
    TrainedModels: {
        "format_version": _format_version,
        "package": string,
        "train_start": timestamp,
        "train_end": timestamp,
        "kfold": integer,
        "grid": _reader(ReserveGrid),
        "impact": _reader(ImpactParams),
        "layout": _reader(FeatureLayout),
        "weight_model": _reader(LogisticModel),
        "position_coef": number,
        "bank_mdp": _reader(QuantileModelBank),
        "bank_mip": _reader(QuantileModelBank),
    },
    ReserveGrid: {"afrr_volumes": array_of(number), "mfrr_volumes": array_of(number)},
    ImpactParams: {"beta": number, "k_mdp": number, "k_mip": number},
    FeatureLayout: {"names": lambda v: tuple(array_of(string)(v)), "blocks": object_of(_block_bounds)},
    LogisticModel: {"bias": number, "weights": floats, "scaler": optional(_reader(FeatureScaler))},
    FeatureScaler: {"mean": floats, "scale": floats},
    QuantileModelBank: {"weights": floats, "biases": floats, "scaler": optional(_reader(FeatureScaler))},
}


def _crossvalidated_weight(x: np.ndarray, labels: np.ndarray, kfold: int, l2: float, max_iter: int) -> np.ndarray:
    """Out-of-fold mixture-weight predictions (contiguous time-ordered folds).

    Keeps the price-model input free of the weight model's in-sample fit.
    """
    n = x.shape[0]
    z = np.empty(n)
    for fold in np.array_split(np.arange(n), kfold):
        rest = np.setdiff1d(np.arange(n), fold, assume_unique=True)
        model = fit_logistic(x[rest], labels[rest], l2=l2, max_iter=max_iter)
        z[fold] = model.predict(x[fold])
    return z


def train_models(
    ticks: list[MarketTick],
    *,
    grid: ReserveGrid,
    n_q: int = 100,
    kfold: int = 5,
    l2: float = 1e-4,
    u_max: float = 5.0,
    seed: int = 0,
    logistic_max_iter: int = NEWTON_MAX_ITER,
    bank_max_iter: int = BANK_MAX_ITER,
) -> TrainedModels:
    """Fit the full model set on feature-complete training ticks (``build_features`` rows, which the bundle's
    ``reference_layout`` names). Ticks of another width, a count (``kfold``, ``n_q``, an iteration cap or the
    seed) that is not an integer, ``kfold`` below 2, a negative iteration cap or seed, ``n_q`` below 2, a
    ``u_max`` that is not positive and finite and (by ``fit_logistic``'s rule) a negative or non-finite ``l2``
    are rejected by name before any solver runs.

    The position coefficient ``position_coef`` is one number added to the weight model's score per MW of the
    induced imbalance shift (full reactivity), fitted over positions uniform on ``[-u_max, u_max]``
    (``fit_position_model``). The keys of the CLI config's ``model`` section are the keyword arguments ``n_q``
    and ``kfold``; ``l2`` and the bank cap ``bank_max_iter`` are library arguments only. ``seed`` is checked
    and then unused: no fit draws from it and the bundle does not record it. It and the Newton cap
    ``logistic_max_iter`` are kept because perfbench's training mirror passes them; they go when the mirror
    is rewritten.
    """
    if not ticks:
        raise ValueError("no training ticks")
    x = np.stack([t.x for t in ticks])
    s = np.array([t.s for t in ticks])
    o = np.stack([t.o for t in ticks])
    if o.shape[1] != grid.size:
        raise ValueError(f"ticks carry {o.shape[1]} reserve prices, grid expects {grid.size}")
    layout = reference_layout()
    if x.shape[1] != len(layout.names):
        raise ValueError(f"ticks carry {x.shape[1]} features, the layout names {len(layout.names)}")
    kfold, n_q = count("kfold", kfold, 2), count("n_q", n_q, 2)
    count("seed", seed, 0)  # checked, then unused
    logistic_max_iter = count("logistic_max_iter", logistic_max_iter, 0)
    bank_max_iter = count("bank_max_iter", bank_max_iter, 0)
    _check_u_max(u_max)
    pos = is_surplus(s)
    labels = pos.astype(float)

    weight_model = fit_logistic(x, labels, l2=l2, max_iter=logistic_max_iter)
    z = _crossvalidated_weight(x, labels, kfold, l2, logistic_max_iter)
    position_coef = fit_position_model(weight_model, x, s, u_max=u_max, max_iter=logistic_max_iter)

    p_mdp, p_mip = np.array([t.p_mdp for t in ticks]), np.array([t.p_mip for t in ticks])
    bank_mdp = fit_quantile_bank(z[pos], o[pos], p_mdp[pos], regime=Regime.MDP, n_q=n_q, max_iter=bank_max_iter)
    bank_mip = fit_quantile_bank(z[~pos], o[~pos], p_mip[~pos], regime=Regime.MIP, n_q=n_q, max_iter=bank_max_iter)

    k_mdp, k_mip = estimate_sensitivities(s, np.where(pos, p_mdp, p_mip))
    impact = ImpactParams(beta=1.0, k_mdp=max(k_mdp, 0.0), k_mip=max(k_mip, 0.0))
    return TrainedModels(weight_model=weight_model, position_coef=position_coef, bank_mdp=bank_mdp,
                         bank_mip=bank_mip, grid=grid, impact=impact, layout=layout, kfold=kfold,
                         train_start=ticks[0].timestamp, train_end=ticks[-1].timestamp)


def _z(models: TrainedModels, tick: MarketTick) -> np.ndarray:
    """A tick's price-model input: its own ``z``, or else the weight model's prediction at its features."""
    return np.array([models.weight_model.predict(tick.x)]) if tick.z is None else tick.z


def attach_z(ticks: list[MarketTick], models: TrainedModels) -> list[MarketTick]:
    """Fill each missing price-model input ``z`` with the weight model's prediction."""
    return [t if t.z is not None else replace(t, z=_z(models, t)) for t in ticks]


def forecast_rows(models: TrainedModels, ticks: list[MarketTick]):
    """The weight model's mixture of every tick, ``(pi, down, up)``: each tick's ``z`` (its own, else the weight
    model's prediction) and each regime's canonical (values, masses) rows of its bank's equal-mass quantile prices."""
    z, o = np.stack([_z(models, t) for t in ticks]), np.stack([t.o for t in ticks])
    # both banks in one canonical_rows call: for one tick, a call per bank costs more than the predictions
    prices = np.vstack([quantile_matrix(bank, z, o) for bank in (models.bank_mdp, models.bank_mip)])
    values, masses = canonical_rows(prices, np.full(prices.shape, 1.0 / models.n_q))
    n = len(ticks)
    return z[:, 0], (values[:n], masses[:n]), (values[n:], masses[n:])


class PositionForecast:
    """Position-adjusted mixture forecast of one tick.

    Built from the tick's features and each regime's atoms and masses: one
    row of ``forecast_rows`` without its padding (see ``dists.row_atoms``).
    ``regime_rows`` gives the weights and regimes of a whole position vector
    as arrays, the rows that ``dists.regime_rows`` builds from forecasts: at
    each position ``u``, each regime's prices moved by the settlement's own
    impact law (``market_impact.adjust_price`` at ``u``) and the weight
    ``pi(u) = sigmoid(score + c * (beta * u))``: the weight model's score of
    the tick, taken once, plus the bundle's position coefficient ``c`` times
    the induced imbalance shift. Calling it with one ``u`` gives that row as
    a ``MixtureForecast``.
    """

    def __init__(self, models: TrainedModels, x, down, up, beta_est: float):
        self.impact = models.impact_with_beta(beta_est)
        self.down, self.up = down, up
        self._coef = models.position_coef
        self._score = models.weight_model.score(np.reshape(x, (1, -1)))

    def __call__(self, u: float) -> MixtureForecast:
        pi, *regimes = self.regime_rows([u])
        down, up = (DiscretePriceDistribution(v[0], m[0]) for v, m in regimes)
        return MixtureForecast(pi=float(pi[0]), down=down, up=up)

    def regime_rows(self, us):
        """Mixture weight and each regime's price atoms and masses, one row per position."""
        us = np.asarray(us, dtype=float)
        pi = clipped_sigmoid(self._score + self._coef * (self.impact.beta * us))
        rows = [(adjust_price(v, regime, us[:, None], self.impact), np.broadcast_to(m, (us.size, m.size)))
                for (v, m), regime in ((self.down, Regime.MDP), (self.up, Regime.MIP))]
        return (pi, *rows)


def make_forecaster(models: TrainedModels, tick: MarketTick, beta_est: float) -> PositionForecast:
    """Position-adjusted forecast of one tick, from its ``forecast_rows``.

    Positions only shift the regime distributions and move the mixture
    weight, so a decision table takes every position of the tick from
    ``PositionForecast.regime_rows`` at once instead of building a forecast
    per position. A call at one position is atom-for-atom identical to
    rebuilding the full forecast there (covered by tests).
    """
    _, down, up = forecast_rows(models, [tick])
    return PositionForecast(models, tick.x, row_atoms(*down)[0], row_atoms(*up)[0], beta_est)
