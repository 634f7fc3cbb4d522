"""Mixture-weight logistic model and reserve-ladder quantile price models.

The mixture weight is a logistic regression on exogenous features (plus an
optional position feature); each regulation-price distribution comes from a
bank of softmax models that allocate probability over a fixed ladder of
reserve volumes and price that allocation with the known ladder prices.
All fitting is deterministic full-batch gradient descent.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._optim import log_unfinished, minimize_gd, problem_blocks
from .dists import DiscretePriceDistribution
from .market_impact import Regime, is_surplus

__all__ = [
    "DegenerateLabelsError",
    "FeatureScaler",
    "LogisticModel",
    "fit_logistic",
    "logistic_loss_and_grad",
    "augment_with_positions",
    "ReserveGrid",
    "pinball_loss",
    "quantile_loss_and_grad",
    "quantile_loss_and_grad_rows",
    "QuantileModelBank",
    "fit_quantile_bank",
    "predict_regulation_distribution",
    "quantile_matrix",
]

logger = logging.getLogger(__name__)

# Probabilities are kept strictly inside (0, 1) so downstream logits stay finite.
_P_LO = 1e-300
_P_HI = float(np.nextafter(1.0, 0.0))


class DegenerateLabelsError(ValueError):
    """Raised when classification data contains a single label."""


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax_rows_inplace(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over ``logits``."""
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
    np.exp(logits, out=logits)
    return np.divide(logits, logits.sum(axis=-1, keepdims=True), out=logits)


@dataclass(frozen=True)
class FeatureScaler:
    """Per-column standardization frozen at fit time."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        bad = np.flatnonzero(~(np.asarray(self.scale) > 0.0))
        if bad.size:
            raise ValueError(f"scale entries must be > 0, entry {bad[0]} is {float(self.scale[bad[0]])!r}")

    @classmethod
    def fit(cls, x: np.ndarray) -> "FeatureScaler":
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)  # constant columns pass through
        return cls(mean=mean, scale=scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale


@dataclass(frozen=True)
class LogisticModel:
    """Sigmoid of an affine score; optionally tracks a trade-position feature."""

    bias: float
    weights: np.ndarray
    scaler: FeatureScaler | None = None
    position_weight_index: int | None = None

    def __post_init__(self):
        shape = np.shape(self.weights)
        if len(shape) != 1:
            raise ValueError(f"weights must be 1-D, got shape {shape}")
        if self.scaler is not None:
            widths = {np.shape(self.scaler.mean), np.shape(self.scaler.scale)}
            if widths != {shape}:
                raise ValueError(f"scaler widths {sorted(widths)} do not match the model's {shape[0]} weights")
        i = self.position_weight_index
        if i is not None and not 0 <= i < shape[0]:
            raise ValueError(f"position_weight_index {i} is outside the {shape[0]} weights")

    @property
    def n_features(self) -> int:
        return self.weights.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Probabilities for a feature matrix (n, d) or single vector (d,).

        With a position feature the score is the score of the other
        features plus the position term, the arithmetic of
        ``predict_positions``, so one vector gets the same bits either way.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        mat = x[None, :] if single else x
        if mat.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {mat.shape[1]}")
        i = self.position_weight_index
        if i is None:
            if self.scaler is not None:
                mat = self.scaler.transform(mat)
            score = mat @ self.weights + self.bias
        else:
            score = self._position_scores(np.delete(mat, i, axis=1), mat[:, i])
        p = np.clip(_stable_sigmoid(score), _P_LO, _P_HI)
        return float(p[0]) if single else p

    def predict_positions(self, x, shifts) -> np.ndarray:
        """Probabilities of one exogenous vector at each position-feature value.

        ``x`` holds every feature but the position one; the score of ``x``
        is computed once and the position term is added elementwise.
        """
        if self.position_weight_index is None:
            raise ValueError("model was fitted without a position feature")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features - 1,):
            raise ValueError(f"expected {self.n_features - 1} features besides the position, got {x.size}")
        score = self._position_scores(x[None, :], np.asarray(shifts, dtype=float))
        return np.clip(_stable_sigmoid(score), _P_LO, _P_HI)

    def _position_scores(self, rest: np.ndarray, position: np.ndarray) -> np.ndarray:
        i = self.position_weight_index
        others = np.arange(self.n_features) != i  # one mask costs a third of three np.delete calls
        if self.scaler is not None:
            rest = (rest - self.scaler.mean[others]) / self.scaler.scale[others]
            position = (position - self.scaler.mean[i]) / self.scaler.scale[i]
        return (rest @ self.weights[others] + self.bias) + position * self.weights[i]


def logistic_loss_and_grad(params: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean negative log-likelihood plus an L2 penalty on the weights.

    ``params[0]`` is the bias (unpenalized); the rest are feature weights.
    Returns (value, gradient) with the gradient computed analytically.
    """
    b, w = params[0], params[1:]
    z = x @ w + b
    val = float(np.mean(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))))
    val += l2 * float(w @ w)
    r = (_stable_sigmoid(z) - y) / y.size
    grad = np.concatenate(([r.sum()], x.T @ r + 2.0 * l2 * w))
    return val, grad


def fit_logistic(
    x,
    y,
    *,
    l2: float = 1e-4,
    max_iter: int = 5000,
    position_weight_index: int | None = None,
) -> LogisticModel:
    """Maximum-likelihood logistic fit by gradient descent with line search; ``l2`` must be finite and >= 0."""
    if not 0.0 <= l2 < math.inf:  # NaN fails too
        raise ValueError(f"l2 must be finite and at least 0, got {l2}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != x.shape[0]:
        raise ValueError("label length does not match feature rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite features")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if y.min() == y.max():
        raise DegenerateLabelsError("training data contains a single label")
    scaler = FeatureScaler.fit(x) if x.shape[1] > 0 else None
    xs = scaler.transform(x) if scaler is not None else x

    def objective(params, _):
        val, grad = logistic_loss_and_grad(params[0], xs, y, l2)
        return np.array([val]), grad[None]

    result = minimize_gd(
        objective,
        np.zeros((1, x.shape[1] + 1)),
        max_iter=max_iter,
    )
    log_unfinished(logger, f"logistic fit ({y.size} rows x {x.shape[1]} features)", result, max_iter,
                   unit="fits")
    return LogisticModel(
        bias=float(result.x[0, 0]),
        weights=result.x[0, 1:].copy(),
        scaler=scaler,
        position_weight_index=position_weight_index,
    )


def augment_with_positions(
    x,
    imbalance,
    u_max: float,
    beta: float,
    rng,
    *,
    u_min: float = 0.0,
):
    """Append an artificial trade-position feature and relabel accordingly.

    Positions are sampled uniformly from [u_min, u_max]; the appended
    feature is the induced imbalance shift ``beta * u`` and the new label
    is ``is_surplus(s + beta * u)``, i.e. whether the system is still in
    surplus after absorbing the trade. Deterministic for a fixed seed or
    generator.

    Returns ``(augmented_features, labels, sampled_positions)``.
    """
    if not 0.0 < u_max < math.inf:  # NaN fails too
        raise ValueError(f"u_max must be positive and finite, got {u_max}")
    if not -math.inf < u_min <= u_max:  # NaN fails too
        raise ValueError(f"u_min must be finite and not exceed u_max, got {u_min}")
    x = np.asarray(x, dtype=float)
    s = np.asarray(imbalance, dtype=float).ravel()
    if x.ndim != 2 or x.shape[0] != s.size:
        raise ValueError("feature matrix and imbalance sequence must align")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    u = gen.uniform(u_min, u_max, s.size)
    shift = beta * u
    labels = is_surplus(s + shift)
    return np.hstack([x, shift[:, None]]), labels, u


@dataclass(frozen=True)
class ReserveGrid:
    """Fixed ladders of reserve volumes (MW), automatic then manual; the defaults are the example market's."""

    afrr_volumes: tuple[float, ...] = (1.0, 50.0, 100.0, 150.0, 200.0)
    mfrr_volumes: tuple[float, ...] = (1.0, 100.0, 200.0, 300.0, 500.0, 700.0)

    def __post_init__(self):
        for name, vols in (("afrr_volumes", self.afrr_volumes), ("mfrr_volumes", self.mfrr_volumes)):
            arr = tuple(float(v) for v in vols)
            if len(arr) == 0:
                raise ValueError(f"{name} must be non-empty")
            if not all(math.isfinite(v) for v in arr):
                raise ValueError(f"{name} must be finite, got {arr}")
            if arr[0] <= 0.0 or any(b <= a for a, b in zip(arr, arr[1:])):
                raise ValueError(f"{name} must be strictly increasing and positive")
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return len(self.afrr_volumes) + len(self.mfrr_volumes)

    def column_labels(self) -> list[str]:
        """Reserve-price column names, aFRR ladder first (matches price vectors)."""
        return [f"afrr_{v:g}" for v in self.afrr_volumes] + [
            f"mfrr_{v:g}" for v in self.mfrr_volumes
        ]


def pinball_loss(tau: float, e):
    """Quantile loss: tau * e above the quantile, (tau - 1) * e below."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau {tau} outside [0, 1]")
    e_arr = np.asarray(e, dtype=float)
    out = np.where(e_arr >= 0.0, tau * e_arr, (tau - 1.0) * e_arr)
    return float(out) if np.isscalar(e) else out


def quantile_loss_and_grad(
    params: np.ndarray,
    z: np.ndarray,
    o: np.ndarray,
    y: np.ndarray,
    tau: float,
    n_outputs: int,
):
    """Mean pinball loss of the softmax-allocated ladder price.

    ``params`` flattens the (n_outputs, n_features) weight matrix followed
    by the biases. Uses the subgradient tau at a zero residual.
    """
    val, grad = quantile_loss_and_grad_rows(np.reshape(params, (1, -1)), z, o, y, [tau], n_outputs)
    return float(val[0]), grad[0]


def quantile_loss_and_grad_rows(params, z, o, y, taus, n_outputs: int):
    """``quantile_loss_and_grad`` for a stack of parameter rows, one level each.

    ``params`` is (P, n_outputs * (n_features + 1)) and ``taus`` (P,); returns
    the losses (P,) and gradients (P, m). Problems are evaluated in blocks of
    bounded size, and every row gets the bits of its own one-row call.
    """
    n, d = z.shape
    kd = n_outputs * d
    taus = np.asarray(taus, dtype=float)
    vals = np.empty(params.shape[0])
    grads = np.empty(params.shape)
    for blk in problem_blocks(params.shape[0], n * n_outputs):
        w_mat = params[blk, :kd].reshape(-1, n_outputs, d)
        # Stacked matmuls give each slice the bits of its own 2-D product; einsum does not.
        weights = np.matmul(z, w_mat.transpose(0, 2, 1))
        weights += params[blk, None, kd:]
        _softmax_rows_inplace(weights)
        scratch = np.multiply(weights, o)
        yhat = scratch.sum(axis=2)
        e = y - yhat
        coef = np.where(e >= 0.0, taus[blk, None], taus[blk, None] - 1.0)
        vals[blk] = np.mean(coef * e, axis=1)
        np.subtract(o, yhat[:, :, None], out=scratch)
        weights *= (-coef / n)[:, :, None]
        weights *= scratch  # d loss / d logits
        grads[blk, :kd] = np.matmul(weights.transpose(0, 2, 1), z).reshape(-1, kd)
        grads[blk, kd:] = weights.sum(axis=1)
    return vals, grads


@dataclass(frozen=True)
class QuantileModelBank:
    """Per-level softmax price models of one regime; levels are even inside (0, 1)."""

    regime: Regime
    taus: np.ndarray  # (n_q,)
    weights: np.ndarray  # (n_q, n_outputs, n_features)
    biases: np.ndarray  # (n_q, n_outputs)
    scaler: FeatureScaler | None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        if taus.ndim != 1 or taus.size < 1 or np.any(taus <= 0.0) or np.any(taus >= 1.0):
            raise ValueError("taus must be a non-empty 1-D array strictly inside (0, 1)")
        steps = np.diff(taus)
        if np.any(steps <= 0.0):
            raise ValueError("taus must be strictly increasing")
        if steps.size and np.any(np.abs(steps - steps[0]) > 1e-9 * max(steps[0], 1e-30)):
            raise ValueError("taus must be evenly spaced")
        w_shape, b_shape = np.shape(self.weights), np.shape(self.biases)
        if len(w_shape) != 3 or w_shape[:2] != b_shape or b_shape[0] != taus.size:
            raise ValueError(f"weights {w_shape}, biases {b_shape}: need (n_q, k, d), (n_q, k), n_q={taus.size}")
        if self.scaler is not None:
            widths = {np.shape(self.scaler.mean), np.shape(self.scaler.scale)}
            if widths != {(w_shape[2],)}:
                raise ValueError(f"scaler widths {sorted(widths)} do not match the bank's {w_shape[2]} features")

    @property
    def n_q(self) -> int:
        return self.taus.size

    @property
    def n_outputs(self) -> int:
        return self.biases.shape[1]


def _ladder_level_losses(residuals: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Mean pinball loss (n_q, k) of each pure ladder level, given residuals (n, k)."""
    out = np.empty((taus.size, residuals.shape[1]))
    for blk in problem_blocks(taus.size, residuals.size):
        t = taus[blk, None, None]
        out[blk] = np.mean(np.where(residuals >= 0.0, t, t - 1.0) * residuals, axis=1)
    return out


def quantile_levels(n_q: int) -> np.ndarray:
    """n_q evenly spaced levels placed at bin midpoints of (0, 1)."""
    if n_q < 2:
        raise ValueError(f"n_q must be at least 2, got {n_q}")
    return (np.arange(n_q) + 0.5) / n_q


def fit_quantile_bank(
    z,
    o,
    y,
    *,
    regime: Regime,
    n_q: int,
    max_iter: int = 400,
) -> QuantileModelBank:
    """Fit the per-level softmax models of one regime independently.

    ``z`` are the model inputs, ``o`` the per-row ladder prices, and ``y``
    the observed regulation prices of this regime. Every level starts from
    its best pure ladder level and is trained to its own pinball loss; one
    solver call fits all levels.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]  # single-feature input as a column
    o = np.asarray(o, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if z.shape[0] != y.size or o.shape != (y.size, o.shape[1]):
        raise ValueError("inconsistent training shapes")
    if y.size == 0:
        raise ValueError(f"no training rows for regime {regime.value}")
    for name, values in (("z", z), ("o", o), ("y", y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite {name}")
    taus = quantile_levels(n_q)
    n_out, d = o.shape[1], z.shape[1]
    scaler = FeatureScaler.fit(z)
    zs = scaler.transform(z)
    # The softmax pullback of the pinball loss is non-convex with flat
    # one-hot corners; warm-starting each level at its best pure ladder
    # level keeps early line-search jumps out of the wrong corner.
    x0 = np.zeros((n_q, n_out * d + n_out))
    x0[np.arange(n_q), n_out * d + _ladder_level_losses(y[:, None] - o, taus).argmin(axis=1)] = 2.0
    result = minimize_gd(
        lambda p, idx: quantile_loss_and_grad_rows(p, zs, o, y, taus[idx], n_out),
        x0,
        max_iter=max_iter,
    )
    log_unfinished(logger, f"bank {regime.value}", result, max_iter)
    weights = result.x[:, : n_out * d].reshape(n_q, n_out, d).copy()
    biases = result.x[:, n_out * d :].copy()
    return QuantileModelBank(regime=regime, taus=taus, weights=weights, biases=biases, scaler=scaler)


def quantile_matrix(bank: QuantileModelBank, z, o) -> np.ndarray:
    """Batched quantile predictions, one row of n_q prices per input row."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    o = np.atleast_2d(np.asarray(o, dtype=float))
    if z.shape[1] != bank.weights.shape[2]:
        raise ValueError(f"expected {bank.weights.shape[2]} features, got {z.shape[1]}")
    if o.shape[1] != bank.n_outputs:
        raise ValueError(f"expected {bank.n_outputs} ladder prices, got {o.shape[1]}")
    zs = bank.scaler.transform(z) if bank.scaler is not None else z
    # Stacked matmuls match one tick's ``weights @ zs`` and ``w @ o`` bit for bit; einsum does not.
    logits = np.matmul(bank.weights, zs[:, None, :, None])[..., 0]
    logits += bank.biases  # in place: the logits of many ticks are the largest array here
    w = _softmax_rows_inplace(logits)
    return np.matmul(w, o[:, :, None])[..., 0]


def predict_regulation_distribution(bank: QuantileModelBank, z, o) -> DiscretePriceDistribution:
    """Equal-mass distribution over one tick's quantile prices (sorted, so reordered)."""
    prices = quantile_matrix(bank, np.reshape(z, (1, -1)), np.reshape(o, (1, -1)))[0]
    return DiscretePriceDistribution(prices, np.full(bank.n_q, 1.0 / bank.n_q))
