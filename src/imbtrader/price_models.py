"""Mixture-weight logistic model and reserve-ladder quantile price models.

The mixture weight is a logistic regression on exogenous features; to trade,
one position coefficient is added to its score. Each regulation-price
distribution comes from a bank of softmax models that price an allocation
over a fixed ladder of reserve volumes with the known ladder prices. All
fitting is deterministic and full-batch: the logistic models and the
position coefficient by Newton's method, the banks by gradient descent.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._fields import count, integer, read_field
from ._optim import NEWTON_MAX_ITER, log_unfinished, minimize_gd, minimize_newton, problem_blocks
from .dists import DiscretePriceDistribution
from .market_impact import Regime, is_surplus

__all__ = [
    "DegenerateLabelsError",
    "FeatureScaler",
    "LogisticModel",
    "clipped_sigmoid",
    "fit_logistic",
    "logistic_loss_and_grad",
    "position_loss",
    "fit_position_model",
    "augment_with_positions",
    "ReserveGrid",
    "pinball_loss",
    "quantile_loss_and_grad",
    "quantile_loss_and_grad_rows",
    "QuantileModelBank",
    "BANK_MAX_ITER",
    "fit_quantile_bank",
    "predict_regulation_distribution",
    "quantile_matrix",
]

logger = logging.getLogger(__name__)

# Probabilities are kept strictly inside (0, 1) so downstream logits stay finite.
_P_LO = 1e-300
_P_HI = float(np.nextafter(1.0, 0.0))

# The descent cap of each bank level. It binds on none: once a level's steps make negligible relative progress
# it stops, and no level of the example config or of perfbench seeds 1-3 takes more than 382 iterations.
BANK_MAX_ITER = 400

# numpy.polynomial.legendre.leggauss(8), the rule of ``position_loss``, written out: computing it costs ~1 MB of RSS
_HALF_RULE = np.array([[0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],  # nodes > 0
                       [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]])  # weights
_POSITION_NODES, _POSITION_WEIGHTS = np.hstack([_HALF_RULE[:, ::-1] * [[-1.0], [1.0]], _HALF_RULE])


class DegenerateLabelsError(ValueError):
    """Raised when classification data contains a single label."""


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clipped_sigmoid(score: np.ndarray) -> np.ndarray:
    """Probabilities of logistic scores, kept strictly inside (0, 1)."""
    return np.clip(_stable_sigmoid(score), _P_LO, _P_HI)


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


def _check_position_index(i: int | None, n_weights: int) -> None:  # the position feature, if any, is the last
    if i is not None and i != n_weights - 1:
        where = "is not the last of" if 0 <= i < n_weights else "is outside"
        raise ValueError(f"position_weight_index {i} {where} the {n_weights} weights")


@dataclass(frozen=True)
class LogisticModel:
    """Sigmoid of an affine score of the scaled features.

    ``position_weight_index`` marks the last feature as a trade position. Only perfbench's training mirror
    sets it (``fit_logistic``); no package model or bundle carries one, and it changes no prediction. It goes
    when the mirror is rewritten.
    """

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
        _check_position_index(self.position_weight_index, shape[0])

    @property
    def n_features(self) -> int:
        return self.weights.size

    def score(self, x: np.ndarray) -> np.ndarray:
        """Affine scores of a feature matrix (n, d): the scaler, then the weights and the bias."""
        x = np.asarray(x, dtype=float)
        if x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {x.shape[1]}")
        if self.scaler is not None:
            x = self.scaler.transform(x)
        return x @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Probabilities for a feature matrix (n, d) or single vector (d,)."""
        x = np.asarray(x, dtype=float)
        p = clipped_sigmoid(self.score(x[None, :] if x.ndim == 1 else x))
        return float(p[0]) if x.ndim == 1 else p


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


def _logistic_hessian(params: np.ndarray, x: np.ndarray, l2: float) -> np.ndarray:
    """Hessian of ``logistic_loss_and_grad`` in the bias and the weights: X'WX / n plus the penalty's 2 * l2.

    X is x with a leading column of ones and W holds p (1 - p) per row,
    taken as exp(-|z|) / (1 + exp(-|z|))^2 so that it stays positive where
    p rounds to 0 or 1.
    """
    z = x @ params[1:] + params[0]
    e = np.exp(-np.abs(z))
    v = e / (1.0 + e) ** 2 / z.size
    h = np.empty((params.size, params.size))
    h[0, 0] = v.sum()
    h[0, 1:] = h[1:, 0] = v @ x
    h[1:, 1:] = x.T @ (x * v[:, None])
    h[range(1, params.size), range(1, params.size)] += 2.0 * l2
    return h


def fit_logistic(
    x,
    y,
    *,
    l2: float = 1e-4,
    max_iter: int = NEWTON_MAX_ITER,
    position_weight_index: int | None = None,
) -> LogisticModel:
    """Penalized maximum-likelihood logistic fit by Newton's method; ``l2`` must be finite and >= 0.

    Minimizes ``logistic_loss_and_grad`` on the standardized features by
    ``_optim.minimize_newton``, from all-zero parameters, until the
    gradient max-norm is at most 1e-10; ``max_iter`` caps the Newton
    iterations. A fit that hits the cap or stalls logs one warning.
    ``position_weight_index`` is kept for perfbench's training mirror only (see ``LogisticModel``).
    """
    max_iter = count("max_iter", max_iter, 0)
    if not 0.0 <= l2 < math.inf:  # NaN fails too
        raise ValueError(f"l2 must be finite and at least 0, got {l2}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    _check_position_index(position_weight_index, x.shape[1])
    y = np.asarray(y, dtype=float).ravel()
    if y.size != x.shape[0]:
        raise ValueError("label length does not match feature rows")
    if y.size == 0:
        raise ValueError("training data has no rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite features")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0/1")
    if y.min() == y.max():
        raise DegenerateLabelsError("training data contains a single label")
    scaler = FeatureScaler.fit(x) if x.shape[1] > 0 else None
    xs = scaler.transform(x) if scaler is not None else x

    result = minimize_newton(
        lambda params: logistic_loss_and_grad(params, xs, y, l2),
        lambda params: _logistic_hessian(params, xs, l2),
        np.zeros(x.shape[1] + 1),
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


def _check_u_max(u_max: float) -> None:
    if not 0.0 < u_max < math.inf:  # NaN fails too
        raise ValueError(f"u_max must be positive and finite, got {u_max}")


def position_loss(c: float, eta, s, u_max: float) -> tuple[float, float, float]:
    """Mean log-loss of the labels ``is_surplus(s + u)`` at the scores ``eta + c * u`` over u ~ U[-u_max, u_max],
    and its first two derivatives in ``c``. A row's label flips once, at u = -s: each side of that point (clipped
    to the interval) is integrated by the 8-point Gauss-Legendre rule."""
    nodes, weights = _POSITION_NODES, _POSITION_WEIGHTS
    s = np.asarray(s, dtype=float)[:, None]
    flip = np.clip(-s, -u_max, u_max)  # the sides [-u_max, flip] and [flip, u_max]: midpoints, half-widths
    u = np.hstack([(flip - u_max) / 2 + (flip + u_max) / 2 * nodes, (flip + u_max) / 2 + (u_max - flip) / 2 * nodes])
    w = np.hstack([(flip + u_max) * weights, (u_max - flip) * weights]) / (4 * u_max * s.size)
    y, z = is_surplus(s + u), np.asarray(eta, dtype=float)[:, None] + c * u
    e = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - y * z + np.log1p(e)
    # e / (1 + e)^2 is p (1 - p), and stays positive where p rounds to 0 or 1
    slope, curvature = (_stable_sigmoid(z) - y) * u, e / (1.0 + e) ** 2 * u**2
    return float(np.sum(w * loss)), float(np.sum(w * slope)), float(np.sum(w * curvature))


def fit_position_model(weight_model: LogisticModel, x, s, *, u_max: float, max_iter: int = NEWTON_MAX_ITER) -> float:
    """The position coefficient c of the mixture weight sigma(score + c * u): the minimizer of ``position_loss``
    at the weight model's scores, by Newton's method from 0, without a penalty."""
    _check_u_max(u_max)
    eta = weight_model.score(x)

    def value_and_grad(c):
        value, slope, _ = position_loss(c[0], eta, s, u_max)
        return value, np.array([slope])

    result = minimize_newton(value_and_grad, lambda c: np.array([[position_loss(c[0], eta, s, u_max)[2]]]),
                             np.zeros(1), max_iter=max_iter)
    log_unfinished(logger, f"logistic fit (position coefficient, {eta.size} rows)", result, max_iter, unit="fits")
    return float(result.x[0, 0])


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
    generator. No package fit calls it: it is kept for perfbench's training
    mirror only, and goes when the mirror is rewritten.

    Returns ``(augmented_features, labels, sampled_positions)``.
    """
    _check_u_max(u_max)
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


def quantile_loss_and_grad_rows(params, z, o, y, taus, n_outputs: int, bound=None):
    """``quantile_loss_and_grad`` for a stack of parameter rows, one level each.

    ``params`` is (P, n_outputs * (n_features + 1)) and ``taus`` (P,); returns
    the losses (P,) and gradients (P, m). With ``bound`` (P,), only the rows
    whose loss is finite and at most their bound get gradients; the other
    gradient rows are NaN. Problems are evaluated in blocks of bounded size,
    ladder-major, (B, k, n): the logits are each level's (k, d) weights times
    ``z.T``, and the softmax and ladder price sum over the ladder axis. So
    every row gets the bits of its own one-row call.
    """
    n, d = z.shape
    k, kd = n_outputs, n_outputs * d
    taus = np.asarray(taus, dtype=float)
    vals = np.empty(params.shape[0])
    grads = np.full(params.shape, np.nan)
    blocks = problem_blocks(params.shape[0], n * k)
    size = min(blocks[0].stop, params.shape[0]) if blocks else 0
    z_t, o_t = np.ascontiguousarray(z.T), np.ascontiguousarray(o.T)
    # A block's two (B, k, n) buffers: the softmax, then o - yhat; and w * o, then d loss / d logits.
    soft, work = np.empty((2, size, k, n))
    for blk in blocks:
        rows = np.arange(params.shape[0])[blk]
        # Stacked matmuls give each slice the bits of its own 2-D product; einsum does not. With one
        # feature each product term is a single multiply, so the outer product has the same bits.
        if d == 1:
            w = np.multiply(params[blk, :k, None], z_t, out=soft[: rows.size])
        else:
            w = np.matmul(params[blk, :kd].reshape(-1, k, d), z_t, out=soft[: rows.size])
        w += params[blk, kd:, None]
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        yhat = np.multiply(w, o_t, out=work[: rows.size]).sum(axis=1)
        e = y - yhat
        coef = np.where(e >= 0.0, taus[blk, None], taus[blk, None] - 1.0)
        vals[blk] = np.mean(coef * e, axis=1)
        if bound is None:
            picked = np.arange(rows.size)
        else:
            picked = np.flatnonzero(np.isfinite(vals[blk]) & (vals[blk] <= bound[blk]))
        m, yhat = picked.size, yhat[picked]
        dl = np.take(w, picked, axis=0, out=work[:m], mode="clip")
        dl *= (-coef[picked] / n)[:, None]
        dl *= np.subtract(o_t, yhat[:, None], out=soft[:m])
        grads[rows[picked], :kd] = np.matmul(dl, z).reshape(-1, kd)
        grads[rows[picked], kd:] = dl.sum(axis=2)
    return vals, grads


@dataclass(frozen=True)
class QuantileModelBank:
    """Per-level softmax price models of one regime, at the levels ``quantile_levels(n_q)``."""

    regime: Regime
    taus: np.ndarray  # (n_q,)
    weights: np.ndarray  # (n_q, n_outputs, n_features)
    biases: np.ndarray  # (n_q, n_outputs)
    scaler: FeatureScaler | None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        # forecasts give every level mass 1 / n_q, which only the bin midpoints earn
        if taus.ndim != 1 or taus.size == 0 or not np.array_equal(taus, quantile_levels(taus.size)):
            raise ValueError("taus must be quantile_levels(n_q), the n_q bin midpoints of (0, 1)")
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


def quantile_levels(n_q: int) -> np.ndarray:
    """The n_q bin midpoints (i + 0.5) / n_q of (0, 1); ``n_q`` is an integer (numpy's too), at least 1."""
    n_q = read_field("n_q", integer, n_q)
    if n_q < 1:
        raise ValueError(f"n_q must be at least 1, got {n_q}")
    return (np.arange(n_q) + 0.5) / n_q


def fit_quantile_bank(
    z,
    o,
    y,
    *,
    regime: Regime,
    n_q: int,
    max_iter: int = BANK_MAX_ITER,
) -> QuantileModelBank:
    """Fit the per-level softmax models of one regime independently.

    ``z`` are the model inputs, ``o`` the per-row ladder prices, and ``y``
    the observed regulation prices of this regime. Every level starts from
    its best pure ladder level and is trained to its own pinball loss; one
    solver call fits all levels, on the calling thread. A level stops once
    its gradient max-norm is at most 1e-6 or an accepted step lowers its
    loss by at most 1e7 * eps of it, L-BFGS-B's default relative test (both
    count as converged), on a stalled line search, or after ``max_iter``
    iterations; the default cap, ``BANK_MAX_ITER``, binds on no level of the
    example config or of perfbench's fits.
    """
    max_iter = count("max_iter", max_iter, 0)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]  # single-feature input as a column
    o = np.asarray(o, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if o.ndim != 2:
        raise ValueError(f"ladder prices o must be 2-D (rows x ladder columns), got shape {o.shape}")
    if z.shape[0] != y.size or o.shape[0] != y.size:
        raise ValueError("inconsistent training shapes")
    if o.shape[1] == 0:
        raise ValueError("ladder prices o have no ladder columns")
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
    # level keeps early line-search jumps out of the wrong corner. Since
    # rho_tau(e) = tau * e - min(e, 0), a pure column's mean loss at every
    # level follows from two means of its residuals e = y - o_j.
    e = y[:, None] - o
    level_losses = taus[:, None] * e.mean(axis=0) - np.minimum(e, 0.0).mean(axis=0)
    x0 = np.zeros((n_q, n_out * d + n_out))
    x0[np.arange(n_q), n_out * d + level_losses.argmin(axis=1)] = 2.0
    result = minimize_gd(
        lambda p, idx, bound: quantile_loss_and_grad_rows(p, zs, o, y, taus[idx], n_out, bound),
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
    logits += bank.biases  # the softmax runs in place: the logits of many ticks are the largest array here
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits, out=logits)
    w /= w.sum(axis=-1, keepdims=True)
    return np.matmul(w, o[:, :, None])[..., 0]


def predict_regulation_distribution(bank: QuantileModelBank, z, o) -> DiscretePriceDistribution:
    """Equal-mass distribution over one tick's quantile prices (sorted, so reordered)."""
    prices = quantile_matrix(bank, np.reshape(z, (1, -1)), np.reshape(o, (1, -1)))[0]
    return DiscretePriceDistribution(prices, np.full(bank.n_q, 1.0 / bank.n_q))
