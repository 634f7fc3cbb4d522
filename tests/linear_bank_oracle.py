"""The linear quantile bank fitted by gradient descent, as the package once fitted it.

``descent_linear_quantile_bank`` runs every level through
``_optim.minimize_gd`` on its mean pinball loss, from the unconditional
quantile, and stops at ``max_iter`` descent iterations; the loss and its
analytic (sub)gradient are evaluated for a stack of levels at once. The
descent runs on standardized columns, and its models are returned on the
columns of x. The exact LP fit of ``benchmarks.fit_linear_quantile_bank``
must reach a training loss no higher than this at every level.
"""
import numpy as np

from imbtrader._optim import minimize_gd, problem_blocks
from imbtrader.benchmarks import LinearQuantileBank
from imbtrader.price_models import FeatureScaler, quantile_levels


def linear_pinball_loss_and_grad(params: np.ndarray, x: np.ndarray, y: np.ndarray, tau: float):
    """Mean pinball loss of an affine predictor (weights, then the bias); analytic gradient."""
    val, grad = linear_pinball_loss_and_grad_rows(np.reshape(params, (1, -1)), x, y, [tau])
    return float(val[0]), grad[0]


def linear_pinball_loss_and_grad_rows(params: np.ndarray, x: np.ndarray, y: np.ndarray, taus):
    """``linear_pinball_loss_and_grad`` for a stack of parameter rows (P, m), one level each.

    Problems are evaluated in blocks of bounded size; stacked matmuls give
    every row the bits of its own one-row call.
    """
    taus = np.asarray(taus, dtype=float)
    vals = np.empty(params.shape[0])
    grads = np.empty(params.shape)
    for blk in problem_blocks(params.shape[0], y.size):
        e = np.matmul(x, params[blk, :-1, None])[..., 0]
        e += params[blk, -1:]
        np.subtract(y, e, out=e)
        coef = np.where(e >= 0.0, taus[blk, None], taus[blk, None] - 1.0)
        vals[blk] = np.mean(np.multiply(coef, e, out=e), axis=1)
        d = np.divide(np.negative(coef, out=coef), y.size, out=coef)
        grads[blk, :-1] = np.matmul(x.T, d[:, :, None])[..., 0]
        grads[blk, -1] = d.sum(axis=1)
    return vals, grads


def descent_linear_quantile_bank(x, y, *, n_q: int, max_iter: int = 400) -> LinearQuantileBank:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    taus = quantile_levels(n_q)
    scaler = FeatureScaler.fit(x)
    xs = scaler.transform(x)
    x0 = np.zeros((n_q, x.shape[1] + 1))
    x0[:, -1] = np.quantile(y, taus)  # start at the unconditional quantile
    result = minimize_gd(
        lambda p, idx, bound: linear_pinball_loss_and_grad_rows(p, xs, y, taus[idx]),
        x0,
        max_iter=max_iter,
    )
    return LinearQuantileBank(*on_own_columns(result.x[:, :-1], result.x[:, -1], scaler))


def on_own_columns(weights: np.ndarray, biases: np.ndarray, scaler: FeatureScaler):
    """Affine models fitted on ``scaler``'s standardized columns, moved to the columns of x itself."""
    weights = weights / scaler.scale
    return weights, biases - weights @ scaler.mean
