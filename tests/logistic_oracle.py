"""The logistic fit by gradient descent, as the package once fitted it.

``descent_logistic`` runs ``_optim.minimize_gd`` on ``logistic_loss_and_grad``
of the standardized features, from all-zero parameters, and stops at the
descent's gradient tolerance or at ``max_iter`` descent iterations. The
Newton fit of ``price_models.fit_logistic`` must reach a loss no higher than
this on the same data.
"""
import numpy as np

from imbtrader._optim import minimize_gd
from imbtrader.price_models import FeatureScaler, LogisticModel, logistic_loss_and_grad


def descent_logistic(x, y, *, l2: float = 1e-4, max_iter: int = 5000) -> LogisticModel:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    scaler = FeatureScaler.fit(x) if x.shape[1] > 0 else None
    xs = scaler.transform(x) if scaler is not None else x

    def objective(params, _, bound):
        val, grad = logistic_loss_and_grad(params[0], xs, y, l2)
        return np.array([val]), grad[None]

    result = minimize_gd(objective, np.zeros((1, x.shape[1] + 1)), max_iter=max_iter)
    return LogisticModel(bias=float(result.x[0, 0]), weights=result.x[0, 1:].copy(), scaler=scaler)


def training_loss_and_grad(model: LogisticModel, x, y, l2: float):
    """``logistic_loss_and_grad`` at the model's parameters, on its standardized features."""
    x = np.asarray(x, dtype=float)
    xs = model.scaler.transform(x) if model.scaler is not None else x
    return logistic_loss_and_grad(np.concatenate(([model.bias], model.weights)), xs, np.asarray(y, float), l2)
