"""Oracles of the position coefficient: its expected augmented log-loss by the midpoint rule, and the
mixture weight it gives by the arithmetic of a weight model extended by one position feature.

``midpoint_position_loss`` averages each row's log-loss of the label
``is_surplus(s + u)`` at the score ``eta + c * u`` over u ~ U[-u_max, u_max]
with ``n`` midpoints on each side of the row's flip point u = -s (clipped to
the interval), one row at a time. ``price_models.position_loss`` must match it.
``appended_position_pi`` is the extended model's scoring, which
``pipeline.PositionForecast.regime_rows`` must match bit for bit.
"""
import numpy as np

from imbtrader.market_impact import is_surplus


def midpoint_position_loss(c: float, eta, s, u_max: float, n: int = 20_000) -> float:
    total = 0.0
    for eta_i, s_i in zip(np.asarray(eta, dtype=float), np.asarray(s, dtype=float)):
        flip = min(max(-s_i, -u_max), u_max)
        for lo, hi in ((-u_max, flip), (flip, u_max)):
            if hi > lo:
                u = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
                z = eta_i + c * u
                loss = np.logaddexp(0.0, z) - is_surplus(s_i + u) * z
                total += loss.mean() * (hi - lo) / (2 * u_max)
    return total / np.size(s)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def appended_position_pi(weight_model, c: float, x, shifts) -> np.ndarray:
    """The mixture weight of one feature vector ``x`` at each position shift ``beta * u``, by the arithmetic of a
    weight model extended by one position feature: its weights with ``c`` appended, its scaler (if any) with
    mean 0 and scale 1 appended, then the scaled score of the other features plus the scaled position times
    ``c``, and the sigmoid clipped strictly inside (0, 1)."""
    weights = np.append(weight_model.weights, c)
    rest, position = np.asarray(x, dtype=float)[None, :], np.asarray(shifts, dtype=float)
    if weight_model.scaler is not None:
        mean = np.append(weight_model.scaler.mean, 0.0)
        scale = np.append(weight_model.scaler.scale, 1.0)
        rest = (rest - mean[:-1]) / scale[:-1]
        position = (position - mean[-1]) / scale[-1]
    score = (rest @ weights[:-1] + weight_model.bias) + position * weights[-1]
    return np.clip(_sigmoid(score), 1e-300, np.nextafter(1.0, 0.0))
