"""The expected augmented log-loss of a position coefficient, by the midpoint rule.

``midpoint_position_loss`` averages each row's log-loss of the label
``is_surplus(s + u)`` at the score ``eta + c * u`` over u ~ U[-u_max, u_max]
with ``n`` midpoints on each side of the row's flip point u = -s (clipped to
the interval), one row at a time. ``price_models.position_loss`` must match it.
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
