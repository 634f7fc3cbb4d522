"""Reference CRPS for the tests: the one-row routine ``dists.crps`` and ``dists.score_rows`` ran
before both became rows of ``dists.crps_rows``.

It takes one distribution's atoms without padding, finds the breakpoints
with ``np.unique`` and ``np.searchsorted``, and sums the closed-form terms
with one 1-D ``np.sum``.
"""
import numpy as np


def crps_atoms(values: np.ndarray, masses: np.ndarray, observed: float) -> float:
    """CRPS of the atoms ``values`` (sorted ascending) with ``masses`` against ``observed``."""
    if not np.isfinite(observed):
        raise ValueError("observed price must be finite")
    pts = np.unique(np.concatenate([values, [observed]]))
    if pts.size < 2:
        return 0.0
    cdf = np.cumsum(masses)
    idx = np.searchsorted(values, pts[:-1], side="right")
    f = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], 0.0)
    h = (pts[:-1] >= observed).astype(float)
    seg = np.diff(pts)
    return float(np.sum((f - h) ** 2 * seg))


def crps(forecast, observed: float) -> float:
    """CRPS of a ``DiscretePriceDistribution``."""
    return crps_atoms(forecast.values, forecast.masses, observed)
