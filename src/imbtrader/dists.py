"""Discrete price distributions, mixture composition, and forecast scoring.

Prices are EUR/MWh throughout. Every forecast is a finite set of point
masses. A two-regime mixture is a weight and two such distributions:
``flatten`` collapses it, ``regime_rows`` stacks many into decision-table rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MASS_TOL",
    "MERGE_TOL",
    "DiscretePriceDistribution",
    "MixtureForecast",
    "ForecastScores",
    "flatten",
    "regime_rows",
    "crps",
    "score_batch",
]

# Total mass must equal one within this tolerance.
MASS_TOL = 1e-9
# Atom values closer than this (EUR/MWh) are treated as one price level;
# keeps coinciding quantile outputs from blowing up the atom count.
MERGE_TOL = 1e-12


class DiscretePriceDistribution:
    """Finite point-mass distribution over scalar prices.

    Canonical form is enforced on construction: atoms sorted ascending by
    value, near-duplicate values merged (mass summed), zero-mass atoms
    dropped, all masses nonnegative and summing to one within ``MASS_TOL``.
    Instances are immutable; the backing arrays are marked read-only.
    """

    __slots__ = ("values", "masses")

    def __init__(self, values, masses):
        v = np.asarray(values, dtype=float).ravel()
        m = np.asarray(masses, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("empty distribution")
        if v.shape != m.shape:
            raise ValueError(f"values/masses length mismatch: {v.size} vs {m.size}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite atom value")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite atom mass")
        if np.any(m < 0.0):
            raise ValueError(f"negative atom mass: {m.min()}")
        total = float(np.sum(m))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {MASS_TOL}")

        keep = m > 0.0  # zero-mass atoms drop first so they cannot shift a merge
        if not np.any(keep):
            raise ValueError("all atoms have zero mass")
        v = v[keep]
        m = m[keep]
        order = np.argsort(v, kind="stable")
        v = v[order]
        m = m[order]
        if v.size > 1 and np.any(np.diff(v) <= MERGE_TOL):
            group = np.concatenate(([0], np.cumsum(np.diff(v) > MERGE_TOL)))
            first = np.searchsorted(group, np.arange(group[-1] + 1), side="left")
            v = v[first]
            m = np.bincount(group, weights=m)
        v = np.ascontiguousarray(v)
        m = np.ascontiguousarray(m)
        v.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)

    def __setattr__(self, name, value):
        raise AttributeError("DiscretePriceDistribution is immutable")

    @property
    def n_atoms(self) -> int:
        return self.values.size

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    def mean(self) -> float:
        return float(self.values @ self.masses)

    def std(self) -> float:
        mu = self.mean()
        var = float((self.values * self.values) @ self.masses) - mu * mu
        return float(np.sqrt(max(var, 0.0)))

    def quantile(self, tau: float) -> float:
        """Left-continuous CDF inverse: smallest value with CDF >= tau."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"quantile level {tau} outside [0, 1]")
        cdf = np.cumsum(self.masses)
        idx = int(np.searchsorted(cdf, tau, side="left"))
        idx = min(idx, self.values.size - 1)  # guard float cumsum < 1 at tau=1
        return float(self.values[idx])

    def median(self) -> float:
        return self.quantile(0.5)

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(np.sum(self.masses[:idx]))

    def shift(self, delta: float) -> "DiscretePriceDistribution":
        """Translate every atom by ``delta`` EUR/MWh."""
        return DiscretePriceDistribution(self.values + delta, self.masses)

    def scale(self, factor: float) -> "DiscretePriceDistribution":
        return DiscretePriceDistribution(self.values * factor, self.masses)

    def negate(self) -> "DiscretePriceDistribution":
        return DiscretePriceDistribution(-self.values, self.masses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretePriceDistribution):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.masses, other.masses
        )

    __hash__ = None  # mutable-array semantics; not hashable

    def __repr__(self) -> str:
        if self.n_atoms <= 4:
            atoms = ", ".join(
                f"{v:g}:{m:.4g}" for v, m in zip(self.values, self.masses)
            )
            return f"DiscretePriceDistribution({atoms})"
        return (
            f"DiscretePriceDistribution(n_atoms={self.n_atoms}, "
            f"support=[{self.min_value:g}, {self.max_value:g}])"
        )


@dataclass(frozen=True)
class MixtureForecast:
    """Two-component price mixture: P(down regime) = pi.

    ``down`` is the price distribution conditional on a system surplus
    (downregulation sets the price), ``up`` the one conditional on a
    shortage. Flattening weights the components by pi and 1 - pi.
    """

    pi: float
    down: DiscretePriceDistribution
    up: DiscretePriceDistribution

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"mixture weight {self.pi} outside [0, 1]")


def flatten(forecast: MixtureForecast) -> DiscretePriceDistribution:
    """Collapse a two-component mixture into a single discrete distribution.

    Each down-atom keeps pi times its mass, each up-atom (1 - pi) times its
    mass; the result is canonicalized (sorted, merged, zero atoms dropped).
    """
    values = np.concatenate([forecast.down.values, forecast.up.values])
    masses = np.concatenate(
        [forecast.down.masses * forecast.pi, forecast.up.masses * (1.0 - forecast.pi)]
    )
    return DiscretePriceDistribution(values, masses)


def _padded(rows: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack (values, masses) rows, padding short rows with zero-mass copies of their first atom."""
    width = max(v.size for v, _ in rows)
    values = np.empty((len(rows), width))
    masses = np.zeros((len(rows), width))
    for i, (v, m) in enumerate(rows):
        values[i, : v.size] = v
        values[i, v.size :] = v[0]
        masses[i, : m.size] = m
    return values, masses


def regime_rows(forecasts: Sequence[MixtureForecast]):
    """Mixture weight and each regime's price atoms and masses, one row per forecast.

    Returns ``(pi, (down_values, down_masses), (up_values, up_masses))``;
    shorter rows of a regime are padded with zero-mass copies of their first atom.
    """
    pi = np.array([f.pi for f in forecasts])
    return (
        pi,
        _padded([(f.down.values, f.down.masses) for f in forecasts]),
        _padded([(f.up.values, f.up.masses) for f in forecasts]),
    )


def crps(forecast: DiscretePriceDistribution, observed: float) -> float:
    """Continuous ranked probability score of a discrete forecast.

    Computes the integral of (F(x) - 1{x >= observed})^2 exactly: both the
    forecast CDF and the observation step function are piecewise constant,
    so the integrand is summed in closed form over its breakpoints.
    """
    if not np.isfinite(observed):
        raise ValueError("observed price must be finite")
    pts = np.unique(np.concatenate([forecast.values, [observed]]))
    if pts.size < 2:
        return 0.0
    cdf = np.cumsum(forecast.masses)
    idx = np.searchsorted(forecast.values, pts[:-1], side="right")
    f = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], 0.0)
    h = (pts[:-1] >= observed).astype(float)
    seg = np.diff(pts)
    return float(np.sum((f - h) ** 2 * seg))


@dataclass(frozen=True)
class ForecastScores:
    """Batch metrics: point errors, sharpness, and probabilistic skill."""

    rmse: float
    mae: float
    std: float
    crps: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.rmse, self.mae, self.std, self.crps)


def score_batch(
    forecasts: Sequence[DiscretePriceDistribution],
    observations: Sequence[float],
) -> ForecastScores:
    """Score a sequence of forecasts against realized prices.

    RMSE compares the forecast means with the observations, MAE the
    forecast medians, ``std`` is the average forecast standard deviation
    (sharpness), and ``crps`` the average per-step CRPS.
    """
    if len(forecasts) != len(observations):
        raise ValueError("forecasts and observations must be equal length")
    if len(forecasts) == 0:
        raise ValueError("empty batch")
    obs = np.asarray(observations, dtype=float)
    means = np.array([d.mean() for d in forecasts])
    medians = np.array([d.median() for d in forecasts])
    stds = np.array([d.std() for d in forecasts])
    scores = np.array([crps(d, y) for d, y in zip(forecasts, obs)])
    return ForecastScores(
        rmse=float(np.sqrt(np.mean((means - obs) ** 2))),
        mae=float(np.mean(np.abs(medians - obs))),
        std=float(np.mean(stds)),
        crps=float(np.mean(scores)),
    )
