"""Discrete price distributions, mixture composition, and forecast scoring.

Prices are EUR/MWh throughout. Every forecast is a finite set of point
masses. A two-regime mixture is a weight and two such distributions:
``flatten`` collapses it, ``regime_rows`` stacks many into decision-table rows.
Many forecasts are canonical rows, one padded row per forecast, that ``flatten_rows`` mixes
and ``score_rows`` scores; ``canonical_rows`` is the one canonicalization, and a
``DiscretePriceDistribution`` holds the atoms of one such row without its padding.
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
    "canonical_rows",
    "row_atoms",
    "flatten_rows",
    "moment_rows",
    "quantile_rows",
    "crps_rows",
    "crps",
    "score_rows",
]

# Total mass must equal one within this tolerance.
MASS_TOL = 1e-9
# Atom values closer than this (EUR/MWh) are treated as one price level;
# keeps coinciding quantile outputs from blowing up the atom count.
MERGE_TOL = 1e-12


class DiscretePriceDistribution:
    """Finite point-mass distribution over scalar prices.

    Canonical form is enforced on construction, by ``canonical_rows`` on one
    row: atoms sorted ascending by value, near-duplicate values merged (mass
    summed), zero-mass atoms dropped, all masses nonnegative and summing to
    one within ``MASS_TOL``. Instances are immutable; the backing arrays are
    marked read-only.
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

        (v,), (m,) = canonical_rows(v[None, :], m[None, :])
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
    """Collapse a two-component mixture into a single discrete distribution: one row of ``flatten_rows``.

    Each down-atom keeps pi times its mass, each up-atom (1 - pi) times its
    mass; the result is canonicalized (sorted, merged, zero atoms dropped).
    """
    (values,), (masses,) = flatten_rows(*regime_rows([forecast]))
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


def canonical_rows(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of every row: atoms sorted stably by value, zero masses dropped, values within
    ``MERGE_TOL`` of their left neighbour merged into it, then zero-mass copies of the first atom as
    padding. Masses merge in value order, as ``np.bincount`` sums.
    """
    order = np.argsort(values, axis=1, kind="stable")
    # sorting stably and then dropping zero masses keeps the order of dropping them first
    row, col = np.nonzero(np.take_along_axis(masses, order, axis=1) > 0.0)
    v, m = values[row, order[row, col]], masses[row, order[row, col]]
    starts = np.concatenate(([True], (row[1:] != row[:-1]) | (np.diff(v) > MERGE_TOL)))
    counts = np.bincount(row[starts], minlength=values.shape[0])
    if not np.all(counts):
        raise ValueError("a row has no atom with positive mass")
    slot = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    out_v = np.repeat(v[starts][slot == 0][:, None], counts.max(), axis=1)
    out_m = np.zeros(out_v.shape)
    out_v[row[starts], slot] = v[starts]
    out_m[row[starts], slot] = np.bincount(np.cumsum(starts) - 1, weights=m)
    return out_v, out_m


def flatten_rows(pi, down, up) -> tuple[np.ndarray, np.ndarray]:
    """``flatten`` of many mixtures: weights ``pi`` and each regime's canonical (values, masses) rows."""
    pi = np.asarray(pi, dtype=float)[:, None]
    return canonical_rows(np.hstack([down[0], up[0]]), np.hstack([down[1] * pi, up[1] * (1.0 - pi)]))


def row_atoms(values: np.ndarray, masses: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each canonical row's atoms and masses without its padding."""
    return [(v[:k], m[:k]) for v, m, k in zip(values, masses, np.count_nonzero(masses, axis=1))]


def moment_rows(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of each canonical row, with products over its own atoms only,
    as ``DiscretePriceDistribution.mean``: with the padding they would sum in another order."""
    atoms = row_atoms(values, masses)
    means = np.array([v @ m for v, m in atoms])
    var = np.array([(v * v) @ m for v, m in atoms]) - means * means
    return means, np.sqrt(np.maximum(var, 0.0))


def quantile_rows(values: np.ndarray, masses: np.ndarray, taus) -> np.ndarray:
    """Left-continuous CDF inverse (the smallest value with CDF >= tau) of each canonical row at each level."""
    if not np.all((np.asarray(taus) >= 0.0) & (np.asarray(taus) <= 1.0)):  # NaN fails too
        raise ValueError(f"quantile levels {taus} outside [0, 1] or not a number")
    cdf = np.cumsum(masses, axis=1)
    idx = np.count_nonzero(cdf[:, None, :] < np.reshape(taus, (-1, 1)), axis=2)  # searchsorted, side="left"
    # the padding repeats the last CDF value, so a float cumsum < tau falls back to the last atom
    return np.take_along_axis(values, np.minimum(idx, np.count_nonzero(masses, axis=1)[:, None] - 1), axis=1)


def crps_rows(values: np.ndarray, masses: np.ndarray, observed) -> np.ndarray:
    """Continuous ranked probability score of each canonical row against its observed price.

    Computes the integral of (F(x) - 1{x >= observed})^2 exactly: both the
    forecast CDF and the observation step function are piecewise constant,
    so the integrand is summed in closed form over its breakpoints, the
    row's atoms and its observation. Each row sums its own terms only: with
    the padding, numpy's pairwise sum would group them otherwise.
    """
    obs = np.asarray(observed, dtype=float)
    if not np.all(np.isfinite(obs)):
        raise ValueError("observed price must be finite")
    n_rows, width = values.shape
    k = np.count_nonzero(masses, axis=1)
    below = np.count_nonzero((np.arange(width) < k[:, None]) & (values < obs[:, None]), axis=1)
    on = np.take_along_axis(values, np.minimum(below, k - 1)[:, None], axis=1)[:, 0] == obs
    # Breakpoint j is the observation, once, or the last of the ``held`` atoms at or below it: the
    # breakpoints from the observation on sit one slot right unless it is an atom.
    col = np.arange(width + 1)
    after = ~on[:, None] & (col >= below[:, None])
    held = col + 1 - after
    last = np.minimum(np.maximum(held - 1, 0), width - 1)
    pts = np.where(after & (col == below[:, None]), obs[:, None], np.take_along_axis(values, last, axis=1))
    f = np.where(held > 0, np.take_along_axis(np.cumsum(masses, axis=1), last, axis=1), 0.0)[:, :-1]
    h = (pts[:, :-1] >= obs[:, None]).astype(float)
    terms = (f - h) ** 2 * np.diff(pts, axis=1)
    n_terms = k - on
    scores = np.empty(n_rows)
    for count in np.unique(n_terms):
        rows = n_terms == count
        scores[rows] = np.sum(terms[rows][:, :count], axis=1)
    return scores


def crps(forecast: DiscretePriceDistribution, observed: float) -> float:
    """Continuous ranked probability score of a discrete forecast: one row of ``crps_rows``."""
    return float(crps_rows(forecast.values[None], forecast.masses[None], [observed])[0])


@dataclass(frozen=True)
class ForecastScores:
    """Batch metrics: point errors, sharpness, and probabilistic skill."""

    rmse: float
    mae: float
    std: float
    crps: float


def score_rows(values: np.ndarray, masses: np.ndarray, observed) -> ForecastScores:
    """Score canonical forecast rows (see ``canonical_rows``) against realized prices.

    RMSE compares the forecast means with the observations, MAE the
    forecast medians, ``std`` is the average forecast standard deviation
    (sharpness), and ``crps`` the average per-row CRPS; each row gets the
    bits of its ``DiscretePriceDistribution``.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.size == 0 or obs.shape != (values.shape[0],):
        raise ValueError("need one observation per forecast row, and at least one row")
    means, stds = moment_rows(values, masses)
    medians = quantile_rows(values, masses, 0.5)[:, 0]
    scores = crps_rows(values, masses, obs)
    return ForecastScores(
        rmse=float(np.sqrt(np.mean((means - obs) ** 2))),
        mae=float(np.mean(np.abs(medians - obs))),
        std=float(np.mean(stds)),
        crps=float(np.mean(scores)),
    )
