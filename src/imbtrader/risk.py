"""Coherent risk measures on discrete loss distributions.

Both measures interpolate between the expectation (alpha = 1) and the
essential max (alpha = 0). The boundary alphas are explicit branches, not
limits, so grid argmins involving them are exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import DiscretePriceDistribution, MixtureForecast, flatten

__all__ = [
    "RISK_KINDS",
    "RiskSpec",
    "mean_rows",
    "cvar",
    "cvar_rows",
    "cvar_grid",
    "evar",
    "evar_rows",
    "evar_grid",
    "evaluate",
    "risk_of_negated_price",
]

RISK_KINDS = ("expectation", "cvar", "evar")


@dataclass(frozen=True)
class RiskSpec:
    """Choice of risk measure plus its tail weight alpha."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in RISK_KINDS:
            raise ValueError(f"unknown risk kind {self.kind!r}; expected one of {RISK_KINDS}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")


def _check_alphas(alphas: np.ndarray) -> None:
    if alphas.size and (np.any(alphas < 0.0) or np.any(alphas > 1.0)):
        raise ValueError("alpha outside [0, 1]")


def mean_rows(values: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Expectation of each row's distribution.

    A stacked matmul: on one row it gives the bits of
    ``DiscretePriceDistribution.mean``, which a row sum does not.
    """
    return np.matmul(values[:, None, :], masses[:, :, None])[:, 0, 0]


def cvar_rows(values: np.ndarray, masses: np.ndarray, alphas) -> np.ndarray:
    """Closed-form CVaR of each row's loss distribution at each alpha.

    ``values`` (rows x atoms) holds each row's atoms ascending, ``masses``
    their nonnegative masses summing to one; atoms may repeat, and zero-mass
    atoms may repeat another atom of the row. For interior alpha this is the
    average of the worst alpha-mass tail, with fractional inclusion of the
    boundary atom; it equals the infimum of ``s + E[Z - s]_+ / alpha``
    exactly. ``alpha == 0`` gives the max atom, ``alpha == 1`` the
    expectation. Returns (rows x alphas).
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    out = np.empty((values.shape[0], a.size))
    out[:, a == 0.0] = values[:, -1:]
    out[:, a == 1.0] = mean_rows(values, masses)[:, None]
    interior = (a > 0.0) & (a < 1.0)
    if np.any(interior):
        ai = a[interior]
        n, k = values.shape
        v = values[:, ::-1]  # worst loss first
        m = masses[:, ::-1]
        # Column i holds the mass (and mass-weighted loss) of the i worst atoms.
        cm = np.zeros((n, k + 1))
        cmv = np.zeros((n, k + 1))
        np.cumsum(m, axis=1, out=cm[:, 1:])
        np.cumsum(m * v, axis=1, out=cmv[:, 1:])
        # Row by row, so every comparison is that of an unshifted searchsorted.
        idx = np.stack([np.searchsorted(row, ai, side="left") for row in cm[:, 1:]])
        idx = np.minimum(idx, k - 1)  # guard a float cumsum that ends below alpha
        rows = np.arange(n)[:, None]
        out[:, interior] = (cmv[rows, idx] + (ai - cm[rows, idx]) * v[rows, idx]) / ai
    return out


def cvar_grid(dist: DiscretePriceDistribution, alphas) -> np.ndarray:
    """Closed-form CVaR of one loss distribution at each alpha (see ``cvar_rows``)."""
    return cvar_rows(dist.values[None, :], dist.masses[None, :], alphas)[0]


def cvar(dist: DiscretePriceDistribution, alpha: float) -> float:
    """Expected shortfall of the worst alpha-fraction of losses."""
    return float(cvar_grid(dist, [alpha])[0])


def _evar_objective(s: np.ndarray, z: np.ndarray, m: np.ndarray, ln_alpha: float) -> np.ndarray:
    """(log E[exp(s Z)] - ln alpha) / s for max-shifted z <= 0 (no overflow)."""
    s = np.atleast_1d(s)
    ew = np.exp(np.outer(s, z))
    return (np.log(ew @ m) - ln_alpha) / s


def evar(dist: DiscretePriceDistribution, alpha: float, *, value_tol: float = 1e-8) -> float:
    """Entropic value-at-risk via its one-dimensional dual program.

    Bracketing grows the upper endpoint geometrically until the objective
    turns upward, then ternary search locates the infimum of the unimodal
    objective; the distribution is shifted and rescaled first so the
    log-sum-exp never overflows. When the objective keeps decreasing (tail
    mass at the max atom >= alpha) the infimum is the max atom itself.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    if alpha == 0.0:
        return dist.max_value
    if alpha == 1.0:
        return dist.mean()
    if dist.n_atoms == 1:
        return dist.max_value
    vmax = dist.max_value
    spread = vmax - dist.min_value
    z = (dist.values - vmax) / spread  # in [-1, 0]
    m = dist.masses
    ln_alpha = float(np.log(alpha))

    def h(s: float) -> float:
        return float(_evar_objective(np.array([s]), z, m, ln_alpha)[0])

    s_lo, s_cap = 1e-8, 1e14
    s_prev, f_prev = 1.0, h(1.0)
    best = f_prev
    s_hi = s_prev
    while True:
        s_next = s_hi * 2.0
        f_next = h(s_next)
        best = min(best, f_next)
        if f_next >= f_prev or s_next >= s_cap:
            s_hi = s_next
            break
        s_prev, f_prev = s_hi, f_next
        s_hi = s_next
    lo, hi = s_lo, s_hi
    # Interval shrinks by 2/3 per iteration; 140 iterations drive the
    # bracket far below the 1e-8 value tolerance.
    for _ in range(140):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = h(m1), h(m2)
        best = min(best, f1, f2)
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if (hi - lo) <= value_tol * 1e-4 * max(1.0, lo):
            break
    best = min(best, h(0.5 * (lo + hi)))
    return float(min(vmax, vmax + spread * best))


def evar_rows(values: np.ndarray, masses: np.ndarray, alphas, *, n_s: int = 384) -> np.ndarray:
    """Entropic value-at-risk of each row's loss distribution at each alpha.

    Rows are laid out as for ``cvar_rows``. Per row, the dual objective's
    cumulant function is evaluated once on a dense geometric grid of the
    dual variable, and the monotone stationarity condition is inverted per
    alpha. Linear interpolation of the convex cumulant only ever
    overshoots, so the result is an upper bound on the true value (never
    below CVaR) and is clamped at the max atom. Rows are solved one at a
    time, so the temporaries stay (grid x atoms). Returns (rows x alphas).
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    out = np.empty((values.shape[0], a.size))
    out[:, a == 0.0] = values[:, -1:]
    out[:, a == 1.0] = mean_rows(values, masses)[:, None]
    interior = (a > 0.0) & (a < 1.0)
    if not np.any(interior):
        return out
    s = np.geomspace(1e-4, 1e5, n_s)
    target = -np.log(a[interior])
    for row, (v, m) in enumerate(zip(values, masses)):
        vmax = v[-1]
        spread = vmax - v[0]
        if spread == 0.0:  # a single price level
            out[row, interior] = vmax
            continue
        z = (v - vmax) / spread
        ew = np.exp(np.outer(s, z))
        p = ew @ m
        k = np.log(p)
        kp = (ew @ (m * z)) / p
        stat = s * kp - k  # nondecreasing in s; stationarity target is -ln(alpha)

        idx = np.clip(np.searchsorted(stat, target, side="left"), 1, n_s - 1)
        lo, hi = s[idx - 1], s[idx]
        d_stat = stat[idx] - stat[idx - 1]
        frac = np.where(d_stat > 0.0, (target - stat[idx - 1]) / np.where(d_stat > 0, d_stat, 1.0), 1.0)
        s_star = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
        k_star = k[idx - 1] + np.clip(frac, 0.0, 1.0) * (k[idx] - k[idx - 1])
        vals = vmax + spread * (k_star + target) / s_star
        # Beyond the grid the objective decreases toward the max atom.
        vals = np.where(target >= stat[-1], vmax, vals)
        out[row, interior] = np.minimum(vals, vmax)
    return out


def evar_grid(dist: DiscretePriceDistribution, alphas, *, n_s: int = 384) -> np.ndarray:
    """Entropic value-at-risk of one loss distribution at each alpha (see ``evar_rows``)."""
    return evar_rows(dist.values[None, :], dist.masses[None, :], alphas, n_s=n_s)[0]


def evaluate(dist: DiscretePriceDistribution, spec: RiskSpec) -> float:
    """Apply the configured risk measure to a loss distribution."""
    if spec.kind == "expectation":
        return dist.mean()
    if spec.kind == "cvar":
        return cvar(dist, spec.alpha)
    return evar(dist, spec.alpha)


def risk_of_negated_price(forecast: MixtureForecast, spec: RiskSpec) -> float:
    """Risk of the loss ``-p`` under a flattened price forecast.

    This is the distribution-dependent term of the position cost
    ``(q(u) + rho[-p]) * u``.
    """
    return evaluate(flatten(forecast).negate(), spec)
