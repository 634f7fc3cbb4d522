"""Coherent risk measures on discrete loss distributions.

Both measures interpolate between the expectation (alpha = 1) and the
essential max (alpha = 0). The boundary alphas are explicit branches, not
limits, so grid argmins involving them are exact. CVaR is taken in closed
form. EVaR comes from its dual program (Ahmadi-Javid 2012, *Entropic
value-at-risk*, JOTA 155) on fixed nodes of the dual variable, with a
certified bracket: tangent lines above, chords below.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import DiscretePriceDistribution

__all__ = [
    "RISK_KINDS",
    "RiskSpec",
    "mean_rows",
    "cvar",
    "cvar_rows",
    "cvar_grid",
    "evar",
    "evar_bracket_rows",
    "evar_grid",
]

RISK_KINDS = ("expectation", "cvar", "evar")

# EVaR nodes of s: geometric over _S_RANGE / largest row spread. Regime rows within _TRANSLATE_TOL
# (EUR/MWh) of a translate of the first row share its cumulant. _QUINTIC maps (rise, h * slopes,
# h^2 * curvatures) at the two ends of [0, 1] to the x^3..x^5 coefficients of the quintic Hermite.
EVAR_NODES = 640
_S_RANGE = (1e-3, 1e6)
_TRANSLATE_TOL = 1e-9
_QUINTIC = ((10.0, -6.0, -4.0, -1.5, 0.5), (-15.0, 8.0, 7.0, 1.5, -1.0), (6.0, -3.0, -3.0, -0.5, 0.5))
_EXP_FLOOR = -600.0  # exp() is slow on arguments that underflow
_BLOCK_ROWS = 12  # rows per block of (rows x nodes) work


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
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):  # NaN fails too
        raise ValueError("alpha outside [0, 1] or not a number")


def mean_rows(values: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Expectation of each row's distribution.

    A stacked matmul: on one row it gives the bits of
    ``DiscretePriceDistribution.mean``, which a row sum does not.
    """
    return np.matmul(values[:, None, :], masses[:, :, None])[:, 0, 0]


def cvar_rows(values: np.ndarray, masses: np.ndarray, alphas) -> np.ndarray:
    """Closed-form CVaR of each row's loss distribution at each alpha.

    ``values`` (rows x atoms) holds each row's atoms ascending, ``masses``
    their nonnegative masses summing to one; atoms may repeat, and atoms of
    zero mass count for nothing. For interior alpha this is the average of
    the worst alpha-mass tail, with fractional inclusion of the boundary
    atom; it equals the infimum of ``s + E[Z - s]_+ / alpha`` exactly.
    ``alpha == 0`` gives the largest atom of positive mass, ``alpha == 1``
    the expectation. Returns (rows x alphas).
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    out = np.empty((values.shape[0], a.size))
    zero = a == 0.0
    if np.any(zero):  # rows ascend, so the last atom of positive mass is the largest
        top = values.shape[1] - 1 - np.argmax(masses[:, ::-1] > 0.0, axis=1)
        out[:, zero] = values[np.arange(values.shape[0]), top][:, None]
    one = a == 1.0
    if np.any(one):
        out[:, one] = mean_rows(values, masses)[:, None]
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
        # The tail index is searchsorted(row, alpha, "left"). A cumsum of nonnegative masses never
        # decreases, so that index is also the count of partial masses below alpha: loop over the
        # shorter axis with the same comparisons.
        if ai.size < n:
            idx = np.stack([np.count_nonzero(cm[:, 1:] < x, axis=1) for x in ai], axis=1)
        else:
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


def _cumulants(y: np.ndarray, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log E[exp(s Y)] and its first two derivatives per node s, for atoms y <= 0 with top 0."""
    acc, moments = np.empty((s.size, 3)), np.stack([m, m * y, m * y * y], axis=1)
    for j in range(0, s.size, 64):  # (64 x atoms) at a time
        x = np.maximum(np.multiply.outer(s[j : j + 64], y), _EXP_FLOOR)
        acc[j : j + 64] = np.exp(x, out=x) @ moments
    mean = acc[:, 1] / acc[:, 0]  # the top atom keeps acc[:, 0] >= its mass
    return np.stack([np.log(acc[:, 0]), mean, np.maximum(acc[:, 2] / acc[:, 0] - mean * mean, 0.0)])


def evar_bracket_rows(weights: np.ndarray, regimes, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EVaR of each row's regime mixture at each alpha: (estimate, lower, upper).

    Row r mixes the regimes ``(values, masses)`` ((rows x atoms), any atom order, zero masses
    allowed) with weights ``weights[r]``. EVaR(t = -ln alpha) = min over s of (K(s) + t) / s for the
    row's cumulant K is concave in t; node s gives its point (s K' - K, K'), slope 1/s and curvature
    -1/(s^3 K''). The estimate is the quintic Hermite in t between two nodes, bounded by their
    tangents (the dual objective) above and their chord below; it grows like sqrt(t) from E[Z]
    before the first node, and is the max atom from t = -ln P(max atom) on.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    w = np.asarray(weights, dtype=float)
    tops = np.stack([np.max(np.where(m > 0.0, v, -np.inf), axis=1) for v, m in regimes], axis=1)
    lows = np.stack([np.min(np.where(m > 0.0, v, np.inf), axis=1) for v, m in regimes], axis=1)
    vmax = np.max(np.where(w > 0.0, tops, -np.inf), axis=1)
    spread = vmax - np.min(np.where(w > 0.0, lows, np.inf), axis=1)
    mean = np.sum(w * np.stack([mean_rows(v, m) for v, m in regimes], axis=1), axis=1)
    out = np.repeat(np.where(a == 1.0, mean[:, None], vmax[:, None])[None], 3, axis=0)
    cols = np.flatnonzero((a > 0.0) & (a < 1.0))
    if not cols.size or not np.any(spread > 0.0):
        return tuple(out)
    s = np.geomspace(*_S_RANGE, EVAR_NODES) / spread.max()
    slopes = np.concatenate(([0.0], 1.0 / s, [0.0]))  # dEVaR/dt per node column
    gaps = np.maximum(vmax[:, None] - tops, 0.0)
    top_mass, tables = 0.0, []
    for g, (v, m) in enumerate(regimes):
        y = np.minimum(v - tops[:, g, None], 0.0)
        own = (m != m[0]).any(axis=1) | (np.abs(y - y[0]) > _TRANSLATE_TOL).any(axis=1)
        shapes, shape_of = np.concatenate(([0], np.flatnonzero(own))), np.cumsum(own) * own
        tables.append((np.stack([_cumulants(y[i], m[i], s) for i in shapes]), shape_of))
        at_top = np.sum(np.where(y[shapes] == 0.0, m[shapes], 0.0), axis=1)[shape_of]
        top_mass = top_mass + np.where(gaps[:, g] == 0.0, w[:, g] * at_top, 0.0)
    t_max, target = np.where(spread > 0.0, -np.log(top_mass), 0.0), -np.log(a[cols])
    # Node columns: (0, E[Z]), the dual nodes, then (t_max, max atom); values relative to the max.
    nodes = np.zeros((3, min(_BLOCK_ROWS, len(w)), EVAR_NODES + 2))
    work = np.empty((6, nodes.shape[1], EVAR_NODES))  # every (rows x nodes) temporary of a block
    for start in range(0, len(w), _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, len(w)))
        t, e, c = block = nodes[:, : rows.stop - start]
        term, mu, tmp, total, second, first = work[:, : rows.stop - start]
        work[3:].fill(0.0)
        for g, (table, shape_of) in enumerate(tables):
            # term = w_g exp(kappa_g(s) - s gap_g); the cumulant above the row max is K = log sum term.
            kappa, dkappa, var = table[0] if len(table) == 1 else table[shape_of[rows]].swapaxes(0, 1)
            gap = gaps[rows, g, None]
            np.subtract(kappa, np.multiply(s, gap, out=term), out=term)
            np.exp(np.maximum(term, _EXP_FLOOR, out=term), out=term)
            term *= w[rows, g, None]
            np.subtract(dkappa, gap, out=mu)
            second += np.multiply(np.add(np.multiply(mu, mu, out=tmp), var, out=tmp), term, out=tmp)
            first += np.multiply(mu, term, out=mu)
            total += term
        rel = np.divide(first, total, out=e[:, 1:-1])  # K'
        second /= total
        second -= np.multiply(rel, rel, out=tmp)  # K'', the variance of the tilted mixture
        np.subtract(np.multiply(s, rel, out=t[:, 1:-1]), np.log(total, out=total), out=t[:, 1:-1])
        second *= s**3  # dEVaR/dt = 1/s, so d2EVaR/dt2 = -1 / (s^3 K'')
        np.divide(-1.0, np.where(second > 0.0, second, np.inf), out=c[:, 1:-1])
        e[:, 0], t[:, -1] = (mean - vmax)[rows], t_max[rows]
        np.minimum(t, t[:, -1:], out=t)
        hi = np.stack([np.searchsorted(row, target, side="right") for row in t])
        lo = np.minimum(hi, EVAR_NODES + 1) - 1
        (t0, t1), (e0, e1), (c0, c1) = block[:, np.arange(lo.shape[0])[:, None], np.stack([lo, lo + 1])]
        d0, d1, h, rise, ahead = slopes[lo], slopes[lo + 1], t1 - t0, e1 - e0, target - t0
        x = np.clip(np.divide(ahead, h, out=np.ones_like(h), where=h > 0.0), 0.0, 1.0)
        chord = e0 + x * rise
        upper = np.minimum(e1 + (target - t1) * d1, np.where(lo == 0, 0.0, e0 + ahead * d0).clip(max=0.0))
        g0, g1, b0, b1 = h * d0, h * d1, h * h * c0, h * h * c1
        p3, p4, p5 = (sum(k * v for k, v in zip(row, (rise, g0, g1, b0, b1))) for row in _QUINTIC)
        est = e0 + x * (g0 + x * (0.5 * b0 + x * (p3 + x * (p4 + x * p5))))
        est = np.clip(np.where(lo == 0, e0 + np.sqrt(x) * rise, est), chord, upper)
        out[:, rows, cols] += np.where(hi > EVAR_NODES + 1, 0.0, np.stack([est, chord, upper]))  # past t_max
    return tuple(out)


def evar_grid(dist: DiscretePriceDistribution, alphas) -> np.ndarray:
    """Entropic value-at-risk of one loss distribution at each alpha (see ``evar_bracket_rows``)."""
    return evar_bracket_rows(np.ones((1, 1)), [(dist.values[None, :], dist.masses[None, :])], alphas)[0][0]


def evar(dist: DiscretePriceDistribution, alpha: float) -> float:
    """Entropic value-at-risk: the tightest Chernoff bound on the alpha-tail."""
    return float(evar_grid(dist, [alpha])[0])
