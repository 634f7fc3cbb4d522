"""Reference row builder and risk path for the tests: one flattened mixture per position.

``mixture_rows`` is the builder decision tables used for CVaR and the
expectation before they flattened the regime rows themselves: it drops
zero-mass atoms and pads each row with zero-mass copies of its first atom.
``risk_of_negated_price`` is the per-object path: flatten the mixture,
negate it, and apply one risk measure to the distribution object.
``cvar_rows`` is the closed-form CVaR kernel as it was before the tail
index became a count: one ``searchsorted`` per row, whatever the alphas.
"""
import numpy as np

from imbtrader.dists import flatten
from imbtrader.risk import cvar, evar, mean_rows


def mixture_rows(forecasts):
    """Price atoms and masses of each flattened mixture, one row per forecast (down, then up)."""
    rows = []
    for f in forecasts:
        v = np.concatenate([f.down.values, f.up.values])
        m = np.concatenate([f.down.masses * f.pi, f.up.masses * (1.0 - f.pi)])
        keep = m > 0.0
        rows.append((v[keep], m[keep]))
    width = max(v.size for v, _ in rows)
    values = np.empty((len(rows), width))
    masses = np.zeros((len(rows), width))
    for i, (v, m) in enumerate(rows):
        values[i, : v.size] = v
        values[i, v.size :] = v[0]
        masses[i, : m.size] = m
    return values, masses


def evaluate(dist, spec):
    """The configured risk measure of a loss distribution object."""
    if spec.kind == "expectation":
        return dist.mean()
    if spec.kind == "cvar":
        return cvar(dist, spec.alpha)
    return evar(dist, spec.alpha)


def risk_of_negated_price(forecast, spec):
    """Risk of the loss ``-p`` under the flattened price forecast."""
    return evaluate(flatten(forecast).negate(), spec)


def cvar_rows(values, masses, alphas):
    """CVaR of each row's loss distribution at each alpha, row by row (see ``risk.cvar_rows``)."""
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.empty((values.shape[0], a.size))
    zero = a == 0.0
    if np.any(zero):
        top = values.shape[1] - 1 - np.argmax(masses[:, ::-1] > 0.0, axis=1)
        out[:, zero] = values[np.arange(values.shape[0]), top][:, None]
    out[:, a == 1.0] = mean_rows(values, masses)[:, None]
    interior = (a > 0.0) & (a < 1.0)
    if np.any(interior):
        ai = a[interior]
        n, k = values.shape
        v = values[:, ::-1]
        m = masses[:, ::-1]
        cm = np.zeros((n, k + 1))
        cmv = np.zeros((n, k + 1))
        np.cumsum(m, axis=1, out=cm[:, 1:])
        np.cumsum(m * v, axis=1, out=cmv[:, 1:])
        idx = np.stack([np.searchsorted(row, ai, side="left") for row in cm[:, 1:]])
        idx = np.minimum(idx, k - 1)
        rows = np.arange(n)[:, None]
        out[:, interior] = (cmv[rows, idx] + (ai - cm[rows, idx]) * v[rows, idx]) / ai
    return out
