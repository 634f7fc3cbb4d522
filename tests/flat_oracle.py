"""Reference row builder and risk path for the tests: one flattened mixture per position.

``mixture_rows`` is the builder decision tables used for CVaR and the
expectation before they flattened the regime rows themselves: it drops
zero-mass atoms and pads each row with zero-mass copies of its first atom.
``risk_of_negated_price`` is the per-object path: flatten the mixture,
negate it, and apply one risk measure to the distribution object.
"""
import numpy as np

from imbtrader.dists import flatten
from imbtrader.risk import cvar, evar


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
