"""Reference CVaR and expectation tables for the tests: ``strategy._rho_rows`` and ``risk.cvar_rows`` before
their row-offset gathers.

The loss and mass rows are ``np.hstack`` temporaries, the tail indices a ``np.stack`` of per-row
``np.searchsorted`` calls (or of per-alpha counts) and the tail terms 2-D fancy indexing. The package's
tables must give the same bits: ``rho``, ``phi`` and the per-alpha decision.
"""
import numpy as np

from imbtrader.dists import regime_rows
from imbtrader.risk import _check_alphas, mean_rows


def cvar_rows(values, masses, alphas):
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    out = np.empty((values.shape[0], a.size))
    zero = a == 0.0
    if np.any(zero):
        top = values.shape[1] - 1 - np.argmax(masses[:, ::-1] > 0.0, axis=1)
        out[:, zero] = values[np.arange(values.shape[0]), top][:, None]
    one = a == 1.0
    if np.any(one):
        out[:, one] = mean_rows(values, masses)[:, None]
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
        if ai.size < n:
            idx = np.stack([np.count_nonzero(cm[:, 1:] < x, axis=1) for x in ai], axis=1)
        else:
            idx = np.stack([np.searchsorted(row, ai, side="left") for row in cm[:, 1:]])
        idx = np.minimum(idx, k - 1)
        rows = np.arange(n)[:, None]
        out[:, interior] = (cmv[rows, idx] + (ai - cm[rows, idx]) * v[rows, idx]) / ai
    return out


def rho_rows(kind, forecast_fn, us, alphas):
    """Risk of the loss ``-p`` per (position, alpha) for ``kind`` "cvar" or "expectation"."""
    _check_alphas(alphas)
    whole_tick = getattr(forecast_fn, "regime_rows", None)
    if whole_tick is not None:
        pi, (down, m_down), (up, m_up) = whole_tick(us)
    else:
        pi, (down, m_down), (up, m_up) = regime_rows([forecast_fn(float(u)) for u in us])
    losses = -np.hstack([down, up])
    masses = np.hstack([m_down * pi[:, None], m_up * (1.0 - pi)[:, None]])
    order = np.argsort(losses, axis=1, kind="stable")
    order += np.arange(0, losses.size, losses.shape[1])[:, None]
    losses, masses = np.take(losses, order), np.take(masses, order)
    if kind == "cvar":
        return cvar_rows(losses, masses, alphas)
    return np.repeat(mean_rows(losses, masses)[:, None], alphas.size, axis=1)


def table(forecast_fn, q, us, kind, alphas):
    """``(rho, phi, best)`` of ``strategy.decision_table`` for positions ``us`` with fill prices ``q``."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    rho = rho_rows(kind, forecast_fn, us, alphas)
    phi = (q[:, None] + rho) * us[:, None]
    rows = np.argmin(phi, axis=0)
    return rho, phi, (us[rows], q[rows], phi[rows, np.arange(alphas.size)])
