"""Reference EVaR node kernel for the tests: ``risk.evar_bracket_rows`` before its node window.

This computes the cumulants and the (rows x nodes) arithmetic at every one of
the 640 nodes, exps each regime's term per row, and builds the quintic's
coefficients with a builtin ``sum``, on blocks of 12 rows. The kernel must
give the same bits for the estimate, the lower and the upper bound.
"""
import numpy as np

from imbtrader.risk import _check_alphas, mean_rows

EVAR_NODES = 640
_S_RANGE = (1e-3, 1e6)
_TRANSLATE_TOL = 1e-9
_QUINTIC = ((10.0, -6.0, -4.0, -1.5, 0.5), (-15.0, 8.0, 7.0, 1.5, -1.0), (6.0, -3.0, -3.0, -0.5, 0.5))
_EXP_FLOOR = -600.0
_BLOCK_ROWS = 12


def _cumulants(y, m, s):
    acc, moments = np.empty((s.size, 3)), np.stack([m, m * y, m * y * y], axis=1)
    for j in range(0, s.size, 64):
        x = np.maximum(np.multiply.outer(s[j : j + 64], y), _EXP_FLOOR)
        acc[j : j + 64] = np.exp(x, out=x) @ moments
    mean = acc[:, 1] / acc[:, 0]
    return np.stack([np.log(acc[:, 0]), mean, np.maximum(acc[:, 2] / acc[:, 0] - mean * mean, 0.0)])


def evar_bracket_rows(weights, regimes, alphas):
    """(estimate, lower, upper) of each row's regime mixture at each alpha."""
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
    slopes = np.concatenate(([0.0], 1.0 / s, [0.0]))
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
    nodes = np.zeros((3, min(_BLOCK_ROWS, len(w)), EVAR_NODES + 2))
    work = np.empty((6, nodes.shape[1], EVAR_NODES))
    for start in range(0, len(w), _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, len(w)))
        t, e, c = block = nodes[:, : rows.stop - start]
        term, mu, tmp, total, second, first = work[:, : rows.stop - start]
        work[3:].fill(0.0)
        for g, (table, shape_of) in enumerate(tables):
            kappa, dkappa, var = table[0] if len(table) == 1 else table[shape_of[rows]].swapaxes(0, 1)
            gap = gaps[rows, g, None]
            np.subtract(kappa, np.multiply(s, gap, out=term), out=term)
            np.exp(np.maximum(term, _EXP_FLOOR, out=term), out=term)
            term *= w[rows, g, None]
            np.subtract(dkappa, gap, out=mu)
            second += np.multiply(np.add(np.multiply(mu, mu, out=tmp), var, out=tmp), term, out=tmp)
            first += np.multiply(mu, term, out=mu)
            total += term
        rel = np.divide(first, total, out=e[:, 1:-1])
        second /= total
        second -= np.multiply(rel, rel, out=tmp)
        np.subtract(np.multiply(s, rel, out=t[:, 1:-1]), np.log(total, out=total), out=t[:, 1:-1])
        second *= s**3
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
        out[:, rows, cols] += np.where(hi > EVAR_NODES + 1, 0.0, np.stack([est, chord, upper]))
    return tuple(out)
