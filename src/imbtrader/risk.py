"""Coherent risk measures on discrete loss distributions.

Both measures interpolate between the expectation (alpha = 1) and the
essential max (alpha = 0). The boundary alphas are explicit branches, not
limits, so grid argmins involving them are exact. CVaR is taken in closed
form. EVaR comes from its dual program (Ahmadi-Javid 2012, *Entropic
value-at-risk*, JOTA 155) on fixed nodes of the dual variable, with a
certified bracket: tangent lines above, chords below.

EVaR computes a window of its nodes. The tilted law's variance K''(s) is at
most spread^2 / 4 (Popoviciu's inequality), and t(s) = s K'(s) - K(s) grows
at the rate s K''(s), so t(s) <= (s spread)^2 / 8. Every node up to the last
one with s spread_max <= sqrt(4 t_min), where t_min = -ln(largest interior
alpha) and spread_max is the call's largest row spread, thus lies at
t <= t_min / 2, below every target. The window starts at that last node. The
searched row of node t values keeps zeros left of it, so the bracket search
makes the same comparisons, and gives the same bits, as on all nodes.
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
_BLOCK_ROWS = 17  # rows per block of (rows x nodes) work
_CHUNK = 64  # nodes per cumulant matmul
_S_NODES = np.geomspace(*_S_RANGE, EVAR_NODES)


@dataclass(frozen=True)
class RiskSpec:
    """Choice of risk measure plus its tail weight alpha."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        _check_kind(self.kind)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")


def _check_kind(kind: str) -> None:
    if kind not in RISK_KINDS:
        raise ValueError(f"unknown risk kind {kind!r}; expected one of {RISK_KINDS}")


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

    One tail index per (row, alpha): a ``searchsorted`` per row, or a count
    per alpha when there are fewer alphas than rows. The tail terms are
    ``take``s at row-offset flat indices of a contiguous worst-first copy.
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
        v, m = np.ascontiguousarray(values[:, ::-1]), masses[:, ::-1]  # worst loss first
        # Column i holds the mass (and mass-weighted loss) of the i worst atoms.
        cm, cmv = np.zeros((2, n, k + 1))
        np.cumsum(m, axis=1, out=cm[:, 1:])
        np.cumsum(m * v, axis=1, out=cmv[:, 1:])
        # The tail index is searchsorted(row, alpha, "left"). A cumsum of nonnegative masses never
        # decreases, so that index is also the count of partial masses below alpha: loop over the
        # shorter axis with the same comparisons.
        if ai.size < n:
            idx = np.stack([np.count_nonzero(cm[:, 1:] < x, axis=1) for x in ai], axis=1)
        else:
            idx = np.empty((n, ai.size), dtype=np.intp)
            for i, row in enumerate(cm[:, 1:]):
                idx[i] = row.searchsorted(ai, side="left")
        np.minimum(idx, k - 1, out=idx)  # guard a float cumsum that ends below alpha
        idx += np.arange(0, n * (k + 1), k + 1)[:, None]  # flat index of the tail atom in cm and cmv
        tail, total = np.take(cm, idx), np.take(cmv, idx)
        idx -= np.arange(n)[:, None]  # and in v, whose rows are one column shorter
        np.multiply(np.subtract(ai, tail, out=tail), np.take(v, idx), out=tail)
        out[:, interior] = np.divide(np.add(total, tail, out=tail), ai, out=tail)
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
    for j in range(0, s.size, _CHUNK):  # (_CHUNK x atoms) at a time
        x = np.maximum(np.multiply.outer(s[j : j + _CHUNK], y), _EXP_FLOOR)
        acc[j : j + _CHUNK] = np.exp(x, out=x) @ moments
    mean = acc[:, 1] / acc[:, 0]  # the top atom keeps acc[:, 0] >= its mass
    return np.stack([np.log(acc[:, 0]), mean, np.maximum(acc[:, 2] / acc[:, 0] - mean * mean, 0.0)])


def _nodes(spread_max: float, t_min: float) -> tuple[np.ndarray, int]:
    """The dual nodes for the call's largest spread, and the first node of the window for its smallest target.

    That is the last node with s spread_max <= sqrt(4 t_min), where t <= t_min / 2 (module docstring), or
    node 0 if there is none.
    """
    s = _S_NODES / spread_max
    return s, max(int(np.searchsorted(s * spread_max, np.sqrt(4.0 * t_min), side="right")) - 1, 0)


def evar_bracket_rows(weights: np.ndarray, regimes, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EVaR of each row's regime mixture at each alpha: (estimate, lower, upper).

    Row r mixes the regimes ``(values, masses)`` ((rows x atoms), any atom order, zero masses
    allowed) with weights ``weights[r]``. EVaR(t = -ln alpha) = min over s of (K(s) + t) / s for the
    row's cumulant K is concave in t; node s gives its point (s K' - K, K'), slope 1/s and curvature
    -1/(s^3 K''). The estimate is the quintic Hermite in t between two nodes, bounded by their
    tangents (the dual objective) above and their chord below; it grows like sqrt(t) from E[Z]
    before the first node, and is the max atom from t = -ln P(max atom) on. Only the node window
    (see the module docstring) is computed; the nodes left of it lie below every target.
    """
    a = np.atleast_1d(np.asarray(alphas, dtype=float))
    _check_alphas(a)
    w = np.asarray(weights, dtype=float)
    tops = np.stack([np.max(v, axis=1, where=m > 0.0, initial=-np.inf) for v, m in regimes], axis=1)
    lows = np.stack([np.min(v, axis=1, where=m > 0.0, initial=np.inf) for v, m in regimes], axis=1)
    vmax = np.max(np.where(w > 0.0, tops, -np.inf), axis=1)
    spread = vmax - np.min(np.where(w > 0.0, lows, np.inf), axis=1)
    mean = np.sum(w * np.stack([mean_rows(v, m) for v, m in regimes], axis=1), axis=1)
    out = np.repeat(np.where(a == 1.0, mean[:, None], vmax[:, None])[None], 3, axis=0)
    cols = np.flatnonzero((a > 0.0) & (a < 1.0))
    if not cols.size or not np.any(spread > 0.0):
        return tuple(out)
    target = -np.log(a[cols])
    s, first = _nodes(spread.max(), target.min())
    slopes = np.concatenate(([0.0], 1.0 / s, [0.0]))  # dEVaR/dt per node column
    chunk = first - first % _CHUNK  # the cumulants' matmuls are those of a pass over all nodes
    live, cube, n_live = s[first:], (s**3)[first:], EVAR_NODES - first
    gaps = np.maximum(vmax[:, None] - tops, 0.0)
    top_mass, tables = 0.0, []
    for g, (v, m) in enumerate(regimes):
        y = np.minimum(v - tops[:, g, None], 0.0)
        own = (m != m[0]).any(axis=1) | (np.abs(y - y[0]) > _TRANSLATE_TOL).any(axis=1)
        shapes, shape_of = np.concatenate(([0], np.flatnonzero(own))), np.cumsum(own) * own
        table = np.stack([_cumulants(y[i], m[i], s[chunk:]) for i in shapes])[..., first - chunk :]
        # One shape at gap 0: kappa - s 0 is kappa, so the exp (and mu^2 + var, mu = K') is per node only.
        shared = None
        if len(table) == 1:
            kappa, dkappa, var = table[0]
            shared = (np.exp(np.maximum(kappa, _EXP_FLOOR)), dkappa * dkappa + var)
        tables.append((table, shape_of, shared))
        at_top = np.sum(np.where(y[shapes] == 0.0, m[shapes], 0.0), axis=1)[shape_of]
        top_mass = top_mass + np.where(gaps[:, g] == 0.0, w[:, g] * at_top, 0.0)
    t_max = np.where(spread > 0.0, -np.log(top_mass), 0.0)
    # Node columns: (0, E[Z]), the dual nodes, then (t_max, max atom); values relative to the max. Columns
    # left of the window stay 0, below every target as the nodes they stand for.
    block_rows = min(_BLOCK_ROWS, len(w))
    nodes = np.zeros((3, block_rows, EVAR_NODES + 2))
    # Every temporary of a block: first its 6 (rows x nodes) ones, then its 14 (rows x alphas) ones.
    work = np.empty(block_rows * max(6 * n_live, 14 * cols.size))
    flat = np.arange(block_rows)[:, None] * (EVAR_NODES + 2)  # flat index of each row's first column
    hi = np.empty((block_rows, cols.size), dtype=np.intp)
    window = slice(first + 1, EVAR_NODES + 1)
    # Contiguous interior alphas (an ascending grid) as a slice: its basic index adds to out in place.
    inside = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] == cols.size - 1 else cols
    for start in range(0, len(w), _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, len(w)))
        n = rows.stop - start
        t, e, c = block = nodes[:, :n]
        term, mu, tmp, total, second, first_moment = sums = work[: 6 * n * n_live].reshape(6, n, n_live)
        sums[3:].fill(0.0)
        for g, (table, shape_of, shared) in enumerate(tables):
            # term = w_g exp(kappa_g(s) - s gap_g); the cumulant above the row max is K = log sum term.
            gap = gaps[rows, g, None]
            if shared is not None and not gap.any():
                np.multiply(shared[0], w[rows, g, None], out=term)
                second += np.multiply(shared[1], term, out=tmp)
                first_moment += np.multiply(table[0, 1], term, out=mu)
                total += term
                continue
            kappa, dkappa, var = table[0] if len(table) == 1 else table[shape_of[rows]].swapaxes(0, 1)
            np.subtract(kappa, np.multiply(live, gap, out=term), out=term)
            np.exp(np.maximum(term, _EXP_FLOOR, out=term), out=term)
            term *= w[rows, g, None]
            np.subtract(dkappa, gap, out=mu)
            second += np.multiply(np.add(np.multiply(mu, mu, out=tmp), var, out=tmp), term, out=tmp)
            first_moment += np.multiply(mu, term, out=mu)
            total += term
        rel = np.divide(first_moment, total, out=e[:, window])  # K'
        second /= total
        second -= np.multiply(rel, rel, out=tmp)  # K'', the variance of the tilted mixture
        np.subtract(np.multiply(live, rel, out=t[:, window]), np.log(total, out=total), out=t[:, window])
        second *= cube  # dEVaR/dt = 1/s, so d2EVaR/dt2 = -1 / (s^3 K'')
        np.divide(-1.0, np.where(second > 0.0, second, np.inf), out=c[:, window])
        e[:, 0], t[:, -1] = (mean - vmax)[rows], t_max[rows]
        np.minimum(t, t[:, -1:], out=t)
        # Per (row, alpha): the nodes lo and lo + 1 around the target, and the quintic between them.
        for i, row in enumerate(t):
            hi[i] = row.searchsorted(target, side="right")
        lo = np.minimum(hi[:n], EVAR_NODES + 1)
        lo -= 1
        before = lo == 0
        any_before = before.any()
        pairs = work[: 14 * n * cols.size].reshape(14, n, cols.size)
        t0, e0, c0, t1, e1, c1, d0, d1, h, rise, x = pairs[:11]
        est, chord, upper = result = pairs[11:]
        # The indices are in range, and mode "clip" writes to out without a buffer ("raise" has one).
        at = lo + flat[:n]
        for v, gathered in zip(block, (t0, e0, c0)):
            np.take(v, at, out=gathered, mode="clip")
        at += 1
        for v, gathered in zip(block, (t1, e1, c1)):
            np.take(v, at, out=gathered, mode="clip")
        np.take(slopes, lo, out=d0, mode="clip")
        lo += 1
        np.take(slopes, lo, out=d1, mode="clip")
        np.subtract(t1, t0, out=h)
        np.subtract(e1, e0, out=rise)
        ahead = np.subtract(target, t0, out=t0)
        x.fill(1.0)
        np.divide(ahead, h, out=x, where=h > 0.0)
        np.minimum(np.maximum(x, 0.0, out=x), 1.0, out=x)
        np.add(e0, np.multiply(x, rise, out=chord), out=chord)
        # The tangents at lo + 1 and at lo; before the first node the one at lo is the max, 0.
        np.add(e0, np.multiply(ahead, d0, out=upper), out=upper)
        if any_before:
            upper[before] = 0.0
        np.minimum(upper, 0.0, out=upper)
        np.minimum(np.add(e1, np.multiply(np.subtract(target, t1, out=t1), d1, out=t1), out=t1), upper, out=upper)
        g0, g1 = np.multiply(h, d0, out=d0), np.multiply(h, d1, out=d1)
        hh = np.multiply(h, h, out=h)
        b0, b1 = np.multiply(hh, c0, out=c0), np.multiply(hh, c1, out=c1)
        p3, p4, p5 = coefficients = hh, e1, est  # buffers whose values are spent
        for row, p in zip(_QUINTIC, coefficients):
            np.add(0.0, np.multiply(row[0], rise, out=p), out=p)
            for k, v in zip(row[1:], (g0, g1, b0, b1)):
                p += np.multiply(k, v, out=t1)
        # est = e0 + x (g0 + x (b0 / 2 + x (p3 + x (p4 + x p5)))), innermost first.
        est *= x
        for v in (p4, p3, np.multiply(0.5, b0, out=b0), g0):
            est += v
            est *= x
        est += e0
        if any_before:
            est[before] = e0[before] + np.sqrt(x[before]) * rise[before]
        np.minimum(np.maximum(est, chord, out=est), upper, out=est)
        past = hi[:n] > EVAR_NODES + 1  # past t_max: the max atom
        if past.any():
            result[:, past] = 0.0
        out[:, rows, inside] += result
    return tuple(out)


def evar_grid(dist: DiscretePriceDistribution, alphas) -> np.ndarray:
    """Entropic value-at-risk of one loss distribution at each alpha (see ``evar_bracket_rows``)."""
    return evar_bracket_rows(np.ones((1, 1)), [(dist.values[None, :], dist.masses[None, :])], alphas)[0][0]


def evar(dist: DiscretePriceDistribution, alpha: float) -> float:
    """Entropic value-at-risk: the tightest Chernoff bound on the alpha-tail."""
    return float(evar_grid(dist, [alpha])[0])
