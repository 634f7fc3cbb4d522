"""Reference EVaR for the tests: a direct search of the dual program.

This is the ternary-search solver that ``risk.evar`` used before the node
kernel, vectorised over alpha (each alpha runs the same bracketing and
search steps). It agrees with a bisection on the stationarity condition to
about 1e-14 of the spread, and is far too slow for a decision table.
"""
import numpy as np


def _objective(s, z, m, ln_alpha):
    """(log E[exp(s Z)] - ln alpha) / s per alpha, for max-shifted z <= 0 (no overflow)."""
    return (np.log(np.exp(np.multiply.outer(s, z)) @ m) - ln_alpha) / s


def oracle_evar_grid(dist, alphas, value_tol=1e-8):
    """EVaR of a ``DiscretePriceDistribution`` at each alpha.

    Bracketing grows the upper endpoint geometrically until the objective
    turns upward, then ternary search locates the infimum of the unimodal
    objective; the distribution is shifted and rescaled first so the
    log-sum-exp never overflows. When the objective keeps decreasing (tail
    mass at the max atom >= alpha) the infimum is the max atom itself.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.empty(alphas.shape)
    out[alphas == 0.0] = dist.max_value
    out[alphas == 1.0] = dist.mean()
    interior = (alphas > 0.0) & (alphas < 1.0)
    if dist.n_atoms == 1 or not np.any(interior):
        out[interior] = dist.max_value
        return out
    vmax = dist.max_value
    spread = vmax - dist.min_value
    z = (dist.values - vmax) / spread  # in [-1, 0]
    m = dist.masses
    ln_alpha = np.log(alphas[interior])
    n = ln_alpha.size

    s_hi = np.ones(n)
    f_prev = _objective(s_hi, z, m, ln_alpha)
    best = f_prev.copy()
    growing = np.ones(n, dtype=bool)
    while np.any(growing):
        s_next = s_hi * 2.0
        f_next = _objective(s_next, z, m, ln_alpha)
        best = np.where(growing, np.minimum(best, f_next), best)
        stop = (f_next >= f_prev) | (s_next >= 1e14)
        s_hi = np.where(growing, s_next, s_hi)
        f_prev = np.where(growing & ~stop, f_next, f_prev)
        growing &= ~stop
    lo, hi = np.full(n, 1e-8), s_hi
    done = np.zeros(n, dtype=bool)
    # Interval shrinks by 2/3 per iteration; 140 iterations drive the
    # bracket far below the value tolerance.
    for _ in range(140):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1 = _objective(m1, z, m, ln_alpha)
        f2 = _objective(m2, z, m, ln_alpha)
        best = np.where(done, best, np.minimum(best, np.minimum(f1, f2)))
        left = f1 <= f2
        hi = np.where(~done & left, m2, hi)
        lo = np.where(~done & ~left, m1, lo)
        done |= (hi - lo) <= value_tol * 1e-4 * np.maximum(1.0, lo)
        if np.all(done):
            break
    best = np.minimum(best, _objective(0.5 * (lo + hi), z, m, ln_alpha))
    out[interior] = np.minimum(vmax, vmax + spread * best)
    return out
