"""The package's solvers: batched gradient descent, Newton's method for one
smooth convex problem, and a batched quantile LP.

All are deterministic by construction (no shuffling, no randomness), so
every fit in the package is bit-reproducible for a given dataset, initial
point and BLAS thread count.

Gradient descent (``minimize_gd``) uses a backtracking line search. One
call solves a batch of independent problems: each keeps its own step size,
iteration count and stopping state, and every round evaluates all problems
still running in one objective call, which is given each trial's Armijo
bound; only accepted trials' gradients are read, so the banks compute no
others. A problem also stops once an accepted step lowers its finite loss
by at most ``_PROGRESS_TOL`` of it: L-BFGS-B's relative-reduction test,
``factr * eps`` at its default ``factr = 1e7`` (Byrd, Lu, Nocedal & Zhu,
SIAM J. Sci. Comput. 16, 1995), a tolerance tied to the accuracy a fit
needs rather than to rounding (Gill, Murray & Wright, *Practical
Optimization*, 1981). Since no problem reads another's state, each result
is the same bit for bit whatever batch it is solved in. The softmax banks
fit this way.

Newton's method (``minimize_newton``) takes exact Newton steps, each
solved by a Cholesky factorization of the Hessian, with an Armijo
backtracking line search (Nocedal & Wright, *Numerical Optimization*, 2006,
ch. 3); near the optimum its line search also takes a step whose loss change
is within rounding (``_LOSS_ROUNDING``) when it lowers the gradient. The
logistic fits use it.

Linear quantile regression (``fit_quantile_lp``) is a linear program,
solved exactly for every level at once by a primal-dual interior-point
method (Frisch-Newton).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GdResult", "minimize_gd", "minimize_newton", "NEWTON_MAX_ITER", "problem_blocks", "log_unfinished",
           "LpResult", "fit_quantile_lp"]

# Stacked objectives evaluate their problems in blocks whose largest
# temporary holds at most this many float64 elements (384 KiB), so the
# temporaries of a batch stay this small however many problems it holds.
_BLOCK_ELEMENTS = 3 << 14

# Gradient max-norm that counts as converged, and the line search: first step,
# Armijo sufficient-decrease factor, backtracking and growth factors, and the
# step below which the search stalls. The descent uses them all; Newton's
# method shares the Armijo factor, the backtracking factor and the stall step.
_GRAD_TOL, _INITIAL_STEP, _ARMIJO, _SHRINK, _GROW, _MIN_STEP = 1e-6, 1.0, 1e-4, 0.5, 2.0, 1e-18
# Gradient max-norm at which Newton's method counts as converged. Near the
# optimum a step changes the loss by less than rounding can resolve, so a step
# whose loss change is within _LOSS_ROUNDING of the loss passes the line
# search when it lowers the gradient max-norm instead.
_NEWTON_TOL, _LOSS_ROUNDING = 1e-10, 64 * np.finfo(float).eps
# The descent stops a problem on an accepted step that lowers its loss by at
# most this share of it: L-BFGS-B's factr * eps at its default factr = 1e7.
_PROGRESS_TOL = 1e7 * np.finfo(float).eps
# The Newton iteration cap of every logistic fit: five times the most any fit
# of the tests, the example config or perfbench takes (20), so it binds on none.
NEWTON_MAX_ITER = 100


@dataclass
class GdResult:
    """Per-problem outcome of a fit: one row or entry per problem (a Newton fit has one)."""

    x: np.ndarray  # (P, m)
    fun: np.ndarray  # (P,)
    grad_norm: np.ndarray  # (P,)
    iterations: np.ndarray  # (P,)
    converged: np.ndarray  # (P,)
    stalled: np.ndarray  # (P,) the line search gave up before the gradient test passed


def _row_dots(g: np.ndarray) -> np.ndarray:
    # A stacked (1, m) @ (m, 1) matmul is the 1-D ``g @ g`` of each row, bit for bit.
    return np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0]


def _max_norms(g: np.ndarray) -> np.ndarray:
    return np.abs(g).max(axis=1, initial=0.0)


def minimize_gd(
    value_and_grad: Callable[[np.ndarray, np.ndarray, np.ndarray | None], tuple[np.ndarray, np.ndarray]],
    x0,
    *,
    max_iter: int = 1000,
) -> GdResult:
    """Minimize P independent differentiable objectives by steepest descent.

    ``x0`` is (P, m). ``value_and_grad(x, idx, bound)`` takes the points
    (R, m) of the problems ``idx`` (R,) and returns their values (R,) and
    gradients (R, m). ``bound`` is None at ``x0``; at a trial point it holds
    each trial's Armijo bound (R,), and a trial is accepted when its value
    is finite and at most its bound. Only the gradients of accepted trials
    are read, so the others may be NaN. Each problem's step size backtracks
    until the Armijo condition holds and is grown geometrically after
    each accepted step, which lets the iterates cover the exponentially
    growing parameter scales that near-one-hot softmax fits produce. A
    problem stops on the max-norm of its gradient, on an accepted step that
    lowers its finite value by at most ``_PROGRESS_TOL`` of it (both count
    as converged), on the iteration cap, or on a stalled line search.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    n_problems = x.shape[0]
    f, g = value_and_grad(x, np.arange(n_problems), None)
    f, g = np.array(f, dtype=float), np.array(g, dtype=float)
    gnorm = _max_norms(g)
    iterations = np.zeros(n_problems, dtype=int)
    converged = gnorm <= _GRAD_TOL
    stalled = np.zeros(n_problems, dtype=bool)
    active = ~converged & (max_iter > 0)
    gsq = np.zeros(n_problems)
    step = np.full(n_problems, _INITIAL_STEP)

    def begin(idx):  # start the next iteration: a new search direction and a grown step
        gsq[idx] = _row_dots(g[idx])
        step[idx] = np.minimum(step[idx] * _GROW, 1e12)

    begin(np.flatnonzero(active))
    while (running := np.flatnonzero(active)).size:
        x_new = x[running] - step[running, None] * g[running]
        bound = f[running] - _ARMIJO * step[running] * gsq[running]
        f_new, g_new = value_and_grad(x_new, running, bound)
        ok = np.isfinite(f_new) & (f_new <= bound)
        moved = running[ok]
        # the step made negligible relative progress; an infinite loss is never flat
        flat = np.isfinite(f[moved]) & (f[moved] - f_new[ok] <= _PROGRESS_TOL * np.abs(f[moved]))
        x[moved], f[moved], g[moved] = x_new[ok], f_new[ok], g_new[ok]
        iterations[moved] += 1
        gnorm[moved] = _max_norms(g[moved])
        converged[moved] = (gnorm[moved] <= _GRAD_TOL) | flat
        active[moved] = ~converged[moved] & (iterations[moved] < max_iter)
        begin(moved[active[moved]])
        backtrack = running[~ok]
        step[backtrack] *= _SHRINK
        # A stalled line search (e.g., at a subgradient kink) keeps the best
        # point found so far and counts the iteration it stalled in.
        gave_up = backtrack[step[backtrack] < _MIN_STEP]
        iterations[gave_up] += 1
        stalled[gave_up] = True
        active[gave_up] = False
    return GdResult(x, f, gnorm, iterations, converged, stalled)


def minimize_newton(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    x0,
    *,
    max_iter: int,
) -> GdResult:
    """Minimize one smooth convex objective of ``x`` (m,) by damped Newton steps.

    ``value_and_grad(x)`` returns the value and gradient (m,), ``hessian(x)``
    the (m, m) Hessian. Each direction solves the Newton system by Cholesky;
    a Hessian that is not positive definite (singular, when the objective is
    flat along some direction) takes the least-squares solution instead. The
    step starts at 1 and backtracks until the Armijo condition holds; the
    search stalls once the step no longer moves ``x``. The fit stops on a
    gradient max-norm of _NEWTON_TOL, after ``max_iter`` Newton iterations,
    or on a stalled line search; the result is a one-problem ``GdResult``.
    """
    x = np.array(x0, dtype=float)
    f, g = value_and_grad(x)
    gnorm = _max_norms(g[None])[0]
    iterations, stalled = 0, False
    while gnorm > _NEWTON_TOL and iterations < max_iter and not stalled:
        h = hessian(x)
        try:
            lower = np.linalg.cholesky(h)
            d = np.linalg.solve(lower.T, np.linalg.solve(lower, -g))
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, -g, rcond=None)[0]
        slope, step = float(g @ d), 1.0
        while True:
            x_new = x + step * d
            if step < _MIN_STEP or np.array_equal(x_new, x):  # stalled: keep x, count the iteration
                stalled = True
                break
            f_new, g_new = value_and_grad(x_new)
            gnorm_new = _max_norms(g_new[None])[0]
            if np.isfinite(f_new) and (f_new <= f + _ARMIJO * step * slope
                                       or abs(f_new - f) <= _LOSS_ROUNDING * abs(f) and gnorm_new < gnorm):
                x, f, g, gnorm = x_new, f_new, g_new, gnorm_new
                break
            step *= _SHRINK
        iterations += 1
    converged = gnorm <= _NEWTON_TOL
    return GdResult(x[None], np.array([f]), np.array([gnorm]), np.array([iterations]), np.array([converged]),
                    np.array([stalled]))


def problem_blocks(n_problems: int, per_problem: int) -> list[slice]:
    """Consecutive slices of problems whose stacked temporaries fit the block budget."""
    size = max(1, _BLOCK_ELEMENTS // max(per_problem, 1))
    return [slice(i, i + size) for i in range(0, n_problems, size)]


def log_unfinished(logger: logging.Logger, label: str, result, max_iter: int, *,
                   unit: str = "levels", note: str = "") -> None:
    """Warn once when some problems of a batch hit the iteration cap or stalled.

    ``result`` is a ``GdResult`` or an ``LpResult``; ``note`` ends the line.
    """
    capped = int(np.sum(~result.converged & ~result.stalled))
    stalled = int(np.sum(result.stalled))
    if capped or stalled:
        logger.warning(
            "%s: %d/%d %s hit max_iter=%d, %d stalled%s",
            label, capped, result.converged.size, unit, max_iter, stalled, note and f"; {note}",
        )


# The quantile LP: a level is solved once its duality gap is at most _GAP_TOL
# of its null loss, the loss of its unconditional quantile; each step goes at
# most _STEP_FRACTION of the way to the boundary (rq.fit.fnb's beta); starting
# dual slacks are at least _START_SLACK of the target's scale; a dense column
# enters the design when the part of it outside the columns before it keeps
# more than _RANK_TOL of its norm. A level stalls when _STALL_ITERATIONS
# iterations in a row leave its gap no smaller: single early ones happen while
# the iterates move away from the uncentred least-squares start.
_GAP_TOL, _STEP_FRACTION, _START_SLACK, _RANK_TOL, _STALL_ITERATIONS = 1e-8, 0.99995, 1e-6, 1e-9, 3


@dataclass
class LpResult:
    """Per-level outcome of ``fit_quantile_lp``: one row or entry per level."""

    weights: np.ndarray  # (P, d), on the columns of x
    intercepts: np.ndarray  # (P,)
    gap: np.ndarray  # (P,) duality gap over the level's null loss
    iterations: np.ndarray  # (P,)
    converged: np.ndarray  # (P,) the gap reached _GAP_TOL
    stalled: np.ndarray  # (P,) _STALL_ITERATIONS iterations in a row left the gap no smaller


@dataclass(frozen=True)
class _Design:
    """The LP's design matrix [D, R], with its rows sorted by indicator group.

    D holds the indicator columns ``indicators`` of x: the rows of group j
    are ``counts[j]`` consecutive rows from ``starts[j]``, and the
    ``counts[-1]`` rows in no group come last. R (``dense``) holds the kept
    columns of an intercept followed by the other columns of x,
    standardized; ``columns`` gives each one's column of x (-1 for the
    intercept), and ``mean`` and ``scale`` its standardization.
    """

    order: np.ndarray
    indicators: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    dense: np.ndarray
    outer: np.ndarray  # (n, m * m): each row's R_i R_i'
    columns: np.ndarray
    mean: np.ndarray
    scale: np.ndarray

    def group_sums(self, v: np.ndarray) -> np.ndarray:
        """D'v for rows ``v`` (B, n): each group's sum."""
        return np.add.reduceat(v[:, : v.shape[1] - self.counts[-1]], self.starts, axis=1)

    def transpose_dot(self, v: np.ndarray):
        """X'v for rows ``v`` (B, n), as the D and R parts."""
        return self.group_sums(v), v @ self.dense

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """X[a, b] for coefficient rows ``a`` (B, k) and ``b`` (B, m)."""
        padded = np.concatenate([a, np.zeros((a.shape[0], 1))], axis=1)  # rows in no group
        return np.repeat(padded, self.counts, axis=1) + b @ self.dense.T

    def normal(self, q: np.ndarray):
        """X'QX for row weights ``q`` (B, n): its diagonal D block, D'QR, and the Schur complement of D.

        Every temporary is (B, n) or smaller: R'QR comes from the rows' outer products.
        """
        m = self.dense.shape[1]
        g = self.group_sums(q)
        c = np.stack([self.group_sums(q * column) for column in self.dense.T], axis=2)
        s = (q @ self.outer).reshape(-1, m, m)
        s -= np.matmul(c.transpose(0, 2, 1), c / g[:, :, None])
        return g, c, s

    def solve(self, normal, v_d: np.ndarray, v_r: np.ndarray):
        """The D and R parts of (X'QX)^-1 [v_d, v_r]."""
        g, c, s = normal
        a = v_d / g
        b = np.linalg.solve(s, (v_r - np.matmul(a[:, None, :], c)[:, 0])[..., None])[..., 0]
        return a - np.matmul(c, b[..., None])[..., 0] / g, b


def _design(x: np.ndarray) -> _Design:
    """Split x into indicator columns with disjoint non-empty supports, taken in
    column order, and an intercept plus the other columns, standardized and
    kept when the part of each outside D and the kept columns before it holds
    more than _RANK_TOL of its norm: the |r_ii| of LAPACK QRs (``np.linalg.qr``)."""
    n, d = x.shape
    group = np.full(n, -1)
    indicators = []
    for j in np.flatnonzero(np.all((x == 0.0) | (x == 1.0), axis=0) & np.any(x == 1.0, axis=0)):
        support = x[:, j] == 1.0
        if np.all(group[support] < 0):
            group[support] = len(indicators)
            indicators.append(j)
    k = len(indicators)
    group[group < 0] = k
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=k + 1)
    starts = np.cumsum(counts[:k]) - counts[:k]
    others = np.setdiff1d(np.arange(d), indicators)
    rest = x[order][:, others]
    mean = np.concatenate(([0.0], rest.mean(axis=0)))
    scale = np.concatenate(([1.0], rest.std(axis=0)))
    scale[scale == 0.0] = 1.0
    columns = np.concatenate(([-1], others))
    dense = (np.hstack([np.ones((n, 1)), rest]) - mean) / scale
    # R's part outside D (each group's mean removed), with zero rows up to m: its QR has m diagonal entries
    m = dense.shape[1]
    outside = np.vstack([dense, np.zeros((max(m - n, 0), m))])
    grouped = n - counts[k]
    outside[:grouped] -= np.repeat(np.add.reduceat(dense[:grouped], starts, axis=0) / counts[:k, None],
                                   counts[:k], axis=0)
    # |r_ii| is column i's norm outside the columns before it while none of those is dependent, so each QR drops
    # the first dependent column; r keeps the columns' norms and inner products, so later QRs factor its m rows
    r, keep, least = np.linalg.qr(outside, mode="r"), np.arange(m), _RANK_TOL * np.linalg.norm(dense, axis=0)
    while (low := np.flatnonzero(np.abs(np.diag(np.linalg.qr(r[:, keep], mode="r"))) <= least[keep])).size:
        keep = np.delete(keep, low[0])
    dense = dense[:, keep]
    return _Design(order=order, indicators=np.array(indicators, dtype=int), starts=starts, counts=counts,
                   dense=dense, outer=(dense[:, :, None] * dense[:, None, :]).reshape(n, -1),
                   columns=columns[keep], mean=mean[keep], scale=scale[keep])


def _step_length(v1, dv1, v2, dv2) -> np.ndarray:
    """Per row, the step t <= 1 that goes _STEP_FRACTION of the way to the first zero of
    v1 + t dv1 or v2 + t dv2 (all v > 0), as a column (B, 1)."""
    worst = np.maximum((-dv1 / v1).max(axis=1), (-dv2 / v2).max(axis=1))  # 1 / the longest feasible step
    return np.minimum(1.0, _STEP_FRACTION / np.maximum(worst, _STEP_FRACTION))[:, None]


def fit_quantile_lp(x, y, taus, *, max_iter: int) -> LpResult:
    """Linear quantile regressions of ``y`` (n,) on ``x`` (n, d), one per level of ``taus``.

    Each level minimizes sum_i rho_tau(y_i - x_i w - b) exactly: the
    Koenker & Bassett (1978) linear program, solved through its dual by the
    Frisch-Newton interior-point method with Mehrotra's predictor-corrector
    steps (Portnoy & Koenker 1997; ``rq.fit.fnb`` in R's quantreg). The
    levels run as one batch, in blocks of bounded size. The Newton system
    X'QX is solved through the Schur complement of its indicator block,
    which is diagonal; columns that are linear combinations of earlier
    ones, and the intercept when the indicators cover every row, get weight
    0. A level stops when its duality gap is at most _GAP_TOL of its null
    loss (floored at the rounding level of the data, so that a constant
    target converges too), when the gap stalls, or after ``max_iter``
    iterations.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    taus = np.asarray(taus, dtype=float)
    design = _design(x)
    n = y.size
    # The LP solved is the regression's dual, min c'a subject to X'a = (1 - tau) X'1 and
    # 0 <= a <= 1; its own dual point eta is minus the coefficients.
    c = -y[design.order]
    y_scale = np.abs(y).max() or 1.0
    # The start: the least-squares dual point, with every slack at least _START_SLACK of the scale.
    least_squares = design.solve(design.normal(np.ones((1, n))), *design.transpose_dot(c[None]))
    r = c - design.dot(*least_squares)[0]
    z = np.maximum(r, 0.0) + _START_SLACK * y_scale
    start = (np.hstack(least_squares)[0], z, z - r)
    # Blocks of 8192 // n levels (6n floats a level): a block's levels share BLAS products, so the
    # fit's last bits depend on this partition.
    parts = [_interior_point(design, c, taus[blk], start, y_scale, max_iter)
             for blk in problem_blocks(taus.size, 6 * n)]
    beta, gap, iterations, converged, stalled = (np.concatenate(p) for p in zip(*parts))
    k = design.indicators.size
    dense = beta[:, k:] / design.scale
    weights = np.zeros((taus.size, x.shape[1]))
    weights[:, design.indicators] = beta[:, :k]
    of_x = design.columns >= 0
    weights[:, design.columns[of_x]] = dense[:, of_x]
    intercepts = dense[:, ~of_x].sum(axis=1) - dense[:, of_x] @ design.mean[of_x]
    return LpResult(weights, intercepts, gap, iterations, converged, stalled)


def _interior_point(design: _Design, c, taus, start, y_scale, max_iter):
    """Solve one block of levels from the shared ``start`` (eta, z, w).

    Returns per level: the coefficients (minus the final dual point eta),
    the relative gap, the iteration count, and the converged and stalled
    flags.
    """
    n, n_q = c.size, taus.size
    eta, z, w = (np.repeat(v[None], n_q, axis=0) for v in start)
    a = np.repeat(1.0 - taus[:, None], n, axis=1)  # the primal point: feasible by construction
    s = 1.0 - a
    y = -c
    e = y - np.quantile(y, taus, method="inverted_cdf")[:, None]
    null_loss = np.where(e >= 0.0, taus[:, None] * e, (taus[:, None] - 1.0) * e).sum(axis=1)
    scale = np.maximum(null_loss, n * np.finfo(float).eps * y_scale)
    gap = (z * a).sum(axis=1) + (w * s).sum(axis=1)
    iterations = np.zeros(n_q, dtype=int)
    converged = gap <= _GAP_TOL * scale
    stalled = np.zeros(n_q, dtype=bool)
    flat = np.zeros(n_q, dtype=int)  # iterations in a row that left the gap no smaller
    active = ~converged & (max_iter > 0)
    while (run := np.flatnonzero(active)).size:
        ar, sr, zr, wr = a[run], s[run], z[run], w[run]
        q = 1.0 / (zr / ar + wr / sr)
        r = zr - wr
        normal = design.normal(q)

        def newton(v):  # the step (d_eta, d_a) that takes the dual residual v to 0
            d_eta = design.solve(normal, *design.transpose_dot(q * v))
            return np.hstack(d_eta), q * (design.dot(*d_eta) - v)

        # predictor: the affine-scaling step
        _, da = newton(r)
        dz = -zr * (da / ar + 1.0)
        dw = -wr * (1.0 - da / sr)
        fp, fd = _step_length(ar, da, sr, -da), _step_length(zr, dz, wr, dw)
        # corrector: centre on mu, smaller the more the predictor would shrink the gap
        mu = gap[run]
        reach = ((zr + fd * dz) * (ar + fp * da)).sum(axis=1) + ((wr + fd * dw) * (sr - fp * da)).sum(axis=1)
        mu = (mu * (reach / mu) ** 3 / (2 * n))[:, None]
        dadz, dsdw = da * dz, -da * dw
        ainv, sinv = 1.0 / ar, 1.0 / sr
        xi = mu * (ainv - sinv)
        v = r + dadz - dsdw - xi
        d_eta, da = newton(v)
        dz = mu * ainv - zr - ainv * zr * da - dadz
        dw = mu * sinv - wr + sinv * wr * da - dsdw
        fp, fd = _step_length(ar, da, sr, -da), _step_length(zr, dz, wr, dw)
        a[run], s[run] = ar + fp * da, sr - fp * da
        eta[run] += fd * d_eta
        z[run], w[run] = zr + fd * dz, wr + fd * dw
        new_gap = (z[run] * a[run]).sum(axis=1) + (w[run] * s[run]).sum(axis=1)
        iterations[run] += 1
        converged[run] = new_gap <= _GAP_TOL * scale[run]
        flat[run] = np.where(new_gap < gap[run], 0, flat[run] + 1)
        stalled[run] = ~converged[run] & (flat[run] >= _STALL_ITERATIONS)
        gap[run] = new_gap
        active[run] = ~converged[run] & ~stalled[run] & (iterations[run] < max_iter)
    return -eta, gap / scale, iterations, converged, stalled
