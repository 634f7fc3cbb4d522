"""Batched gradient descent and the batched descent fits against one-problem oracles.

The oracles are the one-problem solver and per-level bank loops the package
used before its fits were batched; the batched code must reproduce them bit
for bit.
The batched descent fits are the softmax banks and the descent fit of the
linear bank, which the tests keep as the reference for its LP fit.
Newton's method runs on small problems whose outcome is known.
"""
import logging
import threading

import numpy as np
import pytest

from linear_bank_oracle import descent_linear_quantile_bank, linear_pinball_loss_and_grad_rows, on_own_columns
from imbtrader import _optim
from imbtrader._optim import GdResult, _row_dots, log_unfinished, minimize_gd, minimize_newton, problem_blocks
from imbtrader.benchmarks import fit_linear_quantile_bank
from imbtrader.data_io import SyntheticConfig, synthetic_ticks
from imbtrader.market_impact import Regime
from imbtrader.price_models import (
    FeatureScaler,
    fit_logistic,
    fit_quantile_bank,
    quantile_levels,
    quantile_loss_and_grad_rows,
)


LOSS_ROUNDING = 64 * np.finfo(float).eps
PROGRESS_TOL = 1e7 * np.finfo(float).eps


def oracle_minimize_gd(value_and_grad, x0, *, grad_tol=1e-6, max_iter=1000, initial_step=1.0,
                       armijo=1e-4, shrink=0.5, grow=2.0, min_step=1e-18, progress_tol=PROGRESS_TOL):
    """One-problem steepest descent with Armijo backtracking: (x, fun, grad_norm, iterations, converged)."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = value_and_grad(x)
    step = float(initial_step)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            return x, f, gnorm, iterations - 1, True
        gsq = float(g @ g)
        step = min(step * grow, 1e12)
        while True:
            x_new = x - step * g
            f_new, g_new = value_and_grad(x_new)
            if np.isfinite(f_new) and f_new <= f - armijo * step * gsq:
                break
            step *= shrink
            if step < min_step:
                return x, f, gnorm, iterations, False
        # the accepted step made negligible relative progress: stop there, converged
        if np.isfinite(f) and f - f_new <= progress_tol * abs(f):
            return x_new, f_new, float(np.max(np.abs(g_new))) if g_new.size else 0.0, iterations, True
        x, f, g = x_new, f_new, g_new
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    return x, f, gnorm, max_iter, gnorm <= grad_tol


def oracle_quantile_loss_and_grad(params, z, o, y, tau, n_outputs):
    n, d = z.shape
    w_mat = params[: n_outputs * d].reshape(n_outputs, d)
    b = params[n_outputs * d :]
    o_t = np.ascontiguousarray(o.T)
    logits = w_mat @ np.ascontiguousarray(z.T) + b[:, None]
    ew = np.exp(logits - logits.max(axis=0))
    weights = ew / ew.sum(axis=0)
    yhat = np.sum(weights * o_t, axis=0)
    e = y - yhat
    val = float(np.mean(np.where(e >= 0.0, tau * e, (tau - 1.0) * e)))
    dval_dyhat = -np.where(e >= 0.0, tau, tau - 1.0) / n
    dlogits = dval_dyhat * weights * (o_t - yhat)
    return val, np.concatenate([(dlogits @ z).ravel(), dlogits.sum(axis=1)])


def oracle_fit_quantile_bank(z, o, y, *, n_q, grad_tol=1e-6, max_iter=400):
    """Per-level loop: (taus, weights, biases, per-level oracle results)."""
    taus = quantile_levels(n_q)
    n_out, d = o.shape[1], z.shape[1]
    zs = FeatureScaler.fit(z).transform(z)
    weights, biases, outcomes = np.empty((n_q, n_out, d)), np.empty((n_q, n_out)), []
    residuals = y[:, None] - o
    for i, tau in enumerate(taus):
        level_loss = np.mean(
            np.where(residuals >= 0.0, tau * residuals, (tau - 1.0) * residuals), axis=0
        )
        x0 = np.zeros(n_out * d + n_out)
        x0[n_out * d + int(np.argmin(level_loss))] = 2.0
        out = oracle_minimize_gd(
            lambda p, t=tau: oracle_quantile_loss_and_grad(p, zs, o, y, t, n_out),
            x0, grad_tol=grad_tol, max_iter=max_iter,
        )
        weights[i] = out[0][: n_out * d].reshape(n_out, d)
        biases[i] = out[0][n_out * d :]
        outcomes.append(out)
    return taus, weights, biases, outcomes


def oracle_linear_pinball_loss_and_grad(params, x, y, tau):
    w, b = params[:-1], params[-1]
    e = y - (x @ w + b)
    val = float(np.mean(np.where(e >= 0.0, tau * e, (tau - 1.0) * e)))
    d = -np.where(e >= 0.0, tau, tau - 1.0) / y.size
    return val, np.concatenate([x.T @ d, [d.sum()]])


def oracle_fit_linear_quantile_bank(x, y, *, n_q, grad_tol=1e-6, max_iter=400):
    """Per-level loop: (weights, biases, per-level oracle results), on the columns of x."""
    taus = quantile_levels(n_q)
    scaler = FeatureScaler.fit(x)
    xs = scaler.transform(x)
    weights, biases, outcomes = np.empty((n_q, x.shape[1])), np.empty(n_q), []
    for i, tau in enumerate(taus):
        x0 = np.zeros(x.shape[1] + 1)
        x0[-1] = float(np.quantile(y, tau))
        out = oracle_minimize_gd(
            lambda p, t=tau: oracle_linear_pinball_loss_and_grad(p, xs, y, t),
            x0, grad_tol=grad_tol, max_iter=max_iter,
        )
        weights[i] = out[0][:-1]
        biases[i] = out[0][-1]
        outcomes.append(out)
    return *on_own_columns(weights, biases, scaler), outcomes


def batched(problems, *, nan_rejected=False):
    """A batched objective from one-problem ``(x) -> (f, g)`` callables.

    With ``nan_rejected``, a row whose value is not finite or above its bound
    gets a NaN gradient, as the bank objective gives it.
    """

    def value_and_grad(x, idx, bound):
        pairs = [problems[i](row) for i, row in zip(idx, x)]
        f, g = np.array([f for f, _ in pairs]), np.array([g for _, g in pairs])
        if nan_rejected and bound is not None:
            g[~(np.isfinite(f) & (f <= bound))] = np.nan
        return f, g

    return value_and_grad


def quadratic(scales, centre):
    scales, centre = np.asarray(scales, float), np.asarray(centre, float)

    def f(x):
        r = x - centre
        return 0.5 * float(np.sum(scales * r * r)), scales * r

    return f


def kink(x):
    """max(x, -2x) per coordinate, with the subgradient 1 at the kink."""
    return float(np.sum(np.maximum(x, -2.0 * x))), np.where(x >= 0.0, 1.0, -2.0)


def finite_only_at_origin(x):
    return (0.0 if not np.any(x) else np.nan), np.ones_like(x)


def slope(x):
    """Unbounded linear descent: every step is accepted, so the step size reaches its cap."""
    c = np.array([1e-5, -2e-5])
    return float(c @ x), c


def below_rounding(x):
    """A slope of 1e-3 on a loss of 1e12: the gradient test fails, but no step the search takes changes the loss."""
    return 1e12 + 1e-3 * float(np.sum(x)), np.full_like(x, 1e-3)


def below_rounding_near_origin(x):
    """``below_rounding`` within 1e-3 of the origin and non-finite beyond it, so the first trial is rejected."""
    return below_rounding(x) if np.max(np.abs(x)) <= 1e-3 else (np.nan, np.full_like(x, 1e-3))


def one_drop(drop):
    """A loss of 1 at the origin and 1 - ``drop`` everywhere else, with a gradient above the tolerance."""

    def f(x):
        return (1.0 if not np.any(x) else 1.0 - drop), np.full_like(x, 2e-6)

    return f


def infinite_at_origin(x):
    """``MIXED[1]``'s quadratic, except for a loss of +inf at the origin."""
    f, g = MIXED[1](x)
    return (np.inf if not np.any(x) else f), g


def newton_below_rounding():
    """Newton's method from near the optimum of a loss that rounds one unit up there, so the Armijo test fails;
    the step still lowers the gradient max-norm, so it is taken (halving steps would need four iterations)."""

    def value_and_grad(x):
        return 1.0 + 0.5 * x @ x + (0.0 if x.any() else np.finfo(float).eps), x.copy()

    return minimize_newton(value_and_grad, lambda x: np.eye(2), np.array([1e-9, 0.0]), max_iter=10)


def offset_quadratic(x):
    """A quadratic on a loss of 1e6: its loss stops moving while the gradient is still above the tolerance."""
    f, g = quadratic([1.0, 3.0], [2.0, -1.0])(x)
    return 1e6 + f, g


MIXED = [
    quadratic([1.0, 2.0], [0.5, -1.0]),  # converged at x0 = centre
    quadratic([1.0, 3.0], [2.0, -1.0]),  # converges after some steps
    quadratic([1.0, 1e3], [10.0, 10.0]),  # too ill-conditioned for the cap
    kink,  # lands on the kink in one step, then no step decreases f
    finite_only_at_origin,  # every trial step is non-finite
    slope,  # runs to the cap with the step size capped at 1e12
]
MIXED_X0 = np.array([[0.5, -1.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])


def assert_same(result: GdResult, i: int, oracle):
    x, fun, gnorm, iterations, converged = oracle
    assert np.array_equal(result.x[i], x)
    assert result.fun[i] == fun or (np.isnan(result.fun[i]) and np.isnan(fun))
    assert result.grad_norm[i] == gnorm
    assert result.iterations[i] == iterations
    assert bool(result.converged[i]) == converged


class TestMinimizeGd:
    def test_mixed_batch_matches_one_problem_oracle(self):
        result = minimize_gd(batched(MIXED), MIXED_X0, max_iter=60)
        oracles = [oracle_minimize_gd(fn, x0, max_iter=60) for fn, x0 in zip(MIXED, MIXED_X0)]
        for i, oracle in enumerate(oracles):
            assert_same(result, i, oracle)
        # the batch covers every way a problem can stop
        assert result.iterations[0] == 0 and result.converged[0]
        assert 0 < result.iterations[1] < 60 and result.converged[1]
        assert result.iterations[2] == 60 and not result.converged[2] and not result.stalled[2]
        assert np.array_equal(result.x[3], [0.0, 0.0]) and result.iterations[3] == 2
        assert result.stalled[4] and result.iterations[4] == 1
        assert result.iterations[5] == 60 and not result.converged[5]
        assert result.stalled.tolist() == [False, False, False, True, True, False]

    def test_nan_gradients_of_rejected_trials_are_never_read(self):
        result = minimize_gd(batched(MIXED, nan_rejected=True), MIXED_X0, max_iter=60)
        for i, (fn, x0) in enumerate(zip(MIXED, MIXED_X0)):
            assert_same(result, i, oracle_minimize_gd(fn, x0, max_iter=60))

    def test_accepted_step_that_leaves_the_loss_unchanged_ends_the_problem(self):
        x0 = np.array([[0.0, 0.0], MIXED_X0[1]])
        result = minimize_gd(batched([below_rounding, MIXED[1]]), x0, max_iter=60)
        assert result.iterations[0] == 1 and result.converged[0] and not result.stalled[0]
        assert result.grad_norm[0] > _optim._GRAD_TOL and result.fun[0] == 1e12
        assert np.array_equal(result.x[0], [-2e-3, -2e-3])  # the accepted point is kept
        assert_same(result, 0, oracle_minimize_gd(below_rounding, x0[0], max_iter=60))
        # the other problem of the batch runs on with the bits it has alone
        alone = minimize_gd(batched(MIXED[1:2]), x0[1:], max_iter=60)
        assert alone.iterations[0] > 1
        for name in ("x", "fun", "grad_norm", "iterations", "converged", "stalled"):
            assert np.array_equal(getattr(result, name)[1], getattr(alone, name)[0]), name

    @pytest.mark.parametrize("fn", [below_rounding_near_origin, offset_quadratic], ids=["after backtracking",
                                                                                        "after moving steps"])
    def test_flat_stop_matches_the_oracle(self, fn):
        x0 = np.zeros((1, 2))
        result = minimize_gd(batched([fn]), x0, max_iter=400)
        assert_same(result, 0, oracle_minimize_gd(fn, x0[0], max_iter=400))
        assert result.converged[0] and not result.stalled[0] and result.grad_norm[0] > _optim._GRAD_TOL
        if fn is below_rounding_near_origin:  # the trial at step 2 is rejected, the one at step 1 is flat
            assert result.iterations[0] == 1 and np.array_equal(result.x[0], [-1e-3, -1e-3])
        else:  # steps that lowered the loss came first
            assert result.iterations[0] > 1 and result.fun[0] < fn(x0[0])[0]

    @pytest.mark.parametrize("fn", [below_rounding, offset_quadratic])
    def test_flat_step_on_the_last_allowed_iteration_counts_as_converged(self, fn):
        x0 = np.zeros((1, 2))
        iterations = int(minimize_gd(batched([fn]), x0, max_iter=400).iterations[0])
        result = minimize_gd(batched([fn]), x0, max_iter=iterations)
        assert result.iterations[0] == iterations and result.converged[0] and not result.stalled[0]
        assert_same(result, 0, oracle_minimize_gd(fn, x0[0], max_iter=iterations))
        # one iteration fewer leaves the problem at the cap, short of the flat step
        short = minimize_gd(batched([fn]), x0, max_iter=iterations - 1)
        assert short.iterations[0] == iterations - 1 and not short.converged[0]

    def test_step_within_the_progress_tolerance_ends_the_problem(self):
        # from a loss of 1 the tolerance is exactly 78125 * 2**-45: a first step that lowers the loss by the
        # tolerance stops, one that lowers it by twice the tolerance runs on
        tol = _optim._PROGRESS_TOL
        x0 = np.zeros((2, 1))
        result = minimize_gd(batched([one_drop(tol), one_drop(2 * tol)]), x0, max_iter=400)
        assert result.fun.tolist() == [1.0 - tol, 1.0 - 2 * tol]
        assert result.iterations[0] == 1 and result.converged[0] and not result.stalled[0]
        assert result.iterations[1] > 1 and result.converged[1]
        for i, drop in enumerate([tol, 2 * tol]):
            assert_same(result, i, oracle_minimize_gd(one_drop(drop), x0[i], max_iter=400))

    def test_infinite_start_is_not_flat(self):
        # every finite step lowers an infinite loss by more than any band of it
        x0 = np.zeros((1, 2))
        result = minimize_gd(batched([infinite_at_origin]), x0, max_iter=60)
        assert result.iterations[0] > 1 and result.converged[0] and result.grad_norm[0] <= _optim._GRAD_TOL
        assert_same(result, 0, oracle_minimize_gd(infinite_at_origin, x0[0], max_iter=60))

    def test_descent_reads_the_progress_tolerance_and_newton_the_rounding_band(self, monkeypatch):
        assert _optim._PROGRESS_TOL == PROGRESS_TOL and _optim._LOSS_ROUNDING == LOSS_ROUNDING

        def descent():
            return minimize_gd(batched([one_drop(PROGRESS_TOL)]), np.zeros((1, 1)), max_iter=400)

        assert descent().iterations[0] == 1 and newton_below_rounding().iterations[0] == 1
        with monkeypatch.context() as patch:  # each constant moves only its own reader
            patch.setattr(_optim, "_PROGRESS_TOL", 0.0)
            assert descent().iterations[0] > 1 and newton_below_rounding().iterations[0] == 1
        monkeypatch.setattr(_optim, "_LOSS_ROUNDING", 0.0)
        assert descent().iterations[0] == 1 and newton_below_rounding().iterations[0] > 1

    def test_steps_of_negligible_progress_stop_at_the_first(self):
        # the first step on this slope lowers a loss of 1e3 by 1e-9 of it: past the rounding band, within the
        # progress tolerance, so it ends the problem (with the rounding band as the stop it would run to the cap)
        def fn(x):
            return 1e3 + 5e-4 * float(np.sum(x)), np.full_like(x, 5e-4)

        x0 = np.zeros((1, 2))
        result = minimize_gd(batched([fn]), x0, max_iter=400)
        assert result.iterations[0] == 1 and result.converged[0] and not result.stalled[0]
        gain = (fn(x0[0])[0] - result.fun[0]) / fn(x0[0])[0]
        assert LOSS_ROUNDING < gain <= PROGRESS_TOL and result.grad_norm[0] > _optim._GRAD_TOL
        assert_same(result, 0, oracle_minimize_gd(fn, x0[0], max_iter=400))

    def test_row_dots_are_one_dimensional_dot_products(self):
        g = np.random.default_rng(4).normal(size=(40, 119)) * 10.0 ** np.arange(-20, 20)[:, None]
        assert np.array_equal(_row_dots(g), [row @ row for row in g])

    def test_zero_iteration_cap_evaluates_x0_only(self):
        result = minimize_gd(batched(MIXED), MIXED_X0, max_iter=0)
        for i, (fn, x0) in enumerate(zip(MIXED, MIXED_X0)):
            assert_same(result, i, oracle_minimize_gd(fn, x0, max_iter=0))

    def test_batch_of_several_blocks_matches_one_at_a_time(self):
        rng = np.random.default_rng(7)
        n, k, d, n_q = 1200, 8, 2, 7
        z = rng.normal(size=(n, d))
        o = np.sort(rng.normal(50.0, 20.0, size=(n, k)), axis=1)
        y = o[np.arange(n), rng.integers(0, k, n)] + rng.normal(0.0, 5.0, n)
        taus = quantile_levels(n_q)
        assert len(problem_blocks(n_q, n * k)) > 1
        x0 = rng.normal(0.0, 0.5, size=(n_q, k * d + k))
        result = minimize_gd(
            lambda p, idx, bound: quantile_loss_and_grad_rows(p, z, o, y, taus[idx], k, bound), x0, max_iter=40
        )
        for i, tau in enumerate(taus):
            alone = minimize_gd(
                lambda p, _, bound: quantile_loss_and_grad_rows(p, z, o, y, taus[i : i + 1], k, bound),
                x0[i : i + 1], max_iter=40,
            )
            oracle = oracle_minimize_gd(
                lambda p: oracle_quantile_loss_and_grad(p, z, o, y, tau, k), x0[i], max_iter=40
            )
            assert_same(result, i, oracle)
            assert_same(alone, 0, oracle)


def ladder_data(seed, n, k, d):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0, 1.0, size=(n, d))
    o = np.sort(rng.normal(60.0, 25.0, size=(n, k)), axis=1)
    pick = np.clip((z[:, 0] * k).astype(int), 0, k - 1)
    y = o[np.arange(n), pick] + rng.normal(0.0, 3.0, n)
    return z, o, y


def market_data(n_periods, d):
    """Upregulation rows of a synthetic market, with d uniform model inputs."""
    ticks, _ = synthetic_ticks(SyntheticConfig(seed=3, n_periods=n_periods, price_noise_std=5.0,
                                               price_gap_std=10.0))
    mip = [t for t in ticks if t.s < 0.0]
    z = np.random.default_rng(d).uniform(0.0, 1.0, size=(len(mip), d))
    return z, np.stack([t.o for t in mip]), np.array([t.p_mip for t in mip])


def kernel_data(seed, n, k, d, n_rows):
    """Bank inputs (n, d), ladder (n, k), targets and parameter rows, with the rows' levels."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    o = np.sort(rng.normal(50.0, 20.0, size=(n, k)), axis=1)
    y = o[np.arange(n), rng.integers(0, k, n)] + rng.normal(0.0, 5.0, n)
    return z, o, y, rng.normal(0.0, 3.0, size=(n_rows, k * d + k)), quantile_levels(n_rows)


GD_FIELDS = ("x", "fun", "grad_norm", "iterations", "converged", "stalled")
# MIXED plus a second problem that converges after some steps, and one whose loss stops moving at once
ODD = MIXED + [quadratic([2.0, 1.0], [-1.0, 3.0]), below_rounding]
ODD_X0 = np.vstack([MIXED_X0, [[1.0, 1.0], [0.0, 0.0]]])


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


class TestBatchIndependence:
    """A problem's result depends only on its own objective and start, not on the batch it is solved in."""

    @pytest.mark.parametrize("picks", [range(8), range(7), range(6), [3, 4], [2], range(7, -1, -1)],
                             ids=["P8", "P7", "P6", "P2", "P1", "reversed"])
    def test_any_batch_matches_the_oracle(self, picks):
        problems, x0 = [ODD[i] for i in picks], ODD_X0[list(picks)]
        result = minimize_gd(batched(problems), x0, max_iter=60)
        for i, (fn, start) in enumerate(zip(problems, x0)):
            assert_same(result, i, oracle_minimize_gd(fn, start, max_iter=60))

    @pytest.mark.parametrize("i", range(len(ODD)))
    def test_each_problem_matches_itself_solved_alone(self, i):
        batch = minimize_gd(batched(ODD), ODD_X0, max_iter=60)
        alone = minimize_gd(batched(ODD[i : i + 1]), ODD_X0[i : i + 1], max_iter=60)
        for name in GD_FIELDS:
            got, want = getattr(batch, name)[i], getattr(alone, name)[0]
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name

    def test_objective_receives_the_running_problems_by_global_index(self):
        calls = []

        def value_and_grad(x, idx, bound):
            calls.append(idx.tolist())
            return batched(ODD)(x, idx, bound)

        result = minimize_gd(value_and_grad, ODD_X0, max_iter=60)
        assert calls[0] == list(range(8))
        for before, after in zip(calls, calls[1:]):
            assert after == sorted(after) and set(after) <= set(before)
        # converged at x0: never evaluated again; every other problem: at least one trial per iteration
        assert all(0 not in idx for idx in calls[1:]) and set().union(*calls[1:]) == set(range(1, 8))
        trials = [sum(i in idx for idx in calls[1:]) for i in range(8)]
        assert all(n_trials >= n for n_trials, n in zip(trials, result.iterations.tolist()))
        assert trials[5] == result.iterations[5] == 60  # every trial on the unbounded slope is accepted

    def test_objective_exception_reaches_the_caller(self):
        def value_and_grad(x, idx, bound):
            if bound is not None and 3 in idx:
                raise FloatingPointError("problem 3 failed")
            return batched(ODD)(x, idx, bound)

        with pytest.raises(FloatingPointError, match="problem 3 failed"):
            minimize_gd(value_and_grad, ODD_X0, max_iter=60)

    def test_fits_start_no_thread(self, thread_starts):
        z, o, y = market_data(400, 2)
        minimize_gd(batched(ODD), ODD_X0, max_iter=60)
        fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=11, max_iter=120)
        fit_linear_quantile_bank(np.hstack([z, o]), y, n_q=11, max_iter=150)
        assert thread_starts == []


def stacked_matmul_rows(params, z, o, y, taus, k):
    """The bank objective in one block, its logits from the stacked matmul of (k, d) weights and ``z.T``."""
    n, d = z.shape
    w = np.matmul(params[:, : k * d].reshape(-1, k, d), np.ascontiguousarray(z.T)) + params[:, k * d :, None]
    w = np.exp(w - w.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    o_t = np.ascontiguousarray(o.T)
    yhat = (w * o_t).sum(axis=1)
    e = y - yhat
    coef = np.where(e >= 0.0, taus[:, None], taus[:, None] - 1.0)
    dl = w * (-coef / n)[:, None] * (o_t - yhat[:, None])
    return np.mean(coef * e, axis=1), np.hstack([np.matmul(dl, z).reshape(-1, k * d), dl.sum(axis=2)])


class TestBankKernel:
    """The stacked bank objective against one-row oracle calls on (k, n) arrays summed over the ladder axis.

    With n = 1 a level's (k, 1) block is contiguous along the ladder, so numpy sums it pairwise; otherwise
    it adds the ladder columns in order. Both layouts sum in the same order either way.
    """

    @pytest.mark.parametrize("k", [3, 8, 11, 16, 17, 130])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 1500])
    def test_rows_match_the_oracle_bit_for_bit(self, k, d, n):
        z, o, y, params, taus = kernel_data(k + 10 * d + n, n, k, d, 5)
        vals, grads = quantile_loss_and_grad_rows(params, z, o, y, taus, k)
        for i, tau in enumerate(taus):
            val, grad = oracle_quantile_loss_and_grad(params[i], z, o, y, tau, k)
            assert vals[i] == val and np.array_equal(grads[i], grad)

    @pytest.mark.parametrize("n", [200, 3310])
    def test_one_feature_logits_match_the_stacked_matmul(self, n):
        # d = 1 takes its logits as an outer product; signed zeros in z and in the weights included
        z, o, y, params, taus = kernel_data(n, n, 11, 1, 9)
        z[::7] = 0.0
        z[3::7] = -0.0
        params[::2, :11] = np.where(params[::2, :11] > 0.0, 0.0, -0.0)
        vals, grads = quantile_loss_and_grad_rows(params, z, o, y, taus, 11)
        want_vals, want_grads = stacked_matmul_rows(params, z, o, y, taus, 11)
        assert vals.tobytes() == want_vals.tobytes() and grads.tobytes() == want_grads.tobytes()

    def test_rows_above_their_bound_get_values_and_nan_gradients(self):
        z, o, y, params, taus = kernel_data(3, 300, 11, 2, 9)
        vals, grads = quantile_loss_and_grad_rows(params, z, o, y, taus, 11)
        above = np.arange(9) % 3 == 1
        bound = np.where(above, np.nextafter(vals, -np.inf), vals)  # the other rows sit on their bound
        got_vals, got_grads = quantile_loss_and_grad_rows(params, z, o, y, taus, 11, bound)
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(got_grads[~above], grads[~above])
        assert np.isnan(got_grads[above]).all()


class TestBankBitIdentity:
    @pytest.mark.parametrize("d", [1, 2])
    def test_quantile_bank_matches_per_level_loop(self, d):
        z, o, y = market_data(400, d)
        bank = fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=12, max_iter=30)
        taus, weights, biases, outcomes = oracle_fit_quantile_bank(z, o, y, n_q=12, max_iter=30)
        assert np.array_equal(bank.taus, taus)
        assert np.array_equal(bank.weights, weights)
        assert np.array_equal(bank.biases, biases)
        # the data exercises levels that converge and levels that hit the cap
        assert {out[4] for out in outcomes} == {True, False}

    @pytest.mark.parametrize("d", [1, 2])
    def test_quantile_bank_matches_per_level_loop_up_to_the_flat_stop(self, d):
        z, o, y = market_data(400, d)
        bank = fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=12, max_iter=400)
        _, weights, biases, outcomes = oracle_fit_quantile_bank(z, o, y, n_q=12, max_iter=400)
        assert np.array_equal(bank.weights, weights)
        assert np.array_equal(bank.biases, biases)
        # some levels stop on the gradient test, others on a step of negligible relative progress
        assert all(out[4] for out in outcomes)
        assert min(out[2] for out in outcomes) <= 1e-6 < max(out[2] for out in outcomes)

    def test_quantile_bank_over_several_blocks(self):
        z, o, y = market_data(3000, 1)
        assert len(problem_blocks(6, o.size)) > 1
        bank = fit_quantile_bank(z[:, 0], o, y, regime=Regime.MIP, n_q=6, max_iter=40)
        _, weights, biases, outcomes = oracle_fit_quantile_bank(z, o, y, n_q=6, max_iter=40)
        assert np.array_equal(bank.weights, weights)
        assert np.array_equal(bank.biases, biases)
        assert {out[4] for out in outcomes} == {True, False}

    @pytest.mark.parametrize("n", [120, 3000])
    def test_linear_bank_matches_per_level_loop(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 4))
        y = x @ np.array([2.0, -1.0, 0.5, 0.0]) + rng.standard_t(3.0, n)
        bank = descent_linear_quantile_bank(x, y, n_q=15, max_iter=25)
        weights, biases, outcomes = oracle_fit_linear_quantile_bank(x, y, n_q=15, max_iter=25)
        assert np.array_equal(bank.weights, weights)
        assert np.array_equal(bank.biases, biases)
        assert {out[4] for out in outcomes} == {True, False}

    def test_linear_rows_match_one_row_calls(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(90, 3)), rng.normal(size=90)
        params, taus = rng.normal(size=(5, 4)), quantile_levels(5)
        vals, grads = linear_pinball_loss_and_grad_rows(params, x, y, taus)
        for i, tau in enumerate(taus):
            val, grad = oracle_linear_pinball_loss_and_grad(params[i], x, y, tau)
            assert vals[i] == val and np.array_equal(grads[i], grad)


class TestNewton:
    def test_quadratic_solved_in_one_step(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        result = minimize_newton(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), lambda x: a, np.zeros(2), max_iter=5)
        assert result.iterations.tolist() == [1] and result.converged.tolist() == [True]
        assert np.allclose(result.x[0], np.linalg.solve(a, b), rtol=0, atol=1e-15)

    def test_step_below_the_loss_rounding_is_taken_when_the_gradient_falls(self):
        result = newton_below_rounding()
        assert result.iterations.tolist() == [1] and result.converged.tolist() == [True]

    def test_singular_hessian_takes_the_least_squares_direction(self):
        # unpenalized, with a constant column and a copy of another: the Hessian is singular
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 3))
        y = (x[:, 0] + rng.logistic(size=200) > 0).astype(float)
        wide = fit_logistic(np.hstack([x, np.ones((200, 1)), x[:, :1]]), y, l2=0.0)
        narrow = fit_logistic(x, y, l2=0.0)
        assert wide.weights[3] == 0.0
        assert np.allclose(wide.weights[[0, 4]], narrow.weights[0] / 2, rtol=1e-9, atol=0)
        assert np.allclose(wide.weights[1:3], narrow.weights[1:], rtol=1e-9, atol=0)

    def test_line_search_stalls_where_the_loss_is_not_finite(self):
        result = minimize_newton(lambda x: (float(x @ x) if x[0] == 1.0 else np.nan, 2 * x), lambda x: 2 * np.eye(1),
                                 np.array([1.0]), max_iter=10)
        assert result.iterations.tolist() == [1] and result.stalled.tolist() == [True]
        assert result.x.tolist() == [[1.0]] and result.converged.tolist() == [False]


class TestFitLogging:
    def test_one_line_per_bank_with_counts(self, caplog):
        z, o, y = ladder_data(2, 150, 6, 1)
        x = np.hstack([z, o])
        with caplog.at_level(logging.WARNING):
            fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=10, max_iter=3)
            linear = _optim.fit_quantile_lp(x, y, quantile_levels(4), max_iter=2)
            fit_linear_quantile_bank(x, y, n_q=4, max_iter=2)
            fit_logistic(x, y > np.median(y), max_iter=2)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("imbtrader.price_models", "bank mip: 10/10 levels hit max_iter=3, 0 stalled"),
            ("imbtrader.benchmarks", "bank linear: 4/4 levels hit max_iter=2, 0 stalled; "
                                     f"largest relative duality gap {linear.gap.max():.1e}"),
            ("imbtrader.price_models", "logistic fit (150 rows x 7 features): 1/1 fits hit max_iter=2, 0 stalled"),
        ]
        assert linear.gap.max() > _optim._GAP_TOL

    @pytest.mark.parametrize("n_q", [12, 100])
    @pytest.mark.parametrize("d", [1, 2])
    def test_no_bank_level_runs_to_the_cap(self, caplog, d, n_q):
        # at the default cap every level converges, none stalled (a capped or stalled level logs a line): each
        # stops on its gradient or on an accepted step of negligible relative progress, by iteration 290 here;
        # with the rounding band as that stop, 2 of the 100 levels at d = 2 run to the cap
        z, o, y = market_data(400, d)
        with caplog.at_level(logging.WARNING):
            fit_quantile_bank(z, o, y, regime=Regime.MIP, n_q=n_q)
        assert caplog.records == []

    def test_counts_capped_and_stalled_and_stays_quiet_when_all_converged(self, caplog):
        logger = logging.getLogger("imbtrader.test")
        result = minimize_gd(batched(MIXED), MIXED_X0, max_iter=60)
        with caplog.at_level(logging.WARNING, logger="imbtrader.test"):
            log_unfinished(logger, "bank x", result, 60)
            done = minimize_gd(batched(MIXED[:2]), MIXED_X0[:2], max_iter=60)
            log_unfinished(logger, "bank y", done, 60)
        assert [r.getMessage() for r in caplog.records] == [
            "bank x: 2/6 levels hit max_iter=60, 2 stalled",
        ]
