"""Full-batch gradient descent with backtracking line search.

Deterministic by construction (no shuffling, no randomness), so every fit
in the package is bit-reproducible for a given dataset and initial point.
One call solves a batch of independent problems: each keeps its own step
size, iteration count and stopping state, and every round evaluates all
problems still running in one objective call. A batch is split across the
CPUs the process may use; since no problem reads another's state, every
result is the same bit for bit whatever the number of threads.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = ["GdResult", "minimize_gd", "problem_blocks", "log_unfinished"]

# Stacked objectives evaluate their problems in blocks whose largest
# temporary holds at most this many float64 elements (256 KiB), so the
# temporaries of a batch stay this small however many problems it holds.
_BLOCK_ELEMENTS = 1 << 15

# Gradient max-norm that counts as converged, and the line search: first step,
# Armijo sufficient-decrease factor, backtracking and growth factors, and the
# step below which the search stalls. Every fit in the package uses these.
_GRAD_TOL, _INITIAL_STEP, _ARMIJO, _SHRINK, _GROW, _MIN_STEP = 1e-6, 1.0, 1e-4, 0.5, 2.0, 1e-18


@dataclass
class GdResult:
    """Per-problem outcome of a batched fit: one row or entry per problem."""

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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def minimize_gd(
    value_and_grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0,
    *,
    max_iter: int = 1000,
) -> GdResult:
    """Minimize P independent differentiable objectives by steepest descent.

    ``x0`` is (P, m). ``value_and_grad(x, idx)`` takes the points (R, m) of
    the problems ``idx`` (R,) and returns their values (R,) and gradients
    (R, m). Each problem's step size backtracks until the Armijo
    sufficient-decrease condition holds and is grown geometrically after
    each accepted step, which lets the iterates cover the exponentially
    growing parameter scales that separable classification data and
    near-one-hot softmax fits produce. A problem stops on the max-norm of
    its gradient, the iteration cap, or a stalled line search.

    With W = min(P, usable CPUs) >= 2, problem i is solved in group i mod W:
    the calling thread solves group 0 and W - 1 worker threads the others,
    so ``value_and_grad`` must be safe to call from several threads at once.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    n_problems = x.shape[0]
    n_groups = min(n_problems, _usable_cpus())
    if n_groups < 2:
        return _descend(value_and_grad, x, max_iter)
    groups = [np.arange(i, n_problems, n_groups) for i in range(n_groups)]

    def solve(group: np.ndarray) -> GdResult:
        return _descend(lambda p, idx: value_and_grad(p, group[idx]), x[group], max_iter)

    with ThreadPoolExecutor(n_groups - 1) as pool:
        workers = [pool.submit(solve, group) for group in groups[1:]]
        parts = [solve(groups[0])] + [w.result() for w in workers]
    merged = {}
    for field in fields(GdResult):
        first = getattr(parts[0], field.name)
        merged[field.name] = out = np.empty((n_problems,) + first.shape[1:], first.dtype)
        for group, part in zip(groups, parts):
            out[group] = getattr(part, field.name)
    return GdResult(**merged)


def _descend(value_and_grad, x, max_iter) -> GdResult:
    """Solve the batch ``x`` (P, m) on the current thread, updating ``x`` in place."""
    n_problems = x.shape[0]
    f, g = value_and_grad(x, np.arange(n_problems))
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
        f_new, g_new = value_and_grad(x_new, running)
        ok = np.isfinite(f_new) & (f_new <= f[running] - _ARMIJO * step[running] * gsq[running])
        moved = running[ok]
        x[moved], f[moved], g[moved] = x_new[ok], f_new[ok], g_new[ok]
        iterations[moved] += 1
        gnorm[moved] = _max_norms(g[moved])
        converged[moved] = gnorm[moved] <= _GRAD_TOL
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


def problem_blocks(n_problems: int, per_problem: int) -> list[slice]:
    """Consecutive slices of problems whose stacked temporaries fit the block budget."""
    size = max(1, _BLOCK_ELEMENTS // max(per_problem, 1))
    return [slice(i, i + size) for i in range(0, n_problems, size)]


def log_unfinished(logger: logging.Logger, label: str, result: GdResult, max_iter: int) -> None:
    """Warn once when some problems of a batch hit the iteration cap or stalled."""
    capped = int(np.sum(~result.converged & ~result.stalled))
    stalled = int(np.sum(result.stalled))
    if capped or stalled:
        logger.warning(
            "%s: %d/%d levels hit max_iter=%d, %d stalled",
            label, capped, result.converged.size, max_iter, stalled,
        )
