"""Risk-optimal position selection and adaptive tuning of the risk weight.

Positions live on a finite grid of multiples of the smallest tradable
unit. For each candidate position the forecast is position-adjusted, the
cost ``phi(u) = (q(u) + rho[-p]) * u`` is evaluated, and the grid argmin is
taken; a Newton fast path covers the expectation case under the convexity
conditions. The risk weight alpha is re-tuned each settlement period from
the hindsight losses of the trailing window.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fields import count
from .dists import MixtureForecast, regime_rows
from .market_impact import ImpactParams
from .risk import RiskSpec, _check_alphas, _check_kind, cvar_rows, evar_bracket_rows, mean_rows

__all__ = [
    "ActionSpace",
    "LEGS",
    "leg_positions",
    "OrderBook",
    "InsufficientDepthError",
    "ladder_fault",
    "fill_prices",
    "fill_cost",
    "DecisionTable",
    "decision_table",
    "PositionDecision",
    "optimal_position",
    "NewtonResult",
    "newton_expected_position",
    "convexity_bound",
    "TradeRecord",
    "default_alpha_grid",
    "select_alpha",
    "AlphaAdapter",
]

logger = logging.getLogger(__name__)

ForecastFn = Callable[[float], MixtureForecast]

# Newton fast path: iteration cap, and the step (MW) below which it has converged.
_NEWTON_MAX_ITER, _NEWTON_TOL = 60, 1e-12


@dataclass(frozen=True)
class ActionSpace:
    """Finite grid of tradable positions: multiples of ``step`` up to ``u_max``."""

    step: float = 0.1
    u_max: float = 5.0
    allow_short: bool = False

    def __post_init__(self):
        for name, value in (("step", self.step), ("u_max", self.u_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        n = self.u_max / self.step
        if self.u_max < 0.0 or abs(n - round(n)) > 1e-9:
            raise ValueError(f"u_max {self.u_max} is not a multiple of step {self.step}")

    @property
    def n_steps(self) -> int:
        return int(round(self.u_max / self.step))

    def ordered_grid(self) -> np.ndarray:
        """Positions ordered by absolute size (ties: short before long): the legs interleaved.

        This is the enumeration order of the optimizer, so exact cost ties
        resolve toward the smallest absolute position.
        """
        if not self.allow_short:
            return leg_positions(self, "long")
        # [-0.0, 0.0, -s, s, ...] without the short leg's -0.0: zero is the long leg's 0.0
        return np.column_stack((leg_positions(self, "short"), leg_positions(self, "long"))).ravel()[1:]


LEGS = ("long", "short")  # the strategy legs: each a one-sided decision with its own alpha track


def leg_positions(actions: ActionSpace, leg: str) -> np.ndarray:
    """One-sided position grid of a strategy leg, ordered by absolute size; the short leg starts at -0.0."""
    if leg not in LEGS:
        raise ValueError(f"unknown leg {leg!r}; expected one of {LEGS}")
    base = np.arange(actions.n_steps + 1) * actions.step
    return base if leg == "long" else -base


class InsufficientDepthError(RuntimeError):
    """The order book cannot fill the requested volume."""


SIDES = ("ask", "bid")
LADDER_RULES = ("prices and volumes must be finite", "volumes must be positive", "prices must be strictly {}")


def ladder_fault(prices, volumes, counts, rank=None) -> tuple[tuple[int, int, int], str] | None:
    """The first level of a book stack that breaks a rule of ``LADDER_RULES``: its (book, side, level) and message.

    Books are stacked (books, 2 sides, levels), asks first and best level
    first, with each side's level count in ``counts``; asks must ascend and
    bids descend. Faults come in the ``rank`` order of their levels, else by
    book, side, rule and level, after any book without a level.
    """
    empty = np.flatnonzero(counts.sum(axis=-1) == 0)
    if empty.size:
        return (int(empty[0]), 0, 0), "order book needs at least one level"
    live = np.arange(prices.shape[-1]) < counts[..., None]
    finite = np.isfinite(prices) & np.isfinite(volumes)
    beyond = np.ones_like(live)  # a non-finite price breaks the first rule; zero keeps its neighbours' steps finite
    beyond[..., 1:] = np.diff(np.where(finite, prices, 0.0), axis=-1) * np.array([[1.0], [-1.0]]) > 0.0
    faults = np.stack([~finite, ~(volumes > 0.0), ~beyond], axis=-2) & live[..., None, :]
    book, side, rule, level = np.nonzero(faults)
    if not book.size:
        return None
    i = 0 if rank is None else np.argmin(rank[book, side, level])
    message = LADDER_RULES[rule[i]].format(("ascending", "descending")[side[i]])
    return (book[i], side[i], level[i]), f"{SIDES[side[i]]}s: {message}"


class OrderBook:
    """One book as a stack row: (2 sides, levels) ``prices`` and ``volumes``, and each side's level ``counts``.

    ``OrderBook(asks=, bids=)`` checks its (price, volume) levels, best first, with ``ladder_fault``.
    """

    __slots__ = ("prices", "volumes", "counts")

    def __init__(self, asks=(), bids=()):
        sides = (tuple(asks), tuple(bids))
        counts = np.array([len(levels) for levels in sides])
        ladder = np.zeros((2, max(counts.max(), 1), 2))  # (side, level, price or volume)
        for side, levels in enumerate(sides):
            ladder[side, : len(levels)] = np.array(levels, dtype=float).reshape(len(levels), 2)
        fault = ladder_fault(ladder[None, ..., 0], ladder[None, ..., 1], counts[None])
        if fault:
            raise ValueError(fault[1])
        self.prices, self.volumes, self.counts = ladder[..., 0], ladder[..., 1], counts

    @classmethod
    def of(cls, prices: np.ndarray, volumes: np.ndarray, counts: np.ndarray) -> "OrderBook":
        """A row of a checked stack, unchecked."""
        book = cls.__new__(cls)
        book.prices, book.volumes, book.counts = prices, volumes, counts
        return book

    def depth(self, side: str) -> float:
        # left to right, the order the fill kernel takes the levels in; np.sum adds 8 or more in another order
        return float(np.cumsum(self.volumes[SIDES.index(side)])[-1])

    def best_price(self) -> float:
        return float(self.prices[0 if self.counts[0] else 1, 0])


def fill_prices(book: OrderBook, us) -> np.ndarray:
    """Volume-weighted average fill price of each position of ``us`` (see ``fill_cost``)."""
    return _fills(book, np.asarray(us, dtype=float))[1]


def fill_cost(book: OrderBook, u: float) -> tuple[float, float]:
    """Cost and volume-weighted average price of filling ``u`` MW.

    Positive ``u`` buys from the asks, negative sells into the bids. The
    returned cost satisfies ``cost == q * u`` (negative for sales). At
    ``u == 0`` the cost is zero and the price is the best book level, kept
    for reporting continuity.
    """
    cost, q = _fills(book, np.array([u], dtype=float))
    return float(cost[0]), float(q[0])


def _fills(book: OrderBook, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed cost and average price of every position, filled in one pass over the levels.

    Each position takes ``min(volume, remaining)`` of each level of its side,
    the steps of a lone fill, so it gets a lone fill's bits; filled, it takes zero.
    """
    side, size = (us < 0.0).astype(int), np.abs(us)
    remaining, cost = size.copy(), np.zeros_like(size)
    for price, volume in zip(book.prices[side].T, book.volumes[side].T):
        take = np.minimum(volume, remaining)
        cost += price * take
        remaining -= take
    short = np.flatnonzero(remaining > 1e-12)
    if short.size:
        name = SIDES[side[short[0]]]
        raise InsufficientDepthError(f"{name} depth {book.depth(name):g} MW cannot fill {size[short[0]]:g} MW")
    q = np.divide(cost, size, out=np.full_like(size, book.best_price()), where=us != 0.0)
    return np.where(side == 1, -cost, cost), q


@dataclass(frozen=True)
class DecisionTable:
    """Cost surface of one settlement period over positions x alpha grid, and its per-alpha decision."""

    positions_by_size: np.ndarray  # grid ordered by |u| (optimizer order)
    fill_prices: np.ndarray  # q(u) per row
    rho: np.ndarray  # risk of -p per (row, alpha)
    phi: np.ndarray  # (q(u) + rho) * u per (row, alpha)
    best: tuple[np.ndarray, np.ndarray, np.ndarray]  # per alpha: u*, q(u*) and phi(u*), read-only

    def best_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-alpha optimal position, its fill price, and its cost."""
        return self.best

    def hindsight_losses(self, realized_price: float) -> np.ndarray:
        """Realized per-alpha loss (q(u*) - p) * u* once the price is known.

        This is the summand of the adaptive-alpha window; the fill price of
        each counterfactual position replays the recorded ladder.
        """
        us, qs, _ = self.best
        return (qs - realized_price) * us


def _rho_rows(kind: str, forecast_fn: ForecastFn, us: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Risk of the loss ``-p`` per (position, alpha), from the regime rows of every position.

    A forecast without ``regime_rows`` is called once per position. EVaR
    computes each regime's cumulant once for all positions; CVaR and the
    expectation flatten the regimes, down atoms then up, and sort each row.
    Every measure rejects alphas outside [0, 1] or NaN.
    """
    _check_kind(kind)
    _check_alphas(alphas)
    whole_tick = getattr(forecast_fn, "regime_rows", None)
    if whole_tick is not None:
        pi, (down, m_down), (up, m_up) = whole_tick(us)
    else:
        pi, (down, m_down), (up, m_up) = regime_rows([forecast_fn(float(u)) for u in us])
    if kind == "evar":
        return evar_bracket_rows(np.stack([pi, 1.0 - pi], axis=1), [(-down, m_down), (-up, m_up)], alphas)[0]
    split = down.shape[1]  # down atoms, then up atoms
    losses, masses = np.empty((2, us.size, split + up.shape[1]))
    np.negative(down, out=losses[:, :split])
    np.negative(up, out=losses[:, split:])
    np.multiply(m_down, pi[:, None], out=masses[:, :split])
    np.multiply(m_up, (1.0 - pi)[:, None], out=masses[:, split:])
    order = np.argsort(losses, axis=1, kind="stable")
    order += np.arange(0, losses.size, losses.shape[1])[:, None]  # flat index of each sorted atom
    losses, masses = np.take(losses, order), np.take(masses, order)
    if kind == "cvar":
        return cvar_rows(losses, masses, alphas)
    return np.repeat(mean_rows(losses, masses)[:, None], alphas.size, axis=1)


def decision_table(
    forecast_fn: ForecastFn,
    book: OrderBook,
    actions,
    kind: str,
    alphas,
) -> DecisionTable:
    """Evaluate the position cost for every grid position and alpha.

    The forecast depends on the position (decision-dependent
    distribution). The forecasts of all positions form one set of arrays
    (see ``_rho_rows``), from which the risk term of every (position,
    alpha) pair is taken. The per-alpha argmin is taken here, once, so one
    decision serves both the live trade and the adaptive-alpha
    bookkeeping. ``actions`` is an ActionSpace or an explicit position
    array already ordered by absolute size (one-sided strategy legs pass
    the latter).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    us = actions.ordered_grid() if isinstance(actions, ActionSpace) else np.asarray(actions, dtype=float)
    q = fill_prices(book, us)
    rho = _rho_rows(kind, forecast_fn, us, alphas)
    phi = (q[:, None] + rho) * us[:, None]
    rows = np.argmin(phi, axis=0)  # first occurrence wins, so exact ties resolve to the smallest |u|
    best = (us[rows], q[rows], phi[rows, np.arange(alphas.size)])
    for column in best:
        column.flags.writeable = False
    return DecisionTable(positions_by_size=us, fill_prices=q, rho=rho, phi=phi, best=best)


@dataclass(frozen=True)
class PositionDecision:
    u: float
    fill_price: float
    cost: float  # phi(u*); never positive because phi(0) = 0 is on the grid


def optimal_position(
    forecast_fn: ForecastFn,
    book: OrderBook,
    spec: RiskSpec,
    actions: ActionSpace,
) -> PositionDecision:
    """Grid argmin of the position cost for a single risk specification."""
    table = decision_table(forecast_fn, book, actions, spec.kind, [spec.alpha])
    us, qs, costs = table.best_positions()
    return PositionDecision(u=float(us[0]), fill_price=float(qs[0]), cost=float(costs[0]))


def convexity_bound(k: float, beta: float, w_u: float, mean_price_gap: float) -> float:
    """Largest position for which the expectation cost is provably convex.

    ``mean_price_gap`` is the gap between the regime mean prices (negated
    down-regulation mean minus negated up-regulation mean). All inputs must
    be positive; the bound is ``20 K / (beta * w_u^2 * gap)``.
    """
    for name, val in (("k", k), ("beta", beta), ("w_u", w_u), ("mean_price_gap", mean_price_gap)):
        if val <= 0.0:
            raise ValueError(f"{name} must be positive (zero denominator otherwise), got {val}")
    return 20.0 * k / (beta * w_u * w_u * mean_price_gap)


@dataclass(frozen=True)
class NewtonResult:
    u: float  # grid-rounded position
    u_continuous: float
    used_newton: bool
    iterations: int


def newton_expected_position(
    forecast_fn: ForecastFn,
    book: OrderBook,
    actions: ActionSpace,
    impact: ImpactParams,
    w_u: float,
) -> NewtonResult:
    """Fast path for the expectation measure on a long-only segment.

    Requires equal regime sensitivities, a single ask level covering the
    whole grid, and ``u_max`` below the convexity bound; then the cost is
    smooth and convex and projected Newton iterations on its closed-form
    derivatives converge to the continuous optimum, which is rounded to
    the grid. Violated conditions fall back to enumeration with a warning.
    """

    def _fallback(reason: str) -> NewtonResult:
        logger.warning("newton fast path unavailable (%s); falling back to enumeration", reason)
        decision = optimal_position(forecast_fn, book, RiskSpec("expectation"), actions)
        return NewtonResult(u=decision.u, u_continuous=decision.u, used_newton=False, iterations=0)

    if actions.allow_short:
        return _fallback("grid includes short positions")
    if not math.isclose(impact.k_mdp, impact.k_mip, rel_tol=1e-9, abs_tol=1e-12):
        return _fallback("regime sensitivities differ")
    if not book.counts[0] or book.volumes[0, 0] + 1e-12 < actions.u_max:
        return _fallback("order book is not a single linear ask segment over the grid")

    base = forecast_fn(0.0)
    pi0 = min(max(base.pi, 1e-15), 1.0 - 1e-15)
    eta0 = math.log(pi0 / (1.0 - pi0))
    c_down = -base.down.mean()
    c_up = -base.up.mean()
    gap = c_down - c_up
    k = impact.k_mdp
    beta = impact.beta
    ask = float(book.prices[0, 0])
    if gap < 0.0:
        return _fallback("regime mean gap is negative; convexity conditions not met")
    if gap > 0.0 and beta > 0.0 and w_u != 0.0:
        bound = convexity_bound(k, beta, abs(w_u), gap)
        if actions.u_max > bound:
            return _fallback(f"u_max {actions.u_max:g} exceeds convexity bound {bound:g}")

    bw = beta * w_u

    def derivatives(u: float) -> tuple[float, float]:
        pi = 1.0 / (1.0 + math.exp(-(eta0 + bw * u)))
        d_pi = pi * (1.0 - pi) * bw
        dd_pi = pi * (1.0 - pi) * (1.0 - 2.0 * pi) * bw * bw
        d1 = 2.0 * k * beta * u + gap * (pi + d_pi * u) + c_up + ask
        d2 = 2.0 * k * beta + gap * (2.0 * d_pi + dd_pi * u)
        return d1, d2

    d1_zero, _ = derivatives(0.0)
    if d1_zero >= 0.0:
        u_cont = 0.0
        iterations = 0
    else:
        d1_max, _ = derivatives(actions.u_max)
        if d1_max <= 0.0:
            u_cont = actions.u_max
            iterations = 0
        else:
            u = actions.u_max / 2.0
            iterations = 0
            for iterations in range(1, _NEWTON_MAX_ITER + 1):
                d1, d2 = derivatives(u)
                if d2 <= 0.0:
                    return _fallback("non-convex curvature encountered")
                u_new = min(max(u - d1 / d2, 0.0), actions.u_max)
                if abs(u_new - u) <= _NEWTON_TOL:
                    u = u_new
                    break
                u = u_new
            u_cont = u
    u_grid = min(max(round(u_cont / actions.step) * actions.step, 0.0), actions.u_max)
    return NewtonResult(u=float(u_grid), u_continuous=float(u_cont), used_newton=True, iterations=iterations)


@dataclass
class TradeRecord:
    """One settlement-period ledger entry for one strategy leg."""

    timestamp: object
    leg: str  # "long" or "short"
    u: float
    fill_price: float
    realized_price: float
    alpha: float
    measure: str

    def profit(self, delta_hours: float) -> float:
        """Realized profit in EUR for a position held one settlement period."""
        return (self.realized_price - self.fill_price) * self.u * delta_hours


def default_alpha_grid(kind: str, size: int = 200) -> np.ndarray:
    """Alpha grid for adaptive tuning; always contains 1.0.

    The entropic measure reacts mostly near alpha = 1, so its grid puts
    four fifths of the points on [0.9, 1] and a coarse tail below.
    """
    size = count("size", size, 2)
    _check_kind(kind)
    if kind == "evar":
        n_tail = max(size // 5, 1)
        tail = np.linspace(0.0, 0.9, n_tail, endpoint=False)
        head = np.linspace(0.9, 1.0, size - n_tail)
        head[-1] = 1.0  # a one-point head (size 2) is its end; a longer one ends at 1.0 already
        return np.concatenate([tail, head])
    return np.linspace(0.0, 1.0, size)


def select_alpha(mean_losses: np.ndarray, alphas: np.ndarray, previous_index: int) -> int:
    """Index of the hindsight-optimal alpha.

    Exact ties keep the previously selected alpha if it is among the
    minimizers, otherwise resolve to the largest (least risk-averse) one.
    """
    best = mean_losses.min()
    candidates = np.flatnonzero(mean_losses == best)
    if previous_index in candidates:
        return int(previous_index)
    return int(candidates[-1])


class AlphaAdapter:
    """Rolling-window tuner for the risk weight of one strategy leg.

    Each settlement period stores the hindsight loss of every grid alpha
    (positions computed once per period and reused as the window rolls);
    the next alpha minimizes the mean loss over the trailing window. Before
    any history exists the leg trades at alpha = 1 (pure expectation).
    """

    def __init__(self, alphas: np.ndarray, window: int, kind: str):
        self.window = count("window", window, 1)
        _check_kind(kind)  # the leg's measure: checked by name, though the tuning is the same for every measure
        self.alphas = np.asarray(alphas, dtype=float)
        if self.alphas.ndim != 1 or self.alphas.size < 1:
            raise ValueError("alpha grid must be a non-empty 1-D array")
        if not np.all((self.alphas >= 0.0) & (self.alphas <= 1.0)):
            raise ValueError("alpha grid must lie in [0, 1]")  # NaN fails this too
        if np.any(np.diff(self.alphas) <= 0.0):
            raise ValueError("alpha grid must be strictly increasing")
        # Each row is written at i and i + window, so the trailing window is
        # always the contiguous slice that ends at the latest write.
        self._buffer = np.empty((2 * self.window, self.alphas.size))
        self._end = 0
        self._count = 0
        ones = np.flatnonzero(self.alphas == 1.0)
        self._index = int(ones[0]) if ones.size else self.alphas.size - 1

    @property
    def current_alpha(self) -> float:
        return float(self.alphas[self._index])

    @property
    def current_index(self) -> int:
        return self._index

    def record(self, losses: np.ndarray) -> None:
        losses = np.asarray(losses, dtype=float)
        if losses.shape != self.alphas.shape:
            raise ValueError("loss vector shape does not match the alpha grid")
        finite = np.isfinite(losses)
        if not finite.all():  # one NaN would leave select_alpha no minimizer for a whole window
            j = int(np.argmin(finite))
            raise ValueError(f"loss {float(losses[j])!r} at alpha {float(self.alphas[j])!r} is not finite")
        i = self._end % self.window
        self._buffer[i] = losses
        self._buffer[i + self.window] = losses
        self._end = i + self.window + 1
        self._count = min(self._count + 1, self.window)

    def windowed_mean(self) -> np.ndarray:
        if not self._count:
            raise ValueError("no recorded losses yet")
        return np.sum(self._buffer[self._end - self._count : self._end], axis=0) / self._count

    def update(self) -> float:
        """Re-select alpha from the trailing window; returns the new value."""
        if self._count:
            self._index = select_alpha(self.windowed_mean(), self.alphas, self._index)
        return self.current_alpha
