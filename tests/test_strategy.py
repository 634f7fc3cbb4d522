import logging
import math
import re

import fill_oracle
import grid_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imbtrader.dists import DiscretePriceDistribution, MixtureForecast
from imbtrader.market_impact import ImpactParams
from imbtrader.risk import RiskSpec
from imbtrader.strategy import (
    ActionSpace,
    AlphaAdapter,
    InsufficientDepthError,
    OrderBook,
    TradeRecord,
    convexity_bound,
    decision_table,
    default_alpha_grid,
    fill_cost,
    fill_prices,
    newton_expected_position,
    optimal_position,
    select_alpha,
)


def point(value):
    return DiscretePriceDistribution([value], [1.0])


def uniform_dist(values):
    n = len(values)
    return DiscretePriceDistribution(values, np.full(n, 1.0 / n))


def flat_forecast(down, up, pi=0.5):
    """Position-independent forecast (beta = 0 market)."""

    def fn(u):
        return MixtureForecast(pi, down, up)

    return fn


def pipeline_forecast(eta0, w_u, impact, down0, up0):
    """Forecast with the logistic-in-position, shift-in-price structure."""

    def fn(u):
        pi = 1.0 / (1.0 + math.exp(-(eta0 + impact.beta * w_u * u)))
        return MixtureForecast(
            pi,
            down0.shift(-impact.k_mdp * impact.beta * u),
            up0.shift(-impact.k_mip * impact.beta * u),
        )

    return fn


FLAT_BOOK = OrderBook(asks=((80.0, 100.0),), bids=((79.0, 100.0),))
ACTIONS = ActionSpace(step=0.1, u_max=5.0)


class TestActionSpace:
    def test_ordered_grid_by_absolute_size(self):
        space = ActionSpace(step=0.5, u_max=1.0, allow_short=True)
        assert space.ordered_grid().tolist() == [0.0, -0.5, 0.5, -1.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        step=st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False),
        n_steps=st.integers(0, 120),
        allow_short=st.booleans(),
    )
    def test_ordered_grid_is_the_sorted_grid(self, step, n_steps, allow_short):
        space = ActionSpace(step=step, u_max=n_steps * step, allow_short=allow_short)
        assume(space.n_steps == n_steps)
        # bytes, so the sign of zero counts too
        assert space.ordered_grid().tobytes() == grid_oracle.ordered_grid(space).tobytes()

    def test_validates_multiple(self):
        with pytest.raises(ValueError):
            ActionSpace(step=0.3, u_max=1.0)
        with pytest.raises(ValueError):
            ActionSpace(step=-0.1, u_max=1.0)

    @pytest.mark.parametrize("field", ["step", "u_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ActionSpace(**{"step": 0.5, "u_max": 1.0, field: value})


class TestFillCost:
    def test_single_level(self):
        book = OrderBook(asks=((80.0, 2.0), (90.0, 3.0)))
        cost, q = fill_cost(book, 2.0)
        assert cost == pytest.approx(160.0)
        assert q == pytest.approx(80.0)

    def test_ladder_integration(self):
        book = OrderBook(asks=((80.0, 2.0), (90.0, 3.0)))
        cost, q = fill_cost(book, 3.0)
        assert cost == pytest.approx(250.0)
        assert q == pytest.approx(250.0 / 3.0)
        assert q * 3.0 == pytest.approx(cost)

    def test_zero_position(self):
        cost, q = fill_cost(FLAT_BOOK, 0.0)
        assert cost == 0.0
        assert q == 80.0

    def test_short_fills_bids(self):
        book = OrderBook(asks=((80.0, 1.0),), bids=((79.0, 2.0), (78.0, 2.0)))
        cost, q = fill_cost(book, -3.0)
        assert cost == pytest.approx(-(79.0 * 2.0 + 78.0 * 1.0))
        assert q == pytest.approx((79.0 * 2.0 + 78.0 * 1.0) / 3.0)

    def test_insufficient_depth(self):
        book = OrderBook(asks=((80.0, 1.0),))
        with pytest.raises(InsufficientDepthError):
            fill_cost(book, 2.0)

    def test_book_validation(self):
        with pytest.raises(ValueError):
            OrderBook(asks=((80.0, 2.0), (75.0, 1.0)))  # not ascending
        with pytest.raises(ValueError):
            OrderBook(bids=((80.0, 2.0), (85.0, 1.0)))  # not descending
        with pytest.raises(ValueError):
            OrderBook(asks=((80.0, 0.0),))

    @pytest.mark.parametrize("level", [(float("nan"), 5.0), (80.0, float("nan")), (float("inf"), 5.0),
                                       (80.0, float("inf"))])
    def test_non_finite_levels_rejected(self, level):
        with pytest.raises(ValueError, match="finite"):
            OrderBook(asks=(level,))
        with pytest.raises(ValueError, match="finite"):
            OrderBook(asks=((70.0, 1.0),), bids=(level,))


@st.composite
def ladders(draw, sign):
    """Up to 10 levels best first: asks (sign 1) ascend, bids (sign -1) descend."""
    n = draw(st.integers(0, 10))
    best = draw(st.floats(-300.0, 300.0))
    steps = draw(st.lists(st.floats(1e-3, 40.0), min_size=n, max_size=n))
    volumes = draw(st.lists(st.sampled_from([1.0, 6.0]) | st.floats(1e-3, 50.0), min_size=n, max_size=n))
    prices = best + sign * np.concatenate([[0.0], np.cumsum(steps)[:-1]]) if n else []
    return tuple((float(p), v) for p, v in zip(prices, volumes))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestFillOracle:
    """``fill_prices`` and ``fill_cost`` against the per-position loop of ``fill_oracle``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fills_match_the_per_position_loop(self, data):
        asks, bids = data.draw(ladders(1)), data.draw(ladders(-1))
        assume(asks or bids)
        book = OrderBook(asks=asks, bids=bids)
        # the cumulative volumes, added left to right as a fill subtracts them
        edges = [sign * edge for sign, levels in ((1.0, asks), (-1.0, bids))
                 for edge in np.cumsum([v for _, v in levels]).tolist()]
        depth = max((abs(e) for e in edges), default=1.0)
        # just past an edge: within the 1e-12 MW tolerance of a fill, and beyond it
        near = [e + math.copysign(d, e) for e in edges for d in (1e-13, 1e-10)]
        position = st.sampled_from([0.0, -0.0] + edges + near) | st.floats(-1.2 * depth, 1.2 * depth)
        us = data.draw(st.lists(position, min_size=1, max_size=12))
        try:
            expected = fill_oracle.fill_prices(asks, bids, us)
        except InsufficientDepthError as exc:
            with pytest.raises(InsufficientDepthError, match=f"^{re.escape(str(exc))}$"):
                fill_prices(book, us)
        else:
            assert bits(fill_prices(book, us)) == bits(expected)
        for u in us:
            try:
                expected = fill_oracle.fill_cost(asks, bids, u)
            except InsufficientDepthError as exc:
                with pytest.raises(InsufficientDepthError, match=f"^{re.escape(str(exc))}$"):
                    fill_cost(book, u)
            else:
                assert bits(fill_cost(book, u)) == bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_depth_adds_levels_left_to_right(self, data):
        asks, bids = data.draw(ladders(1)), data.draw(ladders(-1))
        assume(asks or bids)
        book = OrderBook(asks=asks, bids=bids)
        for side, levels in (("ask", asks), ("bid", bids)):
            assert bits(book.depth(side)) == bits(fill_oracle.depth(levels))


def trade(u: float) -> TradeRecord:
    """A trade of ``u`` MW filled at 80 EUR/MWh and settled at 100 EUR/MWh."""
    return TradeRecord(timestamp=None, leg="long", u=u, fill_price=80.0, realized_price=100.0, alpha=1.0,
                       measure="cvar")


class TestTradeProfit:
    def test_zero_position(self):
        assert trade(0.0).profit(1.0) == 0.0

    def test_long_below_the_settlement_price_profits(self):
        assert trade(1.0).profit(1.0) == 20.0

    def test_short_sign_symmetry(self):
        assert trade(-1.0).profit(1.0) == -20.0


class TestOptimalPosition:
    def test_clear_edge_maxes_out(self):
        fn = flat_forecast(point(100.0), point(100.0))
        decision = optimal_position(fn, FLAT_BOOK, RiskSpec("expectation"), ACTIONS)
        assert decision.u == pytest.approx(5.0)
        assert decision.cost == pytest.approx((80.0 - 100.0) * 5.0)

    def test_expensive_book_stays_flat(self):
        fn = flat_forecast(point(50.0), point(70.0))
        decision = optimal_position(fn, FLAT_BOOK, RiskSpec("expectation"), ACTIONS)
        assert decision.u == 0.0
        assert decision.cost == 0.0

    def test_worst_case_alpha_zero_stays_flat(self):
        # Attractive on average, but the worst supported price is below the ask.
        fn = flat_forecast(uniform_dist([50.0, 250.0]), uniform_dist([50.0, 250.0]))
        assert optimal_position(fn, FLAT_BOOK, RiskSpec("expectation"), ACTIONS).u == 5.0
        assert optimal_position(fn, FLAT_BOOK, RiskSpec("cvar", 0.0), ACTIONS).u == 0.0

    def test_tie_breaks_to_smallest_size(self):
        # Point forecast exactly at the ask: phi(u) = 0 for every u (integer
        # steps keep the average fill price exact).
        fn = flat_forecast(point(80.0), point(80.0))
        actions = ActionSpace(step=1.0, u_max=5.0)
        decision = optimal_position(fn, FLAT_BOOK, RiskSpec("expectation"), actions)
        assert decision.u == 0.0

    def test_alpha_one_identities_are_exact(self):
        rng = np.random.default_rng(6)
        actions = ActionSpace(step=0.5, u_max=5.0)
        for _ in range(25):
            down = uniform_dist(rng.normal(40.0, 30.0, size=7))
            up = uniform_dist(rng.normal(150.0, 40.0, size=7))
            impact = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.41)
            fn = pipeline_forecast(
                float(rng.normal()), float(rng.uniform(0.001, 0.02)), impact, down, up
            )
            book = OrderBook(asks=((float(rng.uniform(60, 140)), 10.0),))
            u_exp = optimal_position(fn, book, RiskSpec("expectation"), actions).u
            u_cvar = optimal_position(fn, book, RiskSpec("cvar", 1.0), actions).u
            u_evar = optimal_position(fn, book, RiskSpec("evar", 1.0), actions).u
            assert u_exp == u_cvar == u_evar

    def test_never_positive_cost(self):
        rng = np.random.default_rng(13)
        actions = ActionSpace(step=1.0, u_max=5.0, allow_short=True)
        for _ in range(30):
            down = uniform_dist(rng.normal(50.0, 30.0, size=5))
            up = uniform_dist(rng.normal(120.0, 50.0, size=5))
            fn = flat_forecast(down, up, pi=float(rng.uniform(0, 1)))
            book = OrderBook(
                asks=((float(rng.uniform(40, 160)), 10.0),),
                bids=((float(rng.uniform(20, 40)), 10.0),),
            )
            spec = RiskSpec("cvar", float(rng.uniform(0, 1)))
            decision = optimal_position(fn, book, spec, actions)
            assert decision.cost <= 0.0

    def test_more_risk_aversion_never_increases_position(self):
        down = uniform_dist([30.0, 60.0])
        up = uniform_dist([90.0, 260.0])
        fn = flat_forecast(down, up, pi=0.4)
        alphas = np.linspace(0.0, 1.0, 41)
        table = decision_table(fn, FLAT_BOOK, ACTIONS, "cvar", alphas)
        us, _, _ = table.best_positions()
        assert np.all(np.diff(us) >= 0.0)  # u* grows with alpha (less averse)


class TestDecisionTable:
    def test_phi_zero_row_for_zero_position(self):
        fn = flat_forecast(point(120.0), point(140.0))
        table = decision_table(fn, FLAT_BOOK, ACTIONS, "cvar", np.linspace(0, 1, 11))
        row0 = np.flatnonzero(table.positions_by_size == 0.0)[0]
        assert np.all(table.phi[row0] == 0.0)

    def test_hindsight_losses_replay_ladder(self):
        book = OrderBook(asks=((80.0, 2.0), (90.0, 10.0)))
        actions = ActionSpace(step=1.0, u_max=3.0)
        fn = flat_forecast(point(200.0), point(200.0))
        table = decision_table(fn, book, actions, "expectation", [1.0])
        losses = table.hindsight_losses(100.0)
        # u* = 3 at average fill (80*2 + 90)/3; loss = (q - 100) * 3
        assert losses[0] == pytest.approx((250.0 / 3.0 - 100.0) * 3.0)


class TestConvexityBound:
    def test_reference_constants(self):
        assert convexity_bound(0.40, 1.0, 0.007, 700.0) == pytest.approx(233.2362, abs=1e-3)

    def test_homogeneous_in_k(self):
        assert convexity_bound(0.80, 1.0, 0.007, 700.0) == pytest.approx(
            2.0 * convexity_bound(0.40, 1.0, 0.007, 700.0)
        )

    def test_small_beta_never_binds(self):
        assert convexity_bound(0.4, 1e-9, 0.007, 700.0) > 1e8

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            convexity_bound(0.4, 0.0, 0.007, 700.0)
        with pytest.raises(ValueError):
            convexity_bound(0.4, 1.0, 0.0, 700.0)


class TestNewton:
    IMPACT = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.4)

    def test_equal_regime_means_is_quadratic(self):
        # c_down = c_up makes phi a parabola with a known vertex.
        down, up = point(100.0), point(100.0)
        fn = pipeline_forecast(0.3, 0.007, self.IMPACT, down, up)
        book = OrderBook(asks=((98.0, 10.0),))
        actions = ActionSpace(step=0.1, u_max=5.0)
        result = newton_expected_position(fn, book, actions, self.IMPACT, 0.007)
        vertex = (100.0 - 98.0) / (2.0 * 0.4 * 1.0)
        assert result.used_newton
        assert result.u_continuous == pytest.approx(vertex, abs=1e-9)
        assert result.u == pytest.approx(2.5)

    def test_positive_derivative_at_zero_stays_flat(self):
        fn = pipeline_forecast(0.0, 0.007, self.IMPACT, point(40.0), point(60.0))
        book = OrderBook(asks=((90.0, 10.0),))
        result = newton_expected_position(fn, book, ACTIONS, self.IMPACT, 0.007)
        assert result.used_newton
        assert result.u == 0.0

    def test_agreement_with_enumeration(self):
        rng = np.random.default_rng(99)
        actions = ActionSpace(step=0.1, u_max=5.0)
        newton_hits = 0
        for _ in range(100):
            k = float(rng.uniform(0.2, 0.6))
            beta = float(rng.uniform(0.3, 1.0))
            w_u = float(rng.uniform(0.001, 0.02))
            impact = ImpactParams(beta=beta, k_mdp=k, k_mip=k)
            mean_down = float(rng.uniform(0.0, 80.0))
            gap = float(rng.uniform(50.0, 400.0))
            down = uniform_dist(mean_down + rng.uniform(-20, 20, size=9))
            up = uniform_dist(down.mean() + gap + rng.uniform(-20, 20, size=9))
            eta0 = float(rng.normal(scale=1.5))
            fn = pipeline_forecast(eta0, w_u, impact, down, up)
            pi0 = 1.0 / (1.0 + math.exp(-eta0))
            e_price = pi0 * down.mean() + (1.0 - pi0) * up.mean()
            book = OrderBook(asks=((e_price + float(rng.uniform(-4.0, 1.0)), 10.0),))
            result = newton_expected_position(fn, book, actions, impact, w_u)
            assert result.used_newton
            newton_hits += 1
            u_enum = optimal_position(fn, book, RiskSpec("expectation"), actions).u
            assert abs(result.u - u_enum) <= actions.step + 1e-9
        assert newton_hits == 100

    def test_second_derivative_positive_under_bound(self):
        down = uniform_dist([30.0, 50.0])
        up = uniform_dist([180.0, 260.0])
        w_u = 0.007
        gap = up.mean() - down.mean()  # negated-mean gap of the regimes
        bound = convexity_bound(0.4, 1.0, w_u, gap)
        assert bound > 5.0
        k, beta, bw = 0.4, 1.0, 1.0 * w_u
        for u in np.linspace(0.0, 5.0, 51):
            pi = 1.0 / (1.0 + math.exp(-(0.2 + bw * u)))
            d_pi = pi * (1.0 - pi) * bw
            dd_pi = pi * (1.0 - pi) * (1.0 - 2.0 * pi) * bw * bw
            d2 = 2.0 * k * beta + gap * (2.0 * d_pi + dd_pi * u)
            assert d2 > 0.0

    def test_fallback_on_unequal_sensitivities(self, caplog):
        impact = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.6)
        fn = pipeline_forecast(0.0, 0.007, impact, point(40.0), point(200.0))
        with caplog.at_level(logging.WARNING, logger="imbtrader.strategy"):
            result = newton_expected_position(fn, FLAT_BOOK, ACTIONS, impact, 0.007)
        assert not result.used_newton
        assert "falling back to enumeration" in caplog.text
        u_enum = optimal_position(fn, FLAT_BOOK, RiskSpec("expectation"), ACTIONS).u
        assert result.u == u_enum

    def test_fallback_on_laddered_book(self, caplog):
        impact = ImpactParams(beta=1.0, k_mdp=0.4, k_mip=0.4)
        book = OrderBook(asks=((80.0, 1.0), (90.0, 10.0)))
        fn = pipeline_forecast(0.0, 0.007, impact, point(40.0), point(200.0))
        with caplog.at_level(logging.WARNING, logger="imbtrader.strategy"):
            result = newton_expected_position(fn, book, ACTIONS, impact, 0.007)
        assert not result.used_newton


class TestAlphaGridAndAdapter:
    def test_default_grids_contain_one(self):
        for kind in ("cvar", "evar", "expectation"):
            grid = default_alpha_grid(kind)
            assert grid.size == 200
            assert grid[-1] == 1.0
            assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("kind", ["cvar", "evar"])
    def test_every_grid_size_contains_one(self, kind):
        for size in range(2, 65):
            grid = default_alpha_grid(kind, size)
            assert grid.size == size and 1.0 in grid
            assert np.all(np.diff(grid) > 0) and grid[0] >= 0.0 and grid[-1] <= 1.0

    def test_smallest_evar_grid_is_its_ends(self):
        # a one-point head used to be its start, 0.9; the adapter starts at the last alpha
        assert default_alpha_grid("evar", 2).tolist() == [0.0, 1.0]
        assert default_alpha_grid("evar", 3).tolist() == [0.0, 0.9, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_alpha_grid_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            AlphaAdapter(np.array([0.0, 0.5, bad]), window=5, kind="cvar")

    def test_warm_start_is_expectation(self):
        adapter = AlphaAdapter(np.linspace(0, 1, 11), window=5, kind="cvar")
        assert adapter.current_alpha == 1.0
        assert adapter.update() == 1.0  # no history yet

    def test_all_zero_losses_keep_previous_alpha(self):
        alphas = np.linspace(0, 1, 11)
        adapter = AlphaAdapter(alphas, window=5, kind="cvar")
        adapter._index = 3
        adapter.record(np.zeros(11))
        assert adapter.update() == pytest.approx(alphas[3])

    def test_catastrophic_loss_prefers_filtering_alphas(self):
        # alphas below 0.5 kept the strategy flat; larger alphas ate the loss.
        alphas = np.linspace(0, 1, 11)
        adapter = AlphaAdapter(alphas, window=10, kind="cvar")
        losses = np.where(alphas < 0.5, 0.0, 500.0)
        adapter.record(losses)
        adapter.record(np.where(alphas >= 0.5, -1.0, 0.0))  # small profits elsewhere
        got = adapter.update()
        assert got < 0.5

    def test_calibrated_profits_select_alpha_near_one(self):
        alphas = np.linspace(0, 1, 11)
        adapter = AlphaAdapter(alphas, window=10, kind="cvar")
        # hindsight losses decrease with alpha: bigger positions paid off
        for _ in range(6):
            adapter.record(-10.0 * alphas)
        assert adapter.update() == 1.0

    def test_tie_breaks_to_largest_when_previous_not_optimal(self):
        alphas = np.linspace(0, 1, 11)
        adapter = AlphaAdapter(alphas, window=4, kind="cvar")
        adapter._index = 0
        losses = np.zeros(11)
        losses[0] = 1.0  # previous alpha no longer a minimizer
        adapter.record(losses)
        assert adapter.update() == 1.0

    def test_window_rolls(self):
        adapter = AlphaAdapter(np.linspace(0, 1, 5), window=2, kind="cvar")
        adapter.record(np.array([0.0, 0.0, 0.0, 0.0, 9.0]))
        adapter.record(np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
        adapter.record(np.array([0.0, 0.0, 0.0, 0.0, -1.0]))  # first record expires
        assert adapter.update() == 1.0

    def test_select_alpha_shape_guard(self):
        adapter = AlphaAdapter(np.linspace(0, 1, 5), window=2, kind="cvar")
        with pytest.raises(ValueError):
            adapter.record(np.zeros(4))

    @pytest.mark.parametrize("bad, alpha", [([1.0, np.nan, 0.0, 0.0, 0.0], "0.25"),
                                            ([0.0, 0.0, np.inf, -np.inf, 0.0], "0.5")], ids=["nan", "inf pair"])
    def test_non_finite_losses_rejected_before_any_write(self, bad, alpha):
        # A NaN used to make every update() of the next `window` records raise a bare IndexError.
        adapter = AlphaAdapter(np.linspace(0, 1, 5), window=3, kind="cvar")
        adapter.record(np.array([0.0, 0.0, 0.0, -1.0, 0.0]))
        state = (adapter._end, adapter._count, adapter._buffer.copy())
        with pytest.raises(ValueError, match=rf"at alpha {alpha} is not finite"):
            adapter.record(np.array(bad))
        assert (adapter._end, adapter._count) == state[:2]
        assert np.array_equal(adapter._buffer, state[2], equal_nan=True)  # rows never written hold garbage
        assert np.array_equal(adapter.windowed_mean(), [0.0, 0.0, 0.0, -1.0, 0.0])
        assert adapter.update() == 0.75

    def test_rolling_equals_recompute_from_scratch(self):
        rng = np.random.default_rng(77)
        alphas = np.linspace(0.0, 1.0, 21)
        actions = ActionSpace(step=1.0, u_max=3.0)
        window = 15
        adapter = AlphaAdapter(alphas, window=window, kind="cvar")
        ticks = []
        for _ in range(80):
            down = uniform_dist(rng.normal(40.0, 25.0, size=4))
            up = uniform_dist(rng.normal(160.0, 40.0, size=4))
            pi = float(rng.uniform(0.1, 0.9))
            book = OrderBook(asks=((float(rng.uniform(60, 160)), 10.0),))
            realized = float(rng.normal(120.0, 60.0))
            ticks.append((flat_forecast(down, up, pi), book, realized))
        history = []
        for t, (fn, book, realized) in enumerate(ticks):
            table = decision_table(fn, book, actions, "cvar", alphas)
            losses = table.hindsight_losses(realized)
            history.append(losses)
            adapter.record(losses)
            chosen = adapter.update()
            # oracle: rebuild every window entry from scratch, no reuse
            start = max(0, t - window + 1)
            fresh = [
                decision_table(f, b, actions, "cvar", alphas).hindsight_losses(p)
                for f, b, p in ticks[start : t + 1]
            ]
            mean = np.sum(np.stack(fresh), axis=0) / len(fresh)
            assert np.array_equal(mean, adapter.windowed_mean())
            prev = adapter._index  # selection already applied; replay tie rule
            assert chosen == alphas[select_alpha(mean, alphas, prev)]
