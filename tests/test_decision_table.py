"""The array decision table against the per-position object table it replaced."""
import dataclasses
import tracemalloc

import cvar_table_oracle
import numpy as np
import pytest
from evar_oracle import oracle_evar_grid
from flat_oracle import mixture_rows

from imbtrader.backtest import leg_positions
from imbtrader.dists import DiscretePriceDistribution, MixtureForecast, flatten, regime_rows
from imbtrader.pipeline import PositionForecast, make_forecaster
from imbtrader.risk import cvar_grid, evar_bracket_rows
from imbtrader.strategy import ActionSpace, OrderBook, decision_table, default_alpha_grid, fill_cost

PAPER_GRID = ActionSpace(step=0.1, u_max=5.0)
KINDS = ("expectation", "cvar", "evar")
# |rho - reference| per measure, EUR/MWh: CVaR and the expectation repeat the
# reference's arithmetic; EVaR interpolates between the kernel's dual nodes.
RHO_TOL = {"expectation": 1e-9, "cvar": 1e-9, "evar": 1e-6}
# Alpha sets of the bit tests: fewer alphas than the 51 rows of a leg take one count per alpha, the
# others one search per row.
TABLE_ALPHAS = {
    "cvar grid": default_alpha_grid("cvar", 200),
    "sweep": np.array([0.9]),
    "few unsorted": np.array([0.5, 1.0, 0.0, 0.9, 0.5, 0.05, 1.0, 0.0, 0.3]),
    "many unsorted": np.random.default_rng(3).permutation(np.tile(np.linspace(0.0, 1.0, 30), 2)),
}


def reference_cvar_grid(dist, alphas):
    """CVaR of one canonical loss distribution per alpha: worst-alpha-mass tail average."""
    out = np.empty(alphas.shape)
    out[alphas == 0.0] = dist.max_value
    out[alphas == 1.0] = dist.mean()
    interior = (alphas > 0.0) & (alphas < 1.0)
    ai = alphas[interior]
    v, m = dist.values[::-1], dist.masses[::-1]
    cm, cmv = np.cumsum(m), np.cumsum(m * v)
    idx = np.minimum(np.searchsorted(cm, ai, side="left"), v.size - 1)
    full_mass = np.where(idx > 0, cm[np.maximum(idx - 1, 0)], 0.0)
    full_sum = np.where(idx > 0, cmv[np.maximum(idx - 1, 0)], 0.0)
    out[interior] = (full_sum + (ai - full_mass) * v[idx]) / ai
    return out


def object_table(forecast_fn, book, us, kind, alphas):
    """Reference table: one flattened, negated distribution object per position.

    Returns (fill prices, rho, phi) as the table did before it worked on
    arrays: ``flatten`` -> ``negate`` -> one risk row per position.
    """
    us = np.asarray(us, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    q = np.empty(us.size)
    rho = np.empty((us.size, alphas.size))
    for i, u in enumerate(us):
        _, q[i] = fill_cost(book, float(u))
        loss = flatten(forecast_fn(float(u))).negate()
        if kind == "expectation":
            rho[i] = loss.mean()
        elif kind == "cvar":
            rho[i] = reference_cvar_grid(loss, alphas)
        else:
            rho[i] = oracle_evar_grid(loss, alphas)
    return q, rho, (q[:, None] + rho) * us[:, None]


def uniform_dist(values):
    return DiscretePriceDistribution(values, np.full(len(values), 1.0 / len(values)))


class TestAgainstObjectTable:
    @pytest.mark.parametrize("leg", ["long", "short"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_bundle(self, trained, kind, leg):
        models, _, test_ticks = trained
        positions = leg_positions(PAPER_GRID, leg)
        alphas = default_alpha_grid(kind, 200)
        for tick in test_ticks[:12]:
            pf = make_forecaster(models, tick, 1.0)
            table = decision_table(pf, tick.book, positions, kind, alphas)
            q, rho, phi = object_table(pf, tick.book, positions, kind, alphas)
            assert np.array_equal(table.fill_prices, q)
            assert np.max(np.abs(table.rho - rho)) <= RHO_TOL[kind]
            assert np.array_equal(table.best_positions()[0], positions[np.argmin(phi, axis=0)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_atom_count_changes_with_position(self, kind):
        def fn(u):
            n = 1 + int(round(abs(u)))  # 1 to 6 down atoms, 6 to 1 up atoms
            pi = 1.0 if u == 0.0 else 0.35  # at u = 0 the up atoms carry no mass
            return MixtureForecast(pi, uniform_dist(np.linspace(20.0, 70.0, n)),
                                   uniform_dist(np.linspace(110.0, 240.0, 7 - n)))

        actions = ActionSpace(step=1.0, u_max=5.0, allow_short=True)
        book = OrderBook(asks=((85.0, 10.0),), bids=((80.0, 10.0),))
        alphas = default_alpha_grid(kind, 40)
        table = decision_table(fn, book, actions, kind, alphas)
        _, rho, phi = object_table(fn, book, actions.ordered_grid(), kind, alphas)
        assert np.max(np.abs(table.rho - rho)) <= RHO_TOL[kind]
        assert np.array_equal(table.best_positions()[0], actions.ordered_grid()[np.argmin(phi, axis=0)])


class TestCvarTableBits:
    """CVaR and expectation tables against the frozen row builder and kernel of ``cvar_table_oracle``."""

    @pytest.mark.parametrize("alphas", sorted(TABLE_ALPHAS))
    @pytest.mark.parametrize("leg", ["long", "short"])
    @pytest.mark.parametrize("kind", ["cvar", "expectation"])
    def test_trained_bundle(self, trained, kind, leg, alphas):
        models, _, test_ticks = trained
        positions, alphas = leg_positions(PAPER_GRID, leg), TABLE_ALPHAS[alphas]
        for i, tick in enumerate(test_ticks[:12]):
            pf = make_forecaster(models, tick, 1.0)
            for fn in (pf, lambda u: pf(u)) if i < 3 else (pf,):  # a plain callable builds its rows per position
                table = decision_table(fn, tick.book, positions, kind, alphas)
                rho, phi, best = cvar_table_oracle.table(fn, table.fill_prices, positions, kind, alphas)
                assert table.rho.tobytes() == rho.tobytes()
                assert table.phi.tobytes() == phi.tobytes()
                for got, want in zip(table.best_positions(), best, strict=True):
                    assert got.tobytes() == want.tobytes()


class TestEvarKernelOnTrainedBundle:
    @pytest.mark.parametrize("leg", ["long", "short"])
    def test_bracket_holds_the_oracle(self, trained, leg):
        models, _, test_ticks = trained
        positions = leg_positions(PAPER_GRID, leg)
        alphas = default_alpha_grid("evar", 200)
        for tick in test_ticks[:6]:
            pf = make_forecaster(models, tick, 1.0)
            pi, (down, m_down), (up, m_up) = pf.regime_rows(positions)
            est, lower, upper = evar_bracket_rows(np.stack([pi, 1.0 - pi], axis=1),
                                                  [(-down, m_down), (-up, m_up)], alphas)
            oracle = np.stack([oracle_evar_grid(flatten(pf(float(u))).negate(), alphas) for u in positions])
            assert np.all(lower <= est) and np.all(est <= upper)
            assert np.all(lower <= oracle + 1e-8) and np.all(oracle <= upper + 1e-8)
            assert np.max(np.abs(est - oracle)) <= 1e-6

    def test_peak_memory_of_one_table(self, trained):
        models, _, test_ticks = trained
        alphas = default_alpha_grid("evar", 200)
        pf = make_forecaster(models, test_ticks[0], 1.0)
        positions = leg_positions(PAPER_GRID, "short")
        decision_table(pf, test_ticks[0].book, positions, "evar", alphas)  # warm caches first
        tracemalloc.start()
        try:
            decision_table(pf, test_ticks[0].book, positions, "evar", alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestRowBuilders:
    @pytest.mark.parametrize("kind", KINDS)
    def test_forecast_object_and_plain_callable_agree_bit_for_bit(self, trained, kind):
        models, _, test_ticks = trained
        alphas = default_alpha_grid(kind, 200)
        for tick in test_ticks[:6]:
            for beta_est in (0.0, 0.5, 1.0):
                pf = make_forecaster(models, tick, beta_est)
                for leg in ("long", "short"):
                    positions = leg_positions(PAPER_GRID, leg)
                    a = decision_table(pf, tick.book, positions, kind, alphas)
                    b = decision_table(lambda u: pf(u), tick.book, positions, kind, alphas)
                    assert np.array_equal(a.rho, b.rho)
                    assert np.array_equal(a.phi, b.phi)

    def test_whole_tick_rows_equal_per_position_rows(self, trained):
        models, _, test_ticks = trained
        us = leg_positions(PAPER_GRID, "long")
        for tick in test_ticks[:20]:
            pf = make_forecaster(models, tick, 1.0)
            forecasts = [pf(float(u)) for u in us]
            pi, (down, m_down), (up, m_up) = rows = pf.regime_rows(us)
            ref_pi, (ref_down, ref_m_down), (ref_up, ref_m_up) = regime_rows(forecasts)
            for got, ref in zip((pi, down, m_down, up, m_up), (ref_pi, ref_down, ref_m_down, ref_up, ref_m_up)):
                assert np.array_equal(got, ref)
            assert np.array_equal(pi, [f.pi for f in forecasts])
            # Flattened as the table flattens them, the rows are those of the old flattened builder.
            values, masses = mixture_rows(forecasts)
            assert np.array_equal(np.hstack([down, up]), values)
            assert np.array_equal(np.hstack([m_down * pi[:, None], m_up * (1.0 - pi)[:, None]]), masses)

    def test_padding_keeps_each_row_distribution(self):
        forecasts = [
            MixtureForecast(0.25, uniform_dist([10.0, 20.0, 30.0]), uniform_dist([50.0])),
            MixtureForecast(1.0, uniform_dist([15.0]), uniform_dist([60.0, 70.0])),
        ]
        pi, down, up = regime_rows(forecasts)
        assert np.array_equal(pi, [0.25, 1.0])
        assert down[0].shape == (2, 3) and up[0].shape == (2, 2)
        for name, (values, masses) in (("down", down), ("up", up)):
            for f, v, m in zip(forecasts, values, masses):
                assert DiscretePriceDistribution(v[m > 0.0], m[m > 0.0]) == getattr(f, name)
                assert set(v[m == 0.0]) <= set(v[m > 0.0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_row_builder_per_table(self, trained, kind):
        class CountingForecast(PositionForecast):
            calls = {"regime_rows": 0, "__call__": 0}

            def regime_rows(self, us):
                self.calls["regime_rows"] += 1
                return super().regime_rows(us)

            def __call__(self, u):
                self.calls["__call__"] += 1
                return super().__call__(u)

        models, _, test_ticks = trained
        alphas = default_alpha_grid(kind, 200)
        for tick in test_ticks[:3]:
            rows = make_forecaster(models, tick, 1.0)
            pf = CountingForecast(models, tick.x, rows.down, rows.up, 1.0)
            for leg in ("long", "short"):
                decision_table(pf, tick.book, leg_positions(PAPER_GRID, leg), kind, alphas)
        assert CountingForecast.calls == {"regime_rows": 6, "__call__": 0}


class TestDeadRegime:
    @pytest.mark.parametrize("pi", [0.0, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_plain_callable_reads_only_the_live_regime(self, kind, pi):
        live = uniform_dist([10.0, 20.0, 40.0])
        dead = uniform_dist([-500.0, -400.0])  # its losses 400 and 500 would top every live one
        forecast = MixtureForecast(pi, live, dead) if pi == 1.0 else MixtureForecast(pi, dead, live)
        alphas = default_alpha_grid(kind, 41)
        table = decision_table(lambda u: forecast, OrderBook(asks=((30.0, 10.0),)), [0.0, 1.0, 2.0], kind, alphas)
        loss = live.negate()
        if kind == "expectation":
            np.testing.assert_allclose(table.rho, loss.mean(), rtol=0.0, atol=1e-12)
            return
        assert np.all(table.rho[:, alphas == 0.0] == -10.0)
        alone = cvar_grid(loss, alphas) if kind == "cvar" else oracle_evar_grid(loss, alphas)
        np.testing.assert_allclose(table.rho, np.broadcast_to(alone, table.rho.shape), rtol=0.0, atol=RHO_TOL[kind])


class TestTies:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["expectation", "cvar"])
    def test_decision_is_the_first_occurrence_argmin(self, kind, seed):
        # Each position u != 0 gets price atoms q(u) - a/u and q(u) - b/u with a, b multiples of 120, so at
        # alphas of powers of two every phi lies between a and b, exactly: a random table of a few integers.
        # Two random positions get a = b = -360, below every other phi: an exact tie at each column's minimum.
        rng = np.random.default_rng(seed)
        actions = ActionSpace(step=1.0, u_max=6.0, allow_short=True)
        book = OrderBook(asks=((64.0, 10.0),), bids=((60.0, 10.0),))
        plants = {float(u): 120.0 * rng.integers(-2, 2, size=2) for u in actions.ordered_grid()}
        for u in rng.choice(actions.ordered_grid()[1:], size=2, replace=False):
            plants[float(u)] = np.array([-360.0, -360.0])

        def fn(u):
            q = 64.0 if u > 0.0 else 60.0
            prices = q - plants[u] / u if u != 0.0 else [q]
            return MixtureForecast(0.5, uniform_dist(prices), uniform_dist(prices))

        alphas = np.array([0.0, 0.25, 0.5, 1.0])
        table = decision_table(fn, book, actions, kind, alphas)
        rows = np.argmin(table.phi, axis=0)
        us, qs, costs = table.best_positions()
        assert np.all(costs == -360.0) and np.all(np.sum(table.phi == costs, axis=0) == 2)
        assert np.array_equal(us, table.positions_by_size[rows])
        assert np.array_equal(qs, table.fill_prices[rows])
        assert np.array_equal(costs, table.phi[rows, np.arange(alphas.size)])
        for p in (-37.5, 0.0, 61.0, 250.0):
            assert np.array_equal(table.hindsight_losses(p), (qs - p) * us)
        for column in (us, qs, costs):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.phi = np.zeros_like(table.phi)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_ties_go_to_smallest_abs_position(self, kind):
        # Powers of two keep every risk value exact: rho = -64 = -q, so phi == 0 everywhere.
        fn = lambda u: MixtureForecast(0.5, uniform_dist([64.0]), uniform_dist([64.0]))  # noqa: E731
        actions = ActionSpace(step=0.5, u_max=5.0, allow_short=True)
        alphas = default_alpha_grid(kind, 40)
        table = decision_table(fn, OrderBook(asks=((64.0, 10.0),), bids=((64.0, 10.0),)), actions, kind, alphas)
        assert np.all(table.phi == 0.0)
        us, _, _ = table.best_positions()
        assert np.all(us == 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetric_tie_goes_to_the_short_side(self, kind):
        fn = lambda u: MixtureForecast(0.5, uniform_dist([64.0]), uniform_dist([64.0]))  # noqa: E731
        actions = ActionSpace(step=0.5, u_max=5.0, allow_short=True)
        alphas = default_alpha_grid(kind, 40)
        table = decision_table(fn, OrderBook(asks=((60.0, 10.0),), bids=((68.0, 10.0),)), actions, kind, alphas)
        us, _, costs = table.best_positions()
        assert np.all(costs == -20.0)
        assert np.all(us == -5.0)  # ordered grid: short before long at equal |u|
