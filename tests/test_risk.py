import numpy as np
import pytest
from evar_kernel_oracle import evar_bracket_rows as oracle_bracket_rows
from evar_oracle import oracle_evar_grid
from flat_oracle import cvar_rows as per_row_cvar_rows
from flat_oracle import evaluate, risk_of_negated_price
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imbtrader import risk
from imbtrader.data_io import SyntheticConfig, load_dataset, write_synthetic_dataset
from imbtrader.dists import DiscretePriceDistribution, MixtureForecast, flatten, regime_rows
from imbtrader.pipeline import attach_z, make_forecaster, train_models
from imbtrader.risk import RiskSpec, cvar, cvar_grid, cvar_rows, evar, evar_bracket_rows, evar_grid
from imbtrader.strategy import ActionSpace, OrderBook, decision_table, default_alpha_grid, leg_positions


def uniform_dist(values):
    n = len(values)
    return DiscretePriceDistribution(values, np.full(n, 1.0 / n))


def random_dist(rng, max_atoms=50, scale=100.0):
    n = int(rng.integers(2, max_atoms + 1))
    masses = rng.random(n) + 1e-3
    return DiscretePriceDistribution(rng.normal(scale=scale, size=n), masses / masses.sum())


def cvar_program_oracle(dist, alpha):
    """Direct minimization of s + E[Z - s]_+ / alpha over a dense s grid.

    The infimum is attained at an atom value, so including the support in
    the grid makes the oracle exact up to float arithmetic.
    """
    grid = np.union1d(dist.values, np.linspace(dist.min_value, dist.max_value, 2001))
    excess = np.clip(dist.values[None, :] - grid[:, None], 0.0, None) @ dist.masses
    return float(np.min(grid + excess / alpha))


class TestCvar:
    def test_alpha_one_is_expectation(self):
        assert cvar(uniform_dist([1.0, 2.0, 3.0, 4.0]), 1.0) == pytest.approx(2.5)

    def test_alpha_zero_is_max(self):
        assert cvar(uniform_dist([1.0, 2.0, 3.0, 4.0]), 0.0) == 4.0

    def test_half_tail_average(self):
        assert cvar(uniform_dist([1.0, 2.0, 3.0, 4.0]), 0.5) == pytest.approx(3.5)

    def test_fractional_boundary_atom(self):
        d = DiscretePriceDistribution([0.0, 1.0], [0.5, 0.5])
        # worst 0.6 mass: all of atom 1 plus 0.1 of atom 0
        assert cvar(d, 0.6) == pytest.approx((0.5 * 1.0 + 0.1 * 0.0) / 0.6)

    def test_matches_program_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = random_dist(rng)
            alpha = float(rng.uniform(0.02, 0.98))
            assert cvar(d, alpha) == pytest.approx(cvar_program_oracle(d, alpha), abs=1e-6)

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(2)
        d = random_dist(rng)
        alphas = np.linspace(0.0, 1.0, 41)
        grid = cvar_grid(d, alphas)
        for a, v in zip(alphas, grid):
            assert cvar(d, float(a)) == v


class TestEvar:
    def test_point_mass_any_alpha(self):
        d = DiscretePriceDistribution([7.5], [1.0])
        for alpha in (0.0, 0.3, 1.0):
            assert evar(d, alpha) == 7.5

    def test_two_atom_squeeze(self):
        d = DiscretePriceDistribution([0.0, 1.0], [0.5, 0.5])
        # cvar(0.5) = 1 and max = 1 squeeze evar to 1
        assert evar(d, 0.5) == pytest.approx(1.0, abs=1e-8)

    def test_alpha_limits_exact(self):
        d = uniform_dist([1.0, 5.0, 9.0])
        assert evar(d, 1.0) == d.mean()
        assert evar(d, 0.0) == 9.0

    def test_ordering_against_cvar_and_max(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = random_dist(rng, max_atoms=30)
            alpha = float(rng.uniform(0.01, 0.99))
            ev = evar(d, alpha)
            assert d.mean() <= ev + 1e-8
            assert cvar(d, alpha) <= ev + 1e-8
            assert ev <= d.max_value + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_dist(rng, max_atoms=20, scale=10.0)
            alpha = float(rng.uniform(0.05, 0.95))
            b = float(rng.normal(scale=50.0))
            assert evar(d.shift(b), alpha) == pytest.approx(evar(d, alpha) + b, abs=1e-8)
            assert cvar(d.shift(b), alpha) == pytest.approx(cvar(d, alpha) + b, abs=1e-10)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dist(rng, max_atoms=20, scale=10.0)
            alpha = float(rng.uniform(0.05, 0.95))
            a = float(rng.uniform(0.1, 5.0))
            assert evar(d.scale(a), alpha) == pytest.approx(a * evar(d, alpha), rel=1e-8, abs=1e-10)
            assert cvar(d.scale(a), alpha) == pytest.approx(a * cvar(d, alpha), rel=1e-10, abs=1e-12)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(17)
        alphas = np.linspace(0.0, 1.0, 21)
        for _ in range(100):
            d = random_dist(rng, max_atoms=25)
            ev = [evar(d, float(a)) for a in alphas]
            cv = cvar_grid(d, alphas)
            assert all(a >= b - 1e-8 for a, b in zip(ev, ev[1:]))
            assert all(a >= b - 1e-10 for a, b in zip(cv, cv[1:]))

    def test_subadditive_on_shared_sample_space(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(3, 12))
            probs = rng.random(n) + 1e-3
            probs /= probs.sum()
            z1 = rng.normal(scale=20.0, size=n)
            z2 = rng.normal(scale=20.0, size=n)
            d1 = DiscretePriceDistribution(z1, probs)
            d2 = DiscretePriceDistribution(z2, probs)
            d12 = DiscretePriceDistribution(z1 + z2, probs)
            alpha = float(rng.uniform(0.05, 0.95))
            assert evar(d12, alpha) <= evar(d1, alpha) + evar(d2, alpha) + 1e-7
            assert cvar(d12, alpha) <= cvar(d1, alpha) + cvar(d2, alpha) + 1e-9


class TestEvarGrid:
    def test_matches_one_dimensional_solver(self):
        # The oracle is the ternary search of the dual program; the kernel's bracket must hold it.
        rng = np.random.default_rng(5)
        alphas = np.concatenate([[0.0], np.sort(rng.uniform(0.001, 0.999, 40)), [1.0]])
        for _ in range(50):
            d = random_dist(rng)
            est, lower, upper = evar_bracket_rows(np.ones((1, 1)), [(d.values[None], d.masses[None])], alphas)
            oracle = oracle_evar_grid(d, alphas)
            assert np.all(lower <= est) and np.all(est <= upper)
            assert np.all(lower <= oracle + 1e-8) and np.all(oracle <= upper + 1e-8)
            assert np.max(np.abs(est[0] - oracle)) <= 1e-6
            assert np.array_equal(est[0], evar_grid(d, alphas))
            assert all(evar(d, float(a)) == v for a, v in zip(alphas[::8], est[0, ::8]))

    def test_boundary_alphas_exact(self):
        d = uniform_dist([1.0, 2.0, 8.0])
        out = evar_grid(d, np.array([0.0, 0.5, 1.0]))
        assert out[0] == d.max_value
        assert out[2] == d.mean()

    def test_never_below_cvar(self):
        rng = np.random.default_rng(14)
        alphas = np.linspace(0.0, 1.0, 50)
        for _ in range(25):
            d = random_dist(rng)
            assert np.all(evar_grid(d, alphas) >= cvar_grid(d, alphas) - 1e-9)


def mixture_bracket(forecasts, alphas):
    """EVaR kernel on the loss regimes of price mixtures, as ``decision_table`` calls it."""
    pi, (down, m_down), (up, m_up) = regime_rows(forecasts)
    return evar_bracket_rows(np.stack([pi, 1.0 - pi], axis=1), [(-down, m_down), (-up, m_up)], alphas)


class TestEvarKernel:
    def test_mixture_rows_match_the_flattened_oracle(self):
        rng = np.random.default_rng(6)
        alphas = np.linspace(0.0, 1.0, 31)
        # Equal masses: shifted up regimes may share the first row's cumulant, scaled down regimes may not.
        down, up = random_dist(rng, 20), random_dist(rng, 20)
        forecasts = [MixtureForecast(0.4, down.scale(c), up.shift(50.0 * c)) for c in (1.0, 0.5, 2.0, 3.0)]
        forecasts += [MixtureForecast(float(rng.uniform()), random_dist(rng, 20), random_dist(rng, 20))
                      for _ in range(6)]
        est, lower, upper = mixture_bracket(forecasts, alphas)
        for f, e, lo, hi in zip(forecasts, est, lower, upper):
            oracle = oracle_evar_grid(flatten(f).negate(), alphas)
            assert np.max(np.abs(e - oracle)) <= 1e-6
            assert np.all(lo <= oracle + 1e-8) and np.all(oracle <= hi + 1e-8)

    @pytest.mark.parametrize("pi", [0.0, 1.0])
    def test_zero_weight_regime_never_sets_the_max(self, pi):
        live = uniform_dist([10.0, 20.0, 40.0])
        dead = uniform_dist([-500.0, -400.0])  # its losses 400 and 500 would top every live one
        f = MixtureForecast(pi, live, dead) if pi == 1.0 else MixtureForecast(pi, dead, live)
        alphas = np.linspace(0.0, 1.0, 21)
        est, lower, upper = mixture_bracket([f], alphas)
        alone = evar_grid(live.negate(), alphas)
        assert est[0, 0] == -10.0
        np.testing.assert_allclose(est[0], alone, rtol=0.0, atol=1e-12)
        assert np.all(upper[0] <= -10.0)

    def test_zero_spread_rows_give_exactly_the_max(self):
        point = DiscretePriceDistribution([64.0], [1.0])
        spread = uniform_dist([30.0, 90.0])
        alphas = np.linspace(0.0, 1.0, 41)
        est, lower, upper = mixture_bracket([MixtureForecast(0.3, point, point),
                                             MixtureForecast(0.3, spread, spread)], alphas)
        for part in (est, lower, upper):
            assert np.all(part[0] == -64.0)

    def test_zero_mass_padding_is_ignored(self):
        rng = np.random.default_rng(8)
        alphas = np.linspace(0.0, 1.0, 26)
        for _ in range(10):
            d = random_dist(rng, 15)
            k = d.n_atoms
            values = np.concatenate([d.values, [d.max_value + 1e6, d.min_value - 1e6, d.values[0]]])
            masses = np.concatenate([d.masses, np.zeros(3)])
            order = rng.permutation(k + 3)
            padded = evar_bracket_rows(np.ones((1, 1)), [(values[None, order], masses[None, order])], alphas)[0][0]
            np.testing.assert_allclose(padded, evar_grid(d, alphas), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("values, masses", [([0.0, 1.0], [0.95, 0.05]), ([0.0, 1.0], [0.3, 0.7]),
                                                ([0.0, 1.0 - 1e-4, 1.0], [0.5, 0.3, 0.2]),
                                                ([0.0, 1.0 - 1e-6, 1.0], [0.5, 0.3, 0.2])])
    def test_top_mass_near_alpha(self, values, masses):
        # From alpha = P(max atom) down the value is the max atom. Just above it the dual
        # minimizer is large, and with an atom close below the max it lies past the last node.
        d = DiscretePriceDistribution(values, masses)
        alphas = d.masses[-1] * np.array([1 - 1e-3, 1 - 1e-12, 1, 1 + 1e-12, 1 + 1e-6, 1 + 1e-3, 1.1, 1.4])
        est, lower, upper = evar_bracket_rows(np.ones((1, 1)), [(d.values[None], d.masses[None])], alphas)
        oracle = oracle_evar_grid(d, alphas)
        assert np.all(est[0, :3] == d.max_value)
        assert np.all(est[0] <= d.max_value)
        assert np.max(np.abs(est[0] - oracle)) <= 1e-6
        assert np.all(lower[0] <= oracle + 1e-8) and np.all(oracle <= upper[0] + 1e-8)


class TestNonFiniteAlpha:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_by_every_measure(self, bad):
        d = uniform_dist([1.0, 2.0, 4.0])
        alphas = np.array([0.2, bad, 0.9])
        for fn in (cvar_grid, evar_grid):
            with pytest.raises(ValueError, match="alpha"):
                fn(d, alphas)
        for fn in (cvar, evar):
            with pytest.raises(ValueError, match="alpha"):
                fn(d, bad)
        with pytest.raises(ValueError):
            RiskSpec("evar", bad)


def table_rho(forecast, spec):
    """Risk of the negated price as ``decision_table`` reads it, for a forecast that ignores u."""
    table = decision_table(lambda u: forecast, OrderBook(asks=((1.0, 1.0),)), np.zeros(1), spec.kind, [spec.alpha])
    return float(table.rho[0, 0])


class TestRiskOfNegatedPrice:
    """The decision table's risk term against the per-object oracle."""

    def test_point_mass_price(self):
        m = MixtureForecast(
            0.5, DiscretePriceDistribution([100.0], [1.0]), DiscretePriceDistribution([100.0], [1.0])
        )
        for spec in (RiskSpec("expectation"), RiskSpec("cvar", 0.5), RiskSpec("evar", 0.5)):
            assert risk_of_negated_price(m, spec) == pytest.approx(-100.0, abs=1e-8)
            assert table_rho(m, spec) == pytest.approx(-100.0, abs=1e-8)

    def test_expectation_is_negated_mean(self):
        m = MixtureForecast(
            0.3, uniform_dist([10.0, 30.0]), uniform_dist([100.0, 300.0])
        )
        for got in (risk_of_negated_price(m, RiskSpec("expectation")), table_rho(m, RiskSpec("expectation"))):
            assert got == pytest.approx(-(0.3 * 20.0 + 0.7 * 200.0))

    def test_two_atom_cvar_example(self):
        m = MixtureForecast(
            0.5, DiscretePriceDistribution([0.0], [1.0]), DiscretePriceDistribution([200.0], [1.0])
        )
        # losses {-200: .5, 0: .5}; worst half is the 0 atom
        assert risk_of_negated_price(m, RiskSpec("cvar", 0.5)) == pytest.approx(0.0)
        assert table_rho(m, RiskSpec("cvar", 0.5)) == pytest.approx(0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RiskSpec("var", 0.5)
        with pytest.raises(ValueError):
            RiskSpec("cvar", 1.5)

    def test_evaluate_dispatch(self):
        d = uniform_dist([1.0, 3.0])
        m = MixtureForecast(1.0, d.negate(), d.negate())  # the loss -p is d
        for spec, want in ((RiskSpec("expectation"), 2.0), (RiskSpec("cvar", 0.5), 3.0), (RiskSpec("evar", 0.0), 3.0)):
            assert evaluate(d, spec) == want
            assert table_rho(m, spec) == want


class TestCvarRows:
    def test_zero_mass_atoms_count_for_nothing(self):
        # The atoms at 500 and -50 carry no mass, as in a flattened mixture whose regime has weight 0.
        values = np.array([[-50.0, -40.0, -20.0, -10.0, 500.0]])
        masses = np.array([[0.0, 1 / 3, 1 / 3, 1 / 3, 0.0]])
        alphas = np.linspace(0.0, 1.0, 21)
        got = cvar_rows(values, masses, alphas)[0]
        assert got[0] == -10.0
        np.testing.assert_allclose(got, cvar_grid(uniform_dist([-40.0, -20.0, -10.0]), alphas), rtol=0.0, atol=1e-12)


# Alphas at the edges of [0, 1] and of the float range inside it.
EDGE_ALPHAS = (0.0, 1.0, float(np.nextafter(1.0, 0.0)), 5e-324)


@st.composite
def loss_rows(draw):
    """Ascending loss rows with repeated atoms and zero masses, and alphas that include partial masses."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 12))
    values = np.sort(np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                                            min_size=n, max_size=n)), dtype=float), axis=1)
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                     min_size=n, max_size=n)), dtype=float)
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    masses = weights / weights.sum(axis=1, keepdims=True)
    # The kernel's partial masses of one row, so some alphas equal a cumsum exactly.
    partial = np.cumsum(masses[draw(st.integers(0, n - 1)), ::-1])
    alpha = st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(0.0, 1.0),
                      st.sampled_from([float(c) for c in partial if 0.0 < c < 1.0] or [0.5]))
    alphas = draw(st.lists(alpha, min_size=1, max_size=6))
    alphas += draw(st.lists(st.sampled_from(alphas), max_size=3))  # duplicates, in any order
    return values, masses, np.array(alphas)


class TestCvarTailIndex:
    """The tail index as a count of partial masses below alpha against one searchsorted per row."""

    @settings(deadline=None, max_examples=200)
    @given(loss_rows())
    def test_bits_equal_the_per_row_kernel(self, case):
        values, masses, alphas = case
        n = values.shape[0]
        few = alphas[: n - 1]  # fewer alphas than rows: one count per alpha
        many = np.resize(alphas, max(n, alphas.size))  # at least as many: one searchsorted per row
        assert few.size < n <= many.size
        for a in (few, many):
            assert np.array_equal(cvar_rows(values, masses, a), per_row_cvar_rows(values, masses, a))

    def test_alpha_at_a_partial_mass_ends_the_tail_at_that_atom(self):
        # At alpha = the mass of the two worst atoms, the tail taken as the worst atom plus alpha
        # minus its mass of the second, and the tail of both plus a zero-length slice of the third,
        # give the same CVaR but not the same bits. searchsorted(..., "left") takes the first.
        values = np.array([[-1.3, 1.0, 1.3, 6.4]] * 3)
        masses = np.array([[2.0, 7.0, 6.0, 8.0]] * 3) / 23.0
        worst = masses[0, 3]
        alpha = np.cumsum(masses[0, ::-1])[1]
        got = cvar_rows(values, masses, [alpha])
        assert np.array_equal(got, per_row_cvar_rows(values, masses, [alpha]))
        assert np.all(got == (worst * 6.4 + (alpha - worst) * 1.3) / alpha)
        assert np.all(got != (worst * 6.4 + masses[0, 2] * 1.3) / alpha)


class TestAlphaChecksInTables:
    @pytest.mark.parametrize("kind", ["expectation", "cvar", "evar"])
    @pytest.mark.parametrize("alphas", [[np.nan, 2.0], [0.5, np.nan], [0.5, 2.0], [-0.1]])
    def test_every_measure_rejects_bad_alphas(self, kind, alphas):
        f = MixtureForecast(0.5, uniform_dist([10.0, 30.0]), uniform_dist([100.0, 300.0]))
        with pytest.raises(ValueError, match="alpha"):
            decision_table(lambda u: f, OrderBook(asks=((1.0, 5.0),)), ActionSpace(step=1.0, u_max=2.0), kind, alphas)


def assert_same_bits(got, want):
    """Estimate, lower and upper bound equal, signs of zero included."""
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


@pytest.fixture(scope="module")
def seed1_legs(tmp_path_factory):
    """EVaR kernel inputs of both legs at the first two replay ticks of perfbench's seed-1 market and bundle."""
    cfg = SyntheticConfig(seed=1, n_periods=15 * 96, price_noise_std=8.0, price_gap_std=5.0)
    workdir = tmp_path_factory.mktemp("seed1")
    write_synthetic_dataset(workdir, cfg)
    ticks = load_dataset(workdir, cfg.grid)
    models = train_models(ticks[:384], grid=cfg.grid, n_q=100, kfold=5, l2=1e-4, u_max=5.0, seed=1,
                          logistic_max_iter=2000, bank_max_iter=400)
    legs = []
    for tick in attach_z(ticks[384:386], models):
        forecast = make_forecaster(models, tick, 1.0)
        for leg in ("long", "short"):
            pi, (down, m_down), (up, m_up) = forecast.regime_rows(leg_positions(ActionSpace(), leg))
            legs.append((np.stack([pi, 1.0 - pi], axis=1), [(-down, m_down), (-up, m_up)]))
    return legs


def stacked(legs):
    """One call's inputs holding the rows of every leg."""
    weights = np.concatenate([w for w, _ in legs])
    regimes = [tuple(np.concatenate([r[g][i] for _, r in legs]) for i in range(2)) for g in range(2)]
    return weights, regimes


GRIDS = {"evar": default_alpha_grid("evar"), "cvar": default_alpha_grid("cvar")}


def oracle_mixture_bracket(forecasts, alphas):
    """``mixture_bracket`` on the kernel that computes every node."""
    pi, (down, m_down), (up, m_up) = regime_rows(forecasts)
    return oracle_bracket_rows(np.stack([pi, 1.0 - pi], axis=1), [(-down, m_down), (-up, m_up)], alphas)


class TestEvarKernelBits:
    """The node window and the per-(row, alpha) pass against the kernel that computed every node."""

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_benchmark_legs(self, seed1_legs, grid):
        for weights, regimes in seed1_legs:
            assert_same_bits(evar_bracket_rows(weights, regimes, GRIDS[grid]),
                             oracle_bracket_rows(weights, regimes, GRIDS[grid]))

    def test_the_evar_grid_skips_nodes(self):
        # The window's first node for the EVaR grid's largest interior alpha, 1 - 0.1 / 159.
        t_min = -np.log(GRIDS["evar"][-2])
        assert risk._nodes(1.0, t_min)[1] == 120

    @pytest.mark.parametrize("alphas", [
        1.0 - np.array([1e-16, 1e-12, 1e-9, 1e-7]),  # t_min below node 0: no node skipped
        np.array([float(np.nextafter(1.0, 0.0)), 0.5, 1e-3]),
        np.array([1e-300, 1e-30, 1e-9]),  # most nodes skipped, most rows past t_max
    ], ids=["near one", "next to one and below", "tiny"])
    def test_alphas_at_the_ends(self, seed1_legs, alphas):
        for weights, regimes in seed1_legs[:2]:
            assert_same_bits(evar_bracket_rows(weights, regimes, alphas), oracle_bracket_rows(weights, regimes, alphas))
        if alphas[0] > 0.5:
            assert risk._nodes(1.0, -np.log(alphas.max()))[1] == 0

    def test_rows_past_t_max_give_the_max(self):
        # The largest losses, 3 and 10, have masses 1/6 and 0.3: alphas below them are past t_max.
        alphas = np.array([0.05, 0.2, 0.29, 0.31, 0.45, 0.6, 0.9])
        forecasts = [
            MixtureForecast(0.5, uniform_dist([-3.0, -1.0, 0.0]), DiscretePriceDistribution([-1.0, 0.0], [0.5, 0.5])),
            MixtureForecast(1.0, DiscretePriceDistribution([-10.0, 0.0, 5.0], [0.3, 0.4, 0.3]), uniform_dist([1.0])),
        ]
        got = mixture_bracket(forecasts, alphas)
        assert_same_bits(got, oracle_mixture_bracket(forecasts, alphas))
        assert np.all(got[0][1, :2] == 10.0)

    def test_regimes_that_are_not_translates(self):
        rng = np.random.default_rng(6)
        forecasts = [MixtureForecast(float(rng.uniform()), random_dist(rng, 20), random_dist(rng, 20))
                     for _ in range(40)]
        for alphas in GRIDS.values():
            assert_same_bits(mixture_bracket(forecasts, alphas), oracle_mixture_bracket(forecasts, alphas))

    def test_zero_weights_and_zero_spreads(self):
        point, live = DiscretePriceDistribution([64.0], [1.0]), uniform_dist([30.0, 90.0, 95.0])
        dead = uniform_dist([-500.0, -400.0])
        forecasts = [MixtureForecast(0.0, dead, live), MixtureForecast(1.0, live, dead),
                     MixtureForecast(0.3, point, point), MixtureForecast(0.7, live, live.shift(2.0)),
                     MixtureForecast(0.0, point, point)]
        for alphas in (*GRIDS.values(), np.linspace(0.0, 1.0, 21)):
            assert_same_bits(mixture_bracket(forecasts, alphas), oracle_mixture_bracket(forecasts, alphas))
            assert_same_bits(mixture_bracket(forecasts[2:3], alphas), oracle_mixture_bracket(forecasts[2:3], alphas))

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_random_mixtures(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 30))
        alphas = np.array(data.draw(st.lists(st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(0.0, 1.0)),
                                             min_size=1, max_size=8)))
        weights = rng.choice([0.0, 0.3, 1.0], size=n) if data.draw(st.booleans()) else rng.uniform(size=n)
        # Up regimes are random or translates of one law, so some calls share its cumulant and some do not.
        ups = [random_dist(rng, 6) if rng.uniform() < 0.5 else uniform_dist([2.0, 7.0]).shift(float(w))
               for w in weights]
        forecasts = [MixtureForecast(float(w), random_dist(rng, 6, float(rng.choice([1.0, 100.0]))), up)
                     for w, up in zip(weights, ups)]
        assert_same_bits(mixture_bracket(forecasts, alphas), oracle_mixture_bracket(forecasts, alphas))

    @pytest.mark.parametrize("block_rows", [1, 7, 51, 102])
    def test_bits_do_not_depend_on_the_block_size(self, seed1_legs, monkeypatch, block_rows):
        weights, regimes = stacked(seed1_legs[:2])  # 102 rows: both legs of one tick
        default = evar_bracket_rows(weights, regimes, GRIDS["evar"])
        monkeypatch.setattr(risk, "_BLOCK_ROWS", block_rows)
        assert_same_bits(evar_bracket_rows(weights, regimes, GRIDS["evar"]), default)
        assert_same_bits(default, oracle_bracket_rows(weights, regimes, GRIDS["evar"]))


@st.composite
def laws(draw):
    """A discrete law (atoms, masses) with positive masses, a spread_max at least its spread, and a t_min."""
    k = draw(st.integers(2, 8))
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k)))
    masses = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    spread = values.max() - values.min()
    assume(spread > 1e-6)
    spread_max = spread * draw(st.sampled_from([1.0, 1.5, 10.0]))
    largest_alpha = draw(st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.sampled_from([GRIDS["evar"][-2], 0.5])))
    return values, masses / masses.sum(), spread_max, -np.log(largest_alpha)


class TestNodeWindow:
    @settings(deadline=None, max_examples=300)
    @given(laws())
    def test_nodes_left_of_the_window_lie_at_half_the_smallest_target(self, law):
        # Popoviciu: K'' <= spread^2 / 4, so t(s) <= (s spread)^2 / 8, at most t_min / 2 while
        # s spread_max <= sqrt(4 t_min).
        values, masses, spread_max, t_min = law
        s, first = risk._nodes(spread_max, t_min)
        covered = np.flatnonzero(s * spread_max <= np.sqrt(4.0 * t_min))
        assert first == (covered[-1] if covered.size else 0)
        y = values - values.max()
        tilt = masses * np.exp(np.multiply.outer(s[covered], y))  # (nodes x atoms), exponents >= -sqrt(4 t_min)
        k = np.log(tilt.sum(axis=1))
        t = s[covered] * (tilt @ y) / tilt.sum(axis=1) - k
        assert np.all(t <= 0.5 * t_min * (1.0 + 1e-9))
