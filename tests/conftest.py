import pytest

from imbtrader import benchmarks, cli, pipeline, price_models
from imbtrader.data_io import SyntheticConfig, synthetic_ticks
from imbtrader.dists import DiscretePriceDistribution
from imbtrader.pipeline import attach_z, train_models


@pytest.fixture(scope="session")
def small_market():
    """A compact synthetic market with mild noise, shared across tests."""
    cfg = SyntheticConfig(seed=7, n_periods=96 * 8, price_noise_std=8.0, price_gap_std=5.0)
    ticks, truth = synthetic_ticks(cfg)
    return cfg, ticks, truth


@pytest.fixture(scope="session")
def trained(small_market):
    """Models fitted on the first 60% of the small market; test ticks carry z."""
    cfg, ticks, truth = small_market
    split = int(len(ticks) * 0.6)
    models = train_models(
        ticks[:split],
        grid=cfg.grid,
        n_q=12,
        kfold=3,
        logistic_max_iter=400,
        bank_max_iter=150,
    )
    test_ticks = attach_z(ticks[split:], models)
    return models, ticks[:split], test_ticks


@pytest.fixture(scope="session")
def seed5_bundle():
    """A bundle (n_q = 8) trained on the first 400 ticks of a six-day market, and all the market's ticks: its
    training range ends at tick 399, 2024-01-05T05:30Z."""
    cfg = SyntheticConfig(seed=5, n_periods=96 * 6, price_noise_std=8.0, price_gap_std=5.0)
    ticks, _ = synthetic_ticks(cfg)
    return train_models(ticks[:400], grid=cfg.grid, n_q=8), ticks


@pytest.fixture
def distribution_objects(monkeypatch):
    """Names of the ``DiscretePriceDistribution`` constructions and ``predict_regulation_distribution`` calls made."""
    made = []

    def counted(name, call):
        def record(*args, **kwargs):
            made.append(name)
            return call(*args, **kwargs)
        return record

    monkeypatch.setattr(DiscretePriceDistribution, "__init__",
                        counted("DiscretePriceDistribution", DiscretePriceDistribution.__init__))
    for module in (price_models, pipeline, benchmarks, cli):
        if hasattr(module, "predict_regulation_distribution"):
            monkeypatch.setattr(module, "predict_regulation_distribution",
                                counted("predict_regulation_distribution", module.predict_regulation_distribution))
    return made
