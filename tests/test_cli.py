import json
from pathlib import Path

import pytest
import yaml

from imbtrader.cli import main
from imbtrader.data_io import load_dataset
from imbtrader.price_models import ReserveGrid

REPO_ROOT = Path(__file__).resolve().parents[1]

SMOKE_CONFIG = {
    "seed": 5,
    "synthetic": {
        "n_periods": 96 * 6,
        "price_noise_std": 8.0,
        "price_gap_std": 5.0,
        "edge": 5.0,
    },
    "model": {"n_q": 8, "kfold": 3, "logistic_max_iter": 200, "bank_max_iter": 100},
    "strategy": {
        "step_mw": 0.5,
        "u_max_mw": 2.0,
        "measure": "cvar",
        "alpha": "adaptive",
        "window": 20,
        "alpha_grid_size": 16,
    },
    "benchmark": {"horizon": 5, "max_iter": 100},
}

TRAIN_END = "2024-01-04T23:45:00+00:00"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """generate -> train once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump(SMOKE_CONFIG))
    data = root / "data"
    assert main(["generate", "--config", str(config), "--out", str(data)]) == 0
    models_dir = root / "models"
    assert (
        main(
            ["train", "--config", str(config), "--data", str(data),
             "--out", str(models_dir), "--to", TRAIN_END]
        )
        == 0
    )
    return {"root": root, "config": config, "data": data, "models": models_dir / "models.json"}


class TestPipelineCommands:
    def test_generate_artifacts(self, workspace):
        data = workspace["data"]
        assert (data / "market.csv").exists()
        assert (data / "books.csv").exists()
        truth = json.loads((data / "truth.json").read_text())
        assert truth["k_mdp"] == 0.40
        grid = ReserveGrid((1, 50, 100, 150, 200), (1, 100, 200, 300, 500, 700))
        assert len(load_dataset(data, grid)) == 96 * 6 - 7

    def test_backtest_smoke_pipeline(self, workspace):
        out = workspace["root"] / "bt"
        code = main(
            ["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out)]
        )
        assert code == 0
        assert (out / "ledger.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "cumulative.csv").exists()
        assert (out / "alpha_path.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["n_periods"] > 0

    def test_backtest_idempotent(self, workspace):
        out_a = workspace["root"] / "bt_a"
        out_b = workspace["root"] / "bt_b"
        for out in (out_a, out_b):
            args = [
                "backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                "--models", str(workspace["models"]), "--out", str(out), "--measure", "evar",
            ]
            assert main(args) == 0
        for name in ("ledger.csv", "report.json", "cumulative.csv", "alpha_path.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_fixed_alpha_flag(self, workspace):
        out = workspace["root"] / "bt_fixed"
        code = main(
            ["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out), "--alpha", "0.9"]
        )
        assert code == 0
        header = (out / "ledger.csv").read_text().splitlines()[1]
        assert "alpha=0.9" in header

    def test_benchmark_table_shape(self, workspace):
        out = workspace["root"] / "bench"
        code = main(
            ["benchmark", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "model,rmse,mae,std,crps"
        assert len(lines) == 5  # four models
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_forecast_outputs(self, workspace):
        out = workspace["root"] / "fc"
        code = main(
            ["forecast", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out)]
        )
        assert code == 0
        lines = (out / "forecasts.csv").read_text().splitlines()
        assert lines[0].startswith("timestamp,pi,mean,std,")
        assert len(lines) > 10

    def test_sweep_grid_shape(self, workspace):
        out = workspace["root"] / "sweep"
        code = main(
            ["sweep", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out), "--alpha", "0.9",
             "--beta-est-grid", "0,1", "--beta-true-grid", "0,1"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two beta_est rows
        assert len(lines[1].split(",")) == 3
        assert (out / "sweep.txt").exists()

    def test_report_reproduces_backtest_totals(self, workspace):
        bt_out = workspace["root"] / "bt_for_report"
        assert main(
            ["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(bt_out)]
        ) == 0
        rp_out = workspace["root"] / "rp"
        assert main(["report", "--ledger", str(bt_out / "ledger.csv"), "--out", str(rp_out)]) == 0
        original = json.loads((bt_out / "report.json").read_text())
        derived = json.loads((rp_out / "report.json").read_text())
        assert derived["total_profit_eur"] == pytest.approx(original["total_profit_eur"])
        assert derived["traded_volume_mwh"] == pytest.approx(original["traded_volume_mwh"])
        assert derived["daily_cumulative"] == original["daily_cumulative"]


class TestErrorsAndMisc:
    def test_missing_data_dir_fails_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("IMBTRADER_DATA_DIR", raising=False)
        code = main(["train", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_env_var_data_dir(self, workspace, monkeypatch):
        monkeypatch.setenv("IMBTRADER_DATA_DIR", str(workspace["data"]))
        out = workspace["root"] / "bt_env"
        code = main(
            ["backtest", "--config", str(workspace["config"]),
             "--models", str(workspace["models"]), "--out", str(out)]
        )
        assert code == 0

    def test_non_finite_delta_hours_rejected(self, workspace, capsys):
        config = workspace["root"] / "nan_delta.yaml"
        config.write_text(yaml.safe_dump({**SMOKE_CONFIG, "strategy": {**SMOKE_CONFIG["strategy"],
                                                                      "delta_hours": float("nan")}}))
        code = main(["backtest", "--config", str(config), "--data", str(workspace["data"]),
                     "--models", str(workspace["models"]), "--out", str(workspace["root"] / "bt_nan")])
        assert code == 1
        assert "delta_hours" in capsys.readouterr().err

    def test_infinite_u_max_rejected(self, workspace, capsys):
        config = workspace["root"] / "inf_u_max.yaml"
        config.write_text(yaml.safe_dump({**SMOKE_CONFIG, "strategy": {**SMOKE_CONFIG["strategy"],
                                                                      "u_max_mw": float("inf")}}))
        assert ".inf" in config.read_text()
        code = main(["backtest", "--config", str(config), "--data", str(workspace["data"]),
                     "--models", str(workspace["models"]), "--out", str(workspace["root"] / "bt_inf")])
        assert code == 1
        assert "u_max" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "imbtrader" in capsys.readouterr().out

    def test_committed_fixture_day_loads(self):
        grid = ReserveGrid((1, 50, 100, 150, 200), (1, 100, 200, 300, 500, 700))
        ticks = load_dataset(REPO_ROOT / "data" / "fixture_day", grid)
        assert len(ticks) == 96 - 7
        assert all(t.book is not None for t in ticks)
