import inspect
import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml

from benchmark_oracle import quantile, score_batch, std
from imbtrader import cli
from imbtrader.backtest import SimConfig
from imbtrader.benchmarks import DEFAULT_HORIZON, fit_benchmark_suite, run_benchmark
from imbtrader.cli import _load_config, _sim_config, build_parser, main
from imbtrader.data_io import SyntheticConfig, load_dataset
from imbtrader.dists import MixtureForecast, flatten
from imbtrader.pipeline import TrainedModels, attach_z, train_models
from imbtrader.price_models import ReserveGrid, predict_regulation_distribution
from imbtrader.strategy import ActionSpace

REPO_ROOT = Path(__file__).resolve().parents[1]

SMOKE_CONFIG = {
    "seed": 5,
    "synthetic": {
        "n_periods": 96 * 6,
        "price_noise_std": 8.0,
        "price_gap_std": 5.0,
        "edge": 5.0,
    },
    "model": {"n_q": 8, "kfold": 3},
    "strategy": {
        "step_mw": 0.5,
        "u_max_mw": 2.0,
        "measure": "cvar",
        "alpha": "adaptive",
        "window": 20,
        "alpha_grid_size": 16,
    },
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

    def test_train_reads_only_the_reserves_of_the_generator_settings(self, workspace):
        # a synthetic section SyntheticConfig rejects is no concern of train, which generates nothing
        config = workspace["root"] / "no_periods.yaml"
        config.write_text(yaml.safe_dump(SMOKE_CONFIG | {"synthetic": {**SMOKE_CONFIG["synthetic"], "n_periods": 0}}))
        out = workspace["root"] / "models_no_periods"
        assert main(["train", "--config", str(config), "--data", str(workspace["data"]), "--out", str(out),
                     "--to", TRAIN_END]) == 0
        assert (out / "models.json").read_bytes() == workspace["models"].read_bytes()

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

    def _ledger_rows(self, workspace, name, *flags) -> list[str]:
        out = workspace["root"] / name
        assert main(
            ["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out), "--to", "2024-01-05T23:45:00+00:00", *flags]
        ) == 0
        return [line for line in (out / "ledger.csv").read_text().splitlines() if not line.startswith("#")][1:]

    def test_backtest_from_after_training_is_the_first_ledger_row(self, workspace):
        rows = self._ledger_rows(workspace, "bt_from", "--from", "2024-01-05T12:00:00+00:00")
        assert rows[0].startswith("2024-01-05T12:00:00+00:00,")

    def test_backtest_from_inside_training_is_cut_at_the_training_end(self, workspace):
        # --from inside the bundle's training range trades the same ticks as no --from: those after TRAIN_END
        inside = self._ledger_rows(workspace, "bt_from_train", "--from", "2024-01-02T00:00:00+00:00")
        assert inside == self._ledger_rows(workspace, "bt_to")
        assert inside[0].startswith("2024-01-05T00:00:00+00:00,")

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

    def test_forecast_rows_are_the_benchmark_mixture(self, workspace):
        out = workspace["root"] / "fc_mixture"
        assert main(
            ["forecast", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(out)]
        ) == 0
        models = TrainedModels.load(workspace["models"])
        ticks = load_dataset(workspace["data"], models.grid)
        eval_ticks = attach_z([t for t in ticks if t.timestamp > models.train_end], models)
        # the weight model's mixture of each tick, one distribution object per tick
        mixture = [
            flatten(MixtureForecast(
                float(models.weight_model.predict(t.x)),
                predict_regulation_distribution(models.bank_mdp, t.z, t.o),
                predict_regulation_distribution(models.bank_mip, t.z, t.o),
            ))
            for t in eval_ticks
        ]
        rows = [line.split(",") for line in (out / "forecasts.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(eval_ticks)
        for row, tick, flat in zip(rows, eval_ticks, mixture):
            assert row[0] == tick.timestamp.isoformat()
            assert float(row[1]) == float(models.weight_model.predict(tick.x))
            assert [float(v) for v in row[2:9]] == [flat.mean(), std(flat)] + [
                quantile(flat, q) for q in (0.1, 0.25, 0.5, 0.75, 0.9)
            ]
        # and the benchmark's `mixture` row scores the same forecasts
        suite = fit_benchmark_suite([t for t in ticks if t.timestamp <= models.train_end], models, max_iter=5)
        observed = [t.settlement_price for t in eval_ticks[DEFAULT_HORIZON:]]
        assert dict(run_benchmark(suite, eval_ticks).rows)["mixture"] == score_batch(
            mixture[DEFAULT_HORIZON:], observed
        )

    def test_forecast_builds_no_distribution_object_per_tick(self, workspace, distribution_objects):
        assert main(
            ["forecast", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(workspace["models"]), "--out", str(workspace["root"] / "fc_counted")]
        ) == 0
        assert distribution_objects == []

    def test_benchmark_fits_on_the_training_range(self, workspace, monkeypatch):
        models_dir = workspace["root"] / "models_from"
        assert main(
            ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--out", str(models_dir), "--from", "2024-01-02T00:00:00+00:00", "--to", TRAIN_END]
        ) == 0
        fitted = []

        def capture(train_ticks, models, **kwargs):
            fitted.append((train_ticks[0].timestamp, train_ticks[-1].timestamp))
            return fit_benchmark_suite(train_ticks, models, **kwargs)

        monkeypatch.setattr(cli, "fit_benchmark_suite", capture)
        assert main(
            ["benchmark", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
             "--models", str(models_dir / "models.json"), "--out", str(workspace["root"] / "bench_from")]
        ) == 0
        models = TrainedModels.load(models_dir / "models.json")
        assert models.train_start == datetime(2024, 1, 2, tzinfo=timezone.utc)
        assert fitted == [(models.train_start, models.train_end)]

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

    def test_sweep_reads_no_reactivity_from_the_config(self, workspace):
        # the grids set both reactivities of every cell, so the config's strategy.beta_est and beta_true go unread
        outs = []
        for beta in (0.3, 1.0):
            config = workspace["root"] / f"beta_{beta}.yaml"
            strategy = {**SMOKE_CONFIG["strategy"], "beta_est": beta, "beta_true": beta}
            config.write_text(yaml.safe_dump(SMOKE_CONFIG | {"strategy": strategy}))
            outs.append(workspace["root"] / f"sweep_beta_{beta}")
            assert main(["sweep", "--config", str(config), "--data", str(workspace["data"]),
                         "--models", str(workspace["models"]), "--out", str(outs[-1]), "--alpha", "0.9",
                         "--to", "2024-01-05T23:45:00+00:00", "--beta-est-grid", "0,1", "--beta-true-grid", "0,1"]) == 0
        assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    def test_report_rebuilds_the_backtest_report_with_skipped_ticks(self, workspace, capsys):
        # the books of two traded periods are deleted, so backtest skips them and counts them in the ledger
        data = workspace["root"] / "two_books_missing"
        data.mkdir()
        (data / "market.csv").write_bytes((workspace["data"] / "market.csv").read_bytes())
        books = (workspace["data"] / "books.csv").read_text().splitlines(keepends=True)
        missing = ("2024-01-05T10:00:00+00:00,", "2024-01-05T10:15:00+00:00,")
        (data / "books.csv").write_text("".join(line for line in books if not line.startswith(missing)))
        bt_out, rp_out = workspace["root"] / "bt_skipped", workspace["root"] / "rp_skipped"
        assert main(["backtest", "--config", str(workspace["config"]), "--data", str(data),
                     "--models", str(workspace["models"]), "--out", str(bt_out)]) == 0
        assert main(["report", "--ledger", str(bt_out / "ledger.csv"), "--out", str(rp_out)]) == 0
        assert json.loads((bt_out / "report.json").read_text())["n_skipped"] == 2
        for name in ("report.json", "cumulative.csv", "alpha_path.csv"):
            assert (rp_out / name).read_bytes() == (bt_out / name).read_bytes()
        # a ledger written without the count is refused, naming it
        ledger = (bt_out / "ledger.csv").read_text()
        assert ledger.count(" n_skipped=2\n") == 1
        (workspace["root"] / "old_ledger.csv").write_text(ledger.replace(" n_skipped=2\n", "\n"))
        old_out = workspace["root"] / "rp_old_ledger"
        assert main(["report", "--ledger", str(workspace["root"] / "old_ledger.csv"), "--out", str(old_out)]) == 1
        assert capsys.readouterr().err == "error: ledger header has no n_skipped\n"
        assert not (old_out / "report.json").exists()

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

    @pytest.mark.parametrize("allow_short", [False, True], ids=["long", "long and short"])
    def test_report_on_an_all_skipped_ledger_writes_the_backtest_report(self, workspace, allow_short):
        # books.csv cut to its header: every tick is skipped, and the ledger's header alone names the legs
        root = workspace["root"] / f"all_skipped_{allow_short}"
        data = root / "data"
        data.mkdir(parents=True)
        (data / "market.csv").write_bytes((workspace["data"] / "market.csv").read_bytes())
        (data / "books.csv").write_text("timestamp,side,price,volume\n")
        config = root / "config.yaml"
        config.write_text(yaml.safe_dump(SMOKE_CONFIG | {"strategy": {**SMOKE_CONFIG["strategy"],
                                                                      "allow_short": allow_short}}))
        assert main(["backtest", "--config", str(config), "--data", str(data), "--models", str(workspace["models"]),
                     "--out", str(root / "bt"), "--to", "2024-01-05T23:45:00+00:00"]) == 0
        assert json.loads((root / "bt" / "report.json").read_text())["n_skipped"] == 96
        assert main(["report", "--ledger", str(root / "bt" / "ledger.csv"), "--out", str(root / "rp")]) == 0
        for name in ("report.json", "cumulative.csv", "alpha_path.csv"):
            assert (root / "rp" / name).read_bytes() == (root / "bt" / name).read_bytes()
        legs = ["long", "short"] if allow_short else ["long"]
        report = json.loads((root / "rp" / "report.json").read_text())
        assert report["alpha_path"] == dict.fromkeys(legs, [])
        # the totals of no records are floats, as those of a run that trades
        totals = ("total_profit_eur", "total_per_mw_period", "traded_volume_mwh", "profit_per_trade_eur_per_mwh")
        assert [report[key] for key in totals] == [0.0] * 4
        assert all(isinstance(report[key], float) for key in totals)
        header = (root / "bt" / "ledger.csv").read_text().splitlines()[3]
        assert header == "# total_profit_eur=0.0 total_per_mw_period=0.0 traded_volume_mwh=0.0 n_skipped=96"

    def test_report_on_a_ledger_without_legs_fails_naming_them(self, workspace, tmp_path, capsys):
        bt_out = tmp_path / "bt"
        assert main(["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--models", str(workspace["models"]), "--out", str(bt_out)]) == 0
        lines = (bt_out / "ledger.csv").read_text().splitlines()
        assert lines[1].endswith(" legs=long")
        older = tmp_path / "older.csv"
        for rows, name in ((lines[2:], "rp"), (lines[2:5], "rp_empty")):  # with and without records
            older.write_text("\n".join([lines[1].removesuffix(" legs=long")] + rows) + "\n")
            assert main(["report", "--ledger", str(older), "--out", str(tmp_path / name)]) == 1
            assert capsys.readouterr().err == "error: ledger header has no legs\n"

    def test_report_on_a_ledger_of_another_period_fails_naming_it(self, workspace, tmp_path, capsys):
        # the ledger's profit_eur column is at the quarter-hour; a header stating another period is refused
        bt_out = tmp_path / "bt"
        assert main(["backtest", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--models", str(workspace["models"]), "--out", str(bt_out)]) == 0
        ledger = (bt_out / "ledger.csv").read_text()
        assert ledger.count(" delta_hours=0.25 ") == 1
        (tmp_path / "other.csv").write_text(ledger.replace(" delta_hours=0.25 ", " delta_hours=1.0 "))
        assert main(["report", "--ledger", str(tmp_path / "other.csv"), "--out", str(tmp_path / "rp")]) == 1
        message = "ledger line 2: delta_hours must be the settlement period 0.25, got 1.0"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "rp").exists()

    def test_report_rebuilds_a_two_leg_alpha_path(self, workspace):
        config = workspace["root"] / "short.yaml"
        config.write_text(yaml.safe_dump(SMOKE_CONFIG | {"strategy": {**SMOKE_CONFIG["strategy"], "allow_short": True}}))
        bt_out, rp_out = workspace["root"] / "bt_short", workspace["root"] / "rp_short"
        assert main(
            ["backtest", "--config", str(config), "--data", str(workspace["data"]), "--models", str(workspace["models"]),
             "--out", str(bt_out), "--measure", "evar", "--to", "2024-01-05T23:45:00+00:00"]
        ) == 0
        assert main(["report", "--ledger", str(bt_out / "ledger.csv"), "--out", str(rp_out)]) == 0
        alpha_path = (bt_out / "alpha_path.csv").read_bytes()
        assert alpha_path.count(b"\nlong,") == alpha_path.count(b"\nshort,") == 96
        assert (rp_out / "alpha_path.csv").read_bytes() == alpha_path


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

    @pytest.mark.parametrize("command, seed", [("generate", "-1"), ("train", "-3")])
    def test_negative_seed_named(self, workspace, tmp_path, capsys, command, seed):
        args = [command, "--config", str(workspace["config"]), "--out", str(tmp_path / "out"), "--seed", seed]
        if command == "train":
            args += ["--data", str(workspace["data"]), "--to", TRAIN_END]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: seed must be at least 0, got {seed}\n"

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


# A market on a non-default aFRR ladder; no strategy section, so a model command's flags alone set its run.
LADDER_CONFIG = {
    "seed": 5,
    "synthetic": SMOKE_CONFIG["synthetic"],
    "reserves": {"afrr_volumes": [1, 60, 120, 180, 240]},
    "model": SMOKE_CONFIG["model"],
}
MODEL_COMMANDS = {
    "forecast": [],
    "benchmark": ["--to", "2024-01-05T23:45:00+00:00"],
    "backtest": ["--to", "2024-01-05T23:45:00+00:00", "--alpha", "0.9"],
    "sweep": ["--to", "2024-01-05T23:45:00+00:00", "--alpha", "0.9", "--beta-est-grid", "1", "--beta-true-grid", "0,1"],
}
OUTPUTS = {"forecast": "forecasts.csv", "benchmark": "benchmark.csv", "backtest": "ledger.csv", "sweep": "sweep.csv"}


class TestBundleLadder:
    """The commands that load models.json read market.csv with the bundle's reserve ladder."""

    @pytest.fixture(scope="class")
    def ladder(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ladder")
        config = root / "config.yaml"
        config.write_text(yaml.safe_dump(LADDER_CONFIG))
        assert main(["generate", "--config", str(config), "--out", str(root / "data")]) == 0
        assert main(["train", "--config", str(config), "--data", str(root / "data"), "--out", str(root / "models"),
                     "--to", TRAIN_END]) == 0
        return {"root": root, "config": config, "data": root / "data", "models": root / "models" / "models.json"}

    def _run(self, command, data, models, out, *config) -> int:
        return main([command, *config, "--data", str(data), "--models", str(models), "--out", str(out),
                     *MODEL_COMMANDS[command]])

    def test_bundle_ladder_is_not_the_default(self, ladder):
        models = TrainedModels.load(ladder["models"])
        assert models.grid.afrr_volumes == (1.0, 60.0, 120.0, 180.0, 240.0)
        assert models.grid != SyntheticConfig().grid

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_without_config_matches_the_configured_run(self, ladder, command):
        root = ladder["root"]
        outs = [root / f"{command}_{name}" for name in ("configured", "bare")]
        assert self._run(command, ladder["data"], ladder["models"], outs[0], "--config", str(ladder["config"])) == 0
        assert self._run(command, ladder["data"], ladder["models"], outs[1]) == 0
        assert (outs[0] / OUTPUTS[command]).read_bytes() == (outs[1] / OUTPUTS[command]).read_bytes()

    @pytest.mark.parametrize("configured", [False, True], ids=["bare", "configured"])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_data_on_another_ladder_fails_naming_the_column(self, ladder, workspace, capsys, command, configured):
        # the default-ladder market of `workspace` with the non-default bundle; the config's ladder is the bundle's
        config = ["--config", str(ladder["config"])] if configured else []
        out = ladder["root"] / f"mismatch_{command}_{configured}"
        assert self._run(command, workspace["data"], ladder["models"], out, *config) == 1
        assert capsys.readouterr().err == "error: market.csv: header column 14 is 'afrr_50', expected 'afrr_60'\n"

    def test_books_header_fault_named(self, ladder, capsys):
        data = ladder["root"] / "bad_books"
        data.mkdir()
        (data / "market.csv").write_bytes((ladder["data"] / "market.csv").read_bytes())
        books = (ladder["data"] / "books.csv").read_text()
        (data / "books.csv").write_text(books.replace("timestamp,side,price,volume", "timestamp,side,px,volume", 1))
        assert self._run("forecast", data, ladder["models"], ladder["root"] / "fc_bad_books") == 1
        assert capsys.readouterr().err == "error: books.csv: header column 3 is 'px', expected 'price'\n"


EXAMPLE_CONFIG = REPO_ROOT / "configs" / "example.yaml"

# A config text and the error it must end with: "<file>: <section>.<key>: <problem>".
BAD_CONFIGS = {
    "misspelt key": ("model: {bank_max_itr: 100}", "model.bank_max_itr: unexpected field"),
    "section not a mapping": ("model: 5", "model: expected an object, got number"),
    "word for an integer": ("strategy: {window: ten}", "strategy.window: expected an integer, got string"),
    "quoted boolean": ("strategy: {allow_short: 'false'}", "strategy.allow_short: expected a boolean, got string"),
    "fraction for an integer": ("model: {kfold: 5.5}", "model.kfold: expected an integer, got 5.5"),
    "reserves under synthetic": (
        "synthetic: {afrr_volumes: [1, 50, 100, 150, 200]}", "synthetic.afrr_volumes: unexpected field",
    ),
    "removed training knob": ("model: {train_short_positions: false}", "model.train_short_positions: unexpected field"),
    # the generator's ladder slopes and anchor columns are constants, and its ladder comes from `reserves`
    **{f"removed ladder knob {key}": (f"synthetic: {{{key}: 2}}", f"synthetic.{key}: unexpected field")
       for key in ("afrr_ladder_slope", "mfrr_ladder_slope", "mdp_anchor", "mip_anchor", "grid")},
    # the rest of the planted law is constants of the generator too
    **{f"removed planted-law key {key}": (f"synthetic: {{{key}: 1}}", f"synthetic.{key}: unexpected field")
       for key in ("regime_bias", "regime_persistence", "signal_strength", "imbalance_scale", "k_mdp", "k_mip",
                   "mdp_price_mean", "price_gap_mean", "book_levels", "book_level_volume", "book_tick",
                   "book_spread", "book_noise_std")},
    # the settlement period is the data's quarter-hour
    "removed strategy key delta_hours": ("strategy: {delta_hours: 1.0}", "strategy.delta_hours: unexpected field"),
    # the synthetic start is a generator constant, the generator's seed the top-level one, the ridge penalty
    # train_models' default, the Newton cap _optim.NEWTON_MAX_ITER, and the bank cap price_models.BANK_MAX_ITER
    **{f"removed key {section}.{key}": (f"{section}: {{{key}: {value}}}", f"{section}.{key}: unexpected field")
       for section, key, value in (("synthetic", "start", "'2024-01-01T00:00:00Z'"), ("synthetic", "seed", 7),
                                   ("model", "l2", 1.0e-4), ("model", "logistic_max_iter", 2000),
                                   ("model", "bank_max_iter", 400))},
    # the Markov lead is benchmarks.DEFAULT_HORIZON and the transition fits' cap the Newton cap: no benchmark key
    **{f"removed section benchmark with {key}": (f"benchmark: {{{key}: {value}}}", "benchmark: unexpected field")
       for key, value in (("horizon", 5), ("max_iter", 400))},
    "quoted seed": ("seed: '7'", "seed: expected an integer, got string"),
    "unknown section": ("strategies: {window: 5}", "strategies: unexpected field"),
    "word for a number": ("synthetic: {edge: small}", "synthetic.edge: could not convert string to float: 'small'"),
    "bad ladder volume": (
        "reserves: {mfrr_volumes: [1, x]}", "reserves.mfrr_volumes.1: could not convert string to float: 'x'",
    ),
    "document is a list": ("- seed\n- 7", "expected an object, got array"),
    "window out of range": ("strategy: {window: 0}", "strategy: window must be at least 1, got 0"),
    "unknown measure": (
        "strategy: {measure: var}",
        "strategy: unknown risk kind 'var'; expected one of ('expectation', 'cvar', 'evar')",
    ),
    "position grid": ("strategy: {step_mw: 0.3, u_max_mw: 1.0}", "strategy: u_max 1.0 is not a multiple of step 0.3"),
    "alpha out of range": ("strategy: {alpha: 1.5}", "strategy: alpha 1.5 outside [0, 1]"),
    "alpha grid of one": ("strategy: {alpha_grid_size: 1}", "strategy: alpha_grid_size must be at least 2, got 1"),
}


class TestConfig:
    @pytest.mark.parametrize("command", ["generate", "train", "backtest"])
    @pytest.mark.parametrize("text, problem", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_config_names_its_dotted_path(self, tmp_path, capsys, command, text, problem):
        config = tmp_path / "config.yaml"
        config.write_text(text + "\n")
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command != "generate":
            args += ["--data", str(tmp_path / "no_data")]
        if command == "backtest":
            args += ["--models", str(tmp_path / "no_models.json")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {config}: {problem}\n"

    @pytest.mark.parametrize("value, problem", [
        ("abc", "could not convert string to float: 'abc'"),
        ("1.5", "alpha 1.5 outside [0, 1]"),
        ("nan", "expected a finite number, got nan"),
    ])
    def test_bad_alpha_flag_fails_in_argparse(self, capsys, value, problem):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["backtest", "--out", "out", "--models", "models.json", "--alpha", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --alpha: {problem}\n")

    @pytest.mark.parametrize("flag, value, problem, command", [
        (*case, command) for case in [
            ("--window", "0", "window must be at least 1, got 0"),
            ("--window", "2.5", "invalid literal for int() with base 10: '2.5'"),
        ] for command in ("backtest", "sweep")
    ] + [
        # the single reactivities are backtest flags; a sweep takes both from its grids
        (*case, "backtest") for case in [
            ("--beta-est", "2", "beta_est 2.0 outside [0, 1]"),
            ("--beta-true", "-1", "beta_true -1.0 outside [0, 1]"),
            ("--beta-true", "nan", "beta_true nan outside [0, 1]"),
        ]
    ] + [
        # the grids are sweep flags; each value is read and checked like the single value's flag
        (*case, "sweep") for case in [
            ("--beta-est-grid", "0,2", "beta_est 2.0 outside [0, 1]"),
            ("--beta-true-grid", "1,abc", "could not convert string to float: 'abc'"),
            ("--beta-true-grid", "0.5,nan", "beta_true nan outside [0, 1]"),
            ("--beta-est-grid", "", "empty grid"),
            ("--beta-true-grid", " , ", "empty grid"),
        ]
    ])
    def test_bad_strategy_flag_fails_in_argparse(self, capsys, command, flag, value, problem):
        args = [command, "--out", "out", "--models", "models.json", flag, value]
        if command == "sweep":
            args += ["--beta-est-grid", "1", "--beta-true-grid", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {problem}\n")

    @pytest.mark.parametrize("flag", ["--beta-est", "--beta-true"])
    def test_sweep_takes_no_single_reactivity(self, capsys, flag):
        # the grids set both reactivities of every cell, so a single value (or its abbreviation of a grid flag)
        # is not an argument of sweep; backtest still reads and checks it
        sweep = ["sweep", "--out", "out", "--models", "models.json", "--beta-est-grid", "1", "--beta-true-grid", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*sweep, flag, "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 0.5\n")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["backtest", "--out", "out", "--models", "models.json", flag, "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {flag[2:].replace('-', '_')} 2.0 outside [0, 1]\n")

    def test_bad_grid_fails_before_reading_files(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--data", str(tmp_path / "no_data"), "--models", str(tmp_path / "no_models.json"),
                  "--out", str(tmp_path / "out"), "--beta-est-grid", "0,2", "--beta-true-grid", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --beta-est-grid: beta_est 2.0 outside [0, 1]\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "forecast", "benchmark", "backtest", "sweep"])
    @pytest.mark.parametrize("flag, value, problem", [
        ("--to", "yesterday", "invalid timestamp value: 'yesterday'"),
        ("--from", "2024-13-01", "invalid timestamp value: '2024-13-01'"),
        ("--to", "0001-01-01T00:00:00+01:00", "invalid timestamp value: '0001-01-01T00:00:00+01:00'"),
    ])
    def test_bad_range_flag_fails_in_argparse(self, capsys, command, flag, value, problem):
        args = [command, "--out", "out", flag, value]
        if command != "train":
            args += ["--models", "models.json"]
        if command == "sweep":
            args += ["--beta-est-grid", "1", "--beta-true-grid", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {problem}\n")

    @pytest.mark.parametrize("command", [
        ["forecast", "--models", "models.json"],
        ["benchmark", "--models", "models.json"],
        # a backtest and a sweep replay without randomness, and their outputs record no seed
        ["backtest", "--models", "models.json"],
        ["sweep", "--models", "models.json", "--beta-est-grid", "1", "--beta-true-grid", "1"],
    ], ids=["forecast", "benchmark", "backtest", "sweep"])
    def test_seed_only_where_a_command_reads_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, "--out", "out", "--seed", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 3\n")
        for seeded in (["generate"], ["train"]):
            assert build_parser().parse_args([*seeded, "--out", "out", "--seed", "3"]).seed == 3

    def test_bad_range_flag_fails_before_reading_data(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tmp_path / "no_data"), "--out", str(tmp_path / "out"), "--to", "yesterday"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --to: invalid timestamp value: 'yesterday'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, expected", [
        (None, {}),
        ("", {}),
        ("synthetic: {price_noise_std: 1e-4}", {"synthetic": {"price_noise_std": 1e-4}}),
        ("synthetic: {price_noise_std: 1.0e-4}", {"synthetic": {"price_noise_std": 1e-4}}),
        ("reserves: {afrr_volumes: [1, 2.5e1, 50]}", {"reserves": {"afrr_volumes": (1.0, 25.0, 50.0)}}),
        ("strategy: {alpha: adaptive, u_max_mw: 2, allow_short: true}",
         {"sim": {"alpha": None}, "actions": {"u_max": 2.0, "allow_short": True}}),
    ], ids=["no config", "empty file", "number without a point", "number with a point", "reserves", "strategy split"])
    def test_good_config_loads(self, tmp_path, text, expected):
        config = None if text is None else tmp_path / "config.yaml"
        if config is not None:
            config.write_text(text + "\n")
        empty = {"seed": None, "synthetic": {}, "reserves": {}, "model": {}, "actions": {}, "sim": {}}
        assert _load_config(config) == {**empty, **expected}

    def test_generate_takes_the_seed_flag_else_the_top_level_seed(self, tmp_path):
        # the rule of train: the flag, then the top-level key, then the library default
        def market(name, doc, *flags) -> bytes:
            config = tmp_path / f"{name}.yaml"
            config.write_text(yaml.safe_dump({"synthetic": {"n_periods": 40}, **doc}))
            assert main(["generate", "--config", str(config), "--out", str(tmp_path / name), *flags]) == 0
            return (tmp_path / name / "market.csv").read_bytes()

        seeded = market("seed_3", {"seed": 3})
        assert seeded == market("flag_3", {}, "--seed", "3") == market("flag_wins", {"seed": 4}, "--seed", "3")
        assert seeded != market("default", {}) == market("seed_0", {"seed": 0})

    def test_generate_without_config_uses_the_library_defaults(self, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--out", str(out)]) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["k_mdp"] == 0.40
        assert len((out / "market.csv").read_text().splitlines()) == 1 + SyntheticConfig().n_periods

    def _sim(self, tmp_path, *flags) -> SimConfig:
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(SMOKE_CONFIG | {"strategy": {**SMOKE_CONFIG["strategy"], "alpha": 0.9}}))
        args = build_parser().parse_args(
            ["backtest", "--config", str(config), "--out", str(tmp_path), "--models", "models.json", *flags]
        )
        return _sim_config(_load_config(args.config), args)

    def test_config_wins_over_defaults(self, tmp_path):
        sim = self._sim(tmp_path)
        assert (sim.window, sim.alpha, sim.measure) == (20, 0.9, "cvar")
        assert sim.alpha_grid_size == 16 and sim.actions == ActionSpace(step=0.5, u_max=2.0)
        assert (sim.beta_est, sim.delta_hours) == (SimConfig.beta_est, SimConfig.delta_hours)

    def test_flags_win_over_config(self, tmp_path):
        sim = self._sim(tmp_path, "--window", "3", "--alpha", "adaptive", "--measure", "evar", "--beta-est", "0.5")
        assert (sim.window, sim.alpha, sim.measure, sim.beta_est) == (3, None, "evar", 0.5)
        assert self._sim(tmp_path, "--alpha", "0.25").alpha == 0.25

    def test_default_ladder_is_the_example_ladder(self):
        # generate and train both build the ladder as ReserveGrid(**reserves), so a section left out is this one
        example = ReserveGrid(**_load_config(EXAMPLE_CONFIG)["reserves"])
        assert ReserveGrid() == example == SyntheticConfig().grid

    def test_example_config_loads_every_key(self):
        doc = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        config = _load_config(EXAMPLE_CONFIG)
        assert config["seed"] == doc["seed"]
        assert config["synthetic"].keys() == doc["synthetic"].keys()
        assert config["reserves"].keys() == doc["reserves"].keys()
        assert config["model"].keys() == doc["model"].keys()
        assert len(config["actions"]) + len(config["sim"]) == len(doc["strategy"])
        assert config.keys() - {"actions", "sim"} == doc.keys() - {"strategy"}
        # every key is a keyword of the call its section feeds
        SyntheticConfig(**config["synthetic"], grid=ReserveGrid(**config["reserves"]))
        SimConfig(**config["sim"], actions=ActionSpace(**config["actions"]))
        inspect.signature(train_models).bind_partial(**config["model"])
