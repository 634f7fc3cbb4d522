"""Command-line pipeline: generate, train, forecast, benchmark, backtest, sweep, report.

Every command reads an optional YAML config (flags win over config values,
which win over defaults), writes its artifacts into ``--out``, and is
idempotent: identical inputs and seed produce byte-identical outputs. The
data directory may come from ``--data`` or the ``IMBTRADER_DATA_DIR``
environment variable.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import yaml

from . import __version__
from .backtest import SimConfig, _build_report, beta_sweep, read_ledger, run_backtest, write_ledger
from .benchmarks import fit_benchmark_suite, run_benchmark
from .data_io import (
    SyntheticConfig,
    load_dataset,
    resolve_data_dir,
    write_synthetic_dataset,
)
from .dists import flatten
from .pipeline import TrainedModels, attach_z, make_forecaster, train_models
from .price_models import ReserveGrid
from .risk import RISK_KINDS
from .strategy import ActionSpace

logger = logging.getLogger(__name__)


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a mapping")
    return doc


def _section(config: dict, name: str) -> dict:
    value = config.get(name, {})
    return value if isinstance(value, dict) else {}


def _parse_when(text):
    if text is None:
        return None
    ts = datetime.fromisoformat(str(text).replace("Z", "+00:00"))
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


def _reserve_grid(config: dict) -> ReserveGrid:
    reserves = _section(config, "reserves")
    defaults = SyntheticConfig()
    return ReserveGrid(
        tuple(reserves.get("afrr_volumes", defaults.afrr_volumes)),
        tuple(reserves.get("mfrr_volumes", defaults.mfrr_volumes)),
    )


def _synthetic_config(config: dict, seed_override) -> SyntheticConfig:
    section = dict(_section(config, "synthetic"))
    reserves = _section(config, "reserves")
    if "afrr_volumes" in reserves:
        section["afrr_volumes"] = tuple(reserves["afrr_volumes"])
    if "mfrr_volumes" in reserves:
        section["mfrr_volumes"] = tuple(reserves["mfrr_volumes"])
    if "start" in section:
        section["start"] = _parse_when(section["start"])
    if seed_override is not None:
        section["seed"] = seed_override
    elif "seed" not in section:
        section["seed"] = int(config.get("seed", 0))
    return SyntheticConfig(**section)


def _actions(config: dict) -> ActionSpace:
    strategy = _section(config, "strategy")
    return ActionSpace(
        step=float(strategy.get("step_mw", 0.1)),
        u_max=float(strategy.get("u_max_mw", 5.0)),
        allow_short=bool(strategy.get("allow_short", False)),
    )


def _parse_alpha(value):
    if value is None:
        return None, False
    if isinstance(value, str) and value.strip().lower() == "adaptive":
        return None, True
    return float(value), True


def _sim_config(config: dict, args) -> SimConfig:
    strategy = _section(config, "strategy")
    measure = args.measure or strategy.get("measure", "cvar")
    alpha_flag, flag_given = _parse_alpha(args.alpha)
    if flag_given:
        alpha = alpha_flag
    else:
        alpha, _ = _parse_alpha(strategy.get("alpha", "adaptive"))
    return SimConfig(
        measure=measure,
        alpha=alpha,
        beta_est=args.beta_est if args.beta_est is not None else float(strategy.get("beta_est", 1.0)),
        beta_true=args.beta_true if args.beta_true is not None else float(strategy.get("beta_true", 1.0)),
        window=args.window if args.window is not None else int(strategy.get("window", 500)),
        alpha_grid_size=int(strategy.get("alpha_grid_size", 200)),
        actions=_actions(config),
        delta_hours=float(strategy.get("delta_hours", 0.25)),
        start=_parse_when(args.start),
        end=_parse_when(args.end),
        seed=args.seed if args.seed is not None else int(config.get("seed", 0)),
    )


def _filter_range(ticks, start, end):
    return [
        t for t in ticks
        if (start is None or t.timestamp >= start) and (end is None or t.timestamp <= end)
    ]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_ticks(args, config):
    data_dir = resolve_data_dir(args.data)
    return load_dataset(data_dir, _reserve_grid(config))


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    cfg = _synthetic_config(config, args.seed)
    out = _out_dir(args)
    truth = write_synthetic_dataset(out, cfg)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")
    print(f"generated {cfg.n_periods} periods into {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    model_cfg = _section(config, "model")
    strategy = _section(config, "strategy")
    ticks = _filter_range(_load_ticks(args, config), _parse_when(args.start), _parse_when(args.end))
    if not ticks:
        raise ValueError("no training ticks in the requested range")
    models = train_models(
        ticks,
        grid=_reserve_grid(config),
        n_q=int(model_cfg.get("n_q", 100)),
        kfold=int(model_cfg.get("kfold", 5)),
        l2=float(model_cfg.get("l2", 1e-4)),
        u_max=float(strategy.get("u_max_mw", 5.0)),
        train_short_positions=bool(strategy.get("allow_short", False))
        or bool(model_cfg.get("train_short_positions", True)),
        seed=args.seed if args.seed is not None else int(config.get("seed", 0)),
        logistic_max_iter=int(model_cfg.get("logistic_max_iter", 2000)),
        bank_max_iter=int(model_cfg.get("bank_max_iter", 400)),
    )
    out = _out_dir(args)
    models.save(out / "models.json")
    print(
        f"trained on {len(ticks)} ticks "
        f"[{models.train_start.isoformat()} .. {models.train_end.isoformat()}]; "
        f"k_mdp={models.impact.k_mdp:.4f} k_mip={models.impact.k_mip:.4f}"
    )
    return 0


def _quantile_header():
    return ["p10", "p25", "p50", "p75", "p90"]


def cmd_forecast(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    ticks = _filter_range(_load_ticks(args, config), _parse_when(args.start), _parse_when(args.end))
    ticks = [t for t in ticks if t.timestamp > models.train_end]
    if not ticks:
        raise ValueError("no forecast ticks after the training range")
    ticks = attach_z(ticks, models)
    out = _out_dir(args)
    lines = ["timestamp,pi," + ",".join(["mean", "std"] + _quantile_header()) + ",observed"]
    for tick in ticks:
        flat = flatten(make_forecaster(models, tick, 0.0)(0.0))
        quantiles = [flat.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9)]
        fields = [repr(float(tick.z[0])), repr(flat.mean()), repr(flat.std())]
        fields += [repr(q) for q in quantiles]
        fields.append(repr(tick.settlement_price))
        lines.append(tick.timestamp.isoformat() + "," + ",".join(fields))
    (out / "forecasts.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(ticks)} forecasts to {out / 'forecasts.csv'}")
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    bench_cfg = _section(config, "benchmark")
    ticks = _load_ticks(args, config)
    train_ticks = [t for t in ticks if t.timestamp <= models.train_end]
    eval_ticks = _filter_range(
        [t for t in ticks if t.timestamp > models.train_end],
        _parse_when(args.start),
        _parse_when(args.end),
    )
    if not train_ticks or not eval_ticks:
        raise ValueError("benchmark needs ticks on both sides of the training boundary")
    suite = fit_benchmark_suite(
        train_ticks,
        models,
        horizon=int(bench_cfg.get("horizon", 5)),
        max_iter=int(bench_cfg.get("max_iter", 400)),
    )
    table = run_benchmark(suite, attach_z(eval_ticks, models))
    out = _out_dir(args)
    (out / "benchmark.csv").write_text(table.to_csv_string())
    (out / "benchmark.txt").write_text(table.to_text())
    print(table.to_text())
    return 0


def _write_report_files(out: Path, report) -> None:
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    lines = ["date,cumulative_profit_eur"]
    lines += [f"{d.isoformat()},{p!r}" for d, p in report.daily_cumulative]
    (out / "cumulative.csv").write_text("\n".join(lines) + "\n")
    alpha_lines = ["leg,timestamp,alpha"]
    for leg, path in report.alpha_path.items():
        alpha_lines += [f"{leg},{ts.isoformat()},{a!r}" for ts, a in path]
    (out / "alpha_path.csv").write_text("\n".join(alpha_lines) + "\n")


def cmd_backtest(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    sim = _sim_config(config, args)
    ticks = [t for t in _load_ticks(args, config) if t.timestamp > models.train_end]
    result = run_backtest(sim, models, ticks)
    out = _out_dir(args)
    write_ledger(out / "ledger.csv", result)
    _write_report_files(out, result.report)
    report = result.report
    print(
        f"profit {report.total_profit:.2f} EUR over {report.n_periods} periods "
        f"({report.n_skipped} skipped); volume {report.traded_volume_mwh:.2f} MWh; "
        f"per trade {report.profit_per_trade:.2f} EUR/MWh"
    )
    return 0


def _parse_grid(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError("empty grid")
    return values


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    sim = _sim_config(config, args)
    ticks = [t for t in _load_ticks(args, config) if t.timestamp > models.train_end]
    sweep = beta_sweep(sim, models, ticks, _parse_grid(args.beta_est_grid), _parse_grid(args.beta_true_grid))
    out = _out_dir(args)
    (out / "sweep.csv").write_text(sweep.to_csv_string())
    monotone = sweep.row_monotone_non_increasing()
    summary = [
        f"beta_est={b_est:g}: profits non-increasing in beta_true: {flag}"
        for b_est, flag in zip(sweep.beta_est_grid, monotone)
    ]
    (out / "sweep.txt").write_text("\n".join(summary) + "\n")
    print(sweep.to_csv_string())
    return 0


def cmd_report(args) -> int:
    records, _, delta = read_ledger(args.ledger)
    if not records:
        raise ValueError("ledger is empty")
    alpha_path: dict = {}
    for r in records:
        alpha_path.setdefault(r.leg, []).append((r.timestamp, r.alpha))
    report = _build_report(delta, records, [], alpha_path)
    out = _out_dir(args)
    _write_report_files(out, report)
    print(
        f"profit {report.total_profit:.2f} EUR; volume {report.traded_volume_mwh:.2f} MWh; "
        f"per trade {report.profit_per_trade:.2f} EUR/MWh"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbtrader",
        description="Intraday trading toolkit for single-price balancing markets.",
    )
    parser.add_argument("--version", action="version", version=f"imbtrader {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0, help="increase log verbosity")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=True, needs_models=False):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if needs_data:
            p.add_argument("--data", help="dataset directory (or set IMBTRADER_DATA_DIR)")
        if needs_models:
            p.add_argument("--models", required=True, help="models.json from `train`")

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p, needs_data=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit all models and save the bundle")
    common(p)
    p.add_argument("--from", dest="start", help="first training timestamp (ISO)")
    p.add_argument("--to", dest="end", help="last training timestamp (ISO)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="write per-period forecast summaries")
    common(p, needs_models=True)
    p.add_argument("--from", dest="start")
    p.add_argument("--to", dest="end")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("benchmark", help="score the mixture model against benchmarks")
    common(p, needs_models=True)
    p.add_argument("--from", dest="start")
    p.add_argument("--to", dest="end")
    p.set_defaults(func=cmd_benchmark)

    for name, func in (("backtest", cmd_backtest), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"run the trading {name}")
        common(p, needs_models=True)
        p.add_argument("--from", dest="start")
        p.add_argument("--to", dest="end")
        p.add_argument("--measure", choices=RISK_KINDS, default=None)
        p.add_argument("--alpha", default=None, help="risk weight in [0,1] or 'adaptive'")
        p.add_argument("--beta-est", dest="beta_est", type=float, default=None)
        p.add_argument("--beta-true", dest="beta_true", type=float, default=None)
        p.add_argument("--window", type=int, default=None, help="adaptive window size N")
        if name == "sweep":
            p.add_argument("--beta-est-grid", required=True, help="comma-separated values")
            p.add_argument("--beta-true-grid", required=True, help="comma-separated values")
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="aggregate an existing ledger (no recomputation)")
    p.add_argument("--ledger", required=True, help="ledger.csv from `backtest`")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        if args.verbose:
            raise
        return 1


if __name__ == "__main__":
    sys.exit(main())
