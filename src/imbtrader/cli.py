"""Command-line pipeline: generate, train, forecast, benchmark, backtest, sweep, report.

Every command reads an optional YAML config, checked once into the keyword
arguments of the library calls it feeds (flags win over config values,
which win over the defaults of those calls), writes its artifacts into
``--out``, and is idempotent: identical inputs and seed produce
byte-identical outputs. The data directory may come from ``--data`` or the
``IMBTRADER_DATA_DIR`` environment variable. Only ``generate`` and ``train``
read the config's ``reserves``; the commands that load a bundle read the
reserve ladder from ``models.json``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from ._fields import FieldError, array_of, boolean, integer, numeric, some_fields, string, timestamp
from .backtest import SimConfig, _build_report, beta_sweep, read_ledger, run_backtest, write_ledger
from .benchmarks import fit_benchmark_suite, run_benchmark
from .data_io import SyntheticConfig, load_dataset, resolve_data_dir, write_synthetic_dataset
from .dists import flatten_rows, moment_rows, quantile_rows
from .pipeline import TrainedModels, forecast_rows, train_models
from .price_models import ReserveGrid
from .risk import RISK_KINDS
from .strategy import ActionSpace


def _alpha(value) -> float | None:
    """A risk weight in [0, 1], or ``adaptive`` (None: re-tuned every period)."""
    if isinstance(value, str) and value.strip().lower() == "adaptive":
        return None
    return numeric(value)


# The SimConfig fields a flag sets, with the reader of the flag's text.
_SIM_FLAGS = {"alpha": _alpha, "beta_est": float, "beta_true": float, "window": int}


def _sim_flag(name: str):
    """The flag of ``SimConfig.<name>``: its value, read and range-checked when the flags are parsed, so a
    bad value fails naming the flag (``--alpha adaptive`` reads as None). A flag not given is left out of
    the parsed arguments (``default=argparse.SUPPRESS``)."""
    def read(text: str):
        try:
            value = _SIM_FLAGS[name](text)
            SimConfig(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return read


def _beta_grid(which: str):
    """The flag of a comma-separated grid of ``SimConfig.beta_<which>`` values, each read by ``_sim_flag``."""
    def read(text: str) -> list[float]:
        values = [_sim_flag(f"beta_{which}")(v) for v in text.split(",") if v.strip() != ""]
        if not values:
            raise argparse.ArgumentTypeError("empty grid")
        return values
    return read


# readers of the synthetic keys, by SyntheticConfig's field annotations (strings: annotations are postponed)
_READ_BY_TYPE = {"int": integer, "float": numeric}
_ACTION_KEYS = {"step_mw": "step", "u_max_mw": "u_max", "allow_short": "allow_short"}

# Each section's keys are the keyword arguments of the call it feeds: `synthetic` of SyntheticConfig
# (but its `seed`, the top-level one, and its `grid`), `reserves` of ReserveGrid, `model` of train_models
# (but its `l2`), `benchmark` of fit_benchmark_suite, and `strategy` of ActionSpace (renamed by
# _ACTION_KEYS) and SimConfig.
_read_config = some_fields({
    "seed": integer,
    "synthetic": some_fields({
        f.name: _READ_BY_TYPE[f.type] for f in dataclasses.fields(SyntheticConfig) if f.name not in ("seed", "grid")
    }),
    "reserves": some_fields({f.name: lambda v: tuple(array_of(numeric)(v)) for f in dataclasses.fields(ReserveGrid)}),
    "model": some_fields(dict.fromkeys(("n_q", "kfold", "logistic_max_iter", "bank_max_iter"), integer)),
    "strategy": some_fields({
        "step_mw": numeric, "u_max_mw": numeric, "allow_short": boolean, "measure": string, "alpha": _alpha,
        "window": integer, "alpha_grid_size": integer, "beta_est": numeric, "beta_true": numeric,
    }),
    "benchmark": some_fields({"max_iter": integer}),
})


def _load_config(path) -> dict:
    """The config file's keys, checked, as keyword arguments per library call.

    A key the file leaves out is left out here too, so its default is the
    one of the call it feeds. An unknown key or a value of the wrong type
    raises ``ValueError("<file>: <section>.<key>: <problem>")``, a strategy
    value ``ActionSpace`` or ``SimConfig`` rejects ``"<file>: strategy: ..."``.
    """
    doc = None
    if path is not None:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    try:
        config = _read_config({} if doc is None else doc)
    except FieldError as exc:
        raise ValueError(f"{path}: {exc}") from None
    strategy = config.get("strategy", {})
    kwargs = {
        "seed": config.get("seed"),
        "synthetic": config.get("synthetic", {}),
        "reserves": config.get("reserves", {}),
        "model": config.get("model", {}),
        "actions": {_ACTION_KEYS[k]: v for k, v in strategy.items() if k in _ACTION_KEYS},
        "sim": {k: v for k, v in strategy.items() if k not in _ACTION_KEYS},
        "benchmark": config.get("benchmark", {}),
    }
    try:
        SimConfig(**kwargs["sim"], actions=ActionSpace(**kwargs["actions"]))
    except ValueError as exc:
        raise ValueError(f"{path}: strategy: {exc}") from None
    return kwargs


def _given(**kwargs) -> dict:
    """The arguments that are not None: a flag or key left out keeps the default of the call."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _seed(config: dict, args):
    flag = getattr(args, "seed", None)  # sweep has no --seed
    return flag if flag is not None else config["seed"]


def _sim_config(config: dict, args) -> SimConfig:
    flags = {name: value for name, value in vars(args).items() if name in _SIM_FLAGS}
    sim = {**config["sim"], **_given(measure=args.measure, seed=_seed(config, args)), **flags}
    return SimConfig(**sim, actions=ActionSpace(**config["actions"]))


def _between(ticks, start, end):
    """The ticks from ``start`` to ``end``, both included; None leaves that side open."""
    return [t for t in ticks if (start is None or t.timestamp >= start) and (end is None or t.timestamp <= end)]


def _out_of_sample(ticks, args, models: TrainedModels):
    """The ticks inside ``--from`` / ``--to`` and strictly after the bundle's training end: the ones
    ``forecast``, ``benchmark``, ``backtest`` and ``sweep`` score or trade."""
    return [t for t in _between(ticks, args.start, args.end) if t.timestamp > models.train_end]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_ticks(args, grid):
    """The dataset's ticks; ``market.csv`` must have the columns of the reserve ladder ``grid``."""
    return load_dataset(resolve_data_dir(args.data), grid)


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    grid = ReserveGrid(**config["reserves"])
    cfg = SyntheticConfig(**config["synthetic"], **_given(seed=_seed(config, args)), grid=grid)
    out = _out_dir(args)
    truth = write_synthetic_dataset(out, cfg)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")
    print(f"generated {cfg.n_periods} periods into {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    grid = ReserveGrid(**config["reserves"])
    ticks = _between(_load_ticks(args, grid), args.start, args.end)
    if not ticks:
        raise ValueError("no training ticks in the requested range")
    models = train_models(
        ticks,
        grid=grid,
        u_max=ActionSpace(**config["actions"]).u_max,
        **config["model"],
        **_given(seed=_seed(config, args)),
    )
    out = _out_dir(args)
    models.save(out / "models.json")
    print(
        f"trained on {len(ticks)} ticks "
        f"[{models.train_start.isoformat()} .. {models.train_end.isoformat()}]; "
        f"k_mdp={models.impact.k_mdp:.4f} k_mip={models.impact.k_mip:.4f}"
    )
    return 0


def cmd_forecast(args) -> int:
    _load_config(args.config)  # checked, though forecast reads none of its keys
    models = TrainedModels.load(args.models)
    ticks = _out_of_sample(_load_ticks(args, models.grid), args, models)
    if not ticks:
        raise ValueError("no forecast ticks after the training range")
    # the weight model's mixture: the rows the benchmark's `mixture` row scores
    pi, down, up = forecast_rows(models, ticks)
    flat = flatten_rows(pi, down, up)
    columns = [pi, *moment_rows(*flat), *quantile_rows(*flat, (0.1, 0.25, 0.5, 0.75, 0.9)).T]
    out = _out_dir(args)
    lines = ["timestamp,pi,mean,std,p10,p25,p50,p75,p90,observed"]
    for tick, values in zip(ticks, np.column_stack(columns).tolist()):
        lines.append(",".join([tick.timestamp.isoformat()] + [repr(v) for v in values + [tick.settlement_price]]))
    (out / "forecasts.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(ticks)} forecasts to {out / 'forecasts.csv'}")
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    ticks = _load_ticks(args, models.grid)
    train_ticks = _between(ticks, models.train_start, models.train_end)
    eval_ticks = _out_of_sample(ticks, args, models)
    if not train_ticks or not eval_ticks:
        raise ValueError("benchmark needs ticks on both sides of the training boundary")
    suite = fit_benchmark_suite(train_ticks, models, **config["benchmark"])
    table = run_benchmark(suite, eval_ticks)
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
    result = run_backtest(sim, models, _out_of_sample(_load_ticks(args, models.grid), args, models))
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


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    models = TrainedModels.load(args.models)
    sim = _sim_config(config, args)
    ticks = _out_of_sample(_load_ticks(args, models.grid), args, models)
    sweep = beta_sweep(sim, models, ticks, args.beta_est_grid, args.beta_true_grid)
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
    records, meta = read_ledger(args.ledger)
    report = _build_report(records, meta["n_skipped"], meta["legs"])
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

    def common(p, needs_data=True, needs_models=False, seeded=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        if needs_data:
            p.add_argument("--data", help="dataset directory (or set IMBTRADER_DATA_DIR)")
            p.add_argument("--from", dest="start", type=timestamp, help="first timestamp (ISO 8601; no offset: UTC)")
            p.add_argument("--to", dest="end", type=timestamp, help="last timestamp (ISO 8601; no offset: UTC)")
        if needs_models:
            p.add_argument("--models", required=True, help="models.json from `train`")

    p = sub.add_parser("generate", help="write a synthetic dataset")
    common(p, needs_data=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit all models and save the bundle")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="write per-period forecast summaries")
    common(p, needs_models=True, seeded=False)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("benchmark", help="score the mixture model against benchmarks")
    common(p, needs_models=True, seeded=False)
    p.set_defaults(func=cmd_benchmark)

    for name, func in (("backtest", cmd_backtest), ("sweep", cmd_sweep)):
        # flags in full only: an abbreviation would read sweep's --beta-est as --beta-est-grid
        p = sub.add_parser(name, help=f"run the trading {name}", allow_abbrev=False)
        common(p, needs_models=True, seeded=name == "backtest")  # only a backtest ledger records a seed
        p.add_argument("--measure", choices=RISK_KINDS, default=None)
        p.add_argument("--alpha", type=_sim_flag("alpha"), default=argparse.SUPPRESS,
                       help="risk weight in [0,1] or 'adaptive'")
        p.add_argument("--window", type=_sim_flag("window"), default=argparse.SUPPRESS, help="adaptive window size N")
        for b in ("est", "true"):  # a sweep takes both reactivities from its grids, none from the config
            if name == "backtest":
                p.add_argument(f"--beta-{b}", dest=f"beta_{b}", type=_sim_flag(f"beta_{b}"), default=argparse.SUPPRESS)
            else:
                p.add_argument(f"--beta-{b}-grid", required=True, type=_beta_grid(b),
                               help=f"comma-separated values; the config's strategy.beta_{b} is not read")
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
