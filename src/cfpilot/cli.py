"""Command-line entry point.

Subcommands:
  run    execute the experiment in a config file, write the records CSV
  stats  nearest-rank percentile of a records CSV, per strategy
  sweep  re-run an experiment across a swept variable, write aggregated stats

Exit codes: 0 success, 2 configuration error, 3 enumeration/iteration budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import BudgetExceededError, ConfigError
from .harness import (KEY_PARSERS, PERCENTILE_NOTE, load_config, percentile, read_records,
                      run_experiment, run_sweep, throughput_by_strategy,
                      write_records, write_sweep)


def _build_parser():
    # Flags other than --config, --in and --percentile store raw text under a config key.
    parser = argparse.ArgumentParser(prog="cfpilot",
                                     description="Uplink pilot-assignment simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", help="override the config seed")
    run.add_argument("--strategies", help="comma-separated strategy names")
    run.add_argument("--out", dest="output_path", help="records CSV path (default: config output_path)")

    stats = sub.add_parser("stats", help="per-strategy percentile of a records CSV")
    stats.add_argument("--in", dest="infile", required=True)
    stats.add_argument("--percentile", type=float, default=95.0)

    sweep = sub.add_parser("sweep", help="sweep one variable and write aggregated stats")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--var", dest="sweep_var", help="num_aps, num_ues or num_pilots")
    sweep.add_argument("--values", dest="sweep_values", help="comma-separated positive integers")
    sweep.add_argument("--seed")
    sweep.add_argument("--percentile", type=float, default=95.0)
    sweep.add_argument("--out", dest="output_path", help="stats CSV path (default: config output_path)")
    return parser


def _config_and_output(args):
    """The file's config with each given flag in place of its key, and its checked output path."""
    overrides = {key: text for key, text in vars(args).items()
                 if key in KEY_PARSERS and text is not None}
    cfg = load_config(args.config, overrides)
    path = cfg.output_path
    if not path:
        raise ConfigError("no output path: pass --out or set output_path in the config")
    parent = Path(path).parent
    try:
        if not parent.is_dir():
            raise ConfigError(f"output directory {str(parent)!r} does not exist")
        if Path(path).is_dir():
            raise ConfigError(f"output path {path!r} is a directory")
    except OSError as exc:  # e.g. a file name too long for the file system
        raise ConfigError(f"cannot check output path {path!r}: {exc}") from exc
    return cfg, path


def _fraction(percent):
    if not 0 < percent <= 100:
        raise ConfigError("--percentile must lie in (0, 100]")
    return percent / 100.0


def _cmd_run(args):
    cfg, out = _config_and_output(args)
    write_records(run_experiment(cfg), out)
    return 0


def _cmd_stats(args):
    q = _fraction(args.percentile)
    grouped = throughput_by_strategy(read_records(args.infile))
    if not grouped:
        raise ConfigError(f"no records in {args.infile}")
    print(PERCENTILE_NOTE)
    print("strategy,n,percentile,throughput_bps")
    for strategy, samples in grouped.items():
        print(f"{strategy},{samples.size},{args.percentile:.9g},{percentile(samples, q):.9g}")
    return 0


def _cmd_sweep(args):
    cfg, out = _config_and_output(args)
    write_sweep(run_sweep(cfg, q=_fraction(args.percentile)), out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "stats": _cmd_stats, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        guard = f" [{exc.guard}]" if exc.guard else ""
        print(f"budget error{guard}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
