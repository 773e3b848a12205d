#!/usr/bin/env python3
"""cfpilot benchmark: drive the CLI in-process on one workload, check every output, print metrics.

    python3 bench/run.py --workload main_m100 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload main_m100 --seed 1 --seconds 20 --trace 0 --repeat 10

A run is a sequence of whole rounds; a round is one CLI invocation (plus
``cfpilot stats`` on ``main_m100``) over the workload config's realizations.
Round 0 uses the config's own seed and is the same in every run; round n >= 1
uses seed ``1000 * --seed + n``. Rounds repeat until they have taken
``--seconds`` in total. The last line of stdout is one JSON object.

--trace 0  end-to-end metrics of the untraced CLI rounds.
--trace 1  each round is run through the CLI and then replayed through the
           public functions with every call timed; prints the per-layer
           metrics and writes them, with the spans, to bench/out/.../trace.json.
--repeat N runs the given command N times in fresh processes with seeds
           --seed .. --seed+N-1 and prints each metric's median and quartiles.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# name -> (config, subcommand, headline strategy); every workload evaluates under max-min power.
WORKLOADS = {
    "main_m100": ("main_m100.cfg", "run+stats", "repulsive"),
    "exact_small": ("exact_small.cfg", "run", "repulsive"),
    "dense_sweep": ("dense_sweep.cfg", "sweep", "greedy"),
}
# The 95%-likely throughput is the 5th nearest-rank percentile.
LIKELY_PERCENT = 5
MIN_ROUNDS = 2  # the fixed reference round and one seeded round


def since_process_start():
    """Seconds since this process was created: boot clock minus the start time in /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    return parser.parse_args(argv)


def import_cfpilot():
    """Import cfpilot from this checkout's src/, never from an installed copy."""
    if not (SRC / "cfpilot" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no cfpilot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfpilot
    if Path(cfpilot.__file__).resolve().parent != SRC / "cfpilot":
        raise SystemExit(f"benchmark: imported cfpilot from {cfpilot.__file__}, not {SRC}")
    return cfpilot


@dataclass
class Round:
    """One CLI round: seed, wall time, exit codes, output file text and captured stdout."""

    index: int
    seed: int
    seconds: float
    codes: list
    text: str
    stdout: str


@dataclass
class Replay:
    """One round replayed through the public functions: its drops, record rows, wall time, CSV bytes."""

    drops: list
    rows: int
    seconds: float
    written_bytes: int


def cli_round(cli_main, kind, config, index, seed, path):
    argvs = {
        "run": [["run", "--config", config, "--seed", str(seed), "--out", str(path)]],
        "run+stats": [["run", "--config", config, "--seed", str(seed), "--out", str(path)],
                      ["stats", "--in", str(path), "--percentile", str(LIKELY_PERCENT)]],
        "sweep": [["sweep", "--config", config, "--seed", str(seed),
                   "--percentile", str(LIKELY_PERCENT), "--out", str(path)]],
    }[kind]
    stdout = io.StringIO()
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        for argv in argvs:
            codes.append(cli_main(argv))
            if codes[-1] != 0:
                break
    seconds = time.perf_counter() - start
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    path.unlink(missing_ok=True)
    return Round(index, seed, seconds, codes, text, stdout.getvalue())


def run_once(args):
    import_cfpilot()
    from cfpilot.cli import main as cli_main
    from cfpilot.harness import load_config

    config_name, kind, headline = WORKLOADS[args.workload]
    config = str(BENCH / "configs" / config_name)
    cfg = load_config(config)
    setup_s = since_process_start()

    from replay import LAYERS, Tracer, replay_run, replay_sweep

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    drops_per_round = cfg.sim.realizations * max(1, len(cfg.sweep_values))
    tracer = Tracer(enabled=bool(args.trace))
    failures = []

    def replay(rnd):
        """Replay a round through the public functions; check it against the CLI's output."""
        path = out_dir / f"replay{rnd.index}.csv"
        tracer.round = rnd.index
        start = time.perf_counter()
        if kind == "sweep":
            drops, samples = replay_sweep(config, rnd.seed, LIKELY_PERCENT, path, tracer)
            rows = sum(len(v) for v in samples.values())
        else:
            stats = LIKELY_PERCENT if kind == "run+stats" else None
            drops, records = replay_run(config, rnd.seed, path, tracer, stats)
            rows = len(records)
        seconds = time.perf_counter() - start
        written = path.read_text(encoding="utf-8")
        path.unlink()
        failures.extend(f"round {rnd.index}: {msg}" for msg in checks.check_same_output(rnd.text, written))
        if kind == "sweep" and rnd.text:
            failures.extend(checks.check_sweep_percentiles(rnd.text, samples, LIKELY_PERCENT))
        return Replay(drops, rows, seconds, len(written.encode()) if kind != "sweep" else 0)

    rounds, traced = [], []
    elapsed = 0.0
    while elapsed < args.seconds or len(rounds) < MIN_ROUNDS:
        index = len(rounds)
        seed = cfg.sim.seed if index == 0 else 1000 * args.seed + index
        rnd = cli_round(cli_main, kind, config, index, seed, out_dir / f"round{index}.csv")
        rounds.append(rnd)
        elapsed += rnd.seconds
        if args.trace:
            traced.append(replay(rnd))
            elapsed += traced[-1].seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(rounds) * drops_per_round
    failed = sum(drops_per_round for rnd in rounds if any(rnd.codes))
    for rnd in rounds:
        if any(rnd.codes):
            continue
        if kind == "sweep":
            failures.extend(checks.check_sweep_layout(rnd.text, cfg.sim, cfg.sweep_var,
                                                      cfg.sweep_values, cfg.strategies,
                                                      LIKELY_PERCENT))
        else:
            failures.extend(checks.check_records_csv(rnd.text, cfg.sim, cfg.strategies))
            if kind == "run+stats":
                failures.extend(checks.check_stats_output(
                    rnd.stdout, checks.parse_records(rnd.text), LIKELY_PERCENT))
    if not args.trace:
        traced = [replay(rnd) for rnd in rounds[:MIN_ROUNDS]]
    gaps = []
    for rep in traced:
        for drop in rep.drops:
            for name, check in checks.DROP_CHECKS.items():
                failures.extend(f"{name}: {msg}" for msg in check(drop))
            if drop.power_policy == "maxmin":
                gaps.extend(checks.common_sinr_gap(drop, s) for s in drop.evals)

    if args.trace:
        metrics = layer_metrics(tracer, LAYERS, rounds, traced, gaps)
        (out_dir / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": metrics,
            "spans": [{"layer": layer, "round": rnd, "start": start, "end": end}
                      for layer, rnd, start, end in tracer.spans]}) + "\n", encoding="utf-8")
    else:
        shutil.rmtree(out_dir)
        metrics = {
            "setup_s": (setup_s, "s"),
            "realizations_per_s": (statistics.median(drops_per_round / r.seconds for r in rounds), "1/s"),
            "likely_mbps": (likely_bps(kind, headline, rounds[0]) / 1e6, "Mbps"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def likely_bps(kind, headline, rnd):
    """95%-likely throughput of the headline strategy in the fixed reference round, as the CLI reports it."""
    if kind == "sweep":
        rows = checks.parse_sweep(rnd.text)
        return statistics.fmean(float(row[5]) for row in rows if row[2] == headline)
    if kind == "run+stats":
        for line in rnd.stdout.strip().split("\n")[2:]:
            strategy, _, _, value = line.split(",")
            if strategy == headline:
                return float(value)
        raise ValueError(f"stats printed no {headline} line")
    samples = [row[4] for row in checks.parse_records(rnd.text) if row[1] == headline]
    return checks.nearest_rank(samples, LIKELY_PERCENT)


def layer_metrics(tracer, layers, rounds, traced, gaps):
    busy = tracer.busy()
    metrics = {}
    for layer in layers:
        metrics[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        metrics[f"{layer}.calls"] = (len(tracer.durations(layer)), "count")
    per_call_ms = [d * 1e3 for d in tracer.durations("assignment.assign.repulsive")]
    for q in (50, 90):
        value = checks.nearest_rank(per_call_ms, q) if per_call_ms else 0.0
        metrics[f"assignment.assign.repulsive.p{q}_ms"] = (value, "ms")
    objectives = [checks.objective(checks.distances(d.ue_positions), d.evals["repulsive"].labels)
                  for rep in traced for d in rep.drops if "repulsive" in d.evals]
    metrics["assignment.repulsive.objective"] = (statistics.fmean(objectives) if objectives else 0.0, "m")
    metrics["power_control.max_min_power.gap"] = (statistics.median(gaps) if gaps else 0.0, "ratio")
    metrics["harness.write_records.bytes"] = (sum(rep.written_bytes for rep in traced), "B")
    metrics["harness.records.rows"] = (sum(rep.rows for rep in traced), "count")
    untraced = sum(r.seconds for r in rounds)
    metrics["trace.overhead_s"] = (sum(rep.seconds for rep in traced) - untraced, "s")
    metrics["trace.unaccounted_share"] = (1.0 - sum(busy.values()) / untraced, "ratio")
    metrics["trace.rounds"] = (len(rounds), "count")
    return metrics


def repeat(args):
    """Run the benchmark command N times in fresh processes; print median and quartiles per metric."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    results = []
    for i in range(args.repeat):
        argv = command + ["--workload", args.workload, "--seed", str(args.seed + i),
                          "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: run {i} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().split("\n")[-1]))
        print(json.dumps({"seed": args.seed + i, **results[-1]}), file=sys.stderr)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        print(f"{name:48s} {median:14.6g} {first['unit']:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {spread:.4f}")
    print(json.dumps({"workload": args.workload, "runs": len(results),
                      "correct": all(r["correct"] for r in results),
                      "attempted": [r["attempted"] for r in results],
                      "failed": [r["failed"] for r in results], "metrics": summary}))


def main(argv=None):
    args = parse_args(argv)
    if args.repeat:
        repeat(args)
        return 0
    print(json.dumps(run_once(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
