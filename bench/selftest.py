#!/usr/bin/env python3
"""Show that every benchmark check can fail: good outputs pass, each corrupted one is caught.

    python3 bench/selftest.py

Builds real outputs from one small round of ``exact_small`` (all six
strategies, with ``cfpilot stats`` on its records) and one of
``dense_sweep``, runs every check on them, then hands each check a
corrupted copy. Prints one PASS/FAIL line per case; exits 1 on any FAIL.
"""

import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from run import BENCH, LIKELY_PERCENT, import_cfpilot

SEED = 7


def with_eval(drop, name, **changes):
    """A fresh copy of ``drop`` (no cached terms) with one evaluation's fields replaced."""
    evals = dict(drop.evals)
    evals[name] = dataclasses.replace(evals[name], **changes)
    return checks.Drop(sim=drop.sim, power_policy=drop.power_policy, beta=drop.beta,
                       ue_positions=drop.ue_positions, evals=evals)


def scaled(values, index, factor):
    out = np.array(values, dtype=float)
    out[index] *= factor
    return out


def worsening_swap(drop):
    """Repulsive labels with the pair whose swap loses most exchanged: swapping back improves."""
    labels = drop.evals["repulsive"].labels
    gains = checks.swap_gains(checks.distances(drop.ue_positions), labels)
    gains[np.isinf(gains)] = np.inf  # skip same-cluster pairs
    u, w = np.unravel_index(np.argmin(gains), gains.shape)
    swapped = labels.copy()
    swapped[[u, w]] = swapped[[w, u]]
    return swapped


def next_rank(samples):
    """The sample one rank above the nearest-rank percentile."""
    want = checks.nearest_rank(samples, LIKELY_PERCENT)
    return next(v for v in sorted(samples) if v > want)


def with_field(text, prefix, column, value):
    """``text`` with one column of the first line starting with ``prefix`` replaced."""
    lines = text.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def cases(drop, records_text, stats_stdout, sweep_text, samples, sim, strategies, sweep_cfg):
    rows = checks.parse_records(records_text)
    rep = drop.evals["repulsive"]
    optimum = drop.terms("random")[3]
    rates = {name: checks.full_power_sum_rate(drop.beta, ev.labels, drop.sim)
             for name, ev in drop.evals.items() if ev.labels is not None and name != "exhaustive"}
    weakest = min(rates, key=rates.get)
    greedy = [row[4] for row in rows if row[1] == "greedy"]
    first = records_text.split("\n")[1]
    yield ("sinr_closed_form", "one SINR row perturbed by 1e-9",
           checks.check_sinr_closed_form, drop,
           with_eval(drop, "greedy", sinr=scaled(drop.evals["greedy"].sinr, 3, 1 + 1e-9)))
    yield ("throughput_formula", "one throughput perturbed by 1e-9",
           checks.check_throughput_formula, drop,
           with_eval(drop, "random", throughput=scaled(drop.evals["random"].throughput, 0, 1 + 1e-9)))
    yield ("eta_unit_box", "one eta above 1",
           checks.check_eta_unit_box, drop,
           with_eval(drop, "random", eta=np.minimum(drop.evals["random"].eta * 2.0, 1.0 + 1e-6)))
    yield ("sinr_equalized", "one max-min SINR raised by 1e-6",
           checks.check_sinr_equalized, drop,
           with_eval(drop, "random", sinr=scaled(drop.evals["random"].sinr, 0, 1 + 1e-6)))
    yield ("common_sinr_bounds", "common SINR above t*",
           checks.check_common_sinr_bounds, drop,
           with_eval(drop, "random", sinr=np.full(sim.num_ues, optimum * (1 + 1e-6))))
    yield ("common_sinr_bounds", "common SINR below the full-power minimum",
           checks.check_common_sinr_bounds, drop,
           with_eval(drop, "random", sinr=np.full(sim.num_ues, drop.terms("random")[2] * (1 - 1e-6))))
    yield ("repulsive_balanced", "one UE moved to another cluster",
           checks.check_repulsive_balanced, drop,
           with_eval(drop, "repulsive", labels=np.where(np.arange(rep.labels.size) == 0,
                                                       (rep.labels[0] + 1) % sim.num_pilots,
                                                       rep.labels)))
    yield ("repulsive_local_optimum", "a swap-improvable labeling",
           checks.check_repulsive_local_optimum, drop,
           with_eval(drop, "repulsive", labels=worsening_swap(drop)))
    yield ("optimal_repulsive", "optimal-repulsive labels below the enumerated optimum",
           checks.check_optimal_repulsive, drop,
           with_eval(drop, "optimal-repulsive", labels=worsening_swap(drop)))
    yield ("exhaustive_dominates", f"exhaustive labels replaced by {weakest}'s",
           checks.check_exhaustive_dominates, drop,
           with_eval(drop, "exhaustive", labels=drop.evals[weakest].labels))
    yield ("records_csv", "one throughput cell off by 0.1%",
           lambda text: checks.check_records_csv(text, sim, strategies), records_text,
           with_field(records_text, first, 4, f"{float(first.split(',')[4]) * 1.001:.9g}"))
    yield ("records_csv", "one row missing",
           lambda text: checks.check_records_csv(text, sim, strategies), records_text,
           records_text.replace(first + "\n", "", 1))
    yield ("stats_output", "greedy percentile off by one rank",
           lambda out: checks.check_stats_output(out, rows, LIKELY_PERCENT), stats_stdout,
           with_field(stats_stdout, "greedy,", 3, f"{next_rank(greedy):.9g}"))
    yield ("sweep_percentiles", "greedy at 200 APs off by one rank",
           lambda text: checks.check_sweep_percentiles(text, samples, LIKELY_PERCENT), sweep_text,
           with_field(sweep_text, "num_aps,200,greedy,", 5, f"{next_rank(samples[(200, 'greedy')]):.9g}"))
    yield ("sweep_layout", "wrong sample count",
           lambda text: checks.check_sweep_layout(text, sweep_cfg.sim, sweep_cfg.sweep_var,
                                                  sweep_cfg.sweep_values, sweep_cfg.strategies,
                                                  LIKELY_PERCENT),
           sweep_text, with_field(sweep_text, "num_aps,200,greedy,", 3, "1"))
    yield ("same_output", "replayed file one byte short",
           lambda text: checks.check_same_output(records_text, text), records_text, records_text[:-1])


def main():
    import_cfpilot()
    from cfpilot.cli import main as cli_main
    from cfpilot.harness import load_config
    from replay import Tracer, replay_run, replay_sweep

    small = str(BENCH / "configs" / "exact_small.cfg")
    cfg = load_config(small)
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        records_path = Path(tmp) / "records.csv"
        sweep_path = Path(tmp) / "sweep.csv"
        drops, _ = replay_run(small, SEED, records_path, Tracer(False))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli_main(["stats", "--in", str(records_path), "--percentile", str(LIKELY_PERCENT)])
        sweep_config = str(BENCH / "configs" / "dense_sweep.cfg")
        _, samples = replay_sweep(sweep_config, SEED,
                                  LIKELY_PERCENT, sweep_path, Tracer(False))
        records_text = records_path.read_text(encoding="utf-8")
        sweep_text = sweep_path.read_text(encoding="utf-8")
    sim = dataclasses.replace(cfg.sim, seed=SEED)

    ok = True
    good_drops = [all(not check(d) for d in drops) for check in checks.DROP_CHECKS.values()]
    if not all(good_drops):
        ok = False
        print("FAIL good outputs: a drop check rejects the library's own output")
    for name, what, check, good, bad in cases(drops[0], records_text, stdout.getvalue(), sweep_text,
                                              samples, sim, cfg.strategies, load_config(sweep_config)):
        passes_good = not check(good)
        caught = check(bad)
        verdict = passes_good and bool(caught)
        ok &= verdict
        print(f"{'PASS' if verdict else 'FAIL'} {name}: {what}"
              f"{'' if passes_good else ' (good output rejected)'}"
              f"{' -> ' + caught[0] if caught else ' (not caught)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
