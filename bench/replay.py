"""Replay one CLI round through cfpilot's public functions, optionally timing each call.

The replay calls the public functions in the order ``run_experiment``,
``cfpilot stats`` and ``run_sweep`` use them, so its output files must be
byte-identical to the CLI's. It keeps every intermediate (beta, UE
positions, pilot labels, eta, SINR, throughput) for the checks in
``checks.py``. With a recording ``Tracer`` it also measures the busy time
and call count of each layer from outside the library.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import replace

from cfpilot.assignment import assign
from cfpilot.chanest import estimation_quality
from cfpilot.harness import (ThroughputRecord, load_config, percentile, read_records,
                             strategy_seed, throughput_by_strategy, write_records,
                             write_sweep)
from cfpilot.power_control import full_power, max_min_power
from cfpilot.rate_model import rate_report
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr

from checks import Drop, Evaluation

STRATEGIES = ("random", "greedy", "repulsive", "optimal-repulsive", "exhaustive", "oracle")
# Every traced call, as "<module>.<function>"; assignment is split per strategy.
LAYERS = ("cli.load_config", "topology.generate_realization",
          *(f"assignment.assign.{name}" for name in STRATEGIES),
          "chanest.estimation_quality", "power_control.max_min_power",
          "rate_model.rate_report", "harness.write_records", "harness.read_records",
          "harness.throughput_by_strategy", "harness.percentile", "harness.write_sweep")


class Tracer:
    """Records one span (layer, round, start, end) per call when ``enabled``."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.round = None

    def call(self, layer, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((layer, self.round, start, time.perf_counter()))
        return out

    def busy(self):
        totals = defaultdict(float)
        for layer, _, start, end in self.spans:
            totals[layer] += end - start
        return totals

    def durations(self, layer):
        return [end - start for name, _, start, end in self.spans if name == layer]


def _experiment(cfg, tracer):
    """``run_experiment`` step by step; returns (sorted records, drops)."""
    sim = cfg.sim
    rho_p = pilot_snr(sim)
    rho_u = uplink_snr(sim)
    records = []
    drops = []
    for index in range(sim.realizations):
        realization = tracer.call("topology.generate_realization", generate_realization, sim, index)
        drop = Drop(sim=sim, power_policy=cfg.power_policy, beta=realization.beta,
                    ue_positions=realization.ue_positions)
        for strategy in cfg.strategies:
            pilot = tracer.call(f"assignment.assign.{strategy}", assign, strategy, realization, sim,
                                seed=strategy_seed(sim.seed, index, strategy))
            quality = tracer.call("chanest.estimation_quality", estimation_quality,
                                  realization.beta, pilot, sim.num_pilots, rho_p)
            if cfg.power_policy == "maxmin":
                eta = tracer.call("power_control.max_min_power", max_min_power,
                                  realization.beta, quality.gamma, pilot, rho_u).eta
            else:
                eta = full_power(sim.num_ues).eta
            report = tracer.call("rate_model.rate_report", rate_report,
                                 realization.beta, quality.gamma, pilot, eta, sim)
            records.extend(ThroughputRecord(index, strategy, ue, float(report.sinr[ue]),
                                            float(report.throughput[ue]))
                           for ue in range(sim.num_ues))
            drop.evals[strategy] = Evaluation(labels=None if pilot.oracle else pilot.p.copy(),
                                              eta=eta, sinr=report.sinr,
                                              throughput=report.throughput)
        drops.append(drop)
    records.sort(key=lambda r: (r.realization, r.strategy, r.ue))
    return records, drops


def replay_run(config_path, seed, out_path, tracer, stats_percent=None):
    """``cfpilot run`` (and ``cfpilot stats`` when a percent is given); returns drops and records."""
    cfg = tracer.call("cli.load_config", load_config, config_path)
    cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
    records, drops = _experiment(cfg, tracer)
    tracer.call("harness.write_records", write_records, records, out_path)
    if stats_percent is not None:
        grouped = tracer.call("harness.throughput_by_strategy", throughput_by_strategy,
                              tracer.call("harness.read_records", read_records, out_path))
        for samples in grouped.values():
            tracer.call("harness.percentile", percentile, samples, stats_percent / 100.0)
    return drops, records


def replay_sweep(config_path, seed, percent, out_path, tracer):
    """``cfpilot sweep``; returns drops and samples[(value, strategy)] -> throughputs."""
    cfg = tracer.call("cli.load_config", load_config, config_path)
    cfg = replace(cfg, sim=replace(cfg.sim, seed=seed))
    q = percent / 100.0
    rows = []
    drops = []
    samples = {}
    for value in cfg.sweep_values:
        sim = replace(cfg.sim, **{cfg.sweep_var: int(value)})
        records, value_drops = _experiment(replace(cfg, sim=sim), tracer)
        drops.extend(value_drops)
        for strategy in cfg.strategies:
            values = [r.throughput_bps for r in records if r.strategy == strategy]
            samples[(int(value), strategy)] = values
            rows.append((cfg.sweep_var, int(value), strategy, len(values), q * 100.0,
                         tracer.call("harness.percentile", percentile, values, q)))
    tracer.call("harness.write_sweep", write_sweep, rows, out_path)
    return drops, samples
