"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The strategy-comparison metric throughout is the 95%-likely per-user
throughput: the level exceeded by 95% of user samples, i.e. the nearest-rank
percentile at q = 0.05 of the pooled per-user throughput. Reference absolute
values for the M-sweep are reported as diagnostics and flagged when they
deviate by more than +/-40%.

Run with ``pytest tests/test_acceptance.py -v -s`` (several minutes).
"""

import functools

import numpy as np
import pytest

from cfpilot.assignment import (assign, cluster_objective, optimal_repulsive, oracle_assignment,
                                pairwise_distance, random_assignment, repulsive_heuristic)
from cfpilot.chanest import estimation_quality
from cfpilot.config import ExperimentConfig, SimConfig
from cfpilot.harness import (percentile, run_experiment, strategy_seed, throughput_by_strategy,
                             write_records)
from cfpilot.power_control import full_power, max_min_power
from cfpilot.rate_model import throughput, uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr
from reference import empirical_cdf, group_size_bounds, ks_distance, swap_gain
from validator import validate_sinr_empirically

SEED = 2022
LIKELY_Q = 0.05  # 95%-likely: level exceeded by 95% of samples
MAIN_STRATEGIES = ("random", "greedy", "repulsive", "oracle")
REFERENCE_MBPS = {
    100: {"random": 3.5, "greedy": 4.1, "repulsive": 5.3, "oracle": 5.9},
    200: {"random": 6.3, "greedy": 6.9, "repulsive": 7.9, "oracle": 8.4},
    300: {"random": 7.9, "greedy": 8.9, "repulsive": 9.9, "oracle": 10.3},
}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@functools.lru_cache(maxsize=None)
def likely_table(num_aps, num_ues, num_pilots, realizations, strategies=MAIN_STRATEGIES):
    sim = SimConfig(num_aps=num_aps, num_ues=num_ues, num_pilots=num_pilots,
                    realizations=realizations, seed=SEED)
    cfg = ExperimentConfig(sim=sim, strategies=strategies, power_policy="maxmin")
    groups = throughput_by_strategy(run_experiment(cfg))
    return {name: percentile(vals, LIKELY_Q) for name, vals in groups.items()}


def evaluate(realization, cfg, pilot):
    rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
    gamma = estimation_quality(realization.beta, pilot, cfg.num_pilots, rho_p).gamma
    eta = max_min_power(realization.beta, gamma, pilot, rho_u).eta
    return throughput(uplink_sinr(realization.beta, gamma, pilot, eta, rho_u), cfg)


def test_criterion_1_small_scale_optimality():
    cfg = SimConfig(num_aps=50, num_ues=12, num_pilots=3, realizations=100, seed=SEED)
    tp_rep, tp_exh = [], []
    equal = 0
    ratios = []
    for index in range(cfg.realizations):
        realization = generate_realization(cfg, index)
        p_rep = assign("repulsive", realization, cfg, strategy_seed(SEED, index, "repulsive"))
        p_exh = assign("exhaustive", realization, cfg, strategy_seed(SEED, index, "exhaustive"))
        p_opt = assign("optimal-repulsive", realization, cfg,
                       strategy_seed(SEED, index, "optimal-repulsive"))
        tp_rep.extend(evaluate(realization, cfg, p_rep).tolist())
        tp_exh.extend(evaluate(realization, cfg, p_exh).tolist())
        scores = pairwise_distance(realization.ue_positions)
        score_h = cluster_objective(scores, p_rep.p)
        score_o = cluster_objective(scores, p_opt.p)
        ratios.append(score_h / score_o)
        equal += int(abs(score_h - score_o) < 1e-9)
    ks = ks_distance(tp_rep, tp_exh)
    ok = ks <= 0.08 and equal >= 90 and min(ratios) >= 0.99
    report(1, ok, f"KS(repulsive, exhaustive) = {ks:.4f} (<= 0.08); "
                  f"objective equality {equal}/100 (>= 90); min ratio {min(ratios):.4f} (>= 0.99)")


def test_criterion_2_strategy_ordering():
    table = likely_table(100, 40, 10, 400)
    chain = [table[s] for s in ("random", "greedy", "repulsive", "oracle")]
    ok = chain[0] < chain[1] < chain[2] < chain[3]
    report(2, ok, "95%-likely throughput [Mbps]: " +
           " < ".join(f"{s}={table[s] / 1e6:.2f}" for s in ("random", "greedy", "repulsive", "oracle")))


def test_criterion_3_relative_gains():
    table = likely_table(100, 40, 10, 400)
    over_random = table["repulsive"] / table["random"]
    over_greedy = table["repulsive"] / table["greedy"]
    oracle_ratio = table["repulsive"] / table["oracle"]
    for strategy in MAIN_STRATEGIES:
        got = table[strategy] / 1e6
        ref = REFERENCE_MBPS[100][strategy]
        flag = "" if abs(got - ref) <= 0.4 * ref else "  ** >40% off reference **"
        print(f"  diagnostic M=100 {strategy}: {got:.2f} Mbps (reference {ref}){flag}")
    ok = over_random >= 1.20 and over_greedy >= 1.10 and 0.80 <= oracle_ratio <= 1.00
    report(3, ok, f"repulsive/random = {over_random:.3f} (>= 1.20); "
                  f"repulsive/greedy = {over_greedy:.3f} (>= 1.10); "
                  f"repulsive/oracle = {oracle_ratio:.3f} (in [0.80, 1.00])")


def test_criterion_4_ap_density_trend():
    tables = {m: likely_table(m, 40, 10, 500) for m in (100, 200, 300)}
    for m, table in tables.items():
        for strategy in MAIN_STRATEGIES:
            got = table[strategy] / 1e6
            ref = REFERENCE_MBPS[m][strategy]
            if abs(got - ref) > 0.4 * ref:
                print(f"  diagnostic M={m} {strategy}: {got:.2f} Mbps  ** >40% off reference {ref} **")
    monotone = all(tables[100][s] < tables[200][s] < tables[300][s] for s in MAIN_STRATEGIES)
    ratios = [tables[m]["repulsive"] / tables[m]["oracle"] for m in (100, 200, 300)]
    ratio_trend = ratios[0] <= ratios[1] and ratios[1] <= ratios[2]
    ok = monotone and ratio_trend
    report(4, ok, f"throughput increases with M for every strategy: {monotone}; "
                  f"repulsive/oracle ratios {[round(r, 3) for r in ratios]} non-decreasing: {ratio_trend}")


def test_criterion_5_ue_load_trend():
    sweep = (20, 30, 40, 50, 60)
    tables = {k: likely_table(100, k, 10, 200) for k in sweep}
    decreasing = all(
        all(tables[a][s] > tables[b][s] for a, b in zip(sweep, sweep[1:]))
        for s in MAIN_STRATEGIES)
    gap = tables[60]["repulsive"] / tables[60]["random"]
    ok = decreasing and gap >= 1.25
    report(5, ok, f"throughput decreases with K for every strategy: {decreasing}; "
                  f"repulsive/random at K=60 = {gap:.3f} (>= 1.25)")


def test_criterion_6_pilot_count_trend():
    # Measurement noise of the 95%-likely level is estimated by bootstrapping
    # the per-realization values; adjacent points may deviate from the
    # unimodal shape by at most two combined standard errors.
    sweep = (5, 8, 10, 13, 16, 20)
    realizations = 600
    values, errors = [], []
    rng = np.random.default_rng(SEED)
    for tp in sweep:
        sim = SimConfig(num_aps=100, num_ues=40, num_pilots=tp,
                        realizations=realizations, seed=SEED)
        cfg = ExperimentConfig(sim=sim, strategies=("repulsive",), power_policy="maxmin")
        records = run_experiment(cfg)
        per_real = np.zeros(realizations)
        for record in records:
            per_real[record.realization] = record.throughput_bps  # equalized per realization
        values.append(percentile(np.repeat(per_real, sim.num_ues), LIKELY_Q))
        resamples = [percentile(per_real[rng.integers(0, realizations, realizations)], LIKELY_Q)
                     for _ in range(200)]
        errors.append(float(np.std(resamples)))
    values = np.asarray(values)
    errors = np.asarray(errors)
    peak = int(np.argmax(values))
    slack = 2.0 * np.sqrt(errors[:-1] ** 2 + errors[1:] ** 2)
    diffs = np.diff(values)
    interior = 0 < peak < len(sweep) - 1
    rises = bool(np.all(diffs[:peak] >= -slack[:peak]))
    falls = bool(np.all(diffs[peak:] <= slack[peak:]))
    above_ends = values[peak] > values[0] and values[peak] > values[-1]
    ok = interior and rises and falls and above_ends
    report(6, ok, "repulsive 95%-likely by pilot count " +
           str([round(v / 1e6, 2) for v in values.tolist()]) + " Mbps (SE " +
           str([round(e / 1e6, 2) for e in errors.tolist()]) +
           f"); single interior maximum at tau_p={sweep[peak]} within noise: {ok}")


def test_criterion_7_closed_form_validation():
    cfg = SimConfig(num_aps=4, num_ues=2, num_pilots=2, seed=SEED)
    hits = 0
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(SEED + trial)
        beta = 10 ** rng.uniform(-13, -9, size=(4, 2))
        pilot = random_assignment(2, 2, SEED + trial)
        if rng.uniform() < 0.5:  # exercise co-pilot instances too
            pilot = type(pilot)(np.zeros(2, dtype=int))
        gamma = estimation_quality(beta, pilot, 2, pilot_snr(cfg)).gamma
        closed = uplink_sinr(beta, gamma, pilot, np.ones(2), uplink_snr(cfg))
        empirical = validate_sinr_empirically(beta, pilot, cfg, 100_000, seed=trial)
        rel = float((np.abs(empirical.sinr - closed) / closed).max())
        worst = max(worst, rel)
        hits += int(rel < 0.05)
    ok = hits >= 48  # 95% of 50, rounded up
    report(7, ok, f"validator within 5% of closed form on {hits}/50 instances (worst {worst:.3%})")


def _property_balance_and_local_optimality():
    for trial in range(1000):
        feats = np.random.default_rng(SEED + trial).uniform(0, 1000, size=(8, 2))
        out = repulsive_heuristic(feats, 2, seed=trial)
        low, high = group_size_bounds(8, 2)
        counts = np.bincount(out.p, minlength=2)
        if counts.min() < low or counts.max() > high:
            return False
        scores = pairwise_distance(feats)
        labels = out.p
        for u in range(8):
            for w in range(u + 1, 8):
                if labels[u] != labels[w] and swap_gain(scores, labels, u, w) > 1e-9:
                    return False
    return True


def _property_gamma_bounded():
    for trial in range(1000):
        cfg = SimConfig(num_aps=6, num_ues=5, num_pilots=2, seed=SEED + trial)
        real = generate_realization(cfg, 0)
        pilot = random_assignment(5, 2, trial)
        gamma = estimation_quality(real.beta, pilot, 2, pilot_snr(cfg)).gamma
        if not (np.all(gamma > 0) and np.all(gamma <= real.beta)):
            return False
    return True


def _property_oracle_dominance():
    strict = 0
    for trial in range(1000):
        cfg = SimConfig(num_aps=10, num_ues=5, num_pilots=2, seed=SEED + trial)
        real = generate_realization(cfg, 0)
        rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
        pilot = random_assignment(5, 2, trial)
        po = oracle_assignment(5)
        g = estimation_quality(real.beta, pilot, 2, rho_p).gamma
        go = estimation_quality(real.beta, po, 2, rho_p).gamma
        v = uplink_sinr(real.beta, g, pilot, max_min_power(real.beta, g, pilot, rho_u).eta, rho_u).min()
        vo = uplink_sinr(real.beta, go, po, max_min_power(real.beta, go, po, rho_u).eta, rho_u).min()
        if vo < v * (1 - 0.02):
            return False
        strict += int(vo >= v * (1 - 1e-3))
    return strict >= 995


def _property_maxmin_dominance():
    rng = np.random.default_rng(SEED)
    for trial in range(1000):
        cfg = SimConfig(num_aps=8, num_ues=4, num_pilots=2, seed=SEED + trial)
        real = generate_realization(cfg, 0)
        rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
        pilot = random_assignment(4, 2, trial)
        gamma = estimation_quality(real.beta, pilot, 2, rho_p).gamma
        eta = max_min_power(real.beta, gamma, pilot, rho_u).eta
        best = uplink_sinr(real.beta, gamma, pilot, eta, rho_u).min()
        if not np.all(eta >= 0) or not np.all(eta <= 1):
            return False
        full = uplink_sinr(real.beta, gamma, pilot, full_power(4).eta, rho_u).min()
        if best < full * (1 - 1e-9):
            return False
        for _ in range(3):
            sample = rng.uniform(0, 1, size=4)
            if best < uplink_sinr(real.beta, gamma, pilot, sample, rho_u).min() * (1 - 2e-3):
                return False
    return True


def _property_statistics_definitions():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        values = rng.normal(size=rng.integers(1, 40))
        q = float(rng.uniform(0.01, 1.0))
        ordered = np.sort(values)
        if percentile(values, q) != ordered[int(np.ceil(q * values.size)) - 1]:
            return False
        cdf = empirical_cdf(values)
        if abs(cdf[-1][1] - 1.0) > 1e-12:
            return False
        fractions = [f for _, f in cdf]
        if fractions != sorted(fractions):
            return False
        value, frac = cdf[rng.integers(0, len(cdf))]
        if abs(frac - np.mean(values <= value)) > 1e-12:
            return False
    return True


def _property_paired_determinism(tmp_path):
    sim = SimConfig(num_aps=8, num_ues=4, num_pilots=2, realizations=4, seed=SEED)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "repulsive", "oracle"),
                           power_policy="maxmin")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(run_experiment(cfg), a)
    write_records(run_experiment(cfg), b)
    return a.read_bytes() == b.read_bytes()


def test_criterion_8_property_suites(tmp_path):
    results = {
        "anticluster balance+local optimality": _property_balance_and_local_optimality(),
        "gamma <= beta": _property_gamma_bounded(),
        "oracle max-min dominance": _property_oracle_dominance(),
        "max-min dominance over full power and random eta": _property_maxmin_dominance(),
        "percentile/CDF definitions": _property_statistics_definitions(),
        "paired-run determinism (byte-identical CSV)": _property_paired_determinism(tmp_path),
    }
    ok = all(results.values())
    report(8, ok, "; ".join(f"{name}: {'ok' if good else 'FAILED'}"
                            for name, good in results.items()))
