import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import cfpilot.harness as harness
import cfpilot.power_control as power_control
from cfpilot.assignment import assign
from cfpilot.chanest import estimation_quality
from cfpilot.config import ExperimentConfig, SimConfig
from cfpilot.errors import BudgetExceededError, ConfigError
from cfpilot.harness import (CSV_HEADER, ThroughputRecord, empirical_cdf, ks_distance,
                             config_from_values, parse_config_text, percentile, read_records,
                             run_experiment, run_sweep, strategy_seed, throughput_by_strategy,
                             write_records, write_sweep)
from cfpilot.power_control import full_power, max_min_power
from cfpilot.rate_model import rate_report
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr


def test_percentile_examples():
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([42.0], 0.3) == 42.0
    assert percentile([10, 20], 0.5) == 10


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, float("nan"), 2.0], 1.0)


@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       q=st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_percentile_is_nearest_rank(values, q):
    got = percentile(values, q)
    ordered = sorted(values)
    # smallest value v with at least ceil(q*N) samples <= v
    count = int(np.ceil(q * len(values)))
    assert got == ordered[count - 1]
    assert sum(v <= got for v in ordered) >= count


def test_empirical_cdf_examples():
    assert empirical_cdf([5.0]) == [(5.0, 1.0)]
    assert empirical_cdf([1, 2, 2, 4]) == [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]
    with pytest.raises(ValueError):
        empirical_cdf([])


@given(values=st.lists(st.floats(-100, 100), min_size=1, max_size=50))
@settings(max_examples=100)
def test_empirical_cdf_is_monotone_step_to_one(values):
    cdf = empirical_cdf(values)
    fractions = [f for _, f in cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    points = [v for v, _ in cdf]
    assert points == sorted(points) and len(set(points)) == len(points)


def test_ks_distance_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.normal(size=rng.integers(5, 200))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(5, 200))
        assert ks_distance(a, b) == pytest.approx(scipy.stats.ks_2samp(a, b).statistic, rel=1e-9)


def tiny_experiment(**overrides):
    sim = dict(num_aps=6, num_ues=4, num_pilots=2, realizations=1, seed=5)
    sim.update(overrides.pop("sim", {}))
    cfg = dict(sim=SimConfig(**sim), strategies=("random", "oracle"), power_policy="maxmin")
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


def test_record_count_and_canonical_order():
    records = run_experiment(tiny_experiment())
    assert len(records) == 8  # K UEs x 2 strategies x 1 realization
    keys = [(r.realization, r.strategy, r.ue) for r in records]
    assert keys == sorted(keys)


def test_run_deterministic_csv_bytes(tmp_path):
    cfg = tiny_experiment(sim=dict(realizations=3))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_records(run_experiment(cfg), first)
    write_records(run_experiment(cfg), second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(CSV_HEADER.encode() + b"\n")
    assert b"\r" not in first.read_bytes()


def test_csv_round_trip(tmp_path):
    cfg = tiny_experiment(sim=dict(realizations=2))
    path = tmp_path / "records.csv"
    records = run_experiment(cfg)
    write_records(records, path)
    parsed = read_records(path)
    again = tmp_path / "again.csv"
    write_records(parsed, again)
    assert path.read_bytes() == again.read_bytes()
    for a, b in zip(records, parsed):
        assert (a.realization, a.strategy, a.ue) == (b.realization, b.strategy, b.ue)
        assert b.sinr == pytest.approx(a.sinr, rel=1e-8)
        assert b.throughput_bps == pytest.approx(a.throughput_bps, rel=1e-8)


def test_read_records_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n")
    with pytest.raises(ConfigError):
        read_records(path)


def test_throughput_consistent_with_sinr():
    cfg = tiny_experiment()
    for record in run_experiment(cfg):
        expected = 20e6 * ((1 - 2 / 200) / 2) * np.log2(1 + record.sinr)
        assert record.throughput_bps == pytest.approx(expected, rel=1e-9)


def test_oracle_beats_random_in_paired_runs():
    sim = SimConfig(num_aps=15, num_ues=6, num_pilots=2, realizations=100, seed=3)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "oracle"), power_policy="maxmin")
    records = run_experiment(cfg)
    by_key = {(r.realization, r.strategy, r.ue): r.throughput_bps for r in records}
    wins = sum(by_key[(i, "oracle", u)] >= by_key[(i, "random", u)] * (1 - 1e-6)
               for i in range(100) for u in range(6))
    assert wins >= 0.99 * 600


def test_paired_design_same_topology_across_strategies():
    # with the oracle flag the pilot vector is ignored, so equal topology
    # shows up as equal throughput whenever random picks distinct pilots
    sim = SimConfig(num_aps=8, num_ues=2, num_pilots=2, realizations=20, seed=9)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "oracle"), power_policy="maxmin")
    groups = throughput_by_strategy(run_experiment(cfg))
    np.testing.assert_allclose(groups["random"], groups["oracle"], rtol=1e-6)


def per_instance_records(cfg):
    """``run_experiment`` as one max_min_power and rate_report call per (realization, strategy)."""
    sim = cfg.sim
    records = []
    for index in range(sim.realizations):
        realization = generate_realization(sim, index)
        for strategy in cfg.strategies:
            seed = strategy_seed(sim.seed, index, strategy)
            pilot = assign(strategy, realization, sim, seed=seed)
            gamma = estimation_quality(realization.beta, pilot, sim.num_pilots,
                                       pilot_snr(sim)).gamma
            if cfg.power_policy == "maxmin":
                eta = max_min_power(realization.beta, gamma, pilot, uplink_snr(sim)).eta
            else:
                eta = full_power(sim.num_ues).eta
            report = rate_report(realization.beta, gamma, pilot, eta, sim)
            records.extend(ThroughputRecord(index, strategy, ue, float(report.sinr[ue]),
                                            float(report.throughput[ue]))
                           for ue in range(sim.num_ues))
    records.sort(key=lambda r: (r.realization, r.strategy, r.ue))
    return records


def chunk_of(monkeypatch, cfg, realizations):
    """Make ``run_experiment`` take ``realizations`` realizations per lock-step chunk."""
    matrix_bytes = 8 * cfg.sim.num_ues ** 2 * len(cfg.strategies)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", realizations * matrix_bytes)


@pytest.mark.parametrize("policy", ["maxmin", "full"])
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_lock_step_chunks_match_per_instance_evaluation(monkeypatch, policy, chunk):
    # Five realizations in chunks of 2 end with a chunk of one, after a boundary mid-run.
    sim = SimConfig(num_aps=30, num_ues=8, num_pilots=3, realizations=5, seed=17)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "greedy", "oracle"), power_policy=policy)
    chunk_of(monkeypatch, cfg, chunk)
    assert run_experiment(cfg) == per_instance_records(cfg)


def test_default_chunk_matches_per_instance_evaluation_at_the_main_point():
    sim = SimConfig(num_aps=100, num_ues=40, num_pilots=10, realizations=7, seed=2022)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "greedy", "oracle"))
    assert run_experiment(cfg) == per_instance_records(cfg)


def fail_assignment_at(monkeypatch, realization, strategy):
    real = harness.assign

    def fake(name, drop, sim, seed):
        if (seed.spawn_key[0], name) == (realization, strategy):
            raise BudgetExceededError("assignment fails here", guard="test")
        return real(name, drop, sim, seed=seed)
    monkeypatch.setattr(harness, "assign", fake)


def fail_power_at(monkeypatch, position):
    """Make the max-min solve fail at the ``position``-th instance, counted in loop order."""
    real = power_control.max_min_powers
    seen = itertools.count()

    def fake(coupling, floor):
        for power in real(coupling, floor):
            if next(seen) == position:
                raise BudgetExceededError("max-min fails here", guard="test")
            yield power
    monkeypatch.setattr(harness, "max_min_powers", fake)


# (failing assignment, failing max-min instance in loop order, expected error, uplink_tx_power)
ORDER_CASES = [
    ((1, "random"), 1, (BudgetExceededError, "max-min fails here"), 0.1),  # (0, oracle) first
    ((0, "oracle"), 2, (BudgetExceededError, "assignment fails here"), 0.1),
    ((1, "oracle"), 3, (BudgetExceededError, "assignment fails here"), 0.1),  # same drop
    ((2, "random"), 1, (ConfigError, "rounds to 0"), 1e-20),  # (0, random) writes 0 first
]


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("assign_at,power_at,expected,uplink_power", ORDER_CASES)
def test_first_failure_in_loop_order_decides_the_error(monkeypatch, chunk, assign_at, power_at,
                                                       expected, uplink_power):
    cfg = tiny_experiment(sim=dict(realizations=3, uplink_tx_power=uplink_power))
    chunk_of(monkeypatch, cfg, chunk)
    fail_assignment_at(monkeypatch, *assign_at)
    fail_power_at(monkeypatch, power_at)
    error, message = expected
    with pytest.raises(error, match=message):
        run_experiment(cfg)


def test_sweep_row_count(tmp_path):
    cfg = tiny_experiment(sweep_var="num_aps", sweep_values=(4, 6, 8))
    rows = run_sweep(cfg, q=0.95)
    assert len(rows) == 3 * 2
    out = tmp_path / "stats.csv"
    write_sweep(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")  # percentile definition documented
    assert lines[1] == "variable,value,strategy,n,percentile,throughput_bps"
    assert len(lines) == 2 + 6


def test_sweep_requires_variable():
    with pytest.raises(ConfigError):
        run_sweep(tiny_experiment())


CONFIG_TEXT = """
# comment line
num_aps = 6
num_ues = 4          # trailing comment
num_pilots = 2
realizations = 3
seed = 17
strategies = random, oracle
power_policy = maxmin
output_path = out.csv
"""


def test_parse_config_text():
    values = parse_config_text(CONFIG_TEXT)
    cfg = config_from_values(values)
    assert cfg.sim.num_aps == 6
    assert cfg.sim.seed == 17
    assert cfg.strategies == ("random", "oracle")
    assert cfg.output_path == "out.csv"


@pytest.mark.parametrize("line,message", [
    ("nonsense_key = 3", "unknown key"),
    ("num_aps = many", "bad value"),
    ("num_aps 6", "expected"),
])
def test_parse_config_errors(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line)


def test_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_values({"num_aps": 5})


def test_config_rejects_unknown_strategy():
    values = parse_config_text("num_aps=4\nnum_ues=2\nnum_pilots=2\nstrategies = sorcery")
    with pytest.raises(ConfigError, match="unknown strategy"):
        config_from_values(values)
