import itertools
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import cfpilot.assignment as assignment
import cfpilot.harness as harness
import cfpilot.power_control as power_control
from cfpilot.config import POLICY_NAMES, STRATEGY_NAMES, ExperimentConfig, SimConfig
from cfpilot.errors import BudgetExceededError, ConfigError
from cfpilot.harness import (CSV_HEADER, config_from_values, load_config, parse_config_text,
                             percentile, read_records, run_experiment, run_sweep,
                             throughput_by_strategy, write_records, write_sweep)
from cfpilot.topology import strategy_seed
from reference import empirical_cdf, ks_distance, reference_records


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


def chunk_of(monkeypatch, cfg, realizations):
    """Make ``run_experiment`` take ``realizations`` realizations per lock-step chunk."""
    matrix_bytes = 8 * cfg.sim.num_ues ** 2 * len(cfg.strategies)
    monkeypatch.setattr(harness, "_CHUNK_BYTES", realizations * matrix_bytes)


@pytest.mark.parametrize("policy", ["maxmin", "full"])
@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_lock_step_chunks_match_per_instance_evaluation(monkeypatch, policy, chunk):
    # Five realizations in chunks of 2 end with a chunk of one, after a boundary mid-run.
    sim = SimConfig(num_aps=30, num_ues=8, num_pilots=3, realizations=5, seed=17)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "greedy", "repulsive", "oracle"),
                           power_policy=policy)
    chunk_of(monkeypatch, cfg, chunk)
    assert run_experiment(cfg) == reference_records(cfg)


def test_a_chunk_split_over_several_stacks_matches_per_instance_evaluation(monkeypatch):
    # At (K, tau_p) = (8, 3) a realization's swap gains take 8 * RESTARTS * 3 * 3^2
    # bytes, so twice that makes the one chunk of five stacks of 2, 2 and 1.
    sim = SimConfig(num_aps=30, num_ues=8, num_pilots=3, realizations=5, seed=17)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "greedy", "repulsive", "oracle"))
    monkeypatch.setattr(assignment, "_STACK_BYTES", 2 * 8 * assignment.RESTARTS * 3 * 3 ** 2)
    stacks, search = [], assignment._lockstep_search

    def recorded(scores, starts, num_pilots):
        stacks.append(len(scores))
        return search(scores, starts, num_pilots)
    monkeypatch.setattr(assignment, "_lockstep_search", recorded)
    assert run_experiment(cfg) == reference_records(cfg)
    assert stacks == [2, 2, 1]
    feats = [harness.generate_realization(sim, i).ue_positions for i in range(5)]
    seeds = [strategy_seed(sim.seed, i, "repulsive") for i in range(5)]
    assert [p.p.tolist() for p in assignment.repulsive_stack(feats, 3, seeds)] == \
        [assignment.repulsive_heuristic(f, 3, seed).p.tolist() for f, seed in zip(feats, seeds)]


def test_default_chunk_matches_per_instance_evaluation_at_the_main_point():
    sim = SimConfig(num_aps=100, num_ues=40, num_pilots=10, realizations=7, seed=2022)
    cfg = ExperimentConfig(sim=sim, strategies=("random", "greedy", "repulsive", "oracle"))
    assert run_experiment(cfg) == reference_records(cfg)


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
    ((1, "random"), 1, (BudgetExceededError, "realization 0, oracle: max-min fails here"),
     0.1),  # (0, oracle) first
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


def fail_generation_at(monkeypatch, realization):
    real = harness.generate_realization

    def fake(sim, index):
        if index == realization:
            raise ConfigError("topology fails here")
        return real(sim, index)
    monkeypatch.setattr(harness, "generate_realization", fake)


@pytest.mark.parametrize("power_at,expected", [
    (4, (BudgetExceededError, "realization 1, repulsive: max-min fails here")),
    (None, (ConfigError, "topology fails here")),
])
def test_a_topology_that_fails_to_draw_raises_after_the_drops_before_it(monkeypatch, power_at,
                                                                        expected):
    # One chunk of three: its topologies are drawn before any drop is built, and
    # realizations 0 and 1 are searched as one repulsive stack.
    cfg = tiny_experiment(sim=dict(realizations=3), strategies=("random", "repulsive", "oracle"))
    chunk_of(monkeypatch, cfg, 3)
    fail_generation_at(monkeypatch, 2)
    if power_at is not None:
        fail_power_at(monkeypatch, power_at)
    error, message = expected
    with pytest.raises(error, match=message):
        run_experiment(cfg)


@st.composite
def small_experiments(draw):
    """Small configs, one in four at an uplink power that rounds some throughputs to 0."""
    sim = SimConfig(num_aps=draw(st.integers(1, 12)), num_ues=draw(st.integers(1, 8)),
                    num_pilots=draw(st.integers(1, 4)), realizations=draw(st.integers(1, 5)),
                    seed=draw(st.integers(0, 2 ** 16)),
                    uplink_tx_power=draw(st.sampled_from([0.1, 0.1, 0.1, 1e-16])))
    strategies = draw(st.lists(st.sampled_from(STRATEGY_NAMES), min_size=1, unique=True))
    return ExperimentConfig(sim=sim, strategies=tuple(strategies),
                            power_policy=draw(st.sampled_from(POLICY_NAMES)))


@given(cfg=small_experiments(), chunk=st.integers(1, 3))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_run_experiment_matches_the_reference_pipeline(cfg, chunk):
    with pytest.MonkeyPatch.context() as patch:
        chunk_of(patch, cfg, chunk)
        try:
            expected = reference_records(cfg)
        except (ConfigError, BudgetExceededError) as exc:
            with pytest.raises(type(exc)) as raised:
                run_experiment(cfg)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        else:
            assert run_experiment(cfg) == expected


def test_pilots_filling_the_coherence_block_fail_before_the_first_drop(monkeypatch):
    def no_drop(sim, index):
        raise AssertionError("a realization was drawn")
    monkeypatch.setattr(harness, "generate_realization", no_drop)
    cfg = tiny_experiment(sim=dict(num_pilots=2, coherence_len=2))
    with pytest.raises(ConfigError, match="num_pilots = 2 equals coherence_len = 2"):
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
    ("sim = 1", "unknown key"),
    ("num_aps = many", "bad value"),
    ("num_aps 6", "expected"),
])
def test_parse_config_errors(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line)


# Every config key: a literal as written in a config file and the value it parses to.
FIELD_LITERALS = {
    "num_aps": ("7", 7),
    "num_ues": ("5", 5),
    "num_pilots": ("3", 3),
    "area_side": ("250.5", 250.5),
    "coherence_len": ("150", 150),
    "bandwidth": ("1e7", 1e7),
    "pilot_tx_power": ("0.2", 0.2),
    "uplink_tx_power": ("5e-2", 0.05),
    "noise_figure": ("4.5", 4.5),
    "shadowing_sigma": ("0", 0.0),
    "realizations": ("12", 12),
    "seed": ("-4", -4),
    "strategies": ("greedy , oracle,", ("greedy", "oracle")),
    "power_policy": ("full", "full"),
    "sweep_var": ("num_ues", "num_ues"),
    "sweep_values": (" 4,8 , ", (4, 8)),
    "output_path": ("out dir/r.csv", "out dir/r.csv"),
}


def test_every_config_field_parses_to_its_typed_value():
    names = [f.name for f in fields(SimConfig) + fields(ExperimentConfig) if f.name != "sim"]
    assert sorted(FIELD_LITERALS) == sorted(names)
    for name, (literal, expected) in FIELD_LITERALS.items():
        value = parse_config_text(f"{name} = {literal}")[name]
        assert value == expected and type(value) is type(expected), name
    text = "\n".join(f"{name} = {literal}" for name, (literal, _) in FIELD_LITERALS.items())
    cfg = config_from_values(parse_config_text(text))
    built = {**asdict(cfg), **asdict(cfg.sim)}
    assert all(built[name] == expected for name, (_, expected) in FIELD_LITERALS.items())


def _sim(num_aps, num_ues, num_pilots, realizations):
    return SimConfig(num_aps=num_aps, num_ues=num_ues, num_pilots=num_pilots, area_side=1000.0,
                     coherence_len=200, bandwidth=20000000.0, pilot_tx_power=0.1,
                     uplink_tx_power=0.1, noise_figure=9.0, shadowing_sigma=4.0,
                     realizations=realizations, seed=2022)


MAIN_FOUR = ("random", "greedy", "repulsive", "oracle")
ALL_SIX = ("random", "greedy", "repulsive", "optimal-repulsive", "exhaustive", "oracle")
SHIPPED_CONFIGS = {
    "configs/ap_density_sweep.cfg": ExperimentConfig(
        sim=_sim(100, 40, 10, 200), strategies=MAIN_FOUR, power_policy="maxmin",
        sweep_var="num_aps", sweep_values=(100, 200, 300), output_path="sweep_num_aps.csv"),
    "configs/pilot_count_sweep.cfg": ExperimentConfig(
        sim=_sim(100, 40, 10, 200), strategies=("repulsive",), power_policy="maxmin",
        sweep_var="num_pilots", sweep_values=(5, 8, 10, 13, 16, 20),
        output_path="sweep_num_pilots.csv"),
    "configs/small_scale.cfg": ExperimentConfig(
        sim=_sim(50, 12, 3, 100), strategies=ALL_SIX, power_policy="maxmin",
        sweep_var=None, sweep_values=(), output_path="records_small.csv"),
    "configs/table_m100.cfg": ExperimentConfig(
        sim=_sim(100, 40, 10, 200), strategies=MAIN_FOUR, power_policy="maxmin",
        sweep_var=None, sweep_values=(), output_path="records_m100.csv"),
    "bench/configs/dense_sweep.cfg": ExperimentConfig(
        sim=_sim(100, 40, 10, 40), strategies=("random", "greedy", "oracle"),
        power_policy="maxmin", sweep_var="num_aps", sweep_values=(100, 200, 300),
        output_path=None),
    "bench/configs/exact_small.cfg": ExperimentConfig(
        sim=_sim(50, 12, 3, 4), strategies=ALL_SIX, power_policy="maxmin",
        sweep_var=None, sweep_values=(), output_path=None),
    "bench/configs/main_m100.cfg": ExperimentConfig(
        sim=_sim(100, 40, 10, 10), strategies=MAIN_FOUR, power_policy="maxmin",
        sweep_var=None, sweep_values=(), output_path=None),
}
ROOT = Path(__file__).resolve().parent.parent


def test_every_shipped_config_is_listed():
    shipped = {path.relative_to(ROOT).as_posix()
               for pattern in ("configs/*.cfg", "bench/configs/*.cfg") for path in ROOT.glob(pattern)}
    assert shipped == set(SHIPPED_CONFIGS)


@pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS))
def test_shipped_config_loads_to_its_experiment(path):
    assert load_config(ROOT / path) == SHIPPED_CONFIGS[path]


def test_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_values({"num_aps": 5})


def test_config_rejects_unknown_strategy():
    values = parse_config_text("num_aps=4\nnum_ues=2\nnum_pilots=2\nstrategies = sorcery")
    with pytest.raises(ConfigError, match="unknown strategy"):
        config_from_values(values)
