import itertools
import signal
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpilot.assignment import (_SCREEN_MARGIN, _TABLE_CHUNK, RESTARTS, _group_rate_table,
                                _lockstep_search, _mask_labels, _member_table, _near_maximal,
                                _partition_masks, _slot_sums, _subset_dissimilarity, assign,
                                cluster_objective, exhaustive_sum_rate, greedy_assignment,
                                optimal_repulsive, oracle_assignment, pairwise_distance,
                                random_assignment, repulsive_heuristic, repulsive_stack)
from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.config import ExperimentConfig, SimConfig
from cfpilot.errors import BudgetExceededError
from cfpilot.harness import run_experiment
from cfpilot.rate_model import uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr
from reference import (balanced_partitions, cluster_sums, exhaustive_labels, group_rate_table,
                       group_size_bounds, local_search, optimal_repulsive_labels,
                       repulsive_restarts, single_objective, sum_rate, swap_gain)

LINE = np.array([0.0, 1.0, 10.0, 11.0])


def objective(feats, labels):
    return cluster_objective(pairwise_distance(feats), labels)


def assert_balanced(labels, num_pilots):
    low, high = group_size_bounds(len(labels), num_pilots)
    counts = np.bincount(labels, minlength=num_pilots)
    assert counts.min() >= low and counts.max() <= high


def test_repulsion_score_hand_values():
    assert objective(LINE, [0, 0, 1, 1]) == pytest.approx(2.0)
    assert objective(LINE, [0, 1, 0, 1]) == pytest.approx(20.0)


def test_repulsion_score_singletons_zero():
    assert objective(np.array([3.0, 7.0]), [0, 1]) == 0.0


@pytest.mark.parametrize("points", ["seeded", "lattice", "identical"])
@pytest.mark.parametrize("k,tp", [(13, 3), (40, 10)])
def test_stacked_objective_equals_each_row_bit_for_bit(points, k, tp):
    rng = np.random.default_rng(k + tp)
    feats = {"seeded": rng.uniform(0, 1000, size=(k, 2)),
             "lattice": rng.integers(0, 3, size=(k, 2)).astype(float),
             "identical": np.zeros((k, 2))}[points]
    scores = pairwise_distance(feats)
    labels = random_starts(k, tp, 5, count=20)
    rows = [single_objective(scores, row) for row in labels]
    assert cluster_objective(scores, labels).tolist() == rows
    assert cluster_objective(scores, labels.reshape(4, 5, k)).ravel().tolist() == rows
    assert [float(cluster_objective(scores, row)) for row in labels] == rows


def test_repulsive_returns_the_earliest_of_tied_best_starts(monkeypatch):
    # Identical points: no swap is ever taken, every start scores 0, so the first start wins.
    rng = np.random.default_rng(4)
    first = np.empty(12, dtype=int)
    first[rng.permutation(12)] = np.arange(12) % 3
    assert repulsive_heuristic(np.zeros((12, 2)), 3, seed=4).p.tolist() == first.tolist()
    # On LINE, {0, 3}{1, 2} and {0, 2}{1, 3} both score 20 and {0, 1}{2, 3} scores 2.
    finals = np.array([[0, 0, 1, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1],
                       [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    monkeypatch.setattr("cfpilot.assignment._lockstep_search", lambda *_: finals[None])
    assert repulsive_heuristic(LINE, 2, seed=0).p.tolist() == [0, 1, 1, 0]


def test_repulsion_function_invariants():
    rng = np.random.default_rng(0)
    feats = rng.uniform(0, 100, size=(7, 2))
    mat = pairwise_distance(feats)
    assert np.allclose(mat, mat.T)
    assert np.all(mat >= 0)
    assert np.all(np.diag(mat) == 0)
    assert mat[2, 5] == pytest.approx(np.linalg.norm(feats[2] - feats[5]))


def test_random_assignment_balance_examples():
    p = random_assignment(4, 2, seed=0)
    assert sorted(np.bincount(p.p, minlength=2).tolist()) == [2, 2]
    p = random_assignment(3, 2, seed=1)
    assert sorted(np.bincount(p.p, minlength=2).tolist()) == [1, 2]
    a = random_assignment(10, 3, seed=42)
    b = random_assignment(10, 3, seed=42)
    assert np.array_equal(a.p, b.p)


@given(num_ues=st.integers(1, 40), num_pilots=st.integers(1, 12), seed=st.integers(0, 999))
@settings(max_examples=150)
def test_random_assignment_always_balanced(num_ues, num_pilots, seed):
    p = random_assignment(num_ues, num_pilots, seed)
    assert_balanced(p.p, num_pilots)


def small_realization(seed, m=10, k=6, tp=3):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed)
    return cfg, generate_realization(cfg, 0)


def test_greedy_with_spare_pilots_reaches_distinct():
    cfg = SimConfig(num_aps=10, num_ues=3, num_pilots=4, seed=2)
    real = generate_realization(cfg, 0)
    out = greedy_assignment(real, cfg, seed=3)
    assert len(set(out.p.tolist())) == 3


def test_greedy_improves_min_rate_usually():
    # The reassignment rule is heuristic: it helps on most instances but is
    # not monotone. Rate frozen from a seeded 100-instance run.
    improved = 0
    for trial in range(100):
        cfg = SimConfig(num_aps=50, num_ues=12, num_pilots=3, seed=trial)
        real = generate_realization(cfg, 0)
        rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
        init = random_assignment(12, 3, 555 + trial)
        g0 = estimation_quality(real.beta, init, 3, rho_p).gamma
        s0 = uplink_sinr(real.beta, g0, init, np.ones(12), rho_u).min()
        out = greedy_assignment(real, cfg, 555 + trial)
        g1 = estimation_quality(real.beta, out, 3, rho_p).gamma
        s1 = uplink_sinr(real.beta, g1, out, np.ones(12), rho_u).min()
        improved += int(s1 >= s0 * (1 - 1e-12))
    assert improved >= 70


def test_swap_gain_matches_full_recompute():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k, tp = 8, 2
        feats = rng.uniform(0, 100, size=(k, 2))
        scores = pairwise_distance(feats)
        labels = random_assignment(k, tp, rng.integers(1 << 30)).p.copy()
        u, w = rng.choice(k, size=2, replace=False)
        if labels[u] == labels[w]:
            continue
        before = cluster_objective(scores, labels)
        gain = swap_gain(scores, labels, u, w)
        labels[u], labels[w] = labels[w], labels[u]
        after = cluster_objective(scores, labels)
        assert gain == pytest.approx(after - before, abs=1e-9)


def test_heuristic_line_example_reaches_optimum():
    labels = _lockstep_search(pairwise_distance(LINE)[None], np.array([[[0, 0, 1, 1]]]), 2)[0, 0]
    assert objective(LINE, labels) == pytest.approx(20.0)


def random_starts(num_ues, num_pilots, seed, count=RESTARTS):
    return np.stack([random_assignment(num_ues, num_pilots, seed + i).p for i in range(count)])


def assert_matches_single_starts(feats, starts, num_pilots):
    """Every row of the lock-step search ends where the single-start reference does."""
    scores = pairwise_distance(feats)
    out = _lockstep_search(scores[None], starts[None], num_pilots)[0]
    for start, labels in zip(starts, out):
        assert labels.tolist() == local_search(scores, start.copy(), num_pilots).tolist()
    return out


@pytest.mark.parametrize("k,tp", [(40, 10), (13, 3), (40, 4), (100, 5), (30, 1)])
def test_cluster_sums_equal_fresh_sums_bit_for_bit(k, tp):
    # Swap decisions rarely hinge on the last bit of a sum, so the sums are
    # checked directly. A contiguous sum of 8 or more members is pairwise in
    # numpy and would round differently from the column-by-column fresh sum.
    scores = pairwise_distance(np.random.default_rng(k + tp).uniform(0, 1000, size=(k, 2)))
    starts = random_starts(k, tp, 11)
    columns = np.zeros((k + 1, k + 1))
    columns[:k, :k] = scores.T
    sums = _slot_sums(columns, _member_table(starts, tp))
    for run, cluster in itertools.product(range(RESTARTS), range(tp)):
        total = sums[run, cluster]
        assert total[k] == 0.0
        assert total[:k].tolist() == cluster_sums(scores, starts[run], cluster).tolist()


@pytest.mark.parametrize("m,k,tp,count", [
    (100, 40, 10, 15),
    (50, 12, 3, 40),
    (50, 13, 3, 40),    # unequal cluster sizes: 5, 4, 4
    (100, 40, 4, 6),    # ten members per cluster
    (50, 10, 10, 10),   # singleton clusters
    (100, 41, 10, 10),  # one cluster of 5 beside nine of 4
    (100, 40, 1, 2),    # one cluster: no pair to swap across
    (50, 61, 60, 2),    # 1,770 cluster pairs, one of them with two members
])
def test_lockstep_matches_reference_restart_loop(m, k, tp, count):
    for i in range(count):
        cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=300 + i)
        feats = generate_realization(cfg, i).ue_positions
        assert repulsive_heuristic(feats, tp, seed=i).p.tolist() == \
            repulsive_restarts(feats, tp, i).tolist()
        assert_matches_single_starts(feats, random_starts(k, tp, 50 * i), tp)


@given(num_ues=st.integers(2, 16), num_pilots=st.integers(1, 16), seed=st.integers(0, 999))
@settings(max_examples=100, deadline=None)
def test_lockstep_matches_reference_on_lattice_ties(num_ues, num_pilots, seed):
    # Integer points on a small grid give many exactly equal distances and
    # gains, so the first-improvement order decides most swaps.
    num_pilots = min(num_pilots, num_ues)
    feats = np.random.default_rng(seed).integers(0, 4, size=(num_ues, 2)).astype(float)
    assert_matches_single_starts(feats, random_starts(num_ues, num_pilots, seed), num_pilots)


@pytest.mark.parametrize("k,tp", [(12, 3), (13, 3)])
def test_lockstep_identical_points_never_swap(k, tp):
    starts = random_starts(k, tp, 9)
    out = assert_matches_single_starts(np.zeros((k, 2)), starts, tp)
    assert np.array_equal(out, starts)


def test_lockstep_keeps_a_start_that_is_already_optimal():
    feats = np.random.default_rng(3).uniform(0, 1000, size=(40, 2))
    starts = random_starts(40, 10, 70)
    optimum = local_search(pairwise_distance(feats), starts[0].copy(), 10)
    starts[3] = optimum
    out = assert_matches_single_starts(feats, starts, 10)
    assert np.array_equal(out[3], optimum)
    assert not np.array_equal(out[0], starts[0])


@contextmanager
def alarm(seconds):
    """Raise TimeoutError in the main thread if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k,seed", [(24, 7), (27, 17)])
def test_lattice_ties_at_kilometre_scale_terminate(k, seed):
    # Exactly tied gains whose rounding noise exceeds an absolute 1e-12: with
    # an unscaled tolerance a start swaps two UEs and swaps them back forever.
    feats = 1000.0 * np.random.default_rng(seed).integers(0, 5, size=(k, 2)).astype(float)
    with alarm(3):
        out = repulsive_heuristic(feats, 3, seed=seed)
        assert out.p.tolist() == repulsive_restarts(feats, 3, seed).tolist()
    assert_balanced(out.p, 3)


def test_heuristic_singleton_clusters_no_swaps():
    feats = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 2.0]])
    out = repulsive_heuristic(feats, 3, seed=0)
    assert sorted(out.p.tolist()) == [0, 1, 2]


def test_heuristic_identical_points_terminates():
    feats = np.zeros((6, 2))
    out = repulsive_heuristic(feats, 2, seed=4)
    counts = np.bincount(out.p, minlength=2)
    assert counts.tolist() == [3, 3]


def test_heuristic_output_balanced_and_locally_optimal():
    for trial in range(30):
        rng = np.random.default_rng(trial)
        feats = rng.uniform(0, 1000, size=(9, 2))
        out = repulsive_heuristic(feats, 3, seed=trial)
        assert_balanced(out.p, 3)
        scores = pairwise_distance(feats)
        labels = out.p.copy()
        for u in range(9):
            for w in range(u + 1, 9):
                if labels[u] != labels[w]:
                    assert swap_gain(scores, labels, u, w) <= 1e-9


def brute_force_balanced_optimum(feats, num_pilots):
    k = len(feats)
    best = -1.0
    low, high = group_size_bounds(k, num_pilots)
    for labels in itertools.product(range(num_pilots), repeat=k):
        counts = np.bincount(labels, minlength=num_pilots)
        if counts.min() < low or counts.max() > high:
            continue
        best = max(best, objective(feats, np.array(labels)))
    return best


def test_optimal_line_example():
    out = optimal_repulsive(LINE, 2)
    assert objective(LINE, out.p) == pytest.approx(20.0)
    # lexicographically smallest of the tied optima
    assert out.p.tolist() == [0, 1, 0, 1]


def test_optimal_singletons_zero():
    out = optimal_repulsive(np.array([1.0, 5.0, 9.0]), 3)
    assert sorted(out.p.tolist()) == [0, 1, 2]


def test_optimal_six_collinear_points():
    feats = np.arange(6.0)
    out = optimal_repulsive(feats, 3)
    score = objective(feats, out.p)
    assert score == pytest.approx(9.0)
    assert score == pytest.approx(brute_force_balanced_optimum(feats, 3))


def test_optimal_matches_brute_force_random_instances():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        feats = rng.uniform(0, 50, size=(6, 2))
        out = optimal_repulsive(feats, 2)
        score = objective(feats, out.p)
        assert score == pytest.approx(brute_force_balanced_optimum(feats, 2), rel=1e-12)


def test_optimal_budget_guard():
    with pytest.raises(BudgetExceededError):
        optimal_repulsive(np.zeros((13, 2)), 3)


def test_partition_masks_list_each_partition_once():
    # Exhaustive rows: every restricted-growth string with at most tau_p groups.
    for k, groups in [(6, 3), (5, 5), (7, 2), (4, 6)]:
        masks = _partition_masks(k, min(groups, k), k, 0)
        assert masks.dtype == np.int16
        strings = {labels for labels in itertools.product(range(groups), repeat=k)
                   if all(labels[u] <= max(labels[:u], default=-1) + 1 for u in range(k))}
        assert {tuple(row) for row in _mask_labels(masks, k).tolist()} == strings
        assert len(strings) == masks.shape[0]
    # Balanced rows: the reference enumeration's canonical partitions.
    for k, tp in [(12, 3), (11, 3), (10, 4), (7, 7), (12, 5)]:
        low = k // tp
        masks = _partition_masks(k, tp, low, k % tp)
        capacities = (low + 1,) * (k % tp) + (low,) * (tp - k % tp)
        reference = {tuple(labels) for labels in balanced_partitions(k, capacities)}
        assert {tuple(row) for row in _mask_labels(masks, k).tolist()} == reference
        assert len(reference) == masks.shape[0]


@pytest.mark.parametrize("m,k,tp,count", [
    (50, 12, 3, 12),
    (50, 12, 2, 4),
    (50, 12, 4, 4),
    (60, 12, 5, 2),
    (50, 11, 3, 6),   # unequal cluster sizes: 4, 4, 3
    (30, 10, 4, 6),   # unequal cluster sizes: 3, 3, 2, 2
    (20, 3, 3, 5),    # one UE per pilot
    (20, 6, 6, 3),
])
def test_optimal_repulsive_matches_reference(m, k, tp, count):
    for i in range(count):
        cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=700 + i)
        feats = generate_realization(cfg, i).ue_positions
        assert optimal_repulsive(feats, tp).p.tolist() == optimal_repulsive_labels(feats, tp).tolist()


@pytest.mark.parametrize("k,tp", [(12, 3), (11, 4), (8, 2)])
def test_optimal_repulsive_identical_points_match_reference(k, tp):
    # Every objective is 0, so every partition is an exact maximum.
    feats = np.zeros((k, 2))
    out = optimal_repulsive(feats, tp).p.tolist()
    assert out == optimal_repulsive_labels(feats, tp).tolist() == sorted(u % tp for u in range(k))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,tp", [(12, 3), (12, 4), (10, 3)])
def test_optimal_repulsive_lattice_ties_match_reference(seed, k, tp):
    feats = np.random.default_rng(seed).integers(0, 3, size=(k, 2)).astype(float)
    assert optimal_repulsive(feats, tp).p.tolist() == optimal_repulsive_labels(feats, tp).tolist()


def test_heuristic_tracks_optimal():
    equal = 0
    ratios = []
    for trial in range(100):
        feats = np.random.default_rng(5000 + trial).uniform(0, 1000, size=(8, 2))
        h = repulsive_heuristic(feats, 2, seed=2000 + trial)
        o = optimal_repulsive(feats, 2)
        sh = objective(feats, h.p)
        so = objective(feats, o.p)
        assert sh <= so + 1e-9
        ratios.append(sh / so)
        equal += int(abs(sh - so) < 1e-9)
    assert equal >= 90
    assert min(ratios) >= 0.99


def test_exhaustive_two_ues_prefers_distinct_pilots():
    # Zero contamination beats sharing on this instance (verified by direct
    # evaluation below); sharing can win by a hair on rare geometries.
    cfg, real = small_realization(0, m=8, k=2, tp=2)
    rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
    values = {}
    for cand in itertools.product(range(2), repeat=2):
        p = PilotAssignment(np.array(cand))
        gamma = estimation_quality(real.beta, p, 2, rho_p).gamma
        values[cand] = sum_rate(real.beta, gamma, p, np.ones(2), rho_u)
    assert max(values, key=values.get) == (0, 1)
    out = exhaustive_sum_rate(real, cfg)
    assert out.p.tolist() == [0, 1]  # distinct, lexicographically smallest


def test_exhaustive_matches_direct_argmax():
    for trial in range(5):
        cfg = SimConfig(num_aps=6, num_ues=5, num_pilots=2, seed=trial)
        real = generate_realization(cfg, 0)
        rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
        best, best_p = -1.0, None
        for cand in itertools.product(range(2), repeat=5):
            p = PilotAssignment(np.array(cand))
            gamma = estimation_quality(real.beta, p, 2, rho_p).gamma
            value = sum_rate(real.beta, gamma, p, np.ones(5), rho_u)
            if value > best:
                best, best_p = value, cand
        fast = exhaustive_sum_rate(real, cfg)
        assert tuple(fast.p) == best_p


def test_exhaustive_at_least_heuristic():
    cfg, real = small_realization(9, m=12, k=6, tp=2)
    rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)

    def value(p):
        gamma = estimation_quality(real.beta, p, 2, rho_p).gamma
        return sum_rate(real.beta, gamma, p, np.ones(6), rho_u)

    assert value(exhaustive_sum_rate(real, cfg)) >= value(repulsive_heuristic(real.ue_positions, 2, seed=0)) - 1e-9


@pytest.mark.parametrize("m,k,tp,count", [
    (50, 12, 3, 12),
    (20, 13, 3, 1),   # unequal group sizes, 1,594,323 assignments
    (20, 10, 2, 4),
    (30, 8, 4, 4),
    (10, 7, 5, 3),
    (10, 3, 3, 5),    # K = tau_p
    (10, 5, 5, 3),
    (10, 2, 3, 5),    # fewer UEs than pilots
    (10, 4, 6, 3),
])
def test_exhaustive_matches_reference(m, k, tp, count):
    for i in range(count):
        cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=800 + i)
        real = generate_realization(cfg, i)
        assert exhaustive_sum_rate(real, cfg).p.tolist() == exhaustive_labels(real, cfg).tolist()


@pytest.mark.parametrize("m,k,tp,seed,labels", [
    (4, 5, 3, 11, [0, 1, 0, 0, 1]),
    (2, 4, 4, 7, [0, 1, 2, 0]),
    (3, 3, 2, 7, [0, 0, 0]),
])
def test_exhaustive_maximum_leaving_pilots_unused_matches_reference(m, k, tp, seed, labels):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed)
    real = generate_realization(cfg, 0)
    assert exhaustive_sum_rate(real, cfg).p.tolist() == exhaustive_labels(real, cfg).tolist() == labels


@pytest.mark.parametrize("index", range(4))
def test_exhaustive_duplicate_gain_ties_match_reference(index):
    # UEs 6..11 copy the gains of UEs 0..5, so several assignments share the
    # maximal sum rate exactly.
    cfg = SimConfig(num_aps=50, num_ues=12, num_pilots=3, seed=2022)
    real = generate_realization(cfg, index)
    beta = real.beta.copy()
    beta[:, 6:] = beta[:, :6]
    real = replace(real, beta=beta)
    assert exhaustive_sum_rate(real, cfg).p.tolist() == exhaustive_labels(real, cfg).tolist()


def test_exhaustive_budget_guard():
    cfg = SimConfig(num_aps=4, num_ues=25, num_pilots=4, seed=0)
    real = generate_realization(cfg, 0)
    with pytest.raises(BudgetExceededError):
        exhaustive_sum_rate(real, cfg)


def test_exhaustive_single_pilot_trivial():
    cfg, real = small_realization(2, m=4, k=30, tp=1)
    assert exhaustive_sum_rate(real, cfg).p.tolist() == [0] * 30


def rate_tables(m, k, tp, index, seed=900, shadowing_sigma=4.0, copies=0):
    """The group-rate table and its reference on one drop; the last ``copies`` UEs copy the first."""
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed,
                    shadowing_sigma=shadowing_sigma)
    beta = generate_realization(cfg, index).beta.copy()
    beta[:, k - copies:] = beta[:, :copies]
    args = (beta, tp, pilot_snr(cfg), uplink_snr(cfg))
    return _group_rate_table(*args), group_rate_table(*args)


def assert_same_bits(table, reference):
    assert table.shape == reference.shape
    assert np.array_equal(table.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize("m,k,tp,count", [
    (50, 12, 3, 20),
    (20, 13, 3, 1),   # exactly one full chunk
    (20, 15, 2, 1),   # four chunks
    (10, 17, 2, 1),   # sixteen chunks
    (10, 1, 1, 2),
    (10, 1, 3, 2),
    (10, 2, 2, 2),
    (8, 2, 3, 2),
])
def test_group_rate_table_matches_reference_bit_for_bit(m, k, tp, count):
    for i in range(count):
        assert_same_bits(*rate_tables(m, k, tp, i))


@pytest.mark.parametrize("m,k,tp,copies", [(50, 12, 3, 6), (20, 15, 2, 7), (10, 4, 2, 2)])
def test_group_rate_table_with_duplicated_gains_matches_reference_bit_for_bit(m, k, tp, copies):
    for i in range(2):
        assert_same_bits(*rate_tables(m, k, tp, i, seed=2022, copies=copies))


def test_group_rate_table_out_of_range_entries_match_reference_bit_for_bit():
    table, reference = rate_tables(50, 12, 3, 0, seed=1, shadowing_sigma=600)
    assert not np.isfinite(reference).all()
    assert_same_bits(table, reference)


def test_group_rate_table_reuses_no_stale_work_between_sizes():
    first = rate_tables(50, 12, 3, 0)[0]
    assert_same_bits(*rate_tables(20, 15, 2, 0))
    again, reference = rate_tables(50, 12, 3, 0)
    assert_same_bits(again, first)
    assert_same_bits(again, reference)


def seeded_drops(m, k, tp, count=5):
    return [generate_realization(SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=400 + i),
                                 i).ue_positions for i in range(count)]


def stack_case(case):
    """A stack of UE features, one entry per realization, and its number of pilots."""
    lattice = [np.random.default_rng(i).integers(0, 3, size=(12, 2)).astype(float)
               for i in range(4)]
    # Its exactly tied gains cycle forever under a margin below its own (see
    # test_lattice_ties_at_kilometre_scale_terminate).
    grid = np.random.default_rng(7).integers(0, 5, size=(24, 2)).astype(float)
    return {
        "seeded (100, 40, 10)": (seeded_drops(100, 40, 10), 10),
        "seeded (50, 12, 3)": (seeded_drops(50, 12, 3), 3),
        "seeded (100, 60, 7)": (seeded_drops(100, 60, 7), 7),
        "seeded (100, 30, 2)": (seeded_drops(100, 30, 2), 2),
        "lattice ties": (lattice, 3),
        # Each lattice is 1000 times the last, and so is its margin: under the
        # first's margin the last cycles.
        "scaled by 1000": ([grid, grid * 1e3, grid * 1e6, *seeded_drops(100, 24, 3, count=2)], 3),
        # Identical points hold no improving swap, so they finish at the first
        # iteration, while the others search on.
        "staggered finish": ([np.zeros((24, 2)), grid * 1000.0, np.full((24, 2), 7.0),
                              *seeded_drops(100, 24, 3, count=2)], 3),
        "tp = K": (seeded_drops(50, 12, 12), 12),
        "tp = 1": (seeded_drops(50, 12, 1), 1),
    }[case]


STACK_CASES = ["seeded (100, 40, 10)", "seeded (50, 12, 3)", "seeded (100, 60, 7)",
               "seeded (100, 30, 2)", "lattice ties", "scaled by 1000", "staggered finish",
               "tp = K", "tp = 1"]


@pytest.mark.parametrize("case", STACK_CASES)
def test_stacked_search_equals_single_calls_bit_for_bit(case):
    feats, tp = stack_case(case)
    k = feats[0].shape[0]
    scores = np.stack([pairwise_distance(f) for f in feats])
    starts = np.stack([random_starts(k, tp, 10 * run) for run in range(len(feats))])
    seeds = list(range(len(feats)))
    with alarm(10):
        out = _lockstep_search(scores, starts, tp)
        stacked = repulsive_stack(feats, tp, seeds)
    for run in range(len(feats)):
        alone = _lockstep_search(scores[run:run + 1], starts[run:run + 1], tp)[0]
        assert out[run].tolist() == alone.tolist()
    assert [p.p.tolist() for p in stacked] == \
        [repulsive_heuristic(f, tp, seed).p.tolist() for f, seed in zip(feats, seeds)]


@pytest.mark.parametrize("k", [1, 5, 12])
def test_subset_dissimilarity_matches_a_fresh_product_bit_for_bit(k):
    scores = pairwise_distance(np.random.default_rng(k).uniform(0, 1000, size=(k, 2)))
    member = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)
    assert_same_bits(_subset_dissimilarity(scores), ((member @ scores) * member).sum(axis=1) / 2.0)


@pytest.mark.parametrize("levels", [3, 1000, None])
def test_near_maximal_keeps_the_rows_of_one_pass(levels):
    # 88,574 rows screened in blocks of _TABLE_CHUNK; few levels give many exact ties.
    masks = _partition_masks(12, 3, 12, 0)
    assert masks.shape[0] > 10 * _TABLE_CHUNK
    rng = np.random.default_rng(3)
    values = rng.random(1 << 12) if levels is None else rng.integers(0, levels, 1 << 12) / levels
    screen = values[masks[:, 0]] + values[masks[:, 1]] + values[masks[:, 2]]
    expected = masks[screen >= screen.max() * (1.0 - _SCREEN_MARGIN)]
    assert np.array_equal(_near_maximal(masks, values), expected)


def traced_peak(call):
    """Largest traced allocation of ``call()`` beyond what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_warm_exact_searches_allocate_little():
    cfg = SimConfig(num_aps=50, num_ues=12, num_pilots=3, seed=2022)
    real = generate_realization(cfg, 0)
    exhaustive_sum_rate(real, cfg)
    optimal_repulsive(real.ue_positions, 3)
    assert traced_peak(lambda: exhaustive_sum_rate(real, cfg)) < 1_000_000
    assert traced_peak(lambda: optimal_repulsive(real.ue_positions, 3)) < 300_000


@pytest.mark.parametrize("k,tp,bound", [
    (61, 60, 8_000_000),     # 1,770 cluster pairs
    (100, 100, 1_000_000),   # one UE per cluster: no swap to make, so no search
])
def test_repulsive_memory_grows_with_pairs_not_their_square(k, tp, bound):
    # A per-pair table of every pair's successors would take about 230 MB at
    # 1,770 pairs.
    cfg = SimConfig(num_aps=50, num_ues=k, num_pilots=tp, seed=2022)
    feats = generate_realization(cfg, 0).ue_positions
    repulsive_heuristic(feats, tp)
    assert traced_peak(lambda: repulsive_heuristic(feats, tp)) < bound


def test_a_chunk_of_repulsive_searches_stays_within_the_bound_of_one():
    # Eight realizations make one chunk at K = 61, but each is searched alone: a
    # stack of all eight traced about 49 MB.
    sim = SimConfig(num_aps=50, num_ues=61, num_pilots=60, realizations=8, seed=2022)
    cfg = ExperimentConfig(sim=sim, strategies=("repulsive",), power_policy="full")
    run_experiment(cfg)
    assert traced_peak(lambda: run_experiment(cfg)) < 8_000_000


def test_a_direct_stack_call_stays_within_the_bound_of_one():
    # Eight realizations in one call are searched one stack at a time: a stack of
    # all eight traced about 49 MB.
    cfg = SimConfig(num_aps=50, num_ues=61, num_pilots=60, seed=2022)
    feats = [generate_realization(cfg, i).ue_positions for i in range(8)]
    repulsive_stack(feats, 60, range(8))
    assert traced_peak(lambda: repulsive_stack(feats, 60, range(8))) < 8_000_000


def test_oracle_assignment_flag():
    p = oracle_assignment(5)
    assert p.oracle
    assert p.num_ues == 5


def test_assign_dispatch_and_determinism():
    cfg, real = small_realization(4, m=8, k=6, tp=2)
    for strategy in ("random", "greedy", "repulsive", "optimal-repulsive", "exhaustive", "oracle"):
        a = assign(strategy, real, cfg, seed=7)
        b = assign(strategy, real, cfg, seed=7)
        assert np.array_equal(a.p, b.p)
        assert a.oracle == (strategy == "oracle")
