"""Pilot-assignment strategies and the diversity objective they optimize.

Strategies, by registered name:

* ``random``: balanced random partition (shuffle, deal round-robin).
* ``greedy``: iteratively moves the minimum-rate UE to the least-contaminating
  pilot; may leave the partition unbalanced.
* ``repulsive``: swap-based local search that maximizes within-cluster
  dissimilarity under balanced cluster sizes.
* ``optimal-repulsive``: exact maximizer of the same objective by enumerating
  every balanced partition (small instances only).
* ``exhaustive``: exact sum-rate maximizer over every assignment, balanced or
  not (small instances only).
* ``oracle``: idealized contamination-free assignment (upper bound).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import default_rng

from .chanest import PilotAssignment, estimation_quality
from .config import SimConfig
from .errors import BudgetExceededError, ConfigError
from .rate_model import uplink_sinr
from .topology import NetworkRealization, pilot_snr, uplink_snr

# Strict-improvement margin for accepting a swap; guards against float cycling.
SWAP_TOLERANCE = 1e-12
# Independent local-search starts for the repulsive heuristic; single starts
# land in sub-optimal 1-swap local optima on roughly a third of instances.
DEFAULT_RESTARTS = 8
# Guards for the exact searches.
OPTIMAL_REPULSIVE_MAX_UES = 12
EXHAUSTIVE_BUDGET = 2_000_000
_ENUM_CHUNK = 1 << 17
_TABLE_CHUNK = 1 << 13
_PARTITION_CHUNK = 1 << 13


def group_size_bounds(num_ues, num_clusters):
    """Allowed per-cluster size range for a balanced partition."""
    low = num_ues // num_clusters
    return low, low + 1


def pairwise_distance(features):
    """K-by-K Euclidean distances between UE feature vectors (one row per UE).

    A 1-D input is one scalar feature per UE.
    """
    f = np.asarray(features, dtype=float)
    f = f.reshape(f.shape[0], -1)
    diff = f[:, None, :] - f[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def cluster_objective(scores, labels):
    """Total within-cluster dissimilarity: ``scores`` summed once per same-label pair."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return float((scores * same).sum()) / 2.0


def random_assignment(num_ues, num_pilots, seed) -> PilotAssignment:
    """Balanced random partition: shuffle the UEs and deal them round-robin."""
    if num_ues < 1 or num_pilots < 1:
        raise ValueError("num_ues and num_pilots must be >= 1")
    rng = default_rng(seed)
    labels = np.empty(num_ues, dtype=int)
    labels[rng.permutation(num_ues)] = np.arange(num_ues) % num_pilots
    return PilotAssignment(labels)


def greedy_assignment(realization: NetworkRealization, cfg: SimConfig, seed,
                      iterations=None) -> PilotAssignment:
    """Iteratively reseat the minimum-rate UE on the least-contaminating pilot.

    Rates are evaluated at full power; each round moves the worst UE to the
    pilot whose current co-pilot UEs have the smallest total gain summed over
    all APs. Stops early once the chosen UE would keep its pilot (the state
    can never change afterwards). Defaults to 2K rounds.
    """
    beta = realization.beta
    k = realization.num_ues
    if iterations is None:
        iterations = 2 * k
    rho_p = pilot_snr(cfg)
    rho_u = uplink_snr(cfg)
    eta = np.ones(k)
    ue_gain = beta.sum(axis=0)
    labels = random_assignment(k, cfg.num_pilots, seed).p.copy()
    for _ in range(iterations):
        assignment = PilotAssignment(labels)
        gamma = estimation_quality(beta, assignment, cfg.num_pilots, rho_p).gamma
        sinr = uplink_sinr(beta, gamma, assignment, eta, rho_u)
        worst = int(np.argmin(sinr))
        per_pilot = np.bincount(labels, weights=ue_gain, minlength=cfg.num_pilots)
        per_pilot[labels[worst]] -= ue_gain[worst]
        target = int(np.argmin(per_pilot))
        if target == labels[worst]:
            break
        labels[worst] = target
    return PilotAssignment(labels)


def _swap_gain(scores, labels, u, w):
    """Objective change from exchanging the clusters of UEs u and w."""
    members_u = np.flatnonzero(labels == labels[u])
    members_w = np.flatnonzero(labels == labels[w])
    gain = (scores[w, members_u] - scores[u, members_u]).sum()
    gain += (scores[u, members_w] - scores[w, members_w]).sum()
    return gain - 2.0 * scores[u, w]


def _cluster_sums(scores, labels, cluster):
    """Each UE's summed dissimilarity to the members of one cluster."""
    return scores[:, np.flatnonzero(labels == cluster)].sum(axis=1)


def _local_search(scores, labels, num_pilots):
    """Sweep cluster pairs lexicographically until a full sweep accepts no swap.

    Within a pair, the first improving swap in UE index order is applied and
    the pair is re-scanned until none is left. A scan that accepts nothing
    leaves the state unchanged, so instead of scanning pair by pair, the
    gains of every cross-cluster swap are evaluated at once and the search
    jumps to the first pair, at or after the current one, that holds an
    improving swap. Per-cluster sums are recomputed only for the two
    clusters a swap touches, with the same arithmetic as a fresh scan, so
    each gain equals the one-at-a-time delta bit for bit.
    """
    k = labels.size
    rows = np.arange(k)
    twice = 2.0 * scores
    sums = np.empty((k, num_pilots))
    for cluster in range(num_pilots):
        sums[:, cluster] = _cluster_sums(scores, labels, cluster)
    start = 0                          # pair code first * num_pilots + second
    improved = False
    while True:
        toward = sums[:, labels]       # toward[i, j]: UE i's sum over j's cluster
        own = toward[rows, rows]
        gains = toward.T - own[:, None] + toward - own[None, :] - twice
        u, w = np.nonzero((gains > SWAP_TOLERANCE) & (labels[:, None] < labels[None, :]))
        codes = labels[u] * num_pilots + labels[w]
        ahead = np.flatnonzero(codes >= start)
        if ahead.size == 0:
            if not improved:
                return labels
            start, improved = 0, False
            continue
        hit = ahead[np.argmin(codes[ahead])]   # earliest pair, then row-major order
        first, second = labels[u[hit]], labels[w[hit]]
        labels[u[hit]], labels[w[hit]] = second, first
        sums[:, first] = _cluster_sums(scores, labels, first)
        sums[:, second] = _cluster_sums(scores, labels, second)
        start, improved = codes[hit], True


def _check_fillable(num_ues, num_pilots):
    """Balanced clustering needs at least one UE per pilot."""
    if num_ues < num_pilots:
        raise ConfigError(f"{num_ues} UEs cannot fill {num_pilots} pilots: "
                          "the repulsive strategies need num_ues >= num_pilots")


def repulsive_heuristic(features, num_pilots, seed=0,
                        restarts=DEFAULT_RESTARTS) -> PilotAssignment:
    """Swap-based local search for a balanced, maximally diverse partition.

    Each start begins from a balanced random partition and sweeps all cluster
    pairs in lexicographic order and all cross-pair UE pairs in index order,
    exchanging two UEs whenever that strictly increases the total
    within-cluster dissimilarity; a start terminates when a full sweep
    accepts no swap. The best of ``restarts`` such runs is returned (ties
    keep the earliest), so the result is balanced, 1-swap locally optimal,
    and deterministic given the seed.
    """
    scores = pairwise_distance(features)
    k = scores.shape[0]
    _check_fillable(k, num_pilots)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = default_rng(seed)
    best_labels = None
    best_score = -1.0
    for _ in range(restarts):
        labels = np.empty(k, dtype=int)
        labels[rng.permutation(k)] = np.arange(k) % num_pilots
        _local_search(scores, labels, num_pilots)
        score = cluster_objective(scores, labels)
        if score > best_score:
            best_score = score
            best_labels = labels
    return PilotAssignment(best_labels)


def _balanced_partitions(num_ues, capacities):
    """Yield canonical label vectors of every partition with the given sizes.

    Clusters are opened in first-touched order (so labels are canonical:
    cluster i appears before cluster j for i < j), and empty clusters of
    equal capacity are interchangeable, which removes label symmetry.
    """
    labels = np.zeros(num_ues, dtype=int)
    counts = []
    caps = []
    remaining = sorted(capacities, reverse=True)

    def place(ue):
        if ue == num_ues:
            yield labels
            return
        for idx in range(len(caps)):
            if counts[idx] < caps[idx]:
                counts[idx] += 1
                labels[ue] = idx
                yield from place(ue + 1)
                counts[idx] -= 1
        seen = set()
        for pos, cap in enumerate(remaining):
            if cap == 0 or cap in seen:
                continue
            seen.add(cap)
            caps.append(cap)
            counts.append(1)
            del remaining[pos]
            labels[ue] = len(caps) - 1
            yield from place(ue + 1)
            remaining.insert(pos, cap)
            caps.pop()
            counts.pop()

    yield from place(0)


@functools.lru_cache(maxsize=None)
def _partition_table(num_ues, capacities):
    """Every canonical balanced partition as one read-only int8 row, in enumeration order.

    Filled on first use per (K, capacities); the K <= 12 guard bounds the key
    set, and the twelve K = 12 tables together take 3.6 MB.
    """
    rows = np.fromiter(_balanced_partitions(num_ues, capacities),
                       dtype=np.dtype((np.int8, num_ues)))
    rows.flags.writeable = False
    return rows


def optimal_repulsive(features, num_pilots) -> PilotAssignment:
    """Exact maximally diverse balanced partition by full enumeration.

    Guarded to ``OPTIMAL_REPULSIVE_MAX_UES`` UEs; ties are broken toward the
    lexicographically smallest canonical label vector. Partitions are scored
    in chunks, each row with the same flattened K*K product and contiguous
    sum as :func:`cluster_objective`, so every score equals its value bit
    for bit.
    """
    scores = pairwise_distance(features)
    k = scores.shape[0]
    if k > OPTIMAL_REPULSIVE_MAX_UES:
        raise BudgetExceededError(
            f"optimal-repulsive enumeration supports at most {OPTIMAL_REPULSIVE_MAX_UES} UEs, got {k}",
            guard="optimal-repulsive enumeration")
    _check_fillable(k, num_pilots)
    low, _ = group_size_bounds(k, num_pilots)
    capacities = (low + 1,) * (k % num_pilots) + (low,) * (num_pilots - k % num_pilots)
    rows = _partition_table(k, capacities)
    flat = scores.ravel()
    objective = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _PARTITION_CHUNK):
        chunk = rows[start:start + _PARTITION_CHUNK]
        same = (chunk[:, :, None] == chunk[:, None, :]).reshape(chunk.shape[0], k * k)
        objective[start:start + chunk.shape[0]] = (flat * same).sum(axis=1) / 2.0
    tied = rows[objective == objective.max()]
    codes = tied @ num_pilots ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return PilotAssignment(tied[np.argmin(codes)].astype(int))


def _group_rate_table(beta, num_pilots, rho_p, rho_u):
    """Sum of per-UE rates inside one co-pilot group, for every UE subset.

    At full power a UE's SINR depends only on the set of UEs sharing its
    pilot, so the sum rate of any assignment is the sum of this table over
    its groups. Index: bitmask of group members. Cost O(2^K * M * K^2).
    """
    m, k = beta.shape
    train = num_pilots * rho_p
    beta_sq = beta ** 2
    total_gain = beta.sum(axis=1)                     # per-AP gain over all UEs
    table = np.zeros(1 << k)
    bits = np.arange(k)
    for start in range(0, 1 << k, _TABLE_CHUNK):
        codes = np.arange(start, min(start + _TABLE_CHUNK, 1 << k), dtype=np.int64)
        member = ((codes[:, None] >> bits) & 1).astype(float)       # (C, K)
        load = member @ beta.T                                      # (C, M)
        damp = 1.0 / (train * load + 1.0)
        totals = train * (damp @ beta_sq)                           # (C, K) sum_m gamma
        cross = train * (damp @ (beta_sq * total_gain[:, None]))    # (C, K)
        pair = train * np.einsum("cm,mk,ml->ckl", damp, beta, beta, optimize=True)
        pair_sq = pair ** 2
        copilot = np.einsum("ckl,cl->ck", pair_sq, member)
        copilot -= np.einsum("ckk->ck", pair_sq)
        # copilot/denominator are only meaningful for UEs inside the subset.
        denom = rho_u * copilot + rho_u * cross + totals
        sinr = np.where(member > 0, rho_u * totals ** 2 / np.where(denom > 0, denom, 1.0), 0.0)
        table[codes] = np.log2(1.0 + sinr).sum(axis=1)
    return table


def _digit_masks(num_pilots, ues):
    """Member bitmask of each pilot for every digit string over ``ues``.

    Entry ``[p, c]`` sets bit ``u`` for each UE ``u`` whose digit in code
    ``c`` is ``p``; the first UE is the most significant digit.
    """
    n = ues.size
    codes = np.arange(num_pilots ** n, dtype=np.int64)
    digits = (codes[:, None] // num_pilots ** np.arange(n - 1, -1, -1, dtype=np.int64)) % num_pilots
    bits = np.int64(1) << ues.astype(np.int64)
    return np.stack([((digits == p) * bits).sum(axis=1) for p in range(num_pilots)])


def exhaustive_sum_rate(realization: NetworkRealization, cfg: SimConfig) -> PilotAssignment:
    """Exact full-power sum-rate maximizer over every pilot assignment.

    Enumerates all ``num_pilots ** K`` assignments (no balance constraint) in
    lexicographic order and returns the first maximizer, so ties break toward
    the lexicographically smallest assignment. Guarded by
    ``EXHAUSTIVE_BUDGET`` total assignments. Each pilot's member bitmask is
    the OR of two precomputed half-width masks, one for the leading and one
    for the trailing UEs, and the group rates are added in pilot order.
    """
    beta = realization.beta
    k = realization.num_ues
    num_pilots = cfg.num_pilots
    total = num_pilots ** k
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"exhaustive search over {total} assignments exceeds the budget of {EXHAUSTIVE_BUDGET}",
            guard="exhaustive enumeration")
    if num_pilots == 1:
        return PilotAssignment(np.zeros(k, dtype=int))
    table = _group_rate_table(beta, num_pilots, pilot_snr(cfg), uplink_snr(cfg))
    # code = lead * num_pilots**low + tail, so row-major (lead, tail) order is code order.
    low = k // 2
    lead = _digit_masks(num_pilots, np.arange(k - low))
    tail = _digit_masks(num_pilots, np.arange(k - low, k))
    width = tail.shape[1]
    rows_per_block = max(1, _ENUM_CHUNK // width)
    best_score = -np.inf
    best_code = 0
    for start in range(0, lead.shape[1], rows_per_block):
        stop = min(start + rows_per_block, lead.shape[1])
        scores = np.zeros((stop - start, width))
        for pilot in range(num_pilots):
            scores += table[lead[pilot, start:stop, None] | tail[pilot]]
        idx = int(np.argmax(scores))
        if scores.flat[idx] > best_score:
            best_score = scores.flat[idx]
            best_code = start * width + idx
    weights = num_pilots ** np.arange(k - 1, -1, -1, dtype=np.int64)  # p[0] most significant
    labels = (best_code // weights) % num_pilots
    return PilotAssignment(labels.astype(int))


def oracle_assignment(num_ues) -> PilotAssignment:
    """Idealized contamination-free assignment: all cross-correlations are zero."""
    return PilotAssignment(np.zeros(num_ues, dtype=int), oracle=True)


def assign(strategy, realization: NetworkRealization, cfg: SimConfig, seed=0) -> PilotAssignment:
    """Dispatch a registered strategy name on one network realization."""
    if strategy == "random":
        return random_assignment(cfg.num_ues, cfg.num_pilots, seed)
    if strategy == "greedy":
        return greedy_assignment(realization, cfg, seed)
    if strategy == "repulsive":
        return repulsive_heuristic(realization.ue_positions, cfg.num_pilots, seed)
    if strategy == "optimal-repulsive":
        return optimal_repulsive(realization.ue_positions, cfg.num_pilots)
    if strategy == "exhaustive":
        return exhaustive_sum_rate(realization, cfg)
    if strategy == "oracle":
        return oracle_assignment(cfg.num_ues)
    raise ConfigError(f"unknown strategy {strategy!r}")
