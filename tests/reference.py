"""Independent reference computations that several test modules compare against."""

import functools

import numpy as np
from numpy.random import default_rng

from cfpilot.assignment import (_TABLE_CHUNK, RESTARTS, SWAP_TOLERANCE, _check_fillable, assign,
                                pairwise_distance)
from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.errors import BudgetExceededError, ConfigError
from cfpilot.harness import ThroughputRecord
from cfpilot.power_control import full_power, max_min_power
from cfpilot.rate_model import rate_report, uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, strategy_seed, uplink_snr

_ENUM_CHUNK = 1 << 17
_PARTITION_CHUNK = 1 << 13


def group_size_bounds(num_ues, num_clusters):
    """Allowed per-cluster size range for a balanced partition."""
    low = num_ues // num_clusters
    return low, low + 1


def empirical_cdf(values):
    """Sorted step function as (value, fraction <= value) pairs, ending at 1."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empirical cdf of an empty sequence")
    points, counts = np.unique(values, return_counts=True)
    fractions = np.cumsum(counts) / values.size
    return list(zip(points.tolist(), fractions.tolist()))


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("ks distance of an empty sequence")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def single_objective(scores, labels):
    """Within-cluster dissimilarity of one label vector, summed over the whole K-by-K product."""
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    return float((scores * same).sum()) / 2.0


def swap_gain(scores, labels, u, w):
    """Objective change from exchanging the clusters of UEs u and w."""
    members_u = np.flatnonzero(labels == labels[u])
    members_w = np.flatnonzero(labels == labels[w])
    gain = (scores[w, members_u] - scores[u, members_u]).sum()
    gain += (scores[u, members_w] - scores[w, members_w]).sum()
    return gain - 2.0 * scores[u, w]


def sum_rate(beta, gamma, assignment, eta, uplink_snr):
    """Network sum rate in bits/s/Hz for one assignment and power vector."""
    return float(np.log2(1.0 + uplink_sinr(beta, gamma, assignment, eta, uplink_snr)).sum())


def maxmin_optimum(coupling, floor, balance=None):
    """Max-min common SINR t* = 1 / max_i rho(C + f e_i^T), from K dense eigenvalue problems.

    rho(C + f e_i^T) is the lam at which UE i's power (lam I - C)^-1 f meets
    the unit cap (Perron-Frobenius; Zheng & Tan, IEEE T-IT 2016), so the
    largest of them is the least lam at which every UE's power fits. A
    positive ``balance`` b takes each spectrum of diag(b)^-1 M diag(b)
    instead: the same eigenvalues, but with b near the powers its entries are
    of comparable size, so eigvals, accurate relative to the largest entry,
    stays accurate where the entries of M span hundreds of decades.
    """
    balance = np.ones_like(floor) if balance is None else balance
    radius = 0.0
    for ue in range(floor.size):
        rank_one = coupling.copy()
        rank_one[:, ue] += floor
        rank_one *= balance[None, :] / balance[:, None]
        radius = max(radius, float(np.abs(np.linalg.eigvals(rank_one)).max()))
    return 1.0 / radius


def cluster_sums(scores, labels, cluster):
    """Each UE's summed dissimilarity to the members of one cluster."""
    return scores[:, np.flatnonzero(labels == cluster)].sum(axis=1)


def local_search(scores, labels, num_pilots):
    """Single-start swap local search; modifies and returns ``labels``.

    Sweeps cluster pairs lexicographically until a full sweep accepts no
    swap. Within a pair, the first improving swap in UE index order is
    applied and the pair is re-scanned until none is left. Instead of
    scanning pair by pair, the gains of every cross-cluster swap are
    evaluated at once and the search jumps to the first pair, at or after
    the current one, that holds an improving swap.
    """
    k = labels.size
    rows = np.arange(k)
    twice = 2.0 * scores
    tolerance = SWAP_TOLERANCE * scores.max()
    sums = np.empty((k, num_pilots))
    for cluster in range(num_pilots):
        sums[:, cluster] = cluster_sums(scores, labels, cluster)
    start = 0                          # pair code first * num_pilots + second
    improved = False
    while True:
        toward = sums[:, labels]       # toward[i, j]: UE i's sum over j's cluster
        own = toward[rows, rows]
        gains = toward.T - own[:, None] + toward - own[None, :] - twice
        u, w = np.nonzero((gains > tolerance) & (labels[:, None] < labels[None, :]))
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
        sums[:, first] = cluster_sums(scores, labels, first)
        sums[:, second] = cluster_sums(scores, labels, second)
        start, improved = codes[hit], True


def repulsive_restarts(features, num_pilots, seed):
    """Best of ``RESTARTS`` single-start searches, run one after another (ties keep the earliest)."""
    scores = pairwise_distance(features)
    k = scores.shape[0]
    rng = default_rng(seed)
    best_labels = None
    best_score = -1.0
    for _ in range(RESTARTS):
        labels = np.empty(k, dtype=int)
        labels[rng.permutation(k)] = np.arange(k) % num_pilots
        local_search(scores, labels, num_pilots)
        score = single_objective(scores, labels)
        if score > best_score:
            best_score = score
            best_labels = labels
    return best_labels


def balanced_partitions(num_ues, capacities):
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
def partition_table(num_ues, capacities):
    """Every canonical balanced partition as one read-only int8 row, in enumeration order."""
    rows = np.fromiter(balanced_partitions(num_ues, capacities),
                       dtype=np.dtype((np.int8, num_ues)))
    rows.flags.writeable = False
    return rows


def optimal_repulsive_labels(features, num_pilots):
    """Exact diversity optimum by scoring every balanced partition in enumeration order.

    Each row is scored with the flattened K*K product and contiguous sum of
    ``cluster_objective``; among exact maxima the lexicographically smallest
    canonical label vector wins.
    """
    scores = pairwise_distance(features)
    k = scores.shape[0]
    low, _ = group_size_bounds(k, num_pilots)
    capacities = (low + 1,) * (k % num_pilots) + (low,) * (num_pilots - k % num_pilots)
    rows = partition_table(k, capacities)
    flat = scores.ravel()
    objective = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _PARTITION_CHUNK):
        chunk = rows[start:start + _PARTITION_CHUNK]
        same = (chunk[:, :, None] == chunk[:, None, :]).reshape(chunk.shape[0], k * k)
        objective[start:start + chunk.shape[0]] = (flat * same).sum(axis=1) / 2.0
    tied = rows[objective == objective.max()]
    codes = tied @ num_pilots ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return tied[np.argmin(codes)].astype(int)


def digit_masks(num_pilots, ues):
    """Member bitmask of each pilot for every digit string over ``ues``.

    Entry ``[p, c]`` sets bit ``u`` for each UE ``u`` whose digit in code
    ``c`` is ``p``; the first UE is the most significant digit.
    """
    n = ues.size
    codes = np.arange(num_pilots ** n, dtype=np.int64)
    digits = (codes[:, None] // num_pilots ** np.arange(n - 1, -1, -1, dtype=np.int64)) % num_pilots
    bits = np.int64(1) << ues.astype(np.int64)
    return np.stack([((digits == p) * bits).sum(axis=1) for p in range(num_pilots)])


def group_rate_table(beta, num_pilots, rho_p, rho_u):
    """Sum of per-UE rates inside one co-pilot group, for every UE subset.

    At full power a UE's SINR depends only on the set of UEs sharing its
    pilot, so the sum rate of any assignment is the sum of this table over
    its groups. Index: bitmask of group members. Cost O(2^K * M * K^2).
    Out-of-range gains leave entries that are not finite, without a warning.
    """
    m, k = beta.shape
    train = num_pilots * rho_p
    table = np.zeros(1 << k)
    bits = np.arange(k)
    with np.errstate(all="ignore"):
        beta_sq = beta ** 2
        total_gain = beta.sum(axis=1)                 # per-AP gain over all UEs
        for start in range(0, 1 << k, _TABLE_CHUNK):
            codes = np.arange(start, min(start + _TABLE_CHUNK, 1 << k), dtype=np.int64)
            member = ((codes[:, None] >> bits) & 1).astype(float)       # (C, K)
            load = member @ beta.T                                      # (C, M)
            damp = 1.0 / (train * load + 1.0)
            totals = train * (damp @ beta_sq)                           # (C, K) sum_m gamma
            cross = train * (damp @ (beta_sq * total_gain[:, None]))    # (C, K)
            pair = np.einsum("cm,mk,ml->ckl", damp, beta, beta, optimize=True)
            pair *= train
            np.square(pair, out=pair)
            copilot = np.einsum("ckl,cl->ck", pair, member)
            copilot -= np.einsum("ckk->ck", pair)
            # copilot/denominator are only meaningful for UEs inside the subset.
            denom = rho_u * copilot + rho_u * cross + totals
            sinr = np.where(member > 0, rho_u * totals ** 2 / np.where(denom > 0, denom, 1.0), 0.0)
            table[codes] = np.log2(1.0 + sinr).sum(axis=1)
    return table


def exhaustive_labels(realization, cfg):
    """Exact full-power sum-rate optimum by scoring all ``num_pilots ** K`` assignments.

    Assignments are taken in lexicographic order and each is scored as 0.0
    plus its group rates in pilot order; the first maximizer wins. Each
    pilot's member bitmask is the OR of two half-width masks, one for the
    leading and one for the trailing UEs.
    """
    k = realization.num_ues
    num_pilots = cfg.num_pilots
    if num_pilots == 1:
        return np.zeros(k, dtype=int)
    table = group_rate_table(realization.beta, num_pilots, pilot_snr(cfg), uplink_snr(cfg))
    # code = lead * num_pilots**low + tail, so row-major (lead, tail) order is code order.
    low = k // 2
    lead = digit_masks(num_pilots, np.arange(k - low))
    tail = digit_masks(num_pilots, np.arange(k - low, k))
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
    return (best_code // weights) % num_pilots


def reference_labels(strategy, realization, sim, seed):
    """One drop's pilot assignment: the reference search of a searched strategy, else ``assign``."""
    positions = realization.ue_positions
    if strategy == "repulsive":
        _check_fillable(sim.num_ues, sim.num_pilots)
        return PilotAssignment(repulsive_restarts(positions, sim.num_pilots, seed))
    if strategy == "optimal-repulsive":
        _check_fillable(sim.num_ues, sim.num_pilots)
        return PilotAssignment(optimal_repulsive_labels(positions, sim.num_pilots))
    if strategy == "exhaustive":
        return PilotAssignment(exhaustive_labels(realization, sim))
    return assign(strategy, realization, sim, seed=seed)


def reference_records(cfg):
    """``run_experiment`` one drop at a time, in loop order, from the reference searches.

    Each (realization, strategy) is drawn, assigned, solved by the per-drop
    ``max_min_power`` or at full power, and rated by ``rate_report`` before
    the next, so the first drop that fails raises. Reproduces the errors of
    the configs of small K (the exact-search budgets hold) whose estimate
    qualities and max-min couplings stay in range: an unfillable repulsive
    clustering, a max-min budget and a throughput that rounds to 0 or
    overflows.
    """
    sim = cfg.sim
    records = []
    for index in range(sim.realizations):
        realization = generate_realization(sim, index)
        for strategy in cfg.strategies:
            pilot = reference_labels(strategy, realization, sim,
                                     strategy_seed(sim.seed, index, strategy))
            gamma = estimation_quality(realization.beta, pilot, sim.num_pilots,
                                       pilot_snr(sim)).gamma
            if cfg.power_policy == "maxmin":
                try:
                    eta = max_min_power(realization.beta, gamma, pilot, uplink_snr(sim)).eta
                except BudgetExceededError as exc:
                    raise BudgetExceededError(f"realization {index}, {strategy}: {exc}",
                                              guard=exc.guard) from exc
            else:
                eta = full_power(sim.num_ues).eta
            with np.errstate(over="ignore", invalid="ignore"):
                report = rate_report(realization.beta, gamma, pilot, eta, sim)
            sinr, bps = report.sinr, report.throughput
            lost = np.flatnonzero(~((bps > 0) & (bps < np.inf)))
            if lost.size:
                ue = lost[0]
                fault = "rounds to 0" if bps[ue] == 0 else "is not finite"
                raise ConfigError(
                    f"realization {index}, {strategy}: the throughput of UE {ue} {fault} "
                    f"at SINR {sinr[ue]:g} (uplink_tx_power = {sim.uplink_tx_power:g} W, "
                    f"pilot_tx_power = {sim.pilot_tx_power:g} W, bandwidth = "
                    f"{sim.bandwidth:g} Hz, shadowing_sigma = {sim.shadowing_sigma:g} dB)")
            records.extend(ThroughputRecord(index, strategy, ue, float(value), float(rate))
                           for ue, (value, rate) in enumerate(zip(sinr, bps)))
    records.sort()
    return records
