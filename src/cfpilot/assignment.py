"""Pilot-assignment strategies and the diversity objective they optimize.

Strategies, by registered name:

* ``random``: balanced random partition (shuffle, deal round-robin).
* ``greedy``: iteratively moves the minimum-rate UE to the least-contaminating
  pilot; may leave the partition unbalanced.
* ``repulsive``: swap-based local search that maximizes within-cluster
  dissimilarity under balanced cluster sizes.
* ``optimal-repulsive``: exact maximizer of the same objective by screening
  every balanced partition (small instances only).
* ``exhaustive``: exact sum-rate maximizer over every assignment, balanced or
  not (small instances only).
* ``oracle``: idealized contamination-free assignment (upper bound).
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np
from numpy.random import default_rng

from .chanest import PilotAssignment, estimation_quality
from .config import SimConfig
from .errors import BudgetExceededError, ConfigError
from .rate_model import uplink_sinr
from .topology import NetworkRealization, pilot_snr, uplink_snr

# Strict-improvement margin for accepting a swap, relative to the largest
# dissimilarity: the rounding noise of a gain grows with the distances, and a
# swap whose exact gain is 0 must read below the margin both ways, or the
# search cycles.
SWAP_TOLERANCE = 1e-12
# Independent local-search starts for the repulsive heuristic; single starts
# land in sub-optimal 1-swap local optima on roughly a third of instances.
RESTARTS = 8
# Bytes of swap gains per iteration of a lock-step stack of repulsive searches.
_STACK_BYTES = 1 << 18
# Guards for the exact searches.
OPTIMAL_REPULSIVE_MAX_UES = 12
EXHAUSTIVE_BUDGET = 2_000_000
# Rows per block of the group-rate table and of the partition screen. A
# table's entries depend on its chunk size (BLAS blocks a product by its row
# count), so it stays fixed.
_CHUNK_BITS = 13
_TABLE_CHUNK = 1 << _CHUNK_BITS
# Relative margin below the screened maximum inside which the exact searches
# re-score a partition; screen and exact score differ by a few ulps at most.
_SCREEN_MARGIN = 1e-9


def pairwise_distance(features):
    """K-by-K Euclidean distances between UE feature vectors (one row per UE).

    A 1-D input is one scalar feature per UE.
    """
    f = np.asarray(features, dtype=float)
    f = f.reshape(f.shape[0], -1)
    diff = f[:, None, :] - f[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def cluster_objective(scores, labels):
    """Total within-cluster dissimilarity: ``scores`` summed once per same-label pair.

    One value per (..., K) label row, each a contiguous sum over the flattened
    K*K product, so a row's value does not depend on the rows stacked with it.
    """
    labels = np.asarray(labels)
    k = labels.shape[-1]
    same = (labels[..., :, None] == labels[..., None, :]).reshape(*labels.shape[:-1], k * k)
    return (scores.ravel() * same).sum(axis=-1) / 2.0


def random_assignment(num_ues, num_pilots, seed) -> PilotAssignment:
    """Balanced random partition: shuffle the UEs and deal them round-robin."""
    if num_ues < 1 or num_pilots < 1:
        raise ValueError("num_ues and num_pilots must be >= 1")
    rng = default_rng(seed)
    labels = np.empty(num_ues, dtype=int)
    labels[rng.permutation(num_ues)] = np.arange(num_ues) % num_pilots
    return PilotAssignment(labels)


def greedy_assignment(realization: NetworkRealization, cfg: SimConfig, seed) -> PilotAssignment:
    """Iteratively reseat the minimum-rate UE on the least-contaminating pilot.

    Rates are evaluated at full power; each round moves the worst UE to the
    pilot whose current co-pilot UEs have the smallest total gain summed over
    all APs. Stops early once the chosen UE would keep its pilot (the state
    can never change afterwards). Runs at most 2K rounds.
    """
    beta = realization.beta
    k = realization.num_ues
    rho_p = pilot_snr(cfg)
    rho_u = uplink_snr(cfg)
    eta = np.ones(k)
    ue_gain = beta.sum(axis=0)
    labels = random_assignment(k, cfg.num_pilots, seed).p.copy()
    for _ in range(2 * k):
        assignment = PilotAssignment(labels)
        # Out-of-range gains give non-finite SINRs here; the caller rejects such a drop
        # from the SINR terms of the assignment returned.
        with np.errstate(over="ignore", invalid="ignore"):
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


def _member_table(labels, num_pilots):
    """Each row's clusters, members ascending: ``table[r, c, s]`` is slot s of cluster c.

    There are ceil(K / num_pilots) slots. A cluster with fewer members fills
    its last slot with K, an index past every UE.
    """
    count, k = labels.shape
    below = np.tri(k, k, -1, dtype=bool)            # below[u, v]: v < u
    slot = ((labels[:, :, None] == labels[:, None, :]) & below).sum(axis=2)
    table = np.full((count, num_pilots, -(-k // num_pilots)), k)
    table[np.arange(count)[:, None], labels, slot] = np.arange(k)
    return table


def _slot_sums(columns, table):
    """``columns[table[..., 0]] + columns[table[..., 1]] + ...``, one slot at a time.

    numpy sums pairwise only along the last, contiguous axis, and adds the
    slots here one after another. With ascending members that is the order in
    which it reduces ``scores[:, members].sum(axis=1)``, because fancy
    indexing lays that array out column-major. The zero row of an empty slot,
    added last, leaves a sum unchanged.
    """
    return columns.take(table, axis=0).sum(axis=-2)


def _lockstep_search(scores, starts, num_pilots):
    """Run the swap local search from every start of every realization at once.

    ``scores`` is an (R, K, K) stack of dissimilarities and ``starts`` an
    (R, S, K) stack of start labels, S per realization; returns the final
    labels, shaped like ``starts``. Each start sweeps cluster pairs
    lexicographically until a full sweep accepts no swap. Within a pair, the
    first improving swap in UE index order is applied and the pair is
    re-scanned until none is left. A scan that accepts nothing leaves the
    state unchanged, so each iteration scores the swaps of every pair a < b
    of every live start as one (slots, slots, starts, pairs) stack, and each
    start applies the first improving swap of its first improving pair at or
    after its current one, wrapping around to pair 0. A start ends when it
    holds no improving swap. Members sit in ascending slots
    (:func:`_member_table`), so the row-major (slot of u, slot of w) order of
    a pair's block is a single-start scan's (u, w) order. With T[i, c] UE
    i's summed dissimilarity to cluster c, a gain is
    ((T[w, a] - T[u, a]) + T[u, b]) - T[w, b] - 2 d(u, w), that scan's
    expression in its order; d is infinite at an empty slot. A start reads
    d, its sums' columns and the swap margin (``SWAP_TOLERANCE`` times the
    largest d) through its own realization's offset, so every decision
    matches that realization's single-start scan bit for bit, whatever is
    stacked with it. After a swap both clusters are re-sorted and their sums
    recomputed as fresh sums. With one UE per cluster every gain is
    (d(u, w) + d(u, w)) - 2 d(u, w) = 0 exactly, and with one cluster there
    is no pair, so no swap is ever taken: the starts are final.
    """
    num_runs, per_run, k = starts.shape
    if k <= num_pilots or num_pilots == 1:
        return starts
    count = num_runs * per_run
    pairs = np.transpose(np.triu_indices(num_pilots, 1))           # a < b, lexicographic
    num_pairs = len(pairs)
    table = _member_table(starts.reshape(count, k), num_pilots)
    slots = table.shape[2]
    owner = np.arange(count) // per_run                             # each start's realization
    columns = np.zeros((num_runs, k + 1, k + 1))
    columns[:, :k, :k] = scores.transpose(0, 2, 1)
    columns = columns.reshape(num_runs * (k + 1), k + 1)
    at_column = owner * (k + 1)
    sums = _slot_sums(columns, table + at_column[:, None, None])
    twice = np.full((num_runs, k + 1, k + 1), np.inf)
    twice[:, :k, :k] = 2.0 * scores
    at_twice = owner * (k + 1) ** 2
    tolerance = (SWAP_TOLERANCE * scores.max(axis=(1, 2)))[owner, None]
    # Flat indices, the same for the first n starts while starts drop out: the
    # members u, u, w, w of every slot and pair, the sums T[u, a], T[u, b],
    # T[w, a], T[w, b] they read, and each start's first stack column.
    runs = np.arange(count)
    at_member = ((runs[:, None] * num_pilots + pairs[:, [0, 0, 1, 1]].T[:, None]) * slots
                 + np.arange(slots)[:, None, None, None])
    at_sum = (runs[:, None] * num_pilots + pairs[:, [0, 1, 0, 1]].T[:, None]) * (k + 1)
    first, pair = runs * num_pairs, np.arange(num_pairs)
    final = table.copy()
    live = np.arange(count)
    rows, current = live, np.zeros(count, dtype=int)
    while live.size:
        n = live.size
        member = table.take(at_member[:, :, :n])                  # [slot, u/u/w/w, r, pair]
        ends = sums.take(member + at_sum[:, :n])
        gain = np.subtract(ends[None, :, 2], ends[:, None, 0])     # [slot of u, slot of w, r, pair]
        gain += ends[:, None, 1]
        gain -= ends[None, :, 3]
        row = np.multiply(member[:, 0], k + 1)
        row += at_twice[:, None]
        gain -= twice.take(row[:, None] + member[None, :, 3])
        better = np.greater(gain, tolerance).reshape(slots * slots, n * num_pairs)
        hit = better.any(axis=0).reshape(n, num_pairs)
        # 2 at an improving pair at or after the start's current pair, 1 at one
        # before it, 0 elsewhere: the first largest is the next pair, wrapping around.
        order = hit.view(np.int8) + (hit & (pair >= current[:, None]))
        current = order.argmax(axis=1)
        found = hit[rows, current]
        cell = better.take(first[:n] + current, axis=1).argmax(axis=0)
        if not found.all():
            final[live[~found]] = table[~found]
            keep = np.flatnonzero(found)
            live, table, sums = live[keep], table[keep], sums[keep]
            at_column, at_twice, tolerance = at_column[keep], at_twice[keep], tolerance[keep]
            rows = np.arange(live.size)
            cell, current = cell[keep], current[keep]
        touched = pairs[current]
        i, j = np.divmod(cell, slots)
        block = table[rows[:, None], touched]
        block[rows, 0, i], block[rows, 1, j] = block[rows, 1, j], block[rows, 0, i]
        block.sort(axis=2)
        table[rows[:, None], touched] = block
        sums[rows[:, None], touched] = _slot_sums(columns, block + at_column[:, None, None])
    labels = np.empty((count, k + 1), dtype=np.int64)
    labels[runs[:, None, None], final] = np.arange(num_pilots)[:, None]
    return labels[:, :k].reshape(num_runs, per_run, k)


def _check_fillable(num_ues, num_pilots):
    """Balanced clustering needs at least one UE per pilot."""
    if num_ues < num_pilots:
        raise ConfigError(f"{num_ues} UEs cannot fill {num_pilots} pilots: "
                          "the repulsive strategies need num_ues >= num_pilots")


def repulsive_stack(features, num_pilots, seeds) -> list[PilotAssignment]:
    """:func:`repulsive_heuristic` of each realization, their starts searched as lock-step stacks.

    ``features`` and ``seeds`` hold one entry per realization, each with the
    same number of UEs. A stack holds at most
    max(1, ``_STACK_BYTES`` // (8 * ``RESTARTS`` * pairs * slots^2))
    realizations, the bytes of their swap gains per iteration, so a call's
    memory stays that of one stack however many realizations it is given. A
    realization draws its starts from its own seed and keeps its first-best
    start, so its result is that of its call alone, bit for bit.
    """
    scores = np.stack([pairwise_distance(f) for f in features])
    k = scores.shape[1]
    _check_fillable(k, num_pilots)
    pairs = num_pilots * (num_pilots - 1) // 2
    per_stack = max(1, _STACK_BYTES // (8 * RESTARTS * max(pairs, 1) * (-(-k // num_pilots)) ** 2))
    starts = np.empty((len(seeds), RESTARTS, k), dtype=int)
    for run, seed in zip(starts, seeds):
        rng = default_rng(seed)
        for labels in run:
            labels[rng.permutation(k)] = np.arange(k) % num_pilots
    finals = np.concatenate([_lockstep_search(scores[first:first + per_stack],
                                              starts[first:first + per_stack], num_pilots)
                             for first in range(0, len(seeds), per_stack)])
    return [PilotAssignment(run[np.argmax(cluster_objective(s, run))])
            for s, run in zip(scores, finals)]


def repulsive_heuristic(features, num_pilots, seed=0) -> PilotAssignment:
    """Swap-based local search for a balanced, maximally diverse partition.

    Each start begins from a balanced random partition and sweeps all cluster
    pairs in lexicographic order and all cross-pair UE pairs in index order,
    exchanging two UEs whenever that strictly increases the total
    within-cluster dissimilarity; a start terminates when a full sweep
    accepts no swap. The best of ``RESTARTS`` such runs is returned (ties
    keep the earliest), so the result is balanced, 1-swap locally optimal,
    and deterministic given the seed. A stack of one :func:`repulsive_stack`.
    """
    return repulsive_stack([features], num_pilots, [seed])[0]


@functools.lru_cache(maxsize=None)
def _partition_masks(num_ues, num_groups, low, extra):
    """Every partition of the UEs into at most ``num_groups`` groups, one bitmask per group.

    Rows are restricted-growth label strings: UE 0 opens group 0, and each
    later UE joins an open group or opens the next one, so each partition
    appears once and group j's mask is column j (0 while unopened). A group
    of ``low`` members takes one more only while fewer than ``extra`` groups
    hold ``low + 1``; no group grows past that. With ``num_groups`` groups of
    at least one member each, the rows are then exactly the partitions with
    ``extra`` groups of ``low + 1`` and the rest of ``low``, and no partial
    row is a dead end. Masks are int16 up to K = 15 and int32 above: the
    guards cap K at 20 for exhaustive (``num_pilots ** K`` within
    ``EXHAUSTIVE_BUDGET`` with at least 2 pilots) and at 12 for
    optimal-repulsive. Group sizes are read from a 2^K popcount table, so
    the masks are the only rows kept, and each UE's rows are written once
    into an array of their exact count: the build's transient stays near 3x
    the finished table. Filled on first use per key and read-only.
    """
    dtype = np.int16 if num_ues <= 15 else np.int32
    members = np.zeros(1 << num_ues, dtype=np.int8)     # members[mask]: set bits of mask
    for ue in range(num_ues):
        members[1 << ue:2 << ue] = members[:1 << ue] + 1
    masks = np.zeros((1, num_groups), dtype=dtype)
    masks[0, 0] = 1
    for ue in range(1, num_ues):
        sizes = members[masks]
        opened = np.count_nonzero(sizes, axis=1)
        may_top = np.count_nonzero(sizes > low, axis=1) < extra
        takes = [((j < opened) & ((sizes[:, j] < low) | ((sizes[:, j] == low) & may_top)))
                 | (j == opened) for j in range(num_groups)]
        del sizes
        grown = np.empty((sum(map(np.count_nonzero, takes)), num_groups), dtype=dtype)
        stop = 0
        for j, take in enumerate(takes):
            rows = np.flatnonzero(take)
            grown[stop:stop + rows.size] = masks[rows]
            grown[stop:stop + rows.size, j] |= 1 << ue
            stop += rows.size
        masks = grown
    masks.flags.writeable = False
    return masks


def _mask_labels(masks, num_ues):
    """Label vector of each row of group bitmasks: UE u takes the column whose mask holds bit u."""
    bits = (masks[..., None] >> np.arange(num_ues, dtype=masks.dtype)) & 1
    return bits.argmax(axis=-2)


@functools.cache
def _screen_buffers():
    """Reused work arrays of the partition screen: one block's sums and one column's values."""
    return np.empty(_TABLE_CHUNK), np.empty(_TABLE_CHUNK)


def _near_maximal(masks, group_value):
    """Rows of ``masks`` whose summed group values lie within ``_SCREEN_MARGIN`` of the largest.

    Every group value is >= 0, so each row's screened sum is within a few
    ulps of its sum in any other order; every row whose exact score is
    maximal is kept. Rows are screened in blocks of ``_TABLE_CHUNK`` into
    reused buffers. A block keeps its rows within the margin of the largest
    sum seen so far, which the final maximum can only raise, so the last
    filter returns the rows, in order, that one pass over all sums would.
    """
    totals, values = _screen_buffers()
    kept, sums = [], []
    largest = -np.inf
    for start in range(0, masks.shape[0], _TABLE_CHUNK):
        block = masks[start:start + _TABLE_CHUNK]
        screen, value = totals[:block.shape[0]], values[:block.shape[0]]
        # mode="clip" (the indices are in range) lets take write into out unbuffered.
        np.take(group_value, block[:, 0], out=screen, mode="clip")
        for column in range(1, masks.shape[1]):
            screen += np.take(group_value, block[:, column], out=value, mode="clip")
        largest = max(largest, screen.max())
        near = np.flatnonzero(screen >= largest * (1.0 - _SCREEN_MARGIN))
        kept.append(block[near])
        sums.append(screen[near])
    sums = np.concatenate(sums)
    return np.concatenate(kept)[sums >= largest * (1.0 - _SCREEN_MARGIN)]


def _lexicographic_first(labels, num_pilots):
    """The lexicographically smallest row of ``labels`` (UE 0 most significant)."""
    codes = labels @ num_pilots ** np.arange(labels.shape[1] - 1, -1, -1, dtype=np.int64)
    return labels[np.argmin(codes)]


@functools.lru_cache(maxsize=None)
def _subset_members(num_ues):
    """Membership of UE subsets ``0 .. rows - 1`` as float rows and their ``> 0`` mask.

    ``rows`` is ``min(2^K, _TABLE_CHUNK)``: the first block of the
    group-rate table, which is every subset up to K = 13. Read-only.
    """
    codes = np.arange(min(1 << num_ues, _TABLE_CHUNK))
    member = ((codes[:, None] >> np.arange(num_ues)) & 1).astype(float)
    inside = member > 0
    member.flags.writeable = inside.flags.writeable = False
    return member, inside


@functools.lru_cache(maxsize=1)
def _dissimilarity_buffer(num_ues):
    """Reused (2^K, K) work array of :func:`_subset_dissimilarity`."""
    return np.empty((1 << num_ues, num_ues))


def _subset_dissimilarity(scores):
    """Within-group dissimilarity of every UE subset, indexed by member bitmask.

    Only for K <= 13, where the cached membership rows are every subset.
    """
    member, _ = _subset_members(scores.shape[0])
    product = np.matmul(member, scores, out=_dissimilarity_buffer(scores.shape[0]))
    product *= member
    value = product.sum(axis=1)
    value /= 2.0
    return value


def optimal_repulsive(features, num_pilots) -> PilotAssignment:
    """Exact maximally diverse balanced partition.

    Guarded to ``OPTIMAL_REPULSIVE_MAX_UES`` UEs; ties are broken toward the
    lexicographically smallest canonical label vector. Every balanced
    partition is screened by the sum of its groups' dissimilarities, and
    only the near-maximal ones are scored exactly, by :func:`cluster_objective`.
    """
    scores = pairwise_distance(features)
    k = scores.shape[0]
    if k > OPTIMAL_REPULSIVE_MAX_UES:
        raise BudgetExceededError(
            f"optimal-repulsive enumeration supports at most {OPTIMAL_REPULSIVE_MAX_UES} UEs, got {k}",
            guard="optimal-repulsive enumeration")
    _check_fillable(k, num_pilots)
    candidates = _near_maximal(_partition_masks(k, num_pilots, k // num_pilots, k % num_pilots),
                               _subset_dissimilarity(scores))
    labels = _mask_labels(candidates, k)
    objective = cluster_objective(scores, labels)
    return PilotAssignment(_lexicographic_first(labels[objective == objective.max()], num_pilots))


@functools.lru_cache(maxsize=1)
def _rate_workspace(num_aps, num_ues):
    """Reused work arrays of :func:`_group_rate_table`, one chunk of subsets each.

    Past K = 13 the membership rows are writable copies whose high-bit
    columns each chunk sets; up to K = 13 they are the cached rows.
    """
    member, inside = _subset_members(num_ues)
    if num_ues > _CHUNK_BITS:
        member, inside = member.copy(), inside.copy()
    rows = member.shape[0]
    return SimpleNamespace(
        member=member, inside=inside,
        outer=np.empty((num_ues * num_ues, num_aps)),      # [k * K + l, m]: beta_mk * beta_ml
        pair=np.empty((num_ues * num_ues, rows)),           # [k * K + l, c]
        damp=np.empty((rows, num_aps)),
        totals=np.empty((rows, num_ues)),
        cross=np.empty((rows, num_ues)),
        denom=np.empty((rows, num_ues)),
        copilot=np.empty((num_ues, rows)),                  # [k, c]
        term=np.empty((num_ues, rows)),
        positive=np.empty((rows, num_ues), dtype=bool))


def _group_rate_table(beta, num_pilots, rho_p, rho_u):
    """Sum of per-UE rates inside one co-pilot group, for every UE subset.

    At full power a UE's SINR depends only on the set of UEs sharing its
    pilot, so the sum rate of any assignment is the sum of this table over
    its groups. Index: bitmask of group members. Cost O(2^K * M * K^2).
    Out-of-range gains leave entries that are not finite, without a warning.

    Subsets come in chunks of ``_TABLE_CHUNK``, each computed in place in
    reused work arrays, so a warm call allocates little beyond its result.
    Every entry equals that of ``tests/reference.py``'s ``group_rate_table``
    bit for bit: the steps are the same operations, in the same order, on
    operands of the same layout. The reference's optimized einsum forms the
    pair product as one matrix product laid out ``[k, l, c]`` and adds each
    UE's co-pilot terms in ascending l; here that product is called
    directly and the terms are added one l at a time.
    """
    m, k = beta.shape
    train = num_pilots * rho_p
    table = np.empty(1 << k)
    work = _rate_workspace(m, k)
    rows = work.member.shape[0]
    member, inside, damp, totals, cross, denom = (
        work.member, work.inside, work.damp, work.totals, work.cross, work.denom)
    pair = work.pair.reshape(k, k, rows)
    copilot, term = work.copilot, work.term
    with np.errstate(all="ignore"):
        beta_sq = beta ** 2
        total_gain = beta.sum(axis=1)                 # per-AP gain over all UEs
        weighted = beta_sq * total_gain[:, None]
        np.multiply(beta.T[:, None, :], beta.T[None, :, :], out=work.outer.reshape(k, k, m))
        for start in range(0, 1 << k, rows):
            if k > _CHUNK_BITS:                       # high bits are constant within a chunk
                member[:, _CHUNK_BITS:] = (start >> np.arange(_CHUNK_BITS, k)) & 1
                np.greater(member[:, _CHUNK_BITS:], 0, out=inside[:, _CHUNK_BITS:])
            np.matmul(member, beta.T, out=damp)                         # subset load per AP
            damp *= train
            damp += 1.0
            np.divide(1.0, damp, out=damp)
            np.matmul(damp, beta_sq, out=totals)
            totals *= train                                             # sum_m gamma
            np.matmul(damp, weighted, out=cross)
            cross *= train
            np.matmul(work.outer, damp.T, out=work.pair)
            work.pair *= train
            np.square(work.pair, out=work.pair)
            np.multiply(pair[:, 0], member[:, 0], out=copilot)
            for other in range(1, k):
                copilot += np.multiply(pair[:, other], member[:, other], out=term)
            copilot -= pair.diagonal().T
            # copilot/denominator are only meaningful for UEs inside the subset.
            np.multiply(copilot.T, rho_u, out=denom)
            cross *= rho_u
            denom += cross
            denom += totals
            np.square(totals, out=totals)
            totals *= rho_u
            # A denominator that is not > 0 divides by 1.0, which leaves the numerator as it is.
            np.divide(totals, denom, out=totals, where=np.greater(denom, 0, out=work.positive))
            gain = cross                              # 1 + SINR inside the subset, 1 outside
            gain.fill(1.0)
            np.add(totals, 1.0, out=gain, where=inside)
            np.log2(gain, out=gain)
            np.sum(gain, axis=1, out=table[start:start + rows])
    return table


def exhaustive_sum_rate(realization: NetworkRealization, cfg: SimConfig) -> PilotAssignment:
    """Exact full-power sum-rate maximizer over every pilot assignment.

    The maximum over all ``num_pilots ** K`` assignments (no balance
    constraint), each scored as 0.0 plus its group rates in pilot order;
    ties break toward the lexicographically smallest assignment. Guarded by
    ``EXHAUSTIVE_BUDGET`` total assignments. An empty pilot adds exactly
    0.0, so an assignment's score is the sum of its groups in the order of
    their pilots: each partition into at most ``num_pilots`` groups is
    screened by its summed group rates, and each near-maximal one is scored
    in every order of its groups, the i-th group on pilot i.
    """
    k = realization.num_ues
    num_pilots = cfg.num_pilots
    total = num_pilots ** k
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"exhaustive search over {total} assignments exceeds the budget of {EXHAUSTIVE_BUDGET}",
            guard="exhaustive enumeration")
    if num_pilots == 1:
        return PilotAssignment(np.zeros(k, dtype=int))
    table = _group_rate_table(realization.beta, num_pilots, pilot_snr(cfg), uplink_snr(cfg))
    if not np.isfinite(table).all():
        raise ConfigError(
            f"exhaustive: the full-power group rates under- or overflow "
            f"(uplink_tx_power = {cfg.uplink_tx_power:g} W, pilot_tx_power = "
            f"{cfg.pilot_tx_power:g} W, shadowing_sigma = {cfg.shadowing_sigma:g} dB)")
    candidates = _near_maximal(_partition_masks(k, min(num_pilots, k), k, 0), table)
    used = np.count_nonzero(candidates, axis=1)
    scored = []                     # (scores, member masks in pilot order) per group count
    for groups in np.unique(used):
        orders = list(itertools.permutations(range(groups)))
        by_pilot = candidates[used == groups, :groups][:, orders].reshape(-1, groups)
        score = np.zeros(by_pilot.shape[0])
        for pilot in range(groups):
            score += table[by_pilot[:, pilot]]
        scored.append((score, by_pilot))
    best = max(score.max() for score, _ in scored)
    tied = np.concatenate([_mask_labels(by_pilot[score == best], k) for score, by_pilot in scored])
    return PilotAssignment(_lexicographic_first(tied, num_pilots))


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
