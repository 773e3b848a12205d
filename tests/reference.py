"""Independent reference computations that several test modules compare against."""

import numpy as np
from numpy.random import default_rng

from cfpilot.assignment import RESTARTS, SWAP_TOLERANCE, cluster_objective, pairwise_distance
from cfpilot.rate_model import uplink_sinr


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
    sums = np.empty((k, num_pilots))
    for cluster in range(num_pilots):
        sums[:, cluster] = cluster_sums(scores, labels, cluster)
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
        score = cluster_objective(scores, labels)
        if score > best_score:
            best_score = score
            best_labels = labels
    return best_labels
