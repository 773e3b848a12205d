"""Independent reference computations that several test modules compare against."""

import numpy as np

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
