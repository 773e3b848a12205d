"""Closed-form channel-estimation statistics for a pilot assignment.

Pilot sequences are an orthonormal book and are never materialized: two UEs
either share a pilot (correlation 1) or they do not (correlation 0). The
quality matrix ``gamma`` is the mean-square value of the MMSE channel
estimate of each AP-UE link, which is all the rate expressions need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PilotAssignment:
    """Per-UE pilot indices, plus an idealized contamination-free mode.

    With ``oracle`` set, every cross-correlation between distinct UEs is
    treated as zero downstream (the index vector is then ignored).
    """

    p: np.ndarray
    oracle: bool = False

    def __post_init__(self):
        p = np.asarray(self.p, dtype=int)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("pilot index vector must be 1-D and non-empty")
        if np.any(p < 0):
            raise ValueError("pilot indices must be non-negative")
        object.__setattr__(self, "p", p)

    @property
    def num_ues(self):
        return self.p.size


@dataclass(frozen=True)
class EstimationQuality:
    """Mean-square estimate values ``gamma`` and MMSE scaling factors ``c``, both (M, K)."""

    gamma: np.ndarray
    c: np.ndarray


def correlation_matrix(assignment: PilotAssignment):
    """K-by-K matrix of pairwise pilot correlations (unit diagonal)."""
    if assignment.oracle:
        return np.eye(assignment.num_ues)
    p = assignment.p
    return (p[:, None] == p[None, :]).astype(float)


def estimation_quality(beta, assignment: PilotAssignment, num_pilots, pilot_snr) -> EstimationQuality:
    """MMSE estimation statistics for every AP-UE link under an assignment.

    Parameters
    ----------
    beta : (M, K) array
        Large-scale power gains, strictly positive.
    assignment : PilotAssignment
        Pilot indices (entries must be < ``num_pilots`` unless oracle).
    num_pilots : int
        Pilot sequence length / book size.
    pilot_snr : float
        Pilot transmit power normalized by noise power.

    Returns
    -------
    EstimationQuality
        ``c`` is the per-link MMSE scaling; ``gamma = sqrt(tau_p * rho_p) * beta * c``
        is the mean-square estimate value, satisfying 0 < gamma <= beta.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        raise ValueError("beta must be an (M, K) matrix")
    m, k = beta.shape
    if assignment.num_ues != k:
        raise ValueError(f"assignment covers {assignment.num_ues} UEs, beta has {k}")
    if pilot_snr <= 0:
        raise ValueError("pilot_snr must be strictly positive")
    train = num_pilots * pilot_snr
    if assignment.oracle:
        # No co-pilot interference: each link is estimated in isolation.
        load = beta
    else:
        p = assignment.p
        if np.any(p >= num_pilots):
            raise ValueError("pilot index exceeds the pilot book size")
        onehot = np.zeros((k, num_pilots))
        onehot[np.arange(k), p] = 1.0
        per_pilot = beta @ onehot          # (M, num_pilots) co-pilot gain totals
        load = per_pilot[:, p]             # (M, K), includes the UE's own beta
    c = np.sqrt(train) * beta / (train * load + 1.0)
    gamma = np.sqrt(train) * beta * c
    return EstimationQuality(gamma=gamma, c=c)
