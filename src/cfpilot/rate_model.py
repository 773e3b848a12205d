"""Per-user uplink SINR and throughput under maximum-ratio combining.

Both are computed in closed form from the estimation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chanest import PilotAssignment, correlation_matrix
from .config import SimConfig
from .topology import uplink_snr as _uplink_snr


@dataclass(frozen=True)
class SinrTerms:
    """Coefficient groupings of the closed-form SINR, all non-negative.

    ``signal[k]`` multiplies the own power coefficient in the numerator;
    ``copilot[k, k']`` is the coherent co-pilot interference coefficient
    (zero diagonal, zero for orthogonal pairs); ``uncorrelated[k, k']`` the
    estimation-weighted cross gain of every interferer; ``noise[k]`` the
    combined noise coefficient.
    """

    signal: np.ndarray        # (K,)
    copilot: np.ndarray       # (K, K)
    uncorrelated: np.ndarray  # (K, K)
    noise: np.ndarray         # (K,)


@dataclass(frozen=True)
class RateReport:
    """Per-user SINR (linear) and throughput (bits/s)."""

    sinr: np.ndarray
    throughput: np.ndarray


def sinr_terms(beta, gamma, assignment: PilotAssignment) -> SinrTerms:
    """Aggregate the (M, K) statistics into the K-dimensional SINR coefficients."""
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if beta.shape != gamma.shape:
        raise ValueError(f"beta {beta.shape} and gamma {gamma.shape} must have equal shapes")
    totals = gamma.sum(axis=0)                      # sum_m gamma_mk
    coherent = (gamma / beta).T @ beta              # [k, k'] = sum_m gamma_mk * beta_mk' / beta_mk
    corr = correlation_matrix(assignment)
    copilot = coherent ** 2 * corr
    np.fill_diagonal(copilot, 0.0)
    uncorrelated = gamma.T @ beta                   # [k, k'] = sum_m gamma_mk * beta_mk'
    return SinrTerms(signal=totals ** 2, copilot=copilot,
                     uncorrelated=uncorrelated, noise=totals)


def terms_sinr(terms: SinrTerms, eta, uplink_snr):
    """Closed-form per-user uplink SINR (linear) under MR combining, from the SINR terms.

    ``eta`` is the per-UE power control vector in [0, 1]; ``uplink_snr`` the
    data transmit power normalized by noise power.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != terms.noise.shape:
        raise ValueError("eta must have one entry per UE")
    if np.any(eta < 0) or np.any(eta > 1):
        raise ValueError("power coefficients must lie in [0, 1]")
    num = uplink_snr * eta * terms.signal
    den = uplink_snr * (terms.copilot @ eta) + uplink_snr * (terms.uncorrelated @ eta) + terms.noise
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def uplink_sinr(beta, gamma, assignment: PilotAssignment, eta, uplink_snr):
    """Closed-form per-user uplink SINR (linear); see :func:`terms_sinr`."""
    return terms_sinr(sinr_terms(beta, gamma, assignment), eta, uplink_snr)


def throughput(sinr, cfg: SimConfig):
    """Per-user throughput in bits/s, charging pilot overhead and the UL/DL split."""
    prelog = (1.0 - cfg.num_pilots / cfg.coherence_len) / 2.0
    return cfg.bandwidth * prelog * np.log2(1.0 + np.asarray(sinr, dtype=float))


def rate_report(beta, gamma, assignment: PilotAssignment, eta, cfg: SimConfig) -> RateReport:
    """Bundle SINR and throughput for one evaluated assignment."""
    sinr = uplink_sinr(beta, gamma, assignment, eta, _uplink_snr(cfg))
    return RateReport(sinr=sinr, throughput=throughput(sinr, cfg))

