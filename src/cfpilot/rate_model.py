"""Per-user uplink SINR, rate, and throughput under maximum-ratio combining.

The production path is the closed form built from the estimation statistics;
a symbol-level Monte Carlo validator cross-checks it by actually drawing
small-scale fading and noise and measuring the power of each signal
component at the combiner output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .chanest import PilotAssignment, correlation_matrix, estimation_quality
from .config import SimConfig
from .topology import pilot_snr as _pilot_snr
from .topology import uplink_snr as _uplink_snr

LOW_SAMPLE_THRESHOLD = 1000
_VALIDATOR_CHUNK = 20000


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
    """Per-user SINR (linear), rate (bits/s/Hz), and throughput (bits/s)."""

    sinr: np.ndarray
    rate: np.ndarray
    throughput: np.ndarray


@dataclass(frozen=True)
class EmpiricalSinr:
    """Measured per-user SINR and per-component receive powers from the validator."""

    sinr: np.ndarray
    desired: np.ndarray
    beam_uncertainty: np.ndarray
    copilot_total: np.ndarray
    copilot_coherent: np.ndarray
    noise: np.ndarray
    num_samples: int
    low_sample_warning: bool


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


def sum_rate(beta, gamma, assignment: PilotAssignment, eta, uplink_snr):
    """Network sum rate in bits/s/Hz for one assignment and power vector."""
    sinr = uplink_sinr(beta, gamma, assignment, eta, uplink_snr)
    return float(np.log2(1.0 + sinr).sum())


def terms_report(terms: SinrTerms, eta, cfg: SimConfig) -> RateReport:
    """Bundle SINR, spectral rate, and throughput from the SINR terms of one assignment."""
    sinr = terms_sinr(terms, eta, _uplink_snr(cfg))
    rate = np.log2(1.0 + sinr)
    return RateReport(sinr=sinr, rate=rate, throughput=throughput(sinr, cfg))


def rate_report(beta, gamma, assignment: PilotAssignment, eta, cfg: SimConfig) -> RateReport:
    """Bundle SINR, spectral rate, and throughput for one evaluated assignment."""
    return terms_report(sinr_terms(beta, gamma, assignment), eta, cfg)


def validate_sinr_empirically(beta, assignment: PilotAssignment, cfg: SimConfig,
                              num_samples, seed) -> EmpiricalSinr:
    """Symbol-level Monte Carlo check of the closed-form SINR at full power.

    Draws i.i.d. unit-variance complex-normal small-scale fading and receiver
    noise, runs pilot training and MMSE estimation, and measures the power of
    the desired, beamforming-uncertainty, co-pilot, and noise components of
    the MR-combined uplink signal. The data symbols and data-phase noise are
    integrated out analytically, so only channel and pilot-noise draws are
    simulated. Cost is O(num_samples * M * K); keep M * K small.

    Returns per-component powers and the empirical SINR. ``copilot_coherent``
    isolates the coherently-combining part of the co-pilot interference,
    which vanishes (to Monte Carlo noise) for orthogonal or oracle pilots.
    """
    beta = np.asarray(beta, dtype=float)
    m, k = beta.shape
    num_samples = int(num_samples)
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rho_p = _pilot_snr(cfg)
    rho_u = _uplink_snr(cfg)
    tau_p = cfg.num_pilots
    train = tau_p * rho_p
    quality = estimation_quality(beta, assignment, tau_p, rho_p)
    c = quality.c
    root_beta = np.sqrt(beta)

    if not assignment.oracle:
        onehot = np.zeros((k, tau_p))
        onehot[np.arange(k), assignment.p] = 1.0

    rng = default_rng(seed)
    sum_a = np.zeros(k, dtype=complex)
    sum_a2 = np.zeros(k)
    sum_b = np.zeros((k, k), dtype=complex)
    sum_b2 = np.zeros((k, k))
    sum_g2 = np.zeros(k)
    done = 0
    while done < num_samples:
        n = min(_VALIDATOR_CHUNK, num_samples - done)
        h = (rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))) * np.sqrt(0.5)
        g = root_beta * h
        if assignment.oracle:
            # Each UE trains on its own clean pilot dimension.
            noise = (rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))) * np.sqrt(0.5)
            projected = np.sqrt(train) * g + noise
        else:
            noise = (rng.standard_normal((n, m, tau_p)) + 1j * rng.standard_normal((n, m, tau_p))) * np.sqrt(0.5)
            per_pilot = np.sqrt(train) * (g @ onehot) + noise   # received pilot per book entry
            projected = per_pilot[:, :, assignment.p]           # co-pilot UEs share the projection
        ghat = c * projected
        a = np.einsum("smk,smk->sk", g, ghat.conj())
        b = np.einsum("smk,sml->skl", ghat.conj(), g)
        sum_a += a.sum(axis=0)
        sum_a2 += (np.abs(a) ** 2).sum(axis=0)
        sum_b += b.sum(axis=0)
        sum_b2 += (np.abs(b) ** 2).sum(axis=0)
        sum_g2 += (np.abs(ghat) ** 2).sum(axis=(0, 1))
        done += n

    mean_a = sum_a / num_samples
    mean_a2 = sum_a2 / num_samples
    mean_b = sum_b / num_samples
    mean_b2 = sum_b2 / num_samples
    off_diag = 1.0 - np.eye(k)
    desired = rho_u * np.abs(mean_a) ** 2
    beam_uncertainty = rho_u * np.maximum(mean_a2 - np.abs(mean_a) ** 2, 0.0)
    copilot_total = rho_u * (mean_b2 * off_diag).sum(axis=1)
    copilot_coherent = rho_u * ((np.abs(mean_b) ** 2) * off_diag).sum(axis=1)
    noise_power = sum_g2 / num_samples
    sinr = desired / (beam_uncertainty + copilot_total + noise_power)
    return EmpiricalSinr(
        sinr=sinr,
        desired=desired,
        beam_uncertainty=beam_uncertainty,
        copilot_total=copilot_total,
        copilot_coherent=copilot_coherent,
        noise=noise_power,
        num_samples=num_samples,
        low_sample_warning=num_samples < LOW_SAMPLE_THRESHOLD,
    )
