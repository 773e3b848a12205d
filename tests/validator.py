"""Symbol-level Monte Carlo oracle for the closed-form uplink SINR.

Draws small-scale fading and receiver noise, measures the power of each signal
component at the MR combiner output, and so cross-checks
``cfpilot.rate_model.uplink_sinr`` independently of its closed form.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.config import SimConfig
from cfpilot.topology import pilot_snr, uplink_snr

LOW_SAMPLE_THRESHOLD = 1000
_VALIDATOR_CHUNK = 20000


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
    rho_p = pilot_snr(cfg)
    rho_u = uplink_snr(cfg)
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
