"""Network geometry, large-scale fading, and noise power.

One network realization places APs and UEs uniformly on a wrapped square and
draws a full AP-by-UE matrix of large-scale power gains (urban-microcell
pathloss at a fixed antenna height gap, plus i.i.d. log-normal shadowing).
Everything here is a pure function of the config and an explicit seed, so
paired comparisons across strategies see bit-identical topologies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .config import SimConfig
from .errors import ConfigError

# Urban-microcell NLOS pathloss at 2 GHz: PL(d)[dB] = 30.5 + 36.7*log10(d/1m).
PATHLOSS_INTERCEPT_DB = 30.5
PATHLOSS_SLOPE_DB = 36.7
# Fixed AP/UE mounting height difference (10 m mast vs 1.5 m handset); folding
# it into a 3-D distance also keeps distances away from zero.
AP_UE_HEIGHT_GAP_M = 8.5

_SEED_MASK = (1 << 64) - 1
_WRAP_SHIFTS = np.array([-1.0, 0.0, 1.0])  # translations per axis, in units of the side


@dataclass(frozen=True)
class NetworkRealization:
    """AP/UE placement and the large-scale gain matrix for one Monte Carlo drop."""

    ap_positions: np.ndarray  # (M, 2) meters
    ue_positions: np.ndarray  # (K, 2) meters
    beta: np.ndarray          # (M, K) linear power gains

    def __post_init__(self):
        m = self.ap_positions.shape[0]
        k = self.ue_positions.shape[0]
        if self.beta.shape != (m, k):
            raise ValueError(f"beta shape {self.beta.shape} does not match {m} APs x {k} UEs")
        if not np.all(np.isfinite(self.beta)) or np.any(self.beta <= 0):
            raise ValueError("beta entries must be strictly positive and finite")

    @property
    def num_ues(self):
        return self.ue_positions.shape[0]


def wrap_distance(a, b, side):
    """Toroidal distance on a square of the given side.

    Equals the minimum Euclidean distance over the 3x3 grid of translated
    copies of ``b``. Rounded addition and ``sqrt`` are monotone, so taking
    the minimum squared offset per axis over the three shifts first gives
    the same value bit for bit. Each axis is handled on its own broadcast
    array, with no small trailing axes to reduce. Broadcasts over leading
    axes, so pairwise matrices come from
    ``wrap_distance(aps[:, None, :], ues[None, :, :], side)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    squared = []
    for axis in (0, 1):
        # np.square, not ** 2: on 0-d inputs numpy's scalar power rounds differently.
        lo, mid, hi = (np.square(a[..., axis] - (b[..., axis] + shift)) for shift in side * _WRAP_SHIFTS)
        squared.append(np.minimum(np.minimum(lo, mid), hi))
    return np.sqrt(squared[0] + squared[1])


def large_scale_coefficient(d, shadow_db=0.0):
    """Linear power gain at 3-D distance ``d`` meters with a shadowing term in dB."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be strictly positive")
    pathloss_db = PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(d)
    return 10.0 ** ((np.asarray(shadow_db, dtype=float) - pathloss_db) / 10.0)


def noise_power(cfg: SimConfig):
    """Receiver noise power in Watts: bandwidth * k_B * T_0 * noise figure."""
    return cfg.bandwidth * cfg.boltzmann * cfg.noise_temp * cfg.noise_figure


def pilot_snr(cfg: SimConfig):
    """Pilot transmit power normalized by the noise power."""
    return cfg.pilot_tx_power / noise_power(cfg)


def uplink_snr(cfg: SimConfig):
    """Uplink data transmit power normalized by the noise power."""
    return cfg.uplink_tx_power / noise_power(cfg)


def realization_seed(seed, realization_index):
    """Independent, reproducible RNG substream for one realization index."""
    return SeedSequence(int(seed) & _SEED_MASK, spawn_key=(int(realization_index),))


def generate_realization(cfg: SimConfig, realization_index) -> NetworkRealization:
    """Draw one network realization, deterministic in (cfg, seed, index).

    Positions are i.i.d. uniform on the square; gains combine the wrapped
    2-D distance, the fixed height gap, and i.i.d. log-normal shadowing of
    ``cfg.shadowing_sigma`` dB per link. The draw order (APs, UEs, shadowing)
    is part of the reproducibility contract. Raises ``ConfigError`` when a
    gain under- or overflows, which an extreme area or shadowing spread causes.
    """
    rng = default_rng(realization_seed(cfg.seed, realization_index))
    ap = rng.uniform(0.0, cfg.area_side, size=(cfg.num_aps, 2))
    ue = rng.uniform(0.0, cfg.area_side, size=(cfg.num_ues, 2))
    shadow_db = rng.normal(0.0, cfg.shadowing_sigma, size=(cfg.num_aps, cfg.num_ues))
    with np.errstate(over="ignore"):  # an overflow shows up in beta, which NetworkRealization rejects
        d2 = wrap_distance(ap[:, None, :], ue[None, :, :], cfg.area_side)
        d3 = np.hypot(d2, AP_UE_HEIGHT_GAP_M)
        beta = large_scale_coefficient(d3, shadow_db)
    try:
        return NetworkRealization(ap_positions=ap, ue_positions=ue, beta=beta)
    except ValueError as exc:  # the shapes match by construction, so a gain is out of range
        raise ConfigError(f"large-scale gains under- or overflow the float range at area_side = "
                          f"{cfg.area_side:g} m, shadowing_sigma = {cfg.shadowing_sigma:g} dB") from exc
