"""Dataclass configuration for simulations and experiment campaigns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import ConfigError

# Registered strategy / power-policy names; these exact strings appear in the
# CLI and in CSV output.
STRATEGY_NAMES = ("random", "greedy", "repulsive", "optimal-repulsive", "exhaustive", "oracle")
POLICY_NAMES = ("full", "maxmin")
SWEEP_VARIABLES = ("num_aps", "num_ues", "num_pilots")


@dataclass(frozen=True)
class SimConfig:
    """Physical and Monte Carlo parameters for one simulation campaign.

    Powers are in Watts, bandwidth in Hz, the service area is a square of
    ``area_side`` meters wrapped toroidally. Noise power is bandwidth * k_B *
    T0 * ``noise_figure``: k_B and T0 are fixed, so the linear factor
    ``noise_figure`` is the one setting that scales it.
    """

    boltzmann: ClassVar[float] = 1.381e-23  # J/K
    noise_temp: ClassVar[float] = 290.0     # K

    num_aps: int
    num_ues: int
    num_pilots: int
    area_side: float = 1000.0
    coherence_len: int = 200
    bandwidth: float = 20e6
    pilot_tx_power: float = 0.1
    uplink_tx_power: float = 0.1
    noise_figure: float = 9.0
    shadowing_sigma: float = 4.0
    realizations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.num_aps < 1:
            raise ConfigError("num_aps must be >= 1")
        if self.num_ues < 1:
            raise ConfigError("num_ues must be >= 1")
        if not 1 <= self.num_pilots <= self.coherence_len:
            raise ConfigError("num_pilots must satisfy 1 <= num_pilots <= coherence_len")
        positive = ("area_side", "bandwidth", "pilot_tx_power", "uplink_tx_power", "noise_figure")
        for name in positive + ("shadowing_sigma",):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.shadowing_sigma < 0:
            raise ConfigError("shadowing_sigma must be >= 0")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        from .topology import noise_power, pilot_snr, uplink_snr  # topology imports this module
        noise = "bandwidth * k_B * T0 * noise_figure"
        derived = (("noise power", noise, noise_power),
                   ("pilot SNR", f"pilot_tx_power / ({noise})", pilot_snr),
                   ("uplink SNR", f"uplink_tx_power / ({noise})", uplink_snr))
        for label, formula, func in derived:  # noise power first: the SNRs divide by it
            value = func(self)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{label} = {formula} must be finite and strictly positive, "
                                  f"got {value:g}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A simulation config plus the strategies, power policy, and output wiring."""

    sim: SimConfig
    strategies: tuple[str, ...] = ("random", "greedy", "repulsive", "oracle")
    power_policy: str = "maxmin"
    sweep_var: str | None = None
    sweep_values: tuple[int, ...] = field(default_factory=tuple)
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        for name in self.strategies:
            if name not in STRATEGY_NAMES:
                raise ConfigError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}")
            if self.strategies.count(name) > 1:
                raise ConfigError(f"strategy {name!r} is listed more than once")
        if self.power_policy not in POLICY_NAMES:
            raise ConfigError(f"unknown power policy {self.power_policy!r}; known: {', '.join(POLICY_NAMES)}")
        if self.sweep_var is not None and self.sweep_var not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable must be one of {', '.join(SWEEP_VARIABLES)}")
        for value in self.sweep_values:
            if int(value) < 1:
                raise ConfigError("sweep values must be positive")
            if self.sweep_values.count(value) > 1:
                raise ConfigError(f"sweep value {value} is listed more than once")
