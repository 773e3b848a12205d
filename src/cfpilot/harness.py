"""Experiment orchestration: paired Monte Carlo runs, statistics, CSV export.

Every strategy in a run is evaluated on the identical network realization
(paired design), and the emitted records are canonically ordered by
(realization, strategy, ue), so a fixed seed reproduces the output file byte
for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence

from .assignment import assign
from .chanest import estimation_quality
from .config import STRATEGY_NAMES, ExperimentConfig, SimConfig
from .errors import BudgetExceededError, ConfigError
from .power_control import full_power, max_min_powers, power_problem
from .rate_model import sinr_terms, terms_report
from .topology import generate_realization, pilot_snr, uplink_snr

CSV_HEADER = "realization,strategy,ue,sinr,throughput_bps"
SWEEP_HEADER = "variable,value,strategy,n,percentile,throughput_bps"
PERCENTILE_NOTE = "# percentile method: nearest-rank (the ceil(q*N)-th smallest sample)"

_SEED_MASK = (1 << 64) - 1
# Realizations per lock-step chunk: about 256 KB per stacked (K, K) array of the chunk.
_CHUNK_BYTES = 1 << 18
_STRATEGY_CODE = {name: i for i, name in enumerate(STRATEGY_NAMES)}


@dataclass(frozen=True)
class ThroughputRecord:
    """One evaluated UE: linear SINR and throughput in bits/s."""

    realization: int
    strategy: str
    ue: int
    sinr: float
    throughput_bps: float


def strategy_seed(seed, realization_index, strategy):
    """Deterministic RNG substream for one (realization, strategy) pair."""
    return SeedSequence(int(seed) & _SEED_MASK,
                        spawn_key=(int(realization_index), _STRATEGY_CODE[strategy]))


def run_experiment(cfg: ExperimentConfig) -> list[ThroughputRecord]:
    """Run the paired Monte Carlo campaign described by ``cfg``.

    For each realization index one topology is drawn and every strategy is
    evaluated on it: assignment, estimation statistics, power policy, SINR,
    throughput. Realizations are taken in chunks: per realization the
    assignments and SINR terms are built once, in order; then the chunk's
    max-min problems are bisected in lock-step, and SINR and throughput are
    computed from the same terms. Each output and error is that of
    evaluating every (realization, strategy) alone, in loop order.

    Budget guards of the exact strategies propagate as
    ``BudgetExceededError``. ``ConfigError`` is raised for a UE whose summed
    estimate quality squared under- or overflows, which leaves its SINR
    undefined; for a max-min problem whose coupling or noise floor is not
    finite and positive; and for a positive SINR whose throughput rounds to 0.
    """
    sim = cfg.sim
    rho_p = pilot_snr(sim)
    rho_u = uplink_snr(sim)
    per_chunk = max(1, _CHUNK_BYTES // (8 * sim.num_ues ** 2 * len(cfg.strategies)))
    records = []
    for start in range(0, sim.realizations, per_chunk):
        drops = []
        try:
            for index in range(start, min(start + per_chunk, sim.realizations)):
                realization = generate_realization(sim, index)
                for strategy in cfg.strategies:
                    drops.append(_build_drop(cfg, realization, index, strategy, rho_p, rho_u))
        except (ConfigError, BudgetExceededError):
            _evaluate(cfg, drops)  # a failure of an earlier drop comes first in loop order
            raise
        records.extend(_evaluate(cfg, drops))
    records.sort(key=lambda r: (r.realization, r.strategy, r.ue))
    return records


def _build_drop(cfg, realization, index, strategy, rho_p, rho_u):
    """One strategy on a realization, reduced to (index, strategy, SINR terms, power problem)."""
    sim = cfg.sim
    pilot = assign(strategy, realization, sim, seed=strategy_seed(sim.seed, index, strategy))
    quality = estimation_quality(realization.beta, pilot, sim.num_pilots, rho_p)
    # Out-of-range terms are rejected below: the numerator always, the coupling under max-min.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = sinr_terms(realization.beta, quality.gamma, pilot)
    lost = np.flatnonzero(~((terms.signal > 0) & (terms.signal < np.inf)))
    if lost.size:
        raise ConfigError(
            f"realization {index}, {strategy}: the channel-estimate quality of UE "
            f"{lost[0]} under- or overflows at pilot SNR {rho_p:g} "
            f"(pilot_tx_power = {sim.pilot_tx_power:g} W, "
            f"shadowing_sigma = {sim.shadowing_sigma:g} dB)")
    if cfg.power_policy != "maxmin":
        return index, strategy, terms, None
    coupling, floor = power_problem(terms, rho_u)
    lost = np.flatnonzero(~(np.isfinite(coupling).all(axis=1) & np.isfinite(floor) & (floor > 0)))
    if lost.size:
        raise ConfigError(
            f"realization {index}, {strategy}: the max-min coupling or noise floor of UE "
            f"{lost[0]} under- or overflows at uplink SNR {rho_u:g} "
            f"(uplink_tx_power = {sim.uplink_tx_power:g} W, "
            f"shadowing_sigma = {sim.shadowing_sigma:g} dB)")
    return index, strategy, terms, (coupling, floor)


def _evaluate(cfg, drops) -> list[ThroughputRecord]:
    """Power, SINR and throughput of a chunk's drops; raises at the first that fails, in order."""
    if not drops:
        return []
    sim = cfg.sim
    if cfg.power_policy == "maxmin":
        powers = max_min_powers(np.stack([problem[0] for *_, problem in drops]),
                                np.stack([problem[1] for *_, problem in drops]))
    else:
        powers = repeat(full_power(sim.num_ues))
    records = []
    for (index, strategy, terms, _), power in zip(drops, powers):
        report = terms_report(terms, power.eta, sim)
        lost = np.flatnonzero((report.sinr > 0) & (report.throughput == 0))
        if lost.size:
            raise ConfigError(
                f"realization {index}, {strategy}: the throughput of UE {lost[0]} rounds to 0 "
                f"at SINR {report.sinr[lost[0]]:g} (uplink_tx_power = {sim.uplink_tx_power:g} W, "
                f"pilot_tx_power = {sim.pilot_tx_power:g} W, "
                f"shadowing_sigma = {sim.shadowing_sigma:g} dB)")
        records.extend(ThroughputRecord(index, strategy, ue, sinr, bps) for ue, (sinr, bps)
                       in enumerate(zip(report.sinr.tolist(), report.throughput.tolist())))
    return records


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q*N)-th smallest sample, no interpolation."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    if np.isnan(values).any():
        raise ValueError("percentile of a sequence containing NaN")
    rank = math.ceil(q * values.size)
    return float(np.sort(values)[rank - 1])


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


def write_records(records, path):
    """Write records as CSV with the canonical header, LF line endings."""
    lines = [CSV_HEADER]
    lines.extend(f"{r.realization},{r.strategy},{r.ue},{r.sinr:.9g},{r.throughput_bps:.9g}"
                 for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def read_records(path) -> list[ThroughputRecord]:
    """Parse a records CSV produced by :func:`write_records`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read records file {path}: {exc}") from exc
    lines = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    records = []
    for lineno, line in lines[1:]:
        try:
            realization, strategy, ue, sinr, tp = line.split(",")
            record = ThroughputRecord(int(realization), strategy, int(ue),
                                      float(sinr), float(tp))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: malformed CSV row: {line!r}") from exc
        if not (math.isfinite(record.sinr) and math.isfinite(record.throughput_bps)):
            raise ConfigError(f"{path} line {lineno}: non-finite sinr or throughput: {line!r}")
        records.append(record)
    return records


def throughput_by_strategy(records) -> dict[str, np.ndarray]:
    """Group the per-UE throughput samples of a record list by strategy name."""
    grouped = {}
    for record in records:
        grouped.setdefault(record.strategy, []).append(record.throughput_bps)
    return {name: np.asarray(vals) for name, vals in sorted(grouped.items())}


def run_sweep(cfg: ExperimentConfig, q=0.95) -> list[tuple]:
    """Re-run the experiment for each sweep value; aggregate one row per strategy.

    Rows are (variable, value, strategy, n, percentile_in_percent, throughput_bps),
    exactly len(sweep_values) * len(strategies) of them.
    """
    if cfg.sweep_var is None or not cfg.sweep_values:
        raise ConfigError("sweep requires a sweep variable and a non-empty value list")
    rows = []
    for value in cfg.sweep_values:
        sim = replace(cfg.sim, **{cfg.sweep_var: int(value)})
        grouped = throughput_by_strategy(run_experiment(replace(cfg, sim=sim)))
        for strategy in cfg.strategies:
            samples = grouped[strategy]
            rows.append((cfg.sweep_var, int(value), strategy, samples.size,
                         q * 100.0, percentile(samples, q)))
    return rows


def write_sweep(rows, path):
    """Write aggregated sweep rows with the percentile definition documented."""
    lines = [PERCENTILE_NOTE, SWEEP_HEADER]
    lines.extend(f"{var},{value},{strategy},{n},{pct:.9g},{tp:.9g}"
                 for var, value, strategy, n, pct, tp in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


# Flat key = value config files; '#' starts a comment, lists are comma separated.
_INT_KEYS = ("num_aps", "num_ues", "num_pilots", "coherence_len", "realizations", "seed")
_FLOAT_KEYS = ("area_side", "bandwidth", "pilot_tx_power", "uplink_tx_power",
               "noise_figure", "noise_temp", "boltzmann", "shadowing_sigma")
_STR_KEYS = ("power_policy", "output_path", "sweep_var")
_REQUIRED_KEYS = ("num_aps", "num_ues", "num_pilots")


def parse_config_text(text) -> dict:
    """Parse flat ``key = value`` text into a typed dictionary."""
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, literal = line.partition("=")
        key = key.strip()
        literal = literal.strip()
        known = set(_INT_KEYS) | set(_FLOAT_KEYS) | set(_STR_KEYS) | {"strategies", "sweep_values"}
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(literal)
            elif key in _FLOAT_KEYS:
                values[key] = float(literal)
            elif key in _STR_KEYS:
                values[key] = literal
            elif key == "strategies":
                values[key] = tuple(s.strip() for s in literal.split(",") if s.strip())
            else:
                values[key] = tuple(int(s) for s in literal.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {literal!r}") from exc
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    sim_keys = set(_INT_KEYS) | set(_FLOAT_KEYS)
    sim = SimConfig(**{k: v for k, v in values.items() if k in sim_keys})
    extra = {k: v for k, v in values.items() if k not in sim_keys}
    return ExperimentConfig(sim=sim, **extra)


def load_config(path) -> ExperimentConfig:
    """Load an experiment config from a flat key = value file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_values(parse_config_text(text))
