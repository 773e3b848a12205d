"""Experiment orchestration: paired Monte Carlo runs, statistics, CSV export.

Every strategy in a run is evaluated on the identical network realization
(paired design), and the emitted records are canonically ordered by
(realization, strategy, ue), so a fixed seed reproduces the output file byte
for byte.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, replace
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .assignment import assign, repulsive_stack
from .chanest import estimation_quality
from .config import ExperimentConfig, SimConfig
from .errors import BudgetExceededError, ConfigError
from .power_control import full_power, max_min_powers, power_problem
from .rate_model import sinr_terms, terms_sinr, throughput
from .topology import generate_realization, pilot_snr, strategy_seed, uplink_snr

CSV_HEADER = "realization,strategy,ue,sinr,throughput_bps"
SWEEP_HEADER = "variable,value,strategy,n,percentile,throughput_bps"
PERCENTILE_NOTE = "# percentile method: nearest-rank (the ceil(q*N)-th smallest sample)"

# Realizations per lock-step chunk: about 256 KB per stacked (K, K) array of the chunk.
_CHUNK_BYTES = 1 << 18


class ThroughputRecord(NamedTuple):
    """One evaluated UE: linear SINR and throughput in bits/s."""

    realization: int
    strategy: str
    ue: int
    sinr: float
    throughput_bps: float


def run_experiment(cfg: ExperimentConfig) -> list[ThroughputRecord]:
    """Run the paired Monte Carlo campaign described by ``cfg``.

    For each realization index one topology is drawn and every strategy is
    evaluated on it: assignment, estimation statistics, power policy, SINR,
    throughput. Realizations are taken in chunks: a chunk's topologies are
    drawn first, then per realization the assignments and SINR terms are
    built once, in order; then the chunk's max-min problems are solved in
    lock-step, and SINR and throughput are computed from the same terms. At
    the chunk's first ``repulsive`` drop, one :func:`repulsive_stack` call
    searches all its realizations, in stacks it caps itself. Each
    output and error is that of evaluating every (realization, strategy)
    alone, in loop order: a topology that fails to draw raises after the
    drops of the realizations before it.

    Budget guards of the exact strategies propagate as
    ``BudgetExceededError``. ``ConfigError`` is raised before the first drop
    when ``num_pilots`` equals ``coherence_len``: the pilots fill the
    coherence block, so every throughput is 0. It is raised for a UE whose
    summed estimate quality squared under- or overflows, which leaves its
    SINR undefined; for a max-min problem whose coupling or noise floor is
    not finite and positive; and for a UE whose throughput is 0 (its SINR
    rounds it to 0) or not finite (the SINR or the bandwidth overflows it).
    """
    sim = cfg.sim
    if sim.num_pilots == sim.coherence_len:
        raise ConfigError(f"num_pilots = {sim.num_pilots} equals coherence_len = "
                          f"{sim.coherence_len}: no symbol is left for data, so every "
                          "throughput is 0")
    rho_p = pilot_snr(sim)
    rho_u = uplink_snr(sim)
    per_chunk = max(1, _CHUNK_BYTES // (8 * sim.num_ues ** 2 * len(cfg.strategies)))
    records = []
    for start in range(0, sim.realizations, per_chunk):
        realizations, failed = [], None
        try:
            for index in range(start, min(start + per_chunk, sim.realizations)):
                realizations.append(generate_realization(sim, index))
        except ConfigError as exc:
            failed = exc
        drops, repulsive = [], None
        try:
            for index, realization in enumerate(realizations, start):
                for strategy in cfg.strategies:
                    if strategy == "repulsive":
                        if repulsive is None:
                            repulsive = repulsive_stack(
                                [r.ue_positions for r in realizations], sim.num_pilots,
                                [strategy_seed(sim.seed, i, strategy)
                                 for i in range(start, start + len(realizations))])
                        pilot = repulsive[index - start]
                    else:
                        pilot = assign(strategy, realization, sim,
                                       seed=strategy_seed(sim.seed, index, strategy))
                    drops.append(_build_drop(cfg, realization, index, strategy, pilot,
                                             rho_p, rho_u))
            if failed is not None:
                raise failed
        except (ConfigError, BudgetExceededError):
            _evaluate(cfg, drops)  # a failure of an earlier drop comes first in loop order
            raise
        records.extend(_evaluate(cfg, drops))
    records.sort()  # (realization, strategy, ue) is unique, so no later field is compared
    return records


def _build_drop(cfg, realization, index, strategy, pilot, rho_p, rho_u):
    """A strategy's assignment on a realization, as (index, strategy, SINR terms, power problem)."""
    sim = cfg.sim
    # Out-of-range terms are rejected below: the numerator always, the coupling under max-min.
    with np.errstate(over="ignore", invalid="ignore"):
        quality = estimation_quality(realization.beta, pilot, sim.num_pilots, rho_p)
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
    rho_u = uplink_snr(sim)
    if cfg.power_policy == "maxmin":
        powers = max_min_powers(np.stack([problem[0] for *_, problem in drops]),
                                np.stack([problem[1] for *_, problem in drops]))
    else:
        powers = repeat(full_power(sim.num_ues))
    records = []
    for index, strategy, terms, _ in drops:
        try:
            power = next(powers)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"realization {index}, {strategy}: {exc}",
                                      guard=exc.guard) from exc
        # An out-of-range SINR or throughput is rejected below, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            sinr = terms_sinr(terms, power.eta, rho_u)
            bps = throughput(sinr, sim)
        lost = np.flatnonzero(~((bps > 0) & (bps < np.inf)))
        if lost.size:
            ue = lost[0]
            fault = "rounds to 0" if bps[ue] == 0 else "is not finite"
            raise ConfigError(
                f"realization {index}, {strategy}: the throughput of UE {ue} {fault} "
                f"at SINR {sinr[ue]:g} (uplink_tx_power = {sim.uplink_tx_power:g} W, "
                f"pilot_tx_power = {sim.pilot_tx_power:g} W, bandwidth = {sim.bandwidth:g} Hz, "
                f"shadowing_sigma = {sim.shadowing_sigma:g} dB)")
        records.extend(ThroughputRecord(index, strategy, ue, value, rate) for ue, (value, rate)
                       in enumerate(zip(sinr.tolist(), bps.tolist())))
    return records


def percentile(values, q):
    """Nearest-rank percentile: the ceil(q*N)-th smallest sample; a ``Fraction`` q ranks exactly."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    if np.isnan(values).any():
        raise ValueError("percentile of a sequence containing NaN")
    rank = math.ceil(q * values.size)
    return float(np.sort(values)[rank - 1])


def write_records(records, path):
    """Write records as CSV with the canonical header, LF line endings."""
    lines = [CSV_HEADER]
    lines.extend(f"{r.realization},{r.strategy},{r.ue},{r.sinr:.9g},{r.throughput_bps:.9g}"
                 for r in records)
    _write_lines(lines, path)


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
    _write_lines(lines, path)


def _write_lines(lines, path):
    """Write lines with LF endings; a failed write raises ``ConfigError`` naming the path."""
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


# Flat key = value config files; '#' starts a comment, lists are comma separated.
# The keys are the fields of SimConfig and ExperimentConfig except ``sim``, each
# parsed by its declared type (a string: config.py defers annotations).
_TYPE_PARSERS = {
    "int": int, "float": float, "str": str, "str | None": str,
    "tuple[str, ...]": lambda text: tuple(s.strip() for s in text.split(",") if s.strip()),
    "tuple[int, ...]": lambda text: tuple(int(s) for s in text.split(",") if s.strip()),
}
KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(SimConfig) + fields(ExperimentConfig)
               if f.name != "sim"}
_SIM_KEYS = {f.name for f in fields(SimConfig)}


def _parse_value(key, literal, where):
    """One key's text parsed by its field's type; ``where`` prefixes the error."""
    if key not in KEY_PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    literal = literal.strip()
    try:
        return KEY_PARSERS[key](literal)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {literal!r}") from exc


def parse_config_text(text) -> dict:
    """Parse flat ``key = value`` text into a typed dictionary; a key may appear once."""
    values = {}
    first_line = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, literal = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        values[key] = _parse_value(key, literal, f"line {lineno}")
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    missing = [f.name for f in fields(SimConfig)
               if f.default is MISSING and f.default_factory is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    sim = SimConfig(**{k: v for k, v in values.items() if k in _SIM_KEYS})
    extra = {k: v for k, v in values.items() if k not in _SIM_KEYS}
    return ExperimentConfig(sim=sim, **extra)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Load an experiment config from a flat key = value file.

    ``overrides`` maps keys to raw text, parsed like the key's file line, that
    replaces the file's values; the effective config is validated once.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = parse_config_text(text)
    for key, literal in (overrides or {}).items():
        values[key] = _parse_value(key, literal, "override")
    return config_from_values(values)
