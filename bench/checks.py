"""Output checks drawn from independent computations and from the method's own properties.

Nothing here imports cfpilot. The closed-form MR SINR with MMSE estimates and
orthonormal pilots is written out per user from Ngo et al., "Cell-Free
Massive MIMO versus Small Cells" (IEEE TWC 2017). The max-min optimum is the
Perron-Frobenius characterisation t* = 1 / max_i rho(C + f e_i^T) (Zheng &
Tan, IEEE T-IT 2016). Balanced partitions are enumerated here, and
percentiles are nearest-rank with exact rational ranks.

Every check takes plain values and returns a list of failure messages; an
empty list is a pass. ``bench/selftest.py`` feeds each one a corrupted
output and sees it fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations

import numpy as np

# Relative agreement required between the library's float SINR and the
# closed form computed here (observed: about 1e-15).
SINR_RTOL = 1e-12
# Relative tolerance on values read back from 9-significant-digit CSV text.
CSV_RTOL = 2e-8
# Max-min SINRs must be equal within this relative spread.
EQUALIZED_RTOL = 1e-9
# Slack on order relations between objectives, sum rates and SINR targets.
ORDER_RTOL = 1e-9


@dataclass
class Evaluation:
    """One strategy on one drop: pilot labels (None for the oracle), power, SINR, throughput."""

    labels: np.ndarray | None
    eta: np.ndarray
    sinr: np.ndarray
    throughput: np.ndarray


@dataclass
class Drop:
    """One realization as the library drew it, with each strategy's evaluation."""

    sim: object  # resolved simulation parameters (attribute access only)
    power_policy: str
    beta: np.ndarray           # (M, K)
    ue_positions: np.ndarray   # (K, 2)
    evals: dict = field(default_factory=dict)
    _terms: dict = field(default_factory=dict, repr=False)

    def terms(self, name):
        """(C, f, full-power min SINR, t*) of one strategy's labels, computed once."""
        if name not in self._terms:
            c, f = coupling(self.beta, self.evals[name].labels, self.sim)
            self._terms[name] = (c, f, sinr(c, f, np.ones(f.size)).min(), maxmin_optimum(c, f))
        return self._terms[name]


# --- closed forms --------------------------------------------------------------------

def snrs(sim):
    """Pilot and uplink transmit SNRs: power over B * k_B * T0 * noise figure."""
    noise = sim.bandwidth * sim.boltzmann * sim.noise_temp * sim.noise_figure
    return sim.pilot_tx_power / noise, sim.uplink_tx_power / noise


def coupling(beta, labels, sim):
    """(C, f) such that SINR_k(eta) = eta_k / ((C eta)_k + f_k) under MR combining.

    Written per user from the closed form: with pilot overlap phi (1 for
    co-pilot pairs, identity for the oracle) the MMSE estimate has mean
    square gamma_mk = tau_p rho_p beta_mk^2 / (tau_p rho_p sum_j beta_mj phi_kj + 1),
    and user k sees signal (sum_m gamma_mk)^2, coherent co-pilot
    interference (sum_m gamma_mk beta_mj / beta_mk)^2 from each co-pilot j,
    non-coherent interference sum_m gamma_mk beta_mj from every j, and noise
    sum_m gamma_mk / rho_u.
    """
    beta = np.asarray(beta, dtype=float)
    m, k = beta.shape
    rho_p, rho_u = snrs(sim)
    train = sim.num_pilots * rho_p
    if labels is None:
        overlap = np.eye(k)
    else:
        overlap = (labels[:, None] == labels[None, :]).astype(float)
    c = np.empty((k, k))
    f = np.empty(k)
    for user in range(k):
        gamma = train * beta[:, user] ** 2 / (train * (beta @ overlap[user]) + 1.0)
        signal = gamma.sum() ** 2
        coherent = (gamma / beta[:, user]) @ beta
        copilot = coherent ** 2 * overlap[user]
        copilot[user] = 0.0
        c[user] = (copilot + gamma @ beta) / signal
        f[user] = gamma.sum() / (rho_u * signal)
    return c, f


def sinr(c, f, eta):
    eta = np.asarray(eta, dtype=float)
    return eta / (c @ eta + f)


def maxmin_optimum(c, f):
    """t* = 1 / max_i rho(C + f e_i^T): the largest common SINR with every eta_k <= 1.

    rho_i is the Perron root of C + f e_i^T, i.e. the lambda > rho(C) where
    z(lambda) = (lambda I - C)^-1 f has z_i = 1; every z_j decreases in
    lambda. So once z(lambda) <= 1 at lambda = the largest rho_i found, no
    other rho_j exceeds it. Start from the largest f and move to the largest
    z_j until that holds: a few eigenvalue problems instead of K.
    """
    k = f.size
    user = int(np.argmax(f))
    best = 0.0
    tried = set()
    while user not in tried:
        tried.add(user)
        rank_one = c.copy()
        rank_one[:, user] += f
        best = max(best, float(np.abs(np.linalg.eigvals(rank_one)).max()))
        z = np.linalg.solve(best * np.eye(k) - c, f)
        if z.max() <= 1.0:
            break
        user = int(np.argmax(z))
    return 1.0 / best


def throughput(sinr_values, sim):
    """B * (1 - tau_p / tau_c) / 2 * log2(1 + SINR), in bits/s."""
    prelog = (1.0 - sim.num_pilots / sim.coherence_len) / 2.0
    return sim.bandwidth * prelog * np.log2(1.0 + np.asarray(sinr_values, dtype=float))


def distances(positions):
    """Euclidean distances between UE positions: the repulsive objective's dissimilarity."""
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def objective(dist, labels):
    """Sum of within-cluster distances over unordered pairs."""
    same = labels[:, None] == labels[None, :]
    return float((dist * same).sum() / 2.0)


def swap_gains(dist, labels):
    """Objective change of exchanging u and w, for every pair in different clusters (else -inf)."""
    onehot = labels[:, None] == np.arange(labels.max() + 1)[None, :]
    to_cluster = (dist @ onehot)[:, labels]   # [i, u]: distance from i to u's cluster
    own = np.diag(to_cluster)
    gains = to_cluster + to_cluster.T - own[:, None] - own[None, :] - 2.0 * dist
    return np.where(labels[:, None] != labels[None, :], gains, -np.inf)


@lru_cache(maxsize=None)
def balanced_partitions(num_ues, num_clusters):
    """Label array (N, K) of every balanced partition, each exactly once (shared; do not modify).

    The lowest unplaced UE opens the next cluster and picks its mates; sizes
    are floor(K/P) or that plus one, with K mod P clusters of the larger size.
    """
    low, extra = divmod(num_ues, num_clusters)
    out = []
    labels = np.zeros(num_ues, dtype=int)

    def place(unplaced, sizes, cluster):
        if not unplaced:
            out.append(labels.copy())
            return
        first, rest = unplaced[0], unplaced[1:]
        for size in sorted(set(sizes)):
            left = list(sizes)
            left.remove(size)
            for mates in combinations(rest, size - 1):
                labels[[first, *mates]] = cluster
                place([u for u in rest if u not in mates], left, cluster + 1)

    place(list(range(num_ues)), [low + 1] * extra + [low] * (num_clusters - extra), 0)
    return np.array(out)


def nearest_rank(values, percent):
    """The ceil(p/100 * N)-th smallest value, with the rank computed exactly."""
    values = sorted(values)
    rank = math.ceil(Fraction(str(percent)) * len(values) / 100)
    return values[rank - 1]


def full_power_sum_rate(beta, labels, sim):
    c, f = coupling(beta, labels, sim)
    return float(np.log2(1.0 + sinr(c, f, np.ones(f.size))).sum())


# --- checks on one drop ------------------------------------------------------------

def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)


def check_sinr_closed_form(drop):
    """The library's SINR equals the closed form recomputed from beta, labels and eta."""
    bad = []
    for name, ev in drop.evals.items():
        c, f, _, _ = drop.terms(name)
        err = _rel(ev.sinr, sinr(c, f, ev.eta)).max()
        if err > SINR_RTOL:
            bad.append(f"{name}: SINR differs from the closed form by {err:.3g} (relative)")
    return bad


def check_throughput_formula(drop):
    bad = []
    for name, ev in drop.evals.items():
        err = _rel(ev.throughput, throughput(ev.sinr, drop.sim)).max()
        if err > SINR_RTOL:
            bad.append(f"{name}: throughput differs from B(1-tp/tc)/2 log2(1+SINR) by {err:.3g}")
    return bad


def check_eta_unit_box(drop):
    return [f"{name}: eta outside [0, 1] (min {ev.eta.min():.6g}, max {ev.eta.max():.6g})"
            for name, ev in drop.evals.items()
            if drop.power_policy == "maxmin" and (ev.eta.min() < 0.0 or ev.eta.max() > 1.0)]


def check_sinr_equalized(drop):
    bad = []
    if drop.power_policy != "maxmin":
        return bad
    for name, ev in drop.evals.items():
        spread = (ev.sinr.max() - ev.sinr.min()) / ev.sinr.max()
        if spread > EQUALIZED_RTOL:
            bad.append(f"{name}: max-min SINRs not equalized (relative spread {spread:.3g})")
    return bad


def common_sinr_gap(drop, name):
    """(t* - common SINR) / t* for one max-min evaluation."""
    optimum = drop.terms(name)[3]
    return (optimum - drop.evals[name].sinr.min()) / optimum


def check_common_sinr_bounds(drop):
    """Full-power min SINR <= common max-min SINR <= t*."""
    bad = []
    if drop.power_policy != "maxmin":
        return bad
    for name, ev in drop.evals.items():
        _, _, floor, optimum = drop.terms(name)
        common = ev.sinr.min()
        if common < floor * (1.0 - ORDER_RTOL):
            bad.append(f"{name}: common SINR {common:.9g} below the full-power minimum {floor:.9g}")
        if ev.sinr.max() > optimum * (1.0 + ORDER_RTOL):
            bad.append(f"{name}: SINR {ev.sinr.max():.9g} above the max-min optimum t* = {optimum:.9g}")
    return bad


def check_repulsive_balanced(drop):
    ev = drop.evals.get("repulsive")
    if ev is None:
        return []
    k, p = ev.labels.size, drop.sim.num_pilots
    sizes = np.bincount(ev.labels, minlength=p)
    if ev.labels.min() < 0 or sizes.size != p or sizes.min() < k // p or sizes.max() > -(-k // p):
        return [f"repulsive: cluster sizes {sizes.tolist()} are not balanced for K={k}, P={p}"]
    return []


def check_repulsive_local_optimum(drop):
    ev = drop.evals.get("repulsive")
    if ev is None:
        return []
    dist = distances(drop.ue_positions)
    best = swap_gains(dist, ev.labels).max()
    if best > ORDER_RTOL * objective(dist, ev.labels):
        return [f"repulsive: a swap improves the objective by {best:.6g}"]
    return []


def check_optimal_repulsive(drop):
    """optimal-repulsive attains the enumerated maximum, which is >= the repulsive objective."""
    ev = drop.evals.get("optimal-repulsive")
    if ev is None:
        return []
    dist = distances(drop.ue_positions)
    partitions = balanced_partitions(ev.labels.size, drop.sim.num_pilots)
    same = partitions[:, :, None] == partitions[:, None, :]
    best = float((same * dist).sum(axis=(1, 2)).max() / 2.0)
    got = objective(dist, ev.labels)
    bad = []
    if abs(got - best) > ORDER_RTOL * best:
        bad.append(f"optimal-repulsive: objective {got:.12g} but enumeration finds {best:.12g}")
    if "repulsive" in drop.evals:
        heuristic = objective(dist, drop.evals["repulsive"].labels)
        if heuristic > got * (1.0 + ORDER_RTOL):
            bad.append(f"optimal-repulsive: objective {got:.12g} below repulsive {heuristic:.12g}")
    return bad


def check_exhaustive_dominates(drop):
    """exhaustive's full-power sum rate is >= that of every other non-oracle assignment."""
    ev = drop.evals.get("exhaustive")
    if ev is None:
        return []
    best = full_power_sum_rate(drop.beta, ev.labels, drop.sim)
    bad = []
    for name, other in drop.evals.items():
        if other.labels is None or name == "exhaustive":
            continue
        rate = full_power_sum_rate(drop.beta, other.labels, drop.sim)
        if rate > best * (1.0 + ORDER_RTOL):
            bad.append(f"exhaustive: sum rate {best:.9g} below {name}'s {rate:.9g}")
    return bad


DROP_CHECKS = {
    "sinr_closed_form": check_sinr_closed_form,
    "throughput_formula": check_throughput_formula,
    "eta_unit_box": check_eta_unit_box,
    "sinr_equalized": check_sinr_equalized,
    "common_sinr_bounds": check_common_sinr_bounds,
    "repulsive_balanced": check_repulsive_balanced,
    "repulsive_local_optimum": check_repulsive_local_optimum,
    "optimal_repulsive": check_optimal_repulsive,
    "exhaustive_dominates": check_exhaustive_dominates,
}


# --- checks on CLI text output -------------------------------------------------------

CSV_HEADER = "realization,strategy,ue,sinr,throughput_bps"


def parse_records(text):
    """Rows of a records CSV as (realization, strategy, ue, sinr, throughput) tuples."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("records CSV has no canonical header or no final newline")
    rows = []
    for line in lines[1:-1]:
        r, s, u, x, t = line.split(",")
        rows.append((int(r), s, int(u), float(x), float(t)))
    return rows


def check_records_csv(text, sim, strategies):
    """Row count, canonical (realization, strategy, ue) order, and throughput from SINR."""
    try:
        rows = parse_records(text)
    except ValueError as exc:
        return [f"records CSV: {exc}"]
    expected = [(r, s, u) for r in range(sim.realizations) for s in sorted(strategies)
                for u in range(sim.num_ues)]
    if [row[:3] for row in rows] != expected:
        return [f"records CSV: {len(rows)} rows, not the {len(expected)} canonical "
                "(realization, strategy, ue) rows"]
    values = np.array([row[3:] for row in rows])
    err = _rel(values[:, 1], throughput(values[:, 0], sim)).max()
    if err > CSV_RTOL:
        return [f"records CSV: throughput differs from the SINR column's by {err:.3g}"]
    return []


def check_stats_output(stdout, rows, percent):
    """`cfpilot stats` lines equal the nearest-rank percentile of the records, per strategy."""
    lines = stdout.strip().split("\n")
    if len(lines) < 2 or not lines[0].startswith("#") or lines[1] != "strategy,n,percentile,throughput_bps":
        return ["stats: missing percentile note or header"]
    grouped = {}
    for _, strategy, _, _, tp in rows:
        grouped.setdefault(strategy, []).append(tp)
    want = [f"{s},{len(v)},{float(percent):.9g},{nearest_rank(v, percent):.9g}"
            for s, v in sorted(grouped.items())]
    if lines[2:] != want:
        return [f"stats: printed {lines[2:]} but nearest-rank gives {want}"]
    return []


def check_same_output(cli_text, replay_text):
    """The replay through the public functions wrote the CLI's bytes."""
    return [] if cli_text == replay_text else ["replayed output differs from the CLI's"]


def parse_sweep(text):
    lines = text.split("\n")
    if len(lines) < 3 or not lines[0].startswith("#") or lines[-1] != "" \
            or lines[1] != "variable,value,strategy,n,percentile,throughput_bps":
        raise ValueError("sweep CSV has no percentile note, header or final newline")
    rows = []
    for line in lines[2:-1]:
        var, value, strategy, n, pct, tp = line.split(",")
        rows.append((var, int(value), strategy, int(n), pct, tp))
    return rows


def check_sweep_layout(text, cfg_sim, sweep_var, sweep_values, strategies, percent):
    try:
        rows = parse_sweep(text)
    except ValueError as exc:
        return [f"sweep CSV: {exc}"]
    n = cfg_sim.realizations * cfg_sim.num_ues
    want = [(sweep_var, v, s, n, f"{float(percent):.9g}") for v in sweep_values for s in strategies]
    if [row[:5] for row in rows] != want:
        return [f"sweep CSV: rows {[row[:5] for row in rows]} differ from {want}"]
    return []


def check_sweep_percentiles(text, samples, percent):
    """Sweep throughputs equal nearest-rank percentiles of the records; samples[(value, strategy)]."""
    bad = []
    for _, value, strategy, _, _, tp in parse_sweep(text):
        want = f"{nearest_rank(samples[(value, strategy)], percent):.9g}"
        if tp != want:
            bad.append(f"sweep: {strategy} at {value} reports {tp}, nearest-rank gives {want}")
    return bad
