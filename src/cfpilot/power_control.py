"""Uplink power-control policies: full power and max-min fairness.

The max-min solver bisects on a common SINR target. For each target the
per-UE power update eta <- target * (coupling @ eta + floor) is affine and
monotone, so its fixed point is the exact solution of the linear system
(I - target * coupling) eta = target * floor whenever
target * rho(coupling) < 1, and no power vector meets the target otherwise.
A target is feasible when the fixed point exists and respects the unit cap.

Many instances are bisected in lock-step: each step solves the stacked
systems of every instance still bisecting, and each solution certifies its
own spectral condition (Perron-Frobenius, Collatz-Wielandt), so the
spectral radius is computed only for an instance whose solution certifies
neither way, such as a badly scaled one whose solve is not accurate entry
by entry. Every decision is the one a dense spectral-radius test makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chanest import PilotAssignment
from .errors import BudgetExceededError
from .rate_model import SinrTerms, sinr_terms

BISECTION_TOL = 1e-3
BISECTION_BUDGET = 60
_CAP_SLACK = 1e-9
_SPECTRAL_MARGIN = 1e-9
# Least Collatz-Wielandt gap accepted as proof that target * rho <= 1 - _SPECTRAL_MARGIN;
# rounding moves the computed gap by about 1e-14.
_CERTIFIED_MARGIN = 1e-6
# Largest componentwise backward error w of a solve whose non-positive entry proves
# target * rho >= 1. Such an x solves exactly a system within relative w of each entry
# (Oettli-Prager), which moves target * rho by at most about 2w: below _SPECTRAL_MARGIN.
_TRUSTED_ERROR = 1e-10


@dataclass(frozen=True)
class PowerCoefficients:
    """Per-UE uplink power control coefficients, clipped to [0, 1] within ``_CAP_SLACK``."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or eta.size < 1:
            raise ValueError("eta must be a non-empty 1-D vector")
        if np.any(eta < -_CAP_SLACK) or np.any(eta > 1 + _CAP_SLACK):
            raise ValueError("power coefficients must lie in [0, 1]")
        object.__setattr__(self, "eta", np.clip(eta, 0.0, 1.0))


def full_power(num_ues) -> PowerCoefficients:
    """Baseline policy: every UE transmits at its maximum power."""
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    return PowerCoefficients(np.ones(num_ues))


def power_problem(terms: SinrTerms, uplink_snr):
    """Coupling matrix and noise floor with SINR_k(eta) = eta_k / (coupling @ eta + floor)_k.

    Out-of-range terms give non-finite or zero entries without a warning;
    callers that need a well-posed problem check the result.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        coupling = (terms.copilot + terms.uncorrelated) / terms.signal[:, None]
        floor = terms.noise / (uplink_snr * terms.signal)
    return coupling, floor


def _judge(coupling, floor, rows, targets, radius):
    """Fixed points x of instances ``rows`` at ``targets``, and whether each target is feasible.

    With coupling C >= 0 and t * f >= 0, the solution of (I - t C) x = t f
    certifies itself. A positive x bounds t * rho(C) by
    1 - min((I - t C) x / x) (Collatz-Wielandt, for any positive x), and a
    non-positive entry proves t * rho(C) >= 1 if x is accurate entry by
    entry (an accurate x of a system with t * rho < 1 is non-negative, and
    positive wherever t * f is). An instance proved neither way, or whose
    system is singular, is judged by its spectral radius, computed at most
    once and kept in ``radius``.
    """
    if len(rows) < len(coupling):
        coupling, floor = coupling[rows], floor[rows]
    rhs = targets[:, None] * floor
    system = coupling * targets[:, None, None]  # t C, then I - t C in place
    np.subtract(np.eye(floor.shape[1]), system, out=system)
    try:
        x = np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)  # every instance falls back to its own solve below
    applied = (system @ x[..., None])[..., 0]
    lowest = x.min(axis=1)
    beyond = lowest <= 0
    within = (lowest > 0) & (applied > _CERTIFIED_MARGIN * x).all(axis=1)
    if beyond.any():  # a sign proof needs a small componentwise backward error (Oettli-Prager)
        b = np.flatnonzero(beyond)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = (np.abs(system[b]) @ np.abs(x[b])[..., None])[..., 0] + rhs[b]
            beyond[b] = (np.abs(applied[b] - rhs[b]) / scale).max(axis=1) <= _TRUSTED_ERROR
    feasible = within & (x.max(axis=1) <= 1.0 + _CAP_SLACK)
    undecided = ~(beyond | within)
    for j in np.flatnonzero(undecided) if undecided.any() else ():
        i = rows[j]
        if np.isnan(radius[i]):
            radius[i] = np.abs(np.linalg.eigvals(coupling[j])).max()
        if targets[j] * radius[i] >= 1.0 - _SPECTRAL_MARGIN:
            feasible[j] = False
            continue
        if np.isnan(x[j]).all():
            x[j] = np.linalg.solve(system[j], rhs[j])
        feasible[j] = x[j].max() <= 1.0 + _CAP_SLACK
    return x, feasible


def max_min_powers(coupling, floor):
    """Max-min power vectors of stacked instances, bisected in lock-step to relative ``BISECTION_TOL``.

    ``coupling`` is (n, K, K) and ``floor`` (n, K), one instance per row, as
    built by :func:`power_problem`. Each instance's common SINR target is
    bisected geometrically between its minimum full-power SINR (always
    feasible) and its minimum interference-free single-user SINR (never
    exceedable), with exactly the midpoints and decisions of bisecting it
    alone. At each returned vector all users sit at the best certified
    target, so their SINRs are equal; coefficients at the unit cap mark
    users that are power-limited there.

    Yields one :class:`PowerCoefficients` per instance, in order, and raises
    ``BudgetExceededError`` on reaching an instance whose full-power SINR
    floor no power vector certifies.
    """
    ones = np.ones(floor.shape[1])
    lo = [float((1.0 / (c @ ones + f)).min()) for c, f in zip(coupling, floor)]
    hi = (1.0 / (coupling.diagonal(axis1=1, axis2=2) + floor)).min(axis=1).tolist()
    radius = np.full(len(floor), np.nan)
    eta, certified = _judge(coupling, floor, range(len(lo)), np.array(lo), radius)
    live = [i for i, ok in enumerate(certified) if ok]
    for _ in range(BISECTION_BUDGET):
        live = [i for i in live if not hi[i] <= lo[i] * (1.0 + BISECTION_TOL)]
        if not live:
            break
        mid = [math.sqrt(lo[i] * hi[i]) for i in live]
        x, feasible = _judge(coupling, floor, live, np.array(mid), radius)
        for i, target, ok, row in zip(live, mid, feasible.tolist(), x):
            if ok:
                lo[i] = target
                eta[i] = row
            else:
                hi[i] = target
    for row, ok in zip(eta, certified):
        if not ok:
            raise BudgetExceededError("no power vector certifies the full-power SINR floor",
                                      guard="max-min power solve")
        yield PowerCoefficients(row)


def max_min_power(beta, gamma, assignment: PilotAssignment, uplink_snr) -> PowerCoefficients:
    """Power vector maximizing the minimum per-user SINR, to relative ``BISECTION_TOL``.

    A stack of one for :func:`max_min_powers`.
    """
    coupling, floor = power_problem(sinr_terms(beta, gamma, assignment), uplink_snr)
    return next(max_min_powers(coupling[None], floor[None]))
