"""Uplink power-control policies: full power and max-min fairness.

The max-min solver bisects on a common SINR target. For each target the
per-UE power update is a standard interference function (monotone, scalable,
and affine here), so its fixed point is computed exactly by a dense linear
solve; a target is infeasible when the fixed point does not exist or pushes
some coefficient past its unit cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chanest import PilotAssignment
from .errors import BudgetExceededError
from .rate_model import sinr_terms

BISECTION_TOL = 1e-3
BISECTION_BUDGET = 60
_CAP_SLACK = 1e-9
_SPECTRAL_MARGIN = 1e-9


@dataclass(frozen=True)
class PowerCoefficients:
    """Per-UE uplink power control coefficients in [0, 1]."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 1 or eta.size < 1:
            raise ValueError("eta must be a non-empty 1-D vector")
        if np.any(eta < -1e-12) or np.any(eta > 1 + 1e-12):
            raise ValueError("power coefficients must lie in [0, 1]")
        object.__setattr__(self, "eta", np.clip(eta, 0.0, 1.0))


def full_power(num_ues) -> PowerCoefficients:
    """Baseline policy: every UE transmits at its maximum power."""
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    return PowerCoefficients(np.ones(num_ues))


def _solve_target(coupling, floor, target, spectral_radius):
    """Power vector meeting a common SINR target exactly, and its feasibility.

    The update eta <- target * (coupling @ eta + floor) is affine and
    monotone, so its fixed point is the exact solution of the linear system
    (I - target * coupling) eta = target * floor whenever
    target * spectral_radius < 1, and no power vector meets the target
    otherwise. Feasible means the fixed point also respects the unit cap.
    """
    if target * spectral_radius >= 1.0 - _SPECTRAL_MARGIN:
        return None, False
    eye = np.eye(floor.size)
    eta = np.linalg.solve(eye - target * coupling, target * floor)
    return eta, bool(eta.max() <= 1.0 + _CAP_SLACK)


def max_min_power(beta, gamma, assignment: PilotAssignment, uplink_snr,
                  tol=BISECTION_TOL) -> PowerCoefficients:
    """Power vector maximizing the minimum per-user SINR, to relative ``tol``.

    The common SINR target is bisected geometrically between the minimum
    full-power SINR (always feasible) and the minimum interference-free
    single-user SINR (never exceedable). At the returned vector all users sit
    exactly at the best certified-feasible target, so their SINRs are equal;
    coefficients at the unit cap mark users that are power-limited there.
    """
    if tol <= 0:
        raise ValueError("tol must be strictly positive")
    terms = sinr_terms(beta, gamma, assignment)
    # SINR_k(eta) = eta_k / (coupling @ eta + floor)_k
    coupling = (terms.copilot + terms.uncorrelated) / terms.signal[:, None]
    floor = terms.noise / (uplink_snr * terms.signal)
    spectral_radius = float(np.abs(np.linalg.eigvals(coupling)).max())
    ones = np.ones_like(floor)
    full_sinr = 1.0 / (coupling @ ones + floor)
    isolated = 1.0 / (coupling.diagonal() + floor)
    target_lo = float(full_sinr.min())
    target_hi = float(isolated.min())
    best_eta, feasible = _solve_target(coupling, floor, target_lo, spectral_radius)
    if not feasible:
        raise BudgetExceededError(
            "no power vector certifies the full-power SINR floor",
            guard="max-min power solve")
    for _ in range(BISECTION_BUDGET):
        if target_hi <= target_lo * (1.0 + tol):
            break
        target_mid = float(np.sqrt(target_lo * target_hi))
        eta, feasible = _solve_target(coupling, floor, target_mid, spectral_radius)
        if feasible:
            target_lo = target_mid
            best_eta = eta
        else:
            target_hi = target_mid
    return PowerCoefficients(best_eta)
