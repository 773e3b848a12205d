"""Uplink power-control policies: full power and max-min fairness.

The max-min optimum is exact. With SINR_k(eta) = eta_k / ((C eta)_k + f_k),
a common SINR 1/lam is met by z(lam) = (lam I - C)^-1 f, and every z_k falls
as lam grows past rho(C). So the optimum lam* is the least lam with
max z <= 1, eta* = z(lam*), and lam* = max_i rho(C + f e_i^T)
(Perron-Frobenius; Zheng & Tan, IEEE T-IT 2016; Nuzman, IEEE/ACM ToN 2007).

Each instance iterates on lam from the full-power point, always feasible.
The next point is the largest root of 1/z_k(lam) = 1 over the UEs k, each
modelled as linear in lam: a Newton step first, secant steps after, and a
geometric bisection step where these leave the bracket or stall (Brent).
Each point is solved in the basis scaled by the last positive z, so that
its solution is near 1 entry by entry and a solve is accurate entry by
entry even on a drop whose powers span hundreds of decades. Every solve
certifies itself. A positive z that meets the cap, and whose residual shows
each UE at SINR 1/lam, bounds lam* from above; any positive z bounds it
from below (Collatz-Wielandt), and a z with an entry <= 0 puts lam below
rho(C). The iteration stops when the two bounds meet. Many instances
iterate in lock-step, row by row, so an instance's iterates and result do
not depend on the others in its stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chanest import PilotAssignment
from .errors import BudgetExceededError
from .rate_model import SinrTerms, sinr_terms

_CAP_SLACK = 1e-9
# An accepted point's residual shows every UE at SINR >= (1 - _SINR_SLACK) / lam.
_SINR_SLACK = 1e-9
# The iteration stops once the best accepted lam is within this relative gap of lam*'s lower bound.
_CONVERGED = 1e-12
_STEP_BUDGET = 60


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


def _solve(system, rhs):
    """Row-wise solutions of stacked linear systems; a singular system gives a NaN row."""
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full_like(rhs, np.nan)
        return np.concatenate([_solve(system[j:j + 1], rhs[j:j + 1]) for j in range(len(rhs))])


def max_min_powers(coupling, floor):
    """Exact max-min power vectors of stacked instances, solved in lock-step.

    ``coupling`` is (n, K, K) and ``floor`` (n, K), one instance per row, as
    built by :func:`power_problem`. The result is the best point whose own
    solve certifies it (every user at SINR >= (1 - ``_SINR_SLACK``) / lam
    within the unit cap) once lam is within relative ``_CONVERGED`` of its
    lower bound, or after ``_STEP_BUDGET`` steps. Coefficients at the cap
    mark the users that are power-limited. Row sums that overflow give a
    zero target and the zero power vector.

    Yields one :class:`PowerCoefficients` per instance, in order, and raises
    ``BudgetExceededError`` on reaching an instance whose full-power point
    its solve does not certify. A point whose powers underflow below the
    smallest double, as for C = [[1, 1e200], [0, 1]] and f = [1e-200, 1e-200],
    is rejected this way, not certified.
    """
    n, k = floor.shape
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam = (coupling @ np.ones(k) + floor).max(axis=1)  # 1 / the full-power minimum SINR
        # z(lam) >= f / (lam - diag C) entry by entry: the first point's scale.
        scale = floor / (lam[:, None] - coupling.diagonal(axis1=1, axis2=2))
    eta = np.zeros((n, k))
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    certified = lam == np.inf  # row sums that overflow give a zero target, met by eta = 0
    live = np.flatnonzero(~certified)
    earlier = latest = np.full(live.size, np.inf)  # |log| of the step before last, the last step
    for step in range(_STEP_BUDGET):
        c, f, x, s = coupling[live], floor[live], lam[live], scale[live]
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            system = c * s[:, None, :]  # C S, then S^-1 C S: entries near lam, never huge
            np.divide(system, -s[:, :, None], out=system)
            system.reshape(live.size, k * k)[:, ::k + 1] += x[:, None]  # lam I - S^-1 C S
            z = _solve(system, f / s) * s
            load = (c @ z[..., None])[..., 0]
            top = z.max(axis=1)
            positive = z.min(axis=1) > 0
            scale[live[positive]] = z[positive]
            # (C + f e_i^T) z / z for the UE i at max z bounds lam* below (Collatz-Wielandt).
            bound = np.where(positive, ((load + top[:, None] * f) / z).min(axis=1), x)
            lower[live] = np.fmax(lower[live], bound)
            # Only the full-power point, under the cap in exact arithmetic, may round past it.
            cap = 1.0 + _CAP_SLACK if step == 0 else 1.0
            meets = (x[:, None] * z >= (1.0 - _SINR_SLACK) * (load + f)).all(axis=1)
            ok = positive & (top <= cap) & meets
            upper[live[ok]] = x[ok]
            eta[live[ok]] = z[ok]
            low, high = lower[live], upper[live]
            going = high - low > _CONVERGED * high
            if step == 0:
                certified[live] = ok
                going &= ok
            live, x, z, s, low, high = (live[going], x[going], z[going], s[going], low[going],
                                        high[going])
            if not live.size:
                break
            g = 1.0 / z
            if step == 0:  # Newton: d(1/z)/dlam = w / z^2 with w = (lam I - C)^-1 z
                slope = _solve(system[going], z / s) * s * g * g
            else:
                slope = (g - last_g[going]) / (x - last[going])[:, None]
            guess = (x[:, None] + (1.0 - g) / slope).max(axis=1)
            # A guess at the lower bound lands on the infeasible side: step past half the gap.
            guess = np.maximum(guess, low + 0.5 * _CONVERGED * high)
            # Bisect where the guess leaves the bracket or its step is not half the step
            # before last (Brent), as on a drop whose full-power point is decades above lam*.
            stalled = ~((guess < high) & (np.abs(np.log(guess / x)) <= 0.5 * earlier[going]))
            guess = np.where(stalled, np.sqrt(low) * np.sqrt(high), guess)
            earlier, latest = latest[going], np.abs(np.log(guess / x))
        last, last_g = x, g
        lam[live] = guess
    for row, ok in zip(eta, certified.tolist()):
        if not ok:
            raise BudgetExceededError("no power vector certifies the full-power SINR floor",
                                      guard="max-min power solve")
        yield PowerCoefficients(row)


def max_min_power(beta, gamma, assignment: PilotAssignment, uplink_snr) -> PowerCoefficients:
    """Power vector maximizing the minimum per-user SINR; a stack of one for :func:`max_min_powers`."""
    coupling, floor = power_problem(sinr_terms(beta, gamma, assignment), uplink_snr)
    return next(max_min_powers(coupling[None], floor[None]))
