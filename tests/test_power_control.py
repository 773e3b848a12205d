import numpy as np
import pytest

from cfpilot.assignment import random_assignment
from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.config import SimConfig
from cfpilot.errors import BudgetExceededError
from cfpilot.power_control import (BISECTION_BUDGET, BISECTION_TOL, PowerCoefficients, _judge,
                                   full_power, max_min_power, max_min_powers, power_problem)
from cfpilot.rate_model import sinr_terms, uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr


def instance(seed, m=8, k=4, tp=2, oracle=False, shadowing_sigma=4.0):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed, shadowing_sigma=shadowing_sigma)
    real = generate_realization(cfg, 0)
    p = PilotAssignment(np.arange(k), oracle=True) if oracle else random_assignment(k, tp, seed)
    gamma = estimation_quality(real.beta, p, tp, pilot_snr(cfg)).gamma
    return real.beta, p, gamma, uplink_snr(cfg)


def reference_solve_target(coupling, floor, target, spectral_radius):
    """The per-instance step the lock-step bisection replaces: eigvals, then one solve."""
    if target * spectral_radius >= 1.0 - 1e-9:
        return None, False
    eye = np.eye(floor.size)
    eta = np.linalg.solve(eye - target * coupling, target * floor)
    return eta, bool(eta.max() <= 1.0 + 1e-9)


def reference_max_min_power(coupling, floor, tol=BISECTION_TOL):
    """The per-instance max-min bisection with a dense eigvals spectral test."""
    spectral_radius = float(np.abs(np.linalg.eigvals(coupling)).max())
    ones = np.ones_like(floor)
    target_lo = float((1.0 / (coupling @ ones + floor)).min())
    target_hi = float((1.0 / (coupling.diagonal() + floor)).min())
    best_eta, feasible = reference_solve_target(coupling, floor, target_lo, spectral_radius)
    if not feasible:
        raise BudgetExceededError("no power vector certifies the full-power SINR floor",
                                  guard="max-min power solve")
    for _ in range(BISECTION_BUDGET):
        if target_hi <= target_lo * (1.0 + tol):
            break
        target_mid = float(np.sqrt(target_lo * target_hi))
        eta, feasible = reference_solve_target(coupling, floor, target_mid, spectral_radius)
        if feasible:
            target_lo = target_mid
            best_eta = eta
        else:
            target_hi = target_mid
    return PowerCoefficients(best_eta)


def judge_one(coupling, floor, target):
    """Feasibility of one target for one instance through the lock-step judge."""
    _, feasible = _judge(coupling[None], floor[None], [0], np.array([target]), np.full(1, np.nan))
    return bool(feasible[0])


def forbid_eigvals(monkeypatch):
    def eigvals(_):
        raise AssertionError("eigvals called on a step the solve certifies")
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)


def test_full_power():
    assert full_power(3).eta.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        full_power(0)


def test_power_coefficients_bounds():
    with pytest.raises(ValueError):
        PowerCoefficients(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        PowerCoefficients(np.array([-0.2]))


def test_step_inside_the_cap_slack_is_clipped_not_rejected():
    # The first midpoint's power vector exceeds the unit cap by 5.0e-10, inside the cap slack.
    coupling, floor = np.array([[0.0, 0.3], [0.2, 0.0]]), np.array([1.0, 0.33274858506953986])
    got = next(max_min_powers(coupling[None], floor[None])).eta
    assert got.max() == 1.0
    assert got.tobytes() == reference_max_min_power(coupling, floor).eta.tobytes()


def test_single_ue_transmits_at_full_power():
    beta, p, gamma, rho = instance(0, k=1, tp=1)
    coeffs = max_min_power(beta, gamma, p, rho)
    np.testing.assert_allclose(coeffs.eta, [1.0], rtol=1e-9)


def test_symmetric_ues_get_equal_power_and_sinr():
    beta = np.full((4, 2), 3e-11)
    p = PilotAssignment(np.array([0, 1]))
    gamma = estimation_quality(beta, p, 2, 1e11).gamma
    coeffs = max_min_power(beta, gamma, p, 1e11)
    assert coeffs.eta[0] == pytest.approx(coeffs.eta[1], rel=1e-9)
    sinr = uplink_sinr(beta, gamma, p, coeffs.eta, 1e11)
    assert sinr[0] == pytest.approx(sinr[1], rel=1e-9)


def test_solution_equalizes_sinrs():
    for trial in range(30):
        beta, p, gamma, rho = instance(trial)
        sinr = uplink_sinr(beta, gamma, p, max_min_power(beta, gamma, p, rho).eta, rho)
        assert sinr.max() - sinr.min() <= 1e-6 * sinr.min()


def test_eta_always_in_unit_interval():
    for trial in range(100):
        beta, p, gamma, rho = instance(trial, k=5, tp=2)
        eta = max_min_power(beta, gamma, p, rho).eta
        assert np.all(eta >= 0) and np.all(eta <= 1)
        assert eta.max() > 0.5  # someone is near the cap at the optimum


def test_dominates_full_power():
    for trial in range(100):
        beta, p, gamma, rho = instance(200 + trial, k=5, tp=2)
        maxmin = uplink_sinr(beta, gamma, p, max_min_power(beta, gamma, p, rho).eta, rho)
        full = uplink_sinr(beta, gamma, p, np.ones(5), rho)
        assert maxmin.min() >= full.min() * (1 - 1e-9)


def test_dominates_random_feasible_vectors():
    beta, p, gamma, rho = instance(7)
    best = uplink_sinr(beta, gamma, p, max_min_power(beta, gamma, p, rho).eta, rho).min()
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        eta = rng.uniform(0, 1, size=4)
        assert best >= uplink_sinr(beta, gamma, p, eta, rho).min() * (1 - 2e-3)


def test_feasibility_monotone_in_target():
    for trial in range(20):
        beta, p, gamma, rho = instance(300 + trial)
        coupling, floor = power_problem(sinr_terms(beta, gamma, p), rho)
        lo = float((1.0 / (coupling @ np.ones(4) + floor)).min())
        targets = np.geomspace(lo / 4, lo * 64, 25)
        # every target judged in one lock-step stack of copies of the instance
        _, feasible = _judge(np.repeat(coupling[None], 25, axis=0),
                             np.repeat(floor[None], 25, axis=0), range(25), targets,
                             np.full(25, np.nan))
        flags = feasible.tolist()
        # once infeasible, always infeasible
        assert flags == sorted(flags, reverse=True)


@pytest.mark.parametrize("m,k,tp,count", [(100, 40, 10, 80), (300, 40, 10, 60),
                                          (50, 12, 3, 100), (8, 4, 2, 120)])
def test_lock_step_matches_eigvals_reference_bitwise(m, k, tp, count):
    problems = []
    for trial in range(count):
        beta, p, gamma, rho = instance(1000 + trial, m=m, k=k, tp=tp, oracle=trial % 5 == 4)
        problems.append(power_problem(sinr_terms(beta, gamma, p), rho))
        single = max_min_power(beta, gamma, p, rho).eta
        assert single.tobytes() == reference_max_min_power(*problems[-1]).eta.tobytes(), trial
    coupling = np.stack([c for c, _ in problems])
    floor = np.stack([f for _, f in problems])
    for trial, coeffs in enumerate(max_min_powers(coupling, floor)):
        expected = reference_max_min_power(*problems[trial]).eta
        assert coeffs.eta.tobytes() == expected.tobytes(), trial


def outcome(solve):
    """Power vector bytes, or the error a solve raised."""
    try:
        return solve().eta.tobytes()
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("shadowing_sigma", [60.0, 150.0, 300.0])
def test_badly_scaled_instances_match_eigvals_reference(shadowing_sigma):
    # Gains spread over hundreds of decades: solves lose componentwise accuracy, and their
    # sign or Collatz-Wielandt proofs no longer hold, so such steps must fall back to eigvals.
    for trial in range(24):
        beta, p, gamma, rho = instance(trial, m=20, k=8, tp=3, oracle=trial % 2 == 1,
                                       shadowing_sigma=shadowing_sigma)
        coupling, floor = power_problem(sinr_terms(beta, gamma, p), rho)
        if not (np.isfinite(coupling).all() and np.isfinite(floor).all()):
            continue
        with np.errstate(all="ignore"):
            expected = outcome(lambda: reference_max_min_power(coupling, floor))
            got = outcome(lambda: next(max_min_powers(coupling[None], floor[None])))
        assert got == expected, trial


def test_spurious_negative_entry_of_an_inaccurate_solve_does_not_reject():
    # At shadowing 300 dB this drop's solve returns a tiny negative entry at t * rho ~ 1e-37.
    beta, p, gamma, rho = instance(11, m=6, k=4, tp=2, oracle=True, shadowing_sigma=300.0)
    coupling, floor = power_problem(sinr_terms(beta, gamma, p), rho)
    with np.errstate(all="ignore"):
        expected = reference_max_min_power(coupling, floor).eta
        assert judge_one(coupling, floor, 5.4e-38)
        assert max_min_power(beta, gamma, p, rho).eta.tobytes() == expected.tobytes()


def two_by_two(spectral_radius):
    """Coupling c * ones((2, 2)), whose spectral radius is 2c, and a unit floor."""
    return np.full((2, 2), spectral_radius / 2), np.ones(2)


def test_step_near_the_spectral_bound_falls_back_to_eigvals_and_rejects(monkeypatch):
    coupling, floor = two_by_two(0.5)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
    assert not judge_one(coupling, floor, (1.0 - 1e-10) / 0.5)
    assert len(calls) == 1


def test_step_inside_the_spectral_bound_is_certified_without_eigvals(monkeypatch):
    # 1 - t * rho = 1e-3; x = t * f / 1e-3, so the floor scale sets which side of the cap x lands.
    forbid_eigvals(monkeypatch)
    coupling, floor = two_by_two(0.5)
    target = (1.0 - 1e-3) / 0.5
    assert judge_one(coupling, floor * 0.25e-3, target)
    assert not judge_one(coupling, floor * 1e-3, target)


def test_step_beyond_the_spectral_bound_is_rejected_without_eigvals(monkeypatch):
    forbid_eigvals(monkeypatch)
    coupling, floor = two_by_two(0.5)
    assert not judge_one(coupling, floor, 1.5 / 0.5)


def test_zero_target_is_judged_as_in_the_reference():
    # Row sums overflow, so the full-power target is 0 and t * f = 0 proves nothing:
    # the zero power vector there is feasible, as in the reference, not rejected.
    coupling, floor = np.full((2, 2), 1e308), np.ones(2)
    with np.errstate(all="ignore"):
        expected = reference_max_min_power(coupling, floor).eta
        got = next(max_min_powers(coupling[None], floor[None])).eta
    assert got.tobytes() == expected.tobytes() and not got.any()


def test_uncertified_floor_raises_at_its_instance():
    # A NaN floor leaves no target certifiable; the instance before it is unaffected.
    coupling, floor = two_by_two(0.5)
    powers = max_min_powers(np.stack([coupling, coupling]), np.stack([floor, np.full(2, np.nan)]))
    assert next(powers).eta.shape == (2,)
    with pytest.raises(BudgetExceededError, match="full-power SINR floor"):
        next(powers)
