import numpy as np
import pytest

import cfpilot.power_control as power_control
from cfpilot.assignment import random_assignment
from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.config import SimConfig
from cfpilot.errors import BudgetExceededError
from cfpilot.power_control import (PowerCoefficients, full_power, max_min_power, max_min_powers,
                                   power_problem)
from cfpilot.rate_model import sinr_terms, uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr
from reference import maxmin_optimum


def instance(seed, m=8, k=4, tp=2, oracle=False, shadowing_sigma=4.0):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed, shadowing_sigma=shadowing_sigma)
    real = generate_realization(cfg, 0)
    p = PilotAssignment(np.arange(k), oracle=True) if oracle else random_assignment(k, tp, seed)
    gamma = estimation_quality(real.beta, p, tp, pilot_snr(cfg)).gamma
    return real.beta, p, gamma, uplink_snr(cfg)


def problem(seed, **kwargs):
    beta, p, gamma, rho = instance(seed, **kwargs)
    return power_problem(sinr_terms(beta, gamma, p), rho)


def sinr_of(coupling, floor, eta):
    return eta / (coupling @ eta + floor)


def assert_certified(coupling, floor, eta):
    """eta lies in [0, 1], equalizes every SINR within 1e-9 and does not exceed t*; returns t*."""
    optimum = maxmin_optimum(coupling, floor)
    sinr = sinr_of(coupling, floor, eta)
    assert eta.min() >= 0.0 and eta.max() <= 1.0
    assert sinr.min() >= (1.0 - 1e-9) * sinr.max()
    assert sinr.min() <= optimum * (1.0 + 1e-12)
    return optimum


def solves_of(monkeypatch, coupling, floor):
    """Linear systems one instance solves alone."""
    count = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: count.append(len(a)) or solve(a, b))
    with np.errstate(all="ignore"):
        next(max_min_powers(coupling[None], floor[None]))
    monkeypatch.setattr(np.linalg, "solve", solve)
    return sum(count)


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
    # Full power is optimal; its solve puts UE 1 at 1 + 2.2e-16, inside the cap slack.
    coupling, floor = np.array([[0.0, 0.2], [0.2, 0.0]]), np.ones(2)
    system = 1.2 * np.eye(2) - coupling
    assert np.linalg.solve(system[None], floor[None, :, None]).max() > 1.0
    assert next(max_min_powers(coupling[None], floor[None])).eta.tolist() == [1.0, 1.0]


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
        assert sinr.max() - sinr.min() <= 1e-9 * sinr.min()


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
        assert best >= uplink_sinr(beta, gamma, p, eta, rho).min() * (1 - 1e-12)


@pytest.mark.parametrize("m,k,tp,count", [(100, 40, 10, 80), (300, 40, 10, 60),
                                          (50, 12, 3, 100), (8, 4, 2, 120)])
def test_lock_step_matches_eigvals_reference_bitwise(m, k, tp, count):
    # Lock-step and one-at-a-time vectors agree bit for bit, and the common SINR is
    # within 1e-11 of the eigvals reference t*.
    problems = [problem(1000 + trial, m=m, k=k, tp=tp, oracle=trial % 5 == 4)
                for trial in range(count)]
    coupling = np.stack([c for c, _ in problems])
    floor = np.stack([f for _, f in problems])
    for trial, coeffs in enumerate(max_min_powers(coupling, floor)):
        single = next(max_min_powers(coupling[trial:trial + 1], floor[trial:trial + 1])).eta
        assert coeffs.eta.tobytes() == single.tobytes(), trial
        optimum = assert_certified(*problems[trial], coeffs.eta)
        common = sinr_of(*problems[trial], coeffs.eta).min()
        assert common >= optimum * (1.0 - 1e-11), trial


def test_stack_mixing_convergence_steps_matches_one_at_a_time(monkeypatch):
    # Symmetric UEs stop at the full-power point, a zero target never solves, and the
    # drops take different numbers of steps; none of it reaches another row of the stack.
    problems = [problem(seed, oracle=seed % 2 == 1, shadowing_sigma=sigma)
                for seed in range(6) for sigma in (4.0, 8.0, 12.0)]
    problems.insert(3, (np.full((4, 4), 0.1) - 0.1 * np.eye(4), np.ones(4)))
    problems.insert(7, (np.full((4, 4), 1e308), np.ones(4)))
    steps = {solves_of(monkeypatch, *p) for p in problems}
    assert {0, 1} < steps and len(steps) >= 4
    coupling = np.stack([c for c, _ in problems])
    floor = np.stack([f for _, f in problems])
    with np.errstate(all="ignore"):
        stacked = [p.eta for p in max_min_powers(coupling, floor)]
        singles = [next(max_min_powers(c[None], f[None])).eta for c, f in problems]
    assert [e.tobytes() for e in stacked] == [e.tobytes() for e in singles]
    np.testing.assert_allclose(stacked[3], 1.0, rtol=1e-15)
    assert not stacked[7].any()


def test_step_budget_returns_the_full_power_point(monkeypatch):
    # The full-power point z(lam0) already puts every UE at the full-power minimum SINR.
    coupling, floor = problem(3, m=20, k=6, tp=2)
    full = sinr_of(coupling, floor, np.ones(6)).min()
    monkeypatch.setattr(power_control, "_STEP_BUDGET", 1)
    eta = next(max_min_powers(coupling[None], floor[None])).eta
    np.testing.assert_allclose(sinr_of(coupling, floor, eta), full, rtol=1e-12)
    assert eta.max() < 1.0


@pytest.mark.parametrize("shadowing_sigma", [60.0, 150.0, 300.0])
def test_badly_scaled_instances_match_eigvals_reference(shadowing_sigma):
    # Gains spread over hundreds of decades, and so do the powers. Every drop's vector lies
    # in [0, 1], equalizes the SINRs within 1e-9 and reaches t* within 1e-9. Plain eigvals
    # is accurate only relative to the largest entry, so t* is taken from each rank-one
    # matrix balanced by the returned powers, a similarity: unbalanced, trial 4 at 300 dB
    # reads t* 5.5e-9 below the SINR that the returned vector itself achieves.
    for trial in range(24):
        with np.errstate(all="ignore"):
            coupling, floor = problem(trial, m=20, k=8, tp=3, oracle=trial % 2 == 1,
                                      shadowing_sigma=shadowing_sigma)
            if not (np.isfinite(coupling).all() and np.isfinite(floor).all()):
                continue
            eta = next(max_min_powers(coupling[None], floor[None])).eta
            sinr = sinr_of(coupling, floor, eta)
            full = sinr_of(coupling, floor, np.ones(floor.size)).min()
            optimum = maxmin_optimum(coupling, floor, balance=eta)
        assert eta.min() > 0.0 and eta.max() <= 1.0, trial
        assert sinr.min() >= full and sinr.min() >= (1.0 - 1e-9) * sinr.max(), trial
        assert abs(sinr.min() - optimum) <= 1e-9 * optimum, trial


def test_spurious_negative_entry_of_an_inaccurate_solve_does_not_reject():
    # At shadowing 300 dB this drop's powers span decades; solved in the basis scaled by
    # the last powers, its result is still t* within 1e-9, with equal SINRs.
    beta, p, gamma, rho = instance(11, m=6, k=4, tp=2, oracle=True, shadowing_sigma=300.0)
    coupling, floor = power_problem(sinr_terms(beta, gamma, p), rho)
    with np.errstate(all="ignore"):
        eta = max_min_power(beta, gamma, p, rho).eta
        optimum = maxmin_optimum(coupling, floor)
    sinr = sinr_of(coupling, floor, eta)
    assert eta.min() >= 0.0 and eta.max() <= 1.0
    assert sinr.min() >= (1.0 - 1e-9) * sinr.max()
    assert abs(sinr.min() - optimum) <= 1e-9 * optimum


def two_by_two(spectral_radius):
    """Coupling c * ones((2, 2)), whose spectral radius is 2c, and a unit floor."""
    return np.full((2, 2), spectral_radius / 2), np.ones(2)


def test_zero_target_is_judged_as_in_the_reference():
    # Row sums overflow, so the full-power target is 0, as is the reference t*: eta = 0.
    coupling, floor = np.full((2, 2), 1e308), np.ones(2)
    with np.errstate(all="ignore"):
        assert maxmin_optimum(coupling, floor) == 0.0
        got = next(max_min_powers(coupling[None], floor[None])).eta
    assert not got.any()


def test_uncertified_floor_raises_at_its_instance():
    # A NaN floor leaves no target certifiable; the instance before it is unaffected.
    coupling, floor = two_by_two(0.5)
    powers = max_min_powers(np.stack([coupling, coupling]), np.stack([floor, np.full(2, np.nan)]))
    assert next(powers).eta.shape == (2,)
    with pytest.raises(BudgetExceededError, match="full-power SINR floor"):
        next(powers)


def test_full_power_point_that_underflows_is_rejected_not_certified():
    # z(lam_0) of UE 0 lies below the smallest double, so its solve cannot certify the
    # full-power point; an eigvals bisection certified SINR 0.4996 here.
    coupling = np.array([[1.0, 1e200], [0.0, 1.0]])
    floor = np.array([1e-200, 1e-200])
    with pytest.raises(BudgetExceededError, match="full-power SINR floor") as raised:
        next(max_min_powers(coupling[None], floor[None]))
    assert raised.value.guard == "max-min power solve"
