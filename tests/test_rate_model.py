import numpy as np
import pytest

from cfpilot.assignment import oracle_assignment, random_assignment
from cfpilot.chanest import PilotAssignment, estimation_quality
from cfpilot.config import SimConfig
from cfpilot.power_control import max_min_power
from cfpilot.rate_model import sinr_terms, throughput, uplink_sinr
from cfpilot.topology import generate_realization, pilot_snr, uplink_snr
from reference import sum_rate
from validator import validate_sinr_empirically


def small_instance(seed, m=6, k=4, tp=2):
    cfg = SimConfig(num_aps=m, num_ues=k, num_pilots=tp, seed=seed)
    real = generate_realization(cfg, 0)
    p = random_assignment(k, tp, seed)
    gamma = estimation_quality(real.beta, p, tp, pilot_snr(cfg)).gamma
    return cfg, real.beta, p, gamma


def test_single_ue_reduction():
    # K = 1 closed form: rho * G^2 / (rho * sum_m gamma_m beta_m + G)
    rng = np.random.default_rng(0)
    beta = 10 ** rng.uniform(-12, -9, size=(5, 1))
    p = PilotAssignment(np.array([0]))
    gamma = estimation_quality(beta, p, 1, 2e11).gamma
    rho = 1.4e11
    got = uplink_sinr(beta, gamma, p, np.ones(1), rho)
    total = gamma.sum()
    expected = rho * total ** 2 / (rho * (gamma[:, 0] * beta[:, 0]).sum() + total)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_zero_power_zero_sinr():
    cfg, beta, p, gamma = small_instance(1)
    sinr = uplink_sinr(beta, gamma, p, np.zeros(4), uplink_snr(cfg))
    assert np.all(sinr == 0)


def test_symmetric_ues_equal_sinr():
    beta = np.full((3, 2), 2e-10)
    p = PilotAssignment(np.array([0, 1]))
    gamma = estimation_quality(beta, p, 2, 1e11).gamma
    sinr = uplink_sinr(beta, gamma, p, np.ones(2), 1e11)
    assert sinr[0] == pytest.approx(sinr[1], rel=1e-12)


def test_throughput_hand_values():
    cfg = SimConfig(num_aps=1, num_ues=1, num_pilots=10, coherence_len=200)
    assert throughput(3.0, cfg) == pytest.approx(19.0e6, rel=1e-12)
    assert throughput(0.0, cfg) == 0.0
    full_overhead = SimConfig(num_aps=1, num_ues=1, num_pilots=200, coherence_len=200)
    assert throughput(100.0, full_overhead) == 0.0


def test_sum_rate_single_ue_matches_rate():
    cfg, beta, p, gamma = small_instance(2, k=1, tp=1)
    rho = uplink_snr(cfg)
    sinr = uplink_sinr(beta, gamma, p, np.ones(1), rho)
    assert sum_rate(beta, gamma, p, np.ones(1), rho) == pytest.approx(np.log2(1 + sinr[0]))


def test_sum_rate_invariant_under_relabeling():
    cfg, beta, p, gamma = small_instance(3, k=5, tp=2)
    rho = uplink_snr(cfg)
    eta = np.random.default_rng(3).uniform(0.2, 1.0, 5)
    perm = np.array([3, 1, 4, 0, 2])
    permuted = PilotAssignment(p.p[perm])
    value = sum_rate(beta, gamma, p, eta, rho)
    value_perm = sum_rate(beta[:, perm], gamma[:, perm], permuted, eta[perm], rho)
    assert value == pytest.approx(value_perm, rel=1e-12)


def test_own_power_monotonicity():
    for trial in range(50):
        cfg, beta, p, gamma = small_instance(100 + trial)
        rho = uplink_snr(cfg)
        rng = np.random.default_rng(trial)
        eta = rng.uniform(0.1, 0.9, 4)
        k = int(rng.integers(0, 4))
        bumped = eta.copy()
        bumped[k] = min(1.0, eta[k] * 1.2)
        before = uplink_sinr(beta, gamma, p, eta, rho)
        after = uplink_sinr(beta, gamma, p, bumped, rho)
        assert after[k] > before[k]
        others = np.arange(4) != k
        assert np.all(after[others] <= before[others] + 1e-15)


def test_uniform_scaling_never_helps():
    for trial in range(50):
        cfg, beta, p, gamma = small_instance(200 + trial)
        rho = uplink_snr(cfg)
        rng = np.random.default_rng(trial)
        eta = rng.uniform(0.2, 1.0, 4)
        alpha = rng.uniform(0.1, 0.99)
        base = uplink_sinr(beta, gamma, p, eta, rho)
        scaled = uplink_sinr(beta, gamma, p, alpha * eta, rho)
        assert np.all(scaled <= base + 1e-15)


def test_max_min_value_oracle_dominance():
    # The contamination-free assignment's max-min operating point dominates a
    # contaminated one on the same topology. Cleaning up estimates can pull in
    # extra combined interference, so dominance is statistical: strict on all
    # but ~1/1000 instances and never short by more than ~1% (measured).
    strict = 0
    for trial in range(100):
        cfg = SimConfig(num_aps=12, num_ues=6, num_pilots=2, seed=trial)
        real = generate_realization(cfg, 0)
        rho_p, rho_u = pilot_snr(cfg), uplink_snr(cfg)
        p = random_assignment(6, 2, trial)
        po = oracle_assignment(6)
        g = estimation_quality(real.beta, p, 2, rho_p).gamma
        go = estimation_quality(real.beta, po, 2, rho_p).gamma
        v = uplink_sinr(real.beta, g, p, max_min_power(real.beta, g, p, rho_u).eta, rho_u).min()
        vo = uplink_sinr(real.beta, go, po, max_min_power(real.beta, go, po, rho_u).eta, rho_u).min()
        assert vo >= v * (1 - 0.02)
        strict += int(vo >= v * (1 - 1e-3))
    assert strict >= 99


def test_sinr_terms_nonnegative_and_gated():
    cfg, beta, p, gamma = small_instance(5, k=5, tp=2)
    terms = sinr_terms(beta, gamma, p)
    assert np.all(terms.signal >= 0)
    assert np.all(terms.copilot >= 0)
    assert np.all(terms.uncorrelated >= 0)
    assert np.all(np.diag(terms.copilot) == 0)
    same = p.p[:, None] == p.p[None, :]
    assert np.all(terms.copilot[~same] == 0)


def test_validator_matches_closed_form():
    hits = 0
    for trial in range(10):
        cfg = SimConfig(num_aps=4, num_ues=2, num_pilots=2, seed=trial)
        rng = np.random.default_rng(trial)
        beta = 10 ** rng.uniform(-13, -9, size=(4, 2))
        p = PilotAssignment(rng.integers(0, 2, size=2))
        gamma = estimation_quality(beta, p, 2, pilot_snr(cfg)).gamma
        closed = uplink_sinr(beta, gamma, p, np.ones(2), uplink_snr(cfg))
        empirical = validate_sinr_empirically(beta, p, cfg, 100_000, seed=trial)
        if np.all(np.abs(empirical.sinr - closed) / closed < 0.05):
            hits += 1
    assert hits >= 9


def test_validator_copilot_power_positive():
    cfg = SimConfig(num_aps=4, num_ues=2, num_pilots=2, seed=0)
    beta = np.full((4, 2), 1e-10)
    shared = PilotAssignment(np.array([0, 0]))
    empirical = validate_sinr_empirically(beta, shared, cfg, 20_000, seed=1)
    assert np.all(empirical.copilot_total > 0)
    assert np.all(empirical.copilot_coherent > 0)


def test_validator_oracle_coherent_term_at_noise_floor():
    cfg = SimConfig(num_aps=4, num_ues=2, num_pilots=2, seed=0)
    rng = np.random.default_rng(9)
    beta = 10 ** rng.uniform(-12, -10, size=(4, 2))
    empirical = validate_sinr_empirically(beta, oracle_assignment(2), cfg, 100_000, seed=2)
    # coherent co-pilot power vanishes up to Monte Carlo noise
    assert np.all(empirical.copilot_coherent < empirical.copilot_total / 100)


def test_validator_low_sample_warning():
    cfg = SimConfig(num_aps=2, num_ues=2, num_pilots=2, seed=0)
    beta = np.full((2, 2), 1e-10)
    p = PilotAssignment(np.array([0, 1]))
    assert validate_sinr_empirically(beta, p, cfg, 500, seed=0).low_sample_warning
    assert not validate_sinr_empirically(beta, p, cfg, 2000, seed=0).low_sample_warning


def test_eta_validation():
    cfg, beta, p, gamma = small_instance(6)
    with pytest.raises(ValueError):
        uplink_sinr(beta, gamma, p, np.full(4, 1.5), uplink_snr(cfg))
    with pytest.raises(ValueError):
        uplink_sinr(beta, gamma, p, np.ones(3), uplink_snr(cfg))
