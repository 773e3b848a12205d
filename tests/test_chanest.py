import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpilot.chanest import PilotAssignment, correlation_matrix, estimation_quality
from cfpilot.assignment import oracle_assignment, random_assignment
from cfpilot.config import SimConfig
from cfpilot.topology import generate_realization, pilot_snr


def test_pilot_correlation_examples():
    p = PilotAssignment(np.array([0, 0, 1]))
    assert correlation_matrix(p).tolist() == [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    oracle = PilotAssignment(np.array([0, 0, 1]), oracle=True)
    assert correlation_matrix(oracle).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_single_link_hand_value():
    # one AP, one UE, beta = 1, tau_p * rho_p = 1: c = 1/2, gamma = 1/2
    beta = np.array([[1.0]])
    quality = estimation_quality(beta, PilotAssignment(np.array([0])), 1, 1.0)
    assert quality.c[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert quality.gamma[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_copilot_pair_hand_value():
    # two co-pilot UEs with equal beta = 1 and tau_p * rho_p = 1: gamma = 1/3 each
    beta = np.ones((1, 2))
    quality = estimation_quality(beta, PilotAssignment(np.array([0, 0])), 1, 1.0)
    assert quality.gamma[0, 0] == pytest.approx(1 / 3, rel=1e-12)
    assert quality.gamma[0, 1] == pytest.approx(1 / 3, rel=1e-12)


def test_vanishing_channel_gives_vanishing_estimate():
    beta = np.array([[1e-30, 1.0]])
    quality = estimation_quality(beta, PilotAssignment(np.array([0, 1])), 2, 1e12)
    assert quality.gamma[0, 0] < 1e-25
    assert quality.gamma[0, 0] > 0


def test_gamma_bounded_by_beta_on_random_instances():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        beta = 10 ** rng.uniform(-14, -8, size=(6, 5))
        p = PilotAssignment(rng.integers(0, 3, size=5))
        quality = estimation_quality(beta, p, 3, 1.4e11)
        assert np.all(quality.gamma > 0)
        assert np.all(quality.gamma <= beta)


def test_gamma_approaches_beta_without_copilots():
    beta = np.array([[2e-10, 5e-11]])
    p = PilotAssignment(np.array([0, 1]))
    quality = estimation_quality(beta, p, 2, 1e20)
    np.testing.assert_allclose(quality.gamma, beta, rtol=1e-6)


def test_removing_copilot_interferer_never_hurts():
    # reassigning one of two co-pilot UEs to a free pilot should not lower the
    # other UE's estimation quality
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        beta = 10 ** rng.uniform(-14, -8, size=(4, 3))
        shared = PilotAssignment(np.array([0, 0, 1]))
        apart = PilotAssignment(np.array([0, 2, 1]))
        g_shared = estimation_quality(beta, shared, 3, 1.4e11).gamma
        g_apart = estimation_quality(beta, apart, 3, 1.4e11).gamma
        assert np.all(g_apart[:, 0] >= g_shared[:, 0] - 1e-30)


def test_oracle_matches_interference_free_formula():
    rng = np.random.default_rng(3)
    beta = 10 ** rng.uniform(-13, -9, size=(5, 4))
    train = 4 * 2.5e10
    quality = estimation_quality(beta, oracle_assignment(4), 4, 2.5e10)
    expected = train * beta ** 2 / (train * beta + 1.0)
    np.testing.assert_allclose(quality.gamma, expected, rtol=1e-12)


def test_dimension_mismatch_rejected():
    beta = np.ones((2, 3))
    with pytest.raises(ValueError):
        estimation_quality(beta, PilotAssignment(np.array([0, 1])), 2, 1.0)
    with pytest.raises(ValueError):
        estimation_quality(beta, PilotAssignment(np.array([0, 1, 2])), 2, 1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gamma_bounds_on_generated_topologies(seed):
    cfg = SimConfig(num_aps=8, num_ues=6, num_pilots=2, seed=seed)
    real = generate_realization(cfg, 0)
    p = random_assignment(6, 2, seed)
    quality = estimation_quality(real.beta, p, 2, pilot_snr(cfg))
    assert np.all(quality.gamma > 0)
    assert np.all(quality.gamma <= real.beta)
