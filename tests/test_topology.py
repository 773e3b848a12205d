import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpilot.config import SimConfig
from cfpilot.errors import ConfigError
from cfpilot.topology import (AP_UE_HEIGHT_GAP_M, generate_realization, large_scale_coefficient,
                              noise_power, pilot_snr, realization_seed, uplink_snr, wrap_distance)


def test_wrap_distance_examples():
    assert wrap_distance((0, 0), (500, 0), 1000) == pytest.approx(500.0)
    assert wrap_distance((0, 0), (999, 0), 1000) == pytest.approx(1.0)
    assert wrap_distance((0, 0), (999, 999), 1000) == pytest.approx(np.sqrt(2.0))


points = st.tuples(st.floats(0, 999.999), st.floats(0, 999.999))


@given(a=points, b=points)
@settings(max_examples=200)
def test_wrap_distance_symmetric_and_bounded(a, b):
    d_ab = float(wrap_distance(a, b, 1000))
    d_ba = float(wrap_distance(b, a, 1000))
    assert d_ab == pytest.approx(d_ba, rel=1e-12, abs=1e-9)
    plain = float(np.hypot(a[0] - b[0], a[1] - b[1]))
    assert d_ab <= plain + 1e-9
    assert d_ab <= 1000 * np.sqrt(2) / 2 + 1e-9


@given(a=points)
def test_wrap_distance_self_zero(a):
    assert float(wrap_distance(a, a, 1000)) == 0.0


def test_wrap_distance_broadcasts_pairwise():
    ap = np.array([[0.0, 0.0], [10.0, 0.0]])
    ue = np.array([[0.0, 0.0], [999.0, 0.0], [500.0, 0.0]])
    d = wrap_distance(ap[:, None, :], ue[None, :, :], 1000)
    assert d.shape == (2, 3)
    assert d[0, 1] == pytest.approx(1.0)
    assert d[1, 2] == pytest.approx(490.0)


def _wrap_distance_nine_shifts(a, b, side):
    """Reference: minimum over all nine translated copies of ``b``."""
    shifts = np.array([(dx, dy) for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0)])
    delta = a[..., None, :] - (b[..., None, :] + side * shifts)
    return np.sqrt((delta ** 2).sum(axis=-1)).min(axis=-1)


@pytest.mark.parametrize("side", [1000.0, 1.0, 333.3])
def test_wrap_distance_matches_nine_shift_minimum_bitwise(side):
    rng = np.random.default_rng(20)
    random_pts = rng.uniform(0.0, side, size=(300, 2))
    lattice = np.array([(x, y) for x in range(5) for y in range(5)]) * (side / 4)
    for pts in (random_pts, lattice, np.vstack([random_pts[:40], lattice])):
        a, b = pts[:, None, :], pts[None, :, :]
        assert np.array_equal(wrap_distance(a, b, side), _wrap_distance_nine_shifts(a, b, side))


def test_wrap_distance_of_single_points_matches_nine_shift_minimum_bitwise():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, 1000.0, size=(4000, 2))
    for a, b in zip(pts[:2000], pts[2000:]):
        assert wrap_distance(a, b, 1000.0) == _wrap_distance_nine_shifts(a, b, 1000.0)


@pytest.mark.parametrize("num_aps,num_ues", [(50, 12), (100, 40), (200, 40), (300, 40)])
def test_realization_beta_matches_nine_shift_reference_bitwise(num_aps, num_ues):
    cfg = base_config(num_aps=num_aps, num_ues=num_ues, num_pilots=3, seed=2022)
    for index in (0, 5):
        rng = np.random.default_rng(realization_seed(cfg.seed, index))
        ap = rng.uniform(0.0, cfg.area_side, size=(num_aps, 2))
        ue = rng.uniform(0.0, cfg.area_side, size=(num_ues, 2))
        shadow_db = rng.normal(0.0, cfg.shadowing_sigma, size=(num_aps, num_ues))
        d2 = _wrap_distance_nine_shifts(ap[:, None, :], ue[None, :, :], cfg.area_side)
        beta = large_scale_coefficient(np.hypot(d2, AP_UE_HEIGHT_GAP_M), shadow_db)
        assert np.array_equal(generate_realization(cfg, index).beta, beta)


def test_pathloss_hand_values():
    # 10 ** ((-30.5 - 36.7 * log10(d)) / 10) at d = 1 and d = 10
    assert large_scale_coefficient(1.0) == pytest.approx(8.912509381337456e-04, rel=1e-12)
    assert large_scale_coefficient(10.0) == pytest.approx(1.9054607179632474e-07, rel=1e-12)
    assert large_scale_coefficient(1.0, 10.0) == pytest.approx(10 * large_scale_coefficient(1.0), rel=1e-12)


def test_pathloss_monotone_in_distance():
    grid = np.arange(1.0, 1401.0)
    values = large_scale_coefficient(grid)
    assert np.all(np.diff(values) < 0)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        large_scale_coefficient(0.0)
    with pytest.raises(ValueError):
        large_scale_coefficient(np.array([1.0, -2.0]))


def base_config(**kwargs):
    defaults = dict(num_aps=100, num_ues=40, num_pilots=10, realizations=1, seed=7)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def test_noise_power_values():
    cfg = base_config()
    assert noise_power(cfg) == pytest.approx(7.20882e-13, rel=1e-6)
    assert noise_power(base_config(noise_figure=1.0)) == pytest.approx(8.0098e-14, rel=1e-6)


def test_normalized_snrs():
    cfg = base_config()
    assert pilot_snr(cfg) == pytest.approx(0.1 / noise_power(cfg))
    assert uplink_snr(cfg) == pytest.approx(0.1 / noise_power(cfg))


def test_config_invariants_rejected():
    with pytest.raises(ConfigError):
        base_config(bandwidth=0.0)
    with pytest.raises(ConfigError):
        base_config(num_pilots=0)
    with pytest.raises(ConfigError):
        base_config(num_pilots=300, coherence_len=200)
    with pytest.raises(ConfigError):
        base_config(num_aps=0)
    with pytest.raises(ConfigError):
        base_config(pilot_tx_power=-0.1)
    for name in ("bandwidth", "noise_figure", "shadowing_sigma"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="finite"):
                base_config(**{name: value})


def test_realization_shapes_and_positivity():
    cfg = base_config()
    real = generate_realization(cfg, 0)
    assert real.beta.shape == (100, 40)
    assert np.all(real.beta > 0) and np.all(np.isfinite(real.beta))
    assert np.all(real.ap_positions >= 0) and np.all(real.ap_positions < 1000)
    assert np.all(real.ue_positions >= 0) and np.all(real.ue_positions < 1000)


def test_realization_deterministic_in_seed_and_index():
    cfg = base_config(num_aps=10, num_ues=5)
    a = generate_realization(cfg, 3)
    b = generate_realization(cfg, 3)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.ue_positions, b.ue_positions)


def test_realization_streams_separate_across_indices():
    cfg = base_config(num_aps=10, num_ues=5)
    a = generate_realization(cfg, 0)
    b = generate_realization(cfg, 1)
    assert not np.array_equal(a.ap_positions, b.ap_positions)
    assert not np.array_equal(a.ue_positions, b.ue_positions)
