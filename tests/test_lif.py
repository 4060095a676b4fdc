import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taxelsnn import LifConfig, lif_scan, relaxed_spike, surrogate_grad

CFG = LifConfig()  # beta 0.2, threshold 0.5, reset 0, width 0.5


def scalar_lif_reference(currents, cfg):
    """Plain-Python single-neuron simulation: decay, integrate, fire, reset."""
    u, fired = 0.0, False
    trace = []
    for c in currents:
        u = cfg.beta * (cfg.u_reset if fired else u) + float(c)
        fired = u >= cfg.u_threshold
        trace.append((u, 1.0 if fired else 0.0))
    return trace


def test_config_validation():
    with pytest.raises(ValueError):
        LifConfig(beta=1.0)
    with pytest.raises(ValueError):
        LifConfig(beta=-0.1)
    with pytest.raises(ValueError):
        LifConfig(u_reset=0.6, u_threshold=0.5)
    with pytest.raises(ValueError):
        LifConfig(surrogate_width=0.0)


@pytest.mark.parametrize("name", ["beta", "u_threshold", "u_reset", "surrogate_width"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_nonfinite_values(name, value):
    with pytest.raises(ValueError, match=name):
        LifConfig(**{name: value})


def test_step_decay_below_threshold():
    layer = lif_scan(np.array([[0.4], [0.2]]), CFG)
    assert layer.u[0, 0] == 0.4 and layer.fired[0, 0] == 0.0
    assert layer.u[1, 0] == pytest.approx(0.2 * 0.4 + 0.2)  # 0.28
    assert layer.fired[1, 0] == 0.0


def test_step_crossing_fires_then_decays_from_reset():
    layer = lif_scan(np.array([[0.3], [0.5], [0.1]]), CFG)
    assert layer.u[1, 0] == pytest.approx(0.56)
    assert layer.fired[1, 0] == 1.0
    # decay restarts from u_reset = 0, not from 0.56
    assert layer.u[2, 0] == pytest.approx(0.2 * 0.0 + 0.1)


def test_zero_input_stays_silent():
    layer = lif_scan(np.zeros((10, 3)), CFG)
    assert np.all(layer.u == 0.0)
    assert np.all(layer.fired == 0.0)


def test_matches_scalar_reference_bit_exactly(rng):
    for _ in range(20):
        weights = rng.uniform(-0.5, 1.0, size=4)
        spikes_in = (rng.random((100, 4)) < 0.4).astype(np.float64)
        currents = spikes_in @ weights
        expected = scalar_lif_reference(currents, CFG)
        layer = lif_scan(currents[:, None], CFG)
        for t in range(len(currents)):
            assert layer.u[t, 0] == expected[t][0]  # bit-exact
            assert layer.fired[t, 0] == expected[t][1]


def test_surrogate_hand_values():
    assert surrogate_grad(np.array([0.5]), CFG)[0] == pytest.approx(2.0)
    assert surrogate_grad(np.array([0.8]), CFG)[0] == 0.0
    # window edges are excluded (strict inequality)
    assert surrogate_grad(np.array([0.5 + 0.25]), CFG)[0] == 0.0
    assert surrogate_grad(np.array([0.5 - 0.25]), CFG)[0] == 0.0


def test_surrogate_edges_are_strict_to_the_last_bit():
    u = np.array([np.nextafter(0.75, 0), np.nextafter(0.25, 1), 0.75, 0.25])
    kept = u.copy()
    assert surrogate_grad(u, CFG).tolist() == [2.0, 2.0, 0.0, 0.0]
    np.testing.assert_array_equal(u, kept)


def test_relaxed_hand_values():
    assert relaxed_spike(np.array([0.5]), CFG)[0] == pytest.approx(0.5)
    assert relaxed_spike(np.array([1.0]), CFG)[0] == 1.0
    assert relaxed_spike(np.array([0.0]), CFG)[0] == 0.0


def test_relaxed_slope_at_threshold_matches_surrogate():
    h = 1e-6
    up = relaxed_spike(np.array([0.5 + h]), CFG)[0]
    down = relaxed_spike(np.array([0.5 - h]), CFG)[0]
    assert (up - down) / (2 * h) == pytest.approx(2.0, abs=1e-4)


@given(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
def test_relaxed_is_monotone(a, b):
    lo, hi = sorted((a, b))
    assert relaxed_spike(np.array([lo]), CFG)[0] <= relaxed_spike(np.array([hi]), CFG)[0]


@given(st.floats(-2.0, 3.0))
def test_relaxed_derivative_matches_surrogate_away_from_kinks(u):
    for kink in (0.25, 0.5 + 0.25):
        if abs(u - kink) < 1e-3:
            return
    h = 1e-6
    fd = (relaxed_spike(np.array([u + h]), CFG)[0]
          - relaxed_spike(np.array([u - h]), CFG)[0]) / (2 * h)
    assert fd == pytest.approx(surrogate_grad(np.array([u]), CFG)[0], abs=1e-4)


@given(st.floats(-5.0, 5.0))
def test_relaxed_equals_hard_spike_outside_window(u):
    if 0.2 < u < 0.8:
        return
    hard = 1.0 if u >= 0.5 else 0.0
    assert relaxed_spike(np.array([u]), CFG)[0] == hard


@given(st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_membrane_bounded_without_spike(seed):
    # with u_reset = 0 and |input| <= M, any no-spike membrane stays under
    # beta * u_threshold + M
    rng = np.random.default_rng(seed)
    m = 0.6
    layer = lif_scan(rng.uniform(-m, m, size=(50, 5)), CFG)
    assert np.all(layer.u <= CFG.beta * CFG.u_threshold + m + 1e-12)


@given(st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_reset_correctness_and_binary_outputs(seed):
    rng = np.random.default_rng(seed)
    currents = rng.uniform(-0.3, 0.9, size=(60, 4))
    layer = lif_scan(currents, CFG)
    assert set(np.unique(layer.fired)) <= {0.0, 1.0}
    for t in range(1, len(currents)):
        fired_before = layer.fired[t - 1] == 1.0
        # wherever the previous step fired, decay starts from u_reset
        np.testing.assert_array_equal(
            layer.u[t][fired_before],
            (CFG.beta * CFG.u_reset + currents[t])[fired_before])
