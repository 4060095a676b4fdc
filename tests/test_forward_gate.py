"""Layer-major forward against a plain time-major reference.

``model_forward`` computes each layer's currents for the whole window as
one matrix product and then scans the membranes. The reference here steps
through time instead: per timestep it calls ``tagconv_forward`` or
``fc_forward`` and ``membrane_update``, layer after layer. Both sum the
same terms, possibly in a different order, so membranes may differ by
rounding only; spike trains must be identical. The feature-filter gradient
is checked against the einsum it replaced.

The in-place reverse scan, Adam update and one-pass calibration keep every
product and sum of the per-step code they replaced, kept here as
references, so their results must match it byte for byte, signed zeros
included.
"""
import numpy as np
import pytest

from taxelsnn import (AdamState, NetworkConfig, adam_step, backward, build_knn, calibrate,
                      init_model, model_forward, training)
from taxelsnn import model as tmodel
from taxelsnn.layout import radial_layout
from taxelsnn.lif import membrane_update, relaxed_spike
from taxelsnn.model import fc_forward, layer_names, tagconv_forward

T_STEPS = 120
SAMPLES = 4
U_TOL = 1e-12
GRAD_REL_TOL = 1e-12


def time_major_forward(model, x, relaxed):
    """Per-layer (u, fired, out) arrays of shape (T, ...), stepping through time."""
    cfg = model.config
    p = model.params
    powers = cfg.graph.adjacency_powers[: cfg.tagconv_hops + 1]
    fc = [(p[f"fc{i}.w"], p[f"fc{i}.b"]) for i in range(1, len(cfg.fc_sizes) + 1)]
    records, state = None, None
    for t in range(x.shape[0]):
        if cfg.feature == "tagconv":
            z = tagconv_forward(x[t], p["feature.g"], p["feature.b"], powers)
        else:
            z = fc_forward(x[t].ravel(), p["feature.w"], p["feature.b"])
        if records is None:
            shapes = [z.shape] + [b.shape for _, b in fc]
            records = [tuple(np.empty((x.shape[0], *s)) for _ in range(3)) for s in shapes]
            state = [(np.zeros(s), np.zeros(s)) for s in shapes]
        for li, (u_rec, fired_rec, out_rec) in enumerate(records):
            u, fired = membrane_update(*state[li], z, cfg.lif)
            state[li] = (u, fired)
            out = relaxed_spike(u, cfg.lif) if relaxed else fired
            u_rec[t], fired_rec[t], out_rec[t] = u, fired, out
            if li < len(fc):
                z = fc_forward(out.ravel(), *fc[li])
    return records


def seeded_case(feature, seed):
    """A calibrated network on the 39-taxel layout and sparse seeded samples; every layer fires."""
    graph = build_knn(radial_layout(), 2)
    cfg = NetworkConfig(graph=graph, num_classes=6, num_channels=2, feature=feature,
                        feature_width=16, fc_sizes=(32, 24))
    rng = np.random.default_rng(seed)
    xs = [(rng.random((T_STEPS, graph.num_nodes, 2)) < 0.05).astype(np.float64)
          for _ in range(SAMPLES)]
    model = init_model(cfg, seed=seed)
    calibrate(model, xs)
    return model, xs


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_layer_major_matches_time_major(feature, relaxed):
    model, xs = seeded_case(feature, seed=11)
    for x in xs:
        _, trace = model_forward(model, x, relaxed=relaxed)
        reference = time_major_forward(model, x, relaxed)
        assert len(trace.layers) == len(reference)
        for layer, (u, fired, out) in zip(trace.layers, reference):
            np.testing.assert_array_equal(layer.fired, fired)
            np.testing.assert_allclose(layer.u, u, rtol=0.0, atol=U_TOL)
            if relaxed:
                # the ramp output is a function of u, so it carries u's rounding
                np.testing.assert_allclose(layer.out, out, rtol=0.0, atol=U_TOL)
            else:
                np.testing.assert_array_equal(layer.out, out)
    # every layer fired somewhere, so the spike comparison had something to compare
    assert all(layer.fired.any() for layer in trace.layers)


@pytest.mark.parametrize("relaxed", [False, True])
def test_feature_filter_gradient_matches_einsum(relaxed, monkeypatch):
    model, xs = seeded_case("tagconv", seed=12)
    scans = []
    original = training._lif_backward_scan

    def recording(delta_out, layer, lif):
        scans.append(original(delta_out, layer, lif))
        return scans[-1]

    monkeypatch.setattr(training, "_lif_backward_scan", recording)
    y = np.eye(model.config.num_classes)[2]
    checked = 0
    for x in xs:
        scans.clear()
        _, trace = model_forward(model, x, relaxed=relaxed)
        grads = backward(model, trace, y)
        dz_feat = scans[-1]  # the feature layer's scan runs last
        expected = np.einsum("tknc,tnf->cfk", trace.propagated, dz_feat)
        assert grads["feature.g"].shape == expected.shape
        scale = np.abs(expected).max()
        assert np.abs(grads["feature.g"] - expected).max() <= GRAD_REL_TOL * scale
        checked += scale > 0
    assert checked > 0


def per_step_backward_scan(delta_out, layer, lif):
    """The reverse scan as one expression per timestep, with its own surrogate."""
    sg = (np.abs(layer.u - lif.u_threshold) < lif.surrogate_width / 2.0) / lif.surrogate_width
    dz = np.empty_like(delta_out)
    du_next = np.zeros(delta_out.shape[1:])
    for t in range(delta_out.shape[0] - 1, -1, -1):
        du = delta_out[t] * sg[t] + lif.beta * (1.0 - layer.fired[t]) * du_next
        dz[t] = du
        du_next = du
    return dz


def expression_adam_step(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam with bias correction, the parameter step written as one array expression."""
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        params[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def per_layer_calibrate(model, samples):
    """Calibration that runs the whole network on every sample for every layer."""
    cfg = model.config
    for li, name in enumerate(layer_names(cfg)):
        drive = [tmodel._weighted_input(model, name, model_forward(model, x)[1].layer_input(li))
                 .ravel() for x in samples]
        std = float(np.concatenate(drive).std())
        weight = "feature.g" if name == "feature" and cfg.feature == "tagconv" else f"{name}.w"
        if std > 0.0:
            model.params[weight] *= cfg.lif.u_threshold / 2.0 / std


def trace_arrays(trace):
    return [trace.x, trace.propagated] + [a for layer in trace.layers
                                          for a in (layer.u, layer.fired, layer.out)]


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_backward_scan_and_adam_match_per_step_reference(feature, relaxed, monkeypatch):
    model, xs = seeded_case(feature, seed=13)
    original = training._lif_backward_scan
    scans, signed_zeros = [], []

    def both(delta_out, layer, lif):
        scans.append((original(delta_out, layer, lif), per_step_backward_scan(delta_out, layer, lif)))
        # delta < 0 outside the window makes -0.0 at t = T-1, which "+ carry * 0" turns to +0.0
        signed_zeros.append(np.any((delta_out[-1] < 0) & (training.surrogate_grad(
            layer.u[-1], lif) == 0.0)))
        return scans[-1][0]

    monkeypatch.setattr(training, "_lif_backward_scan", both)
    state = AdamState.for_params(model.params)
    params = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    num_classes = model.config.num_classes
    for step in range(1, 6):
        _, trace = model_forward(model, xs[step % SAMPLES], relaxed=relaxed)
        kept = [a.copy() for a in trace_arrays(trace)]
        grads = backward(model, trace, np.eye(num_classes)[step % num_classes])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(trace_arrays(trace), kept))
        adam_step(model.params, grads, state, 1e-3)
        expression_adam_step(params, grads, m, v, step, 1e-3)
        for name, p in params.items():
            assert model.params[name].tobytes() == p.tobytes(), (step, name)
    assert len(scans) == 5 * len(trace.layers)
    for dz, expected in scans:
        assert dz.tobytes() == expected.tobytes()
    assert all(np.any(dz != 0.0) for dz, _ in scans[-len(trace.layers):])
    assert any(signed_zeros)


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_one_pass_calibration_matches_per_layer_forwards(feature):
    model, xs = seeded_case(feature, seed=14)   # calibrated by calibrate
    reference = init_model(model.config, seed=14)
    per_layer_calibrate(reference, xs)
    for name, p in reference.params.items():
        assert model.params[name].tobytes() == p.tobytes(), name
