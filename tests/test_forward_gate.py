"""Layer-major forward against a plain time-major reference.

``model_forward`` computes each layer's currents for the whole window as
one matrix product and then scans the membranes. The reference here steps
through time instead: per timestep it calls ``tagconv_forward`` or
``fc_forward`` and ``membrane_update``, layer after layer. Both sum the
same terms, possibly in a different order, so membranes may differ by
rounding only; spike trains must be identical. The feature-filter gradient
is checked against the einsum it replaced.
"""
import numpy as np
import pytest

from taxelsnn import (NetworkConfig, backward, build_knn, calibrate, init_model, model_forward,
                      training)
from taxelsnn.layout import radial_layout
from taxelsnn.lif import membrane_update, relaxed_spike
from taxelsnn.model import fc_forward, tagconv_forward

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
