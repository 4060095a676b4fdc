"""Layer-major forward against a plain time-major reference.

``model_forward`` computes each layer's currents for the whole window as
one matrix product and then scans the membranes. The reference here steps
through time instead and forms each step's currents with its own numpy
expressions (the filter as a sum over hops of ``A^k x W_k``, each dense
layer as a matrix-vector product), then calls ``membrane_update``, layer
after layer. Both sum the same terms, possibly in a different order, so
membranes may differ by rounding only; spike trains must be identical.
The feature-filter gradient is checked against the einsum it replaced.

The in-place reverse scan, Adam update and one-pass calibration keep every
product and sum of the per-step code they replaced, kept here as
references, so their results must match it byte for byte, signed zeros
included. So must ``train``: it is compared with a serial loop built from
those references.
"""
import numpy as np
import pytest

from taxelsnn import (AdamState, NetworkConfig, TrainConfig, adam_step, backward, build_knn,
                      calibrate, init_model, model_forward, training)
from taxelsnn import model as tmodel
from taxelsnn.layout import load_layout, radial_layout
from taxelsnn.lif import membrane_update, relaxed_spike
from taxelsnn.model import hop_major, layer_names
from tests.conftest import DATA_DIR

T_STEPS = 120
SAMPLES = 4
U_TOL = 1e-12
GRAD_REL_TOL = 1e-12


def time_major_forward(model, x, relaxed):
    """Per-layer (u, fired, out) arrays of shape (T, ...), stepping through time."""
    cfg = model.config
    p = model.params
    powers = [np.linalg.matrix_power(cfg.graph.adjacency_norm, k)
              for k in range(cfg.tagconv_hops + 1)]
    fc = [(p[f"fc{i}.w"], p[f"fc{i}.b"]) for i in range(1, len(cfg.fc_sizes) + 1)]
    records, state = None, None
    for t in range(x.shape[0]):
        if cfg.feature == "tagconv":
            g = p["feature.g"]
            z = sum(a_k @ x[t] @ g[:, :, k] for k, a_k in enumerate(powers)) + p["feature.b"]
        else:
            z = p["feature.w"] @ x[t].ravel() + p["feature.b"]
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
                w, b = fc[li]
                z = w @ out.ravel() + b
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
        weight = tmodel.weight_name(cfg, name)
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


def reference_backward(model, trace, y):
    """The gradients with the per-step scan and every product on this thread, in order."""
    cfg = model.config
    t_steps = trace.x.shape[0]
    scores = model.voting @ trace.outputs.mean(axis=0)
    dout = np.tile((2.0 / t_steps) * (model.voting.T @ (scores - y)), (t_steps, 1))
    grads = {}
    for li, name in reversed(list(enumerate(layer_names(cfg)))):
        dz = per_step_backward_scan(dout, trace.layers[li], cfg.lif)
        below = trace.layer_input(li)
        if name == "feature" and cfg.feature == "tagconv":
            dg = hop_major(below).T @ dz.reshape(-1, cfg.feature_width)
            grads["feature.g"] = dg.reshape(-1, cfg.num_channels, dg.shape[1]).transpose(1, 2, 0)
        else:
            grads[f"{name}.w"] = dz.T @ below.reshape(t_steps, -1)
        grads[f"{name}.b"] = dz.sum(axis=tuple(range(dz.ndim - 1)))
        if li:
            dout = (dz @ model.params[f"{name}.w"]).reshape(below.shape)
    return grads


def reference_train(model, dataset, cfg):
    """``train``'s split, shuffle and scoring as one serial loop over the references."""
    labels = np.array([label for _, label in dataset])
    train_idx, test_idx = training.stratified_split(labels, cfg.split_fraction, cfg.seed)
    test = ([dataset[i][0] for i in test_idx], labels[test_idx])
    eye = np.eye(model.config.num_classes)
    m = {k: np.zeros_like(p) for k, p in model.params.items()}
    v = {k: np.zeros_like(p) for k, p in model.params.items()}
    rng = np.random.default_rng(cfg.seed)
    step, curves = 0, []
    for _ in range(cfg.epochs):
        losses = []
        for i in rng.permutation(len(train_idx)):
            x, label = dataset[train_idx[i]]
            outputs, trace = model_forward(model, x)
            losses.append(training.voting_loss(outputs, model.voting, eye[label]))
            step += 1
            expression_adam_step(model.params, reference_backward(model, trace, eye[label]),
                                 m, v, step, cfg.learning_rate)
        test_loss, test_acc, preds, _ = training.evaluate(model, *test)
        curves.append((float(np.mean(losses)), test_loss, test_acc))
    return m, v, curves, training.confusion_matrix(test[1], preds, model.config.num_classes)


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_train_matches_serial_reference(feature, monkeypatch):
    model, xs = seeded_case(feature, seed=15)
    rng = np.random.default_rng(15)
    dataset = [((rng.random(xs[0].shape) < 0.05).astype(np.float64), label)
               for label in range(model.config.num_classes) for _ in range(3)]
    cfg = TrainConfig(epochs=2, rounds=1, seed=15)
    reference = tmodel.Model(model.config, {k: p.copy() for k, p in model.params.items()},
                             model.voting)
    m, v, curves, confusion = reference_train(reference, dataset, cfg)

    adam, calls = training.adam_step, []

    def recording(params, grads, state, lr):
        calls.append(state)
        return adam(params, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", recording)
    _, metrics, _ = training.train(model, dataset, cfg)
    state = calls[0]
    assert state.step == len(calls) == 2 * 12
    assert list(zip(metrics.train_loss, metrics.test_loss, metrics.test_accuracy)) == curves
    assert metrics.confusion.tobytes() == confusion.tobytes()
    for name, p in reference.params.items():
        assert model.params[name].tobytes() == p.tobytes(), name
        assert state.m[name].tobytes() == m[name].tobytes(), name
        assert state.v[name].tobytes() == v[name].tobytes(), name
    assert all(np.any(state.m[name] != 0.0) for name in m)


def test_paper_shape_step_matches_serial_reference():
    """One step at the published scale: 39 taxels, T = 250, 64 features, FC 128/256."""
    graph = build_knn(load_layout(DATA_DIR / "taxels39.txt"), 2)
    model = init_model(NetworkConfig(graph=graph, num_classes=36, num_channels=2), seed=16)
    rng = np.random.default_rng(16)
    xs = [(rng.random((250, graph.num_nodes, 2)) < 0.05).astype(np.float64) for _ in range(3)]
    calibrate(model, xs[:2])
    params = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    state = AdamState.for_params(model.params)
    y = np.eye(36)[7]
    _, trace = model_forward(model, xs[2])
    expected = reference_backward(model, trace, y)
    grads = backward(model, trace, y)
    adam_step(model.params, grads, state, 1e-3)
    expression_adam_step(params, expected, m, v, 1, 1e-3)
    assert list(grads) == list(expected)
    for name, g in expected.items():
        assert grads[name].tobytes() == g.tobytes(), name
        assert np.any(g != 0.0), name
        assert model.params[name].tobytes() == params[name].tobytes(), name
        assert state.m[name].tobytes() == m[name].tobytes(), name
        assert state.v[name].tobytes() == v[name].tobytes(), name
