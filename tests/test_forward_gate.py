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
those references. Steps and evaluations that rewrite one trace must give
the bytes of fresh forwards, and leave every other trace as it was.
"""
import numpy as np
import pytest

from taxelsnn import (AdamState, NetworkConfig, TrainConfig, adam_step, backward, build_knn,
                      calibrate, init_model, model_forward, training)
from taxelsnn import model as tmodel
from taxelsnn.layout import load_layout, radial_layout
from taxelsnn.lif import membrane_update, relaxed_spike
from taxelsnn.model import CALIBRATION_SAMPLES, hop_major, layer_names
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


def paper_case(feature, seed, count):
    """An uncalibrated network at the published scale and ``count`` sparse binned samples."""
    graph = build_knn(load_layout(DATA_DIR / "taxels39.txt"), 2)
    model = init_model(NetworkConfig(graph=graph, num_classes=36, num_channels=2,
                                     feature=feature), seed=seed)
    rng = np.random.default_rng(seed)
    return model, [(rng.random((250, graph.num_nodes, 2)) < 0.05).astype(np.uint8)
                   for _ in range(count)]


@pytest.mark.parametrize("feature, paper", [("tagconv", False), ("mlp", False),
                                            ("tagconv", True), ("mlp", True)],
                         ids=["tagconv", "mlp", "tagconv-paper", "mlp-paper"])
def test_one_pass_calibration_matches_per_layer_forwards(feature, paper):
    # at paper shape the pooled feature input holds about 5 M values, so numpy's pairwise
    # summation runs at depth
    if paper:
        model, xs = paper_case(feature, seed=14, count=CALIBRATION_SAMPLES)
        calibrate(model, xs)
    else:
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


def copy_model(model):
    return tmodel.Model(model.config, {k: p.copy() for k, p in model.params.items()},
                        model.voting)


def steps_then_scores(model, xs, labels, relaxed, reuse):
    """Adam steps on all but the last two samples, then the last two scored.

    With ``reuse`` every forward rewrites the first step's trace, and ``evaluate`` scores
    on it; else every forward is fresh and the scores are ``vote``'s on each.
    """
    state = AdamState.for_params(model.params)
    eye = np.eye(model.config.num_classes)
    trace, losses = None, []
    for x, label in zip(xs[:-2], labels):
        outputs, step = model_forward(model, x, relaxed=relaxed, out=trace)
        if reuse:
            assert trace is None or step is trace
            trace = step
        losses.append(training.voting_loss(outputs, model.voting, eye[label]))
        adam_step(model.params, backward(model, step, eye[label]), state, 1e-3)
    if reuse:
        loss, _, preds, _ = training.evaluate(model, xs[-2:], labels[-2:], trace)
        assert np.array_equal(trace.x, xs[-1])   # evaluate wrote into the steps' trace
    else:
        outputs = [model_forward(model, x)[0] for x in xs[-2:]]
        loss = float(np.mean([training.voting_loss(o, model.voting, eye[label])
                              for o, label in zip(outputs, labels[-2:])]))
        preds = np.array([tmodel.vote(o, model.voting)[1] for o in outputs])
    return state, losses, loss, preds


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_reused_trace_matches_fresh_forwards_at_paper_shape(feature, relaxed):
    model, xs = paper_case(feature, seed=18, count=6)
    calibrate(model, xs)
    labels = [3, 17, 3, 30, 17, 30]
    fresh, reused = copy_model(model), copy_model(model)
    state, losses, loss, preds = steps_then_scores(fresh, xs, labels, relaxed, reuse=False)
    state_r, losses_r, loss_r, preds_r = steps_then_scores(reused, xs, labels, relaxed, reuse=True)
    assert losses_r == losses and loss_r == loss
    assert preds_r.tobytes() == preds.astype(np.int64).tobytes()
    for name, p in fresh.params.items():
        assert reused.params[name].tobytes() == p.tobytes(), name
        assert state_r.m[name].tobytes() == state.m[name].tobytes(), name
        assert state_r.v[name].tobytes() == state.v[name].tobytes(), name
    assert all(np.any(state.m[name] != 0.0) for name in state.m)


def all_trace_arrays(trace):
    return trace_arrays(trace) + [a for layer in trace.layers
                                  for a in (layer.mask, layer.currents, layer.carry,
                                            layer.d_below) if a is not None]


def test_a_trace_not_passed_back_is_left_as_it_was():
    model, xs = seeded_case("tagconv", seed=19)
    y = np.eye(model.config.num_classes)[1]
    _, kept = model_forward(model, xs[0])
    backward(model, kept, y)
    before = [a.copy() for a in all_trace_arrays(kept)]
    _, other = model_forward(model, xs[1])
    for x in xs[2:]:
        backward(model, other, y)
        assert model_forward(model, x, relaxed=True, out=other)[1] is other
    training.evaluate(model, xs, [0, 1, 2, 3])
    training.evaluate(model, xs, [0, 1, 2, 3], other)
    _, shorter = model_forward(model, xs[1][:-1], out=kept)   # another shape: a new trace
    assert shorter is not kept
    backward(model, shorter, y)
    after = all_trace_arrays(kept)
    # x and propagated, and seven arrays per layer; the feature layer's input has no gradient
    assert len(after) == len(before) == 2 + 7 * len(kept.layers) - 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_backward_on_a_reused_trace_leaves_what_the_reference_reads(feature, relaxed):
    model, xs = seeded_case(feature, seed=20)
    eye = np.eye(model.config.num_classes)
    trace = None
    for step, x in enumerate(xs):
        _, trace = model_forward(model, x, relaxed=relaxed, out=trace)
        kept = [a.copy() for a in trace_arrays(trace)]
        y = eye[step % len(eye)]
        first = reference_backward(model, trace, y)
        grads = backward(model, trace, y)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(trace_arrays(trace), kept))
        then = reference_backward(model, trace, y)
        assert list(grads) == list(first) == list(then)
        for name, g in grads.items():
            assert g.tobytes() == first[name].tobytes() == then[name].tobytes(), (step, name)
        adam_step(model.params, grads, AdamState.for_params(model.params), 1e-3)
