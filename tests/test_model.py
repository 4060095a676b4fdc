import dataclasses

import numpy as np
import pytest

from taxelsnn import (DataFormatError, LifConfig, NetworkConfig, TactileGraph, TaxelLayout,
                      build_knn, build_manual, calibrate, init_model, load_model,
                      model_forward, save_model, vote, voting_matrix)
from taxelsnn.graphs import normalize_adjacency
from taxelsnn.model import Model, param_shapes


def naive_tagconv(x, g, b, adjacency, hops):
    """Independent dense evaluation of the polynomial graph filter (oracle)."""
    n, c_in = x.shape
    f_out = g.shape[1]
    z = np.zeros((n, f_out))
    for f in range(f_out):
        for c in range(c_in):
            for k in range(hops + 1):
                z[:, f] += g[c, f, k] * (np.linalg.matrix_power(adjacency, k) @ x[:, c])
        z[:, f] += b[f]
    return z


def first_step_current(model, x):
    """The feature layer's current for one (N, C) input step, read off ``model_forward``.

    From rest, the first step's membrane is its input current exactly.
    """
    _, trace = model_forward(model, np.asarray(x, dtype=np.float64)[None])
    return trace.layers[0].u[0]


def filter_current(x, g, b, graph):
    """The tagconv filter's (N, F) current for one (N, C) step, with filter g and bias b."""
    c, f, hops = g.shape
    cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=c, tagconv_hops=hops - 1,
                        feature_width=f, fc_sizes=(2,))
    model = init_model(cfg, seed=0)
    model.params["feature.g"][...] = g
    model.params["feature.b"][...] = b
    return first_step_current(model, x)


def dense_current(x, w, b):
    """The mlp feature layer's current for one input vector, with weight w and bias b."""
    graph = TactileGraph(len(x), ())
    cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=1, feature="mlp",
                        feature_width=len(w), fc_sizes=(2,))
    model = init_model(cfg, seed=0)
    model.params["feature.w"][...] = w
    model.params["feature.b"][...] = b
    return first_step_current(model, np.reshape(x, (-1, 1)))


def two_node_graph():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    return build_manual(lay, [(0, 1)])


def small_config(**kw):
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    graph = build_knn(lay, 2)
    defaults = dict(graph=graph, num_classes=2, num_channels=1, feature="tagconv",
                    tagconv_hops=1, feature_width=2, fc_sizes=(4, 6))
    defaults.update(kw)
    return NetworkConfig(**defaults)


# --- voting matrix ---

def test_voting_matrix_even_split():
    u = voting_matrix(2, 4)
    np.testing.assert_allclose(u, [[0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]])


def test_voting_matrix_uneven_split_favors_early_classes():
    u = voting_matrix(10, 256)
    counts = (u > 0).sum(axis=1)
    assert list(counts[:6]) == [26] * 6
    assert list(counts[6:]) == [25] * 4
    np.testing.assert_allclose(u.sum(axis=1), 1.0)
    # every neuron serves exactly one class
    assert np.all((u > 0).sum(axis=0) == 1)


def test_voting_matrix_requires_enough_neurons():
    with pytest.raises(ValueError):
        voting_matrix(5, 4)


# --- tagconv ---

def test_tagconv_identity_filter():
    g = two_node_graph()
    coeff = np.zeros((1, 1, 1))
    coeff[0, 0, 0] = 1.0
    x = np.array([[1.0], [0.0]])
    z = filter_current(x, coeff, np.zeros(1), g)
    np.testing.assert_allclose(z, x)


def test_tagconv_hop_one_propagates_across_edge():
    g = two_node_graph()
    coeff = np.zeros((1, 1, 2))
    coeff[0, 0, 1] = 1.0  # pure hop-1 filter
    x = np.array([[1.0], [0.0]])
    z = filter_current(x, coeff, np.zeros(1), g)
    np.testing.assert_allclose(z, [[0.0], [1.0]])


def test_tagconv_matches_naive_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(0, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        a = normalize_adjacency(edges, n)
        g = rng.standard_normal((c, f, k + 1))
        b = rng.standard_normal(f)
        x = (rng.random((n, c)) < 0.5).astype(np.float64)
        np.testing.assert_allclose(filter_current(x, g, b, TactileGraph(n, tuple(edges))),
                                   naive_tagconv(x, g, b, a, k), atol=1e-10)


def test_tagconv_dimension_mismatch():
    # a (2 nodes, 3 channels) step against a 1-channel filter
    cfg = NetworkConfig(graph=two_node_graph(), num_classes=2, num_channels=1,
                        tagconv_hops=1, feature_width=1, fc_sizes=(2,))
    with pytest.raises(ValueError, match="does not match"):
        model_forward(init_model(cfg, seed=0), np.zeros((1, 2, 3)))


def test_tagconv_linearity_with_zero_bias(rng):
    g = two_node_graph()
    coeff = rng.standard_normal((2, 3, 2))
    b = np.zeros(3)
    x1 = rng.standard_normal((2, 2))
    x2 = rng.standard_normal((2, 2))
    alpha = 1.7
    lhs = filter_current(alpha * x1 + x2, coeff, b, g)
    rhs = alpha * filter_current(x1, coeff, b, g) + filter_current(x2, coeff, b, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_tagconv_locality_respects_hop_limit():
    # path 0-1-2-3-4, K=2: perturbing node 4 cannot reach node 0
    lay = TaxelLayout(np.array([[float(i), 0.0] for i in range(5)]))
    g = build_manual(lay, [(0, 1), (1, 2), (2, 3), (3, 4)])
    rng = np.random.default_rng(0)
    coeff = rng.standard_normal((1, 2, 3))
    b = rng.standard_normal(2)
    x = np.zeros((5, 1))
    base = filter_current(x, coeff, b, g)
    x[4, 0] = 1.0
    bumped = filter_current(x, coeff, b, g)
    np.testing.assert_array_equal(base[0], bumped[0])
    assert not np.allclose(base[4], bumped[4])


def test_tagconv_permutation_equivariance(rng):
    lay = TaxelLayout(rng.uniform(0, 5, size=(6, 2)))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    g = build_manual(lay, edges)
    perm = rng.permutation(6)
    pedges = [(int(perm[i]), int(perm[j])) for i, j in edges]
    gp = build_manual(lay, pedges)
    coeff = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal(3)
    x = rng.standard_normal((6, 2))
    xp = np.empty_like(x)
    xp[perm] = x
    out = filter_current(x, coeff, b, g)
    outp = filter_current(xp, coeff, b, gp)
    np.testing.assert_allclose(outp[perm], out, atol=1e-12)


# --- dense feature layer ---

def test_fc_identity_and_bias():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(dense_current(x, np.eye(3), np.zeros(3)), x)
    np.testing.assert_allclose(dense_current(x, np.zeros((2, 3)), np.array([5.0, 6.0])),
                               [5.0, 6.0])


def test_fc_matches_hand_product():
    w = np.array([[1.0, 0.0, 2.0, -1.0],
                  [0.5, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    b = np.array([0.1, -0.2, 0.0])
    x = np.array([1.0, 2.0, 0.5, 1.0])
    # hand: row0 = 1 + 1 - 1 + 0.1 = 1.1; row1 = 0.5 + 2 - 0.2 = 2.3; row2 = 1.5
    np.testing.assert_allclose(dense_current(x, w, b), [1.1, 2.3, 1.5])


def test_fc_dimension_mismatch():
    # a 3-node step against a dense layer over 4 inputs
    model = init_model(small_config(feature="mlp"), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        model_forward(model, np.zeros((1, 3, 1)))


# --- full forward ---

def test_forward_zero_input_is_silent():
    cfg = small_config()
    model = init_model(cfg, seed=0)
    for name in model.params:
        if name.endswith(".b"):
            model.params[name][:] = 0.0
    x = np.zeros((6, 4, 1))
    out, trace = model_forward(model, x)
    assert np.all(out == 0)
    for layer in trace.layers:
        assert np.all(layer.out == 0)


def test_forward_hand_traced_single_step():
    g = two_node_graph()
    cfg = NetworkConfig(graph=g, num_classes=2, num_channels=1, feature="tagconv",
                        tagconv_hops=1, feature_width=1, fc_sizes=(2, 2))
    model = init_model(cfg, seed=0)
    p = model.params
    p["feature.g"][:] = 0.0
    p["feature.g"][0, 0, 1] = 1.0        # pure hop-1: z1 = A x
    p["feature.b"][:] = 0.0
    p["fc1.w"][:] = np.eye(2)
    p["fc1.b"][:] = 0.0
    p["fc2.w"][:] = np.array([[0.0, 1.0], [1.0, 0.0]])
    p["fc2.b"][:] = 0.0
    x = np.array([[[1.0], [0.0]]])       # T=1, spike at node 0
    out, trace = model_forward(model, x)
    # z1 = A @ [1,0] = [0,1]; u1 = [0,1] -> node 1 fires
    np.testing.assert_array_equal(trace.layers[0].out[0].ravel(), [0.0, 1.0])
    # fc1 identity keeps [0,1]; fc2 swaps -> [1,0]
    np.testing.assert_array_equal(trace.layers[1].out[0], [0.0, 1.0])
    np.testing.assert_array_equal(out[0], [1.0, 0.0])
    scores, pred = vote(out, model.voting)
    np.testing.assert_allclose(scores, [1.0, 0.0])
    assert pred == 0


def test_forward_full_scale_output_shape(layout39):
    graph = build_knn(layout39, 2)
    cfg = NetworkConfig(graph=graph, num_classes=36, num_channels=2)
    model = init_model(cfg, seed=7)
    rng = np.random.default_rng(0)
    x = (rng.random((250, 39, 2)) < 0.1).astype(np.float64)
    out, _ = model_forward(model, x)
    assert out.shape == (250, 256)
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_forward_is_deterministic():
    cfg = small_config()
    model = init_model(cfg, seed=11)
    x = (np.random.default_rng(3).random((8, 4, 1)) < 0.4).astype(np.float64)
    out1, _ = model_forward(model, x)
    out2, _ = model_forward(model, x)
    np.testing.assert_array_equal(out1, out2)
    model_b = init_model(cfg, seed=11)
    out3, _ = model_forward(model_b, x)
    np.testing.assert_array_equal(out1, out3)


def test_forward_shape_validation():
    model = init_model(small_config(), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        model_forward(model, np.zeros((5, 3, 1)))
    with pytest.raises(ValueError, match="at least one timestep"):
        model_forward(model, np.zeros((0, 4, 1)))
    with pytest.raises(ValueError, match=r"sample must be \(T, N, C\)"):
        model_forward(model, np.zeros((5, 4)))


def test_mlp_variant_forward():
    cfg = small_config(feature="mlp", feature_width=3)
    model = init_model(cfg, seed=2)
    assert model.params["feature.w"].shape == (3, 4)
    x = (np.random.default_rng(5).random((6, 4, 1)) < 0.5).astype(np.float64)
    out, trace = model_forward(model, x)
    assert out.shape == (6, 6)
    assert trace.layers[0].out.shape == (6, 3)


# --- calibration ---

def weighted_input_stds(model, samples):
    """Per-layer std of W @ input (bias excluded), pooled over samples, steps, neurons.

    Built step by step from the dense oracle and plain products with a zero
    bias, not through calibrate.
    """
    cfg = model.config
    p = model.params
    weights = [f"fc{i}.w" for i in range(1, len(cfg.fc_sizes) + 1)]
    drives = [[] for _ in range(1 + len(weights))]
    for x in samples:
        _, trace = model_forward(model, x)
        for t in range(x.shape[0]):
            if cfg.feature == "tagconv":
                z = naive_tagconv(x[t], p["feature.g"], np.zeros(cfg.feature_width),
                                  cfg.graph.adjacency_norm, cfg.tagconv_hops)
            else:
                z = p["feature.w"] @ x[t].ravel()
            drives[0].append(z.ravel())
            for li, name in enumerate(weights, start=1):
                drives[li].append(p[name] @ trace.layers[li - 1].out[t].ravel())
    return [float(np.concatenate(d).std()) for d in drives]


def calibration_samples(seed=4, count=4, t_steps=20):
    rng = np.random.default_rng(seed)
    return [(rng.random((t_steps, 4, 1)) < 0.3).astype(np.float64) for _ in range(count)]


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_calibrate_sets_weighted_input_std_and_keeps_biases(feature):
    cfg = small_config(feature=feature, feature_width=4)
    model = init_model(cfg, seed=5)
    before = {k: v.copy() for k, v in model.params.items()}
    samples = calibration_samples()
    calibrate(model, samples)
    target = cfg.lif.u_threshold / 2
    for std in weighted_input_stds(model, samples):
        assert std == pytest.approx(target, rel=1e-12, abs=0)
    for name, arr in before.items():
        if name.endswith(".b"):
            np.testing.assert_array_equal(model.params[name], arr)
        else:
            # one positive scalar per weight tensor
            ratio = model.params[name] / arr
            assert ratio.min() > 0
            np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)


def test_calibrate_twice_is_noop():
    model = init_model(small_config(feature_width=4), seed=5)
    samples = calibration_samples()
    calibrate(model, samples)
    once = {k: v.copy() for k, v in model.params.items()}
    calibrate(model, samples)
    for name, arr in once.items():
        np.testing.assert_allclose(model.params[name], arr, rtol=1e-12, atol=0)


def test_calibrate_leaves_layers_with_zero_input_unscaled():
    model = init_model(small_config(feature_width=4), seed=5)
    for name in model.params:
        if name.endswith(".b"):
            model.params[name][:] = 0.0
    before = {k: v.copy() for k, v in model.params.items()}
    with np.errstate(all="raise"):
        calibrate(model, [np.zeros((10, 4, 1))] * 3)
    for name, arr in before.items():
        np.testing.assert_array_equal(model.params[name], arr)

    # a silenced fc1 leaves fc2 without input; only the feature layer scales
    model.params["fc1.w"][:] = 0.0
    before = {k: v.copy() for k, v in model.params.items()}
    samples = calibration_samples()
    with np.errstate(all="raise"):
        calibrate(model, samples)
    target = model.config.lif.u_threshold / 2
    assert weighted_input_stds(model, samples)[0] == pytest.approx(target, rel=1e-12)
    assert not np.array_equal(model.params["feature.g"], before["feature.g"])
    for name in ("fc1.w", "fc2.w"):
        np.testing.assert_array_equal(model.params[name], before[name])


def test_calibrate_rejects_nonfinite_samples():
    model = init_model(small_config(), seed=5)
    with pytest.raises(ValueError, match="feature.g.*non-finite"):
        calibrate(model, [np.full((3, 4, 1), np.nan)])


# --- voting ---

def test_vote_hand_example():
    # 2 classes, 2 neurons each; totals [10, 0, 3, 1] over T=10
    t = 10
    outputs = np.zeros((t, 4))
    outputs[:, 0] = 1.0
    outputs[:3, 2] = 1.0
    outputs[:1, 3] = 1.0
    scores, pred = vote(outputs, voting_matrix(2, 4))
    np.testing.assert_allclose(scores, [0.5, 0.2])
    assert pred == 0


@pytest.mark.parametrize("shape", [(4,), (0, 4), (2, 4, 1)])
def test_vote_rejects_outputs_of_wrong_shape(shape):
    with pytest.raises(ValueError, match="outputs must be"):
        vote(np.zeros(shape), voting_matrix(2, 4))


def test_vote_all_zero_ties_to_class_zero():
    scores, pred = vote(np.zeros((5, 4)), voting_matrix(2, 4))
    np.testing.assert_array_equal(scores, [0.0, 0.0])
    assert pred == 0


def test_vote_single_populated_class_always_wins():
    outputs = np.zeros((4, 6))
    outputs[:, 4] = 1.0  # neuron of class 2
    _, pred = vote(outputs, voting_matrix(3, 6))
    assert pred == 2


def test_vote_argmax_scale_invariant(rng):
    outputs = (rng.random((7, 6)) < 0.5).astype(np.float64)
    u = voting_matrix(3, 6)
    scores, pred = vote(outputs, u)
    _, pred_scaled = vote(outputs, 3.7 * u)
    assert pred == pred_scaled


# --- checkpointing ---

def test_checkpoint_round_trip(tmp_path):
    cfg = small_config()
    model = init_model(cfg, seed=9)
    path = tmp_path / "model.npz"
    save_model(model, path, extra={"note": 1})
    loaded, extra = load_model(path)
    assert extra == {"note": 1}
    assert loaded.config.fc_sizes == cfg.fc_sizes
    assert loaded.config.graph.edges == cfg.graph.edges
    for name, arr in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)
    np.testing.assert_array_equal(loaded.voting, model.voting)


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_checkpoint_round_trips_every_config_field(tmp_path, feature):
    lif = LifConfig(beta=0.35, u_threshold=0.8, u_reset=-0.1, surrogate_width=0.3)
    cfg = small_config(num_classes=3, num_channels=3, feature=feature, tagconv_hops=3,
                       feature_width=5, fc_sizes=(6, 7), lif=lif)
    # every field with a default but the feature kind holds another value
    for obj in (cfg, lif):
        for f in dataclasses.fields(obj):
            if f.name != "feature" and f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) != f.default, f.name
    path = tmp_path / "model.npz"
    save_model(init_model(cfg, seed=4), path)
    loaded, _ = load_model(path)
    assert loaded.config == cfg


def test_checkpoint_with_graph_hops_key_loads_identically(tmp_path):
    import json
    cfg = small_config()
    path = tmp_path / "model.npz"
    save_model(init_model(cfg, seed=9), path, extra={"round": 1})
    with np.load(path, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    doc = json.loads(str(blobs["config_json"]))
    assert "hops" not in doc["graph"]
    doc["graph"]["hops"] = 2   # the graph's own hop count, as older checkpoints stored it
    blobs["config_json"] = np.array(json.dumps(doc))
    older = tmp_path / "older.npz"
    np.savez(older, **blobs)
    new_model, _ = load_model(path)
    old_model, extra = load_model(older)
    assert extra == {"round": 1}
    assert old_model.config == new_model.config == cfg
    x = (np.random.default_rng(3).random((12, 4, 1)) < 0.5).astype(np.float64)
    new_out, new_trace = model_forward(new_model, x)
    old_out, old_trace = model_forward(old_model, x)
    assert old_out.tobytes() == new_out.tobytes()
    for old_layer, new_layer in zip(old_trace.layers, new_trace.layers):
        assert old_layer.u.tobytes() == new_layer.u.tobytes()


def test_checkpoint_rejects_tampered_graph_hash(tmp_path):
    import json
    model = init_model(small_config(), seed=9)
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    doc = json.loads(str(blobs["config_json"]))
    doc["graph_hash"] = "0" * 16
    blobs["config_json"] = np.array(json.dumps(doc))
    np.savez(path, **blobs)
    with pytest.raises(ValueError, match="graph hash mismatch"):
        load_model(path)


def test_checkpoint_rejects_wrong_shape(tmp_path):
    model = init_model(small_config(), seed=9)
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    blobs["param/fc1.w"] = np.zeros((3, 3))
    np.savez(path, **blobs)
    with pytest.raises(ValueError, match="fc1.w.*shape"):
        load_model(path)


def test_checkpoint_missing_tensor(tmp_path):
    model = init_model(small_config(), seed=9)
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files if k != "param/fc2.b"}
    np.savez(path, **blobs)
    with pytest.raises(ValueError, match="missing tensor"):
        load_model(path)


def test_checkpoint_rejects_nonfinite_tensor(tmp_path):
    model = init_model(small_config(), seed=9)
    model.params["fc2.w"][1, 2] = np.nan
    path = tmp_path / "model.npz"
    save_model(model, path)
    with pytest.raises(DataFormatError, match="fc2.w.*non-finite"):
        load_model(path)


def test_checkpoint_with_no_channels_is_malformed(tmp_path):
    import json
    path = tmp_path / "model.npz"
    save_model(init_model(small_config(), seed=9), path)
    with np.load(path, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    doc = json.loads(str(blobs["config_json"]))
    blobs["config_json"] = np.array(json.dumps({**doc, "num_channels": 0}))
    np.savez(path, **blobs)
    with pytest.raises(DataFormatError, match="malformed config_json .*num_channels >= 1"):
        load_model(path)


def test_checkpoint_rewrite_that_fails_part_way_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.npz"
    save_model(init_model(small_config(), seed=9), path)
    before = path.read_bytes()
    write_array, calls = np.lib.format.write_array, []

    def failing(*args, **kwargs):   # the third array of the archive fails to write
        calls.append(args)
        if len(calls) == 3:
            raise OSError("no space left")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing)
    with pytest.raises(OSError, match="no space left"):
        save_model(init_model(small_config(), seed=10), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    assert load_model(path)[0].config == small_config()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope.npz")


# --- config validation ---

def test_network_config_validation(layout39):
    graph = build_knn(layout39, 2)
    with pytest.raises(ValueError, match="num_classes"):
        NetworkConfig(graph=graph, num_classes=1)
    with pytest.raises(ValueError, match="nonempty"):
        NetworkConfig(graph=graph, num_classes=2, fc_sizes=())
    with pytest.raises(ValueError, match="feature"):
        NetworkConfig(graph=graph, num_classes=2, feature="cnn")
    for bad in ({"tagconv_hops": -1}, {"feature_width": 0}, {"fc_sizes": (0, 4)},
                {"fc_sizes": (4, -1, 4)}, {"num_channels": 0}, {"num_channels": -1}):
        with pytest.raises(ValueError, match="tagconv_hops >= 0 and layer sizes >= 1"):
            NetworkConfig(graph=graph, num_classes=2, **bad)
    with pytest.raises(ValueError, match="at least one neuron per class"):
        NetworkConfig(graph=graph, num_classes=3, fc_sizes=(4, 2))


def test_tagconv_hops_is_a_network_setting_only(layout39):
    cfg = NetworkConfig(graph=build_knn(layout39, 2), num_classes=2, tagconv_hops=5,
                        feature_width=2, fc_sizes=(4, 4))
    assert len(cfg.hop_powers) == 6
    for k, power in enumerate(cfg.hop_powers):
        np.testing.assert_allclose(
            power, np.linalg.matrix_power(cfg.graph.adjacency_norm, k), atol=1e-12)
    x = (np.random.default_rng(0).random((5, 39, 2)) < 0.3).astype(np.float64)
    outputs, trace = model_forward(init_model(cfg, seed=1), x)
    assert outputs.shape == (5, 4)
    assert trace.propagated.shape == (5, 6, 39, 2)


def test_param_shapes_and_init_bounds():
    cfg = small_config()
    shapes = param_shapes(cfg)
    assert shapes["feature.g"] == (1, 2, 2)
    assert shapes["fc1.w"] == (4, 8)
    model = init_model(cfg, seed=1)
    for name, arr in model.params.items():
        assert arr.shape == shapes[name]
    # fan-in bound for fc1 is 1/sqrt(8)
    assert np.abs(model.params["fc1.w"]).max() <= 1 / np.sqrt(8)
