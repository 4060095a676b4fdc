"""The benchmark's own tests: its reference forward and its output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import types

import numpy as np
import pytest

import checks
import inputs
import reference
import taxelsnn
import tracing
from taxelsnn import model as tmodel


def _small_model(feature, seed, tmp_path):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    lay = taxelsnn.TaxelLayout(rng.normal(size=(n, 2)))
    cfg = taxelsnn.NetworkConfig(graph=taxelsnn.build_knn(lay, 2), num_classes=3,
                                 num_channels=int(rng.integers(1, 3)), feature=feature,
                                 feature_width=int(rng.integers(2, 6)),
                                 fc_sizes=(int(rng.integers(4, 12)), 9))
    net = taxelsnn.init_model(cfg, seed=seed)
    for name, p in net.params.items():
        if not name.endswith(".b"):
            p *= 4.0  # so every layer fires on sparse inputs
    path = tmp_path / f"{feature}{seed}.npz"
    taxelsnn.save_model(net, path)
    xs = [(rng.random((30, n, cfg.num_channels)) < 0.3).astype(np.uint8) for _ in range(4)]
    return net, path, xs


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matches_model_forward(feature, seed, tmp_path):
    net, path, xs = _small_model(feature, seed, tmp_path)
    ref_net = reference.load_checkpoint(path)
    fired_any = 0
    for x in xs:
        outputs, trace = taxelsnn.model_forward(net, x)
        ref = reference.forward(ref_net, x)
        assert ref.margin > checks.FRAGILE_MARGIN
        for layer, counts in zip(trace.layers, ref.spike_counts):
            np.testing.assert_array_equal(layer.fired.sum(axis=0), counts)
        assert ref.prediction == taxelsnn.vote(outputs, net.voting)[1]
        fired_any += int(ref.spike_counts[-1].sum() > 0)
    assert fired_any > 0


def test_reference_drives_match_calibration_input(tmp_path):
    net, path, xs = _small_model("tagconv", 5, tmp_path)
    ref = reference.forward(reference.load_checkpoint(path), xs[0], keep_drives=True)
    _, trace = taxelsnn.model_forward(net, xs[0])
    expected = np.einsum("tknc,cfk->tnf", trace.propagated, net.params["feature.g"])
    np.testing.assert_allclose(ref.drives[0], expected, atol=1e-12)


def _train_output(loss=(0.9, 0.8), acc=(0.3, 0.5), finite=True):
    return {"train_loss": list(loss), "test_accuracy": list(acc),
            "confusion": [[1]], "params_finite": finite}


def test_paper_train_checks():
    assert checks.paper_train([_train_output(), _train_output()]) == []
    assert checks.paper_train([_train_output(loss=(0.8, 0.8))])
    assert checks.paper_train([_train_output(acc=(0.3, 0.1))])
    assert checks.paper_train([_train_output(finite=False)])
    assert checks.paper_train([_train_output(), _train_output(acc=(0.3, 0.6))])


def test_desk_protocol_checks():
    good = {"tagconv": [{"test_accuracy": [0.5, 1.0], "train_loss": [0.5, 0.1]}],
            "mlp": [{"test_accuracy": [0.9, 0.95], "train_loss": [0.5, 0.1]}]}
    assert checks.desk_protocol([good, good]) == []
    bad = {**good, "mlp": [{"test_accuracy": [0.9, 0.9375], "train_loss": [0.5, 0.1]}]}
    assert checks.desk_protocol([bad])


def _write_eval(out_dir, predictions, labels, accuracy=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    acc = float(np.mean(predictions == labels)) if accuracy is None else accuracy
    (out_dir / "model_accuracy.txt").write_text(
        f"samples {labels.size}\nloss 0.5\naccuracy {acc!r}\n")
    cm = np.zeros((3, 3), dtype=int)
    np.add.at(cm, (labels, predictions), 1)
    (out_dir / "model_confusion.txt").write_text(
        "# confusion\nclasses a b c\n" + "\n".join(" ".join(map(str, r)) for r in cm) + "\n")
    return out_dir


def _results(predictions, margin=1.0):
    return [reference.ReferenceResult([], [], int(p), margin) for p in predictions]


def test_paper_eval_checks(tmp_path):
    labels = np.array([0, 0, 1, 1, 2, 2])
    preds = np.array([0, 1, 1, 1, 2, 0])
    good = _write_eval(tmp_path / "good", preds, labels)
    assert checks.paper_eval([good], _results(preds), labels) == []
    flipped = preds.copy()
    flipped[0] = 2
    bad = _write_eval(tmp_path / "flip", flipped, labels)
    assert checks.paper_eval([bad], _results(preds), labels)
    # a flip is admitted only where the reference saw a membrane at threshold
    fragile = _results(preds)
    fragile[0].margin = 0.0
    assert checks.paper_eval([bad], fragile, labels) == []
    wrong_acc = _write_eval(tmp_path / "acc", preds, labels, accuracy=1.0)
    assert checks.paper_eval([wrong_acc], _results(preds), labels)


def test_spike_count_check_rejects_changed_weights(tmp_path):
    net, path, xs = _small_model("tagconv", 3, tmp_path)
    ref_net = reference.load_checkpoint(path)
    results = [reference.forward(ref_net, x) for x in xs]
    assert checks.spike_counts(path, xs, results, tmodel) == ([], 0)
    net.params["fc1.w"] *= 1.5
    taxelsnn.save_model(net, path)
    problems, _ = checks.spike_counts(path, xs, results, tmodel)
    assert problems


def test_gradient_check_rejects_wrong_backward():
    problems, share = checks.gradient_check(taxelsnn)
    assert problems == [] and share <= 1.0

    def scaled_backward(*args):
        return {k: 1.01 * g for k, g in taxelsnn.backward(*args).items()}

    broken = types.SimpleNamespace(**{k: getattr(taxelsnn, k) for k in dir(taxelsnn)
                                      if not k.startswith("_")})
    broken.backward = scaled_backward
    problems, share = checks.gradient_check(broken)
    assert problems and share > 1.0


def test_generated_inputs_are_seeded(tmp_path):
    spec = inputs.DataSpec(classes=3, samples_per_class=2, duration=0.5, noise_rate=5.0)
    a = inputs.write_dataset(tmp_path / "a", inputs.ring_positions(), spec,
                             np.random.default_rng(4))
    b = inputs.write_dataset(tmp_path / "b", inputs.ring_positions(), spec,
                             np.random.default_rng(4))
    assert (tmp_path / "a/manifest.txt").read_text() == (tmp_path / "b/manifest.txt").read_text()
    assert all(np.array_equal(x, y) for x, y in zip(a.samples, b.samples))
    loaded = taxelsnn.load_samples(taxelsnn.load_manifest(a.manifest))
    assert [label for _, label in loaded] == list(a.labels)
    for (tensor, _), x in zip(loaded, a.samples):
        np.testing.assert_array_equal(tensor.data, x)


def test_tracer_counts_calls_and_restores_bindings(tmp_path):
    from taxelsnn import cli, datasets, graphs, layout, training
    modules = {"cli": cli, "datasets": datasets, "graphs": graphs, "layout": layout,
               "model": tmodel, "training": training}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.BINDINGS}
    spec = inputs.DataSpec(classes=2, samples_per_class=3, duration=0.2, noise_rate=20.0)
    data = inputs.write_dataset(tmp_path, inputs.ring_positions(), spec,
                                np.random.default_rng(0))
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        dataset = datasets.load_samples(datasets.load_manifest(data.manifest))
        graph = graphs.build_graph(layout.load_layout(data.layout), graphs.GraphSpec("knn", k=2))
        cfg = tmodel.NetworkConfig(graph=graph, num_classes=2, num_channels=2,
                                   feature_width=4, fc_sizes=(6, 4))
        training.run_rounds(dataset, cfg, training.TrainConfig(epochs=2, rounds=1))
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())
    metrics = tracing.per_layer_metrics(tracer)
    steps = spec.steps
    # 2 train / 1 test sample per class; evaluate once per epoch, confusion reruns it
    assert metrics["events.bin_events_calls_per_sample"][0] == 2.0
    assert metrics["model.calibrate_forward_calls"][0] == 3 * 4
    assert metrics["lif.membrane_update_calls"][0] == 3 * steps
    assert metrics["model.forward_calls_per_scored_sample"][0] == pytest.approx(3 / 2)
    assert metrics["training.backward_ms"][0] > 0
    assert metrics["cli.eval_s"][0] == 0.0
    counts = tracing.call_counts(tracer)
    assert counts["training.backward"] == 2 * 4
    assert counts["model.propagate_einsum"] == counts["model.model_forward"]
    # calibrate recomputes the feature drive of each of its 4 samples
    assert counts["model.feature_einsum"] == counts["model.model_forward"] + 4
