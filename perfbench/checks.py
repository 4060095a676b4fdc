"""Checks on each workload's outputs.

They test properties the method must have, or agreement with the
independent reference forward, never a stored copy of earlier output.
Each function returns a list of problems; an empty list means the outputs
are correct.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import reference

# paper-train: final test accuracy on 36 classes must be far above chance (1/36)
PAPER_TRAIN_ACCURACY_FLOOR = 0.25
# desk-protocol: the acceptance floor on each round's best test accuracy
DESK_ACCURACY_FLOOR = 0.95
# Reference and package sum the feature drive in different orders, so they
# may disagree by rounding, about 1e-15. A differing spike or prediction is
# admitted only on a sample where the reference saw a membrane this close to
# threshold; anywhere else it is a real difference.
FRAGILE_MARGIN = 1e-9
GRADIENT_REL_TOL = 1e-4
GRADIENT_FLOOR = 1e-8


def _same_as_first(outputs: list) -> list[str]:
    return ([] if all(o == outputs[0] for o in outputs[1:])
            else ["repeated operations under one seed gave different results"])


def paper_train(outputs: list[dict]) -> list[str]:
    problems = []
    for i, out in enumerate(outputs):
        loss, acc = out["train_loss"], out["test_accuracy"]
        if not loss[-1] < loss[0]:
            problems.append(f"op {i}: mean train loss did not fall ({loss[0]} -> {loss[-1]})")
        if not acc[-1] >= PAPER_TRAIN_ACCURACY_FLOOR:
            problems.append(f"op {i}: final test accuracy {acc[-1]} < "
                            f"{PAPER_TRAIN_ACCURACY_FLOOR}")
        if not out["params_finite"]:
            problems.append(f"op {i}: trained parameters are not finite")
    return problems + _same_as_first(outputs)


def desk_protocol(outputs: list[dict]) -> list[str]:
    problems = []
    for i, out in enumerate(outputs):
        for feature, rounds in out.items():
            for r, res in enumerate(rounds, start=1):
                best = max(res["test_accuracy"])
                if not best >= DESK_ACCURACY_FLOOR:
                    problems.append(f"op {i}: {feature} round {r} best test accuracy "
                                    f"{best} < {DESK_ACCURACY_FLOOR}")
    return problems + _same_as_first(outputs)


def read_eval_outputs(out_dir: Path, stem: str = "model"):
    """Accuracy and confusion matrix as the eval command wrote them."""
    fields = dict(line.split(" ", 1) for line in
                  (out_dir / f"{stem}_accuracy.txt").read_text().splitlines())
    rows = (out_dir / f"{stem}_confusion.txt").read_text().splitlines()[2:]
    cm = np.array([[int(v) for v in row.split()] for row in rows], dtype=np.int64)
    return int(fields["samples"]), float(fields["accuracy"]), cm


def reference_run(checkpoint: Path, samples) -> list[reference.ReferenceResult]:
    net = reference.load_checkpoint(checkpoint)
    return [reference.forward(net, x) for x in samples]


def paper_eval(out_dirs: list[Path], results: list, labels: np.ndarray) -> list[str]:
    """Each eval run's written accuracy and confusion against the reference predictions."""
    k = labels.size
    predictions = np.array([r.prediction for r in results])
    fragile = sum(r.margin < FRAGILE_MARGIN for r in results)
    expected_cm = np.zeros((labels.max() + 1,) * 2, dtype=np.int64)
    np.add.at(expected_cm, (labels, predictions), 1)
    problems = []
    for i, out_dir in enumerate(out_dirs):
        samples, acc, cm = read_eval_outputs(out_dir)
        if samples != k or cm.shape != expected_cm.shape:
            problems.append(f"op {i}: eval scored {samples} samples into a {cm.shape} "
                            f"confusion matrix, expected {k} into {expected_cm.shape}")
            continue
        moved = int(np.abs(cm - expected_cm).sum()) // 2
        if moved > fragile:
            problems.append(f"op {i}: {moved} of {k} predictions differ from the reference "
                            f"({fragile} samples within rounding of threshold)")
        # with no prediction moved this is the reference's accuracy
        if acc != float(np.trace(cm)) / k:
            problems.append(f"op {i}: written accuracy {acc!r} != {np.trace(cm)}/{k}")
    return problems


def spike_counts(checkpoint: Path, samples, results: list,
                 taxelsnn_model) -> tuple[list[str], int]:
    """Per-layer spike counts of the package's forward against the reference.

    Returns the problems and the number of samples whose differing spikes
    were admitted as rounding flips.
    """
    net, _ = taxelsnn_model.load_model(checkpoint)
    problems, flipped = [], 0
    for i, (x, ref) in enumerate(zip(samples, results)):
        _, trace = taxelsnn_model.model_forward(net, x)
        if all(np.array_equal(layer.fired.sum(axis=0), counts)
               for layer, counts in zip(trace.layers, ref.spike_counts)):
            continue
        if ref.margin < FRAGILE_MARGIN:
            flipped += 1
        else:
            problems.append(f"sample {i}: spike counts differ from the reference")
    return problems, flipped


def gradient_check(taxelsnn) -> tuple[list[str], float]:
    """backward() against central differences on a tiny relaxed network.

    The network, inputs and tolerance are those of acceptance criterion 4.
    Returns the problems and the largest error as a share of its tolerance.
    """
    graph = taxelsnn.build_knn(taxelsnn.radial_layout((4,), (2.0,), include_center=False), 2)
    x = (np.random.default_rng(0).random((5, 4, 1)) < 0.5).astype(np.float64)
    y = np.array([0.0, 1.0])
    worst = 0.0
    for feature in ("tagconv", "mlp"):
        cfg = taxelsnn.NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                                     feature=feature, tagconv_hops=1, feature_width=2,
                                     fc_sizes=(4, 6))
        model = taxelsnn.init_model(cfg, seed=3)

        def loss():
            outputs, _ = taxelsnn.model_forward(model, x, relaxed=True)
            diff = y - model.voting @ outputs.mean(axis=0)
            return float(diff @ diff)

        _, trace = taxelsnn.model_forward(model, x, relaxed=True)
        analytic = taxelsnn.backward(model, trace, y)
        for name, p in model.params.items():
            for idx in np.ndindex(p.shape):
                keep = p[idx]
                p[idx] = keep + 1e-5
                up = loss()
                p[idx] = keep - 1e-5
                down = loss()
                p[idx] = keep
                numeric = (up - down) / 2e-5
                allowed = max(GRADIENT_REL_TOL * abs(numeric), GRADIENT_FLOOR)
                worst = max(worst, abs(analytic[name][idx] - numeric) / allowed)
    problems = ([] if worst <= 1.0 else
                [f"backward differs from central differences by {worst:.2f}x the tolerance"])
    return problems, worst
