"""Surrogate-gradient training through time, plus the experiment protocol.

The loss is the squared error between the one-hot label and the
time-averaged voting scores. Gradients are computed by unrolling the
network over the full time window: within a layer the membrane recurrence
contributes a factor beta * (1 - fired_t) from step t+1 back to step t
(the reset path is treated as constant), and every spike nonlinearity
contributes the rectangular surrogate in place of the true, almost-
everywhere-zero derivative. Layers decouple across time — emissions feed
forward only within a timestep — so the backward pass is one reverse scan
per layer plus batched matrix products for the weight gradients. The scan
forms the surrogate and reset factors for the whole window, then runs the
recurrence in place in the same operation order as the per-step formula.

Optimization is Adam with bias correction, in place, one sample per step.

``train`` keeps one helper thread for the work a step does not wait for.
In ``backward`` the helper forms each FC layer's weight gradient
``dz.T @ below`` while this thread sends the delta down (``dz @ W``) and
scans the layers below; in ``adam_step`` it updates the first half (along
axis 0) of every tensor while this thread updates the second. Each half
runs the same numpy calls on the same operands, so the results are
byte-identical to a serial step; called without an executor, both
functions run their submitted calls in place. The helper calls numpy only.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lif import surrogate_grad
from .model import (CALIBRATION_SAMPLES, Model, ForwardTrace, calibrate, hop_major,
                    init_model, layer_names, model_forward, vote)

ADAM_BETAS = (0.9, 0.999)   # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    rounds: int = 10
    split_fraction: float = 0.8
    seed: int = 0
    split_seed: int | None = None  # defaults to seed; rounds pin it so only init varies

    def __post_init__(self):
        if self.epochs < 0 or self.rounds < 1:
            raise ValueError("epochs must be >= 0 and rounds >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class Metrics:
    """Per-epoch loss/accuracy curves and the final confusion matrix."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    confusion: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    def csv_lines(self) -> list[str]:
        lines = ["epoch,train_loss,test_loss,test_acc"]
        for e, tr, te, acc in zip(self.epochs, self.train_loss,
                                  self.test_loss, self.test_accuracy):
            lines.append(f"{e},{tr:.6f},{te:.6f},{acc:.6f}")
        return lines

    def write_csv(self, path) -> None:
        Path(path).write_text("\n".join(self.csv_lines()) + "\n")


def one_hot(label: int, num_classes: int) -> np.ndarray:
    if not 0 <= label < num_classes:
        raise ValueError(f"label {label} outside 0..{num_classes - 1}")
    y = np.zeros(num_classes)
    y[label] = 1.0
    return y


def voting_loss(outputs: np.ndarray, voting: np.ndarray, y: np.ndarray) -> float:
    """Squared error between the label vector and time-averaged votes."""
    scores = voting @ np.asarray(outputs, dtype=np.float64).mean(axis=0)
    diff = np.asarray(y, dtype=np.float64) - scores
    return float(diff @ diff)


def _lif_backward_scan(delta_out: np.ndarray, layer, lif) -> np.ndarray:
    """Reverse-time scan through one layer's membrane recurrence.

    delta_out carries the loss gradient reaching each timestep's emitted
    output (downstream layers and the loss only — never the reset).
    Returns the gradient on the layer's input currents, shape == delta_out.
    """
    dz = surrogate_grad(layer.u, lif)
    dz *= delta_out
    # firing at step t gates the reset applied between t and t+1
    carry = np.subtract(1.0, layer.fired)
    carry *= lif.beta
    # dz[t] = dz[t] + carry[t] * dz[t+1], in place; at t = T-1 it adds carry * 0, so -0.0 -> +0.0
    dz_next = np.zeros(dz.shape[1:])
    for t in range(len(dz) - 1, -1, -1):
        dz_next = np.add(dz[t], np.multiply(carry[t], dz_next, out=carry[t]), out=dz[t])
    return dz


class _InPlace(Executor):
    """Runs each submitted call at once: ``backward`` and ``adam_step`` without a helper."""

    def submit(self, fn, /, *args, **kwargs):
        done = Future()
        done.set_result(fn(*args, **kwargs))
        return done


_IN_PLACE = _InPlace()


def backward(model: Model, trace: ForwardTrace, label_onehot: np.ndarray,
             helper: Executor | None = None) -> dict[str, np.ndarray]:
    """Gradients of the voting loss w.r.t. every trainable tensor.

    Each FC layer's weight gradient is submitted to ``helper`` while this
    thread goes on down the layers; every result is collected before return.
    """
    if not trace.layers:
        raise ValueError("forward trace is empty; run model_forward first")
    cfg = model.config
    lif = cfg.lif
    t_steps = trace.x.shape[0]
    outputs = trace.outputs
    y = np.asarray(label_onehot, dtype=np.float64)
    if y.shape != (cfg.num_classes,):
        raise ValueError(f"label must be one-hot of length {cfg.num_classes}")
    helper = helper or _IN_PLACE

    scores = model.voting @ outputs.mean(axis=0)
    # d loss / d outputs[t] is constant over t: each step contributes 1/T
    dout = np.tile((2.0 / t_steps) * (model.voting.T @ (scores - y)), (t_steps, 1))

    grads: dict[str, np.ndarray | Future] = {}
    for li, name in reversed(list(enumerate(layer_names(cfg)))):
        dz = _lif_backward_scan(dout, trace.layers[li], lif)
        below = trace.layer_input(li)
        if name == "feature" and cfg.feature == "tagconv":
            dg = hop_major(below).T @ dz.reshape(-1, cfg.feature_width)
            grads["feature.g"] = dg.reshape(-1, cfg.num_channels, dg.shape[1]).transpose(1, 2, 0)
        else:
            # the feature layer is last: nothing is left to overlap with its product
            grads[f"{name}.w"] = (helper if li else _IN_PLACE).submit(
                np.matmul, dz.T, below.reshape(t_steps, -1))
        grads[f"{name}.b"] = dz.sum(axis=tuple(range(dz.ndim - 1)))
        if li:
            dout = (dz @ model.params[f"{name}.w"]).reshape(below.shape)
    return {k: g.result() if isinstance(g, Future) else g for k, g in grads.items()}


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    work: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.work = {k: (np.empty_like(m), np.empty_like(m)) for k, m in self.m.items()}

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, helper: Executor | None = None) -> None:
    """In-place Adam update with bias correction; rejects non-finite grads.

    ``helper`` updates the first half of every tensor along axis 0 while
    this thread updates the second half.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step

    def update(first_half: bool) -> None:
        for name, grad in grads.items():
            part = np.s_[:len(grad) // 2] if first_half else np.s_[len(grad) // 2:]
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), each product in that order, in two work arrays
            g, p, m, v = grad[part], params[name][part], state.m[name][part], state.v[name][part]
            num, denom = (w[part] for w in state.work[name])
            m *= b1
            m += np.multiply(1.0 - b1, g, out=num)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=num), g, out=num)
            np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
            np.multiply(lr, np.divide(m, bc1, out=num), out=num)
            p -= np.divide(num, denom, out=num)

    first = (helper or _IN_PLACE).submit(update, True)
    try:
        update(False)
    finally:
        first.result()   # the helper writes into params: never return before it is done


def stratified_split(labels, fraction: float, seed: int):
    """Per-class deterministic split; returns (train_indices, test_indices)."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise ValueError(f"class {cls} has {idx.size} sample(s); need at least 2")
        idx = rng.permutation(idx)
        n_train = int(round(fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1)
        train.extend(idx[:n_train])
        test.extend(idx[n_train:])
    return np.array(sorted(train)), np.array(sorted(test))


def evaluate(model: Model, samples, labels):
    """Mean voting loss, accuracy, and predictions on a held-out set."""
    losses = []
    preds = []
    for sample, label in zip(samples, labels):
        outputs, _ = model_forward(model, sample)
        losses.append(voting_loss(outputs, model.voting, one_hot(label, model.config.num_classes)))
        preds.append(vote(outputs, model.voting)[1])
    preds = np.array(preds, dtype=np.int64)
    acc = float(np.mean(preds == np.asarray(labels))) if len(preds) else float("nan")
    return float(np.mean(losses)) if losses else float("nan"), acc, preds


def confusion_matrix(labels, predictions, num_classes: int) -> np.ndarray:
    """Counts of (true, predicted) pairs, shape (num_classes, num_classes)."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for truth, pred in zip(labels, predictions):
        cm[truth, pred] += 1
    return cm


def write_confusion(cm: np.ndarray, class_names, path) -> None:
    lines = ["# confusion matrix: rows true class, columns predicted"]
    lines.append("classes " + " ".join(class_names))
    for row in cm:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def train(model: Model, dataset, cfg: TrainConfig):
    """Optimize the model on a stratified split of (sample, label) pairs.

    Runs per-sample forward/backward/Adam over reshuffled training data
    each epoch, evaluating loss and accuracy on the held-out split after
    every epoch. One helper thread, joined before return, takes the half of
    each backward pass and Adam step that the step does not wait for.
    Returns (model, metrics, (train_idx, test_idx)).
    """
    labels = np.array([label for _, label in dataset], dtype=np.int64)
    split_seed = cfg.seed if cfg.split_seed is None else cfg.split_seed
    train_idx, test_idx = stratified_split(labels, cfg.split_fraction, split_seed)
    train_samples = [dataset[i][0] for i in train_idx]
    train_labels = labels[train_idx]
    test_samples = [dataset[i][0] for i in test_idx]
    test_labels = labels[test_idx]

    metrics = Metrics()
    state = AdamState.for_params(model.params)
    rng = np.random.default_rng(cfg.seed)
    num_classes = model.config.num_classes
    with ThreadPoolExecutor(max_workers=1) as helper:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(train_samples))
            epoch_losses = np.empty(len(order))
            for pos, i in enumerate(order):
                outputs, trace = model_forward(model, train_samples[i])
                y = one_hot(int(train_labels[i]), num_classes)
                epoch_losses[pos] = voting_loss(outputs, model.voting, y)
                grads = backward(model, trace, y, helper)
                adam_step(model.params, grads, state, cfg.learning_rate, helper)
            test_loss, test_acc, test_preds = evaluate(model, test_samples, test_labels)
            metrics.epochs.append(epoch)
            metrics.train_loss.append(float(epoch_losses.mean()))
            metrics.test_loss.append(test_loss)
            metrics.test_accuracy.append(test_acc)
    if cfg.epochs > 0:
        metrics.confusion = confusion_matrix(test_labels, test_preds, num_classes)
    return model, metrics, (train_idx, test_idx)


@dataclass
class RoundResult:
    model: Model
    metrics: Metrics
    test_indices: np.ndarray


def run_rounds(dataset, net_config, cfg: TrainConfig) -> list[RoundResult]:
    """Repeat train-and-test with fresh initialization per round.

    The data split stays fixed (seeded by cfg.seed); initialization and
    shuffling vary with the round index. Before its first epoch, each
    round's fresh model is passed through ``calibrate`` on
    ``CALIBRATION_SAMPLES`` training samples drawn under the round's seed
    (never the test split): the plain fan-in draw leaves the output layer
    silent and every gradient zero, so training would never start.
    """
    labels = np.array([label for _, label in dataset], dtype=np.int64)
    train_idx, _ = stratified_split(labels, cfg.split_fraction, cfg.seed)
    results = []
    for r in range(cfg.rounds):
        round_cfg = dataclasses.replace(cfg, seed=cfg.seed + r, split_seed=cfg.seed)
        model = init_model(net_config, seed=round_cfg.seed)
        picks = np.random.default_rng(round_cfg.seed).choice(
            train_idx, size=min(CALIBRATION_SAMPLES, train_idx.size), replace=False)
        calibrate(model, [dataset[i][0] for i in picks])
        model, metrics, (_, test_idx) = train(model, dataset, round_cfg)
        results.append(RoundResult(model, metrics, test_idx))
    return results


def summarize_rounds(results) -> tuple[float, float]:
    """Mean and population std of final test accuracies, as fractions."""
    accs = np.array([r.metrics.final_accuracy for r in results])
    return float(accs.mean()), float(accs.std())


def format_mean_std(mean: float, std: float) -> str:
    """Percent accuracy in the conventional report format, e.g. '89.44 (0.55)'."""
    return f"{100.0 * mean:.2f} ({100.0 * std:.2f})"
