"""Surrogate-gradient training through time, plus the experiment protocol.

The loss is the squared error between the one-hot label and the
time-averaged voting scores. Gradients are computed by unrolling the
network over the full time window: within a layer the membrane recurrence
contributes a factor beta * (1 - fired_t) from step t+1 back to step t
(the reset path is treated as constant), and every spike nonlinearity
contributes the rectangular surrogate in place of the true, almost-
everywhere-zero derivative. Layers decouple across time — emissions feed
forward only within a timestep — so the backward pass is one reverse scan
per layer, then ``model.layer_grads`` for its weight, bias and input
gradients. The scan forms the surrogate and reset factors for the whole
window, then runs the recurrence in place in the per-step formula's order.

Optimization is Adam with bias correction, in place, one sample per step.

``train`` returns one round of the protocol, and ``run_round`` is that
round as a function of ``(cfg, r)`` alone. The rounds share nothing but
their inputs, so ``run_rounds`` runs each on a spawned worker process, at
most one per usable core (the process's CPU affinity), each with one BLAS
thread: a round gives the same bytes however many run beside it. A worker
ends when the caller's pipe to it closes.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import write_lines
from .lif import surrogate_grad
from .model import (CALIBRATION_SAMPLES, Model, ForwardTrace, calibrate, init_model,
                    layer_grads, layer_names, model_forward, vote)

ADAM_BETAS = (0.9, 0.999)   # decay rates of Adam's first and second moments
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    rounds: int = 10
    split_fraction: float = 0.8
    seed: int = 0

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

    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    confusion: np.ndarray | None = None

    @property
    def final_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    def csv_lines(self) -> list[str]:
        lines = ["epoch,train_loss,test_loss,test_acc"]
        for e, (tr, te, acc) in enumerate(zip(self.train_loss, self.test_loss,
                                              self.test_accuracy), start=1):
            lines.append(f"{e},{tr:.6f},{te:.6f},{acc:.6f}")
        return lines


class RoundResult(NamedTuple):
    model: Model
    metrics: Metrics
    test_indices: np.ndarray


def one_hot(label: int, num_classes: int) -> np.ndarray:
    if not 0 <= label < num_classes:
        raise ValueError(f"label {label} outside 0..{num_classes - 1}")
    y = np.zeros(num_classes)
    y[label] = 1.0
    return y


def voting_loss(outputs: np.ndarray, voting: np.ndarray, y: np.ndarray) -> float:
    """Squared error between the label vector and time-averaged votes."""
    diff = np.asarray(y, dtype=np.float64) - vote(outputs, voting)[0]
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


def backward(model: Model, trace: ForwardTrace, label_onehot: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the voting loss w.r.t. every trainable tensor."""
    if not trace.layers:
        raise ValueError("forward trace is empty; run model_forward first")
    cfg = model.config
    t_steps = trace.x.shape[0]
    y = np.asarray(label_onehot, dtype=np.float64)
    if y.shape != (cfg.num_classes,):
        raise ValueError(f"label must be one-hot of length {cfg.num_classes}")

    scores, _ = vote(trace.outputs, model.voting)
    # d loss / d outputs[t] is constant over t: each step contributes 1/T
    dout = np.tile((2.0 / t_steps) * (model.voting.T @ (scores - y)), (t_steps, 1))

    grads: dict[str, np.ndarray] = {}
    for li, name in reversed(list(enumerate(layer_names(cfg)))):
        dz = _lif_backward_scan(dout, trace.layers[li], cfg.lif)
        layer, dout = layer_grads(model, name, trace.layer_input(li), dz)
        grads.update(layer)
    return grads


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
              state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction; rejects non-finite grads."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, g in grads.items():
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), each product in that order, in two work arrays
        m, v, (num, denom) = state.m[name], state.v[name], state.work[name]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=num)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, g, out=num), g, out=num)
        np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), ADAM_EPS, out=denom)
        np.multiply(lr, np.divide(m, bc1, out=num), out=num)
        params[name] -= np.divide(num, denom, out=num)


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
    """Mean voting loss, accuracy, predictions and confusion matrix of a held-out set."""
    num_classes = model.config.num_classes
    losses, preds = [], []
    for sample, label in zip(samples, labels):
        outputs, _ = model_forward(model, sample)
        losses.append(voting_loss(outputs, model.voting, one_hot(label, num_classes)))
        preds.append(vote(outputs, model.voting)[1])
    preds = np.array(preds, dtype=np.int64)
    cm = confusion_matrix(labels, preds, num_classes)
    n = len(preds)   # accuracy is the confusion's trace over n; an empty set gives NaNs
    loss, acc = (float(np.mean(losses)), float(np.trace(cm)) / n) if n else (math.nan,) * 2
    return loss, acc, preds, cm


def confusion_matrix(labels, predictions, num_classes: int) -> np.ndarray:
    """Counts of (true, predicted) pairs, shape (num_classes, num_classes)."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for truth, pred in zip(labels, predictions):
        cm[truth, pred] += 1
    return cm


def write_confusion(cm: np.ndarray, class_names, path) -> None:
    write_lines(path, ["# confusion matrix: rows true class, columns predicted",
                       "classes " + " ".join(class_names),
                       *(" ".join(str(int(v)) for v in row) for row in cm)])


def train(model: Model, dataset, cfg: TrainConfig, r: int = 0) -> RoundResult:
    """Optimize the model on a stratified split of (sample, label) pairs.

    Runs per-sample forward/backward/Adam over reshuffled training data
    each epoch, evaluating loss and accuracy on the held-out split after
    every epoch; the split is seeded by cfg.seed, the shuffles by
    cfg.seed + r. Returns the round: ``(model, metrics, test_indices)``.
    """
    labels = np.array([label for _, label in dataset], dtype=np.int64)
    train_idx, test_idx = stratified_split(labels, cfg.split_fraction, cfg.seed)
    train_samples = [dataset[i][0] for i in train_idx]
    train_labels = labels[train_idx]
    test_samples = [dataset[i][0] for i in test_idx]
    test_labels = labels[test_idx]

    metrics = Metrics()
    state = AdamState.for_params(model.params)
    rng = np.random.default_rng(cfg.seed + r)
    num_classes = model.config.num_classes
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_samples))
        epoch_losses = np.empty(len(order))
        for pos, i in enumerate(order):
            outputs, trace = model_forward(model, train_samples[i])
            y = one_hot(int(train_labels[i]), num_classes)
            epoch_losses[pos] = voting_loss(outputs, model.voting, y)
            grads = backward(model, trace, y)
            adam_step(model.params, grads, state, cfg.learning_rate)
        test_loss, test_acc, _, metrics.confusion = evaluate(model, test_samples, test_labels)
        metrics.train_loss.append(float(epoch_losses.mean()))
        metrics.test_loss.append(test_loss)
        metrics.test_accuracy.append(test_acc)
    return RoundResult(model, metrics, test_idx)


def run_round(dataset, net_config, cfg: TrainConfig, r: int) -> RoundResult:
    """Round ``r`` (counted from 0) of the protocol, a function of its arguments alone.

    The data split stays fixed (seeded by cfg.seed); initialization and
    shuffling are seeded by ``cfg.seed + r``. Before its first epoch, the
    round's fresh model is passed through ``calibrate`` on
    ``CALIBRATION_SAMPLES`` training samples drawn under the round's seed
    (never the test split): the plain fan-in draw leaves the output layer
    silent and every gradient zero, so training would never start. It
    returns ``train``'s ``RoundResult``.
    """
    labels = np.array([label for _, label in dataset], dtype=np.int64)
    train_idx, _ = stratified_split(labels, cfg.split_fraction, cfg.seed)
    model = init_model(net_config, seed=cfg.seed + r)
    picks = np.random.default_rng(cfg.seed + r).choice(
        train_idx, size=min(CALIBRATION_SAMPLES, train_idx.size), replace=False)
    calibrate(model, [dataset[i][0] for i in picks])
    return train(model, dataset, cfg, r)


# BLAS reads its thread count once, as numpy loads, so a worker must inherit
# it; one thread per worker keeps the workers from competing for the cores
WORKER_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # the platform has no affinity call
        return os.cpu_count() or 1


def _start_worker(warning_filters, watched) -> None:
    """Round worker set-up: the caller's warning filters, and exit at ``watched``'s EOF."""
    import threading

    # a warning the caller turns into an error fails the round here as it would there
    warnings.resetwarnings()
    warnings.filters[:] = warning_filters

    def exit_at_eof():
        watched.poll(None)   # nothing is ever sent, so this returns at EOF
        os._exit(1)   # the caller stopped the rounds, or is gone (killed, say)

    threading.Thread(target=exit_at_eof, daemon=True).start()


def run_rounds(dataset, net_config, cfg: TrainConfig) -> list[RoundResult]:
    """``run_round`` for every round of ``cfg``, returned in round order.

    Every round runs on one of ``min(cfg.rounds, usable cores)`` spawned
    worker processes with one BLAS thread each, also a single round. This
    process's environment is the same afterwards. A worker exits when this
    call's pipe to it closes: at the first round to fail, which then raises
    here, or at an interrupt (the other rounds do not finish), and when this
    process dies. A bare ``os.fork()`` child would inherit the pipe and keep
    the workers alive; the package forks nothing, and ``subprocess`` does
    not pass the pipe on.
    """
    workers = min(cfg.rounds, _usable_cores())
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    spawn = multiprocessing.get_context("spawn")
    watched, stop = spawn.Pipe(duplex=False)
    saved = {k: os.environ[k] for k in WORKER_BLAS_ENV if k in os.environ}
    os.environ.update(WORKER_BLAS_ENV)   # workers start inside the pool's block
    try:
        pool = ProcessPoolExecutor(workers, mp_context=spawn, initializer=_start_worker,
                                   initargs=(warnings.filters, watched))
        # the pool shuts down (its workers exit with code 0) before the pipe closes
        with watched, stop, pool:
            try:
                rounds = [pool.submit(run_round, dataset, net_config, cfg, r)
                          for r in range(cfg.rounds)]
                for done in as_completed(rounds):
                    done.result()   # the first round to fail raises here
            except BaseException:
                # Every worker exits at the pipe's EOF. Leaving the block then fails the
                # rounds not yet done (none is cancelled: Python 3.11's pool would then
                # fail it twice, InvalidStateError) and joins the pool.
                stop.close()
                raise
        return [future.result() for future in rounds]
    finally:
        for k in WORKER_BLAS_ENV:
            os.environ.pop(k, None)
        os.environ.update(saved)


def summarize_rounds(results) -> tuple[float, float]:
    """Mean and population std of final test accuracies, as fractions."""
    accs = np.array([r.metrics.final_accuracy for r in results])
    return float(accs.mean()), float(accs.std())


def format_mean_std(mean: float, std: float) -> str:
    """Percent accuracy in the conventional report format, e.g. '89.44 (0.55)'."""
    return f"{100.0 * mean:.2f} ({100.0 * std:.2f})"
