import dataclasses
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from multiprocessing.context import SpawnProcess
from pathlib import Path

import numpy as np
import pytest

from taxelsnn import (AdamState, Metrics, NetworkConfig, TaxelLayout, TrainConfig,
                      adam_step, backward, build_knn, build_manual, confusion_matrix,
                      generate_synthetic, init_model, load_samples, model_forward, one_hot,
                      stratified_split, train, voting_loss, run_round, run_rounds,
                      summarize_rounds)
from taxelsnn.lif import surrogate_grad
from taxelsnn import training
from taxelsnn.model import voting_matrix
from taxelsnn.training import evaluate, format_mean_std
from tests.conftest import package_env


def one_neuron_chain_model():
    """1-taxel network with hand-set weights for a fully traced T=1 pass."""
    lay = TaxelLayout(np.array([[0.0, 0.0]]))
    graph = build_manual(lay, [])
    cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature="mlp", feature_width=1, fc_sizes=(1, 2))
    model = init_model(cfg, seed=0)
    p = model.params
    p["feature.w"][:] = 0.5
    p["feature.b"][:] = 0.0
    p["fc1.w"][:] = 0.6
    p["fc1.b"][:] = 0.0
    p["fc2.w"][:] = np.array([[0.5], [0.0]])
    p["fc2.b"][:] = 0.0
    return model


def tiny_dataset(num_per_class=4, t_steps=6, seed=0):
    """4-taxel two-class toy set: class 0 lights taxels {0,1}, class 1 {2,3}."""
    rng = np.random.default_rng(seed)
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    graph = build_knn(lay, 2)
    data = []
    for cls in (0, 1):
        taxels = (0, 1) if cls == 0 else (2, 3)
        for _ in range(num_per_class):
            x = np.zeros((t_steps, 4, 1))
            x[:, taxels, 0] = (rng.random((t_steps, 2)) < 0.8)
            data.append((x, cls))
    return graph, data


# --- loss ---

def test_loss_zero_when_votes_equal_label():
    u = voting_matrix(2, 2)
    outputs = np.tile([1.0, 0.0], (5, 1))
    assert voting_loss(outputs, u, np.array([1.0, 0.0])) == 0.0


def test_loss_one_for_silent_network():
    u = voting_matrix(4, 8)
    assert voting_loss(np.zeros((10, 8)), u, one_hot(2, 4)) == 1.0


def test_loss_hand_value():
    # averaged votes [0.5, 0.2] against y = [1, 0]: 0.25 + 0.04
    t = 10
    outputs = np.zeros((t, 2))
    outputs[:5, 0] = 1.0
    outputs[:2, 1] = 1.0
    u = voting_matrix(2, 2)
    assert voting_loss(outputs, u, np.array([1.0, 0.0])) == pytest.approx(0.29, abs=1e-12)


def test_loss_nonnegative(rng):
    u = voting_matrix(3, 6)
    for _ in range(20):
        outputs = (rng.random((7, 6)) < 0.5).astype(float)
        assert voting_loss(outputs, u, one_hot(int(rng.integers(3)), 3)) >= 0.0


# --- backward ---

def test_backward_zero_loss_gives_zero_gradients():
    model = one_neuron_chain_model()
    x = np.ones((1, 1, 1))
    _, trace = model_forward(model, x)
    grads = backward(model, trace, np.array([1.0, 0.0]))  # scores == y
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_backward_matches_hand_chain():
    model = one_neuron_chain_model()
    x = np.ones((1, 1, 1))
    out, trace = model_forward(model, x)
    np.testing.assert_array_equal(out, [[1.0, 0.0]])
    grads = backward(model, trace, np.array([0.0, 1.0]))
    # chain: dL/do3 = 2*(s-y) = [2,-2]; each step is surrogate x input
    np.testing.assert_allclose(grads["fc2.w"], [[4.0], [0.0]])
    np.testing.assert_allclose(grads["fc2.b"], [4.0, 0.0])
    np.testing.assert_allclose(grads["fc1.w"], [[4.0]])
    np.testing.assert_allclose(grads["fc1.b"], [4.0])
    np.testing.assert_allclose(grads["feature.w"], [[4.8]])
    np.testing.assert_allclose(grads["feature.b"], [4.8])


def test_backward_requires_trace():
    from taxelsnn.model import ForwardTrace
    model = one_neuron_chain_model()
    empty = ForwardTrace(x=np.zeros((1, 1, 1)), propagated=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="trace"):
        backward(model, empty, np.array([1.0, 0.0]))


def finite_difference_grads(model, x, y, h=1e-5):
    def loss_now():
        out, _ = model_forward(model, x, relaxed=True)
        return voting_loss(out, model.voting, y)

    fd = {}
    for name, p in model.params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + h
            up = loss_now()
            p[ix] = orig - h
            down = loss_now()
            p[ix] = orig
            g[ix] = (up - down) / (2 * h)
        fd[name] = g
    return fd


def assert_grads_close(analytic, fd, rel=1e-4, floor=1e-8):
    for name, g_fd in fd.items():
        err = np.abs(analytic[name] - g_fd)
        tol = rel * np.maximum(np.abs(g_fd), floor)
        assert np.all(err <= np.maximum(tol, floor)), (
            f"{name}: max err {err.max()} vs fd magnitude {np.abs(g_fd).max()}")


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_bptt_matches_finite_differences(feature):
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    graph = build_knn(lay, 2)
    # two channels tell the filter gradient's channel axis from its hop axis. Each seed leaves
    # every tensor live and no membrane within the difference step of the relaxed ramp's kinks
    # (seed 0 on two channels has one, and central differences across it miss by 6e-3)
    for channels, seed in ((1, 3), (2, 5)):
        cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=channels, feature=feature,
                            tagconv_hops=1, feature_width=2, fc_sizes=(4, 6))
        model = init_model(cfg, seed=seed)
        rng = np.random.default_rng(0)
        x = (rng.random((5, 4, channels)) < 0.5).astype(np.float64)
        y = one_hot(1, 2)
        _, trace = model_forward(model, x, relaxed=True)
        analytic = backward(model, trace, y)
        assert all(np.any(g) for g in analytic.values())   # every tensor gets gradient
        fd = finite_difference_grads(model, x, y)
        assert_grads_close(analytic, fd)


# --- adam ---

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=1e-3)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_minus_lr():
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.array([1.0])}, state, lr=1e-3)
    assert params["w"][0] == pytest.approx(-1e-3, abs=1e-10)


def test_adam_rejects_nonfinite_gradient():
    params = {"fc1.w": np.array([0.0])}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="fc1.w"):
        adam_step(params, {"fc1.w": np.array([np.nan])}, state, lr=1e-3)
    assert state.step == 0  # rejected before any update

    # one bad tensor among finite ones: nothing moves
    rng = np.random.default_rng(0)
    params = {"fc1.w": rng.random((6, 5)), "fc1.b": rng.random(6), "fc2.w": rng.random((4, 6))}
    state = AdamState.for_params(params)
    adam_step(params, {k: rng.random(p.shape) for k, p in params.items()}, state, 1e-3)
    kept = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
    grads = {k: rng.random(p.shape) for k, p in params.items()}
    grads["fc1.b"][3] = np.nan
    with pytest.raises(ValueError, match="fc1.b"):
        adam_step(params, grads, state, 1e-3)
    assert state.step == 1
    for before, after in zip(kept, (params, state.m, state.v)):
        assert all(before[k].tobytes() == after[k].tobytes() for k in before)


def test_adam_monotone_on_convex_quadratic():
    target = np.array([0.5, 0.3, -0.7])
    params = {"w": np.array([2.0, -1.0, 1.5])}
    state = AdamState.for_params(params)
    losses = []
    for _ in range(100):
        diff = params["w"] - target
        losses.append(float(diff @ diff))
        adam_step(params, {"w": 2 * diff}, state, lr=1e-3)
    warm = losses[10:]
    assert all(a > b for a, b in zip(warm, warm[1:]))


# --- stratified split ---

def test_split_objects_shape():
    labels = np.repeat(np.arange(36), 20)
    train_idx, test_idx = stratified_split(labels, 0.8, seed=0)
    assert len(train_idx) == 36 * 16 and len(test_idx) == 36 * 4
    for cls in range(36):
        assert (labels[train_idx] == cls).sum() == 16
        assert (labels[test_idx] == cls).sum() == 4


def test_split_containers_shape():
    labels = np.repeat(np.arange(20), 15)
    train_idx, test_idx = stratified_split(labels, 0.8, seed=0)
    for cls in range(20):
        assert (labels[train_idx] == cls).sum() == 12
        assert (labels[test_idx] == cls).sum() == 3


def test_split_deterministic_and_disjoint():
    labels = np.repeat(np.arange(5), 8)
    a = stratified_split(labels, 0.75, seed=42)
    b = stratified_split(labels, 0.75, seed=42)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    union = np.concatenate(a)
    assert sorted(union) == list(range(len(labels)))


def test_split_rejects_tiny_class():
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(np.array([0, 0, 1]), 0.8, seed=0)


# --- training loop ---

def test_train_zero_epochs_is_identity():
    graph, data = tiny_dataset()
    cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    model = init_model(cfg, seed=1)
    before = {k: v.copy() for k, v in model.params.items()}
    _, metrics, _ = train(model, data, TrainConfig(epochs=0, rounds=1, seed=0))
    assert metrics.train_loss == []
    assert metrics.confusion is None
    for name, arr in before.items():
        np.testing.assert_array_equal(model.params[name], arr)


def test_train_deterministic_under_seed():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    cfg = TrainConfig(epochs=2, rounds=1, seed=5)
    _, m1, _ = train(init_model(net, seed=5), data, cfg)
    _, m2, _ = train(init_model(net, seed=5), data, cfg)
    assert m1.train_loss == m2.train_loss
    assert m1.test_loss == m2.test_loss
    assert m1.test_accuracy == m2.test_accuracy


def test_train_records_metrics_and_confusion():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    cfg = TrainConfig(epochs=3, rounds=1, seed=2)
    result = train(init_model(net, seed=2), data, cfg)
    assert type(result) is training.RoundResult
    _, metrics, test_idx = result
    assert [line.split(",")[0] for line in metrics.csv_lines()[1:]] == ["1", "2", "3"]
    assert len(metrics.train_loss) == 3
    assert metrics.confusion is not None
    # confusion rows sum to per-class test counts
    labels = np.array([lbl for _, lbl in data])
    for cls in (0, 1):
        assert metrics.confusion[cls].sum() == (labels[test_idx] == cls).sum()
    train_idx, _ = stratified_split(labels, cfg.split_fraction, cfg.seed)
    assert len(train_idx) + len(test_idx) == len(data)


def test_train_leaves_no_thread_running():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    before = set(threading.enumerate())
    train(init_model(net, seed=2), data, TrainConfig(epochs=2, rounds=1, seed=2))
    poisoned = init_model(net, seed=2)
    poisoned.params["fc2.w"][0, 0] = np.nan   # NaN reaches fc1's gradient through dz @ fc2.w
    with pytest.raises(ValueError, match="non-finite gradient"):
        train(poisoned, data, TrainConfig(epochs=2, rounds=1, seed=2))
    assert set(threading.enumerate()) == before


def test_metrics_csv_format(tmp_path):
    m = Metrics(train_loss=[0.5, 0.25],
                test_loss=[0.6, 0.3], test_accuracy=[0.5, 1.0])
    path = tmp_path / "metrics.csv"
    m.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,test_acc"
    assert lines[1] == "1,0.500000,0.600000,0.500000"
    assert len(lines) == 3


def test_confusion_constant_classifier_single_column():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    model = init_model(net, seed=0)
    for arr in model.params.values():
        arr[:] = 0.0  # silent network always votes class 0
    samples = [x for x, _ in data]
    labels = [lbl for _, lbl in data]
    _, _, preds = evaluate(model, samples, labels)
    cm = confusion_matrix(labels, preds, 2)
    np.testing.assert_array_equal(cm[:, 1], [0, 0])
    assert cm[:, 0].sum() == len(data)


def test_confusion_perfect_classifier_is_diagonal():
    # two taxels wired straight through to the two output neurons
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    cfg = NetworkConfig(graph=build_manual(lay, []), num_classes=2, num_channels=1,
                        feature="mlp", feature_width=2, fc_sizes=(2, 2))
    model = init_model(cfg, seed=0)
    model.params["feature.w"][:] = 0.5 * np.eye(2)
    model.params["fc1.w"][:] = 0.6 * np.eye(2)
    model.params["fc2.w"][:] = 0.5 * np.eye(2)
    for name in ("feature.b", "fc1.b", "fc2.b"):
        model.params[name][:] = 0.0
    t = 4
    samples, labels = [], []
    for cls in (0, 0, 1, 1, 1):
        x = np.zeros((t, 2, 1))
        x[:, cls, 0] = 1.0
        samples.append(x)
        labels.append(cls)
    _, acc, preds = evaluate(model, samples, labels)
    cm = confusion_matrix(labels, preds, 2)
    np.testing.assert_array_equal(cm, [[2, 0], [0, 3]])
    assert acc == 1.0


def test_run_rounds_fixed_split_and_fresh_init():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    results = run_rounds(data, net, TrainConfig(epochs=1, rounds=2, seed=7))
    assert len(results) == 2
    np.testing.assert_array_equal(results[0].test_indices, results[1].test_indices)
    mean, std = summarize_rounds(results)
    assert 0.0 <= mean <= 1.0 and std >= 0.0


def test_run_rounds_default_network_has_gradient_at_init(layout10, tmp_path):
    # acceptance config at fewer samples: the plain fan-in draw left every
    # output membrane outside the surrogate window and every gradient zero
    manifest = generate_synthetic(tmp_path, layout10, num_classes=4, samples_per_class=5,
                                  duration=1.0, bin_width=0.02, num_channels=2,
                                  noise_rate=0.0, seed=42)
    dataset = load_samples(manifest)
    net = NetworkConfig(graph=build_knn(layout10, 2), num_classes=4, num_channels=2)
    result = run_rounds(dataset, net, TrainConfig(epochs=0, rounds=1, seed=1))[0]
    model = result.model
    train_idx = sorted(set(range(len(dataset))) - set(result.test_indices.tolist()))
    sample, label = dataset[train_idx[0]]
    assert len(sample) == 50
    _, trace = model_forward(model, sample)
    grads = backward(model, trace, one_hot(label, 4))
    for name, g in grads.items():
        assert np.abs(g).sum() > 0.0, name
    assert np.any(surrogate_grad(trace.layers[-1].u, net.lif) > 0)


def test_run_rounds_calibrates_on_training_split_only():
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    cfg = TrainConfig(epochs=0, rounds=2, seed=3)
    labels = [lbl for _, lbl in data]
    _, test_idx = stratified_split(labels, cfg.split_fraction, cfg.seed)
    for i in test_idx:  # a test sample reaching calibration would poison the weights
        data[i] = (np.full_like(data[i][0], np.nan), data[i][1])
    first = run_rounds(data, net, cfg)
    for result in first:
        for name, arr in result.model.params.items():
            assert np.all(np.isfinite(arr)), name
    second = run_rounds(data, net, cfg)
    for a, b in zip(first, second):
        for name, arr in a.model.params.items():
            np.testing.assert_array_equal(b.model.params[name], arr)


# --- rounds on worker processes ---

BLAS_VARS = sorted(training.WORKER_BLAS_ENV)


def _alive(pid: int) -> bool:
    """A process that has exited but is not yet reaped (a zombie) counts as gone."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.fixture()
def pool_workers(monkeypatch):
    """Run ``run_rounds`` on two workers whatever the box; records each worker process."""
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    workers, start = [], SpawnProcess.start

    def recording(process):
        start(process)
        workers.append(process)

    monkeypatch.setattr(SpawnProcess, "start", recording)
    # one variable set to another value, the others unset: both must come back as they were
    monkeypatch.setenv(BLAS_VARS[0], "3")
    for name in BLAS_VARS[1:]:
        monkeypatch.delenv(name, raising=False)
    return workers


def assert_no_worker_left(workers, environ, count=2):
    assert len(workers) == count
    assert multiprocessing.active_children() == []
    assert not any(_alive(worker.pid) for worker in workers)
    assert dict(os.environ) == environ


@pytest.mark.parametrize("feature", ["tagconv", "mlp"])
def test_run_rounds_on_workers_matches_in_process_rounds(feature, pool_workers, layout10,
                                                        tmp_path):
    manifest = generate_synthetic(tmp_path, layout10, num_classes=4, samples_per_class=5,
                                  duration=1.0, bin_width=0.02, num_channels=2,
                                  noise_rate=10.0, seed=5)
    dataset = load_samples(manifest)
    net = NetworkConfig(graph=build_knn(layout10, 2), num_classes=4, num_channels=2,
                        feature=feature)
    cfg = TrainConfig(epochs=2, rounds=3, seed=5)
    environ = dict(os.environ)
    pooled = run_rounds(dataset, net, cfg)
    assert_no_worker_left(pool_workers, environ)
    assert [worker.exitcode for worker in pool_workers] == [0, 0]   # shut down, not stopped
    for r, result in enumerate(pooled):
        assert_same_round(result, run_round(dataset, net, cfg, r))
    assert pooled[0].metrics.csv_lines() != pooled[1].metrics.csv_lines()


def assert_same_round(result, expected):
    assert list(result.model.params) == list(expected.model.params)
    for name, p in expected.model.params.items():
        assert result.model.params[name].tobytes() == p.tobytes(), name
    assert result.model.voting.tobytes() == expected.model.voting.tobytes()
    assert result.metrics.csv_lines() == expected.metrics.csv_lines()
    assert result.metrics.confusion.tobytes() == expected.metrics.confusion.tobytes()
    assert result.test_indices.tobytes() == expected.test_indices.tobytes()


def test_run_rounds_on_one_core_runs_on_one_worker(pool_workers, monkeypatch):
    monkeypatch.setattr(training, "_usable_cores", lambda: 1)
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    cfg = TrainConfig(epochs=1, rounds=2, seed=4)
    environ = dict(os.environ)
    pooled = run_rounds(data, net, cfg)
    assert_no_worker_left(pool_workers, environ, count=1)
    assert [worker.exitcode for worker in pool_workers] == [0]
    for r, result in enumerate(pooled):
        assert_same_round(result, run_round(data, net, cfg, r))


def test_round_bytes_do_not_depend_on_the_round_count(layout39):
    # Paper shape (39 taxels, T = 250, 2 channels, the default network) under this process's
    # BLAS threads: one round alone and beside another must give the same bytes. With two or
    # more usable cores, a round run in the caller with a multi-threaded BLAS differs in the
    # last bits from one on a worker; a one-core box runs one worker either way.
    rng = np.random.default_rng(0)
    data = [((rng.random((250, 39, 2)) < 0.05).astype(float), c)
            for c in range(12) for _ in range(4)]
    net = NetworkConfig(graph=build_knn(layout39, 2), num_classes=12, num_channels=2)
    alone = run_rounds(data, net, TrainConfig(epochs=1, rounds=1, seed=0))
    beside = run_rounds(data, net, TrainConfig(epochs=1, rounds=2, seed=0))
    assert_same_round(alone[0], beside[0])


# a NaN sample fails calibration; an overflow fails it through the caller's warning filter
@pytest.mark.parametrize("scale, error, message", [(np.nan, ValueError, "non-finite input"),
                                                   (1e300, RuntimeWarning, "overflow")])
def test_run_rounds_failing_round_raises_and_leaves_no_worker(scale, error, message,
                                                              pool_workers):
    graph, data = tiny_dataset()
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                        feature_width=2, fc_sizes=(4, 4))
    cfg = TrainConfig(epochs=2, rounds=4, seed=2)
    data = [(x * scale, label) for x, label in data]
    environ = dict(os.environ)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=message) as in_process:
            run_round(data, net, cfg, 0)
        with pytest.raises(error) as pooled:
            run_rounds(data, net, cfg)
    assert str(pooled.value) == str(in_process.value)
    assert_no_worker_left(pool_workers, environ)


KILLED_PARENT = """
import multiprocessing, threading, time
import numpy as np
from taxelsnn import NetworkConfig, TaxelLayout, TrainConfig, build_knn, training

def report_workers():
    while len(multiprocessing.active_children()) < 2:
        time.sleep(0.01)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)

training._usable_cores = lambda: 2
rng = np.random.default_rng(0)
graph = build_knn(TaxelLayout(rng.random((4, 2))), 2)
data = [((rng.random((6, 4, 1)) < 0.5).astype(float), c) for c in (0, 1) for _ in range(4)]
net = NetworkConfig(graph=graph, num_classes=2, num_channels=1, feature_width=2, fc_sizes=(4, 4))
threading.Thread(target=report_workers, daemon=True).start()
training.run_rounds(data, net, TrainConfig(epochs=10**6, rounds=2))
"""


def test_run_rounds_workers_exit_when_caller_is_killed():
    parent = subprocess.Popen([sys.executable, "-c", KILLED_PARENT], env=package_env(),
                              stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([parent.stdout], [], [], 60.0)
        line = parent.stdout.readline() if ready else ""
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10.0)
        parent.stdout.close()
    pids = [int(pid) for pid in line.split()]
    assert len(pids) == 2, line
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)


INTERRUPTED_CALLER = """
import os
from pathlib import Path
import numpy as np
from taxelsnn import NetworkConfig, TaxelLayout, TrainConfig, build_knn, training

class Announced(list):
    # a worker unpickles its round's dataset as the round starts
    def __reduce__(self):
        return announce, (list(self),)

def announce(items):
    Path(__file__).with_name(f"worker{os.getpid()}").touch()
    return items

if __name__ == "__main__":
    training._usable_cores = lambda: 2
    rng = np.random.default_rng(0)
    graph = build_knn(TaxelLayout(rng.random((4, 2))), 2)
    data = [((rng.random((6, 4, 1)) < 0.5).astype(float), c) for c in (0, 1) for _ in range(4)]
    net = NetworkConfig(graph=graph, num_classes=2, num_channels=1, feature_width=2,
                        fc_sizes=(4, 4))
    training.run_rounds(Announced(data), net, TrainConfig(epochs=10**6, rounds=2))
"""


def test_run_rounds_interrupted_stops_running_rounds(tmp_path):
    script = tmp_path / "caller.py"
    script.write_text(INTERRUPTED_CALLER)
    caller = subprocess.Popen([sys.executable, str(script)], env=package_env(),
                              stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("worker*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(path.name[len("worker"):]) for path in tmp_path.glob("worker*")]
        assert len(pids) == 2   # both workers are inside a round
        caller.send_signal(signal.SIGINT)   # the caller only (a terminal's Ctrl-C reaches all)
        caller.wait(timeout=20.0)
    finally:
        caller.kill()   # a caller still running: its workers then exit on the pipe's EOF
        caller.wait()
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)
    assert caller.stderr.read().rstrip().endswith("KeyboardInterrupt")
    caller.stderr.close()


def test_format_mean_std_table_style():
    assert format_mean_std(0.8944, 0.0055) == "89.44 (0.55)"


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(split_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    for bad in (-1.0, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
