"""The three workloads, run in a worker process that holds nothing else.

Each workload has a set-up, timed several times, and one operation that the
run repeats whole until its time is spent. The worker calls the package only
through module attributes (``training.train``, ``cli.main``, ...), so the
traced run's rebinding reaches every call. Outputs needed by the checks are
returned; the checks themselves run in the parent process.
"""
from __future__ import annotations

import dataclasses
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from taxelsnn import cli, datasets, graphs, layout, model, training

import tracing

# Lengths of each workload's operation; README.md gives the reasons.
PAPER_TRAIN_EPOCHS = 2
DESK_EPOCHS = 6
DESK_ROUNDS = 3
DESK_FEATURES = ("tagconv", "mlp")
GRAPH = graphs.GraphSpec("knn", k=2)


def _load(work: Path):
    manifest = datasets.load_manifest(work / "manifest.txt")
    dataset = datasets.load_samples(manifest)
    graph = graphs.build_graph(layout.load_layout(work / "layout.txt"), GRAPH)
    return manifest, dataset, graph


class PaperTrain:
    """train() at the published network scale, from a calibrated fresh model."""

    setup_reps = 3

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        manifest, self.dataset, graph = _load(self.work)
        cfg = model.NetworkConfig(graph=graph, num_classes=manifest.num_classes,
                                  num_channels=manifest.num_channels)
        net = model.init_model(cfg, seed=self.seed)
        # the calibration draw run_rounds makes for round 1
        train_idx, _ = training.stratified_split(
            manifest.labels, training.TrainConfig().split_fraction, self.seed)
        picks = np.random.default_rng(self.seed).choice(
            train_idx, size=min(model.CALIBRATION_SAMPLES, train_idx.size), replace=False)
        model.calibrate(net, [self.dataset[i][0] for i in picks])
        self.initial = net
        self.train_samples = train_idx.size

    def operation(self):
        net = dataclasses.replace(self.initial,
                                  params={k: v.copy() for k, v in self.initial.params.items()})
        cfg = training.TrainConfig(epochs=PAPER_TRAIN_EPOCHS, rounds=1, seed=self.seed)
        start = perf_counter()
        _, metrics, _ = training.train(net, self.dataset, cfg)
        seconds = perf_counter() - start
        finite = all(bool(np.all(np.isfinite(p))) for p in net.params.values())
        return seconds, PAPER_TRAIN_EPOCHS * self.train_samples, {
            "train_loss": metrics.train_loss, "test_accuracy": metrics.test_accuracy,
            "confusion": metrics.confusion.tolist(), "params_finite": finite}


class PaperEval:
    """The ``taxelsnn eval --split all`` command path; its loads are the set-up."""

    setup_reps = 0  # the command loads inside each operation; that time is its set-up

    def __init__(self, work: Path, seed: int):
        self.work, self.ops = work, 0

    def setup(self):
        pass

    def operation(self):
        out = self.work / "eval" / f"op{self.ops:02d}"
        self.ops += 1
        loaded = []
        original = cli.load_samples

        def marked(manifest):
            data = original(manifest)
            loaded.append((perf_counter(), len(data)))
            return data

        cli.load_samples = marked
        try:
            start = perf_counter()
            code = cli.main(["eval", "--checkpoint", str(self.work / "model.npz"),
                             "--manifest", str(self.work / "manifest.txt"),
                             "--split", "all", "--out-dir", str(out)])
            end = perf_counter()
        finally:
            cli.load_samples = original
        if code != 0 or not loaded:
            raise RuntimeError(f"taxelsnn eval exited with code {code}")
        ready, samples = loaded[0]
        return end - ready, samples, {"setup_s": ready - start, "out_dir": str(out)}


class DeskProtocol:
    """run_rounds on the acceptance configuration, graph variant and dense baseline."""

    setup_reps = 11

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        self.manifest, self.dataset, self.graph = _load(self.work)

    def operation(self):
        cfg = training.TrainConfig(epochs=DESK_EPOCHS, rounds=DESK_ROUNDS, seed=self.seed)
        train_idx, _ = training.stratified_split(self.manifest.labels, cfg.split_fraction,
                                                 self.seed)
        out, seconds = {}, 0.0
        for feature in DESK_FEATURES:
            net = model.NetworkConfig(graph=self.graph, num_classes=self.manifest.num_classes,
                                      num_channels=self.manifest.num_channels, feature=feature)
            start = perf_counter()
            results = training.run_rounds(self.dataset, net, cfg)
            seconds += perf_counter() - start
            out[feature] = [{"test_accuracy": r.metrics.test_accuracy,
                             "train_loss": r.metrics.train_loss} for r in results]
        return seconds, len(DESK_FEATURES) * DESK_ROUNDS * DESK_EPOCHS * train_idx.size, out


WORKLOADS = {"paper-train": PaperTrain, "paper-eval": PaperEval, "desk-protocol": DeskProtocol}


def _timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def _loop(workload, seconds: float, traced: bool) -> list[dict]:
    """Whole operations until the next one would overrun the budget (at least one)."""
    ops, spent = [], 0.0
    while not ops or spent + spent / len(ops) <= seconds:
        start = perf_counter()
        try:
            op_seconds, samples, outputs = workload.operation()
            ops.append({"ok": True, "seconds": op_seconds, "samples": samples,
                        "traced": traced, "outputs": outputs})
        except Exception:  # one failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            ops.append({"ok": False, "traced": traced})
        spent += perf_counter() - start
    return ops


def run(name: str, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](work, seed)
    setups = [_timed_setup(workload) for _ in range(workload.setup_reps)]
    ops = _loop(workload, seconds, traced=False)
    if not setups:
        setups = [op["outputs"]["setup_s"] for op in ops if op["ok"]]
    result = {"setup_s": setups, "ops": ops}
    if trace:
        tracer = tracing.Tracer()
        tracer.install({"cli": cli, "datasets": datasets, "graphs": graphs, "layout": layout,
                        "model": model, "training": training})
        try:
            _timed_setup(workload)
            ops += _loop(workload, seconds, traced=True)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.tsv")
        result["per_layer"] = tracing.per_layer_metrics(tracer)
        result["calls"] = tracing.call_counts(tracer)
        result["self_time_s"] = tracer.self_time()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result

