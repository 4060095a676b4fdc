"""Spans around the package's public functions, recorded from outside.

The traced run rebinds each function in every module that calls it (a
module calls a function through its own global name, so rebinding there
catches the call) and restores the originals afterwards. No file of the
package is edited. Spans (id, parent id, name, start, end) stay in memory
and are written out when the run ends; self time is a span's duration
minus what its child spans and leaf calls cover.

Functions called hundreds of times per sample (``membrane_update``,
``surrogate_grad``) are leaves: their calls and time are summed onto the
enclosing span instead of each becoming a span.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, leaf) for every binding the traced run patches
BINDINGS = [
    ("cli", "main", "cli.main", False),
    ("cli", "load_model", "model.load_model", False),
    ("cli", "load_manifest", "datasets.load_manifest", False),
    ("cli", "load_samples", "datasets.load_samples", False),
    ("cli", "evaluate", "training.evaluate", False),
    ("cli", "confusion_matrix", "training.confusion_matrix", False),
    ("datasets", "load_manifest", "datasets.load_manifest", False),
    ("datasets", "load_samples", "datasets.load_samples", False),
    ("datasets", "load_event_file", "events.load_event_file", False),
    ("datasets", "bin_events", "events.bin_events", False),
    ("layout", "load_layout", "layout.load_layout", False),
    ("graphs", "build_graph", "graphs.build_graph", False),
    ("model", "init_model", "model.init_model", False),
    ("model", "calibrate", "model.calibrate", False),
    ("model", "model_forward", "model.model_forward", False),
    ("model", "membrane_update", "lif.membrane_update", True),
    ("training", "init_model", "model.init_model", False),
    ("training", "calibrate", "model.calibrate", False),
    ("training", "model_forward", "model.model_forward", False),
    ("training", "surrogate_grad", "lif.surrogate_grad", True),
    ("training", "backward", "training.backward", False),
    ("training", "adam_step", "training.adam_step", False),
    ("training", "evaluate", "training.evaluate", False),
    ("training", "confusion_matrix", "training.confusion_matrix", False),
    ("training", "train", "training.train", False),
    ("training", "run_rounds", "training.run_rounds", False),
]

# np.einsum inside taxelsnn.model, named by its subscripts
EINSUMS = {"knm,tmc->tknc": "model.propagate_einsum",
           "tknc,cfk->tnf": "model.feature_einsum"}

EVALUATION = ("training.evaluate", "training.confusion_matrix")


class _NumpyWithTracedEinsum:
    """Stands in for ``np`` in one module; only ``einsum`` is traced."""

    def __init__(self, tracer: "Tracer"):
        self._einsum = tracer.wrap(np.einsum, lambda args: EINSUMS.get(args[0], "model.einsum"))

    def __getattr__(self, name):
        if name == "einsum":
            return self._einsum
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, parent, name, start, end)
        self.leaves = defaultdict(lambda: [0, 0.0])   # (parent id, name) -> [calls, s]
        self.notes: dict[int, dict] = {}     # span id -> facts read off its call
        self._stack = [-1]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, fn, name, note=None):
        """Span-recording wrapper; name may be a function of the positional args."""
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name(args) if callable(name) else name,
                                   start, end))
            if note is not None:
                self.notes[sid] = note(args, kwargs, result)
            return result
        return traced

    def wrap_leaf(self, fn, name):
        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            slot = self.leaves[(self._stack[-1], name)]
            slot[0] += 1
            slot[1] += perf_counter() - start
            return result
        return traced

    def install(self, modules: dict) -> None:
        """Patch every binding in BINDINGS of the given {name: module}."""
        for mod_name, attr, name, leaf in BINDINGS:
            module = modules[mod_name]
            original = getattr(module, attr)
            wrapped = (self.wrap_leaf(original, name) if leaf
                       else self.wrap(original, name, NOTES.get(name)))
            self._undo.append((module, attr, original))
            setattr(module, attr, wrapped)
        model = modules["model"]
        self._undo.append((model, "np", model.np))
        model.np = _NumpyWithTracedEinsum(self)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
            fh.write("# leaves: parent\tname\tcalls\tseconds\n")
            for (parent, name), (calls, secs) in sorted(self.leaves.items()):
                fh.write(f"#\t{parent}\t{name}\t{calls}\t{secs:.9f}\n")

    # --- analysis -----------------------------------------------------------

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def self_time(self) -> dict[str, float]:
        """Total self time per span name, leaves included as their own names."""
        covered = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            covered[parent] += end - start
        for (parent, _), (_, secs) in self.leaves.items():
            covered[parent] += secs
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        for (_, name), (_, secs) in self.leaves.items():
            out[name] += secs
        return dict(out)

    def ancestors(self) -> dict[int, list[str]]:
        parent_of = {s[0]: s[1] for s in self.spans}
        name_of = {s[0]: s[2] for s in self.spans}
        chains = {}
        for sid in parent_of:
            chain, p = [], parent_of[sid]
            while p != -1:
                chain.append(name_of[p])
                p = parent_of[p]
            chains[sid] = chain
        return chains


def median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def forward_gflop(cfg) -> float:
    """Dense multiply-add operations of one forward pass, from the shapes (x2 / 1e9)."""
    n, c, f = cfg.graph.num_nodes, cfg.num_channels, cfg.feature_width
    if cfg.feature == "tagconv":
        k = cfg.tagconv_hops + 1
        per_step = k * n * n * c + k * n * c * f
        prev = n * f
    else:
        per_step = f * n * c
        prev = f
    for size in cfg.fc_sizes:
        per_step += size * prev
        prev = size
    return 2.0 * per_step / 1e9


def forward_note(args, kwargs, result) -> dict:
    """Facts about one forward call, read off its arguments and returned trace."""
    model = args[0]
    _, trace = result
    lif = model.config.lif
    arrays = [trace.x, trace.propagated]
    for layer in trace.layers:
        arrays += [layer.u, layer.fired, layer.out]
    note = {"steps": trace.x.shape[0],
            "gflop": forward_gflop(model.config) * trace.x.shape[0],
            "trace_mb": sum(a.nbytes for a in arrays) / 2**20,
            "input_density": float(trace.x.mean())}
    for li, layer in enumerate(trace.layers):
        key = "feature" if li == 0 else f"fc{li}"
        note[f"fired.{key}"] = float(layer.fired.mean())
        note[f"window.{key}"] = float(
            np.mean(np.abs(layer.u - lif.u_threshold) < lif.surrogate_width / 2.0))
    return note


NOTES = {
    "model.model_forward": forward_note,
    "events.load_event_file": lambda a, k, r: {"events": r.num_events},
    "training.evaluate": lambda a, k, r: {"samples": len(a[2])},
}


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each a median over its calls; 0 where never called."""
    t = tracer
    chains = t.ancestors()
    leaf_calls = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for (parent, name), (calls, secs) in t.leaves.items():
        leaf_calls[name][parent] = [calls, secs]

    def durations(name, scale=1.0):
        return [(e - s) * scale for _, _, _, s, e in t.by_name(name)]

    forwards = t.by_name("model.model_forward")
    fnotes = [t.notes[s[0]] for s in forwards]
    load_files = t.by_name("events.load_event_file")
    calibrations = t.by_name("model.calibrate")
    evals = t.by_name("training.evaluate")
    trains = t.by_name("training.train")
    backwards = t.by_name("training.backward")

    scored = sum(t.notes[s[0]]["samples"] for s in evals
                 if not any(a in EVALUATION for a in chains[s[0]]))
    eval_forwards = sum(1 for s in forwards if any(a in EVALUATION for a in chains[s[0]]))
    train_ids = {s[0] for s in trains}
    in_eval = sum(e - s for sid, parent, name, s, e in t.spans
                  if name in EVALUATION and parent in train_ids)
    train_time = sum(e - s for _, _, _, s, e in trains)

    m = {
        "datasets.load_samples_s": (median(durations("datasets.load_samples")), "s"),
        "events.events_per_s": (median(t.notes[s[0]]["events"] / (s[4] - s[3])
                                       for s in load_files), "1/s"),
        "events.bin_events_calls_per_sample": (
            len(t.by_name("events.bin_events")) / len(load_files) if load_files else 0.0,
            "count"),
        "graphs.build_graph_ms": (median(durations("graphs.build_graph", 1e3)), "ms"),
        "model.load_model_ms": (median(durations("model.load_model", 1e3)), "ms"),
        "model.calibrate_s": (median(durations("model.calibrate")), "s"),
        "model.calibrate_forward_calls": (
            median(sum(1 for f in forwards if f[1] == c[0]) for c in calibrations), "count"),
        "model.forward_ms": (median(durations("model.model_forward", 1e3)), "ms"),
        "model.forward_calls_per_scored_sample": (eval_forwards / scored if scored else 0.0,
                                                  "count"),
        "model.forward_gflop": (median(n["gflop"] for n in fnotes), "GFLOP"),
        "model.forward_gflop_per_s": (median(n["gflop"] / (s[4] - s[3])
                                             for n, s in zip(fnotes, forwards)), "GFLOP/s"),
        "model.trace_mb": (median(n["trace_mb"] for n in fnotes), "MB"),
        "model.input_density": (median(n["input_density"] for n in fnotes), "fraction"),
    }
    for key in ("feature", "fc1", "fc2"):
        m[f"model.fired_frac.{key}"] = (median(n[f"fired.{key}"] for n in fnotes
                                               if f"fired.{key}" in n), "fraction")
        m[f"model.in_window_frac.{key}"] = (median(n[f"window.{key}"] for n in fnotes
                                                   if f"window.{key}" in n), "fraction")
    update = leaf_calls["lif.membrane_update"]
    surrogate = leaf_calls["lif.surrogate_grad"]
    m.update({
        "lif.membrane_update_ms": (median(update[s[0]][1] * 1e3 for s in forwards), "ms"),
        "lif.membrane_update_calls": (median(update[s[0]][0] for s in forwards), "count"),
        "lif.surrogate_grad_ms": (median(surrogate[s[0]][1] * 1e3 for s in backwards), "ms"),
        "training.backward_ms": (median(durations("training.backward", 1e3)), "ms"),
        "training.adam_ms": (median(durations("training.adam_step", 1e3)), "ms"),
        "training.evaluate_ms_per_sample": (
            median((s[4] - s[3]) * 1e3 / t.notes[s[0]]["samples"] for s in evals
                   if t.notes[s[0]]["samples"]), "ms"),
        "training.confusion_matrix_s": (median(durations("training.confusion_matrix")), "s"),
        "training.eval_share_of_train": (in_eval / train_time if train_time else 0.0,
                                         "fraction"),
        "cli.eval_s": (median(durations("cli.main")), "s"),
        "model.feature_einsum_ms": (median(durations("model.feature_einsum", 1e3)), "ms"),
        "model.propagate_einsum_ms": (median(durations("model.propagate_einsum", 1e3)), "ms"),
    })
    return m


def call_counts(tracer: Tracer) -> dict[str, int]:
    counts = defaultdict(int)
    for s in tracer.spans:
        counts[s[2]] += 1
    for (_, name), (calls, _) in tracer.leaves.items():
        counts[name] += calls
    return dict(sorted(counts.items()))
