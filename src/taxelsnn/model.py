"""Spiking network assembly: graph convolution, FC stack, voting decoder.

The architecture is a feature layer (polynomial graph convolution over the
tactile graph, or a plain dense layer for the structure-free baseline)
followed by a chain of fully connected layers, every one of them driving
leaky integrate-and-fire units. Membrane state persists across the
timesteps of one sample and is zeroed at sample start. A fixed, untrained
voting matrix maps the last layer's spike counts to class scores.

The forward pass runs layer by layer over the time window and records
everything the backward pass needs (membranes, firing indicators, emitted
outputs, propagated inputs), so training can unroll gradients through it.
"""
from __future__ import annotations

import dataclasses
import json
import math
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataFormatError, replacing
from .graphs import TactileGraph, adjacency_powers
from .lif import LifConfig, membrane_update, relaxed_spike

FEATURE_KINDS = ("tagconv", "mlp")
CALIBRATION_SAMPLES = 8   # training samples per round that calibrate() sees


@dataclass(frozen=True)
class NetworkConfig:
    graph: TactileGraph
    num_classes: int
    num_channels: int = 2
    feature: str = "tagconv"      # feature layer kind: tagconv | mlp
    tagconv_hops: int = 2
    feature_width: int = 64       # tagconv: features per node; mlp: units
    fc_sizes: tuple[int, ...] = (128, 256)
    lif: LifConfig = LifConfig()

    def __post_init__(self):
        if self.feature not in FEATURE_KINDS:
            raise ValueError(f"feature must be one of {FEATURE_KINDS}, got {self.feature!r}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if len(self.fc_sizes) == 0:
            raise ValueError("fc_sizes must be nonempty")
        object.__setattr__(self, "fc_sizes", tuple(int(s) for s in self.fc_sizes))
        if (self.tagconv_hops < 0 or self.num_channels < 1 or self.feature_width < 1
                or min(self.fc_sizes) < 1):
            raise ValueError(f"need tagconv_hops >= 0 and layer sizes >= 1 and num_channels >= 1, "
                             f"got hops {self.tagconv_hops}, widths {self.feature_width}, "
                             f"{self.fc_sizes}, channels {self.num_channels}")
        if self.fc_sizes[-1] < self.num_classes:
            raise ValueError("last layer needs at least one neuron per class")

    @cached_property
    def hop_powers(self) -> tuple[np.ndarray, ...]:
        """[I, A, ..., A^tagconv_hops] of the graph's normalized adjacency, derived once."""
        return adjacency_powers(self.graph.adjacency_norm, self.tagconv_hops)

    @property
    def num_output_neurons(self) -> int:
        return self.fc_sizes[-1]


def layer_names(cfg: NetworkConfig) -> list[str]:
    """The spiking layers in forward order: feature, fc1, ..., fcL."""
    return ["feature"] + [f"fc{i}" for i in range(1, len(cfg.fc_sizes) + 1)]


def voting_matrix(num_classes: int, num_neurons: int) -> np.ndarray:
    """Fixed class-assignment matrix U, shape (num_classes, num_neurons).

    Output neurons are dealt to classes in contiguous blocks; when the
    split is uneven the earlier classes receive the extra neuron. Each row
    is normalized to total weight 1, so U @ spikes is the per-class mean
    spike count of that class's population.
    """
    if num_neurons < num_classes:
        raise ValueError("need at least one output neuron per class")
    u = np.zeros((num_classes, num_neurons), dtype=np.float64)
    for c, block in enumerate(np.array_split(np.arange(num_neurons), num_classes)):
        u[c, block] = 1.0 / block.size
    return u


def weight_name(cfg: NetworkConfig, name: str) -> str:
    """Layer ``name``'s weight tensor: the filter ``feature.g`` (tagconv) or ``<name>.w``."""
    return "feature.g" if name == "feature" and cfg.feature == "tagconv" else f"{name}.w"


def param_shapes(cfg: NetworkConfig) -> dict[str, tuple[int, ...]]:
    n, c, f = cfg.graph.num_nodes, cfg.num_channels, cfg.feature_width
    weight = weight_name(cfg, "feature")
    if weight == "feature.g":   # one filter shared by the nodes; each node keeps f features
        shapes, flat = {weight: (c, f, cfg.tagconv_hops + 1)}, n * f
    else:
        shapes, flat = {weight: (f, n * c)}, f
    shapes["feature.b"] = (f,)
    for i, (size, prev) in enumerate(zip(cfg.fc_sizes, (flat, *cfg.fc_sizes)), start=1):
        shapes[f"fc{i}.w"], shapes[f"fc{i}.b"] = (size, prev), (size,)
    return shapes


@dataclass
class Model:
    config: NetworkConfig
    params: dict[str, np.ndarray]
    voting: np.ndarray


def init_model(cfg: NetworkConfig, seed: int) -> Model:
    """Uniform fan-in initialization, deterministic under the seed.

    Every tensor is drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), where a
    layer's fan-in is its weight's size over its bias's size. With
    sparse binary inputs this leaves the deeper layers almost silent: on the
    default network no output membrane reaches the surrogate window, so
    every gradient is zero. ``run_round`` therefore passes each fresh model
    through ``calibrate`` on training samples before the first epoch.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    params = {}
    for name, shape in shapes.items():
        layer = name.split(".")[0]
        fan_in = math.prod(shapes[weight_name(cfg, layer)]) // math.prod(shapes[f"{layer}.b"])
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return Model(cfg, params, voting_matrix(cfg.num_classes, cfg.num_output_neurons))


def _propagate(x: np.ndarray, powers) -> np.ndarray:
    """A^k x_t for every hop k and timestep t as one product: (T, N, C) -> (T, K+1, N, C)."""
    t_steps, n, c = x.shape
    px = np.reshape(powers, (-1, n)) @ x.transpose(1, 0, 2).reshape(n, t_steps * c)
    return px.reshape(len(powers), n, t_steps, c).transpose(2, 0, 1, 3)


def hop_major(propagated: np.ndarray) -> np.ndarray:
    """Propagated (T, K+1, N, C) as the (T*N, (K+1)*C) filter factor; columns (k, c), c fastest."""
    t_steps, hops, n, c = propagated.shape
    return propagated.transpose(0, 2, 1, 3).reshape(t_steps * n, hops * c)


@dataclass
class LayerTrace:
    u: np.ndarray       # (T, ...) membrane potentials
    fired: np.ndarray   # (T, ...) binary threshold crossings (drive the reset)
    out: np.ndarray     # (T, ...) emitted signal; the fired array itself unless relaxed


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, recorded layer by layer over the window."""

    x: np.ndarray                   # (T, N, C)
    propagated: np.ndarray          # tagconv: (T, K+1, N, C); mlp: x itself
    layers: list[LayerTrace] = field(default_factory=list)

    @property
    def outputs(self) -> np.ndarray:
        return self.layers[-1].out

    def layer_input(self, li: int) -> np.ndarray:
        """Input of layer ``li``: ``propagated`` for the feature layer, else the output below."""
        return self.layers[li - 1].out if li else self.propagated


def model_forward(model: Model, sample, relaxed: bool = False):
    """Run one sample through the network, layer by layer.

    A layer's emissions feed the next layer within the same timestep only,
    so each layer computes its input currents for the whole window as one
    matrix product and then scans its membranes over time.

    Returns (outputs, trace) where outputs is the (T, num_output_neurons)
    record of last-layer emissions. In the default spiking mode they are
    binary; in relaxed mode each spike output is replaced by the ramp
    relaxation while the membrane reset still triggers on the hard
    threshold (kept binary so the recurrence stays piecewise constant and
    finite-difference checks see exactly what the backward pass computes).
    """
    trace = ForwardTrace(*_feature_input(model, sample))
    for li, name in enumerate(layer_names(model.config)):
        trace.layers.append(_layer_forward(model, name, trace.layer_input(li), relaxed))
    return trace.outputs, trace


def _feature_input(model: Model, sample):
    """The checked (T, N, C) sample and the feature layer's input: hops (tagconv) or x (mlp)."""
    cfg = model.config
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"sample must be (T, N, C), got shape {x.shape}")
    t_steps, n, c = x.shape
    if t_steps < 1:
        raise ValueError("sample must span at least one timestep")
    if n != cfg.graph.num_nodes or c != cfg.num_channels:
        raise ValueError(f"sample shape {x.shape[1:]} does not match "
                         f"(nodes={cfg.graph.num_nodes}, channels={cfg.num_channels})")
    return x, _propagate(x, cfg.hop_powers) if cfg.feature == "tagconv" else x


def _layer_forward(model: Model, name: str, below: np.ndarray, relaxed: bool = False):
    """Layer ``name``'s currents from its input ``below``, then its membrane scan."""
    z = _weighted_input(model, name, below) + model.params[f"{name}.b"]
    return lif_scan(z, model.config.lif, relaxed)


def lif_scan(currents: np.ndarray, lif: LifConfig, relaxed: bool = False) -> LayerTrace:
    """One layer's membrane recurrence from rest over its (T, ...) currents; step t writes row t."""
    u, fired = np.empty_like(currents), np.empty(currents.shape, dtype=bool)
    u_t, fired_t = np.zeros(currents.shape[1:]), np.zeros(currents.shape[1:], dtype=bool)
    for t in range(len(currents)):
        u_t, fired_t = membrane_update(u_t, fired_t, currents[t], lif, u[t], fired[t])
    fired = fired.astype(np.float64)   # the steps write a bool mask; one cast per window
    return LayerTrace(u=u, fired=fired, out=relaxed_spike(u, lif) if relaxed else fired)


def _weighted_input(model: Model, name: str, below: np.ndarray) -> np.ndarray:
    """Layer ``name``'s weighted input over the window as one product, bias excluded.

    The filter g (TAGConv, Du et al. 2017) maps propagated (T, K+1, N, C) to (T, N, F), per
    step ``z[:, f] = sum_c sum_k g[c,f,k] A^k x[:, c] + b[f]``; dense flattens to (T, in).
    """
    weight = model.params[weight_name(model.config, name)]
    if weight.ndim == 3:   # the filter g, shape (C, F, K+1)
        t_steps, hops, n, c = below.shape
        g_mat = weight.transpose(2, 0, 1).reshape(hops * c, -1)   # rows (k, c) like hop_major
        return (hop_major(below) @ g_mat).reshape(t_steps, n, -1)
    return below.reshape(len(below), -1) @ weight.T


def layer_grads(model: Model, name: str, below: np.ndarray, dz: np.ndarray):
    """``_layer_forward``^T: ``({weight: dw, bias: db}, d_below)`` from ``dz`` on the currents."""
    key = weight_name(model.config, name)
    weight = model.params[key]
    if weight.ndim == 3:
        c, f, hops = weight.shape
        dw = (hop_major(below).T @ dz.reshape(-1, f)).reshape(hops, c, f).transpose(1, 2, 0)
    else:
        dw = dz.T @ below.reshape(len(below), -1)
    # d_below is the gradient on the input below; the feature layer's input is data
    d_below = None if name == "feature" else (dz @ weight).reshape(below.shape)
    return {key: dw, f"{name}.b": dz.sum(axis=tuple(range(dz.ndim - 1)))}, d_below


def calibrate(model: Model, samples) -> None:
    """Data-driven per-layer weight scaling at initialization, in place.

    Works through the layers in forward order, one pass over the samples
    per layer. It multiplies the layer's weight tensor (``feature.g`` or
    ``feature.w``, then ``fc{i}.w``) by one scalar so that the std of its
    weighted input, pooled over samples, timesteps and neurons, equals
    u_threshold / 2, then runs the scaled layer to give the next layer's
    inputs. Membranes then reach the surrogate window, where gradient
    flows, in every layer (Rossbroich, Gygax & Zenke 2022,
    "Fluctuation-driven initialization for spiking neural network
    training"). Biases are left untouched, and a layer whose weighted
    input is all zero (its input never spiked) is left unscaled; a
    non-finite one raises ValueError.

    Memory: beside the samples' feature inputs (later their spikes, as bool
    masks) it holds one sample's weighted input and one float64 buffer of
    them all, 40 MB for the published feature layer; np.std's steps run in
    place on it, and it is freed before the scaled layer runs.

    Pass training samples only; ``CALIBRATION_SAMPLES`` is the number
    the training protocol uses.
    """
    cfg = model.config
    target = cfg.lif.u_threshold / 2.0
    inputs = [_feature_input(model, sample)[1] for sample in samples]
    if not inputs:
        raise ValueError("calibration needs at least one sample")
    steps = sum(len(below) for below in inputs)
    for name in layer_names(cfg):
        pooled, end = None, 0
        for below in inputs:
            z = _weighted_input(model, name, below).ravel()
            if pooled is None:   # the first sample's width per step sizes the buffer
                pooled = np.empty(steps * (z.size // len(below)))
            pooled[end:end + z.size] = z
            end += z.size
            del z   # else it stays alive while the next sample's input is formed
        pooled -= np.add.reduce(pooled) / pooled.size
        np.square(pooled, out=pooled)
        std = float(np.sqrt(np.add.reduce(pooled) / pooled.size))
        del pooled   # freed before the layer runs
        weight = weight_name(cfg, name)
        if not np.isfinite(std):
            raise ValueError(f"calibration samples give {weight!r} a non-finite input")
        if std > 0.0:
            model.params[weight] *= target / std
        # spiking mode emits exactly 0 or 1, so a bool mask is the same input at 1/8 the bytes
        inputs = [_layer_forward(model, name, below).out.astype(bool) for below in inputs]


def vote(outputs: np.ndarray, voting: np.ndarray):
    """Time-averaged class scores and the argmax prediction.

    Ties break toward the lowest class index.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[0] < 1:
        raise ValueError("outputs must be (T, num_neurons) with T >= 1")
    scores = voting @ outputs.mean(axis=0)
    return scores, int(np.argmax(scores))


def _config_to_dict(cfg: NetworkConfig) -> dict:
    """Every NetworkConfig field, in declaration order, with the graph and its hash last."""
    doc = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    graph = doc.pop("graph")
    doc["lif"] = dataclasses.asdict(cfg.lif)
    doc["graph"] = {"num_nodes": graph.num_nodes, "edges": graph.edges}
    doc["graph_hash"] = graph.hash()
    return doc


def _config_from_dict(doc: dict) -> NetworkConfig:
    gdoc = doc["graph"]   # a "hops" key, written by older versions, is ignored
    graph = TactileGraph(gdoc["num_nodes"], tuple(tuple(e) for e in gdoc["edges"]))
    if graph.hash() != doc["graph_hash"]:
        raise DataFormatError(f"graph hash mismatch: checkpoint says {doc['graph_hash']}, "
                              f"rebuilt graph hashes to {graph.hash()}")
    values = {f.name: doc[f.name] for f in dataclasses.fields(NetworkConfig)}
    return NetworkConfig(**{**values, "graph": graph, "lif": LifConfig(**doc["lif"])})


def save_model(model: Model, path, extra: dict | None = None) -> None:
    """Self-describing .npz checkpoint: config, graph hash, named tensors; no voting matrix."""
    arrays = {f"param/{name}": arr for name, arr in model.params.items()}
    arrays["config_json"] = np.array(json.dumps(_config_to_dict(model.config)))
    if extra:
        arrays["extra_json"] = np.array(json.dumps(extra))
    with replacing(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path):
    """Load a checkpoint; validates graph hash, every tensor shape and finiteness.

    Returns (model, extra_dict). The voting matrix is derived from the config; the
    ``voting`` member of older files is ignored. A file that is no readable .npz
    archive, or that fails a check, is a DataFormatError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as zf:
            return _read_checkpoint(zf)
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile, zlib.error) as exc:
        # an .npy array is no context manager (TypeError), a cut archive raises BadZipFile
        # and a corrupted compressed member zlib.error
        detail = exc if isinstance(exc, DataFormatError) else f"unreadable archive ({exc!r})"
        raise DataFormatError(f"checkpoint {path}: {detail}") from None


def _read_checkpoint(zf):
    """(model, extra) from an open checkpoint archive; a failed check is a DataFormatError."""
    if "config_json" not in zf:
        raise DataFormatError("missing 'config_json'")
    try:
        cfg = _config_from_dict(json.loads(str(zf["config_json"])))
    except DataFormatError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed config_json ({exc!r})") from None
    params = {}
    for name, shape in param_shapes(cfg).items():
        key = f"param/{name}"
        if key not in zf:
            raise DataFormatError(f"missing tensor {name!r}")
        arr = np.asarray(zf[key], dtype=np.float64)
        if arr.shape != shape:
            raise DataFormatError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"tensor {name!r} holds non-finite values")
        params[name] = arr
    try:
        extra = json.loads(str(zf["extra_json"])) if "extra_json" in zf else {}
    except json.JSONDecodeError:
        extra = None
    if not isinstance(extra, dict):
        raise DataFormatError("extra_json is not a JSON object")
    return Model(cfg, params, voting_matrix(cfg.num_classes, cfg.num_output_neurons)), extra
