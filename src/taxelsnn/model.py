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

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataFormatError
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
        if self.tagconv_hops < 0 or self.feature_width < 1 or min(self.fc_sizes) < 1:
            raise ValueError(f"need tagconv_hops >= 0 and layer sizes >= 1, got hops "
                             f"{self.tagconv_hops}, widths {self.feature_width}, {self.fc_sizes}")
        if self.fc_sizes[-1] < self.num_classes:
            raise ValueError("last layer needs at least one neuron per class")

    @cached_property
    def hop_powers(self) -> tuple[np.ndarray, ...]:
        """[I, A, ..., A^tagconv_hops] of the graph's normalized adjacency, derived once."""
        return adjacency_powers(self.graph.adjacency_norm, self.tagconv_hops)

    @property
    def num_output_neurons(self) -> int:
        return self.fc_sizes[-1]

    def feature_output_size(self) -> int:
        """Flattened size of the feature layer's spike output."""
        if self.feature == "tagconv":
            return self.graph.num_nodes * self.feature_width
        return self.feature_width


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
    base, extra = divmod(num_neurons, num_classes)
    start = 0
    for c in range(num_classes):
        size = base + (1 if c < extra else 0)
        u[c, start:start + size] = 1.0 / size
        start += size
    return u


def param_shapes(cfg: NetworkConfig) -> dict[str, tuple[int, ...]]:
    n, c = cfg.graph.num_nodes, cfg.num_channels
    if cfg.feature == "tagconv":
        shapes = {
            "feature.g": (c, cfg.feature_width, cfg.tagconv_hops + 1),
            "feature.b": (cfg.feature_width,),
        }
    else:
        shapes = {
            "feature.w": (cfg.feature_width, n * c),
            "feature.b": (cfg.feature_width,),
        }
    prev = cfg.feature_output_size()
    for i, size in enumerate(cfg.fc_sizes, start=1):
        shapes[f"fc{i}.w"] = (size, prev)
        shapes[f"fc{i}.b"] = (size,)
        prev = size
    return shapes


@dataclass
class Model:
    config: NetworkConfig
    params: dict[str, np.ndarray]
    voting: np.ndarray

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())


def init_model(cfg: NetworkConfig, seed: int) -> Model:
    """Uniform fan-in initialization, deterministic under the seed.

    Every tensor is drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)). With
    sparse binary inputs this leaves the deeper layers almost silent: on the
    default network no output membrane reaches the surrogate window, so
    every gradient is zero. ``run_rounds`` therefore passes each fresh model
    through ``calibrate`` on training samples before the first epoch.
    """
    rng = np.random.default_rng(seed)
    n, c = cfg.graph.num_nodes, cfg.num_channels
    fan_in = {"feature": c * (cfg.tagconv_hops + 1) if cfg.feature == "tagconv" else n * c}
    prev = cfg.feature_output_size()
    for i, size in enumerate(cfg.fc_sizes, start=1):
        fan_in[f"fc{i}"] = prev
        prev = size
    params = {}
    for name, shape in param_shapes(cfg).items():
        bound = 1.0 / np.sqrt(fan_in[name.split(".")[0]])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return Model(cfg, params, voting_matrix(cfg.num_classes, cfg.num_output_neurons))


def tagconv_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray,
                    powers) -> np.ndarray:
    """Polynomial graph filter: z[:, f] = sum_c sum_k g[c,f,k] A^k x[:, c] + b[f].

    x is the (N, C) spike matrix of one timestep; output is the (N, F)
    real-valued synaptic current (the spiking nonlinearity is the caller's).
    Runs the same products as ``model_forward``, on a one-step window.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c = x.shape
    if g.shape[0] != c or g.shape[2] != len(powers):
        raise ValueError(f"filter shape {g.shape} inconsistent with input {x.shape} "
                         f"and {len(powers)} adjacency powers")
    return _tagconv_drive(_propagate(x[None], powers), g)[0] + b


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense current x @ w.T + b for one input vector or a (T, in) window of them."""
    x = np.asarray(x, dtype=np.float64)
    if w.shape[1] != x.shape[-1]:
        raise ValueError(f"weight expects input size {w.shape[1]}, got {x.shape[-1]}")
    return x @ w.T + b


def _propagate(x: np.ndarray, powers) -> np.ndarray:
    """A^k x_t for every hop k and timestep t as one product: (T, N, C) -> (T, K+1, N, C)."""
    t_steps, n, c = x.shape
    px = np.reshape(powers, (-1, n)) @ x.transpose(1, 0, 2).reshape(n, t_steps * c)
    return px.reshape(len(powers), n, t_steps, c).transpose(2, 0, 1, 3)


def hop_major(propagated: np.ndarray) -> np.ndarray:
    """Propagated (T, K+1, N, C) as the (T*N, (K+1)*C) filter factor; columns (k, c), c fastest."""
    t_steps, hops, n, c = propagated.shape
    return propagated.transpose(0, 2, 1, 3).reshape(t_steps * n, hops * c)


def _tagconv_drive(propagated: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Filter input without bias for every timestep, (T, N, F), as one product."""
    t_steps, hops, n, c = propagated.shape
    g_mat = g.transpose(2, 0, 1).reshape(hops * c, -1)   # rows ordered (k, c) like hop_major
    return (hop_major(propagated) @ g_mat).reshape(t_steps, n, -1)


@dataclass
class LayerTrace:
    u: np.ndarray       # (T, ...) membrane potentials
    fired: np.ndarray   # (T, ...) binary threshold crossings (drive the reset)
    out: np.ndarray     # (T, ...) emitted signal; the fired array itself unless relaxed


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, recorded layer by layer over the window."""

    x: np.ndarray                   # (T, N, C)
    propagated: np.ndarray          # tagconv: (T, K+1, N, C); mlp: (T, N*C)
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
    """The checked (T, N, C) sample and the feature layer's input: hops (tagconv) or flat (mlp)."""
    cfg = model.config
    x = np.asarray(getattr(sample, "data", sample), dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"sample must be (T, N, C), got shape {x.shape}")
    t_steps, n, c = x.shape
    if t_steps < 1:
        raise ValueError("sample must span at least one timestep")
    if n != cfg.graph.num_nodes or c != cfg.num_channels:
        raise ValueError(f"sample shape {x.shape[1:]} does not match "
                         f"(nodes={cfg.graph.num_nodes}, channels={cfg.num_channels})")
    if cfg.feature == "tagconv":
        return x, _propagate(x, cfg.hop_powers)
    return x, x.reshape(t_steps, n * c)


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
    """Layer ``name``'s weighted input over the window, bias excluded; dense flattens ``below``."""
    if name == "feature" and model.config.feature == "tagconv":
        return _tagconv_drive(below, model.params["feature.g"])
    return below.reshape(len(below), -1) @ model.params[f"{name}.w"].T


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

    Pass training samples only; ``CALIBRATION_SAMPLES`` is the number
    the training protocol uses.
    """
    cfg = model.config
    target = cfg.lif.u_threshold / 2.0
    inputs = [_feature_input(model, sample)[1] for sample in samples]
    for name in layer_names(cfg):
        std = float(np.concatenate([_weighted_input(model, name, below).ravel()
                                    for below in inputs]).std())
        weight = "feature.g" if name == "feature" and cfg.feature == "tagconv" else f"{name}.w"
        if not np.isfinite(std):
            raise ValueError(f"calibration samples give {weight!r} a non-finite input")
        if std > 0.0:
            model.params[weight] *= target / std
        inputs = [_layer_forward(model, name, below).out for below in inputs]


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
    return {
        "num_classes": cfg.num_classes,
        "num_channels": cfg.num_channels,
        "feature": cfg.feature,
        "tagconv_hops": cfg.tagconv_hops,
        "feature_width": cfg.feature_width,
        "fc_sizes": list(cfg.fc_sizes),
        "lif": {
            "beta": cfg.lif.beta,
            "u_threshold": cfg.lif.u_threshold,
            "u_reset": cfg.lif.u_reset,
            "surrogate_width": cfg.lif.surrogate_width,
        },
        "graph": {
            "num_nodes": cfg.graph.num_nodes,
            "edges": [list(e) for e in cfg.graph.edges],
        },
        "graph_hash": cfg.graph.hash(),
    }


def _config_from_dict(doc: dict) -> NetworkConfig:
    gdoc = doc["graph"]   # a "hops" key, written by older versions, is ignored
    graph = TactileGraph(gdoc["num_nodes"], tuple(tuple(e) for e in gdoc["edges"]))
    if graph.hash() != doc["graph_hash"]:
        raise DataFormatError(f"graph hash mismatch: checkpoint says {doc['graph_hash']}, "
                              f"rebuilt graph hashes to {graph.hash()}")
    return NetworkConfig(
        graph=graph,
        num_classes=doc["num_classes"],
        num_channels=doc["num_channels"],
        feature=doc["feature"],
        tagconv_hops=doc["tagconv_hops"],
        feature_width=doc["feature_width"],
        fc_sizes=tuple(doc["fc_sizes"]),
        lif=LifConfig(**doc["lif"]),
    )


def save_model(model: Model, path, extra: dict | None = None) -> None:
    """Self-describing .npz checkpoint: config, graph hash, named tensors."""
    arrays = {f"param/{name}": arr for name, arr in model.params.items()}
    arrays["voting"] = model.voting
    arrays["config_json"] = np.array(json.dumps(_config_to_dict(model.config)))
    if extra:
        arrays["extra_json"] = np.array(json.dumps(extra))
    np.savez(path, **arrays)


def load_model(path):
    """Load a checkpoint; validates graph hash, every tensor shape and finiteness.

    Returns (model, extra_dict).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as zf:
        for key in ("config_json", "voting"):
            if key not in zf:
                raise DataFormatError(f"checkpoint {path} has no {key!r}")
        try:
            cfg = _config_from_dict(json.loads(str(zf["config_json"])))
        except DataFormatError as exc:
            raise DataFormatError(f"checkpoint {path}: {exc}") from None
        except (ValueError, KeyError, TypeError) as exc:
            raise DataFormatError(f"checkpoint {path}: malformed config_json ({exc!r})") from None
        expected = param_shapes(cfg)
        params = {}
        for name, shape in expected.items():
            key = f"param/{name}"
            if key not in zf:
                raise DataFormatError(f"checkpoint is missing tensor {name!r}")
            arr = np.asarray(zf[key], dtype=np.float64)
            if arr.shape != shape:
                raise DataFormatError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise DataFormatError(f"tensor {name!r} holds non-finite values")
            params[name] = arr
        voting = np.asarray(zf["voting"], dtype=np.float64)
        if voting.shape != (cfg.num_classes, cfg.num_output_neurons):
            raise DataFormatError(f"voting matrix shape {voting.shape} does not match config")
        if not np.all(np.isfinite(voting)):
            raise DataFormatError("voting matrix holds non-finite values")
        try:
            extra = json.loads(str(zf["extra_json"])) if "extra_json" in zf else {}
        except json.JSONDecodeError:
            extra = None
        if not isinstance(extra, dict):
            raise DataFormatError(f"checkpoint {path}: extra_json is not a JSON object")
    return Model(cfg, params, voting), extra
