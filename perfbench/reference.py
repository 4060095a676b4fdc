"""Independent reference forward pass for taxelsnn checkpoints.

A plain time-major loop over the network's equations, written from the
model description and not from the package: it imports neither
``taxelsnn.model`` nor ``taxelsnn.lif``, and it reads checkpoints with
``np.load`` instead of ``taxelsnn.load_model``.

Per timestep t, for a sample x of shape (T, N, C):

    feature (tagconv): z[n, f] = sum_k sum_c (A^k x_t)[n, c] g[c, f, k] + b[f]
    feature (mlp):     z = W x_t.ravel() + b
    fc layer i:        z = W_i s + b_i   (s: the layer below's spikes, flattened)
    LIF:               u = beta * (u_reset if fired last step else u) + z
                       fired = u >= u_threshold

with A the symmetric normalization D^(-1/2) A D^(-1/2) of the binary
adjacency (no self-loops) and A^0 = I. Output neurons are dealt to classes
in contiguous blocks; the prediction is the class whose block has the
largest mean spike count, ties to the lowest index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class ReferenceNet:
    feature: str
    hops: int
    lif: dict                       # beta, u_threshold, u_reset
    powers: list[np.ndarray]        # [I, A, ..., A^hops]
    weights: list[np.ndarray]       # feature.g or feature.w, then fc{i}.w
    biases: list[np.ndarray]
    voting: np.ndarray              # (classes, output neurons)


def normalized_adjacency(edges, num_nodes: int) -> np.ndarray:
    a = np.zeros((num_nodes, num_nodes))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    deg = a.sum(axis=1)
    scale = np.zeros(num_nodes)
    scale[deg > 0] = deg[deg > 0] ** -0.5
    return scale[:, None] * a * scale[None, :]


def block_voting(num_classes: int, num_neurons: int) -> np.ndarray:
    v = np.zeros((num_classes, num_neurons))
    sizes = [num_neurons // num_classes + (1 if c < num_neurons % num_classes else 0)
             for c in range(num_classes)]
    start = 0
    for c, size in enumerate(sizes):
        v[c, start:start + size] = 1.0 / size
        start += size
    return v


def build_net(config: dict, params: dict[str, np.ndarray]) -> ReferenceNet:
    """Reference network from a checkpoint-style config dict and tensors."""
    graph = config["graph"]
    a = normalized_adjacency(graph["edges"], graph["num_nodes"])
    powers = [np.eye(graph["num_nodes"])]
    for _ in range(config["tagconv_hops"]):
        powers.append(powers[-1] @ a)
    first = "feature.g" if config["feature"] == "tagconv" else "feature.w"
    names = [first] + [f"fc{i}.w" for i in range(1, len(config["fc_sizes"]) + 1)]
    biases = ["feature.b"] + [f"fc{i}.b" for i in range(1, len(config["fc_sizes"]) + 1)]
    return ReferenceNet(
        feature=config["feature"],
        hops=config["tagconv_hops"],
        lif=config["lif"],
        powers=powers,
        weights=[params[n] for n in names],
        biases=[params[n] for n in biases],
        voting=block_voting(config["num_classes"], config["fc_sizes"][-1]),
    )


def load_checkpoint(path) -> ReferenceNet:
    with np.load(path, allow_pickle=False) as zf:
        config = json.loads(str(zf["config_json"]))
        params = {key[len("param/"):]: np.array(zf[key]) for key in zf.files
                  if key.startswith("param/")}
    return build_net(config, params)


@dataclass
class ReferenceResult:
    spike_counts: list[np.ndarray]  # per layer, spikes per neuron over the window
    drives: list[np.ndarray]        # per layer, (T, ...) weighted input without bias;
                                    # empty unless keep_drives
    prediction: int
    margin: float                   # smallest |u - u_threshold| seen in any layer


def forward(net: ReferenceNet, x: np.ndarray, keep_drives: bool = False) -> ReferenceResult:
    """Run one (T, N, C) binary sample through the network, step by step."""
    x = np.asarray(x, dtype=np.float64)
    t_steps = x.shape[0]
    beta, thr, reset = net.lif["beta"], net.lif["u_threshold"], net.lif["u_reset"]
    u = [None] * len(net.weights)
    fired = [None] * len(net.weights)
    counts = [None] * len(net.weights)
    drives = [[] for _ in net.weights]
    margin = np.inf
    for t in range(t_steps):
        signal = None
        for li, (w, b) in enumerate(zip(net.weights, net.biases)):
            if li == 0 and net.feature == "tagconv":
                drive = np.zeros((x.shape[1], w.shape[1]))
                for k in range(net.hops + 1):
                    drive += (net.powers[k] @ x[t]) @ w[:, :, k]
            elif li == 0:
                drive = w @ x[t].ravel()
            else:
                drive = w @ signal
            if keep_drives:
                drives[li].append(drive)
            z = drive + b
            if u[li] is None:
                u[li] = z.copy()
                counts[li] = np.zeros_like(z)
            else:
                u[li] = beta * np.where(fired[li], reset, u[li]) + z
            fired[li] = u[li] >= thr
            margin = min(margin, float(np.abs(u[li] - thr).min()))
            counts[li] += fired[li]
            signal = fired[li].ravel().astype(np.float64)
    scores = net.voting @ (counts[-1] / t_steps)
    return ReferenceResult(spike_counts=counts,
                           drives=[np.array(d) for d in drives],
                           prediction=int(np.argmax(scores)), margin=margin)
