"""Seeded workload inputs, written in the formats the package reads.

Everything here is generated from the run's seed by the benchmark's own
code, so a change to the package's synthetic generator, initialisation or
calibration cannot change what a workload feeds it. The package sees only
the files written here: a layout, a manifest, event files and, for
``paper-eval``, a checkpoint.

Each class owns a spatially clustered, disjoint set of taxels that fire as
Poisson processes (20-40 events/s per taxel and channel) from a class
onset on; every taxel-channel also carries uniform background noise. Bins
follow the event format's rule: floor(t / bin_width + 1e-9), clamped to the
last bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

BIN_EPS = 1e-9
RATE_RANGE = (20.0, 40.0)


@dataclass(frozen=True)
class DataSpec:
    classes: int
    samples_per_class: int
    duration: float       # seconds per sample
    noise_rate: float     # background events/s per taxel-channel
    channels: int = 2
    bin_width: float = 0.02

    @property
    def steps(self) -> int:
        return int(math.ceil(self.duration / self.bin_width - BIN_EPS))


@dataclass
class Dataset:
    manifest: Path
    layout: Path
    samples: list[np.ndarray]   # binned (T, N, C) uint8, manifest order
    labels: np.ndarray
    events: int                 # events written over all files


def read_positions(path) -> np.ndarray:
    rows = {}
    for raw in Path(path).read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            rows[int(parts[0])] = (float(parts[1]), float(parts[2]))
    return np.array([rows[i] for i in range(len(rows))])


def ring_positions(counts=(4, 6), radii=(2.0, 4.0)) -> np.ndarray:
    """Concentric rings, alternate rings offset by half a step."""
    pts = []
    for ring, (count, radius) in enumerate(zip(counts, radii)):
        offset = (math.pi / count) * (ring % 2)
        pts += [(radius * math.cos(offset + 2 * math.pi * i / count),
                 radius * math.sin(offset + 2 * math.pi * i / count)) for i in range(count)]
    return np.array(pts)


def write_layout(positions: np.ndarray, path: Path) -> None:
    lines = [f"{i} {float(x)!r} {float(y)!r}" for i, (x, y) in enumerate(positions)]
    path.write_text("\n".join(lines) + "\n")


def _clusters(positions: np.ndarray, classes: int, rng) -> list[np.ndarray]:
    n = len(positions)
    sizes = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    unclaimed = np.ones(n, dtype=bool)
    out = []
    for size in sizes:
        center = positions[rng.choice(np.flatnonzero(unclaimed))]
        dist = np.linalg.norm(positions - center, axis=1)
        dist[~unclaimed] = np.inf
        chosen = np.argsort(dist, kind="stable")[:size]
        unclaimed[chosen] = False
        out.append(np.sort(chosen))
    return out


def bin_events(times, taxels, channels, spec: DataSpec, num_taxels: int) -> np.ndarray:
    data = np.zeros((spec.steps, num_taxels, spec.channels), dtype=np.uint8)
    idx = np.minimum(np.floor(times / spec.bin_width + BIN_EPS).astype(np.int64), spec.steps - 1)
    data[idx, taxels, channels] = 1
    return data


def write_dataset(out_dir: Path, positions: np.ndarray, spec: DataSpec, rng) -> Dataset:
    """Write layout, event files and manifest under out_dir."""
    n = len(positions)
    (out_dir / "samples").mkdir(parents=True, exist_ok=True)
    write_layout(positions, out_dir / "layout.txt")
    templates = []
    for owned in _clusters(positions, spec.classes, rng):
        rates = rng.uniform(*RATE_RANGE, size=(len(owned), spec.channels))
        templates.append((owned, rates, float(rng.uniform(0.0, 0.2 * spec.duration))))

    manifest = [f"taxels {n}", f"channels {spec.channels}", f"bin_width {spec.bin_width!r}",
                "classes " + " ".join(f"c{c}" for c in range(spec.classes))]
    samples, labels, total = [], [], 0
    cells_t, cells_c = np.meshgrid(np.arange(n), np.arange(spec.channels), indexing="ij")
    for label, (owned, rates, onset0) in enumerate(templates):
        for s in range(spec.samples_per_class):
            onset = float(np.clip(onset0 + rng.normal(0.0, 0.02 * spec.duration),
                                  0.0, 0.5 * spec.duration))
            signal = rng.poisson(rates * (spec.duration - onset))
            noise = rng.poisson(spec.noise_rate * spec.duration, size=(n, spec.channels))
            taxels = np.concatenate([np.repeat(np.repeat(owned, spec.channels), signal.ravel()),
                                     np.repeat(cells_t.ravel(), noise.ravel())])
            channels = np.concatenate([
                np.repeat(np.tile(np.arange(spec.channels), len(owned)), signal.ravel()),
                np.repeat(cells_c.ravel(), noise.ravel())])
            times = np.concatenate([rng.uniform(onset, spec.duration, size=signal.sum()),
                                    rng.uniform(0.0, spec.duration, size=noise.sum())])
            order = np.argsort(times, kind="stable")
            times, taxels, channels = times[order], taxels[order], channels[order]
            rel = f"samples/c{label}_{s:03d}.events"
            lines = [f"taxels {n}", f"channels {spec.channels}", f"duration {spec.duration!r}"]
            lines += [f"{t!r} {i} {c}" for t, i, c in
                      zip(times.tolist(), taxels.tolist(), channels.tolist())]
            (out_dir / rel).write_text("\n".join(lines) + "\n")
            manifest.append(f"{rel} {label}")
            samples.append(bin_events(times, taxels, channels, spec, n))
            labels.append(label)
            total += times.size
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return Dataset(out_dir / "manifest.txt", out_dir / "layout.txt", samples,
                   np.array(labels), total)


def draw_params(config: dict, samples, rng) -> dict[str, np.ndarray]:
    """Seeded network tensors for a checkpoint, scaled on the samples.

    Biases are drawn from U(-1, 1) / sqrt(fan_in). Each weight tensor, in
    forward order, is scaled so the std of its layer's weighted input over
    the samples is u_threshold / 2 (the data-driven initialisation the
    training protocol uses), computed with the reference forward so the
    checkpoint does not depend on the package's ``init_model`` or
    ``calibrate``.
    """
    n, c, f = config["graph"]["num_nodes"], config["num_channels"], config["feature_width"]
    hops = config["tagconv_hops"]
    if config["feature"] == "tagconv":
        layers = [("feature.g", (c, f, hops + 1), c * (hops + 1))]
        prev = n * f
    else:
        layers = [("feature.w", (f, n * c), n * c)]
        prev = f
    for i, size in enumerate(config["fc_sizes"], start=1):
        layers.append((f"fc{i}.w", (size, prev), prev))
        prev = size
    params = {}
    for name, shape, fan_in in layers:
        width = shape[1] if name == "feature.g" else shape[0]
        params[name] = rng.uniform(-1.0, 1.0, size=shape)
        params[name.split(".")[0] + ".b"] = rng.uniform(-1.0, 1.0, size=width) / math.sqrt(fan_in)
    net = reference.build_net(config, params)
    target = config["lif"]["u_threshold"] / 2.0
    for li, w in enumerate(net.weights):
        drive = np.concatenate([reference.forward(net, x, keep_drives=True).drives[li].ravel()
                                for x in samples])
        w *= target / drive.std()
    return params
