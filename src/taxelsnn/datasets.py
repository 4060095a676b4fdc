"""Dataset manifests and a synthetic event generator for desk-scale runs.

A manifest is a small text file binding sample files to class labels::

    taxels 10
    channels 2
    bin_width 0.02
    classes ring tap swipe press
    samples/ring_000.events 0
    ...

The four header lines come first, each once, in any order, as in an
event file; every line after the first entry is one ``path label`` entry.
``#`` starts a comment. Paths are resolved relative to the manifest's
directory. ``classes`` names two or more classes, each once. Labels must
be dense 0..num_classes-1 and every referenced file must exist.

The synthetic generator stands in for real sensor recordings: each class
owns a spatially clustered subset of taxels (disjoint across classes) with
class-specific firing rates and onset phases, and every sample is a fresh
Poisson draw from its class template plus optional uniform background
noise. Generation is byte-reproducible under a seed.

Converting an external event-based tactile recording is a matter of
mapping it onto ``EventStream`` (per-event seconds, taxel id, polarity
channel) and calling ``write_event_file``; see the README recipe.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DataFormatError, check_words, content_lines, read_header, read_lines,
                     write_lines)
from .events import EventStream, bin_events, load_event_file, parse_header_line, write_event_file
from .layout import TaxelLayout


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[tuple[Path, int], ...]  # (sample path, label)
    class_names: tuple[str, ...]
    num_taxels: int
    num_channels: int
    bin_width: float

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.entries], dtype=np.int64)


def _class_names(words: list[str]) -> tuple[str, ...]:
    names = tuple(words[1:])
    if len(names) < 2 or len(set(names)) < len(names):
        raise ValueError(f"classes needs two or more names, each once; got {' '.join(words)!r}")
    return names


# the header keys of a manifest; classes lists the class names, label 0 first
_MANIFEST_PARSERS = {**dict.fromkeys(("taxels", "channels", "bin_width"), parse_header_line),
                     "classes": _class_names}


def load_manifest(path) -> DatasetManifest:
    """Parse and fully validate a manifest (files exist, labels dense)."""
    path = Path(path)
    lines = read_lines(path)
    header, start = read_header(path, lines, _MANIFEST_PARSERS)
    entries: list[tuple[Path, int]] = []
    for lineno, raw, parts in content_lines(lines, start):
        if parts[0] in _MANIFEST_PARSERS:
            raise DataFormatError(f"{path}:{lineno}: header line after the first entry")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'path label', got {raw!r}")
        try:
            label = int(parts[1])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad label {parts[1]!r}") from None
        entries.append((path.parent / parts[0], label))
    missing = _MANIFEST_PARSERS.keys() - header.keys()
    if missing:
        raise DataFormatError(f"{path}: missing header line(s): {', '.join(sorted(missing))}")
    class_names = header["classes"]
    labels = sorted({label for _, label in entries})
    if labels != list(range(len(class_names))):
        raise DataFormatError(
            f"{path}: labels must be dense 0..{len(class_names) - 1}, found {labels}")
    for sample_path, _ in entries:
        if not sample_path.exists():
            raise DataFormatError(f"{path}: referenced sample file missing: {sample_path}")
    return DatasetManifest(
        entries=tuple(entries),
        class_names=class_names,
        num_taxels=header["taxels"],
        num_channels=header["channels"],
        bin_width=header["bin_width"],
    )


def write_manifest(manifest: DatasetManifest, path) -> None:
    """Write a file that ``load_manifest`` reads back; ValueError, before writing, if none can."""
    path = Path(path)
    # load_manifest resolves entries against the manifest's directory
    rels = [Path(os.path.relpath(sample_path, path.parent)).as_posix()
            for sample_path, _ in manifest.entries]
    check_words("class name", manifest.class_names)
    check_words("sample path", rels)
    write_lines(path, [f"taxels {manifest.num_taxels}",
                       f"channels {manifest.num_channels}",
                       f"bin_width {manifest.bin_width!r}",
                       "classes " + " ".join(manifest.class_names),
                       *(f"{rel} {label}" for rel, (_, label) in zip(rels, manifest.entries))])


def load_samples(manifest: DatasetManifest):
    """Bin every referenced event file; returns a list of (spikes, label).

    Each spikes array is read-only uint8 (T, N, C), as bin_events gives it.
    Samples shorter than the longest one get zero steps appended up to its
    T, so the averaging window is identical across samples.
    """
    binned = []
    for sample_path, label in manifest.entries:
        stream = load_event_file(sample_path)
        if stream.num_taxels != manifest.num_taxels or stream.num_channels != manifest.num_channels:
            raise DataFormatError(
                f"{sample_path}: sample declares {stream.num_taxels} taxels / "
                f"{stream.num_channels} channels, manifest says "
                f"{manifest.num_taxels} / {manifest.num_channels}")
        binned.append((bin_events(stream, manifest.bin_width), label))
    t_max = max((len(spikes) for spikes, _ in binned), default=0)
    dataset = []
    for spikes, label in binned:
        if len(spikes) < t_max:
            spikes = np.pad(spikes, ((0, t_max - len(spikes)), (0, 0), (0, 0)))
            spikes.setflags(write=False)
        dataset.append((spikes, label))
    return dataset


TEMPLATE_RATES = (20.0, 40.0)   # events/s bounds of a class template's firing rates


def _assign_taxel_clusters(layout: TaxelLayout, num_classes: int, rng) -> list[list[int]]:
    """Disjoint, spatially clustered taxel subsets, one per class."""
    n = layout.num_taxels
    dist = layout.distances()
    unclaimed = set(range(n))
    clusters = []
    for size in map(len, np.array_split(np.arange(n), num_classes)):
        center = int(rng.choice(sorted(unclaimed)))
        nearest = sorted(unclaimed, key=lambda j: (dist[center, j], j))
        chosen = nearest[:size]
        unclaimed -= set(chosen)
        clusters.append(sorted(chosen))
    return clusters


def generate_synthetic(out_dir, layout: TaxelLayout, num_classes: int = 4,
                       samples_per_class: int = 40, duration: float = 1.0,
                       bin_width: float = 0.02, num_channels: int = 2,
                       noise_rate: float = 0.0, seed: int = 0) -> DatasetManifest:
    """Write a labeled synthetic event dataset; returns its manifest.

    noise_rate is background Poisson activity in events per taxel-channel
    per second; zero keeps the class templates perfectly disjoint.
    Template firing rates per (taxel, channel) are drawn from TEMPLATE_RATES.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if num_classes > layout.num_taxels:
        raise ValueError("need at least one taxel per class")
    if samples_per_class < 1 or num_channels < 1:
        raise ValueError("samples_per_class and num_channels must be >= 1")
    if not (0 <= duration < np.inf and 0 <= noise_rate < np.inf):   # NaN fails too
        raise ValueError("duration and noise_rate must be finite and >= 0")
    if not 0 < bin_width < np.inf:
        raise ValueError("bin_width must be finite and > 0")
    if seed < 0:   # numpy's generators take no negative seed
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    (out_dir / "samples").mkdir(parents=True, exist_ok=True)

    clusters = _assign_taxel_clusters(layout, num_classes, rng)
    # a class template: its taxels, their rates per (taxel, channel), its onset in seconds
    templates = [(taxels, rng.uniform(*TEMPLATE_RATES, size=(len(taxels), num_channels)),
                  float(rng.uniform(0.0, 0.2 * duration))) for taxels in clusters]
    # Poisson sources as (taxel, channel, rate, start): a source fires on [start, duration)
    noise = [(taxel, ch, noise_rate, 0.0) for taxel in range(layout.num_taxels)
             for ch in range(num_channels)] if noise_rate > 0 else []

    entries = []
    for cls, (owned, rates, class_onset) in enumerate(templates):
        for s in range(samples_per_class):
            onset = float(np.clip(class_onset + rng.normal(0.0, 0.02 * duration),
                                  0.0, 0.5 * duration))
            sources = [(taxel, ch, rates[ti, ch], onset) for ti, taxel in enumerate(owned)
                       for ch in range(num_channels)] + noise
            times, taxels, channels = [], [], []
            for taxel, ch, rate, start in sources:
                count = rng.poisson(rate * (duration - start))
                times.extend(rng.uniform(start, duration, size=count))
                taxels.extend([taxel] * count)
                channels.extend([ch] * count)
            stream = EventStream(np.array(times), np.array(taxels), np.array(channels),
                                 duration=duration, num_taxels=layout.num_taxels,
                                 num_channels=num_channels)
            rel = Path("samples") / f"class{cls}_{s:03d}.events"
            write_event_file(stream, out_dir / rel)
            entries.append((out_dir / rel, cls))

    manifest = DatasetManifest(
        entries=tuple(entries),
        class_names=tuple(f"class{c}" for c in range(num_classes)),
        num_taxels=layout.num_taxels,
        num_channels=num_channels,
        bin_width=bin_width,
    )
    write_manifest(manifest, out_dir / "manifest.txt")
    return manifest
