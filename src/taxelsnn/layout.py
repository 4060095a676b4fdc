"""Taxel layouts: 2-D sensor geometry and the text formats that carry it.

A layout is the geometric substrate for graph construction: one (x, y)
coordinate in millimeters per taxel, optionally named. Layout files are
plain text, one taxel per line::

    # comment
    index  x_mm  y_mm  [name]

Indices must be dense 0..N-1 (any line order). Edge files used for
manually authored graphs hold one ``i j`` pair per line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, check_words, content_lines, read_lines, write_lines


@dataclass(frozen=True)
class TaxelLayout:
    """Positions of N taxels in millimeters, shape (N, 2)."""

    positions: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (N, 2) with N >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("taxel positions must be finite")
        uniq = {(float(x), float(y)) for x, y in pos}
        if len(uniq) != pos.shape[0]:
            raise ValueError("two taxels share identical coordinates")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != pos.shape[0]:
                raise ValueError("names length must match number of taxels")
            check_words("taxel name", names)   # a layout file holds each name as one word
            object.__setattr__(self, "names", names)

    @property
    def num_taxels(self) -> int:
        return self.positions.shape[0]

    def distances(self) -> np.ndarray:
        """Full pairwise Euclidean distance matrix, shape (N, N)."""
        d = self.positions[:, None, :] - self.positions[None, :, :]
        return np.sqrt((d * d).sum(axis=2))


def radial_layout(ring_counts=(8, 12, 18), ring_radii=(2.0, 4.0, 6.0),
                  include_center: bool = True) -> TaxelLayout:
    """Concentric-ring layout mimicking a radially organized fingertip sensor.

    The default (center + rings of 8/12/18) gives 39 taxels with a
    shortest inter-taxel distance of about 1.5 mm.
    """
    if len(ring_counts) != len(ring_radii):
        raise ValueError("ring_counts and ring_radii must have equal length")
    pts = []
    names = []
    if include_center:
        pts.append((0.0, 0.0))
        names.append("c0")
    for ring, (count, radius) in enumerate(zip(ring_counts, ring_radii)):
        # stagger alternate rings by half a step so spokes do not all align
        offset = (math.pi / count) * (ring % 2)
        for i in range(count):
            theta = offset + 2.0 * math.pi * i / count
            pts.append((radius * math.cos(theta), radius * math.sin(theta)))
            names.append(f"r{ring + 1}t{i}")
    return TaxelLayout(np.array(pts), tuple(names))


def load_layout(path) -> TaxelLayout:
    """Parse a layout file; raises DataFormatError naming the offending line."""
    path = Path(path)
    rows: dict[int, tuple[float, float, str | None]] = {}
    for lineno, raw, parts in content_lines(read_lines(path)):
        if len(parts) not in (3, 4):
            raise DataFormatError(f"{path}:{lineno}: expected 'index x y [name]', got {raw!r}")
        try:
            idx = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if idx in rows:
            raise DataFormatError(f"{path}:{lineno}: duplicate taxel index {idx}")
        rows[idx] = (x, y, parts[3] if len(parts) == 4 else None)
    if not rows:
        raise DataFormatError(f"{path}: no taxels found")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise DataFormatError(f"{path}: taxel indices must be dense 0..{n - 1}")
    pos = np.array([[rows[i][0], rows[i][1]] for i in range(n)])
    names = tuple(rows[i][2] if rows[i][2] is not None else f"t{i}" for i in range(n))
    try:
        return TaxelLayout(pos, names)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_layout(layout: TaxelLayout, path) -> None:
    lines = ["# taxel layout: index x_mm y_mm name"]
    for i, (x, y) in enumerate(layout.positions):
        name = layout.names[i] if layout.names else f"t{i}"
        lines.append(f"{i} {float(x)!r} {float(y)!r} {name}")
    write_lines(path, lines)


def load_edge_list(path) -> list[tuple[int, int]]:
    """Parse a manual edge file: one 'i j' pair per line, # comments allowed."""
    path = Path(path)
    edges = []
    for lineno, raw, parts in content_lines(read_lines(path)):
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return edges


def save_edge_list(edges, path) -> None:
    write_lines(path, ["# manual tactile graph edges: i j", *(f"{i} {j}" for i, j in edges)])
