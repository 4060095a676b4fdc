#!/usr/bin/env python3
"""Regenerate the illustrative 39-taxel layout and its manual edge list.

The layout is a center taxel plus three staggered rings (8/12/18). The
manual edges wire the center to the inner ring, each ring into a cycle,
and every taxel to the angularly nearest taxel of the next ring out —
a plausible hand-authored wiring for a radial sensor.
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from taxelsnn.layout import TaxelLayout, radial_layout, save_layout, save_edge_list

RING_COUNTS = (8, 12, 18)


def ring_indices():
    rings = []
    start = 1  # index 0 is the center
    for count in RING_COUNTS:
        rings.append(list(range(start, start + count)))
        start += count
    return rings


def manual_edges(layout):
    pos = layout.positions
    rings = ring_indices()
    edges = []
    for i in rings[0]:
        edges.append((0, i))
    for ring in rings:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.append((a, b))
    for inner, outer in zip(rings, rings[1:]):
        for i in inner:
            angle_i = math.atan2(pos[i][1], pos[i][0])
            nearest = min(outer, key=lambda j: abs(
                math.remainder(math.atan2(pos[j][1], pos[j][0]) - angle_i, 2 * math.pi)))
            edges.append((i, nearest))
    return edges


def main():
    out = Path(__file__).resolve().parent.parent / "data"
    out.mkdir(exist_ok=True)
    layout = radial_layout()
    # the bundled layout keeps the coordinates to 1e-6 mm that it was first written with
    save_layout(TaxelLayout([[float(f"{v:.6f}") for v in row] for row in layout.positions],
                            layout.names), out / "taxels39.txt")
    save_edge_list(manual_edges(layout), out / "manual_edges39.txt")
    print(f"wrote {out / 'taxels39.txt'} ({layout.num_taxels} taxels)")
    print(f"wrote {out / 'manual_edges39.txt'} ({len(manual_edges(layout))} edges)")


if __name__ == "__main__":
    main()
