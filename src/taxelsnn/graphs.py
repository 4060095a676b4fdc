"""Tactile graph construction over taxel layouts.

Three distance-based constructions are provided: a manually authored edge
list, k-nearest neighbors (union-symmetrized), and a Euclidean minimum
spanning tree optionally densified with every pair closer than a distance
threshold. All of them produce the same artifact: an undirected, simple
graph, held as its node count and sorted edge list, from which the
symmetric degree-normalized adjacency matrix D^(-1/2) A D^(-1/2) is
derived. Graphs compare and hash by topology. The polynomial
graph-convolution layer takes the powers A^0..A^K it needs from that
matrix (``adjacency_powers``); K is a setting of the network, not of the
graph.

Determinism rules (needed for reproducible runs): kNN distance ties break
toward the lower taxel index; Kruskal considers edges ordered by
(weight, min index, max index).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .layout import TaxelLayout


@dataclass(frozen=True)
class GraphSpec:
    """How to build a graph: method plus the single parameter it needs."""

    method: str  # "manual" | "knn" | "mst"
    k: int | None = None
    sigma_d: float | None = None
    manual_edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.method not in ("manual", "knn", "mst"):
            raise ValueError(f"unknown graph method {self.method!r}")
        wanted = {"manual": "manual_edges", "knn": "k", "mst": "sigma_d"}[self.method]
        for name in ("k", "sigma_d", "manual_edges"):
            val = getattr(self, name)
            if name == wanted and val is None:
                raise ValueError(f"method {self.method!r} requires {name}")
            if name != wanted and val is not None:
                raise ValueError(f"method {self.method!r} does not take {name}")

    def describe(self) -> str:
        if self.method == "knn":
            return f"knn k={self.k}"
        if self.method == "mst":
            return f"mst sigma_d={self.sigma_d}"
        return f"manual edges={len(self.manual_edges)}"


@dataclass(frozen=True)
class TactileGraph:
    """Undirected simple graph; the read-only normalized adjacency is derived from the edges."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]  # sorted, each (i, j) with i < j
    adjacency_norm: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.edges != _canonical_edges(self.edges, self.num_nodes):
            raise ValueError("edges must be sorted, distinct and each (i, j) with i < j")
        a = normalize_adjacency(self.edges, self.num_nodes)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency_norm", a)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def average_degree(self) -> float:
        return 2.0 * len(self.edges) / self.num_nodes

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def hash(self) -> str:
        """Digest of the topology; checkpoints use it to pin the graph."""
        blob = f"{self.num_nodes};" + ",".join(f"{i}-{j}" for i, j in self.edges)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _canonical_edges(edges, num_nodes) -> tuple[tuple[int, int], ...]:
    seen = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < num_nodes) or not (0 <= j < num_nodes):
            raise ValueError(f"edge ({i}, {j}) references a node outside 0..{num_nodes - 1}")
        if i == j:
            raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
        seen.add((min(i, j), max(i, j)))
    return tuple(sorted(seen))


def normalize_adjacency(edges, num_nodes: int) -> np.ndarray:
    """Symmetric normalization D^(-1/2) A D^(-1/2) of the binary adjacency.

    No self-loops are added; isolated nodes get all-zero rows and columns
    (their degree term is defined as zero rather than infinite).
    """
    a = np.zeros((num_nodes, num_nodes), dtype=np.float64)
    for i, j in edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def adjacency_powers(matrix: np.ndarray, hops: int) -> tuple[np.ndarray, ...]:
    """[I, A, A^2, ..., A^hops] by repeated multiplication."""
    if hops < 0:
        raise ValueError("hops must be >= 0")
    n = matrix.shape[0]
    powers = [np.eye(n, dtype=np.float64)]
    for _ in range(hops):
        powers.append(powers[-1] @ matrix)
    return tuple(powers)


def build_manual(layout: TaxelLayout, edges) -> TactileGraph:
    """Graph containing exactly the given edges, deduplicated and symmetrized."""
    return TactileGraph(layout.num_taxels, _canonical_edges(edges, layout.num_taxels))


def knn_selections(layout: TaxelLayout, k: int) -> list[list[int]]:
    """Per-node list of the k nearest neighbors (ties broken by lower index)."""
    n = layout.num_taxels
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    dist = layout.distances()
    np.fill_diagonal(dist, np.inf)  # a node never selects itself
    # stable: index order breaks ties
    return np.argsort(dist, axis=1, kind="stable")[:, :k].tolist()


def build_knn(layout: TaxelLayout, k: int) -> TactileGraph:
    """Union-symmetrized kNN graph: edge kept if either endpoint selects the other."""
    pairs = set()
    for i, nbrs in enumerate(knn_selections(layout, k)):
        for j in nbrs:
            pairs.add((min(i, j), max(i, j)))
    return TactileGraph(layout.num_taxels, tuple(sorted(pairs)))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_tree(layout: TaxelLayout) -> list[tuple[int, int]]:
    """Kruskal's MST over the complete Euclidean graph of the layout."""
    n = layout.num_taxels
    dist = layout.distances()
    ranked = sorted(
        ((dist[i, j], i, j) for i in range(n) for j in range(i + 1, n)),
    )
    uf = _UnionFind(n)
    tree = []
    for _, i, j in ranked:
        if uf.union(i, j):
            tree.append((i, j))
            if len(tree) == n - 1:
                break
    return tree


def build_mst(layout: TaxelLayout, sigma_d: float) -> TactileGraph:
    """MST edges plus every pair strictly closer than sigma_d millimeters."""
    if sigma_d < 0:
        raise ValueError("sigma_d must be >= 0")
    n = layout.num_taxels
    pairs = {(min(i, j), max(i, j)) for i, j in minimum_spanning_tree(layout)}
    if sigma_d > 0:
        dist = layout.distances()
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] < sigma_d:
                    pairs.add((i, j))
    return TactileGraph(n, tuple(sorted(pairs)))


def build_graph(layout: TaxelLayout, spec: GraphSpec) -> TactileGraph:
    if spec.method == "manual":
        return build_manual(layout, spec.manual_edges)
    if spec.method == "knn":
        return build_knn(layout, spec.k)
    return build_mst(layout, spec.sigma_d)


def export_graph(graph: TactileGraph, spec: GraphSpec, path) -> None:
    """Write the plain-text graph document: header fields then the edge list."""
    lines = [
        "# tactile graph",
        f"num_nodes {graph.num_nodes}",
        f"method {spec.method}",
    ]
    if spec.method == "knn":
        lines.append(f"k {spec.k}")
    elif spec.method == "mst":
        lines.append(f"sigma_d {spec.sigma_d}")
    lines.append(f"num_edges {graph.num_edges}")
    lines.append(f"average_degree {graph.average_degree():.6f}")
    lines.append("edges")
    lines += [f"{i} {j}" for i, j in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n")
