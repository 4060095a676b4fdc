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
toward the lower taxel index; the MST, built by Prim's algorithm, orders
edges by (distance, min index, max index), a strict order under which the
tree is unique.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .layout import TaxelLayout


# each construction method and the one GraphSpec parameter it takes; build_<method> builds it
METHODS = {"manual": "manual_edges", "knn": "k", "mst": "sigma_d"}


@dataclass(frozen=True)
class GraphSpec:
    """How to build a graph: a method of ``METHODS`` plus the single parameter it needs."""

    method: str
    k: int | None = None
    sigma_d: float | None = None
    manual_edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown graph method {self.method!r}")
        wanted = METHODS[self.method]
        for name in METHODS.values():
            val = getattr(self, name)
            if name == wanted and val is None:
                raise ValueError(f"method {self.method!r} requires {name}")
            if name != wanted and val is not None:
                raise ValueError(f"method {self.method!r} does not take {name}")

    def describe(self) -> str:
        if self.method == "manual":
            return f"manual edges={len(self.manual_edges)}"
        param = METHODS[self.method]
        return f"{self.method} {param}={getattr(self, param)}"


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
    selections = knn_selections(layout, k)
    return build_manual(layout, ((i, j) for i, nbrs in enumerate(selections) for j in nbrs))


def minimum_spanning_tree(layout: TaxelLayout) -> list[tuple[int, int]]:
    """Prim's MST over the complete Euclidean graph of the layout, edges in ascending order.

    Edges compare by (distance, min index, max index). That order is strict, so the
    tree is unique.
    """
    dist = layout.distances().tolist()
    # each node outside the tree: its least edge (distance, i, j) to the tree, i < j
    best = {v: (dist[0][v], 0, v) for v in range(1, len(dist))}
    tree = []
    while best:
        v = min(best, key=best.get)
        tree.append(best.pop(v))
        for u in best:
            best[u] = min(best[u], (dist[v][u], min(u, v), max(u, v)))
    return [(i, j) for _, i, j in sorted(tree)]


def build_mst(layout: TaxelLayout, sigma_d: float) -> TactileGraph:
    """MST edges plus every pair strictly closer than sigma_d millimeters."""
    if not sigma_d >= 0:
        raise ValueError("sigma_d must be >= 0")
    close = np.argwhere(np.triu(layout.distances() < sigma_d, 1)).tolist()
    return build_manual(layout, minimum_spanning_tree(layout) + close)


def build_graph(layout: TaxelLayout, spec: GraphSpec) -> TactileGraph:
    """``build_<method>(layout, <the method's parameter>)`` for the spec's method."""
    return globals()[f"build_{spec.method}"](layout, getattr(spec, METHODS[spec.method]))
