import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taxelsnn import (GraphSpec, TactileGraph, TaxelLayout, adjacency_powers, build_knn,
                      build_manual, build_mst, normalize_adjacency)
from taxelsnn.graphs import build_graph, export_graph, knn_selections, minimum_spanning_tree


def brute_force_mst_weight(layout):
    """Minimum spanning-tree weight by exhaustive enumeration (oracle)."""
    n = layout.num_taxels
    dist = layout.distances()
    best = math.inf
    for tree in combinations(combinations(range(n), 2), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        weight = 0.0
        spanning = True
        for i, j in tree:
            ri, rj = find(i), find(j)
            if ri == rj:
                spanning = False
                break
            parent[rj] = ri
            weight += dist[i, j]
        if spanning:
            best = min(best, weight)
    return best


def random_layout(seed, n):
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(0, 10, size=(n, 2)).round(3)
        if len({tuple(p) for p in pts}) == n:
            return TaxelLayout(pts)


# --- manual construction ---

def test_manual_two_nodes():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    g = build_manual(lay, [(0, 1)])
    assert g.num_edges == 1
    assert g.average_degree() == pytest.approx(1.0)


def test_manual_empty_edges():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    g = build_manual(lay, [])
    assert g.num_edges == 0
    assert np.all(g.adjacency_norm == 0)


def test_manual_dedup_and_symmetrize():
    lay = random_layout(0, 4)
    g = build_manual(lay, [(0, 1), (1, 0), (1, 0), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))


def test_manual_rejects_bad_edges():
    lay = random_layout(0, 3)
    with pytest.raises(ValueError, match=r"\(0, 7\)"):
        build_manual(lay, [(0, 7)])
    with pytest.raises(ValueError, match=r"self-loop.*\(2, 2\)"):
        build_manual(lay, [(2, 2)])


def test_manual_39_node_radial_example(layout39):
    from taxelsnn.layout import load_edge_list
    from tests.conftest import DATA_DIR
    g = build_manual(layout39, load_edge_list(DATA_DIR / "manual_edges39.txt"))
    # hand-authored example wiring must connect the whole sensor
    reach = {0}
    frontier = [0]
    adj = {i: [] for i in range(39)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    while frontier:
        for nb in adj[frontier.pop()]:
            if nb not in reach:
                reach.add(nb)
                frontier.append(nb)
    assert reach == set(range(39))


# --- kNN construction ---

def test_knn_three_collinear_nodes():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    g = build_knn(lay, 1)
    assert g.edges == ((0, 1), (1, 2))


def test_knn_selection_count_is_exactly_k(layout39):
    for k in (1, 2, 5):
        sels = knn_selections(layout39, k)
        assert all(len(s) == k for s in sels)


def test_knn_k2_on_39_layout_mean_selection_is_two(layout39):
    sels = knn_selections(layout39, 2)
    assert np.mean([len(s) for s in sels]) == 2.0


def test_knn_ties_break_to_lower_index():
    # node 0 equidistant from 1 and 2; k=1 must pick index 1
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]]))
    assert knn_selections(lay, 1)[0] == [1]


def test_knn_k_out_of_range():
    lay = random_layout(1, 3)
    with pytest.raises(ValueError):
        build_knn(lay, 0)
    with pytest.raises(ValueError):
        build_knn(lay, 3)


@given(st.integers(0, 500), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_knn_every_node_covered_at_k1(seed, n):
    g = build_knn(random_layout(seed, n), 1)
    assert np.all(g.degrees() >= 1)


@given(st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_knn_edge_count_nondecreasing_in_k(seed):
    lay = random_layout(seed, 7)
    counts = [build_knn(lay, k).num_edges for k in range(1, 7)]
    assert counts == sorted(counts)


# --- MST construction ---

def test_mst_two_nodes():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert build_mst(lay, 0.0).num_edges == 1
    assert build_mst(lay, 100.0).num_edges == 1


def test_mst_39_layout_sigma_zero(layout39):
    g = build_mst(layout39, 0.0)
    assert g.num_edges == 38
    assert g.average_degree() == pytest.approx(2 * 38 / 39)
    assert round(g.average_degree(), 1) == 1.9


def test_mst_rejects_negative_sigma(layout39):
    with pytest.raises(ValueError):
        build_mst(layout39, -0.1)


def test_mst_threshold_is_strict():
    # distances: d(0,1)=d(1,2)=1, d(0,2)=2; MST = {(0,1),(1,2)}
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert build_mst(lay, 2.0).num_edges == 2      # 2 < 2 is false
    assert build_mst(lay, 2.0000001).num_edges == 3


@given(st.integers(0, 300), st.integers(3, 6))
@settings(max_examples=20, deadline=None)
def test_mst_weight_matches_exhaustive_enumeration(seed, n):
    lay = random_layout(seed, n)
    dist = lay.distances()
    weight = sum(dist[i, j] for i, j in minimum_spanning_tree(lay))
    assert weight == pytest.approx(brute_force_mst_weight(lay), rel=1e-12)


@given(st.integers(0, 300), st.integers(2, 9))
@settings(max_examples=25, deadline=None)
def test_mst_has_n_minus_1_edges(seed, n):
    lay = random_layout(seed, n)
    assert build_mst(lay, 0.0).num_edges == n - 1


@given(st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_mst_edge_count_nondecreasing_in_sigma(seed):
    lay = random_layout(seed, 8)
    counts = [build_mst(lay, s).num_edges for s in (0.0, 1.0, 2.0, 4.0, 8.0)]
    assert counts == sorted(counts)


# --- normalization and powers ---

def test_normalize_single_edge():
    np.testing.assert_allclose(normalize_adjacency([(0, 1)], 2), [[0, 1], [1, 0]])


def test_normalize_path_graph():
    a = normalize_adjacency([(0, 1), (1, 2)], 3)
    assert a[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert a[1, 2] == pytest.approx(1 / math.sqrt(2))
    assert a[0, 2] == 0.0


def test_normalize_isolated_node_is_zero_row():
    a = normalize_adjacency([(0, 1)], 3)
    assert np.all(a[2] == 0) and np.all(a[:, 2] == 0)
    assert np.all(np.isfinite(a))


@given(st.integers(0, 400), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_normalized_adjacency_symmetric_and_spectrum_bounded(seed, n):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    a = normalize_adjacency(edges, n)
    assert np.array_equal(a, a.T)
    eig = np.linalg.eigvalsh(a)
    assert eig.min() >= -1 - 1e-9 and eig.max() <= 1 + 1e-9


def test_powers_k0_is_identity():
    a = normalize_adjacency([(0, 1)], 2)
    (p0,) = adjacency_powers(a, 0)
    np.testing.assert_array_equal(p0, np.eye(2))


def test_powers_two_node_square_is_identity():
    a = normalize_adjacency([(0, 1)], 2)
    powers = adjacency_powers(a, 2)
    np.testing.assert_allclose(powers[2], np.eye(2), atol=1e-15)


def test_powers_match_naive_products(rng):
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2
    powers = adjacency_powers(a, 3)
    naive = a @ a @ a
    np.testing.assert_allclose(powers[3], naive, atol=1e-12)
    assert len(powers) == 4


def test_graph_powers_consistency(layout39):
    g = build_mst(layout39, 2.0)
    powers = adjacency_powers(g.adjacency_norm, 3)
    for k in range(4):
        np.testing.assert_allclose(
            powers[k], np.linalg.matrix_power(g.adjacency_norm, k), atol=1e-12)


# --- degree summary, spec, export ---

def test_average_degree_triangle():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    g = build_manual(lay, [(0, 1), (1, 2), (0, 2)])
    assert g.average_degree() == pytest.approx(2.0)


def test_average_degree_empty():
    lay = TaxelLayout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert build_manual(lay, []).average_degree() == 0.0


def test_graph_hash_tracks_topology(layout39):
    g1 = build_mst(layout39, 0.0)
    g2 = build_mst(layout39, 0.0)
    g3 = build_knn(layout39, 2)
    assert g1.hash() == g2.hash()
    assert g1.hash() != g3.hash()


def test_graphs_compare_and_hash_by_topology(layout39):
    g1 = build_knn(layout39, 2)
    g2 = build_knn(layout39, 2)
    rebuilt = TactileGraph(g1.num_nodes, g1.edges)
    assert g1 == g2 == rebuilt
    assert hash(g1) == hash(g2) == hash(rebuilt)
    assert len({g1, g2, rebuilt}) == 1
    assert g1 != build_knn(layout39, 3)
    assert g1 != build_mst(layout39, 0.0)
    assert g1 != TactileGraph(g1.num_nodes + 1, g1.edges)
    np.testing.assert_array_equal(rebuilt.adjacency_norm,
                                  normalize_adjacency(g1.edges, g1.num_nodes))
    assert not rebuilt.adjacency_norm.flags.writeable


@pytest.mark.parametrize("edges", [((0, 1), (0, 99)), ((0, 1), (-1, 2)), ((0, 1), (2, 2)),
                                   ((1, 0),), ((1, 2), (0, 1)), ((0, 1), (0, 1))])
def test_graph_rejects_noncanonical_edges(edges):
    # out of range, negative (would wrap), self-loop, i > j, unsorted, duplicate
    with pytest.raises(ValueError):
        TactileGraph(4, edges)


def test_graph_spec_validation():
    GraphSpec("knn", k=3)
    GraphSpec("mst", sigma_d=1.0)
    GraphSpec("manual", manual_edges=((0, 1),))
    with pytest.raises(ValueError):
        GraphSpec("knn", sigma_d=1.0)
    with pytest.raises(ValueError):
        GraphSpec("mst")
    with pytest.raises(ValueError):
        GraphSpec("voronoi", k=1)


def test_export_graph_document(tmp_path, layout39):
    spec = GraphSpec("mst", sigma_d=0.0)
    g = build_graph(layout39, spec)
    out = tmp_path / "graph.txt"
    export_graph(g, spec, out)
    text = out.read_text()
    assert "num_nodes 39" in text
    assert "method mst" in text
    assert "sigma_d 0.0" in text
    assert "num_edges 38" in text
    assert "average_degree 1.948718" in text
    assert f"{g.edges[0][0]} {g.edges[0][1]}" in text
