import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taxelsnn import (GraphSpec, TactileGraph, TaxelLayout, adjacency_powers, build_knn,
                      build_manual, build_mst, normalize_adjacency, radial_layout)
from taxelsnn.graphs import build_graph, knn_selections, minimum_spanning_tree


def find_root(parent, x):
    """Root of x in a union-find forest held as a parent list."""
    while parent[x] != x:
        x = parent[x]
    return x


def brute_force_mst_weight(layout):
    """Minimum spanning-tree weight by exhaustive enumeration (oracle)."""
    n = layout.num_taxels
    dist = layout.distances()
    best = math.inf
    for tree in combinations(combinations(range(n), 2), n - 1):
        parent = list(range(n))
        weight = 0.0
        spanning = True
        for i, j in tree:
            ri, rj = find_root(parent, i), find_root(parent, j)
            if ri == rj:
                spanning = False
                break
            parent[rj] = ri
            weight += dist[i, j]
        if spanning:
            best = min(best, weight)
    return best


def kruskal_mst(layout):
    """Kruskal's scan over every pair sorted by (distance, i, j), i < j (reference)."""
    n = layout.num_taxels
    dist = layout.distances()
    parent = list(range(n))
    tree = []
    for _, i, j in sorted((dist[i, j], i, j) for i, j in combinations(range(n), 2)):
        ri, rj = find_root(parent, i), find_root(parent, j)
        if ri != rj:
            parent[rj] = ri
            tree.append((i, j))
    return tree


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
    assert np.all(g.adjacency_norm.any(axis=1))


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


def test_mst_rejects_nan_sigma(layout39):
    with pytest.raises(ValueError, match="sigma_d"):
        build_mst(layout39, math.nan)


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


def tie_heavy_layouts():
    """Layouts whose pair distances tie often: rings, grid prefixes, points on a 1/3 grid."""
    yield radial_layout()
    yield radial_layout((10,), (1.0,), include_center=False)
    yield radial_layout((8, 8, 8), (1.0, 2.0, 3.0), include_center=False)
    grid = [(x, y) for y in range(7) for x in range(7)]
    for n in (2, 3, 5, 8, 13, 21, 34, 49):
        yield TaxelLayout(np.array(grid[:n], dtype=np.float64))
    rng = np.random.default_rng(7)
    for scale in (1.0, 3.0, None):
        for _ in range(8):
            pts = rng.uniform(0, 3, size=(int(rng.integers(2, 25)), 2))
            pts = np.unique(pts if scale is None else np.round(pts * scale) / scale, axis=0)
            yield TaxelLayout(pts)


def test_mst_matches_kruskal_edge_for_edge(layout39, layout10):
    """Prim's tree, in its returned order, is the one Kruskal's scan picks under the same ties."""
    for lay in (layout39, layout10, *tie_heavy_layouts()):
        assert minimum_spanning_tree(lay) == kruskal_mst(lay)


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


def test_powers_reject_negative_hops():
    with pytest.raises(ValueError, match="hops must be >= 0"):
        adjacency_powers(normalize_adjacency([(0, 1)], 2), -1)


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



# --- old-vs-new gate: graphs and descriptions pinned before the builders shared one path ---

KNN_HASHES = {1: "69c35a7deba2e9c1", 2: "fc8c7d4f16f39946", 3: "b08a5a06b30ef0db",
              4: "d42b169c8c79437e", 5: "8bed2af340234df2", 6: "ab401aa188281884",
              7: "69c1de8994af3bde", 8: "85156de0b104f49d"}
# criterion 2's sigma_d values; below the layout's 2 mm pitch only the tree remains
MST_HASHES = {0.0: "49fa94eda1938a70", 1.5: "49fa94eda1938a70", 2.0: "54e05cc20b3c88d6",
              2.5: "5fb2b659a21f60c7", 3.0: "c43e0281a11b5749", 3.5: "f65298cee5b700dd",
              4.0: "c126b35502d0fa2d"}


def test_graph_hashes_match_pinned_values(layout39):
    assert {k: build_graph(layout39, GraphSpec("knn", k=k)).hash() for k in KNN_HASHES} \
        == KNN_HASHES
    assert {s: build_graph(layout39, GraphSpec("mst", sigma_d=s)).hash() for s in MST_HASHES} \
        == MST_HASHES


@pytest.mark.parametrize("spec, text", [(GraphSpec("knn", k=3), "knn k=3"),
                                        (GraphSpec("mst", sigma_d=2.5), "mst sigma_d=2.5"),
                                        (GraphSpec("manual", manual_edges=((0, 1), (1, 2))),
                                         "manual edges=2")])
def test_describe_matches_pinned_text(spec, text, layout39):
    assert spec.describe() == text
    assert build_graph(layout39, spec).num_nodes == 39   # every method has its builder

