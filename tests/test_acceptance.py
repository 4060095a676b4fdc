"""Acceptance suite: one test per release criterion, run at pinned tolerances.

Each criterion prints a single status line (run with ``pytest -s`` to see
them on a green run; a red criterion fails its test in the normal way).
"""
import time
from pathlib import Path

import numpy as np
import pytest

from taxelsnn import (NetworkConfig, TactileGraph, TrainConfig, backward, build_knn, build_mst,
                      generate_synthetic, init_model, load_samples, model_forward,
                      one_hot, radial_layout, voting_loss)
from taxelsnn.graphs import normalize_adjacency
from taxelsnn.lif import LifConfig
from taxelsnn.model import lif_scan, voting_matrix
from taxelsnn.training import run_rounds, summarize_rounds, format_mean_std
from taxelsnn.cli import main

from tests.conftest import DATA_DIR
from tests.test_lif import scalar_lif_reference
from tests.test_model import filter_current, naive_tagconv
from tests.test_training import assert_grads_close, finite_difference_grads

README = Path(__file__).resolve().parent.parent / "README.md"


def report(criterion, started, message):
    print(f"criterion {criterion}: PASS ({time.perf_counter() - started:.1f}s) — {message}")


@pytest.fixture(scope="module")
def layout10():
    return radial_layout((4, 6), (2.0, 4.0), include_center=False)


def test_criterion_1_mst_degree_structure(capsys):
    t0 = time.perf_counter()
    code = main(["graph", "--layout", str(DATA_DIR / "taxels39.txt"),
                 "--method", "mst", "--sigma-d", "0"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "edges=38" in stdout
    assert "average degree: 1.948718" in stdout
    layout = radial_layout()
    g = build_mst(layout, 0.0)
    assert g.num_edges == 38
    assert g.average_degree() == 2 * 38 / 39
    assert round(g.average_degree(), 1) == 1.9
    report(1, t0, "38 MST edges, average degree 1.9487 -> 1.9")


def test_criterion_2_monotone_degree_growth(layout39):
    t0 = time.perf_counter()
    mst_degrees = [build_mst(layout39, s).average_degree()
                   for s in (0.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
    knn_degrees = [build_knn(layout39, k).average_degree() for k in range(1, 9)]
    assert mst_degrees == sorted(mst_degrees)
    assert knn_degrees == sorted(knn_degrees)
    report(2, t0, f"degree nondecreasing over sigma_d {[round(d, 2) for d in mst_degrees]} "
                  f"and k {[round(d, 2) for d in knn_degrees]}")


def test_criterion_3_tagconv_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(0, 4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        a = normalize_adjacency(edges, n)
        g = rng.standard_normal((c, f, k + 1))
        b = rng.standard_normal(f)
        x = (rng.random((n, c)) < 0.5).astype(np.float64)
        fast = filter_current(x, g, b, TactileGraph(n, tuple(edges)))
        slow = naive_tagconv(x, g, b, a, k)
        worst = max(worst, float(np.abs(fast - slow).max()))
        np.testing.assert_allclose(fast, slow, atol=1e-10)
    report(3, t0, f"50 random instances through model_forward, worst |difference| "
                  f"{worst:.2e} <= 1e-10")


def test_criterion_4_gradient_check():
    t0 = time.perf_counter()
    lay = radial_layout((4,), (2.0,), include_center=False)
    graph = build_knn(lay, 2)
    checked = 0
    for feature in ("tagconv", "mlp"):
        cfg = NetworkConfig(graph=graph, num_classes=2, num_channels=1,
                            feature=feature, tagconv_hops=1, feature_width=2,
                            fc_sizes=(4, 6))
        model = init_model(cfg, seed=3)
        assert model.num_params() <= 200
        rng = np.random.default_rng(0)
        x = (rng.random((5, 4, 1)) < 0.5).astype(np.float64)
        y = one_hot(1, 2)
        _, trace = model_forward(model, x, relaxed=True)
        analytic = backward(model, trace, y)
        fd = finite_difference_grads(model, x, y, h=1e-5)
        assert_grads_close(analytic, fd, rel=1e-4, floor=1e-8)
        checked += model.num_params()
    report(4, t0, f"{checked} parameters match central differences at rel 1e-4")


def test_criterion_5_lif_trace_oracle():
    t0 = time.perf_counter()
    cfg = LifConfig()
    rng = np.random.default_rng(77)
    for _ in range(100):
        weights = rng.uniform(-0.5, 1.0, size=int(rng.integers(2, 6)))
        spikes_in = (rng.random((150, weights.size)) < 0.4).astype(np.float64)
        currents = spikes_in @ weights
        expected = scalar_lif_reference(currents, cfg)
        layer = lif_scan(currents[:, None], cfg)
        for step in range(len(currents)):
            assert layer.u[step, 0] == expected[step][0]
            assert layer.fired[step, 0] == expected[step][1]
    report(5, t0, "100 random sequences bit-exact against the scalar simulator")


@pytest.fixture(scope="module")
def clean_run(layout10, tmp_path_factory):
    """Criterion 6 experiment: zero-noise dataset, default network, 50 epochs."""
    data_dir = tmp_path_factory.mktemp("accept_clean")
    manifest = generate_synthetic(data_dir, layout10, num_classes=4,
                                  samples_per_class=40, duration=1.0,
                                  bin_width=0.02, num_channels=2,
                                  noise_rate=0.0, seed=42)
    dataset = load_samples(manifest)
    assert len(dataset) == 160
    assert len(dataset[0][0]) == 50
    graph = build_knn(layout10, 2)
    net = NetworkConfig(graph=graph, num_classes=4, num_channels=2)
    results = run_rounds(dataset, net, TrainConfig(epochs=50, rounds=1, seed=1))
    return results[0].metrics


def test_criterion_6_synthetic_end_to_end(clean_run):
    t0 = time.perf_counter()
    best = max(clean_run.test_accuracy)
    assert best >= 0.95
    assert clean_run.train_loss[9] < clean_run.train_loss[0]
    report(6, t0, f"best test accuracy {best:.3f} >= 0.95; train loss "
                  f"epoch 10 {clean_run.train_loss[9]:.4f} < epoch 1 "
                  f"{clean_run.train_loss[0]:.4f}")


@pytest.fixture(scope="module")
def noisy_comparison(layout10, tmp_path_factory):
    """Criterion 7 experiment: noisy dataset, tagconv vs mlp over 3 rounds."""
    data_dir = tmp_path_factory.mktemp("accept_noisy")
    manifest = generate_synthetic(data_dir, layout10, num_classes=4,
                                  samples_per_class=20, duration=1.0,
                                  bin_width=0.02, num_channels=2,
                                  noise_rate=10.0, seed=7)
    dataset = load_samples(manifest)
    graph = build_knn(layout10, 2)
    cfg = TrainConfig(epochs=20, rounds=3, seed=11)
    summary = {}
    for feature in ("tagconv", "mlp"):
        net = NetworkConfig(graph=graph, num_classes=4, num_channels=2, feature=feature)
        summary[feature] = summarize_rounds(run_rounds(dataset, net, cfg))
    return summary


def test_criterion_7_baseline_ordering(noisy_comparison):
    t0 = time.perf_counter()
    tag_mean, tag_std = noisy_comparison["tagconv"]
    mlp_mean, mlp_std = noisy_comparison["mlp"]
    assert tag_mean >= mlp_mean - 0.02
    report(7, t0, f"graph variant {format_mean_std(tag_mean, tag_std)} vs "
                  f"dense baseline {format_mean_std(mlp_mean, mlp_std)} "
                  f"(margin >= -2pp holds)")


def test_criterion_8_extended_reproduction_recipe():
    t0 = time.perf_counter()
    text = README.read_text()
    assert "EvTouch" in text, "README must document the external-dataset recipe"
    assert "bin width" in text.lower() or "0.02" in text
    report(8, t0, "external-dataset experiment recipe documented in README "
                  "(not gated: needs the public datasets and sensor geometry)")


def test_criterion_9_loss_spot_values():
    t0 = time.perf_counter()
    u = voting_matrix(2, 2)
    match = np.tile([1.0, 0.0], (4, 1))
    assert voting_loss(match, u, np.array([1.0, 0.0])) == 0.0
    assert voting_loss(np.zeros((10, 8)), voting_matrix(4, 8), one_hot(0, 4)) == 1.0
    outputs = np.zeros((10, 2))
    outputs[:5, 0] = 1.0
    outputs[:2, 1] = 1.0
    assert voting_loss(outputs, u, np.array([1.0, 0.0])) == pytest.approx(0.29, abs=1e-12)
    report(9, t0, "loss equals 0, 1.0 and 0.29 on the specified vote patterns")
