import json
from pathlib import Path

import numpy as np
import pytest

from taxelsnn.cli import main, load_run_config, RunConfig
from tests.conftest import DATA_DIR

LAYOUT39 = str(DATA_DIR / "taxels39.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Small synthetic dataset shared by the train/eval tests."""
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--out", str(out), "--classes", "2",
                 "--samples-per-class", "5", "--duration", "0.2",
                 "--channels", "1", "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train",
                 "--layout", str(synth_dir / "layout.txt"),
                 "--manifest", str(synth_dir / "manifest.txt"),
                 "--out-dir", str(out),
                 "--method", "knn", "--k", "2",
                 "--feature-width", "2", "--fc-sizes", "4,4",
                 "--epochs", "2", "--rounds", "2", "--seed", "5"])
    assert code == 0
    return out


# --- graph ---

def test_graph_mst_report(capsys, tmp_path):
    out = tmp_path / "graph.txt"
    code, stdout, _ = run(capsys, "graph", "--layout", LAYOUT39,
                          "--method", "mst", "--sigma-d", "0", "--out", str(out))
    assert code == 0
    assert "edges=38" in stdout
    assert "average degree: 1.948718" in stdout
    assert out.exists()
    assert "num_edges 38" in out.read_text()


def test_graph_knn_reports_selection_count(capsys):
    code, stdout, _ = run(capsys, "graph", "--layout", LAYOUT39,
                          "--method", "knn", "--k", "2")
    assert code == 0
    assert "selected neighbors per node: 2" in stdout


def test_graph_manual_needs_edge_file(capsys):
    code, _, err = run(capsys, "graph", "--layout", LAYOUT39, "--method", "manual")
    assert code == 1
    assert "edge file" in err


def test_graph_bad_method_is_usage_error(capsys):
    code, _, err = run(capsys, "graph", "--layout", LAYOUT39, "--method", "voronoi")
    assert code == 1


def test_graph_has_no_hops_flag(capsys):
    code, _, err = run(capsys, "graph", "--layout", LAYOUT39, "--method", "knn", "--hops", "2")
    assert code == 1
    assert err.startswith("usage error:") and "--hops" in err


def test_graph_missing_layout_is_data_error(capsys):
    code, _, err = run(capsys, "graph", "--layout", "nope.txt", "--method", "knn")
    assert code == 2
    assert "not found" in err


# --- synth ---

def test_synth_writes_dataset(synth_dir):
    manifest = synth_dir / "manifest.txt"
    assert manifest.exists()
    assert (synth_dir / "layout.txt").exists()
    lines = [l for l in manifest.read_text().splitlines() if ".events" in l]
    assert len(lines) == 10


def test_synth_repeat_seed_identical(capsys, tmp_path):
    for sub in ("a", "b"):
        code, _, _ = run(capsys, "synth", "--out", str(tmp_path / sub),
                         "--classes", "2", "--samples-per-class", "3",
                         "--duration", "0.2", "--seed", "7")
        assert code == 0
    files_a = sorted((tmp_path / "a").rglob("*.events"))
    files_b = sorted((tmp_path / "b").rglob("*.events"))
    assert [f.read_bytes() for f in files_a] == [f.read_bytes() for f in files_b]


def test_synth_zero_classes_fails(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "z"), "--classes", "0")
    assert code == 1


# --- train ---

def test_train_outputs(train_dir, capsys):
    metrics = sorted(train_dir.glob("round*_metrics.csv"))
    models = sorted(train_dir.glob("round*_model.npz"))
    assert len(metrics) == 2 and len(models) == 2
    lines = metrics[0].read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,test_acc"
    assert len(lines) == 3  # header + 2 epochs


def test_train_prints_mean_std_summary(synth_dir, tmp_path, capsys):
    out = tmp_path / "run2"
    code, stdout, _ = run(capsys, "train",
                          "--layout", str(synth_dir / "layout.txt"),
                          "--manifest", str(synth_dir / "manifest.txt"),
                          "--out-dir", str(out),
                          "--feature-width", "2", "--fc-sizes", "4,4",
                          "--epochs", "1", "--rounds", "2", "--seed", "5")
    assert code == 0
    import re
    assert re.search(r"mean \(std\) final accuracy: \d+\.\d{2} \(\d+\.\d{2}\)", stdout)


def test_train_missing_manifest_is_data_error(capsys, synth_dir):
    code, _, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                       "--manifest", "missing.txt")
    assert code == 2


@pytest.mark.parametrize("bad", ["taxels", "taxels ten", "bin_width x", "bin_width 0",
                                 "bin_width -0.02", "bin_width nan", "bin_width inf",
                                 "taxels 39.7"])
def test_train_bad_manifest_header_is_data_error(capsys, synth_dir, tmp_path, bad):
    lines = (synth_dir / "manifest.txt").read_text().splitlines()
    key = bad.split()[0]
    lines = [bad if line.split()[0] == key else line for line in lines]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                       "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"))
    assert code == 2
    assert f"{manifest}:{lines.index(bad) + 1}:" in err


def test_readme_quickstart_with_relative_paths(tmp_path, monkeypatch, capsys):
    # the README's synth -> train -> eval, with relative paths and a tiny size
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "runs/demo-data", "--classes", "2",
                 "--samples-per-class", "4", "--duration", "0.2", "--noise-rate", "5.0",
                 "--seed", "0"]) == 0
    assert main(["train", "--layout", "runs/demo-data/layout.txt",
                 "--manifest", "runs/demo-data/manifest.txt",
                 "--method", "knn", "--k", "2", "--feature-width", "2", "--fc-sizes", "4,4",
                 "--epochs", "1", "--rounds", "1", "--seed", "0", "--out-dir", "runs/demo"]) == 0
    assert main(["eval", "--checkpoint", "runs/demo/round01_model.npz",
                 "--manifest", "runs/demo-data/manifest.txt"]) == 0


@pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
def test_train_bad_learning_rate_is_usage_error(capsys, synth_dir, tmp_path, rate):
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                       "--manifest", str(synth_dir / "manifest.txt"), "--out-dir", str(out),
                       "--epochs", "1", "--rounds", "1", "--learning-rate", rate)
    assert code == 1
    assert err.startswith("error:") and "learning_rate" in err
    assert not out.exists()


def test_train_requires_paths(capsys):
    code, _, err = run(capsys, "train")
    assert code == 1
    assert "layout" in err


def test_run_config_file_with_overrides(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"layout = {synth_dir / 'layout.txt'}\n"
        f"manifest = {synth_dir / 'manifest.txt'}\n"
        "# comment line\n"
        "epochs = 1\n"
        "rounds = 1\n"
        "feature_width = 2\n"
        "fc_sizes = 4,4\n"
        "seed = 9\n")
    cfg = load_run_config(cfg_path)
    assert cfg.epochs == 1 and cfg.seed == 9
    out = tmp_path / "from_cfg"
    code, stdout, _ = run(capsys, "train", "--config", str(cfg_path),
                          "--out-dir", str(out), "--rounds", "1")
    assert code == 0
    assert (out / "round01_model.npz").exists()


def test_run_config_unknown_key(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("flux_capacitor = 1\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 2


# --- eval ---

def test_eval_reproduces_logged_accuracy(train_dir, synth_dir, capsys, tmp_path):
    ckpt = train_dir / "round01_model.npz"
    with np.load(ckpt, allow_pickle=False) as zf:
        extra = json.loads(str(zf["extra_json"]))
    out = tmp_path / "eval"
    code, stdout, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                          "--manifest", str(synth_dir / "manifest.txt"),
                          "--out-dir", str(out))
    assert code == 0
    acc_text = (out / "round01_model_accuracy.txt").read_text()
    logged = extra["final_accuracy"]
    recomputed = float(acc_text.splitlines()[2].split()[1])
    assert recomputed == logged  # bit-exact determinism
    # confusion file rows sum to the test-set size
    cm_lines = (out / "round01_model_confusion.txt").read_text().splitlines()[2:]
    total = sum(sum(int(v) for v in row.split()) for row in cm_lines)
    assert total == len(extra["test_indices"])


def test_eval_split_all(train_dir, synth_dir, capsys, tmp_path):
    code, stdout, _ = run(capsys, "eval",
                          "--checkpoint", str(train_dir / "round01_model.npz"),
                          "--manifest", str(synth_dir / "manifest.txt"),
                          "--split", "all", "--out-dir", str(tmp_path / "e2"))
    assert code == 0
    assert "samples: 10" in stdout


def test_eval_mismatched_manifest_is_data_error(train_dir, tmp_path, capsys, layout10):
    from taxelsnn import generate_synthetic
    other = tmp_path / "other"
    generate_synthetic(other, layout10, num_classes=2, samples_per_class=3,
                       duration=0.2, num_channels=1, seed=1)
    code, _, err = run(capsys, "eval",
                       "--checkpoint", str(train_dir / "round01_model.npz"),
                       "--manifest", str(other / "manifest.txt"))
    assert code == 2


def test_eval_tampered_graph_hash_is_data_error(train_dir, synth_dir, tmp_path, capsys):
    ckpt = train_dir / "round01_model.npz"
    with np.load(ckpt, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    doc = json.loads(str(blobs["config_json"]))
    doc["graph_hash"] = "f" * 16
    blobs["config_json"] = np.array(json.dumps(doc))
    tampered = tmp_path / "tampered.npz"
    np.savez(tampered, **blobs)
    code, _, err = run(capsys, "eval", "--checkpoint", str(tampered),
                       "--manifest", str(synth_dir / "manifest.txt"))
    assert code == 2
    assert "graph hash" in err


@pytest.mark.parametrize("damage", ["drop config_json", "drop voting", "config_json {oops",
                                    "config_json {}", "extra_json {oops", "extra_json 3",
                                    "edge [0, 99]", "edge [-1, 2]"])
def test_eval_malformed_checkpoint_is_data_error(damage, train_dir, synth_dir, tmp_path, capsys):
    with np.load(train_dir / "round01_model.npz", allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    action, value = damage.split(" ", 1)
    if action == "drop":
        del blobs[value]
    elif action == "edge":
        doc = json.loads(str(blobs["config_json"]))
        doc["graph"]["edges"].append(json.loads(value))
        blobs["config_json"] = np.array(json.dumps(doc))
    else:
        blobs[action] = np.array(value)
    damaged = tmp_path / "damaged.npz"
    np.savez(damaged, **blobs)
    code, _, err = run(capsys, "eval", "--checkpoint", str(damaged),
                       "--manifest", str(synth_dir / "manifest.txt"))
    assert code == 2
    assert err.startswith("data error:") and str(damaged) in err


def test_help_exits_zero(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    assert "graph" in stdout and "synth" in stdout
