import dataclasses
import json
import multiprocessing
import re
import shlex
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from taxelsnn import (GraphSpec, build_graph, build_manual, load_edge_list, load_layout,
                      load_model, voting_matrix)
from taxelsnn.cli import build_parser, main, load_run_config, RunConfig
from tests.conftest import DATA_DIR, package_env

LAYOUT39 = str(DATA_DIR / "taxels39.txt")
README = DATA_DIR.parent / "README.md"


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
    layout = load_layout(LAYOUT39)
    graph = build_graph(layout, GraphSpec("mst", sigma_d=0.0))
    assert build_manual(layout, load_edge_list(out)) == graph


@pytest.mark.parametrize("method, flag, value", [("knn", "--k", "1"), ("knn", "--k", "2"),
                                                 ("knn", "--k", "3"), ("mst", "--sigma-d", "0"),
                                                 ("mst", "--sigma-d", "2")])
def test_graph_out_round_trips_through_manual_edges(capsys, tmp_path, method, flag, value):
    out, again = tmp_path / "g.txt", tmp_path / "again.txt"
    code, built, _ = run(capsys, "graph", "--layout", LAYOUT39, "--method", method, flag, value,
                         "--out", str(out))
    assert code == 0
    code, manual, _ = run(capsys, "graph", "--layout", LAYOUT39, "--method", "manual",
                          "--edges", str(out), "--out", str(again))
    assert code == 0
    layout = load_layout(LAYOUT39)
    spec = (GraphSpec("knn", k=int(value)) if method == "knn"
            else GraphSpec("mst", sigma_d=float(value)))
    assert build_manual(layout, load_edge_list(out)) == build_graph(layout, spec)
    assert again.read_bytes() == out.read_bytes()
    # same "nodes=.. edges=.." and average degree
    assert built.splitlines()[0].split()[-2:] == manual.splitlines()[0].split()[-2:]
    assert built.splitlines()[1] == manual.splitlines()[1]


def test_graph_nan_sigma_d_is_rejected(capsys):
    code, stdout, err = run(capsys, "graph", "--layout", LAYOUT39,
                            "--method", "mst", "--sigma-d", "nan")
    assert code == 1
    assert stdout == "" and "sigma_d must be >= 0" in err


def test_graph_knn_reports_selection_count(capsys):
    code, stdout, _ = run(capsys, "graph", "--layout", LAYOUT39,
                          "--method", "knn", "--k", "2")
    assert code == 0
    assert "selected neighbors per node: 2" in stdout


def test_graph_manual_needs_edge_file(capsys):
    code, _, err = run(capsys, "graph", "--layout", LAYOUT39, "--method", "manual")
    assert code == 1
    assert "edge file" in err


@pytest.mark.parametrize("method, flag, value, param", [("mst", "--k", "3", "k"),
                                                        ("knn", "--sigma-d", "2", "sigma_d"),
                                                        ("knn", "--edges", "x.txt", "manual_edges")])
def test_graph_parameter_of_another_method_is_rejected(capsys, method, flag, value, param):
    code, stdout, err = run(capsys, "graph", "--layout", LAYOUT39, "--method", method, flag, value)
    assert code == 1
    assert stdout == "" and err == f"error: method {method!r} does not take {param}\n"


def test_graph_parameter_at_its_default_counts_as_unset(capsys):
    code, stdout, _ = run(capsys, "graph", "--layout", LAYOUT39,
                          "--method", "mst", "--sigma-d", "0", "--k", "2")
    assert code == 0
    assert "edges=38" in stdout


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


@pytest.mark.parametrize("flag, value", [("--bin-width", "0"), ("--bin-width", "inf"),
                                         ("--channels", "0"), ("--samples-per-class", "0"),
                                         ("--noise-rate", "-1"), ("--noise-rate", "nan"),
                                         ("--duration", "-1"), ("--duration", "inf")])
def test_synth_value_its_loader_rejects_fails_and_writes_nothing(flag, value, capsys, tmp_path):
    out = tmp_path / "z"
    code, _, err = run(capsys, "synth", "--out", str(out), "--classes", "2",
                       "--samples-per-class", "2", "--duration", "0.2", flag, value)
    assert code == 1 and err.startswith("error:")
    assert not out.exists()


def test_synth_negative_seed_fails_naming_the_seed_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "z"
    code, _, err = run(capsys, "synth", "--out", str(out), "--seed", "-1")
    assert (code, err) == (1, "error: seed must be >= 0, got -1\n")
    assert not out.exists()


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


@pytest.mark.parametrize("argv, bad", [
    (("synth", "--out", "{file}"), "file"),
    (("train", "--layout", "{layout}", "--manifest", "{manifest}", "--out-dir", "{file}"), "file"),
    (("eval", "--checkpoint", "{checkpoint}", "--manifest", "{manifest}", "--split", "all",
      "--out-dir", "{file}"), "file"),
    (("graph", "--layout", "{dir}"), "dir"),
    (("train", "--layout", "{dir}", "--manifest", "{manifest}"), "dir"),
    (("train", "--config", "{dir}"), "dir")],
    ids=["synth-out-file", "train-out-dir-file", "eval-out-dir-file", "graph-layout-dir",
         "train-layout-dir", "train-config-dir"])
def test_os_error_is_one_line_data_error(capsys, synth_dir, train_dir, tmp_path, monkeypatch,
                                         argv, bad):
    paths = {"file": tmp_path / "afile", "dir": tmp_path / "adir",
             "layout": synth_dir / "layout.txt", "manifest": synth_dir / "manifest.txt",
             "checkpoint": train_dir / "round01_model.npz"}
    paths["file"].write_text("")
    paths["dir"].mkdir()
    monkeypatch.setattr("taxelsnn.cli.load_samples", None)   # calling it would fail otherwise
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("data error:") and err.count("\n") == 1 and str(paths[bad]) in err


def test_train_write_failure_is_one_line_data_error_and_stops_the_rounds(capsys, synth_dir,
                                                                          tmp_path):
    out = tmp_path / "run"
    (out / "round01_metrics.csv").mkdir(parents=True)   # round 1's file cannot be written
    code, stdout, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                            "--manifest", str(synth_dir / "manifest.txt"), "--out-dir", str(out),
                            "--feature-width", "2", "--fc-sizes", "4,4", "--epochs", "1",
                            "--rounds", "3")
    assert code == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(out / "round01_metrics.csv") in err
    assert stdout == "" and multiprocessing.active_children() == []
    assert sorted(path.name for path in out.iterdir()) == ["round01_metrics.csv"]


@pytest.mark.parametrize("argv, text, message", [
    (("train", "--layout", "{bad}", "--manifest", "{manifest}", "--out-dir", "{out}"),
     "0 0 0\n1 0 1\n2 1 0\n3 1 1\n", "layout has 4 taxels but manifest declares 39"),
    (("train", "--layout", "{layout}", "--manifest", "{bad}", "--out-dir", "{out}"),
     "taxels 39\nchannels 1\nbin_width 0.02\nclasses a b\ns0.events 0\ns1.events x\n",
     "{bad}:6: bad label 'x'"),
    (("graph", "--layout", "{bad}"), "# no taxel here\n", "{bad}: no taxels found"),
    (("graph", "--layout", "{bad}"), "0 0 0\n1 1 2\n2 1 2\n",
     "{bad}: two taxels share identical coordinates"),
    (("graph", "--layout", "{layout}", "--method", "manual", "--edges", "{bad}"), "0 1\n0 x\n",
     "{bad}:2: invalid literal for int() with base 10: 'x'"),
    (("graph", "--layout", "{layout}", "--method", "manual", "--edges", "{bad}"), "0 1\n1 99\n",
     "{bad}: edge (1, 99) references a node outside 0..38"),
    (("train", "--layout", "{layout}", "--manifest", "{manifest}", "--method", "manual",
      "--edges", "{bad}", "--out-dir", "{out}"), "0 1\n2 2\n",
     "{bad}: self-loop edge (2, 2) is not allowed"),
    (("train", "--layout", "{layout}", "--manifest", "{bad}", "--out-dir", "{out}"),
     "taxels 39\nchannels 1\nbin_width 0.02\nclasses a b\n{samples}/class0_000.events 0\n"
     "{samples}/class0_001.events 0\n{samples}/class1_000.events 1\n",
     "{bad}: class 1 has 1 sample(s); need at least 2"),
    (("train", "--layout", "{layout}", "--manifest", "{bad}", "--out-dir", "{out}"),
     "taxels 39\nchannels 1\nbin_width 0.02\nclasses same same\n"
     "{samples}/class0_000.events 0\n{samples}/class0_001.events 0\n",
     "{bad}:4: classes needs two or more names, each once; got 'classes same same'")],
    ids=["layout-taxels", "manifest-label", "layout-empty", "layout-same-position", "edge-line",
         "edge-node-outside", "edge-self-loop", "manifest-class-of-one", "manifest-class-twice"])
def test_bad_input_file_is_one_line_data_error(capsys, synth_dir, tmp_path, monkeypatch, argv,
                                               text, message):
    paths = {"bad": tmp_path / "bad.txt", "out": tmp_path / "run",
             "layout": synth_dir / "layout.txt", "manifest": synth_dir / "manifest.txt",
             "samples": synth_dir / "samples"}
    paths["bad"].write_text(text.format(**paths))
    monkeypatch.setattr("taxelsnn.cli.load_samples", None)   # calling it would fail otherwise
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err == f"data error: {message.format(**paths)}\n"
    assert not paths["out"].exists()


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


def test_train_late_manifest_header_is_data_error(capsys, synth_dir, tmp_path):
    lines = (synth_dir / "manifest.txt").read_text().splitlines() + ["bin_width 0.5"]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                       "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"))
    assert code == 2
    assert f"{manifest}:{len(lines)}: header line after the first entry" in err


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


@pytest.mark.parametrize("flag, name", [("--u-threshold=inf", "u_threshold"),
                                        ("--surrogate-width=inf", "surrogate_width"),
                                        ("--u-reset=-inf", "u_reset")])
def test_train_nonfinite_lif_value_is_usage_error(capsys, synth_dir, tmp_path, flag, name):
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--layout", str(synth_dir / "layout.txt"),
                       "--manifest", str(synth_dir / "manifest.txt"), "--out-dir", str(out),
                       "--epochs", "1", "--rounds", "1", flag)
    assert code == 1
    assert err.startswith("error:") and name in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["rounds = 0", "learning_rate = -1", "u_reset = 0.9", "seed = -1"],
                         ids=lambda line: line.split()[0])
def test_run_config_bad_value_fails_before_any_file_is_read(line, tmp_path, capsys, monkeypatch):
    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("taxelsnn.cli.load_layout", unread)
    monkeypatch.setattr("taxelsnn.cli.load_manifest", unread)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"layout = layout.txt\nmanifest = manifest.txt\n{line}\n")
    out = tmp_path / "run"
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error:") and line.split()[0] in err
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
    assert cfg.epochs == 1 and cfg.seed == 9 and cfg.fc_sizes == (4, 4)
    out = tmp_path / "from_cfg"
    code, stdout, _ = run(capsys, "train", "--config", str(cfg_path),
                          "--out-dir", str(out), "--rounds", "1")
    assert code == 0
    assert (out / "round01_model.npz").exists()


def test_run_config_other_method_parameter_fails_before_samples_load(synth_dir, tmp_path,
                                                                    capsys, monkeypatch):
    monkeypatch.setattr("taxelsnn.cli.load_samples", None)   # calling it would fail otherwise
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"layout = {synth_dir / 'layout.txt'}\n"
                        f"manifest = {synth_dir / 'manifest.txt'}\n"
                        "method = knn\nsigma_d = 2\n")
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: method 'knn' does not take sigma_d\n"


def test_run_config_repeated_key_names_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("epochs = 5\n# the same key again\nepochs = 50\n")
    code, _, err = run(capsys, "train", "--config", str(cfg_path))
    assert code == 2
    assert err == f"data error: {cfg_path}:3: duplicate key 'epochs'\n"


def test_run_config_unknown_key(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("flux_capacitor = 1\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 2


@pytest.mark.parametrize("value", ["128,x", "128,,8", "4,", ""])
def test_run_config_bad_fc_sizes_names_file_and_line(value, tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"epochs = 1\nfc_sizes = {value}\n")
    code, _, err = run(capsys, "train", "--config", str(cfg_path))
    assert code == 2
    assert f"{cfg_path}:2: bad value for 'fc_sizes'" in err


@pytest.mark.parametrize("value", ["128,x", "128,,8"])
def test_train_bad_fc_sizes_flag_is_usage_error(value, capsys):
    code, _, err = run(capsys, "train", "--fc-sizes", value)
    assert code == 1
    assert "usage error" in err and "--fc-sizes" in err


@pytest.mark.parametrize("key, value", [("feature", "gcn"), ("method", "voronoi")])
def test_run_config_bad_choice_names_file_and_line(key, value, tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    missing = tmp_path / "missing.txt"   # refused before any data file is read
    cfg_path.write_text(f"layout = {missing}\nmanifest = {missing}\n{key} = {value}\n")
    code, _, err = run(capsys, "train", "--config", str(cfg_path))
    assert code == 2
    assert err == f"data error: {cfg_path}:3: bad value for {key!r}: {value!r}\n"


@pytest.mark.parametrize("flag, value", [("--feature", "gcn"), ("--method", "voronoi")])
def test_train_bad_choice_flag_is_usage_error(flag, value, capsys):
    code, _, err = run(capsys, "train", flag, value)
    assert code == 1
    assert err.startswith(f"usage error: argument {flag}: invalid choice: {value!r}")


def test_graph_and_train_list_the_same_methods(capsys):
    for command in ("graph", "train"):
        code, stdout, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--method {manual,knn,mst}" in stdout


# a non-default value for every network, neuron and protocol setting
NON_DEFAULT = {"feature": "mlp", "feature_width": 3, "hops": 1, "fc_sizes": (5, 6),
               "beta": 0.3, "u_threshold": 0.6, "u_reset": 0.1, "surrogate_width": 0.4,
               "epochs": 2, "learning_rate": 0.002, "rounds": 3, "split_fraction": 0.75,
               "seed": 4}
# the run's paths and graph settings; every other RunConfig field has an owner
NOT_OWNED = {"layout", "manifest", "out_dir", "method", "k", "sigma_d", "edges"}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_train_passes_every_setting_to_its_owner(source, synth_dir, tmp_path, monkeypatch):
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)} - NOT_OWNED
    assert all(getattr(RunConfig, name) != value for name, value in NON_DEFAULT.items())
    reached = {}

    class Reached(Exception):
        pass

    def fake_iter_rounds(dataset, net_config, train_cfg):
        reached.update(net=net_config, train=train_cfg)
        raise Reached

    monkeypatch.setattr("taxelsnn.cli.iter_rounds", fake_iter_rounds)
    text = {name: ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            for name, value in NON_DEFAULT.items()}
    if source == "flags":
        settings = [arg for name, value in text.items()
                    for arg in (f"--{name.replace('_', '-')}", value)]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("".join(f"{name} = {value}\n" for name, value in text.items()))
        settings = ["--config", str(cfg_path)]
    with pytest.raises(Reached):
        main(["train", "--layout", str(synth_dir / "layout.txt"),
              "--manifest", str(synth_dir / "manifest.txt"),
              "--out-dir", str(tmp_path / "run"), *settings])
    net, train_cfg = reached["net"], reached["train"]
    arrived = {f.name: getattr(owner, f.name)
               for owner in (net, net.lif, train_cfg) for f in dataclasses.fields(owner)}
    arrived["hops"] = arrived.pop("tagconv_hops")
    for name, value in NON_DEFAULT.items():
        assert name in arrived, f"RunConfig.{name} matches no owner field"
        assert arrived[name] == value, name


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


def test_synth_train_and_eval_leave_no_temporary_file(train_dir, synth_dir, capsys, tmp_path):
    # each output is written beside its target as .<name>.<pid>.tmp, then renamed over it
    code, _, _ = run(capsys, "eval", "--checkpoint", str(train_dir / "round02_model.npz"),
                     "--manifest", str(synth_dir / "manifest.txt"), "--out-dir", str(tmp_path))
    assert code == 0
    written = [p for d in (synth_dir, train_dir, tmp_path) for p in d.rglob("*")]
    assert {p.name for p in tmp_path.iterdir()} == {"round02_model_accuracy.txt",
                                                   "round02_model_confusion.txt"}
    assert [p for p in written if p.name.startswith(".") or p.suffix == ".tmp"] == []


@pytest.mark.parametrize("change, message", [
    *(({"test_indices": indices},
       "checkpoint {damaged}: test_indices must be one or more distinct ints in 0..9")
      for indices in ([-1], [999], [1.5], ["a"], [0, 0], [True], "0", [])),
    ({"test_indices": None}, "checkpoint carries no test split; rerun with --split all"),
    ({"manifest_entries": 11},
     "checkpoint was trained on a manifest with 11 entries, this one has 10")],
    ids=["negative", "past-end", "float", "string", "repeated", "bool", "no-list", "empty",
         "missing", "other-manifest"])
def test_eval_bad_test_indices_is_data_error(change, message, train_dir, synth_dir, tmp_path,
                                             capsys, monkeypatch):
    checkpoint = train_dir / "round01_model.npz"
    with np.load(checkpoint, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    extra = {**json.loads(str(blobs["extra_json"])), **change}
    blobs["extra_json"] = np.array(json.dumps({k: v for k, v in extra.items() if v is not None}))
    damaged = tmp_path / "damaged.npz"
    np.savez(damaged, **blobs)
    monkeypatch.setattr("taxelsnn.cli.load_samples", None)   # calling it would fail otherwise
    code, _, err = run(capsys, "eval", "--checkpoint", str(damaged),
                       "--manifest", str(synth_dir / "manifest.txt"),
                       "--out-dir", str(tmp_path / "eval"))
    assert code == 2
    assert err == f"data error: {message.format(damaged=damaged)}\n"
    assert not (tmp_path / "eval").exists()


def test_eval_mismatched_manifest_is_data_error(train_dir, tmp_path, capsys, layout10):
    from taxelsnn import generate_synthetic
    other = tmp_path / "other"
    generate_synthetic(other, layout10, num_classes=2, samples_per_class=3,
                       duration=0.2, num_channels=1, seed=1)
    code, _, err = run(capsys, "eval",
                       "--checkpoint", str(train_dir / "round01_model.npz"),
                       "--manifest", str(other / "manifest.txt"))
    assert code == 2


def test_eval_channel_mismatch_fails_before_samples_load(train_dir, synth_dir, tmp_path,
                                                        capsys, monkeypatch):
    from taxelsnn import generate_synthetic
    generate_synthetic(tmp_path, load_layout(synth_dir / "layout.txt"), num_classes=2,
                       samples_per_class=2, duration=0.2, num_channels=2, seed=1)
    monkeypatch.setattr("taxelsnn.cli.load_samples", None)   # calling it would fail otherwise
    code, _, err = run(capsys, "eval", "--checkpoint", str(train_dir / "round01_model.npz"),
                       "--manifest", str(tmp_path / "manifest.txt"))
    assert code == 2
    assert err == "data error: manifest has 2 channels, the checkpoint expects 1\n"


def test_eval_sample_with_late_header_line_is_data_error(train_dir, synth_dir, tmp_path, capsys):
    data = tmp_path / "data"
    (data / "samples").mkdir(parents=True)
    (data / "manifest.txt").write_bytes((synth_dir / "manifest.txt").read_bytes())
    for sample in (synth_dir / "samples").iterdir():
        (data / "samples" / sample.name).write_bytes(sample.read_bytes())
    sample = sorted((data / "samples").iterdir())[0]
    lines = sample.read_text().splitlines() + ["taxels 3"]
    sample.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "eval", "--checkpoint", str(train_dir / "round01_model.npz"),
                       "--manifest", str(data / "manifest.txt"), "--split", "all",
                       "--out-dir", str(tmp_path / "eval"))
    assert code == 2
    assert f"{sample}:{len(lines)}: header line after the first event" in err


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


@pytest.mark.parametrize("damage", ["drop config_json", "config_json {oops",
                                    "config_json {}", "extra_json {oops", "extra_json 3",
                                    "edge [0, 99]", "edge [-1, 2]", "file text", "file npy",
                                    "file first-half", "file corrupted-compressed"])
def test_eval_malformed_checkpoint_is_data_error(damage, train_dir, synth_dir, tmp_path, capsys):
    checkpoint = train_dir / "round01_model.npz"
    with np.load(checkpoint, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    action, value = damage.split(" ", 1)
    damaged = tmp_path / "damaged.npz"
    if action == "file":
        if value == "text":
            damaged.write_text("round 1\n")
        elif value == "npy":
            with open(damaged, "wb") as fh:   # an .npy array under an .npz name
                np.save(fh, blobs["param/fc1.b"])
        elif value == "first-half":
            data = checkpoint.read_bytes()
            damaged.write_bytes(data[:len(data) // 2])
        else:   # garble the deflate stream of config_json, the first member read
            np.savez_compressed(damaged, **blobs)
            with zipfile.ZipFile(damaged) as archive:
                info = archive.getinfo("config_json.npy")
            data = bytearray(damaged.read_bytes())
            name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
            start = info.header_offset + 30 + name_len + extra_len + info.compress_size // 4
            for i in range(start, start + info.compress_size // 4):
                data[i] ^= 0x55
            damaged.write_bytes(data)
    else:
        if action == "drop":
            del blobs[value]
        elif action == "edge":
            doc = json.loads(str(blobs["config_json"]))
            doc["graph"]["edges"].append(json.loads(value))
            blobs["config_json"] = np.array(json.dumps(doc))
        else:
            blobs[action] = np.array(value)
        np.savez(damaged, **blobs)
    code, _, err = run(capsys, "eval", "--checkpoint", str(damaged),
                       "--manifest", str(synth_dir / "manifest.txt"))
    assert code == 2
    assert err.startswith("data error:") and str(damaged) in err


def test_eval_checkpoint_with_stored_voting_matrix_loads_the_same(train_dir, synth_dir,
                                                                   tmp_path, capsys):
    """Older checkpoints also hold the voting matrix; it loads as the derived one and scores alike."""
    checkpoint = train_dir / "round01_model.npz"
    with np.load(checkpoint, allow_pickle=False) as zf:
        blobs = {k: zf[k] for k in zf.files}
    assert "voting" not in blobs
    model, _ = load_model(checkpoint)
    older = tmp_path / "older.npz"
    np.savez(older, **blobs, voting=voting_matrix(model.config.num_classes,
                                                  model.config.num_output_neurons))
    assert load_model(older)[0].voting.tobytes() == model.voting.tobytes()
    outputs = []
    for ckpt in (checkpoint, older):
        out_dir = tmp_path / ckpt.stem
        code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--manifest",
                           str(synth_dir / "manifest.txt"), "--split", "all",
                           "--out-dir", str(out_dir))
        assert code == 0, err
        outputs.append({f.name.removeprefix(ckpt.stem): f.read_bytes()
                        for f in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2


def readme_blocks(lang):
    """The bodies of README's fenced code blocks of one language, indented ones included."""
    text = README.read_text()
    return [body for kind, body in re.findall(r"^ *```(\w*)\n(.*?)^ *```", text, re.M | re.S)
            if kind == lang]


def test_readme_commands_parse_and_config_loads(tmp_path):
    lines = [line.strip() for block in readme_blocks("bash")
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("taxelsnn ")]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])   # a bad flag or value raises
    (config,) = readme_blocks("ini")
    path = tmp_path / "run.cfg"
    path.write_text(config)
    cfg = load_run_config(path)
    assert (cfg.method, cfg.sigma_d, cfg.out_dir) == ("mst", 2.0, "runs/mst2")


def test_help_exits_zero(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    assert "graph" in stdout and "synth" in stdout


def test_import_loads_no_process_pool():
    # only run_rounds needs them; eval never does
    probe = ("import sys, taxelsnn.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
