import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from taxelsnn import (DataFormatError, EventStream, bin_events, generate_synthetic,
                      load_manifest, load_samples, write_event_file, write_manifest)
from taxelsnn.datasets import DatasetManifest, _assign_taxel_clusters


def read_tree_bytes(root):
    """Relative path -> content for every file under root."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def count_oracle_accuracy(dataset, train_frac=0.5):
    """Nearest-mean classifier on per-(taxel, channel) spike counts."""
    by_class = {}
    for spikes, label in dataset:
        by_class.setdefault(label, []).append(spikes.sum(axis=0).ravel())
    means = {}
    tests = []
    for label, feats in by_class.items():
        cut = max(1, int(len(feats) * train_frac))
        means[label] = np.mean(feats[:cut], axis=0)
        tests.extend((f, label) for f in feats[cut:])
    correct = 0
    for feat, label in tests:
        pred = min(means, key=lambda c: float(np.sum((feat - means[c]) ** 2)))
        correct += pred == label
    return correct / len(tests)


def test_generate_counts_and_manifest(tmp_path, layout10):
    manifest = generate_synthetic(tmp_path, layout10, num_classes=4,
                                  samples_per_class=5, duration=0.5, seed=0)
    assert len(manifest.entries) == 20
    assert manifest.num_classes == 4
    assert manifest.num_taxels == 10
    reloaded = load_manifest(tmp_path / "manifest.txt")
    assert len(reloaded.entries) == 20
    assert reloaded.class_names == manifest.class_names


def test_generate_deterministic_bytes(tmp_path, layout10):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_synthetic(a, layout10, num_classes=3, samples_per_class=4,
                       duration=0.5, seed=9)
    generate_synthetic(b, layout10, num_classes=3, samples_per_class=4,
                       duration=0.5, seed=9)
    assert read_tree_bytes(a) == read_tree_bytes(b)
    c = tmp_path / "c"
    generate_synthetic(c, layout10, num_classes=3, samples_per_class=4,
                       duration=0.5, seed=10)
    assert read_tree_bytes(a) != read_tree_bytes(c)


def test_zero_noise_templates_are_disjoint_and_separable(tmp_path, layout10):
    manifest = generate_synthetic(tmp_path, layout10, num_classes=4,
                                  samples_per_class=10, duration=1.0,
                                  noise_rate=0.0, seed=3)
    dataset = load_samples(manifest)
    # per-class active taxel sets never overlap
    active = {}
    for spikes, label in dataset:
        active.setdefault(label, set()).update(np.nonzero(spikes.sum(axis=(0, 2)))[0])
    for a in active:
        for b in active:
            if a != b:
                assert not (active[a] & active[b])
    # count-based nearest-template oracle is perfect on disjoint templates
    assert count_oracle_accuracy(dataset) == 1.0
    # per-class mean count vectors pairwise distinct
    means = {label: np.mean([t.sum(axis=0).ravel()
                             for t, lbl in dataset if lbl == label], axis=0)
             for label in active}
    for a in means:
        for b in means:
            if a != b:
                assert not np.allclose(means[a], means[b])


def test_cluster_assignment_partitions_taxels(layout10):
    rng = np.random.default_rng(0)
    clusters = _assign_taxel_clusters(layout10, 3, rng)
    flat = [t for cluster in clusters for t in cluster]
    assert sorted(flat) == list(range(10))
    assert [len(c) for c in clusters] == [4, 3, 3]


def test_generate_validation(tmp_path, layout10):
    with pytest.raises(ValueError, match="num_classes"):
        generate_synthetic(tmp_path, layout10, num_classes=1)
    with pytest.raises(ValueError, match="taxel"):
        generate_synthetic(tmp_path, layout10, num_classes=11)


def test_generate_rejects_negative_seed_before_writing(tmp_path, layout10):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
        generate_synthetic(out, layout10, seed=-1)
    assert not out.exists()


def test_load_samples_pads_to_common_length(tmp_path):
    # 0.5 s and 0.3 s recordings at 0.02 s bins: 25 and 15 steps
    short = EventStream(np.array([0.0, 0.15, 0.3]), np.array([0, 1, 2]), np.array([0, 1, 0]),
                        duration=0.3, num_taxels=3, num_channels=2)
    long = EventStream(np.array([0.1, 0.5]), np.array([2, 0]), np.array([1, 1]),
                       duration=0.5, num_taxels=3, num_channels=2)
    write_event_file(long, tmp_path / "long.events")
    write_event_file(short, tmp_path / "short.events")
    manifest = DatasetManifest(entries=((tmp_path / "long.events", 0),
                                        (tmp_path / "short.events", 1)),
                               class_names=("a", "b"), num_taxels=3, num_channels=2,
                               bin_width=0.02)
    dataset = load_samples(manifest)
    for spikes, _ in dataset:
        assert spikes.dtype == np.uint8 and spikes.shape == (25, 3, 2)
        assert not spikes.flags.writeable
    np.testing.assert_array_equal(dataset[0][0], bin_events(long, 0.02))
    padded = dataset[1][0]
    np.testing.assert_array_equal(padded[:15], bin_events(short, 0.02))
    assert padded[15:].sum() == 0
    assert padded[14, 2, 0] == 1   # the event at exactly 0.3 s: the short stream's own last bin


@pytest.mark.parametrize("noise_rate, digest", [
    (0.0, "146daec69677a5566ea93e0c010e57924c0c47bce2212b11f645ecd64aefb52f"),
    (8.0, "a53b9fdf6952e9ca331fa6828cd8f20db720b398fbfced809e2e0e68930cab4d")])
def test_generate_synthetic_bytes_are_pinned(tmp_path, layout10, noise_rate, digest):
    # the acceptance thresholds were set on this generator's data: a changed draw order
    # passes test_generate_deterministic_bytes but changes these digests
    generate_synthetic(tmp_path, layout10, num_classes=3, samples_per_class=4,
                       duration=0.5, noise_rate=noise_rate, seed=9)
    tree = hashlib.sha256()
    for rel, data in read_tree_bytes(tmp_path).items():
        tree.update(rel.encode() + b"\0" + data)
    assert tree.hexdigest() == digest


def test_load_samples_loads_and_bins_each_entry_once_by_module_name(tmp_path, layout10,
                                                                   monkeypatch):
    # the benchmark's tracer rebinds these two names in datasets to time the loader
    from taxelsnn import datasets
    manifest = generate_synthetic(tmp_path, layout10, num_classes=2, samples_per_class=3,
                                  duration=0.2, seed=0)
    calls = {"load_event_file": [], "bin_events": []}
    for name, seen in calls.items():
        def counted(first, *args, _original=getattr(datasets, name), _seen=seen):
            _seen.append(first)
            return _original(first, *args)
        monkeypatch.setattr(datasets, name, counted)
    dataset = load_samples(manifest)
    assert calls["load_event_file"] == [path for path, _ in manifest.entries]
    assert len(calls["bin_events"]) == len(dataset) == len(manifest.entries)


def test_manifest_missing_sample_file(tmp_path):
    (tmp_path / "manifest.txt").write_text(
        "taxels 2\nchannels 1\nbin_width 0.02\nclasses a b\n"
        "nope.events 0\nnope.events 1\n")
    with pytest.raises(DataFormatError, match="nope.events"):
        load_manifest(tmp_path / "manifest.txt")


def test_manifest_rejects_sparse_labels(tmp_path):
    sample = tmp_path / "s.events"
    sample.write_text("taxels 2\nchannels 1\nduration 0.1\n")
    (tmp_path / "manifest.txt").write_text(
        "taxels 2\nchannels 1\nbin_width 0.02\nclasses a b c\n"
        "s.events 0\ns.events 2\n")
    with pytest.raises(DataFormatError, match="dense"):
        load_manifest(tmp_path / "manifest.txt")


def test_manifest_missing_header(tmp_path):
    (tmp_path / "manifest.txt").write_text("taxels 2\nclasses a b\n")
    with pytest.raises(DataFormatError, match="missing header"):
        load_manifest(tmp_path / "manifest.txt")


@pytest.mark.parametrize("bad", ["taxels", "taxels ten", "bin_width x", "bin_width 0",
                                 "bin_width -0.02", "bin_width nan", "bin_width inf",
                                 "taxels 39.7"])
def test_manifest_bad_header_value_names_file_and_line(tmp_path, bad):
    key = bad.split()[0]
    good = ["# header", "taxels 2", "channels 1", "bin_width 0.02", "classes a b"]
    lines = [bad if line.split()[0] == key else line for line in good]
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=rf"manifest\.txt:{lines.index(bad) + 1}: .*{key}"):
        load_manifest(tmp_path / "manifest.txt")


@pytest.mark.parametrize("late", ["bin_width 0.5", "classes p q", "taxels 7 # again"])
def test_manifest_header_line_after_an_entry_names_the_line(tmp_path, late):
    # a late header line would change the header under the entries already read
    (tmp_path / "s.events").write_text("taxels 2\nchannels 1\nduration 0.1\n")
    path = tmp_path / "late.txt"
    path.write_text("taxels 2\nchannels 1\nbin_width 0.02\nclasses x y\n"
                    f"s.events 0\ns.events 1\n{late}\n")
    with pytest.raises(DataFormatError, match=r"late\.txt:7: header line after the first entry$"):
        load_manifest(path)


@pytest.mark.parametrize("classes", ["classes a a", "classes a", "classes", "classes a b a"])
def test_manifest_needs_two_or_more_classes_each_named_once(tmp_path, classes):
    path = tmp_path / "classes.txt"
    path.write_text(f"taxels 2\nchannels 1\nbin_width 0.02\n{classes}\n")
    with pytest.raises(DataFormatError, match=rf"classes\.txt:4: classes needs two or more "
                                              rf"names, each once; got '{classes}'$"):
        load_manifest(path)


def test_manifest_header_key_given_twice_names_the_line(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("taxels 2\nchannels 1\nbin_width 0.02\nbin_width 0.5\nclasses x y\n")
    with pytest.raises(DataFormatError, match=r"twice\.txt:4: duplicate header line 'bin_width'$"):
        load_manifest(path)


def test_manifest_round_trip(tmp_path):
    sample = tmp_path / "s0.events"
    sample.write_text("taxels 2\nchannels 1\nduration 0.1\n0.05 0 0\n")
    manifest = DatasetManifest(entries=((sample, 0), (sample, 1)),
                               class_names=("a", "b"), num_taxels=2,
                               num_channels=1, bin_width=0.02)
    write_manifest(manifest, tmp_path / "m.txt")
    back = load_manifest(tmp_path / "m.txt")
    assert back.class_names == ("a", "b")
    assert [lbl for _, lbl in back.entries] == [0, 1]
    assert back.bin_width == 0.02


@pytest.mark.parametrize("sample, classes, message", [
    ("my data/s0.events", ("a", "b"), "sample path 'my data/s0.events'"),
    ("x#1.events", ("a", "b"), "sample path 'x#1.events'"),
    ("s0.events", ("a", "b c"), "class name 'b c'"),
    ("s0.events", ("a#x", "b"), "class name 'a#x'")],
    ids=["path-space", "path-hash", "class-space", "class-hash"])
def test_write_manifest_refuses_what_load_manifest_cannot_read(sample, classes, message,
                                                               tmp_path):
    manifest = DatasetManifest(entries=((tmp_path / sample, 0), (tmp_path / sample, 1)),
                               class_names=classes, num_taxels=2, num_channels=1, bin_width=0.02)
    with pytest.raises(ValueError, match=re.escape(f"{message} is empty or holds whitespace")):
        write_manifest(manifest, tmp_path / "m.txt")
    assert list(tmp_path.iterdir()) == []   # refused before anything is written


def test_sample_header_must_match_manifest(tmp_path):
    sample = tmp_path / "s0.events"
    sample.write_text("taxels 3\nchannels 1\nduration 0.1\n")
    (tmp_path / "m.txt").write_text(
        "taxels 2\nchannels 1\nbin_width 0.02\nclasses a b\n"
        "s0.events 0\ns0.events 1\n")
    manifest = load_manifest(tmp_path / "m.txt")
    with pytest.raises(DataFormatError, match="declares 3 taxels"):
        load_samples(manifest)
