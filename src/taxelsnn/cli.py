"""Command-line entry point: graph / synth / train / eval.

Runs are described by a flat ``key = value`` config file; any command-line
flag overrides the file. Exit codes: 0 success, 1 usage error, 2 data
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import generate_synthetic, load_manifest, load_samples
from .errors import DataFormatError
from .graphs import GraphSpec, build_graph, export_graph
from .layout import load_layout, load_edge_list, radial_layout, save_layout
from .lif import LifConfig
from .model import NetworkConfig, load_model, save_model
from .training import (TrainConfig, evaluate, confusion_matrix, format_mean_std,
                       run_rounds, summarize_rounds, write_confusion)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """One training run, loadable from a key=value file with CLI overrides."""

    layout: str = ""
    manifest: str = ""
    out_dir: str = "run"
    # graph construction
    method: str = "knn"
    k: int = 2
    sigma_d: float = 0.0
    edges: str = ""             # manual edge file
    # network
    feature: str = "tagconv"
    feature_width: int = 64
    hops: int = 2
    fc_sizes: str = "128,256"
    beta: float = 0.2
    u_threshold: float = 0.5
    u_reset: float = 0.0
    surrogate_width: float = 0.5
    # optimization protocol
    epochs: int = 100
    learning_rate: float = 1e-3
    rounds: int = 10
    split_fraction: float = 0.8
    seed: int = 0


# each RunConfig field's value type (str, int or float), read off its default
_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise DataFormatError(f"config file not found: {path}") from None
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DataFormatError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, _FIELD_TYPES[key](value))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return cfg


def _graph_spec_from(method, k, sigma_d, edges_path) -> GraphSpec:
    if method == "manual":
        if not edges_path:
            raise _UsageError("manual method needs an edge file (--edges)")
        return GraphSpec("manual", manual_edges=tuple(load_edge_list(edges_path)))
    if method == "knn":
        return GraphSpec("knn", k=k)
    if method == "mst":
        return GraphSpec("mst", sigma_d=sigma_d)
    raise _UsageError(f"unknown graph method {method!r}")


def cmd_graph(args) -> int:
    layout = load_layout(args.layout)
    spec = _graph_spec_from(args.method, args.k, args.sigma_d, args.edges)
    graph = build_graph(layout, spec)
    print(f"graph: {spec.describe()} nodes={graph.num_nodes} edges={graph.num_edges}")
    print(f"average degree: {graph.average_degree():.6f}")
    if spec.method == "knn":
        # undirected degree exceeds k after symmetrization; report both views
        print(f"selected neighbors per node: {spec.k}")
    if args.out:
        export_graph(graph, spec, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    if args.layout:
        layout = load_layout(args.layout)
    else:
        layout = radial_layout()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_layout(layout, out_dir / "layout.txt")
    manifest = generate_synthetic(
        out_dir, layout,
        num_classes=args.classes,
        samples_per_class=args.samples_per_class,
        duration=args.duration,
        bin_width=args.bin_width,
        num_channels=args.channels,
        noise_rate=args.noise_rate,
        seed=args.seed,
    )
    print(f"wrote {len(manifest.entries)} samples across {manifest.num_classes} classes "
          f"to {out_dir}")
    print(f"manifest: {out_dir / 'manifest.txt'}")
    return 0


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def cmd_train(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    cfg = _apply_overrides(cfg, args)
    if not cfg.layout or not cfg.manifest:
        raise _UsageError("train needs both a layout and a manifest "
                          "(config keys or --layout/--manifest)")
    layout = load_layout(cfg.layout)
    manifest = load_manifest(cfg.manifest)
    if layout.num_taxels != manifest.num_taxels:
        raise DataFormatError(
            f"layout has {layout.num_taxels} taxels but manifest declares "
            f"{manifest.num_taxels}")
    spec = _graph_spec_from(cfg.method, cfg.k, cfg.sigma_d, cfg.edges)
    graph = build_graph(layout, spec)
    fc_sizes = tuple(int(s) for s in cfg.fc_sizes.split(",") if s.strip())
    net_config = NetworkConfig(
        graph=graph,
        num_classes=manifest.num_classes,
        num_channels=manifest.num_channels,
        feature=cfg.feature,
        tagconv_hops=cfg.hops,
        feature_width=cfg.feature_width,
        fc_sizes=fc_sizes,
        lif=LifConfig(cfg.beta, cfg.u_threshold, cfg.u_reset, cfg.surrogate_width),
    )
    train_cfg = TrainConfig(
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        rounds=cfg.rounds,
        split_fraction=cfg.split_fraction,
        seed=cfg.seed,
    )
    dataset = load_samples(manifest)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = run_rounds(dataset, net_config, train_cfg)
    for r, result in enumerate(results, start=1):
        result.metrics.write_csv(out_dir / f"round{r:02d}_metrics.csv")
        extra = {
            "round": r,
            "seed": train_cfg.seed,
            "manifest_entries": len(manifest.entries),
            "test_indices": [int(i) for i in result.test_indices],
            "final_accuracy": result.metrics.final_accuracy,
        }
        save_model(result.model, out_dir / f"round{r:02d}_model.npz", extra=extra)
        print(f"round {r}: final test accuracy {result.metrics.final_accuracy:.4f}")
    mean, std = summarize_rounds(results)
    print(f"mean (std) final accuracy: {format_mean_std(mean, std)}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    model, extra = load_model(args.checkpoint)
    manifest = load_manifest(args.manifest)
    if manifest.num_taxels != model.config.graph.num_nodes:
        raise DataFormatError(
            f"manifest declares {manifest.num_taxels} taxels but the checkpoint's "
            f"graph has {model.config.graph.num_nodes} nodes")
    if manifest.num_classes != model.config.num_classes:
        raise DataFormatError(
            f"manifest has {manifest.num_classes} classes, checkpoint expects "
            f"{model.config.num_classes}")
    dataset = load_samples(manifest)
    if args.split == "test":
        if "test_indices" not in extra:
            raise DataFormatError("checkpoint carries no test split; rerun with --split all")
        if extra.get("manifest_entries") != len(dataset):
            raise DataFormatError(
                f"checkpoint was trained on a manifest with "
                f"{extra.get('manifest_entries')} entries, this one has {len(dataset)}")
        indices = extra["test_indices"]
    else:
        indices = range(len(dataset))
    samples = [dataset[i][0] for i in indices]
    labels = [dataset[i][1] for i in indices]
    loss, acc, preds = evaluate(model, samples, labels)
    cm = confusion_matrix(labels, preds, model.config.num_classes)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.checkpoint).stem
    (out_dir / f"{stem}_accuracy.txt").write_text(
        f"samples {len(samples)}\nloss {loss!r}\naccuracy {acc!r}\n")
    write_confusion(cm, manifest.class_names, out_dir / f"{stem}_confusion.txt")
    print(f"samples: {len(samples)}  loss: {loss:.6f}  accuracy: {acc:.6f}")
    print(f"wrote {out_dir / f'{stem}_accuracy.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taxelsnn",
                     description="Spiking graph networks for event-based tactile recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a tactile graph and report its degree structure")
    p.add_argument("--layout", required=True)
    p.add_argument("--method", default="knn", choices=["manual", "knn", "mst"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--sigma-d", dest="sigma_d", type=float, default=0.0)
    p.add_argument("--edges", default="")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("synth", help="generate a labeled synthetic event dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--layout", default="")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples-per-class", dest="samples_per_class", type=int, default=40)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--bin-width", dest="bin_width", type=float, default=0.02)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--noise-rate", dest="noise_rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train over one or more rounds and write checkpoints")
    p.add_argument("--config", default="")
    for name, kind in _FIELD_TYPES.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["test", "all"])
    p.add_argument("--out-dir", dest="out_dir", default="")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
