"""Command-line entry point: graph / synth / train / eval.

Runs are described by a flat ``key = value`` config file; any command-line
flag overrides the file. Exit codes: 0 success, 1 usage error, 2 data
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import generate_synthetic, load_manifest, load_samples
from .errors import DataFormatError, content_lines, read_lines, write_lines
from .graphs import METHODS, GraphSpec, build_graph
from .layout import load_layout, load_edge_list, radial_layout, save_edge_list, save_layout
from .lif import LifConfig
from .model import FEATURE_KINDS, NetworkConfig, load_model, save_model
# confusion_matrix is unused here, but the benchmark's tracer binds cli.confusion_matrix
from .training import (TrainConfig, evaluate, confusion_matrix, format_mean_std,
                       iter_rounds, stratified_split, summarize_rounds, write_confusion)


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
    # network, neurons and protocol: the library's own defaults
    feature: str = NetworkConfig.feature
    feature_width: int = NetworkConfig.feature_width
    hops: int = NetworkConfig.tagconv_hops
    fc_sizes: tuple[int, ...] = NetworkConfig.fc_sizes
    beta: float = LifConfig.beta
    u_threshold: float = LifConfig.u_threshold
    u_reset: float = LifConfig.u_reset
    surrogate_width: float = LifConfig.surrogate_width
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    rounds: int = TrainConfig.rounds
    split_fraction: float = TrainConfig.split_fraction
    seed: int = TrainConfig.seed


def layer_sizes(text: str) -> tuple[int, ...]:
    """Comma-separated integers such as '128,256'; ValueError on an empty or bad item."""
    return tuple(int(item) for item in text.split(","))


# each RunConfig field's parser: its default's type (str, int or float), or layer_sizes
_FIELD_TYPES = {f.name: layer_sizes if isinstance(f.default, tuple) else type(f.default)
                for f in dataclasses.fields(RunConfig)}

# the fields that take one of a fixed set of values, each read from the set's owner
_CHOICES = {"method": tuple(METHODS), "feature": FEATURE_KINDS}

# each method's GraphSpec parameter -> the run setting that gives it (manual: an edge file)
_GRAPH_SETTINGS = {p: p if p in _FIELD_TYPES else "edges" for p in METHODS.values()}
_GRAPH_FIELDS = ("method", *_GRAPH_SETTINGS.values())   # the graph command's flags

# synth flag -> generate_synthetic parameter; the parameter's default gives the value type
_SYNTH_FLAGS = {"--classes": "num_classes", "--samples-per-class": "samples_per_class",
                "--duration": "duration", "--bin-width": "bin_width",
                "--channels": "num_channels", "--noise-rate": "noise_rate", "--seed": "seed"}


def load_run_config(path) -> RunConfig:
    path = Path(path)
    values = {}
    for lineno, raw, _ in content_lines(read_lines(path)):
        line = raw.split("#", 1)[0]
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DataFormatError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise DataFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            parsed = _FIELD_TYPES[key](value)
            if key in _CHOICES and parsed not in _CHOICES[key]:
                raise ValueError
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
        values[key] = parsed
    return RunConfig(**values)


def _graph(layout, settings: RunConfig):
    """The spec of the graph that ``settings`` names, and that graph over ``layout``.

    The method's parameter and each graph setting off its ``RunConfig`` default reach
    ``GraphSpec``, which rejects one the method does not take. A manual graph's edges
    come from its edge file; an edge the layout cannot hold is a DataFormatError naming it.
    """
    wanted = METHODS[settings.method]
    given = {param: getattr(settings, name) for param, name in _GRAPH_SETTINGS.items()
             if param == wanted or getattr(settings, name) != getattr(RunConfig, name)}
    if wanted == "manual_edges":
        if not settings.edges:
            raise _UsageError("manual method needs an edge file (--edges)")
        given["manual_edges"] = tuple(load_edge_list(settings.edges))
    spec = GraphSpec(settings.method, **given)
    try:
        return spec, build_graph(layout, spec)
    except ValueError as exc:
        if wanted != "manual_edges":
            raise
        raise DataFormatError(f"{settings.edges}: {exc}") from None


def cmd_graph(args) -> int:
    spec, graph = _graph(load_layout(args.layout), _apply_overrides(RunConfig(), args))
    print(f"graph: {spec.describe()} nodes={graph.num_nodes} edges={graph.num_edges}")
    print(f"average degree: {graph.average_degree():.6f}")
    if spec.method == "knn":
        # undirected degree exceeds k after symmetrization; report both views
        print(f"selected neighbors per node: {spec.k}")
    if args.out:
        save_edge_list(graph.edges, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    layout = load_layout(args.layout) if args.layout else radial_layout()
    out_dir = Path(args.out)
    given = {name: getattr(args, name) for name in _SYNTH_FLAGS.values()
             if getattr(args, name) is not None}
    manifest = generate_synthetic(out_dir, layout, **given)   # checks its values before writing
    save_layout(layout, out_dir / "layout.txt")
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


def _owned(cfg: RunConfig, owner) -> dict:
    """``cfg``'s values of the fields that the dataclass ``owner`` declares under the same name."""
    names = {f.name for f in dataclasses.fields(owner)}
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in names}


def cmd_train(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    cfg = _apply_overrides(cfg, args)
    if not cfg.layout or not cfg.manifest:
        raise _UsageError("train needs both a layout and a manifest "
                          "(config keys or --layout/--manifest)")
    lif = LifConfig(**_owned(cfg, LifConfig))   # the checks that need no file come first
    train_cfg = TrainConfig(**_owned(cfg, TrainConfig))
    layout = load_layout(cfg.layout)
    manifest = load_manifest(cfg.manifest)
    if layout.num_taxels != manifest.num_taxels:
        raise DataFormatError(
            f"layout has {layout.num_taxels} taxels but manifest declares "
            f"{manifest.num_taxels}")
    _, graph = _graph(layout, cfg)
    net_config = NetworkConfig(graph=graph, num_classes=manifest.num_classes,
                               num_channels=manifest.num_channels, tagconv_hops=cfg.hops,
                               lif=lif, **_owned(cfg, NetworkConfig))
    try:   # the split that every round draws
        stratified_split(manifest.labels, train_cfg.split_fraction, train_cfg.seed)
    except ValueError as exc:
        raise DataFormatError(f"{cfg.manifest}: {exc}") from None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []   # each round is written as it arrives; closing stops the rest at an error
    with closing(iter_rounds(load_samples(manifest), net_config, train_cfg)) as rounds:
        for r, result in rounds:   # files and output count rounds from 1
            results.append(result)
            write_lines(out_dir / f"round{r + 1:02d}_metrics.csv", result.metrics.csv_lines())
            extra = {
                "round": r + 1,
                "seed": train_cfg.seed,
                "manifest_entries": len(manifest.entries),
                "test_indices": [int(i) for i in result.test_indices],
                "final_accuracy": result.metrics.final_accuracy,
            }
            save_model(result.model, out_dir / f"round{r + 1:02d}_model.npz", extra=extra)
            print(f"round {r + 1}: final test accuracy {result.metrics.final_accuracy:.4f}")
    mean, std = summarize_rounds(results)
    print(f"mean (std) final accuracy: {format_mean_std(mean, std)}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    model, extra = load_model(args.checkpoint)
    manifest = load_manifest(args.manifest)
    for what, have, want in (("taxels", manifest.num_taxels, model.config.graph.num_nodes),
                             ("classes", manifest.num_classes, model.config.num_classes),
                             ("channels", manifest.num_channels, model.config.num_channels)):
        if have != want:
            raise DataFormatError(f"manifest has {have} {what}, the checkpoint expects {want}")
    count = len(manifest.entries)
    if args.split == "test":
        if "test_indices" not in extra:
            raise DataFormatError("checkpoint carries no test split; rerun with --split all")
        if extra.get("manifest_entries") != count:
            raise DataFormatError(
                f"checkpoint was trained on a manifest with "
                f"{extra.get('manifest_entries')} entries, this one has {count}")
        indices = extra["test_indices"]
        if not (isinstance(indices, list) and indices and all(type(i) is int for i in indices)
                and len(set(indices).intersection(range(count))) == len(indices)):
            raise DataFormatError(f"checkpoint {args.checkpoint}: test_indices must be "
                                  f"one or more distinct ints in 0..{count - 1}")
    else:
        indices = range(count)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_samples(manifest)
    samples = [dataset[i][0] for i in indices]
    labels = [dataset[i][1] for i in indices]
    loss, acc, _, cm = evaluate(model, samples, labels)
    stem = Path(args.checkpoint).stem
    write_lines(out_dir / f"{stem}_accuracy.txt",
                [f"samples {len(samples)}", f"loss {loss!r}", f"accuracy {acc!r}"])
    write_confusion(cm, manifest.class_names, out_dir / f"{stem}_confusion.txt")
    print(f"samples: {len(samples)}  loss: {loss:.6f}  accuracy: {acc:.6f}")
    print(f"wrote {out_dir / f'{stem}_accuracy.txt'}")
    return 0


def _add_run_flags(parser, names) -> None:
    """One flag per named RunConfig field; an unset flag (None) leaves the field's value."""
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=_FIELD_TYPES[name],
                            choices=_CHOICES.get(name), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="taxelsnn",
                     description="Spiking graph networks for event-based tactile recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a tactile graph and report its degree structure")
    p.add_argument("--layout", required=True)
    _add_run_flags(p, _GRAPH_FIELDS)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("synth", help="generate a labeled synthetic event dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--layout", default="")
    synth_params = inspect.signature(generate_synthetic).parameters
    for flag, name in _SYNTH_FLAGS.items():
        p.add_argument(flag, dest=name, type=type(synth_params[name].default), default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train over one or more rounds and write checkpoints")
    p.add_argument("--config", default="")
    _add_run_flags(p, _FIELD_TYPES)
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
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
