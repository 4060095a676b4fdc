"""Benchmark of the taxelsnn training and evaluation protocol.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). The parent process writes the workload's seeded inputs under
``.perfbench/``, runs the workload in a worker process of its own, checks the
outputs and prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
# One BLAS thread: numpy's default of one per core oversubscribes a small box
# and makes timings depend on whatever else runs beside the benchmark.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0
WORKLOADS = ("paper-train", "paper-eval", "desk-protocol")
# per-workload stream of the input generator, so seed n differs across workloads
STREAM = {name: i for i, name in enumerate(WORKLOADS)}
EVAL_SPIKE_SUBSET = 8            # paper-eval samples whose spike counts are compared
CHECKPOINT_SCALING_SAMPLES = 8   # samples that scale the paper-eval checkpoint's layers


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", default="", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(name: str, seed: int, work: Path, root: Path) -> dict:
    """Write the workload's inputs; returns what the checks need."""
    import numpy as np
    import inputs
    import reference
    from taxelsnn import graphs, layout, model
    from workloads import GRAPH

    rng = np.random.default_rng([seed, STREAM[name]])
    paper_positions = inputs.read_positions(root / "data" / "taxels39.txt")
    if name == "paper-train":
        spec = inputs.DataSpec(classes=36, samples_per_class=4, duration=5.0, noise_rate=2.0)
        data = inputs.write_dataset(work, paper_positions, spec, rng)
    elif name == "desk-protocol":
        spec = inputs.DataSpec(classes=4, samples_per_class=20, duration=1.0, noise_rate=10.0)
        data = inputs.write_dataset(work, inputs.ring_positions(), spec, rng)
    else:
        spec = inputs.DataSpec(classes=36, samples_per_class=6, duration=5.0, noise_rate=2.0)
        data = inputs.write_dataset(work, paper_positions, spec, rng)
        graph = graphs.build_graph(layout.load_layout(data.layout), GRAPH)
        net = model.NetworkConfig(graph=graph, num_classes=spec.classes,
                                  num_channels=spec.channels)
        config = {"graph": {"num_nodes": graph.num_nodes, "edges": graph.edges},
                  "num_classes": net.num_classes, "num_channels": net.num_channels,
                  "feature": net.feature, "tagconv_hops": net.tagconv_hops,
                  "feature_width": net.feature_width, "fc_sizes": list(net.fc_sizes),
                  "lif": {"beta": net.lif.beta, "u_threshold": net.lif.u_threshold,
                          "u_reset": net.lif.u_reset}}
        picks = rng.choice(len(data.samples), size=CHECKPOINT_SCALING_SAMPLES, replace=False)
        params = inputs.draw_params(config, [data.samples[i] for i in picks], rng)
        voting = reference.block_voting(net.num_classes, net.num_output_neurons)
        model.save_model(model.Model(net, params, voting), work / "model.npz")
    return {"data": data, "density": float(np.mean([s.mean() for s in data.samples])),
            "rng": rng}


def check(name: str, prepared: dict, result: dict, work: Path) -> tuple[list[str], dict]:
    """Output checks for the successful operations; returns problems and facts."""
    import numpy as np
    import checks
    import taxelsnn
    from taxelsnn import model

    outputs = [op["outputs"] for op in result["ops"] if op["ok"]]
    data = prepared["data"]
    facts = {}
    if name == "paper-train":
        problems = checks.paper_train(outputs)
        facts["final_test_accuracy"] = min((o["test_accuracy"][-1] for o in outputs),
                                           default=None)
    elif name == "desk-protocol":
        problems = checks.desk_protocol(outputs)
        facts["worst_best_round_accuracy"] = min(
            (max(r["test_accuracy"]) for o in outputs for rs in o.values() for r in rs),
            default=None)
        grad_problems, facts["gradient_share_of_tolerance"] = checks.gradient_check(taxelsnn)
        problems += grad_problems
    else:
        checkpoint = work / "model.npz"
        results = checks.reference_run(checkpoint, data.samples)
        problems = checks.paper_eval([Path(o["out_dir"]) for o in outputs], results,
                                     data.labels)
        subset = prepared["rng"].choice(len(data.samples), size=EVAL_SPIKE_SUBSET,
                                        replace=False)
        spike_problems, facts["spike_flips_admitted"] = checks.spike_counts(
            checkpoint, [data.samples[i] for i in subset], [results[i] for i in subset], model)
        problems += spike_problems
        facts["reference_accuracy"] = float(np.mean(
            [r.prediction == label for r, label in zip(results, data.labels)]))
    return problems, facts


def samples_per_s(ops: list[dict], traced: bool) -> float:
    """Samples per second over the successful operations of one kind."""
    done = [op for op in ops if op["ok"] and op["traced"] == traced]
    seconds = sum(op["seconds"] for op in done)
    return sum(op["samples"] for op in done) / seconds if seconds else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "taxelsnn" / "__init__.py").is_file() or \
            not (root / "data" / "taxels39.txt").is_file():
        print("perfbench: run from the root of a taxelsnn checkout "
              "(src/taxelsnn and data/taxels39.txt not found)", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(HERE), str(root / "src")]
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}"

    if args.worker:
        import workloads
        result = workloads.run(args.workload, work, args.seed, args.seconds, bool(args.trace))
        (work / "worker.json").write_text(json.dumps(result))
        return 0

    started = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepared = prepare(args.workload, args.seed, work, root)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--worker", "1"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, cwd=root,
                              timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - started)))
    except subprocess.TimeoutExpired:
        print("perfbench: worker did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "worker.json").read_text())

    problems, facts = check(args.workload, prepared, result, work)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    ops = result["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    untraced = samples_per_s(ops, traced=False)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        traced = samples_per_s(ops, traced=True)
        metrics["trace.overhead_frac"] = {
            "value": 1.0 - traced / untraced if untraced else 0.0, "unit": "fraction"}
        summary = {"calls": result["calls"], "self_time_s": result["self_time_s"],
                   "untraced_samples_per_s": untraced, "traced_samples_per_s": traced}
        (work / "trace_summary.json").write_text(json.dumps(summary, indent=1))
    else:
        setups = result["setup_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "samples_per_s": {"value": untraced, "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    facts.update(input_density=prepared["density"], input_events=prepared["data"].events,
                 operations=len(ops), wall_s=perf_counter() - started)
    print("perfbench: " + json.dumps(facts), file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
