"""The package's boundaries.

numpy stays the only runtime dependency: the package imports the stdlib,
numpy and itself. Only ``errors.py`` writes files, so each appears whole.
And every package name that the benchmark's traced run rebinds, or that
its workloads call, exists, so a rename in the package cannot break a
benchmark run unnoticed.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import taxelsnn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "taxelsnn"}


def imported_modules(tree: ast.AST):
    """Top-level names of the absolute imports anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_training_leaves_layer_math_to_the_model():
    # model.layer_grads forms every layer's gradients; training.py indexes no weight by name
    tree = ast.parse((Path(taxelsnn.__file__).parent / "training.py").read_text())
    subscripts = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "params"]
    imports = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name in ("weight_name", "weight_grad")]
    assert subscripts == [] and imports == []


WRITE_CALLS = {"write_text", "write_bytes", "replace"}   # Path writes, os.replace


def file_writes(tree: ast.AST):
    """The calls in a module that write a file other than through an open handle."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":   # open(path, mode) or path.open(mode)
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
                   for m in modes):
                yield ast.unparse(node)
        elif name in WRITE_CALLS and isinstance(func, ast.Attribute) and (
                name != "replace" or ast.unparse(func.value) == "os"):
            yield ast.unparse(node)


def test_only_errors_writes_files():
    # errors.replacing writes every file whole; the other modules write through it
    writes = {path.name: sorted(file_writes(ast.parse(path.read_text())))
              for path in sorted(Path(taxelsnn.__file__).parent.glob("*.py"))}
    assert writes.pop("errors.py") == ["open(tmp, mode)", "os.replace(tmp, path)"]
    assert {name: calls for name, calls in writes.items() if calls} == {}


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(Path(taxelsnn.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = sorted(f"{path.name}: {name}" for path in sources
                     for name in imported_modules(ast.parse(path.read_text()))
                     if name not in ALLOWED)
    assert foreign == []


def missing(names) -> list[str]:
    """The (module, attr) pairs that taxelsnn.<module> lacks, spelled out."""
    return sorted(f"taxelsnn.{module}.{attr}" for module, attr in names
                  if not hasattr(importlib.import_module(f"taxelsnn.{module}"), attr))


def test_traced_bindings_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [(module, attr) for module, attr, _, _ in tracing.BINDINGS] + [("model", "np")]
    assert len(bindings) > 20
    assert missing(bindings) == []


def package_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) of each ``<module>.<name>`` read from a package module the file imports."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "taxelsnn"
               for alias in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_benchmark_workload_names_resolve_in_the_package():
    # the untraced workloads call these; checks.py is left out, where `model` also names a Model
    reads = package_reads(PERFBENCH / "workloads.py") | package_reads(PERFBENCH / "run.py")
    assert len(reads) >= 17
    assert missing(reads) == []

