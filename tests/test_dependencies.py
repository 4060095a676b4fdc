"""numpy stays the only runtime dependency: the package imports the stdlib, numpy and itself."""
import ast
import sys
from pathlib import Path

import taxelsnn

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "taxelsnn"}


def imported_modules(tree: ast.AST):
    """Top-level names of the absolute imports anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    sources = sorted(Path(taxelsnn.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = sorted(f"{path.name}: {name}" for path in sources
                     for name in imported_modules(ast.parse(path.read_text()))
                     if name not in ALLOWED)
    assert foreign == []
