"""Source hygiene of the package and its tests, checked with the standard library's ast."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list:
    """'<file>:<line>: <name>' for each imported name the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # the package's __init__.py imports to re-export, so its names are read
    # by importers
    package = sorted(p for p in (ROOT / "src" / "nsfsim").glob("*.py") if p.name != "__init__.py")
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert package and tests
    unused = [entry for path in package + tests for entry in _unused_imports(path)]
    assert unused == []
