"""No dead imports in the package: every name a module imports is used.

No linter is a dependency, so the check parses each module with ``ast``.
``__init__.py`` is skipped because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sllbar"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .grid import Grid, analyze\n"
              "def f(g: Grid):\n"
              "    return np.zeros(3)\n")
    assert unused_imports(source) == ["analyze (line 3)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((PACKAGE / name).read_text()) == []
