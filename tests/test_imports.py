"""Every name a covis module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "covis"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    """Imported names the module never reads, unless their import line says noqa: F401."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path) == []
