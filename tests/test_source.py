"""Checks over the package's own source, standing in for a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "syngcn"


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports at module level and never reads (``__future__`` imports aside)."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                for alias in node.names}
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_every_module_level_import_is_used():
    sample = ("from __future__ import annotations\nimport a, b as c\nimport d.e\nfrom . import f\nfrom g import h, i\n"
              "def k(x: h) -> None:\n    import m\n    c.n(d.e, x)\n")
    assert unused_imports(sample) == ["a", "f", "i"]
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
