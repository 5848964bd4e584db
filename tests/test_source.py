"""Checks over the package's own source, standing in for a linter."""

import argparse
import ast
import re
from pathlib import Path

from syngcn.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "syngcn"


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


def test_readme_names_only_flags_the_cli_has():
    # Install and Tests hold pip's and pytest's flags, not the CLI's.
    sections = re.split(r"^(?=## )", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.MULTILINE)
    named = {flag for section in sections if not section.startswith(("## Install", "## Tests"))
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", section)}
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {option for sub in subcommands.values() for action in sub._actions for option in action.option_strings}
    assert "--set" in named and "--checkpoint" in named
    assert sorted(named - options) == []
