"""Public API bookkeeping: every exported name exists, and the package
re-exports only names its modules declare public."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import partwarp

MODULES = ["geom", "registration", "shapemodel", "transfer", "synth", "evaluation", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"partwarp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(partwarp.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        public = set(importlib.import_module(f"partwarp.{node.module}").__all__)
        private = [alias.name for alias in node.names if alias.name not in public]
        assert private == [], f"partwarp.{node.module}"
