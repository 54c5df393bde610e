"""Packaging: every third-party module the package imports is declared."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def imported_top_level_modules(package_dir):
    """Top-level names of every absolute import in the package's sources,
    lazy imports inside functions included."""
    names = set()
    for dirpath, _, files in os.walk(package_dir):
        for file in files:
            if not file.endswith(".py"):
                continue
            with open(os.path.join(dirpath, file)) as fh:
                tree = ast.parse(fh.read(), file)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = imported_top_level_modules(os.path.join(ROOT, "src", project["name"]))
    third_party = imported - set(sys.stdlib_module_names) - {project["name"]}
    assert third_party, "the scan found no third-party import"
    assert third_party <= declared, sorted(third_party - declared)
