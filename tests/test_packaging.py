"""Packaging: the third-party modules the package imports are exactly its
declared runtime dependencies, the kernel module stands alone, every
definition is used, and the benchmark's hooks into the package resolve."""

import ast
import importlib
import inspect
import os
import re
import sys

import pytest

from oracles import run_config

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def declared_and_imported():
    """The declared runtime dependencies and the third-party modules the
    package imports, both as top-level module names."""
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = imported_top_level_modules(os.path.join(ROOT, "src", project["name"]))
    return declared, imported - set(sys.stdlib_module_names) - {project["name"]}


def test_every_third_party_import_is_a_declared_dependency():
    declared, third_party = declared_and_imported()
    assert third_party, "the scan found no third-party import"
    assert third_party <= declared, sorted(third_party - declared)


def test_every_declared_dependency_is_imported():
    # a dependency the package no longer imports (scipy, now a test extra)
    # does not linger in `dependencies`
    declared, third_party = declared_and_imported()
    assert declared <= third_party, sorted(declared - third_party)


def test_kernels_import_no_other_cumlab_module():
    # the hot loops take everything they need as arguments, so they can be
    # replaced or stacked without the rest of the package
    with open(os.path.join(ROOT, "src", "cumlab", "_kernels.py")) as fh:
        tree = ast.parse(fh.read())
    inside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            inside += [a.name for a in node.names if a.name.split(".")[0] == "cumlab"]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "cumlab":
                inside.append("." * node.level + (node.module or ""))
    assert not inside, inside


def unreferenced_definitions(package_dir):
    """`module.name` of each top-level function, class or assigned non-dunder name and each
    non-dunder method under `package_dir` whose name no Name or Attribute node outside its
    own definition reads."""
    trees = {}
    for file in sorted(os.listdir(package_dir)):
        if file.endswith(".py"):
            with open(os.path.join(package_dir, file)) as fh:
                trees[file[:-3]] = ast.parse(fh.read(), file)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = []  # (module, name, its definition node)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                defs.append((module, node.name, node))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(module, n.id, node) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and not n.id.startswith("__")]
            if isinstance(node, ast.ClassDef):
                defs += [(module, f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, kinds) and not item.name.startswith("__")]
    reads = [(id(n), n.id if isinstance(n, ast.Name) else n.attr)
             for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute))]
    found = []
    for module, name, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(read == name.split(".")[-1] and key not in inside for key, read in reads):
            found.append(f"{module}.{name}")
    return found


def test_every_definition_is_used_by_the_package():
    # code that only tests call moves into the tests or is deleted; the
    # dataset readers are the documented way to load what `generate` writes
    found = unreferenced_definitions(os.path.join(ROOT, "src", "cumlab"))
    assert found == ["datagen.read_csv", "datagen.read_binary"], found


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's tracer and readback modules, imported from its directory;
    sys.path and the modules imported from there are restored afterwards."""
    monkeypatch.syspath_prepend(PERFBENCH)
    before = set(sys.modules)
    try:
        yield importlib.import_module("tracer"), importlib.import_module("readback")
    finally:
        for name in set(sys.modules) - before:
            if os.path.dirname(getattr(sys.modules[name], "__file__", None) or "") == PERFBENCH:
                del sys.modules[name]


def test_perfbench_hooks_resolve(tmp_path, perfbench):
    # The benchmark's tracer wraps package functions by module and name, and
    # its work counters read their arguments by name.  Its own tests are not
    # part of this suite, so a rename here would break `--trace 1` unseen.
    tracer, readback = perfbench
    hooks = tracer.Tracer()
    hooks.install()
    hooks.uninstall()
    read = set()
    for _, module, attr, counter in tracer.TARGETS:
        if counter is None:
            continue
        keys = {node.slice.value for node in ast.walk(ast.parse(inspect.getsource(counter)))
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "a" and isinstance(node.slice, ast.Constant)}
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert keys <= set(inspect.signature(target).parameters), (attr, sorted(keys))
        read |= keys
    assert read, "the scan found no argument a counter reads"
    # the export read-back regenerates the dataset through the public API
    cfg = {"experiment": "generate", "seed": 3, "name": "pair", "n_per_class": 20,
           "format": "both", "model": {"kind": "spiked_cumulant", "d": 5, "beta": 10.0,
                                       "g": "rademacher"}}
    code, out = run_config(tmp_path / "out", cfg, "--jobs", "1")
    assert code == 0
    assert readback.check_export(out, cfg, readback.expected_dataset(cfg)) == []
