"""Every name a polyminors module imports is used in that module, and every
private helper is referenced outside its own body.

The one exception to the first rule is a tracer seam: a name that perfbench/tracer.py's LAYERS
patches on the module, which must stay importable there even when unused.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyminors"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def tracer_seams() -> dict:
    """{module name: names that LAYERS patches on it}."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [layers] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    seams = {}
    for name, owners in ast.literal_eval(layers).items():
        for owner in owners:
            seams.setdefault(owner, set()).add(name.split(".")[1])
    return seams


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == {"os", "c"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    seams = tracer_seams().get(path.stem, set())
    assert unused_imports(path.read_text()) - seams == set()


def private_helpers(tree) -> list:
    """Module-level _private functions and _private methods of module-level classes."""
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [item for item in node.body if isinstance(item, ast.FunctionDef)]
    return [node for node in defs if node.name.startswith("_") and not node.name.endswith("__")]


def referenced_names(tree) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_helpers(sources: dict) -> set:
    """module.name of every private helper referenced nowhere outside its own body."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in private_helpers(tree)
        if everywhere[node.name] == referenced_names(node)[node.name]
    }


def test_the_scan_sees_an_unreferenced_helper():
    sources = {
        "a": "def _used(): pass\ndef _recursive(n): return _recursive(n - 1)\n"
             "class C:\n    def __init__(self): self._m()\n    def _m(self): pass\n    def _dead(self): pass\n",
        "b": "from a import _used\n_used()\n",
    }
    assert unreferenced_helpers(sources) == {"a._recursive", "a._dead"}


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == set()
