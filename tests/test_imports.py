"""Every name a polyminors module imports is used in that module.

The one exception is a tracer seam: a name that perfbench/tracer.py's LAYERS
patches on the module, which must stay importable there even when unused.
"""

import ast
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
