"""Every module-level import of the package's modules, demos and tests is
used, and every module-level private name of the package is read in it."""

import ast
from pathlib import Path

import pytest

import hardlogit

MODULES = sorted(p for p in Path(hardlogit.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that
    no expression of it reads (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """"module.name" for each private name (one leading underscore, not a
    dunder) that a module-level statement of ``sources``, a module's source
    by its name, binds and that no module of them reads: by name, as an
    attribute or in a ``from`` import."""
    bound, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            bound.update((module, name) for name in names
                         if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in bound if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom . import analytic, datasets\n"
              "np.zeros(analytic.k)\n")
    assert unused_imports(source) == ["datasets", "os"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=[p.name for p in MODULES] + [f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unread_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n_dead = 0\n\ndef _join(x):\n    return x\n\n"
             "def _helper():\n    return _LIMIT\n\nclass _Kept:\n    pass\n",
        "b": "from .a import _helper\nfrom . import a\n\nx = _helper() + a._Kept\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a._join"]


def test_every_private_name_of_the_package_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in MODULES}) == []
