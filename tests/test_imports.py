"""Every module-level import of the package's modules, demos and tests is used."""

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


def test_unused_imports_are_found():
    source = ("import os\nimport numpy as np\nfrom . import analytic, datasets\n"
              "np.zeros(analytic.k)\n")
    assert unused_imports(source) == ["datasets", "os"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=[p.name for p in MODULES] + [f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []
