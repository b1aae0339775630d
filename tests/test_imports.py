"""Every name a module of the package imports is read somewhere in it.

The check parses each module with the stdlib ``ast``: a name bound by an
``import`` must occur as a name the module loads (an annotation counts).
``__init__.py`` is exempt, since its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "algcalc"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """Names that ``source`` imports and never loads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and
              isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in loaded]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Tuple, List\n"
                          "x: List = []\n") == ["os", "Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
