"""Every name a module of the package imports is read somewhere in it, and
every module of the repository parses as Python 3.10.

The check parses each module with the stdlib ``ast``: a name bound by an
``import`` must occur as a name the module loads (an annotation counts).
``__init__.py`` is exempt, since its imports are the package's re-exports.
pyproject.toml asks for Python 3.10 or later, so every module under
``src/``, ``tests/`` and ``tools/`` must parse with ``feature_version``
(3, 10), whichever Python runs the check.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "algcalc"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")
SOURCES = sorted(path for top in ("src", "tests", "tools")
                 for path in (ROOT / top).rglob("*.py"))


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


def test_the_version_check_sees_newer_syntax():
    # except* came with Python 3.11
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
