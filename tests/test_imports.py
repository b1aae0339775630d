"""Every name a module of the package imports is read somewhere in it,
every parameter default of the package is overridden by some call in it,
and every module of the repository parses as Python 3.10.

The checks parse each module with the stdlib ``ast``: a name bound by an
``import`` must occur as a name the module loads (an annotation counts).
``__init__.py`` is exempt, since its imports are the package's re-exports.
A parameter with a default must be passed, by position or keyword, at some
call in ``src/`` to a function of its name, or be listed in
``KEPT_DEFAULTS`` with the reason it stays.  pyproject.toml asks for
Python 3.10 or later, so every module under ``src/``, ``tests/`` and
``tools/`` must parse with ``feature_version`` (3, 10), whichever Python
runs the check.
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


# Defaults that no call in the package overrides, and why each stays.
KEPT_DEFAULTS = {
    "cli.main(argv)": "the console entry point calls it without arguments",
    "jets._forget(nodes)": "binds the intern table for callbacks made "
                           "while the interpreter exits",
    "lagrange.recover_torsions(convention)": "documented under README "
                                             "Conventions",
    "algebroid.jacobi_residual(triple)": "Jacobi on given sections",
    "jets.fd_partial(step)": "the step of the finite-difference oracle",
}


def _defaults(func, skip):
    """(parameter, index among the positional arguments of a call, or None
    if keyword-only) of each parameter of ``func`` with a default, where a
    call does not pass the first ``skip`` parameters (a method's self)."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - skip) for i, a in enumerate(positional)
             if i >= first] +
            [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
             if d is not None])


def unset_defaults(sources):
    """``module.function(parameter)`` for each parameter with a default in
    ``sources`` (module name -> source) that no call passes.  A call
    matches a function by its name (``__init__`` by its class's name, or
    ``cls`` inside the class); a ``*`` or ``**`` argument passes every
    parameter."""
    defined, calls = [], []

    def visit(node, qual, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, qual + [child.name], child.name)
            elif isinstance(child, ast.FunctionDef):
                called = cls if child.name == "__init__" else child.name
                skip = 1 if isinstance(node, ast.ClassDef) else 0
                for name, pos in _defaults(child, skip):
                    defined.append((called, name, pos,
                                    ".".join(qual + [child.name])))
                visit(child, qual + [child.name], cls)
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    called = (func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None))
                    if called == "cls":
                        called = cls
                    starred = any(isinstance(a, ast.Starred)
                                  for a in child.args)
                    calls.append((called, None if starred else
                                  len(child.args),
                                  {k.arg for k in child.keywords}))
                visit(child, qual, cls)

    for module, source in sources.items():
        visit(ast.parse(source), [module], None)
    return [f"{qualname}({name})" for called, name, pos, qualname in defined
            if not any(c == called and (n is None or None in kw or
                                        name in kw or
                                        (pos is not None and n > pos))
                       for c, n, kw in calls)]


def test_the_check_sees_an_unset_default():
    source = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
              "class K:\n    def __init__(self, e=0):\n        pass\n"
              "    def g(self, h=0, i=0):\n        pass\n"
              "f(0, 5, d=4)\nK()\nK().g(1)\n")
    assert unset_defaults({"m": source}) == ["m.f(c)", "m.K.__init__(e)",
                                            "m.K.g(i)"]


def test_every_default_is_set_by_a_call_or_kept_for_a_reason():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert sorted(unset_defaults(sources)) == sorted(KEPT_DEFAULTS)


def test_the_version_check_sees_newer_syntax():
    # except* came with Python 3.11
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
