"""Every name a module of the package imports is read somewhere in it,
every name an annotation of the package names is bound, every parameter
default of the package is overridden by some call in it, every module of
the repository parses as Python 3.10, and loading a config imports no
module that the config does not use.

The checks parse each module with the stdlib ``ast``: a name bound by an
``import`` must occur as a name the module loads (an annotation counts).
``__init__.py`` is exempt, since its imports are the package's re-exports.
Every module has ``from __future__ import annotations``, so no annotation
is evaluated, and one that names a name whose import was removed would
go unseen: so each name an annotation loads must be a builtin or bound
somewhere in its module (an import inside a function counts).
A parameter with a default must be passed, by position or keyword, at some
call in ``src/`` to a function of its name, or be listed in
``KEPT_DEFAULTS`` with the reason it stays.  pyproject.toml asks for
Python 3.10 or later, so every module under ``src/``, ``tests/`` and
``tools/`` must parse with ``feature_version`` (3, 10), whichever Python
runs the check.
"""

import ast
import builtins
import json
import os
import pathlib
import subprocess
import sys

import pytest

import algcalc
from algcalc.metric import MetricStructure

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


def _annotations(tree):
    """Every annotation in ``tree``; a string annotation as its parse."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found += [arg.annotation for arg in
                      args.posonlyargs + args.args + args.kwonlyargs +
                      [args.vararg, args.kwarg]
                      if arg is not None and arg.annotation is not None]
            if node.returns is not None:
                found.append(node.returns)
    return [ast.parse(node.value, mode="eval") if
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            else node for node in found]


def unbound_annotation_names(source):
    """Names that an annotation of ``source`` loads and that neither a
    builtin nor anything in ``source`` binds, in order of appearance."""
    tree = ast.parse(source)
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return [node.id for annotation in _annotations(tree)
            for node in ast.walk(annotation)
            if isinstance(node, ast.Name) and node.id not in bound]


def test_the_check_sees_an_unbound_annotation_name():
    source = ("from __future__ import annotations\n"
              "def f(a: Optional[int], *b: list[Point], c: 'Tuple[K]'"
              ") -> Sequence:\n"
              "    from m import K\n"
              "class Point:\n    x: float | None\n    y: Expr\n")
    assert unbound_annotation_names(source) == ["Optional", "Tuple",
                                                "Sequence", "Expr"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_annotation_name_is_bound(path):
    assert unbound_annotation_names(path.read_text()) == []


# Modules that loading a structure-only config must not import: the
# record and annotation machinery of the standard library, the parser
# that only ``main`` needs, and the layers that only other commands use.
UNUSED_BY_A_STRUCTURE = ("dataclasses", "inspect", "typing", "argparse",
                         "algcalc.metric", "algcalc.dtensor",
                         "algcalc.lagrange")


def modules_after(*statements):
    """The set of ``sys.modules`` names after each of ``statements``, run in
    turn by a fresh ``python -S`` from the repository root, importing the
    package from ``src`` without bytecode.  ``-S`` keeps out the modules
    that site's ``.pth`` files import."""
    script = "import json, sys\n" + "".join(
        f"{statement}\nprint(json.dumps(sorted(sys.modules)))\n"
        for statement in statements)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return [set(json.loads(line)) for line in out.splitlines()]


def test_loading_a_config_imports_only_the_layers_it_uses():
    structure, finsler = modules_after(
        "from algcalc import cli\n"
        "cli.load_config('fixtures/frame_exp.json')",
        "cli.load_config('fixtures/randers.json')")
    assert "algcalc.cli" in structure
    assert structure.isdisjoint(UNUSED_BY_A_STRUCTURE)
    assert "algcalc.lagrange" in finsler
    assert finsler.isdisjoint(UNUSED_BY_A_STRUCTURE[:4])


def test_a_layer_name_of_the_package_imports_its_module_on_first_use():
    bare, used = modules_after("import algcalc",
                               "assert algcalc.MetricStructure.gh_inv")
    assert bare.isdisjoint(UNUSED_BY_A_STRUCTURE)
    assert {"algcalc.metric", "algcalc.dtensor"} <= used
    assert "algcalc.lagrange" not in used


# Every name that algcalc/__init__.py bound before the layers were
# imported on first use.
EXPORTED = """
    ArityError ChartFrame ConfigError DConnection DTensorField
    DimensionMismatch EmptyBox ExprSyntaxError FrameChange FrameDiffeoData
    FundamentalFunction GeneralizedAlgebroid GeometryError IndexOutOfRange
    IndexSignature Jet MetricStructure NonSmoothPoint NonlinearConnection
    NormalDConnection ObataPair Point SampleBox ScalarField Section
    ShapeError SingularFrame SingularMetric SingularTransition TorsionPair
    UnknownIdentifier ValidationReport adapted_coframe_matrix
    adapted_frame_matrix algebroid anchor_action base_deform
    basis_sections berwald berwald_canonical bracket build_gl_space
    canonical_dconnection compose constant_section cov_deriv_along
    default_chart delta_action dtensor errors eval_jet exprlang fd_partial
    finsler_checks from_adapted_covector from_adapted_vector from_ehresmann
    from_frame generate h_cov_deriv hessian_metric jacobi_residual jets
    lagrange levi_civita_normal linalg metric metrizability_residual
    nlconn obata_deform obata_pair parse parse_field recover_torsions
    regularity_check sampling scalar_tensor tensor_product to_adapted_covector
    to_adapted_vector to_field to_source torsion_deform transform_chart
    transform_dconnection transform_gamma v_cov_deriv validate_structure
    zero_connection __version__
""".split()


def test_the_package_lists_and_resolves_every_name_it_exported():
    assert set(EXPORTED) <= set(dir(algcalc))
    for name in EXPORTED:
        assert getattr(algcalc, name) is not None, name
    assert algcalc.MetricStructure is MetricStructure
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        algcalc.nothing


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
