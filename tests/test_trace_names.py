"""Every function perfbench/tracing.py wraps or counts still exists under
its name, so renaming one cannot make ``--trace 1`` fail."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name, module, path", tracing.TRACED)
def test_traced_name_resolves(name, module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(owner.__dict__[attr]), name


@pytest.mark.parametrize("metric, module, cls_name, methods",
                         tracing.COUNTED)
def test_counted_methods_exist(metric, module, cls_name, methods):
    cls = getattr(importlib.import_module(module), cls_name)
    for method in methods:
        assert callable(cls.__dict__[method]), (metric, method)
