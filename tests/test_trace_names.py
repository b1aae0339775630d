"""Every function perfbench/tracing.py wraps or counts still exists under
its name, so renaming one cannot make ``--trace 1`` fail."""

import importlib
import pathlib

import pytest

from conftest import load_module

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "tracing.py"

tracing = load_module(TRACING, "perfbench_tracing")


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
