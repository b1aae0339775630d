"""Spans and counters around the program's layers, from outside the program.

``Spans`` replaces each traced function at every place the program binds it
(module globals such as ``algcalc.cli.jacobi_residual``, or a class
attribute for methods) with a wrapper that records a span: name, start,
end, parent span, thread and the operation it ran under.  Spans stay in
memory until ``write``.  ``Counts`` wraps the two hottest jet entry points
with bare call counters; it runs apart from ``Spans`` so that neither
distorts the other.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time

# (metric prefix, module, attribute path) of every function given a span.
TRACED = [
    ("cli.load_config", "algcalc.cli", "load_config"),
    ("cli.build_connection", "algcalc.cli", "build_connection"),
    ("cli.dump_report", "algcalc.cli", "dump_report"),
    ("exprlang.parse_field", "algcalc.exprlang", "parse_field"),
    ("algebroid.from_frame", "algcalc.algebroid", "from_frame"),
    ("algebroid.validate_structure", "algcalc.algebroid",
     "validate_structure"),
    ("algebroid.jacobi_residual", "algcalc.algebroid", "jacobi_residual"),
    ("sampling.generate", "algcalc.sampling", "generate"),
    ("sampling.fields_sweep_max", "algcalc.sampling", "fields_sweep_max"),
    ("linalg.invert", "algcalc.linalg", "invert"),
    ("linalg.rank", "algcalc.linalg", "rank"),
    ("linalg.sym_pivots", "algcalc.linalg", "sym_pivots"),
    ("nlconn.transform_gamma", "algcalc.nlconn", "transform_gamma"),
    ("nlconn.check_consistency", "algcalc.nlconn",
     "FrameChange.check_consistency"),
    ("dtensor.h_cov_deriv", "algcalc.dtensor", "h_cov_deriv"),
    ("dtensor.v_cov_deriv", "algcalc.dtensor", "v_cov_deriv"),
    ("dtensor.transform_dconnection", "algcalc.dtensor",
     "transform_dconnection"),
    ("metric.metrizability_residual", "algcalc.metric",
     "metrizability_residual"),
    ("metric.berwald_canonical", "algcalc.metric", "berwald_canonical"),
    ("metric.obata_deform", "algcalc.metric", "obata_deform"),
    ("metric.base_deform", "algcalc.metric", "base_deform"),
    ("lagrange.hessian_metric", "algcalc.lagrange", "hessian_metric"),
    ("lagrange.finsler_checks", "algcalc.lagrange", "finsler_checks"),
    ("lagrange.regularity_check", "algcalc.lagrange", "regularity_check"),
    ("lagrange.levi_civita_normal", "algcalc.lagrange",
     "levi_civita_normal"),
    ("lagrange.torsion_deform", "algcalc.lagrange", "torsion_deform"),
    ("lagrange.recover_torsions", "algcalc.lagrange", "recover_torsions"),
]

# Span names whose call counts are reported as ``<name>_calls``.
CALL_COUNTS = ("linalg.invert", "linalg.rank", "linalg.sym_pivots",
               "exprlang.parse_field")

# (metric, module, class, methods) counted by ``Counts``; methods that are
# one function under two names (``__rmul__ = __mul__``) count together.
COUNTED = [
    ("jets.field_calls", "algcalc.jets", "ScalarField", ("__call__",)),
    ("jets.taylor_mul_calls", "algcalc.jets", "Taylor",
     ("__mul__", "__rmul__")),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Patches:
    """Replacements that ``undo`` puts back in reverse order."""

    def __init__(self):
        self.saved = []

    def set(self, owner, name, value):
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind(self, original, wrapper):
        """Replace ``original`` in every algcalc module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "algcalc"
                                      or module_name.startswith("algcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self):
        for owner, name, value in reversed(self.saved):
            setattr(owner, name, value)
        self.saved.clear()


class Spans:
    """Span recorder; use as a context manager around the traced work.  It
    may be entered again: spans accumulate across entries."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, thread, op)
        self.totals = {}         # argument-derived counters
        self.op = None           # index of the operation being run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patches = _Patches()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key, amount):
        self.totals[key] = self.totals.get(key, 0) + amount

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack    # a pool thread: link to the caller's span
        return main[-1] if main else None

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body, e.g. one whole operation."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end,
                               threading.get_ident(), self.op))

    def _wrap(self, name, fn):
        recorder = self

        def traced(*args, **kwargs):
            if name == "sampling.fields_sweep_max":
                args = (list(args[0]),) + args[1:]
                points = len(args[1]) if len(args) > 1 \
                    else len(kwargs["points"])
                recorder._add("sampling.fields_swept", len(args[0]))
                recorder._add("sampling.field_point_evals",
                              len(args[0]) * points)
            with recorder.span(name):
                out = fn(*args, **kwargs)
            if name == "sampling.generate":
                recorder._add("sampling.points_generated", len(out))
            elif name == "cli.dump_report":
                recorder._add("cli.report_bytes", len(out.encode()))
            return out

        return traced

    def __enter__(self):
        for name, module, path in TRACED:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.set(owner, attr, wrapper)
            else:
                self._patches.rebind(original, wrapper)
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    def self_times(self):
        """Span id -> duration minus the part covered by its children."""
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for child in sorted(children.get(sid, ()), key=lambda s: s[3]):
                lo, hi = max(child[3], reach), min(child[4], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sid] = (end - start) - covered
        return out

    def metrics(self):
        selfs = self.self_times()
        out = {f"{name}_s": 0.0 for name, _, _ in TRACED}
        calls = {name: 0 for name in CALL_COUNTS}
        for sid, _, name, *_ in self.spans:
            if f"{name}_s" in out:
                out[f"{name}_s"] += selfs[sid]
            if name in calls:
                calls[name] += 1
        out["sampling.sweep_calls"] = sum(
            1 for span in self.spans if span[2] == "sampling.fields_sweep_max")
        for name, count in calls.items():
            out[f"{name}_calls"] = count
        for key in ("sampling.fields_swept", "sampling.field_point_evals",
                    "sampling.points_generated", "cli.report_bytes"):
            out[key] = self.totals.get(key, 0)
        return out

    def write(self, path, extra):
        selfs = self.self_times()
        threads = {}
        rows = []
        for sid, parent, name, start, end, thread, op in self.spans:
            rows.append([sid, parent, name, round(start, 7), round(end, 7),
                         round(selfs[sid], 7),
                         threads.setdefault(thread, len(threads)), op])
        rows.sort()
        with open(path, "w") as handle:
            json.dump(dict(extra, columns=["id", "parent", "name", "start",
                                           "end", "self", "thread", "op"],
                           spans=rows), handle, separators=(",", ":"))
            handle.write("\n")


class Counts:
    """Bare call counters on the jet entry points, as a context manager."""

    def __init__(self):
        self._counters = {}
        self._patches = _Patches()

    def __enter__(self):
        for metric, module, cls_name, methods in COUNTED:
            cls = getattr(importlib.import_module(module), cls_name)
            counter = itertools.count()
            self._counters[metric] = counter
            original = cls.__dict__[methods[0]]

            def counted(*args, _fn=original, _next=counter.__next__):
                _next()
                return _fn(*args)

            for method in methods:
                if cls.__dict__[method] is original:
                    self._patches.set(cls, method, counted)
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    def metrics(self):
        # itertools.count is advanced atomically under the interpreter lock;
        # the next value it would hand out is the number of calls so far
        return {metric: next(counter)
                for metric, counter in self._counters.items()}
