"""Spans around the calls into each besseldt module, installed from outside
the package.

A traced function is replaced by a wrapper under every name a besseldt
module binds it to: ``kernel.py`` imports ``panel_edges`` by name, so the
wrapper goes into ``besseldt.kernel`` as well as ``besseldt.quadrature``.
Methods are wrapped on their class.  Private helpers are not wrapped; their
time lands in the nearest public caller (``kernel._batch`` in
``transform.window_kernel`` and ``kernel.kernel_bound_ratios``,
``hankel._osc_edges`` in ``hankel.hankel_transform``).

Spans stay in memory as ``(parent, name, start, end, count, nested)`` tuples
indexed by span id; ``nested`` marks a span opened inside another span of
the same name, so inclusive ("busy") time is not counted twice.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _window_kernel_points(args, kwargs, result):
    win = _arg(args, kwargs, 2, "win")
    return int(np.size(result)) * (win.n2 - win.n1 + 2)


def _maximal_hl_averages(args, kwargs, result):
    radii = _arg(args, kwargs, 3, "radius_grid")
    return int(np.size(radii)) * int(np.size(result))


# (span name, module, attribute, count of work done by one call)
# A count of None records 1 per call.
SPANS = (
    ("kernel.values", "kernel", "kernel_values", _size_of_result),
    ("kernel.pointwise", "kernel", "kernel_bound_ratios",
     lambda a, k, r: r.n_points),
    ("kernel.apply_at", "kernel", "apply_at",
     lambda a, k, r: int(np.size(r[0]))),
    ("quadrature.panel_edges", "quadrature", "panel_edges",
     lambda a, k, r: len(r) - 1),
    ("quadrature.panel_nodes", "quadrature", "panel_nodes",
     lambda a, k, r: int(r[0].size)),
    ("transform.level", "transform", "SemigroupTable.level", None),
    ("transform.prefix", "transform", "SemigroupTable.weighted_prefixes",
     None),
    ("transform.max_window", "transform", "max_window_sum_abs", None),
    ("transform.maximal_hl", "transform", "maximal_hl", _maximal_hl_averages),
    ("transform.window_kernel", "transform", "window_kernel",
     _window_kernel_points),
    ("transform.window_bounds", "transform", "window_kernel_bounds",
     lambda a, k, r: r.n_points),
    ("transform.apply_transform", "transform", "apply_transform", None),
    ("transform.maximal_transform", "transform", "maximal_transform", None),
    ("transform.cotlar", "transform", "cotlar_check", None),
    ("measure.interval_q", "measure", "interval_q_integral", None),
    ("measure.lp_norm", "measure", "lp_norm", None),
    ("measure.measure_interval", "measure", "measure_interval", None),
    ("hankel.bessel", "hankel", "normalized_bessel", _size_of_result),
    ("hankel.transform", "hankel", "hankel_transform",
     lambda a, k, r: int(np.size(r.values))),
    ("hankel.fixed_point", "hankel", "gaussian_fixed_point_defect", None),
    ("hankel.involution", "hankel", "involution_defect", None),
    ("hankel.spectral", "hankel", "spectral_poisson_apply", None),
    ("functions.eval", "functions", "SampledFunction.__call__",
     _size_of_result),
    ("lab.parse", "lab", "parse_config", None),
    ("lab.csv", "lab", "emit_csv",
     lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
)


def _bindings(target):
    """Every (namespace, key) in the besseldt modules that holds `target`,
    including the values of ``lab.EXPERIMENTS``."""
    seen = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "besseldt"
                               or mod_name.startswith("besseldt.")):
            continue
        for namespace in (vars(mod), getattr(mod, "EXPERIMENTS", {})):
            if id(namespace) in seen:
                continue
            seen.add(id(namespace))
            for key, val in list(namespace.items()):
                if val is target:
                    yield namespace, key


class Tracer:
    """Records spans while installed; `reset` starts a new pass."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._active: dict = {}
        self._patches: list = []
        self.missing: list = []

    def reset(self):
        self.spans.clear()

    def wrap(self, name, fn, count=None, cpu=False):
        """`fn` recording one span per call.  With cpu=True the span's count
        is the process CPU seconds the call took."""
        spans, stack, active = self.spans, self._stack, self._active
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            nested = active.get(name, 0) > 0
            spans.append((parent, name, 0.0, 0.0, 0, nested))
            stack.append(sid)
            active[name] = active.get(name, 0) + 1
            c0 = cpu_clock() if cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (parent, name, start, end, 0, nested)
            if cpu:
                n = cpu_clock() - c0
            else:
                n = 1 if count is None else count(args, kwargs, result)
            spans[sid] = (parent, name, start, end, n, nested)
            return result

        return traced

    def install(self):
        import besseldt.lab as lab
        self.missing = []
        targets = []
        for name, module, attr, count in SPANS:
            owner = sys.modules.get(f"besseldt.{module}")
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"besseldt.{module}.{attr}")
                continue
            targets.append((name, owner if cls_path else None, leaf,
                            original, count, False))
        for runner in set(lab.EXPERIMENTS.values()):
            targets.append(("lab.run", None, runner.__name__, runner, None,
                            True))
        for name, cls, leaf, original, count, cpu in targets:
            wrapper = self.wrap(name, original, count, cpu)
            if cls is not None:
                self._patches.append((cls, leaf, original))
                setattr(cls, leaf, wrapper)
                continue
            for namespace, key in list(_bindings(original)):
                self._patches.append((namespace, key, original))
                namespace[key] = wrapper

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def summarize(spans):
    """Per span name: calls, count, busy (inclusive, outermost spans only),
    self (duration minus the time covered by child spans) and worked (spans
    that opened at least one child span)."""
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for parent, _name, start, end, _n, _nested in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    out: dict = {}
    for sid, (_parent, name, start, end, n, nested) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "count": 0, "busy": 0.0,
                                  "self": 0.0, "worked": 0})
        dur = end - start
        s["calls"] += 1
        s["count"] += n
        s["self"] += dur - child_time[sid]
        if not nested:
            s["busy"] += dur
        if has_child[sid]:
            s["worked"] += 1
    return out
