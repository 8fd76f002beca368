"""Spans around the public functions of btzgeo, recorded from outside the package.

The tracer replaces each traced function by a timing wrapper wherever the
function object is bound: in its own module, in every btzgeo module that
imported it by name (``cli`` imports ``volume_time_report``, ``extensions``
imports ``extend_boundary_complete``) and in module-level dicts (the
``verify.SUITES`` table that ``cli`` and ``verify`` dispatch through).
Nothing inside ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original back.

A span is ``[name, op, parent, start, end]``: ``op`` is the benchmark
operation it belongs to (``None`` outside operations, ``"setup"`` during the
warm-up) and ``parent`` the index of the enclosing span, or -1.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "op"


def _kernel_bytes(tracer, name, args, result):
    # computed from the three float64 input arrays, not measured traffic
    tracer.count(name + ".bytes_computed", 8 * sum(np.size(a) for a in args[:3]))
    if name.endswith("count_causal_members"):
        tracer.count("causal.points_tested", np.size(args[0]))
        tracer.count("causal.hits", result)


def _cap_doublings(tracer, name, args, result):
    # the loop starts at M = 1 and doubles, so M = 2^(doublings - 1)
    tracer.count("surfaces.cap_doublings", math.log2(result.params["cap_constant"]) + 1)


# (module under btzgeo, function, hook run on the result)
TARGETS = (
    ("_kernels", "count_causal_members", _kernel_bytes),
    ("_kernels", "min_delta_scan", _kernel_bytes),
    ("causal", "volume_time_report", None),
    ("causal", "volume_time", None),
    ("causal", "grid_reachability", None),
    ("causal", "sample_causal_curves", None),
    ("causal", "validate_causal_batch", None),
    ("surfaces", "extend_boundary_cap", _cap_doublings),
    ("surfaces", "extend_boundary_complete", None),
    ("surfaces", "min_spacelike_slack", None),
    ("develop", "develop_btz", None),
    ("modular", "ray_intersection_count", None),
    *(("verify", "suite_" + s, None) for s in (
        "lorentz", "models", "causal", "develop", "surfaces", "extensions", "modular"
    )),
    ("cli", "main", None),
)


def span_name(module, function):
    """Metric names start with a letter, so ``_kernels`` is traced as ``kernels``."""
    return f"{module.lstrip('_')}.{function}"


def _bindings(original):
    """Every (namespace dict, key) in loaded btzgeo modules bound to ``original``."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "btzgeo" and not mod_name.startswith("btzgeo."):
            continue
        for key, value in vars(module).items():
            if value is original:
                found[(id(vars(module)), key)] = (vars(module), key)
            elif type(value) is dict:
                for k, v in value.items():
                    if v is original:
                        found[(id(value), k)] = (value, k)
    return list(found.values())


class Tracer:
    """In-memory spans and per-operation counters for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self.absent = []
        self._stack = []
        self._patches = None

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.op, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if hook is not None:
                hook(self, name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target; targets missing from the package are recorded as absent.

        The bindings are looked up once; later calls re-apply the same wrappers.
        """
        if self._patches is None:
            self._patches = self._find_patches()
        for namespace, key, _, wrapper in self._patches:
            namespace[key] = wrapper

    def uninstall(self):
        for namespace, key, original, _ in self._patches or ():
            namespace[key] = original

    def _find_patches(self):
        # import every target module first, so that bindings made by name in
        # any of them (cli's imports from causal, say) are all found
        modules = {}
        for module_name, _, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module("btzgeo." + module_name)
            except ImportError:
                modules[module_name] = None
        patches = []
        for module_name, function, hook in TARGETS:
            original = getattr(modules[module_name], function, None)
            name = span_name(module_name, function)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, hook)
            for namespace, key in _bindings(original):
                patches.append((namespace, key, original, wrapper))
        return patches

    # -- operations ---------------------------------------------------------

    def begin(self, op):
        self.op = op
        self.spans.append([ROOT_SPAN, op, -1, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        idx = self._stack.pop()
        self.spans[idx][4] = time.perf_counter()
        self.op = None

    def count(self, key, value):
        if self.op is not None:
            self.counts[(self.op, key)] += float(value)

    def span_cost_us(self, calls=20000):
        """Median extra cost of one span, from a wrapped no-op (spans discarded)."""

        def noop():
            return None

        traced = self.wrap("calibration", noop)
        samples = []
        for _ in range(5):
            for fn in (noop, traced):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                samples.append(time.perf_counter() - t0)
        del self.spans[len(self.spans) - 5 * calls:]
        plain = statistics.median(samples[0::2])
        wrapped = statistics.median(samples[1::2])
        return max(wrapped - plain, 0.0) / calls * 1e6

    # -- summaries ----------------------------------------------------------

    def per_op(self):
        """{op: {"<span>.ms"|".self_ms"|".calls": value, "layers.spans": n}}, times in ms."""
        child = [0.0] * len(self.spans)
        for name, op, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: defaultdict(float))
        for idx, (name, op, parent, t0, t1) in enumerate(self.spans):
            row = table[op]
            row[name + ".ms"] += (t1 - t0) * 1e3
            row[name + ".self_ms"] += (t1 - t0 - child[idx]) * 1e3
            row[name + ".calls"] += 1
            if name != ROOT_SPAN:
                row["layers.spans"] += 1
        return table

    def first_ms(self, name):
        for span in self.spans:
            if span[0] == name:
                return (span[4] - span[3]) * 1e3
        return 0.0
