"""Span and counter recorder for the traced benchmark run.

``Tracer.installed()`` wraps difflab's public functions and methods from
outside the package: each target is swapped for a wrapper in every difflab
namespace that binds it, and the originals are restored on exit, so the
untraced passes of the same process run the unmodified code.

A span accumulates calls (``.n``) and self seconds (``.s``): its wall time
minus the wall time of the spans it called.  Counters (points, bisection
iterations, node and leaf evaluations, Szekeres terms, report bytes) are
machine-independent and must repeat exactly between two traced passes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("gridfn", "diffeo", "szekeres", "invariants", "deform",
           "counterexamples", "cli")

# (module, attribute) of every span, named "<module>.<attribute>" with
# "__call__" -> "call" and "__init__" -> "init"
SPANS = (
    ("gridfn", "GridFunction.__call__"),
    ("diffeo", "bisect_monotone"),
    ("diffeo", "InverseMap.value"),
    ("diffeo", "CircleInverse.lift"),
    ("diffeo", "metric"),
    ("diffeo", "commutator_residual"),
    ("diffeo", "rotation_number"),
    ("diffeo", "fixed_point_analysis"),
    ("szekeres", "SzekeresField.__init__"),
    ("szekeres", "SzekeresField.sigma"),
    ("szekeres", "SzekeresField.X"),
    ("szekeres", "SzekeresField.tau"),
    ("szekeres", "SzekeresField.tau_inv"),
    ("szekeres", "FlowTime.value"),
    ("szekeres", "FlowTime.log_deriv"),
    ("invariants", "asymptotic_variation"),
    ("invariants", "mather_invariant"),
    ("invariants", "coboundary_drift"),
    ("deform", "DeformationPath.__init__"),
    ("deform", "DeformationPath.at"),
    ("deform", "DeformationPath.certificate"),
    ("deform", "classify_action"),
    ("deform", "regularize_flow"),
    ("deform", "geometric_mean_conjugacy"),
    ("deform", "herman_average"),
    ("deform", "interpolation_path"),
    ("counterexamples", "build_staircase"),
    ("counterexamples", "staircase_report"),
    ("counterexamples", "bv_group_demo"),
    ("counterexamples", "hyperbolic_example"),
    ("counterexamples", "sergeraert_check"),
    ("cli", "load_spec"),
    ("cli", "run_command"),
    ("cli", "emit_report"),
)

# map-node methods counted in diffeo.node_evals.n and, on leaf nodes (maps
# holding no other map), in diffeo.leaf_evals.points
NODE_METHODS = ("value", "lift", "log_deriv", "affine_deriv")


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def span_name(module: str, attr: str) -> str:
    attr = attr.replace("__call__", "call").replace("__init__", "init")
    return f"{module}.{attr}"


class Tracer:
    """In-memory spans and counters, accumulated while installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []   # child seconds of each open span

    # -- spans -----------------------------------------------------------------
    def _open(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, key: str, t0: float):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.calls[key] += 1
        self.self_s[key] += dt - child

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        t0 = self._open()
        try:
            yield
        finally:
            self._close(name, t0)

    def _span(self, module: str, name: str, fn):
        label = self._labels.get(name)
        count = self._counters.get(name)
        errors = f"{module}.errors"

        def wrapper(*args, **kwargs):
            t0 = self._open()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                self._close(label(args) if label else name, t0)
            if count:
                count(fn, args, kwargs, out)
            return out

        return wrapper

    def _node(self, fn, maps):
        counts = self.counts

        def is_leaf(node):
            return not any(isinstance(v, maps) or (isinstance(v, tuple) and v
                                                   and isinstance(v[0], maps))
                           for v in vars(node).values())

        def wrapper(node, x, *args, **kwargs):
            counts["diffeo.node_evals.n"] += 1
            if is_leaf(node):
                counts["diffeo.leaf_evals.points"] += int(np.size(x))
            return fn(node, x, *args, **kwargs)

        return wrapper

    # -- counters attached to spans ----------------------------------------------
    _labels = {"cli.run_command": lambda args: f"cli.run_command.{args[0].cmd}"}

    def _count_points(self, fn, args, kwargs, out):
        self.counts["gridfn.GridFunction.call.points"] += int(np.size(args[1]))

    def _count_bisection(self, fn, args, kwargs, out):
        """Iterations and points; an iteration is useful while the bracket
        is still wider than the float spacing at its endpoints."""
        bound = _signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        iters = int(a["iters"])
        lo, hi, _ = np.broadcast_arrays(np.asarray(a["lo"], dtype=float),
                                        np.asarray(a["hi"], dtype=float),
                                        np.asarray(a["target"], dtype=float))
        res = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        steps = np.ceil(np.log2(np.maximum(np.abs(hi - lo) / res, 1.0)))
        c = self.counts
        c["diffeo.bisect_monotone.iters"] += iters
        c["diffeo.bisect_monotone.points"] += int(lo.size)
        c["diffeo.bisect_monotone.point_iters"] += iters * int(lo.size)
        c["diffeo.bisect_monotone.useful_point_iters"] += int(
            np.minimum(steps, iters).sum())

    def _count_terms(self, fn, args, kwargs, out):
        self.counts["szekeres.SzekeresField.terms"] += int(
            args[0].diagnostics()["terms"])

    def _count_bytes(self, fn, args, kwargs, out):
        self.counts["cli.emit_report.bytes"] += sum(os.path.getsize(p) for p in out)

    @property
    def _counters(self):
        return {
            "gridfn.GridFunction.call": self._count_points,
            "diffeo.bisect_monotone": self._count_bisection,
            "szekeres.SzekeresField.init": self._count_terms,
            "cli.emit_report": self._count_bytes,
        }

    # -- installation ------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        import difflab

        mods = {m: sys.modules[f"difflab.{m}"] for m in MODULES}
        namespaces = [difflab, *mods.values()]
        undo = []

        def swap(obj, attr, value):
            undo.append((obj, attr, vars(obj)[attr]))
            setattr(obj, attr, value)

        maps = (mods["diffeo"].IntervalDiffeo, mods["diffeo"].CircleDiffeo)
        classes = list(maps)
        for cls in classes:
            classes.extend(c for c in cls.__subclasses__() if c not in classes)
        try:
            for cls in classes:
                for meth in NODE_METHODS:
                    if meth in vars(cls):
                        swap(cls, meth, self._node(vars(cls)[meth], maps))
            for module, attr in SPANS:
                name = span_name(module, attr)
                owner, _, meth = attr.rpartition(".")
                if owner:
                    cls = getattr(mods[module], owner)
                    swap(cls, meth, self._span(module, name, vars(cls)[meth]))
                    continue
                orig = getattr(mods[module], meth)
                wrapped = self._span(module, name, orig)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            swap(ns, key, wrapped)
            yield self
        finally:
            for obj, attr, val in reversed(undo):
                setattr(obj, attr, val)

    # -- results -----------------------------------------------------------------
    def counters(self) -> dict:
        """Machine-independent counts: span calls plus attached counters."""
        out = {f"{k}.n": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def self_seconds(self) -> dict:
        return {f"{k}.s": v for k, v in sorted(self.self_s.items())}
