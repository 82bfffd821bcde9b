"""Span tracing of the scalefisher layers from outside the library.

`Tracer.install` wraps every public function and public method defined in
the package's modules and rebinds each wrapper in every module namespace
that holds the original object (names bound by ``from ... import`` are
separate bindings).  Spans are recorded only while an op is open, kept in
memory, and written out by the caller at the end of the run.

A span is ``(name, start, end, parent, op_id, points)``; ``parent`` is the
index of the enclosing span or -1.  Names are ``<module>.<function>``, with
methods named after their module (``WhitenedSystem.transform`` is
``linalg.transform``) and the ``_quad`` module named ``quad``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

ROOT = "process"

# Work counts taken from call arguments.  Each returns 0 if the signature
# changed, so a refactor of the library cannot crash the traced run.


def _lam_points(args, kwargs):
    lam = kwargs.get("lam", args[1] if len(args) > 1 else None)
    return int(np.size(lam)) if lam is not None else 0


def _panel_points(args, kwargs):
    edges = kwargs.get("edges", args[1] if len(args) > 1 else None)
    nodes = kwargs.get("nodes", args[2] if len(args) > 2 else 16)
    return max(int(np.size(edges)) - 1, 0) * int(nodes) if edges is not None else 0


POINT_COUNTERS = {
    "model.spectral_density_x": _lam_points,
    "model.spectral_density_x_aliased": _lam_points,
    "quad.panel_integrate": _panel_points,
}


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1].lstrip("_")


def _is_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def _targets(package):
    """(owner, attribute, original, span name) for every public function
    and public method defined in the package's submodules."""
    modules = [importlib.import_module(f"{package.__name__}.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    out = []
    for mod in modules:
        short = _short(mod.__name__)
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if (inspect.isfunction(obj) or _is_cached(obj)) and \
                    getattr(obj, "__module__", None) == mod.__name__:
                out.append((mod, name, obj, f"{short}.{name}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        out.append((obj, attr, member, f"{short}.{attr}"))
    return modules, out


class Tracer:
    """Owns the spans of one traced run and the patches that produce them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.cache: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._stack: list[int] = []
        self._op_id = None
        self._patches: list[tuple] = []
        self.root = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        counter = POINT_COUNTERS.get(name)
        cached = _is_cached(fn)

        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            misses = fn.cache_info().misses if cached else 0
            points = 0
            if counter is not None:
                try:
                    points = counter(args, kwargs)
                except (TypeError, ValueError, IndexError):
                    points = 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer._op_id, points)
                if cached:
                    tracer.cache[name][fn.cache_info().misses > misses] += 1

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def activate(self, op_id) -> None:
        """Record calls as top-level spans of ``op_id`` (no root span)."""
        self._op_id = op_id
        self._stack = []

    def begin_op(self, op_id) -> int:
        """Open the root span of one op; returns its index."""
        self.activate(op_id)
        idx = len(self.spans)
        self.spans.append((ROOT, time.perf_counter(), None, -1, op_id, 0))
        self._stack = [idx]
        self.root = idx
        return idx

    def end_op(self, idx: int) -> None:
        name, t0, _, parent, op_id, points = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent, op_id, points)
        self._stack = []
        self._op_id = None

    def graft(self, spans, cache, parent: int) -> None:
        """Append spans and cache counts recorded in another process (same
        monotonic clock) under ``parent``, remapping span indices."""
        base = len(self.spans)
        op_id = self.spans[parent][4]
        for name, t0, t1, par, _, points in spans:
            self.spans.append((name, t0, t1, parent if par < 0 else base + par,
                               op_id, points))
        for name, (hits, misses) in cache.items():
            self.cache[name][0] += hits
            self.cache[name][1] += misses

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        modules, targets = _targets(package)
        namespaces = [package] + modules
        for owner, attr, original, name in targets:
            wrapped = self._wrap(original, name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its direct children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, t0, t1, *_rest) in enumerate(spans):
        covered, reach = 0.0, t0
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            c0, c1 = max(spans[j][1], reach), min(spans[j][2], t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def layer_stats(spans, cache) -> dict:
    """Per span name: calls, self_s, points, and for fisher_integral the
    refinement passes (panel_integrate calls directly under it)."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0, "passes": 0})
    for span, st in zip(spans, selfs):
        s = stats[span[0]]
        s["calls"] += 1
        s["self_s"] += st
        s["points"] += span[5]
        if span[0] == "quad.panel_integrate" and span[3] >= 0 \
                and spans[span[3]][0] == "fisher.fisher_integral":
            stats["fisher.fisher_integral"]["passes"] += 1
    for name, (hits, misses) in cache.items():
        stats[name]["hits"] = hits
        stats[name]["misses"] = misses
    return dict(stats)
