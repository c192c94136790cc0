"""Spans and counts around the public functions of every ``multialign`` module.

The tracer replaces each public function at every name it is bound to:
``classify`` and ``cli`` call ``fit``/``map_subject`` through names they
imported, and ``alignment`` calls ``truncated_svd`` the same way, so wrapping
only the defining module would miss those calls.  All bindings of one
function share one wrapper, and its span is named ``<defining module>.<name>``.

A span's *layer self time* is its duration minus the time of spans it
caused in other modules; spans of its own module count as its own time.
So ``alignment.fit`` self time is the dense ``U`` assembly and diagnostics
of the fit, without the ``linalg`` factorizations it calls.

``metrics.pearson`` is counted, not spanned: it runs ~10^5 times per
``corr``, and a span each would measure the tracer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np

PACKAGE = "multialign"
MODULES = ("alignment", "classify", "cli", "data", "linalg", "metrics",
           "supervision", "synth")
COUNT_ONLY = {"metrics.pearson"}


def _svd_gflop(shape) -> float:
    """Thin R-SVD operation count, ``6 m n^2 + 20 n^3`` (m >= n), in GFLOP."""
    m, n = max(shape), min(shape)
    return (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


def _eig_gflop(n: int) -> float:
    """Symmetric QR with eigenvectors, about ``9 n^3``, in GFLOP."""
    return 9.0 * n ** 3 / 1e9


class Tracer:
    """Install, record, summarize, uninstall; one command at a time."""

    def __init__(self):
        self._patches = []
        self.begin()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE + "."):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, _span_name(obj))
                    self._patch(module, name, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, self._wrap(fn, f"{short}.{attr}"))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, fn, name: str):
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        module = name.split(".")[0]
        before, after = _PROBES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, module, time.perf_counter_ns(), 0, parent, 0]
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append(span)
                if parent is not None:
                    # Same-module children stay in the parent's layer self time.
                    parent[5] += span[5] if parent[1] == module else span[3] - span[2]
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return traced

    # -- recording ---------------------------------------------------------

    def begin(self) -> None:
        """Start a command: forget the previous one's spans and counts."""
        self.spans = []
        self._stack = []
        self.calls = Counter()
        self.amounts = Counter()
        self._svd_inputs = set()

    def summary(self) -> dict:
        """Per-layer figures of the command since :meth:`begin`."""
        calls, inclusive, layer_self = Counter(self.calls), Counter(), Counter()
        for name, _, start, end, _, foreign in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            layer_self[name] += end - start - foreign
        out = {f"{k}_calls": v for k, v in calls.items()}
        out.update({f"{k}_s": v / 1e9 for k, v in inclusive.items()})
        out.update({f"{k}_self_s": v / 1e9 for k, v in layer_self.items()})
        out.update(self.amounts)
        out["linalg.svd_distinct"] = len(self._svd_inputs)
        return out

    def outermost_s(self, names) -> float:
        """Time in spans named in ``names`` that no other such span encloses."""
        names = set(names)
        total = 0
        for span in self.spans:
            if span[0] not in names:
                continue
            parent = span[4]
            while parent is not None and parent[0] not in names:
                parent = parent[4]
            if parent is None:
                total += span[3] - span[2]
        return total / 1e9

    def span_records(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s[0], "start_ns": s[2], "end_ns": s[3],
                 "parent": None if s[4] is None else index.get(id(s[4]))}
                for s in self.spans]


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _svd_before(tracer, args, kwargs):
    m = np.ascontiguousarray(_first(args, kwargs, "m"), dtype=float)
    digest = hashlib.blake2b(m.tobytes(), digest_size=16).digest()
    tracer._svd_inputs.add((m.shape, digest))
    tracer.amounts["linalg.truncated_svd_gflop"] += _svd_gflop(m.shape)


def _eig_before(tracer, args, kwargs):
    m = np.asarray(_first(args, kwargs, "m"))
    tracer.amounts["linalg.symmetric_eig_gflop"] += _eig_gflop(m.shape[0])


def _read_before(tracer, args, kwargs):
    tracer.amounts["data.read_bytes"] += os.path.getsize(_first(args, kwargs, "path"))


def _manifest_before(tracer, args, kwargs):
    tracer.amounts["data.read_bytes"] += os.path.getsize(_first(args, kwargs, "manifest_path"))


def _write_after(tracer, args, kwargs, result):
    tracer.amounts["data.write_bytes"] += os.path.getsize(_first(args, kwargs, "path"))


def _save_after(tracer, args, kwargs, result):
    tracer.amounts["data.write_bytes"] += os.path.getsize(result)


_PROBES = {
    "linalg.truncated_svd": (_svd_before, None),
    "linalg.symmetric_eig": (_eig_before, None),
    "data.read_matrix_csv": (_read_before, None),
    "data.load_dataset": (_manifest_before, None),
    "data.write_matrix_csv": (None, _write_after),
    "data.save_dataset": (None, _save_after),
}
