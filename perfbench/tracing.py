"""Span shims installed from outside the package.

A shim replaces a name that one module of ``paraunit`` imports from
another (for example ``paraunit.analysis.solve_stein``) by a wrapper that
records a span around the original call.  Spans stay in memory: each is
``(name, start, end, parent, op, ok)``, where ``parent`` indexes the
enclosing span (``-1`` at top level) and ``op`` is the benchmark op that was
running.  No package source file is touched; :meth:`Tracer.uninstall`
restores every original.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

#: ``(module attribute path, attribute, span name)``; the span is named
#: after the module that defines the function, whichever module imports it.
SHIMS = (
    ("", "circle_residual", "analysis.circle_residual"),
    ("", "realization_check", "analysis.realization_check"),
    ("", "gramian_certificate", "analysis.gramian_certificate"),
    ("", "mcmillan_degree", "analysis.mcmillan_degree"),
    ("", "mfd_check", "analysis.mfd_check"),
    ("", "laurent_check", "analysis.laurent_check"),
    ("", "bp_to_realization", "transforms.bp_to_realization"),
    ("", "ss_to_mfd", "transforms.ss_to_mfd"),
    ("", "bp_to_laurent", "transforms.bp_to_laurent"),
    ("", "flip_poles", "transforms.flip_poles"),
    ("", "fit_lossless", "fit.fit_lossless"),
    ("", "build_paraunitary", "params.build_paraunitary"),
    ("analysis", "evaluate", "forms.eval_point"),
    ("analysis", "solve_stein", "linalg.solve_stein"),
    ("analysis", "spectral_radius", "linalg.spectral_radius"),
    ("analysis", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "spectral_radius", "linalg.spectral_radius"),
    ("fit", "objective", "fit.objective"),
    ("fit", "build_paraunitary", "params.build_paraunitary"),
    ("fit", "minimize", "fit.minimize"),
    ("fit", "random_params", "params.random_params"),
    ("forms.BlaschkePotapovForm", "eval_many", "forms.eval_many"),
    ("cli", "read_document", "documents.read"),
    ("cli", "write_document", "documents.write"),
    ("cli", "circle_residual", "analysis.circle_residual"),
    ("cli", "realization_check", "analysis.realization_check"),
    ("cli", "gramian_certificate", "analysis.gramian_certificate"),
    ("cli", "mfd_check", "analysis.mfd_check"),
    ("cli", "laurent_check", "analysis.laurent_check"),
    ("cli", "spectral_radius", "linalg.spectral_radius"),
    ("cli", "evaluate", "forms.eval_point"),
    ("cli", "bp_to_realization", "transforms.bp_to_realization"),
    ("cli", "ss_to_mfd", "transforms.ss_to_mfd"),
    ("cli", "bp_to_laurent", "transforms.bp_to_laurent"),
    ("cli", "flip_poles", "transforms.flip_poles"),
    ("cli", "build_paraunitary", "params.build_paraunitary"),
    ("cli", "random_params", "params.random_params"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._installed = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, ok)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, package) -> None:
        for path, attr, name in SHIMS:
            owner = package
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, failed calls, inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _, ok) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["errors"] += 0 if ok else 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, op, ok in self.spans:
                record = [name, round(start - origin, 9), round(end - origin, 9), parent, op, ok]
                handle.write(json.dumps(record) + "\n")
