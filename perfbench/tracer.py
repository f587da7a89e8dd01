"""Span tracer that wraps revfactor's layer functions from outside.

``Tracer.installed(rf)`` patches the functions named in ``LAYERS`` in
every loaded ``revfactor`` module that holds them (the package imports
names with ``from .maps import map_compose``, so each importing module has
its own binding), plus ``Series.__mul__``.  Nothing under ``src/`` is
edited; leaving the ``with`` block restores every original.

A span carries its name, start, end, parent span and instance id.  Spans
are kept in memory and written out by ``write``.  Per span name the tracer
also keeps the call count and the self time: the span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (revfactor submodule, function name)
LAYERS = {
    "series.compose": ("series", "compose"),
    "maps.compose": ("maps", "map_compose"),
    "maps.invert": ("maps", "map_invert"),
    "maps.is_involution": ("maps", "is_involution"),
    "maps.parse": ("maps", "parse_map"),
    "maps.format": ("maps", "format_map"),
    "normalform.poincare_dulac": ("normalform", "poincare_dulac"),
    "normalform.solve_conjugacy": ("normalform", "solve_conjugacy"),
    "normalform.verify_witness": ("normalform", "verify_witness"),
    "structure.split_centralizer": ("structure", "split_centralizer"),
    "structure.centralizer_membership": ("structure", "centralizer_membership"),
    "structure.fresh_prime_diagonal": ("structure", "fresh_prime_diagonal"),
    "dim1.split_involutions": ("dim1", "split_involutions"),
    "dim1.split_reversibles": ("dim1", "split_reversibles"),
    "dim1.reverser_search": ("dim1", "reverser_search"),
    "factor.drive": ("factor", "_drive"),
    "factor.verify_factorization": ("factor", "verify_factorization"),
    "factor.certificate": ("factor", "certificate"),
    "factor.parse_certificate": ("factor", "parse_certificate"),
    "factor.verify_certificate": ("factor", "verify_certificate"),
}

# spans whose result size is counted: name -> result -> number of terms
SIZES = {
    "series.compose": lambda out: len(out.coeffs),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, instance)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.terms_out = Counter()
        self.instance = -1
        self._stack = []  # [span index, time covered by children]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.instance))
        self._stack.append([len(self.spans) - 1, 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        index, children = self._stack.pop()
        name, start, _, parent, instance = self.spans[index]
        self.spans[index] = (name, start, end, parent, instance)
        self.calls[name] += 1
        self.self_s[name] += end - start - children
        if self._stack:
            self._stack[-1][1] += end - start

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if size is not None:
                self.terms_out[name] += size(out)
            return out

        return traced

    @contextmanager
    def installed(self, rf):
        """Patch the layer functions of the imported package ``rf``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == rf.__name__ or key.startswith(rf.__name__ + "."))
        ]
        undo = []
        for name, (module, attr) in LAYERS.items():
            original = getattr(importlib.import_module(f"{rf.__name__}.{module}"), attr)
            traced = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, traced)
        series_cls = importlib.import_module(f"{rf.__name__}.series").Series
        mul = series_cls.__dict__["__mul__"]
        traced_mul = self.wrap("series.mul", mul)
        for key in ("__mul__", "__rmul__"):
            undo.append((series_cls, key, series_cls.__dict__[key]))
            setattr(series_cls, key, traced_mul)
        try:
            yield self
        finally:
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

    def write(self, path) -> None:
        """Write every span as one JSON line to a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, instance in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "instance": instance,
                        }
                    )
                    + "\n"
                )
