"""Span recording around the public entry points of each chshq layer.

The benchmark never edits the library: `Tracer.install` replaces each entry
point below with a recording wrapper in every chshq namespace that holds it
(so `cli`'s by-name imports and `boxes`' `win_count` are caught too), and
`Tracer.uninstall` puts the originals back.  Per-element field ops (`mul`,
`add`, `inv`, `pow`, `trace`, ...) are deliberately absent: wrapping them
would cost more than the work they do.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

ENTRY_POINTS = {
    "field": ["Field.__init__", "Field.primitive_element", "Field.subfield_elements",
              "AdditiveCharacter.__init__", "field_new", "field_from_q"],
    "game": ["exact_classical_value", "search_with_restarts", "local_search",
             "win_count", "tsirelson_bound"],
    "geometry": ["incidences", "subfield_construction", "subspace_construction",
                 "grid_construction", "random_projective_regularize",
                 "verify_incidence_preservation_exhaustive"],
    "boxes": ["regularize", "compose_m", "distribute"],
    "infotheory": ["build_U_m", "pairwise_independence_check",
                   "ic_dichotomy_experiment", "ic_sum"],
    "fourier": ["tight_family", "character_bilinear_sum", "maximize_sum",
                "implied_bias_ceiling"],
    "cli": ["run"],
}


def _regularize_counts(result):
    stats = result[1]
    return {"geometry.sampled_points": stats.sampled_points,
            "geometry.kept_points": stats.kept_points,
            "geometry.sampled_lines": stats.sampled_lines,
            "geometry.kept_lines": stats.kept_lines}


# counts taken from an entry point's return value, keyed by span name
COUNTERS = {
    "game.local_search": lambda r: {"game.search_rounds": r.rounds},
    "fourier.maximize_sum": lambda r: {"fourier.maximize_rounds": len(r.history) // 2},
    "geometry.random_projective_regularize": _regularize_counts,
    "geometry.verify_incidence_preservation_exhaustive": lambda r: {"geometry.transforms": r},
}


class Tracer:
    """Collects spans [name, layer, start, end, parent index] in memory.

    Entry-point wrappers record only while a benchmark step span is open, so
    program calls made by output checks between steps leave no spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, layer, perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(result))
            return result
        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "chshq" or n.startswith("chshq."))]
        for layer, paths in ENTRY_POINTS.items():
            module = importlib.import_module(f"chshq.{layer}")
            for path in paths:
                name = f"{layer}.{path.removesuffix('.__init__')}"
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(name, layer, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, layer, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans) -> Counter:
    """Seconds per layer spent in its own spans, children excluded."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for i, (name, layer, start, end, parent) in enumerate(spans):
        out[layer] += end - start - child[i]
    return out


def totals(spans) -> Counter:
    """Inclusive seconds per span name."""
    out = Counter()
    for name, layer, start, end, parent in spans:
        out[name] += end - start
    return out
