"""Timing wrappers around the public functions of each ``afcsim`` layer.

``Tracer.install()`` replaces each traced function in every ``afcsim`` module
namespace that holds it by name (``experiments`` and ``readout`` keep their
own references to ``evolve``, ``measure_hole``, ``fit_curve`` and
``absorption_spectrum``), so calls made inside the program are seen too.
``uninstall()`` puts the originals back; an untraced pass runs with no
wrapper at all.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# layer -> public functions timed in it; ``experiments`` also gets every run_*
LAYERS = {
    "pumping": ("pump_rate_profile", "evolve"),
    "core": ("absorption_spectrum",),
    "readout": ("simulate_readout", "measure_hole", "analyze_comb",
                "hole_decay_experiment"),
    "fitting": ("fit_curve",),
    "experiments": (),
}


def _evolve_counts(bound, result, counts):
    state, seq = bound.arguments["state"], bound.arguments["seq"]
    counts["bin_s"] += state.grid.n_bins * seq.total_duration


def _spectrum_counts(bound, result, counts):
    counts["bins"] += bound.arguments["state"].grid.n_bins


def _fit_counts(bound, result, counts):
    counts["iterations"] += result.iterations
    counts["converged"] += bool(result.converged)


# work counts taken from a call's inputs and result, so they do not depend on
# how the layer does its work
COUNTERS = {
    "pumping.evolve": _evolve_counts,
    "core.absorption_spectrum": _spectrum_counts,
    "fitting.fit_curve": _fit_counts,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.child = 0.0

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Tracer:
    """Spans and counts of the traced calls, keyed ``<layer>.<function>``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._installed = []

    def _targets(self):
        """``(qualified name, function)`` for every traced public function."""
        mods = {layer: sys.modules[f"afcsim.{layer}"] for layer in LAYERS}
        out = []
        for layer, names in LAYERS.items():
            if layer == "experiments":
                names = sorted(n for n, v in vars(mods[layer]).items()
                               if n.startswith("run_") and inspect.isfunction(v))
            for name in names:
                out.append((f"{layer}.{name}", getattr(mods[layer], name)))
        return out

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "afcsim" or n.startswith("afcsim."))]
        for qualname, fn in self._targets():
            wrapper = self._wrap(qualname, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _wrap(self, qualname, fn):
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn)
        counts = self.counts[qualname]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(qualname, parent, time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["raised"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if counter is not None:
                counter(signature.bind(*args, **kwargs), result, counts)
            return result

        return wrapper

    def totals(self):
        """Per name: calls, self seconds and inclusive seconds."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += span.self_time
            row["total_s"] += span.end - span.start
        return out

    def write(self, path, extra):
        """Spans (indices for parents), per-name totals and counts as JSON."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        doc = {
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "self_s": s.self_time,
                       "parent": None if s.parent is None else index[id(s.parent)]}
                      for s in self.spans],
            "totals": self.totals(),
            "counts": {k: dict(v) for k, v in self.counts.items()},
            **extra,
        }
        path.write_text(json.dumps(doc) + "\n")
