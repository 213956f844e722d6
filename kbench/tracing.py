"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` wraps the public functions of each `kregular` module,
the public and arithmetic methods of the series and Grassmann classes, and
a few private functions whose results carry sizes worth counting.  Every
module namespace that imported a wrapped function gets the wrapper too, so
`bounds.lambda_top` and `bundles.top_dual_degree` are traced like the
originals.  Nothing under `src/` changes.

A span opens when a call crosses into another layer; calls inside the same
layer run through unmeasured unless a probe watches that function.  A
layer's self time is its span time minus the child spans of other layers.
The root layer `bench` is the benchmark's own loop, so its self time is the
unattributed remainder.  Spans are kept in memory as flat arrays and
written out once at the end.

`Counter.install()` is the separate, span-free pass that counts field
operations (and re-counts a few work units), so those millions of cheap
calls do not inflate the traced self times.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Optional

LAYERS = ("cli", "expr", "bounds", "bundles", "manifolds", "series",
          "grassmann", "fields", "sampler")
ROOT = "bench"
# Exact rank routines get their own layer so sampler.self_s keeps to point
# drawing, matrix building and the SVD.
EXACT_RANK_LAYER = "sampler.rank"
EXACT_RANK = ("rational_rank", "integer_rank_bareiss")
TRACED_CLASSES = {"series": ("SeriesRing", "GradedSeries"),
                  "grassmann": ("GrassmannPresentation",)}
ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")
# Bookkeeping methods that series arithmetic calls tens of thousands of
# times per query; a wrapper would cost more than they do, so their time
# stays with the caller.
UNTRACED_METHODS = ("degree_of", "require_same", "zero", "one", "scalar",
                    "is_zero", "constant_coefficient")
# Private functions whose results carry the sizes the counters report:
# (layer, class or None, name).  A name missing from a later version of the
# program is skipped and its counter reads 0.
PRIVATE_PROBES = (("grassmann", None, "_rref_insert"),
                  ("grassmann", "GrassmannPresentation", "_reduce_degree"))
FIELD_CLASSES = {"PrimeField": "gfp", "RationalField": "qq"}
FIELD_OPS = ("from_int", "add", "sub", "neg", "mul", "inv", "div")


def _modules() -> dict:
    return {name: importlib.import_module(f"kregular.{name}")
            for name in LAYERS}


def _rebind(originals: dict) -> None:
    """Point every kregular namespace binding of an original at its wrapper."""
    for name, module in list(sys.modules.items()):
        if name != "kregular" and not name.startswith("kregular."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


def _public_functions(module) -> list:
    return [(name, obj) for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__]


def _methods(cls) -> list:
    return [(name, obj) for name, obj in vars(cls).items()
            if callable(obj) and name not in UNTRACED_METHODS
            and (not name.startswith("_") or name in ARITHMETIC)]


class Probe:
    """Calls, inclusive seconds and an optional look at each result."""

    __slots__ = ("calls", "seconds", "observe")

    def __init__(self, observe: Optional[Callable] = None):
        self.calls = 0
        self.seconds = 0.0
        self.observe = observe


class WorkCounts:
    """Work units that both passes count, to show they repeat exactly."""

    def __init__(self):
        self.mul_calls = 0
        self.reduce_rows = 0
        self.trials = 0

    def count_mul(self, _) -> None:
        self.mul_calls += 1

    def count_row(self, _) -> None:
        self.reduce_rows += 1

    def count_trials(self, report) -> None:
        self.trials += report.trials

    def as_dict(self) -> dict:
        return {"series.mul_calls": self.mul_calls,
                "grassmann.reduce_rows": self.reduce_rows,
                "sampler.trials": self.trials}


class Tracer:
    """Layer spans with self times, plus probes on selected functions."""

    def __init__(self):
        self.clock = time.perf_counter
        self.self_time = {layer: 0.0 for layer in LAYERS
                          + (EXACT_RANK_LAYER, ROOT)}
        # Open frames: [layer, start, child seconds, span id].
        self.frames: list = []
        self.query = -1
        self.names: list = []
        self.span_query = array("l")
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = WorkCounts()
        self.ring_generators_max = 0
        self.dual_terms_max = 0
        self.reduce_cols_max = 0
        self.unexpected_violations = 0
        self.probes: dict = {}
        self.cache_info: Optional[Callable] = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _modules()
        originals: dict = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                span_layer = (EXACT_RANK_LAYER if name in EXACT_RANK
                              else layer)
                originals[id(fn)] = self._wrap(fn, span_layer,
                                               f"{layer}.{name}")
            for owner_name in TRACED_CLASSES.get(layer, ()):
                owner = getattr(module, owner_name, None)
                for name, fn in _methods(owner) if owner else ():
                    setattr(owner, name, self._wrap(
                        fn, layer, f"{layer}.{owner_name}.{name}"))
        for layer, owner_name, name in PRIVATE_PROBES:
            owner = modules[layer]
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, name, None)
            if fn is not None:
                label = ".".join(filter(None, (layer, owner_name, name)))
                setattr(owner, name, self._wrap(fn, layer, label))
        self.cache_info = getattr(
            getattr(modules["grassmann"], "cached_presentation", None),
            "cache_info", None)
        _rebind(originals)

    def _wrap(self, fn, layer: str, label: str):
        observers = {
            "series.GradedSeries.__mul__": self.counts.count_mul,
            "series.GradedSeries.inverse": None,
            "fields.lucas_binom_mod_p": None,
            "manifolds.cohomology_ring": self._see_ring,
            "manifolds.dual_sw": self._see_dual,
            "grassmann._rref_insert": self.counts.count_row,
            "grassmann.GrassmannPresentation._reduce_degree":
                self._see_degree_data,
            "sampler.sample_check_regular": self._see_report,
        }
        probe = None
        if label in observers:
            probe = self.probes[label] = Probe(observers[label])
        frames = self.frames
        clock = self.clock
        name_id = len(self.names)
        self.names.append(label)

        def traced(*args, **kwargs):
            parent = frames[-1]
            opens = parent[0] != layer
            if not opens and probe is None:
                return fn(*args, **kwargs)
            start = clock()
            if opens:
                span_id = len(self.span_start)
                self.span_query.append(self.query)
                self.span_name.append(name_id)
                self.span_parent.append(parent[3])
                self.span_start.append(start)
                self.span_end.append(start)
                frames.append([layer, start, 0.0, span_id])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if opens:
                    frame = frames.pop()
                    self.span_end[span_id] = end
                    self.self_time[layer] += end - start - frame[2]
                    parent[2] += end - start
                if probe is not None:
                    probe.calls += 1
                    probe.seconds += end - start
            if probe is not None and probe.observe is not None:
                probe.observe(result)
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- observers ----------------------------------------------------------

    def _see_ring(self, ring) -> None:
        self.ring_generators_max = max(self.ring_generators_max,
                                       len(ring.names))

    def _see_dual(self, series) -> None:
        self.dual_terms_max = max(self.dual_terms_max, len(series.terms))

    def _see_degree_data(self, data) -> None:
        self.reduce_cols_max = max(self.reduce_cols_max,
                                   len(data.monomials))

    def _see_report(self, report) -> None:
        self.counts.count_trials(report)
        if not report.expected_violation:
            self.unexpected_violations += report.violations

    # -- running ------------------------------------------------------------

    def start(self) -> None:
        self.frames.append([ROOT, self.clock(), 0.0, -1])

    def stop(self) -> None:
        end = self.clock()
        _, start, child, _ = self.frames.pop()
        self.self_time[ROOT] += end - start - child

    def probe_totals(self, label: str) -> tuple:
        probe = self.probes.get(label)
        return (probe.calls, probe.seconds) if probe else (0, 0.0)

    def metrics(self) -> dict:
        st = self.self_time
        inverse_calls, inverse_s = self.probe_totals(
            "series.GradedSeries.inverse")
        mul_calls, mul_s = self.probe_totals("series.GradedSeries.__mul__")
        _, lucas_s = self.probe_totals("fields.lucas_binom_mod_p")
        _, sampler_s = self.probe_totals("sampler.sample_check_regular")
        hits = misses = 0
        if self.cache_info is not None:
            info = self.cache_info()
            hits, misses = info.hits, info.misses
        return {
            "cli.self_s": st["cli"],
            "expr.parse_s": st["expr"],
            "bounds.self_s": st["bounds"],
            "bundles.self_s": st["bundles"],
            "manifolds.self_s": st["manifolds"],
            "series.self_s": st["series"],
            "grassmann.self_s": st["grassmann"],
            "fields.self_s": st["fields"],
            "sampler.self_s": st["sampler"],
            "sampler.exact_rank_s": st[EXACT_RANK_LAYER],
            "bench.unattributed_s": st[ROOT],
            "series.inverse_s": inverse_s,
            "series.inverse_calls": inverse_calls,
            "series.mul_s": mul_s,
            "series.mul_calls": mul_calls,
            "manifolds.ring_generators_max": self.ring_generators_max,
            "manifolds.dual_terms_max": self.dual_terms_max,
            "grassmann.reduce_rows": self.counts.reduce_rows,
            "grassmann.reduce_cols_max": self.reduce_cols_max,
            "grassmann.cache_hits": hits,
            "grassmann.cache_misses": misses,
            "fields.lucas_s": lucas_s,
            "sampler.trials": self.counts.trials,
            "sampler.trials_per_s": (self.counts.trials / sampler_s
                                     if sampler_s else 0.0),
            "sampler.unexpected_violations": self.unexpected_violations,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: query, name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("query\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                handle.write(
                    f"{self.span_query[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\n")


class Counter:
    """Span-free counting of field operations and of the shared work units."""

    def __init__(self):
        self.field_ops = {kind: 0 for kind in FIELD_CLASSES.values()}
        self.counts = WorkCounts()

    def install(self) -> None:
        modules = _modules()
        for cls_name, kind in FIELD_CLASSES.items():
            cls = getattr(modules["fields"], cls_name, None)
            for op in FIELD_OPS:
                fn = getattr(cls, op, None)
                if fn is not None:
                    setattr(cls, op, self._field_op(fn, kind))
        series_cls = getattr(modules["series"], "GradedSeries", None)
        if series_cls is not None and hasattr(series_cls, "__mul__"):
            series_cls.__mul__ = self._after(series_cls.__mul__,
                                             self.counts.count_mul)
        grassmann = modules["grassmann"]
        if hasattr(grassmann, "_rref_insert"):
            grassmann._rref_insert = self._after(grassmann._rref_insert,
                                                 self.counts.count_row)
        check = getattr(modules["sampler"], "sample_check_regular", None)
        if check is not None:
            _rebind({id(check): self._after(check, self.counts.count_trials)})

    def _field_op(self, fn, kind: str):
        ops = self.field_ops

        def counted(*args):
            ops[kind] += 1
            return fn(*args)
        return counted

    @staticmethod
    def _after(fn, observe: Callable):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result)
            return result
        return counted

    def metrics(self) -> dict:
        return {"fields.qq_ops": self.field_ops["qq"],
                "fields.gfp_ops": self.field_ops["gfp"]}
