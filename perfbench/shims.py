"""Timing shims around ecdkit's public functions, installed from outside
the package.

A :class:`Tracer` replaces each traced function with a wrapper that
records one span ``(id, parent, layer, name, start, end, tag)`` per call.
Callers that imported a name (``ecdkit.ecd.kmst``, ``ecdkit.cli.ecd``, the
package re-exports) are patched too: every loaded ``ecdkit`` module
attribute that *is* the original function is swapped for the wrapper.
Spans and counters stay in memory until :meth:`Tracer.dump`.

Spans nest per thread, so self time (duration minus direct children) is
well defined under the experiment runners' thread pool. A tracer made
with ``alloc=True`` also runs tracemalloc during the first call of each
distance and k-MST function; that roughly doubles the call's time, so the
benchmark takes allocation peaks from a separate replay and times layers
without it. With two workers the peak may include allocations the other
worker made meanwhile.

The module imports only the standard library, so a CLI child process can
load it before ecdkit.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

_MIB = float(1 << 20)


def _n_edges(_args, result):
    return {"edges": result.n_edges}, hash(result.edges)


def _file_bytes(args, _result):
    return {"ingest_bytes": os.path.getsize(args[0])}, None


#: (module, function, observe): every function the traced run times. The
#: layer is the module name. `observe` turns a call's arguments and result
#: into counters plus an optional fingerprint of the object produced. A
#: target the package no longer defines is skipped and its metrics read 0.
TARGETS = (
    ("metricspace", "pairwise_distances", None),
    ("metricspace", "cross_distances", None),
    ("metricspace", "load_feature_csv", _file_bytes),
    ("metricspace", "load_distance_csv", _file_bytes),
    ("spanning", "kmst", _n_edges),
    ("ecd", "ecd", None),
    ("ecd", "ecd_from_distances", None),
    ("ecd", "edge_counts", None),
    ("ecd", "null_moments", None),
    ("ecd", "ecd_subsampled", None),
    ("ecd", "ecd_subsampled_from_distances", None),
    ("numerics", "psd_sqrt", None),
    ("numerics", "sym_eig", None),
    ("setmeasures", "fit_gaussian", None),
    ("setmeasures", "frechet_gaussian", None),
    ("setmeasures", "coverage", None),
    ("setmeasures", "mmd", None),
    ("setmeasures", "coverage_from_cross", None),
    ("setmeasures", "mmd_from_cross", None),
    ("setmeasures", "measures_from_cross", None),
    ("setmeasures", "measures_from_features", None),
    ("experiments", "sample", None),
    ("experiments", "_grid_cell", None),
    ("experiments", "_sweep_cell", None),
)

#: Calls whose tracemalloc peak is recorded.
ALLOC_TRACED = {"pairwise_distances", "cross_distances", "kmst"}

LAYERS = ("metricspace", "spanning", "ecd", "numerics", "setmeasures", "experiments", "cli")


def replace_everywhere(original, replacement) -> list:
    """Point every loaded ecdkit module attribute bound to `original` at
    `replacement`; returns (module, name, original) records for undo."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ecdkit" or modname.startswith("ecdkit.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))
    return undo


def restore(undo: list) -> None:
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []  # (sid, parent, layer, name, t0, t1, tag)
        self.counts = defaultdict(float)
        self.alloc_mib = defaultdict(float)  # function name -> peak of first call
        self.fingerprints = defaultdict(set)  # function name -> distinct outputs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc_enter(self, name: str):
        """Start tracking `name`'s first call; None for any later call."""
        with self._alloc_lock:
            if not self.alloc or name not in ALLOC_TRACED or name in self.alloc_mib:
                return None
            self.alloc_mib[name] = 0.0
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            return tracemalloc.get_traced_memory()[0]

    def _alloc_exit(self, name: str, base: int) -> None:
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            self.alloc_mib[name] = max(peak - base, 0) / _MIB

    def wrap(self, layer: str, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            tag = getattr(tracer._local, "tag", "")
            if name == "_grid_cell":
                # cell config: (base_seed, kind_a, kind_b, dim, n, k)
                tag = tracer._local.tag = "{}/{}".format(args[0][1], args[0][2])
            stack.append(sid)
            base = tracer._alloc_enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if base is not None:
                    tracer._alloc_exit(name, base)
                stack.pop()
                if name == "_grid_cell":
                    tracer._local.tag = ""
                tracer.spans.append((sid, parent, layer, name, t0, t1, tag))
            if observe is not None:
                counts, fingerprint = observe(args, result)
                for key, value in counts.items():
                    tracer.counts[key] += value
                if fingerprint is not None:
                    tracer.fingerprints[name].add(fingerprint)
            return result

        return traced

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of its own."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, fname, observe in TARGETS:
            mod = importlib.import_module("ecdkit." + modname)
            original = getattr(mod, fname, None)
            if original is None:
                continue
            self._undo += replace_everywhere(original, self.wrap(modname, fname, original, observe))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- export ------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        """Write spans and counters once, as one JSON document."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "alloc_mib": dict(self.alloc_mib),
            "distinct": {k: len(v) for k, v in self.fingerprints.items()},
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class TraceData:
    """Spans and counters merged from the parent and any child processes.

    `alloc` tells workloads that spawn processes to trace allocations there.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []
        self.counts = defaultdict(float)
        self.alloc_mib = defaultdict(float)
        self.distinct = defaultdict(int)
        self.startups = []
        self._next_base = 0

    def add(self, spans, counts, alloc_mib, distinct, startup=None) -> None:
        # span ids are unique per process; offset them so merged ids stay unique
        base = self._next_base
        top = 0
        for sid, parent, layer, name, t0, t1, tag in spans:
            self.spans.append((sid + base, parent + base if parent else 0, layer, name, t0, t1, tag))
            top = max(top, sid)
        self._next_base = base + top + 1
        for key, value in counts.items():
            self.counts[key] += value
        for key, value in alloc_mib.items():
            self.alloc_mib[key] = max(self.alloc_mib[key], value)
        for key, value in distinct.items():
            self.distinct[key] += value
        if startup is not None:
            self.startups.append(startup)

    def add_tracer(self, tracer: Tracer) -> None:
        self.add(tracer.spans, tracer.counts, tracer.alloc_mib,
                 {k: len(v) for k, v in tracer.fingerprints.items()})

    def add_file(self, path) -> None:
        with open(path) as fh:
            doc = json.load(fh)
        self.add(doc["spans"], doc["counts"], doc["alloc_mib"], doc["distinct"], doc.get("startup_s"))


def per_layer_metrics(data: TraceData, items: int, wall_s: float, workers: int,
                      overhead_s: float) -> dict:
    """Every per-layer metric from merged spans.

    Times are seconds per item unless the name says otherwise; a layer the
    workload never enters reads 0.
    """
    spans = data.spans
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, parent, _layer, _name, t0, t1, _tag in spans:
        if parent:
            child_time[parent] += t1 - t0

    def names(*fnames):
        return [s for s in spans if s[3] in fnames]

    def outer(*fnames):
        """Summed duration of spans not nested in a span of the same group."""
        group = set(fnames)
        total = 0.0
        for s in names(*fnames):
            parent = s[1]
            while parent and by_id[parent][3] not in group:
                parent = by_id[parent][1]
            if not parent:
                total += s[5] - s[4]
        return total

    def self_time(*fnames):
        return sum(s[5] - s[4] - child_time[s[0]] for s in names(*fnames))

    def ratio(num, den):
        return num / den if den else 0.0

    n = max(items, 1)
    ingest = outer("load_feature_csv", "load_distance_csv")
    kmst_spans = names("kmst")
    kmst_total = sum(s[5] - s[4] for s in kmst_spans)
    tied_cells = len([s for s in names("_grid_cell") if s[6] == "binary/binary"])
    tied_kmst = sum(s[5] - s[4] for s in kmst_spans if s[6] == "binary/binary")
    cells = names("_grid_cell", "_sweep_cell")
    cell_busy = sum(s[5] - s[4] for s in cells)

    layer_self = defaultdict(float)
    for sid, _parent, layer, _name, t0, t1, _tag in spans:
        layer_self[layer] += t1 - t0 - child_time[sid]
    all_self = sum(layer_self.values())

    out = {
        "metricspace.ingest_s": (ingest / n, "s"),
        "metricspace.ingest_mb_per_s": (ratio(data.counts["ingest_bytes"] / _MIB, ingest), "MiB/s"),
        "metricspace.distances_s": (outer("pairwise_distances", "cross_distances") / n, "s"),
        "metricspace.distance_calls": (len(names("pairwise_distances", "cross_distances")) / n, "count"),
        "metricspace.distances_alloc_mb": (
            max(data.alloc_mib["pairwise_distances"], data.alloc_mib["cross_distances"]), "MiB"),
        "spanning.kmst_s": (kmst_total / n, "s"),
        "spanning.kmst_edges_per_s": (ratio(data.counts["edges"], kmst_total), "1/s"),
        "spanning.kmst_tied_s": (ratio(tied_kmst, tied_cells), "s"),
        "spanning.kmst_calls": (len(kmst_spans) / n, "count"),
        "spanning.kmst_useful_ratio": (ratio(data.distinct["kmst"], len(kmst_spans)), "ratio"),
        "spanning.kmst_alloc_mb": (data.alloc_mib["kmst"], "MiB"),
        "ecd.counts_s": (self_time("edge_counts") / n, "s"),
        "ecd.moments_s": (self_time("null_moments") / n, "s"),
        "ecd.self_s": (self_time("ecd", "ecd_from_distances") / n, "s"),
        "ecd.subsample_s": (outer("ecd_subsampled", "ecd_subsampled_from_distances") / n, "s"),
        "numerics.psd_sqrt_s": (outer("psd_sqrt") / n, "s"),
        "numerics.psd_sqrt_calls": (len(names("psd_sqrt")) / n, "count"),
        "setmeasures.frechet_s": (outer("frechet_gaussian") / n, "s"),
        "setmeasures.fit_gaussian_s": (outer("fit_gaussian") / n, "s"),
        "setmeasures.nn_s": (outer("coverage", "mmd", "coverage_from_cross",
                                   "mmd_from_cross", "measures_from_cross") / n, "s"),
        "experiments.cell_s": (ratio(cell_busy, len(cells)), "s"),
        "experiments.sample_s": (outer("sample") / n, "s"),
        "experiments.busy_ratio": (ratio(cell_busy, workers * wall_s) if cells else 0.0, "ratio"),
        "cli.startup_s": (ratio(sum(data.startups), len(data.startups)), "s"),
        "cli.self_s": (self_time("main") / n, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        out[layer + ".share"] = (ratio(layer_self[layer], all_self), "ratio")
    return out
