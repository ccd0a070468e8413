"""Tracing from outside the library: span wrappers around each module's
public functions, call counters on the hot methods, and the per-layer
metrics derived from them.

Spans record name, start, end, parent span and op id, stay in memory and
are written as JSON lines when the run ends.  Hot methods (the Endpoint
comparison and mpf evaluation, Spectrum.enumerate_integers and
AvdoninFilter.elements_in) get a call counter and accumulated time instead
of one span per call.  A span's self time is its duration minus the time of
its child spans and hot calls.  Only calls made inside an op are recorded,
so the benchmark's own output checks never show up.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("intervals", "arith", "minors", "spectra", "assembly", "verify", "cli")
SET_OPS = ("union", "intersect", "difference", "symmetric_difference", "complement")
HOT = (
    ("intervals", "Endpoint", "_cmp"),
    ("intervals", "Endpoint", "mpf"),
    ("spectra", "Spectrum", "enumerate_integers"),
    ("spectra", "AvdoninFilter", "elements_in"),
)
CMP = "intervals.Endpoint._cmp"
MPF = "intervals.Endpoint.mpf"
ENUMERATE = "spectra.Spectrum.enumerate_integers"
FILTER = "spectra.AvdoninFilter.elements_in"


class Tracer:
    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, op, self_s)
        self.stack = []   # open frames: [start, child_s, id seen by children]
        self.hot = {}     # name -> [calls, inclusive_s, self_s, calls that evaluated mpf]
        self.counts = defaultdict(float)
        self.op = None
        self._ids = itertools.count()

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, observe=None):
        stack, spans, ids, clock, tracer = self.stack, self.spans, self._ids, time.perf_counter, self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][2]
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stack[-1][1] += dur
                spans.append((sid, name, frame[0], end, parent, tracer.op, dur - frame[1]))
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def generator_span(self, name, fn, observe=None):
        """A generator function does its work while it is iterated, so each
        resumption becomes one span of the same name."""
        resume = self.span(name, next)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            items = []
            try:
                while True:
                    try:
                        item = resume(gen)
                    except StopIteration:
                        return
                    items.append(item)
                    yield item
            finally:
                if observe is not None and self.stack:
                    observe(self.counts, args, items)

        return traced

    def hot_method(self, name, fn, watch=None, observe=None):
        stack, clock, counts = self.stack, time.perf_counter, self.counts
        rec = self.hot.setdefault(name, [0, 0.0, 0.0, 0])

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0, stack[-1][2]]
            stack.append(frame)
            seen = watch[0] if watch is not None else 0
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, result)
                return result
            finally:
                dur = clock() - frame[0]
                stack.pop()
                stack[-1][1] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if watch is not None and watch[0] != seen:
                    rec[3] += 1

        return traced

    def run_op(self, op_id: str, name: str, fn, *args):
        """Run one op as a root span; every recorded call nests under it."""
        self.op = op_id
        root = self.span("op." + name, fn)
        self.stack.append([0.0, 0.0, None])  # sentinel so the root is recorded
        try:
            return root(*args)
        finally:
            self.stack.pop()
            self.op = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module, in every
        rieszspectra namespace that binds them, plus the set operations and
        the hot methods."""
        mods = {layer: importlib.import_module(f"rieszspectra.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                make = self.generator_span if inspect.isgeneratorfunction(obj) else self.span
                wrapped[id(obj)] = (obj, make(name, obj, OBSERVERS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "rieszspectra" and not modname.startswith("rieszspectra."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        interval_set = mods["intervals"].IntervalSet
        for attr in SET_OPS:
            name = f"intervals.IntervalSet.{attr}"
            setattr(interval_set, attr, self.span(name, getattr(interval_set, attr)))
        mpf_rec = self.hot.setdefault(MPF, [0, 0.0, 0.0, 0])
        for layer, cls_name, attr in HOT:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{cls_name}.{attr}"
            watch = mpf_rec if name == CMP else None
            wrapper = self.hot_method(name, getattr(cls, attr), watch, OBSERVERS.get(name))
            setattr(cls, attr, wrapper)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "self")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self, passes: int, op_names) -> dict:
        """Per-layer metrics, per pass.  ``*_s`` names are inclusive times of
        the outermost calls; ``self_s`` and ``build_s``/``eig_s`` are self
        times."""
        spans = self.spans
        parent = {s[0]: s[4] for s in spans}
        name_of = {s[0]: s[1] for s in spans}

        def nearest(sid, names):
            sid = parent[sid]
            while sid is not None:
                if name_of[sid] in names:
                    return sid
                sid = parent[sid]
            return None

        def inclusive(*names, minus=()):
            names = set(names)
            total = sum(
                s[3] - s[2] for s in spans if s[1] in names and nearest(s[0], names) is None
            )
            inner = set(minus)
            for s in spans:
                if (
                    s[1] in inner
                    and nearest(s[0], inner) is None
                    and nearest(s[0], names) is not None
                ):
                    total -= s[3] - s[2]
            return total

        def self_time(*names):
            return sum(s[6] for s in spans if s[1] in names)

        layer_self = defaultdict(float)
        for s in spans:
            layer_self[s[1].split(".")[0]] += s[6]
        for name, rec in self.hot.items():
            layer_self[name.split(".")[0]] += rec[2]
        op_time = defaultdict(float)
        for s in spans:
            if s[4] is None:
                op_time[s[1][3:]] += s[3] - s[2]

        def hot(name):
            return self.hot.get(name, (0, 0.0, 0.0, 0))

        c = self.counts
        fold = sum(1 for s in spans if s[1] == "intervals.fold_pattern")
        cmp_calls = hot(CMP)[0]
        m = {
            "intervals.fold_pattern_s": inclusive("intervals.fold_pattern"),
            "intervals.fold_calls": fold,
            "intervals.fold_cells": c["fold_cells"],
            "intervals.setop_s": inclusive(*(f"intervals.IntervalSet.{a}" for a in SET_OPS)),
            "intervals.cmp_calls": cmp_calls,
            "intervals.cmp_s": hot(CMP)[1],
            "intervals.cmp_mpf_frac": hot(CMP)[3] / cmp_calls if cmp_calls else 0.0,
            "intervals.mpf_calls": hot(MPF)[0],
            "arith.relation_probe_s": inclusive("arith.rational_relation_probe"),
            "arith.prime_scan_s": inclusive(
                "arith.ordering_primes", minus=("arith.rational_relation_probe",)
            ),
            "arith.primes_scanned": c["primes_scanned"],
            "arith.scan_yield": (
                c["admissible_primes"] / c["primes_scanned"] if c["primes_scanned"] else 0.0
            ),
            "arith.weyl_s": inclusive("arith.weyl_discrepancy"),
            "minors.chebotarev_s": inclusive("minors.chebotarev_check"),
            "minors.minors_checked": c["minors_checked"],
            "minors.c_prime_s": inclusive("minors.c_prime_bound"),
            "spectra.enumerate_s": hot(ENUMERATE)[1],
            "spectra.enumerated_ints": c["enumerated_ints"],
            "spectra.filter_s": hot(FILTER)[1],
            "assembly.build_s": self_time(
                "assembly.construct_hierarchy", "assembly.construct_hierarchy_with_prime"
            ),
            "assembly.complement_s": inclusive("assembly.complement_integer_spectrum"),
            "assembly.subset_s": inclusive("assembly.subset_spectrum"),
            "verify.gram_s": inclusive("verify.gram_matrix"),
            "verify.gram_n_max": c["gram_n_max"],
            "verify.gram_entries": c["gram_entries"],
            "verify.gram_bytes_computed": 16 * c["gram_entries"],
            "verify.eig_s": self_time("verify.riesz_bounds_estimate"),
            "verify.density_s": inclusive("verify.density_check"),
            "verify.folding_probe_s": inclusive("verify.folding_probe"),
            "verify.probe_trials": c["probe_trials"],
            "cli.report_bytes": c["report_bytes"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["bench.glue_s"] = layer_self["op"]
        m["trace.spans"] = len(spans)
        for name in op_names:
            m[f"op.{name}_s"] = op_time[name]
        per_pass = {k: v / passes for k, v in m.items() if not k.endswith(("_frac", "_yield", "n_max"))}
        m.update(per_pass)
        return m


# -- counters taken from arguments and return values ----------------------


def _fold_cells(counts, args, result):
    counts["fold_cells"] += args[0]


def _scan(counts, args, found):
    # primes scanned up to the last admissible prime the caller consumed
    if found:
        counts["primes_scanned"] += found[-1].candidates_scanned
        counts["admissible_primes"] += len(found)


def _gram(counts, args, G):
    n = G.shape[0]
    counts["gram_entries"] += n * n
    counts["gram_n_max"] = max(counts["gram_n_max"], n)


def _enumerated(counts, args, ints):
    counts["enumerated_ints"] += len(ints)


def _chebotarev(counts, args, report):
    counts["minors_checked"] += report.specs_checked


def _folding(counts, args, report):
    counts["probe_trials"] += report.trials


OBSERVERS = {
    "intervals.fold_pattern": _fold_cells,
    "arith.ordering_primes": _scan,
    "verify.gram_matrix": _gram,
    ENUMERATE: _enumerated,
    "minors.chebotarev_check": _chebotarev,
    "verify.folding_probe": _folding,
}
