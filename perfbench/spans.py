"""Outside-in span recorder for the dramn benchmark.

The program itself is not instrumented. While a `Tracer` is installed it
replaces every public module-level function of each layer module with a
timing wrapper, in every `dramn` namespace that bound the function (so
`from .adjacency import build_adjacency` copies are wrapped too), and
patches `ScenarioTensorCache` to read its hit/miss counters and the sizes
of the files it touches. Uninstalling restores the original objects.

Spans live in memory as lists ``[name, start, end, parent, run, size]``
until the run ends; they are then written out as JSON lines and every
per-layer metric is derived from that file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "datagen", "dmd", "adjacency", "store", "model", "training",
          "evaluation", "selection")

# Per-layer metrics as (name, unit); README.md gives the meaning of each.
PER_LAYER = (
    ("cli.generate_s", "s"), ("cli.train_s", "s"), ("cli.evaluate_s", "s"),
    ("cli.select_s", "s"), ("cli.self_ms", "ms"),
    ("datagen.synthesize_ms", "ms"), ("datagen.scenarios", "count"),
    ("datagen.window_self_ms", "ms"),
    ("dmd.dmd_ms", "ms"), ("dmd.svd_ms", "ms"), ("dmd.eig_ms", "ms"),
    ("dmd.windows", "count"),
    ("adjacency.build_ms", "ms"), ("adjacency.self_ms", "ms"),
    ("store.save_ms", "ms"), ("store.load_ms", "ms"),
    ("store.scenario_loads", "count"), ("store.cache_hits", "count"),
    ("store.cache_misses", "count"), ("store.cache_hit_ratio", "1"),
    ("store.bytes_written", "bytes_computed"), ("store.bytes_read", "bytes_computed"),
    ("model.forward_b1_ms", "ms"), ("model.forward_batch_ms", "ms"),
    ("model.forward_calls", "count"),
    ("training.backward_ms", "ms"), ("training.adamw_ms", "ms"),
    ("training.stack_inputs_ms", "ms"), ("training.batches", "count"),
    ("training.epochs", "count"),
    ("evaluation.predict_ms", "ms"), ("evaluation.predict_samples", "count"),
    ("selection.build_report_ms", "ms"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def _size(name, args, result):
    """The work size a span records: batch rows, scored samples or epochs."""
    if name == "model.forward_trace_batch":
        return len(args[0])
    if name == "evaluation.predict_proba":
        return len(args[1])
    if name == "training.train":
        return len(result.history)
    return 0


# store functions whose file I/O is counted, mapped to the path they touch
_STORE_WRITES = {
    "store.save_scenario": lambda args, res: res,
    "store.write_manifest": lambda args, res: res,
    "store.write_table": lambda args, res: args[0],
    "store.write_json_report": lambda args, res: args[0],
}
_STORE_READS = {
    "store.load_scenario": lambda args, res: args[0],
    "store.read_scenario_header": lambda args, res: args[0],
    "store.read_manifest": lambda args, res: os.path.join(args[0], "manifest.json"),
}


class Tracer:
    """Records spans around calls into the dramn layers while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = 0
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        writes, reads = _STORE_WRITES.get(name), _STORE_READS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _size(name, args, result)
            if writes is not None:
                self.counts["bytes_written"] += os.path.getsize(writes(args, result))
            elif reads is not None:
                self.counts["bytes_read"] += os.path.getsize(reads(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span (one set-up or one pass) with a fresh run id."""
        self.run += 1
        rec = [name, time.perf_counter(), 0.0, -1, self.run, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dramn.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "dramn" or name.startswith("dramn.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        self._patch_cache(importlib.import_module("dramn.store").ScenarioTensorCache)
        return self

    def _patch_cache(self, cls):
        tracer = self
        traced_init = self._wrap("store.ScenarioTensorCache.__init__", cls.__init__)
        traced_flush = self._wrap("store.ScenarioTensorCache.flush", cls.flush)

        def counted_init(cache, *args, **kwargs):
            traced_init(cache, *args, **kwargs)
            cache._bench_seen = (0, 0)
            if cache.entries:
                tracer.counts["bytes_read"] += os.path.getsize(cache.path)

        def counted_flush(cache):
            dirty = cache._dirty
            traced_flush(cache)
            hits, misses = getattr(cache, "_bench_seen", (0, 0))
            tracer.counts["cache_hits"] += cache.hits - hits
            tracer.counts["cache_misses"] += cache.misses - misses
            cache._bench_seen = (cache.hits, cache.misses)
            if dirty:
                tracer.counts["bytes_written"] += os.path.getsize(cache.path)

        self._set(cls, "__init__", counted_init)
        self._set(cls, "flush", counted_flush)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write the recorded spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "size": size}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def read_spans(path):
    """(spans, counts) from a file written by `Tracer.write`."""
    spans, counts = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "counts" in obj:
                counts = obj["counts"]
            else:
                spans.append(obj)
    return spans, counts


def _layer(name):
    return name.split(".", 1)[0]


def own_times(spans):
    """Per span: its duration minus the time its subtree spent in other layers.

    A child in the same layer gives back only the part of its own time that
    it spent in other layers, so nested calls within one layer count once.
    """
    own = [s["end"] - s["start"] for s in spans]
    foreign = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        own[i] -= foreign[i]
        parent = spans[i]["parent"]
        if parent >= 0:
            dur = spans[i]["end"] - spans[i]["start"]
            same = _layer(spans[parent]["name"]) == _layer(spans[i]["name"])
            foreign[parent] += dur - own[i] if same else dur
    return own


def layer_metrics(spans, counts, overhead_s):
    """Every per-layer metric value, keyed by name."""
    own = own_times(spans)
    durs = defaultdict(list)
    owns = defaultdict(list)
    sizes = defaultdict(list)
    for s, o in zip(spans, own):
        durs[s["name"]].append(s["end"] - s["start"])
        owns[s["name"]].append(o)
        sizes[s["name"]].append(s["size"])

    def mean(values, scale=1e3):
        return scale * sum(values) / len(values) if values else 0.0

    fwd = list(zip(durs["model.forward_trace_batch"], sizes["model.forward_trace_batch"]))
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)
    return {
        "cli.generate_s": mean(durs["cli.cmd_generate"], 1.0),
        "cli.train_s": mean(durs["cli.cmd_train"], 1.0),
        "cli.evaluate_s": mean(durs["cli.cmd_evaluate"], 1.0),
        "cli.select_s": mean(durs["cli.cmd_select"], 1.0),
        "cli.self_ms": (1e3 * sum(sum(owns[n]) for n in owns if _layer(n) == "cli")
                        / len(durs["cli.main"]) if durs["cli.main"] else 0.0),
        "datagen.synthesize_ms": mean(durs["datagen.synthesize_scenario"]),
        "datagen.scenarios": len(durs["datagen.synthesize_scenario"]),
        "datagen.window_self_ms": mean(owns["datagen.window_dataset"]),
        "dmd.dmd_ms": mean(durs["dmd.dmd"]),
        "dmd.svd_ms": mean(durs["dmd.truncated_svd"]),
        "dmd.eig_ms": mean(durs["dmd.eig_small"]),
        "dmd.windows": len(durs["dmd.dmd"]),
        "adjacency.build_ms": mean(durs["adjacency.build_adjacency"]),
        "adjacency.self_ms": mean(owns["adjacency.build_adjacency"]),
        "store.save_ms": mean(durs["store.save_scenario"]),
        "store.load_ms": mean(durs["store.load_scenario"]),
        "store.scenario_loads": len(durs["store.load_scenario"]),
        "store.cache_hits": hits,
        "store.cache_misses": misses,
        "store.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes_written": counts.get("bytes_written", 0),
        "store.bytes_read": counts.get("bytes_read", 0),
        "model.forward_b1_ms": mean([d for d, b in fwd if b == 1]),
        "model.forward_batch_ms": mean([d for d, b in fwd if b > 1]),
        "model.forward_calls": len(fwd),
        "training.backward_ms": mean(durs["training.backward_batch"]),
        "training.adamw_ms": mean(durs["training.adamw_step"]),
        "training.stack_inputs_ms": mean(durs["training.stack_inputs"]),
        "training.batches": len(durs["training.backward_batch"]),
        "training.epochs": sum(sizes["training.train"]),
        "evaluation.predict_ms": mean(durs["evaluation.predict_proba"]),
        "evaluation.predict_samples": sum(sizes["evaluation.predict_proba"]),
        "selection.build_report_ms": mean(durs["selection.build_report"]),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
