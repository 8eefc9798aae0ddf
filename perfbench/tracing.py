"""In-memory span tracing of sparse_abft layer calls, installed as shims.

A shim wraps one public function or method of a ``sparse_abft`` module and
records a span ``[name, start, end, parent, op]`` around every call. A plain
function is replaced in every loaded ``sparse_abft`` module namespace that
holds it, so calls the program makes between its own modules are recorded
too; a method is replaced on its class. Nothing under ``src/`` is edited.

Pool workers started with ``fork`` inherit installed shims, but the spans
they record stay in the worker. Trace serial calls only.
"""

from __future__ import annotations

import collections
import importlib
import os
import sys
import time

PACKAGE = "sparse_abft"
# layer (= sparse_abft module) -> public callables timed at its boundary
LAYERS = {
    "cli": ("main",),
    "campaign": ("run_campaigns", "run_campaign"),
    "driver": ("run_multiplication",),
    "tiling": ("tile_plan",),
    "systolic": ("SimState.run_tile", "SimState.load_weights"),
    "checker": (
        "CheckerState.actual_accumulate",
        "CheckerState.predicted_accumulate",
        "CheckerState.compare_and_reset",
        "CheckerState.digit_wave",
    ),
    "faults": ("sample_faults",),
    "registers": ("enumerate_registers",),
    "oracle": ("golden_result", "matmul_ref"),
    "sparsity": ("prune_magnitude", "unpack"),
    "matio": ("read_dense", "read_packed", "write_dense", "write_packed"),
}


def _count_run(counts, args, result):
    counts["systolic.cycles"] += result.total_cycles
    counts["checker.rounds"] += len(result.rounds)
    counts["checker.flagged_rounds"] += sum(1 for r in result.rounds if r.flag)


def _count_faults(counts, args, result):
    counts["faults.injected"] += len(result)
    counts["faults.array"] += sum(1 for f in result if f.register.owner.value == "array")


def _count_read(counts, args, result):
    counts["matio.bytes_read"] += os.path.getsize(args[0])


# exact counts recorded at the same boundaries as the spans
COUNTERS = {
    "driver.run_multiplication": _count_run,
    "faults.sample_faults": _count_faults,
    "matio.read_dense": _count_read,
    "matio.read_packed": _count_read,
}


class Tracer:
    """Records spans and counts while installed; restores everything on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1                    # identifier shared by one request's spans
        self._stack: list = []
        self._undo: list = []

    def _shim(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(prefix)]
        for layer, names in LAYERS.items():
            module = importlib.import_module(prefix + layer)
            for qualname in names:
                cls_name, _, attr = qualname.rpartition(".")
                if cls_name:
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self._shim(f"{layer}.{qualname}", cls.__dict__[attr]))
                    continue
                original = getattr(module, attr)
                shim = self._shim(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, shim)
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def summarize(spans) -> dict:
    """Per-function call counts and totals, per-layer self time, root time.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: collections.Counter = collections.Counter()
    total: collections.Counter = collections.Counter()
    layer_self: collections.Counter = collections.Counter({layer: 0.0 for layer in LAYERS})
    root = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        layer_self[name.split(".", 1)[0]] += (end - start) - child[i]
        if parent < 0:
            root += end - start
    return {"calls": calls, "total_s": total, "layer_self_s": layer_self, "root_s": root}
