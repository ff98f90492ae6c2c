"""In-process span tracer for the ticketsift modules.

``Tracer.unit(kind)`` wraps every public function of the package's modules
for the duration of one unit of benchmark work (one operation or one
set-up), then puts the original functions back. Every module attribute that
refers to a wrapped function is patched, not only the defining one: the
trainer calls ``loss_and_grads`` and the pruner calls ``train`` through their
own module globals, so patching ``ticketsift.network`` alone would miss them.

Spans are kept in memory as (name, start, end, parent, unit) tuples, where
parent is the index of the enclosing traced call. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "ticketsift"
MODULES = ("datasets", "network", "trainer", "pruner", "reports", "observables", "cli")


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "train")
    return f"network.forward.{mode}"


def _command_namer(fn_name):
    """cli.cmd_analyze is one function for six commands; name each span after
    the command line it serves, matching the end-to-end latency metrics."""

    def name(args, kwargs):
        ns = args[0]
        cmd = ns.observable if fn_name == "cmd_analyze" else fn_name[len("cmd_"):]
        cmd = cmd.replace("-", "_")
        if cmd == "locality" and ns.layer > 1:
            cmd = "locality_deep"
        return f"cli.{cmd}"

    return name


def _pairs(args, kwargs):
    """Ordered pairs of distinct same-channel (or cross-channel) inputs that
    feed one node, summed over nodes: the work locality_map has to count."""
    matrix, geom = args[0], args[1]
    mode = kwargs.get("channel_mode", args[2] if len(args) > 2 else "same")
    plane = geom.width * geom.height
    per_channel = matrix.reshape(geom.channels, plane, matrix.shape[1]).sum(axis=1, dtype="int64")
    same = int((per_channel * (per_channel - 1)).sum())
    if mode == "same":
        return same
    total = per_channel.sum(axis=0)
    return int((total * (total - 1)).sum()) - same


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


COUNTERS = {
    "observables.locality_map": ("pairs", _pairs),
    "reports.save_checkpoint": ("bytes", _file_bytes),
    "reports.save_masks": ("bytes", _file_bytes),
}


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list = []
        self.counts = defaultdict(int)  # (unit, name, counter) -> value
        self.units: list = []  # kind of each unit, by index
        self.empty: set = set()  # spans whose work counter read 0
        self._stack: list = []
        self._unit = None
        self._wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrappers[obj] = self._wrap(obj, f"{short}.{attr}")

    def _wrap(self, fn, name):
        namer = _forward_name if name == "network.forward" else None
        if name.startswith("cli.cmd_"):
            namer = _command_namer(fn.__name__)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            unit = tracer._unit
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[(unit, label, "errors")] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (label, start, end, parent, unit)
            tracer.counts[(unit, label, "calls")] += 1
            if counter:
                work = counter[1](args, kwargs)
                tracer.counts[(unit, label, counter[0])] += work
                if not work:
                    tracer.empty.add(index)
            return result

        return traced

    @contextlib.contextmanager
    def unit(self, kind: str):
        """Trace one unit of work ("op" or "setup") with the wrappers installed."""
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(mod, attr, self._wrappers[obj])
                    patched.append((mod, attr, obj))
        self._unit = len(self.units)
        self.units.append(kind)
        try:
            yield
        finally:
            self._unit = None
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def stats(self) -> dict:
        """Every statistic of every traced name, as {metric name: value}.

        ``ms_p50``/``self_ms_p50`` are medians over calls, leaving out calls
        whose work counter read 0 (empty locality bins); ``ms``/``self_ms``/
        ``self_s`` are medians, over the units that call the function, of the
        unit's total; ``calls`` and the counters (``bytes``, ``pairs``) are
        per traced operation, as a median over operations, so a deterministic
        count repeats exactly; ``errors`` is the total over every unit.
        """
        child = defaultdict(float)
        for label, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_call = defaultdict(list)
        per_call_self = defaultdict(list)
        per_unit = defaultdict(lambda: defaultdict(float))
        per_unit_self = defaultdict(lambda: defaultdict(float))
        for i, (label, start, end, _, unit) in enumerate(self.spans):
            dur = end - start
            if i not in self.empty:
                per_call[label].append(dur)
                per_call_self[label].append(dur - child[i])
            per_unit[label][unit] += dur
            per_unit_self[label][unit] += dur - child[i]
        ops = [u for u, kind in enumerate(self.units) if kind == "op"]
        out = {}
        for label in sorted(per_unit):
            if per_call[label]:
                out[f"{label}.ms_p50"] = 1e3 * statistics.median(per_call[label])
                out[f"{label}.self_ms_p50"] = 1e3 * statistics.median(per_call_self[label])
            out[f"{label}.ms"] = 1e3 * statistics.median(per_unit[label].values())
            out[f"{label}.self_ms"] = 1e3 * statistics.median(per_unit_self[label].values())
            out[f"{label}.self_s"] = out[f"{label}.self_ms"] / 1e3
        for label in per_unit:
            out[f"{label}.errors"] = 0
        for (_, label, key), value in list(self.counts.items()):
            if key == "errors":
                out[f"{label}.errors"] += value
            elif ops:
                out[f"{label}.{key}"] = statistics.median(self.counts.get((u, label, key), 0) for u in ops)
        steps = sum(out.get(f"trainer.{f}.calls", 0) for f in ("sgd_step", "adam_step"))
        out["trainer.steps"] = steps
        train_s = [per_unit["trainer.train"][u] for u in ops if u in per_unit["trainer.train"]]
        out["trainer.steps_per_s"] = steps / statistics.median(train_s) if steps and train_s else 0.0
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer creation."""
        with open(path, "w") as f:
            for i, (label, start, end, parent, unit) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": label, "start": start - self.origin, "end": end - self.origin,
                    "parent": parent, "unit": unit, "unit_kind": self.units[unit],
                }) + "\n")
