"""Per-layer tracing of the nashflow modules, from outside the program.

``Tracer.install`` wraps each listed public function and rebinds the wrapper
under every name that any nashflow module holds for it, so calls between
modules are recorded too.  A span is (function, parent span, pass, item,
stage, start, end); spans stay in memory and ``write_spans`` writes those of
one pass out once, at the end.  Self time is a span's duration minus its
direct child spans.  Work counts are read off the wrapped functions' return
values, and ``Instance.out_arcs``/``in_arcs`` calls are counted without spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

# layer (module) -> the public functions traced in it
LAYERS = {
    "timefn": ("compose", "min_compose", "min_preimage", "integrate", "differentiate"),
    "netmodel": ("validate_instance", "transit_distances", "extend_with_super_sink"),
    "loading": ("load_network", "derive_profile", "check_feasibility"),
    "labels": ("earliest_arrival", "extend_labels", "waiting_from_labels",
               "foreign_rate_at"),
    "thinflow": ("solve_thinflow_single", "solve_thinflow_multisource", "decompose",
                 "verify_multicommodity_thinflow"),
    "nash": ("construct_nash_single", "construct_common_destination",
             "construct_common_origin", "verify_nash", "check_derivatives_thinflow"),
}


def _label_breakpoints(labelsets) -> int:
    return sum(len(f.breakpoints) for ls in labelsets for f in ls.labels.values())


# traced function -> (count name, how counts combine, reading of the result,
# whether only calls made by the benchmark itself count)
COUNTS = {
    "loading.load_network": ("loading.outflow_breakpoints", sum,
                             lambda r: sum(len(f.breakpoints) for f in r[0].outflow.values()),
                             False),
    "labels.earliest_arrival": ("labels.label_breakpoints", sum,
                                lambda r: _label_breakpoints([r]), False),
    "labels.extend_labels": ("labels.label_breakpoints", sum,
                             lambda r: _label_breakpoints(
                                 (r[0] if isinstance(r, tuple) else r).values()), False),
    "thinflow.solve_thinflow_single": ("thinflow.active_arcs_max", max,
                                       lambda r: len(r.active), False),
    "thinflow.solve_thinflow_multisource": ("thinflow.active_arcs_max", max,
                                            lambda r: len(r.active), False),
    "thinflow.verify_multicommodity_thinflow": ("thinflow.verify_pieces", sum,
                                                lambda r: sum(map(len, r.pieces.values())),
                                                False),
    "nash.construct_nash_single": ("nash.phases", sum, lambda r: len(r.phases), True),
    "nash.construct_common_destination": ("nash.phases", sum, lambda r: len(r.phases), True),
    "nash.construct_common_origin": ("nash.phases", sum, lambda r: len(r.phases), True),
}

ADJACENCY = "netmodel.adjacency.calls"
DOUBLING = ("loading.load_network", "loading.check_feasibility")


def metric_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    names.append((ADJACENCY, "count"))
    names += sorted({(name, "count") for name, _, _, _ in COUNTS.values()})
    names += [(f"{fn}.doubling", "ratio") for fn in DOUBLING]
    return names


class Tracer:
    def __init__(self, program):
        self.program = program
        self.spans: list = []   # [name, parent, pass, item, stage, start, end]
        self.counts: dict = {}  # (pass, count name) -> [values]
        self.adjacency: dict = {}  # pass -> calls
        self.enabled = False
        self.where = (-1, -1, "")  # (pass, item, stage) of new spans
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------ setup

    def install(self):
        modules = self.program.modules()
        for layer, functions in LAYERS.items():
            home = getattr(self.program, layer)
            for fn in functions:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        instance = self.program.netmodel.Instance
        for attr in ("out_arcs", "in_arcs"):
            original = getattr(instance, attr)
            self._undo.append((instance, attr, original))
            setattr(instance, attr, self._count_adjacency(original))

    @contextlib.contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record = [name, stack[-1] if stack else -1, *self.where, 0.0, 0.0]
            top = not stack
            stack.append(len(spans))
            spans.append(record)
            record[5] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[6] = clock()
                stack.pop()
            if count is not None and (top or not count[3]):
                key = (self.where[0], count[0])
                self.counts.setdefault(key, []).append(count[2](result))
            return result

        return traced

    def _count_adjacency(self, method):
        @functools.wraps(method)
        def counted(instance, node):
            if self.enabled:
                pass_index = self.where[0]
                self.adjacency[pass_index] = self.adjacency.get(pass_index, 0) + 1
            return method(instance, node)

        return counted

    # ---------------------------------------------------------------- results

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k]
                for k, (_, _, _, _, _, start, end) in enumerate(self.spans)]

    def metrics(self, passes: list, sizes: dict) -> dict:
        """Per-layer metrics over the given passes: per-pass calls and self
        time (medians over passes), work counts per pass, adjacency calls per
        pass, and the self time at the larger size over the smaller one."""
        own = self.self_times()
        calls: dict = {}
        self_s: dict = {}
        by_size: dict = {}
        for (name, _, p, item, _, _, _), t in zip(self.spans, own):
            if p not in passes:
                continue
            calls[(p, name)] = calls.get((p, name), 0) + 1
            self_s[(p, name)] = self_s.get((p, name), 0.0) + t
            if name in DOUBLING:
                key = (p, name, sizes.get(item, 0))
                by_size[key] = by_size.get(key, 0.0) + t
        out = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = statistics.median(calls.get((p, name), 0)
                                                         for p in passes)
                out[f"{name}.self_s"] = statistics.median(self_s.get((p, name), 0.0)
                                                          for p in passes)
        out[ADJACENCY] = statistics.median(self.adjacency.get(p, 0) for p in passes)
        for name, combine, _, _ in COUNTS.values():
            out[name] = statistics.median(combine(self.counts.get((p, name), [0]))
                                          for p in passes)
        small = min(sizes.values(), default=0)
        for fn in DOUBLING:
            ratios = [by_size.get((p, fn, 2 * small), 0.0) / by_size[(p, fn, small)]
                      for p in passes if by_size.get((p, fn, small))]
            out[f"{fn}.doubling"] = statistics.median(ratios) if ratios and small else 0
        return out

    def stage_self_times(self, passes: list) -> dict:
        """(stage, layer) -> median over passes of the summed self time."""
        own = self.self_times()
        totals: dict = {}
        for (name, _, p, _, stage, _, _), t in zip(self.spans, own):
            if p in passes:
                key = (p, stage, name.split(".")[0])
                totals[key] = totals.get(key, 0.0) + t
        keys = {(stage, layer) for _, stage, layer in totals}
        return {k: statistics.median(totals.get((p, *k), 0.0) for p in passes)
                for k in sorted(keys)}

    def write_spans(self, path, pass_index: int):
        """The spans of one pass, one JSON array per line: id, parent id (-1
        at the top), function, pass, item, stage, start and end in seconds.
        One pass keeps the file small (every timed pass makes the same
        calls); the metrics use the spans of all timed passes."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, span in enumerate(self.spans):
                if span[2] == pass_index:
                    fh.write(json.dumps([k, *span]) + "\n")
