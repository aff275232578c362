"""Seeded benchmark of the nashflow pipeline.

    python3 perfbench/run.py --workload equilibria --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and the corpus and thin-flow oracle from ``tests/``.  One process,
one thread, standard library only.

A run sets up (import, input generation, validation), runs one warm-up pass
whose outputs are checked independently, then repeats timed passes over the
same inputs for ``--seconds``, each after a full garbage collection; every
timed pass must reproduce the warm-up outputs.  Set-up is timed again after
every timed pass, so that its median, like the pass medians, spans the whole
run rather than one moment of a machine whose speed drifts.

Shared machines drift in speed by tens of percent over minutes, for all
Python code alike.  A fixed loop of exact ``Fraction`` sums, the speed
gauge, is timed after every set-up and every timed pass, and the reported
times are the measured medians scaled by ``GAUGE_S`` over the gauge's median:
seconds at the speed where the gauge takes ``GAUGE_S``.  The summary lines
print the unscaled medians and the gauge too.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the program's layers are traced and
the object holds the per-layer metrics instead.  Result dumps and span files
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/nashflow/__init__.py", "tests/corpus.py", "tests/oracle.py")
LAYER_MODULES = ("timefn", "netmodel", "loading", "labels", "thinflow", "nash")
SETUP_FIRST = 3  # set-ups before the warm-up; one more follows each timed pass
GAUGE_S = 0.14  # the speed gauge's time at the reference speed
MIN_TIMED_PASSES = 2


class Program(SimpleNamespace):
    """The freshly imported nashflow modules, by layer name."""

    def modules(self) -> list:
        return [self.package] + [getattr(self, m) for m in LAYER_MODULES]


def _imported() -> list:
    return [name for name in sys.modules
            if name in ("nashflow", "corpus") or name.startswith("nashflow.")]


def load_program() -> Program:
    """Import nashflow (and the corpus) anew, discarding earlier imports."""
    for name in _imported():
        del sys.modules[name]
    package = importlib.import_module("nashflow")
    layers = {m: importlib.import_module(f"nashflow.{m}") for m in LAYER_MODULES}
    return Program(package=package, **layers)


def set_up(workload, seed):
    """Import, generate the inputs and validate them: (seconds, program, items)."""
    t0 = time.perf_counter()
    program = load_program()
    items = workload.generate(program, seed)
    return time.perf_counter() - t0, program, items


def time_set_up(workload, seed) -> float:
    """Time one more set-up, then put back the modules the run uses, so that
    imports inside the program keep resolving to them."""
    kept = {name: sys.modules[name] for name in _imported()}
    seconds, _, _ = set_up(workload, seed)
    for name in _imported():
        del sys.modules[name]
    sys.modules.update(kept)
    return seconds


def gauge() -> float:
    """Seconds for a fixed loop of exact Fraction sums (the speed gauge)."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(50000):
        total += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def note(problem: str):
    print(f"perfbench: {problem}", file=sys.stderr)


class Run:
    """One workload's passes: timings, outputs and failed operations."""

    def __init__(self, program, workload, items, tracer):
        self.program, self.workload, self.items, self.tracer = program, workload, items, tracer
        self.solve: list = []      # per pass, summed over items
        self.certify: list = []
        self.attempted = 0
        self.failed = 0
        self.reference: list = []  # warm-up (output, verdict) per item
        self.bad_items: set = set()  # items whose warm-up output failed a check
        self.correct = True

    def one_pass(self, index: int):
        solve_s = certify_s = 0.0
        results = []
        for k, item in enumerate(self.items):
            self.attempted += 1
            try:
                self._at(index, k, "solve")
                t0 = time.perf_counter()
                output = self.workload.solve(self.program, item)
                t1 = time.perf_counter()
                self._at(index, k, "certify")
                certificate = self.workload.certify(self.program, item, output)
                t2 = time.perf_counter()
            except Exception as exc:  # counted as a failed operation
                self.failed += 1
                note(f"pass {index}, {item.name}: {type(exc).__name__}: {exc}")
                results.append(None)
                continue
            finally:
                self._at(-1, -1, "")
            solve_s += t1 - t0
            certify_s += t2 - t1
            results.append((output, self.workload.verdict(certificate), certificate))
        return solve_s, certify_s, results

    def _at(self, index, k, stage):
        if self.tracer is not None:
            self.tracer.where = (index, k, stage)

    def _untraced(self):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.paused()

    def warm_up(self):
        """Pass 0: untimed; its outputs are checked independently and kept
        as the reference every timed pass must reproduce."""
        _, _, results = self.one_pass(0)
        with self._untraced():
            for k, (item, result) in enumerate(zip(self.items, results)):
                if result is None:
                    self.reference.append(None)
                    continue
                output, verdict, certificate = result
                checked = self.workload.check(self.program, item, output, certificate)
                if checked:
                    self.correct = False
                for problem in verdict + checked:
                    note(f"{item.name}: {problem}")
                if verdict or checked:
                    self.failed += 1
                    self.bad_items.add(k)
                self.reference.append((output, verdict))

    def timed_pass(self, index: int):
        gc.collect()  # every pass starts from the same heap
        solve_s, certify_s, results = self.one_pass(index)
        self.solve.append(solve_s)
        self.certify.append(certify_s)
        with self._untraced():
            for k, (item, result, reference) in enumerate(zip(self.items, results,
                                                               self.reference)):
                if result is None:
                    continue
                if reference is None or (result[0], result[1]) != reference:
                    self.correct = False
                    self.failed += 1
                    note(f"pass {index}, {item.name}: output differs from the warm-up pass")
                elif k in self.bad_items:
                    self.failed += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not __debug__:
        print("perfbench: run without -O; the program's invariant asserts "
              "would be stripped", file=sys.stderr)
        return 2
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a nashflow checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    workload = workloads.WORKLOADS[args.workload]

    setup, gauges = [], []
    for _ in range(SETUP_FIRST):
        seconds, program, items = set_up(workload, args.seed)
        setup.append(seconds)
        gauges.append(gauge())

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(program)
        tracer.install()
        tracer.enabled = True
    run = Run(program, workload, items, tracer)
    run.warm_up()
    gc.collect()
    gc.freeze()  # the reference outputs stay out of later collections
    deadline = time.perf_counter() + args.seconds
    index = 1
    while index <= MIN_TIMED_PASSES or time.perf_counter() < deadline:
        run.timed_pass(index)
        setup.append(time_set_up(workload, args.seed))
        gauges.append(gauge())
        index += 1
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()

    timed = list(range(1, index))
    solve_s, certify_s, setup_s = map(statistics.median, (run.solve, run.certify, setup))
    pass_s = statistics.median(s + c for s, c in zip(run.solve, run.certify))
    ok_items = len(items) - len(run.bad_items)
    scale = GAUGE_S / statistics.median(gauges)
    summary = [f"workload {args.workload}, seed {args.seed}: {len(items)} items, "
               f"{len(timed)} timed passes",
               f"  unscaled: solve_s {solve_s:.6f} s, certify_s {certify_s:.6f} s, "
               f"setup_s {setup_s:.6f} s; gauge median {statistics.median(gauges):.6f} s "
               f"over {len(gauges)} readings, scale {scale:.4f}"]
    if tracer is None:
        metrics = {
            "solve_s": (solve_s * scale, "s"),
            "certify_s": (certify_s * scale, "s"),
            "items_per_s": (ok_items / (pass_s * scale) if pass_s else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s * scale, "s"),
        }
    else:
        sizes = {k: item.size for k, item in enumerate(items)}
        layer = tracer.metrics(timed, sizes)
        units = dict(tracing.metric_names())
        metrics = {name: (layer[name], units[name]) for name in units}
        summary += _trace_summary(tracer, timed, run)
    for name, (value, unit) in metrics.items():
        summary.append(f"  {name:48s} {value:14.6f} {unit}")
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(out / f"spans-{stem}.jsonl", timed[0])
    (out / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n",
                                             encoding="utf-8")
    print("\n".join(summary))
    print(json.dumps(result))
    return 0


def _trace_summary(tracer, timed, run) -> list:
    """Traced stage times and each layer's share of them, for the README."""
    solve_s, certify_s = statistics.median(run.solve), statistics.median(run.certify)
    lines = [f"  traced solve_s {solve_s:.6f} s, certify_s {certify_s:.6f} s"]
    for (stage, layer), t in tracer.stage_self_times(timed).items():
        whole = solve_s if stage == "solve" else certify_s
        lines.append(f"  self time in {layer:9s} during {stage:8s} {t:10.6f} s "
                     f"({t / whole:6.1%} of traced {stage}_s)")
    return lines


if __name__ == "__main__":
    sys.exit(main())
