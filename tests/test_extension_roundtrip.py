"""Label extension cross-validation.

Feeding an equilibrium's own per-particle strategies into the label
extension must reproduce the flow's earliest-arrival labels exactly; for
arbitrary strategies the extension still satisfies the source-slope and
minimum conditions.
"""

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from nashflow import netmodel, timefn
from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import _anchor, derive_profile, load_network
from nashflow.labels import earliest_arrival, extend_labels, rate_over_time
from nashflow.thinflow import verify_multicommodity_thinflow
from nashflow.timefn import PwlFunction, StepFunction, compose, differentiate, integrate

import reference_kernels as reference
from corpus import corpus
from test_nash import _construct_by_mode

F = Fraction


def _equilibrium_strategies(instance, flow, labels_ref):
    strategies = {}
    for c in instance.commodities:
        for a in instance.arcs:
            lu = labels_ref[c.id].labels.get(a.tail)
            if lu is None:
                continue
            f_in = flow.inflow.get((c.id, a.id), StepFunction.zero())
            strategies[(c.id, a.id)] = differentiate(
                compose(integrate(f_in, _anchor(f_in)), lu))
    return strategies


def test_extension_reproduces_equilibrium_labels():
    for name, instance, horizon in corpus():
        result = _construct_by_mode(instance, horizon)
        inst = result.instance
        profile = derive_profile(inst, result.flow)
        labels_ref = {c.id: earliest_arrival(inst, profile, c.id)
                      for c in inst.commodities}
        strategies = _equilibrium_strategies(inst, result.flow, labels_ref)
        particle_horizon = max(c.particle_volume for c in inst.commodities)
        out = extend_labels(inst, strategies, particle_horizon)
        for c in inst.commodities:
            for v, ref in labels_ref[c.id].labels.items():
                got = out[c.id].labels[v]
                mesh = sorted(
                    {b for b in ref.breakpoints if 0 <= b <= particle_horizon}
                    | {b for b in got.breakpoints if 0 <= b <= particle_horizon}
                    | {F(0), particle_horizon})
                probes = mesh + [(a + b) / 2 for a, b in zip(mesh, mesh[1:])]
                for phi in probes:
                    assert got(phi) == ref(phi), (name, c.id, v, phi)


def _random_path_strategies(rng, instance):
    """Random members of the strategy space: per commodity, value 1 split
    over one or two paths with a random switch particle."""
    strategies = {}
    for c in instance.commodities:
        paths = _sample_paths(rng, instance, c.origin, c.destination, tries=6)
        if not paths:
            return None
        volume = c.particle_volume
        cut = volume * F(rng.randint(1, 3), 4)
        first = rng.choice(paths)
        second = rng.choice(paths)
        plan = {}
        for e in first:
            plan.setdefault(e, []).append((F(0), cut))
        for e in second:
            plan.setdefault(e, []).append((cut, volume))
        for e, spans in plan.items():
            bps, vals = [], []
            for lo, hi in sorted(spans):
                bps += [lo, hi]
            points = sorted(set(bps))
            values = []
            for p in points:
                inside = sum(1 for lo, hi in spans if lo <= p < hi)
                values.append(F(inside))
            strategies[(c.id, e)] = StepFunction(points, values, 0)
    return strategies


def _sample_paths(rng, instance, source, sink, tries):
    paths = []
    for _ in range(tries):
        path = []
        u = source
        seen = {u}
        for _ in range(len(instance.nodes) + 1):
            if u == sink:
                paths.append(tuple(path))
                break
            outs = [a for a in instance.out_arcs(u) if a.head not in seen]
            if not outs:
                break
            a = rng.choice(outs)
            path.append(a.id)
            seen.add(a.head)
            u = a.head
    return [list(p) for p in set(paths)]


def test_arbitrary_strategies_stay_bellman_consistent():
    """For arbitrary routing strategies the extension's labels solve the
    shortest-arrival recursion against the waits it maintained: the source
    label has slope 1/r and every other label is the pointwise minimum of
    entry + transit + wait(entry) over the incoming arcs.  The verifier,
    which loads the strategies into the real queues, accepts them."""
    rng = random.Random(60606)
    built = 0
    while built < 20:
        n = rng.randint(3, 5)
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
        for _ in range(rng.randint(1, 3)):
            a, b = sorted(rng.sample(range(n), 2))
            pairs.append((nodes[a], nodes[b]))
        arcs = tuple(Arc(f"e{i}", a, b,
                         F(rng.randint(1, 3), rng.choice([1, 2])),
                         F(rng.randint(1, 4), rng.choice([1, 2])))
                     for i, (a, b) in enumerate(pairs))
        comms = tuple(
            Commodity(f"c{j}", nodes[0] if j == 0 else rng.choice(nodes[:-1]),
                      nodes[-1], F(rng.randint(1, 3)), F(0), F(rng.randint(1, 2)))
            for j in range(rng.randint(1, 2)))
        inst = validate_instance(Instance(tuple(nodes), arcs, comms))
        if isinstance(inst, list):
            continue
        strategies = _random_path_strategies(rng, inst)
        if strategies is None:
            continue
        horizon = max(c.particle_volume for c in inst.commodities)
        try:
            labels, waits = extend_labels(inst, strategies, horizon,
                                          return_queues=True)
        except ValueError as exc:
            # mass routed through a label flat has no rate representation
            assert "flat" in str(exc)
            continue
        built += 1
        report = verify_multicommodity_thinflow(inst, strategies, labels, horizon,
                                                require_tightness=False)
        assert report.ok, (built, [str(v) for v in report.violations])
        # the sweep's waits are the queues of the strategies loaded through
        # the tail labels, up to the last arrival at the tail
        _, loaded = load_network(inst, {
            (j, e): rate_over_time(x, labels[j].labels[inst.arc(e).tail])
            for (j, e), x in strategies.items()})
        for e, q in waits.items():
            tail = inst.arc(e).tail
            end = max((ls.labels[tail](horizon) for ls in labels.values()
                       if tail in ls.labels), default=F(0))
            mesh = sorted({b for b in q.breakpoints + loaded.waiting[e].breakpoints
                           if 0 <= b <= end} | {F(0), end})
            for theta in mesh + [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]:
                assert q(theta) == loaded.waiting[e](theta), (built, e, theta)
        for c in inst.commodities:
            ls = labels[c.id]
            source = ls.labels[c.origin]
            probes = [F(0), horizon / 3, horizon]
            for phi in probes:
                assert source(phi) == phi / c.rate + c.inflow_start
            for v, lv in ls.labels.items():
                if v == c.origin:
                    continue
                cands = []
                for a in inst.in_arcs(v):
                    lu = ls.labels.get(a.tail)
                    if lu is not None:
                        cands.append(compose(waits[a.id], lu)
                                     + lu.add_constant(a.transit))
                assert cands
                mesh = sorted({b for f in cands for b in f.breakpoints
                               if 0 <= b <= horizon}
                              | {b for b in lv.breakpoints if 0 <= b <= horizon}
                              | {F(0), horizon})
                points = mesh + [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]
                for phi in points:
                    assert lv(phi) == min(f(phi) for f in cands), \
                        (built, c.id, v, phi)


def _sweep_outcome(extend, instance, strategies, horizon):
    """Labels and waits of one sweep, or its error's type and message."""
    try:
        return extend(instance, strategies, horizon, return_queues=True)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _flow_strategies(rng, instance, cuts, horizon):
    """Per commodity, up to four simple paths weighted anew at each cut
    (some weights 0), summed per arc; the cuts are shared by all
    commodities."""
    strategies = {}
    for c in instance.commodities:
        paths = []

        def walk(v, path, seen):
            if len(paths) < 4 and v == c.destination:
                paths.append(path)
            for a in instance.out_arcs(v):
                if len(paths) < 4 and v != c.destination and a.head not in seen:
                    walk(a.head, path + [a.id], seen | {a.head})

        walk(c.origin, [], {c.origin})
        points = [F(0)] + cuts
        shares = {e: [F(0)] * len(points) for path in paths for e in path}
        for k in range(len(points)):
            weights = [rng.choice([0, 0, 1, 2]) for _ in paths]
            weights[rng.randrange(len(paths))] += 1
            for path, w in zip(paths, weights):
                for e in path:
                    shares[e][k] += F(w, sum(weights))
        for e, values in shares.items():
            strategies[(c.id, e)] = StepFunction(points + [horizon], values + [F(0)])
    return strategies


def _random_networks(seed, count=80):
    """Seeded networks with cycles and one to three commodities, and their
    strategies, whose cuts the commodities share, up to particle 2."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 5)
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(i, i + 1) for i in range(n - 1)] + [
            tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
        arcs = tuple(Arc(f"e{k}", nodes[a], nodes[b],
                         F(rng.randint(1, 3), rng.randint(1, 2)),
                         F(rng.randint(1, 3), rng.randint(1, 2)))
                     for k, (a, b) in enumerate(pairs))
        comms = []
        for j in range(rng.randint(1, 3)):
            rate, start = F(rng.randint(1, 4)), F(rng.randint(0, 1), 2)
            comms.append(Commodity(f"c{j}", rng.choice(nodes[:-1]) if j else nodes[0],
                                   nodes[-1], rate, start, start + 2 / rate))
        instance = validate_instance(Instance(tuple(nodes), arcs, tuple(comms)))
        cuts = sorted(rng.sample([F(k, 4) for k in range(1, 8)], rng.randint(1, 3)))
        yield instance, _flow_strategies(rng, instance, cuts, F(2))


def _extend_items(monkeypatch, seeds):
    """The ``extend`` benchmark's items at ``seeds`` and its particle horizon."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").Extend()
    program = SimpleNamespace(netmodel=netmodel, timefn=timefn)
    items = [item for seed in seeds for item in workload.generate(program, seed)]
    return items, workload.VOLUME


class TestHorizonCut:
    """The labels of ``extend_labels`` end at the horizon H: none has a
    breakpoint beyond H, and past H each runs on with its slope right of H,
    so no label depends on the event at which the sweep stops."""

    def test_labels_end_at_the_horizon(self, monkeypatch):
        items, volume = _extend_items(monkeypatch, (1, 2, 3))
        cases = [(item.instance, item.data["strategies"], volume) for item in items]
        cases += [(*network, F(2)) for network in _random_networks(17)]
        for instance, strategies, horizon in cases:
            got = _sweep_outcome(extend_labels, instance, strategies, horizon)
            if isinstance(got[0], str):
                continue
            for label in (f for ls in got[0].values() for f in ls.labels.values()):
                assert label.breakpoints[-1] <= horizon, label
                assert label.final_slope == label.slope_right(horizon), label

    def test_stop_event_leaves_no_flat(self):
        """On network 70 of seed 21 the sweep stops at an event that used to
        leave a flat on [19/8, 23/8] in commodity c1's label at n4, past
        H = 2; the label now runs on with slope 1 from H, as the reference's
        does, and on [0, 2] it is what it was."""
        instance, strategies = list(_random_networks(21, 71))[70]
        got = _sweep_outcome(extend_labels, instance, strategies, F(2))
        assert got == _sweep_outcome(reference.extend_labels, instance, strategies, F(2))
        assert got[0]["c1"].labels["n4"] == PwlFunction(
            [-2, F(-4, 3), F(-2, 3), 0, F(3, 4), F(5, 4)],
            [F(7, 2), F(29, 6), F(29, 6), F(11, 2), F(13, 2), F(29, 4)], 1, 1)


class TestReferenceSweep:
    """The sweep of ``extend_labels``, which revisits at an event only what
    the event changed, returns exactly what the sweep that recomputes
    everything at every event returns (``reference.extend_labels``): the
    same labels and waits, or the same error."""

    def test_benchmark_strategies(self, monkeypatch):
        items, volume = _extend_items(monkeypatch, (1, 2, 3))
        for item in items:
            args = (item.instance, item.data["strategies"], volume)
            got = _sweep_outcome(extend_labels, *args)
            assert got == _sweep_outcome(reference.extend_labels, *args), item.name
            assert isinstance(got[0], dict)

    def test_benchmark_reads(self, monkeypatch):
        """An event rereads only what it changed: over one sweep per
        ``extend`` item at seed 1, at most half the cursor reads of the sweep
        that rereads every candidate and strategy at every event (13,984
        ``curve_at`` and 7,608 ``step_at`` calls)."""
        items, volume = _extend_items(monkeypatch, (1,))
        reads = {"curve_at": 0, "step_at": 0}
        for name in reads:
            def counted(self, x, read=getattr(timefn.Cursor, name), name=name):
                reads[name] += 1
                return read(self, x)
            monkeypatch.setattr(timefn.Cursor, name, counted)
        for item in items:
            extend_labels(item.instance, item.data["strategies"], volume)
        assert reads["curve_at"] <= 13984 // 2 and reads["step_at"] <= 7608 // 2, reads

    def test_sweep_follows_the_node_order(self, monkeypatch):
        """The sweep visits nodes in ``instance.nodes`` order, not in the
        order of a set of names: its labels come in that order, and one
        sweep per ``extend`` item at seed 1 makes as many cursor reads under
        two string-hash seeds."""
        items, volume = _extend_items(monkeypatch, (1,))
        for item in items:
            out = extend_labels(item.instance, item.data["strategies"], volume)
            for label_set in out.values():
                assert list(label_set.labels) == \
                    [v for v in item.instance.nodes if v in label_set.labels]
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys, types\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
            "from nashflow import labels, netmodel, timefn\n"
            "import workloads\n"
            "reads = [0]\n"
            "def counted(self, x, read=timefn.Cursor.curve_at):\n"
            "    reads[0] += 1\n"
            "    return read(self, x)\n"
            "timefn.Cursor.curve_at = counted\n"
            "w = workloads.Extend()\n"
            "for item in w.generate(types.SimpleNamespace(netmodel=netmodel, timefn=timefn), 1):\n"
            "    labels.extend_labels(item.instance, item.data['strategies'], w.VOLUME)\n"
            "print(reads[0])\n")
        runs = [subprocess.run([sys.executable, "-c", script], text=True, capture_output=True,
                               env={**os.environ, "PYTHONHASHSEED": seed}) for seed in "12"]
        assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
        counts = [int(run.stdout) for run in runs]
        assert counts[0] == counts[1] > 0, counts

    def test_pending_route_overtakes(self):
        """The route s -> u -> v starts pending at v (u's frontier particle
        trails v's), and nothing else happens until its frontier overtakes
        v's and it ties with the queueing arc s -> v: the pending candidate
        must keep its read time plus its transit time as its next event,
        and be read then.  With transit 3/5 on u -> v the route overtakes
        after time 7/3 and ties at 47/15, before a read two transit times
        after the one at 11/5 would see it."""
        for transit, label in ((F(1, 2), PwlFunction([0, 1], [1, 3], F(1, 2), F(1, 2))),
                               (F(3, 5), PwlFunction([0, F(16, 15)], [1, F(47, 15)],
                                                     F(1, 2), F(1, 2)))):
            instance = validate_instance(Instance(
                ("s", "u", "v", "t"),
                (Arc("sv", "s", "v", F(1), F(1, 2)), Arc("su", "s", "u", F(2), F(4)),
                 Arc("uv", "u", "v", transit, F(4)), Arc("vt", "v", "t", F(1), F(4))),
                (Commodity("1", "s", "t", F(2), F(0), F(4)),)))
            strategies = {("1", "sv"): StepFunction([0, 8], [1, 0]),
                          ("1", "vt"): StepFunction([0, 8], [1, 0])}
            got = _sweep_outcome(extend_labels, instance, strategies, F(8))
            assert got == _sweep_outcome(reference.extend_labels, instance, strategies, F(8))
            assert got[0]["1"].labels["v"] == label, transit

    def test_random_instances(self):
        """Seeded networks with cycles, one to three commodities whose
        strategy cuts coincide, label flat stretches, queues that run dry,
        and strategies that send mass through a flat."""
        seen = {"flat": 0, "dry": 0, "error": 0}
        for instance, strategies in _random_networks(17):
            got = _sweep_outcome(extend_labels, instance, strategies, F(2))
            assert got == _sweep_outcome(reference.extend_labels, instance, strategies, F(2))
            if isinstance(got[0], str):
                seen["error"] += 1
                continue
            labels, waits = got
            seen["flat"] += any(a == b for ls in labels.values() for f in ls.labels.values()
                                for a, b in zip(f.values, f.values[1:]))
            seen["dry"] += any(max(q.values) > 0 and q.values[-1] == 0 for q in waits.values())
        assert seen["flat"] >= 20 and seen["dry"] >= 20 and seen["error"] >= 1, seen
