"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``generate``), produces outputs
(``solve``), certifies them with the program's own verifiers (``certify``),
reads the program's verdict off the certificates (``verdict``) and checks the
outputs independently (``check``, see ``checks.py``).  An item is one input:
an instance, a routed flow or a strategy set.  All calls into the program go
through module attributes, so a traced run sees them.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction as F

import checks


@dataclass
class Item:
    name: str
    instance: object
    data: dict
    size: int = 0  # breakpoints: switches per split, for the doubling ratio


def _instance(program, nodes, arcs, commodities, mode="general"):
    netmodel = program.netmodel
    result = netmodel.validate_instance(netmodel.Instance(
        tuple(nodes), tuple(netmodel.Arc(*a) for a in arcs),
        tuple(netmodel.Commodity(*c) for c in commodities), mode))
    if isinstance(result, list):
        raise ValueError("generated an invalid instance: " + "; ".join(map(str, result)))
    return result


def _times(rng, lo: F, hi: F, count: int) -> list:
    """``count`` distinct seeded times strictly inside (lo, hi)."""
    steps = 64 * count
    return [lo + (hi - lo) * F(k, steps) for k in sorted(rng.sample(range(1, steps), count))]


# --------------------------------------------------------------------------
# equilibria: construct, then certify, Nash flows over time
# --------------------------------------------------------------------------


class Equilibria:
    """The 12-instance corpus plus a fixed family of small grids.

    A grid's structure (transit times, capacities, rates) is drawn from its
    fixed structure seed.  The workload seed rescales every grid by a time
    factor and a flow factor: transit times and the inflow interval by the
    first, capacities and rates by the second, the horizon by both.  That
    keeps each grid's phase sequence and thin-flow search, whose cost varies
    by a factor of 30 between structures of one size, while every number,
    every output and every check changes with the seed.
    """

    # (mode, rows, columns, structure seed)
    GRIDS = (("general", 2, 3, 7), ("general", 2, 3, 8),
             ("commonDestination", 2, 3, 2), ("commonDestination", 2, 3, 8),
             ("commonOrigin", 2, 2, 0), ("commonOrigin", 2, 2, 1))
    SCALES = (F(2, 3), F(3, 4), F(4, 5), F(5, 4), F(4, 3), F(3, 2))
    DESTINATION_HORIZON = F(3)

    def generate(self, program, seed: int) -> list:
        corpus = importlib.import_module("corpus")
        items = [Item(name, inst, {"horizon": horizon})
                 for name, inst, horizon in corpus.corpus()]
        rng = random.Random(seed)
        for mode, rows, cols, structure in self.GRIDS:
            items.append(self._grid(program, rng, mode, rows, cols, structure))
        return items

    def _grid(self, program, rng, mode, rows, cols, structure) -> Item:
        draw = random.Random(structure)
        node = lambda i, j: f"g{i}_{j}"  # noqa: E731
        nodes = [node(i, j) for i in range(rows) for j in range(cols)]
        pairs = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    pairs.append((node(i, j), node(i, j + 1)))
                if i + 1 < rows:
                    pairs.append((node(i, j), node(i + 1, j)))
        base = [(F(draw.randint(1, 3)), F(draw.randint(1, 3))) for _ in pairs]
        last = node(rows - 1, cols - 1)
        if mode == "general":
            ends = [(node(0, 0), last, F(draw.randint(3, 6)), F(1))]
        elif mode == "commonDestination":
            ends = [(node(0, 0), last, F(draw.randint(1, 3)), None),
                    (node(1, 0), last, F(draw.randint(1, 3)), None)]
        else:
            ends = [(node(0, 0), last, F(draw.randint(1, 3)), F(1)),
                    (node(0, 0), node(rows - 1, cols - 2), F(draw.randint(1, 3)), F(1))]
        time_scale, flow_scale = rng.choice(self.SCALES), rng.choice(self.SCALES)
        arcs = [(f"e{k}", u, v, transit * time_scale, capacity * flow_scale)
                for k, ((u, v), (transit, capacity)) in enumerate(zip(pairs, base))]
        commodities = [(str(k + 1), origin, sink, rate * flow_scale, F(0),
                        None if end is None else end * time_scale)
                       for k, (origin, sink, rate, end) in enumerate(ends)]
        horizon = None
        if mode == "commonDestination":
            horizon = self.DESTINATION_HORIZON * time_scale * flow_scale
        name = f"grid{rows}x{cols}-{mode}-{structure}"
        inst = _instance(program, nodes, arcs, commodities, mode)
        return Item(name, inst, {"horizon": horizon})

    def solve(self, program, item):
        nash, netmodel = program.nash, program.netmodel
        inst, horizon = item.instance, item.data["horizon"]
        if inst.mode == netmodel.COMMON_ORIGIN:
            return nash.construct_common_origin(inst, horizon)
        if inst.mode == netmodel.COMMON_DESTINATION:
            return nash.construct_common_destination(inst, horizon)
        return nash.construct_nash_single(inst, horizon)

    def certify(self, program, item, result):
        # verify_nash runs check_feasibility itself and returns its report
        profile = program.loading.derive_profile(result.instance, result.flow)
        report = program.nash.verify_nash(result.instance, result.flow, profile)
        thin = program.nash.check_derivatives_thinflow(result.instance, result.flow,
                                                       profile)
        return report, thin

    def verdict(self, certificate) -> list:
        report, thin = certificate
        return ([f"check_feasibility: {v}" for v in report.feasibility.violations]
                + [f"verify_nash: {v}" for v in report.violations]
                + [f"check_derivatives_thinflow: {v}" for v in thin.violations])

    def check(self, program, item, result, certificate) -> list:
        oracle = importlib.import_module("oracle")
        return checks.equilibrium(program, oracle, item.instance, result)


# --------------------------------------------------------------------------
# breakpoints: arc-by-arc loading of flows whose splits switch often
# --------------------------------------------------------------------------


class Breakpoints:
    """Two commodities through s => v => t, two parallel arcs per stage.

    At s each commodity's injection, and at v its arrivals, are split between
    the stage's two arcs by a fraction that switches at ``size`` seeded
    times.  One item per size, n and 2n switches per split.  Whatever the
    seeded fractions, a1 and b1 stay congested from their first arrival until
    they drain once, and a2 and b2 never queue, so the number of breakpoints
    the loading produces follows from n alone.
    """

    NODES = ("s", "v", "t")
    ARCS = (("a1", "s", "v", F(1), F(1)), ("a2", "s", "v", F(2), F(4)),
            ("b1", "v", "t", F(1), F(1, 4)), ("b2", "v", "t", F(3, 2), F(3)))
    COMMODITIES = (("1", "s", "t", F(3), F(0), F(4)), ("2", "s", "t", F(2), F(1), F(5)))
    STAGES = (("a1", "a2"), ("b1", "b2"))
    FRACTIONS = (F(2, 5), F(1, 2), F(3, 5))  # share of the stage's first arc
    SIZE = 16
    # the shares at v switch inside (inflow start + 1, inflow end + 5), where
    # each commodity keeps arriving at v whatever its shares at s
    ARRIVALS = (F(1), F(5))

    def generate(self, program, seed: int) -> list:
        inst = _instance(program, self.NODES, self.ARCS, self.COMMODITIES)
        rng = random.Random(seed)
        items = []
        for size in (self.SIZE, 2 * self.SIZE):
            splits = {}
            for c in inst.commodities:
                windows = ((c.inflow_start, c.inflow_end),
                           (c.inflow_start + self.ARRIVALS[0], c.inflow_end + self.ARRIVALS[1]))
                for stage, (lo, hi) in enumerate(windows):
                    times = [lo] + _times(rng, lo, hi, size)
                    share = [rng.choice(self.FRACTIONS)]
                    for _ in times[1:]:  # every switch changes the share
                        share.append(rng.choice([x for x in self.FRACTIONS
                                                 if x != share[-1]]))
                    splits[(c.id, stage)] = (
                        program.timefn.StepFunction(times, share),
                        program.timefn.StepFunction(times, [1 - x for x in share]))
            items.append(Item(f"split-{size}", inst, {"splits": splits}, size))
        return items

    def solve(self, program, item):
        """Load arc by arc in topological order; a stage's inflows are the
        split of the previous stage's outflows (the injection at s)."""
        loading, timefn = program.loading, program.timefn
        inst = item.instance
        flow = loading.FlowOverTime(inflow={}, outflow={})
        profile = loading.QueueProfile(volume={}, waiting={}, exit_time={})
        previous = None
        for stage, arcs in enumerate(self.STAGES):
            for c in inst.commodities:
                if previous is None:
                    arriving = timefn.StepFunction((c.inflow_start, c.inflow_end),
                                                   (c.rate, 0))
                else:
                    arriving = timefn.StepFunction.sum_of(
                        flow.outflow[(c.id, e)] for e in previous)
                for e, share in zip(arcs, item.data["splits"][(c.id, stage)]):
                    flow.inflow[(c.id, e)] = _product(timefn, arriving, share)
            for e in arcs:
                loaded, queues = loading.load_network(
                    inst, {(c.id, e): flow.inflow[(c.id, e)] for c in inst.commodities})
                for c in inst.commodities:
                    flow.outflow[(c.id, e)] = loaded.outflow[(c.id, e)]
                flow.total_inflow[e] = loaded.total_inflow[e]
                flow.total_outflow[e] = loaded.total_outflow[e]
                profile.volume[e] = queues.volume[e]
                profile.waiting[e] = queues.waiting[e]
                profile.exit_time[e] = queues.exit_time[e]
            previous = arcs
        return flow, profile

    def certify(self, program, item, output):
        flow, profile = output
        inst = item.instance
        report = program.loading.check_feasibility(inst, flow, profile)
        labels = {c.id: program.labels.earliest_arrival(inst, profile, c.id,
                                                        c.particle_volume)
                  for c in inst.commodities}
        return report, labels

    def verdict(self, certificate) -> list:
        report, _ = certificate
        return [f"check_feasibility: {v}" for v in report.violations]

    def check(self, program, item, output, certificate) -> list:
        flow, profile = output
        return checks.loading(item.instance, flow, profile, certificate[1])


def _product(timefn, f, g):
    """Pointwise product of two step functions."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return timefn.StepFunction(bps, [f(b) * g(b) for b in bps], f.initial * g.initial)


# --------------------------------------------------------------------------
# extend: labels from per-particle strategies
# --------------------------------------------------------------------------


class Extend:
    """Two commodities from s1 and s2 meet at x and share its three routes
    to t: over c1, over c2, or over e.

    Each commodity spreads every particle over all three of its paths, with
    seeded weights that switch at ``SWITCHES`` seeded particles, so every arc
    it can reach carries some of its flow at every particle and none of its
    labels freezes.  Queues form only on c1 and c2, whose heads have no other
    entry; every arc into a node with two entries has more capacity than can
    ever reach it.  ``verify_multicommodity_thinflow`` reconstructs waiting
    times from label gaps, which misjudges a queue on an arc that the labels
    bypass (see CHANGES.md), so this network keeps such queues out.
    """

    NODES = ("s1", "s2", "x", "y1", "y2", "t")
    ARCS = (("a", "s1", "x", F(1), F(3)), ("b", "s2", "x", F(1), F(2)),
            ("c1", "x", "y1", F(1), F(1)), ("c2", "x", "y2", F(2), F(1)),
            ("d1", "y1", "t", F(1), F(2)), ("d2", "y2", "t", F(1), F(2)),
            ("e", "x", "t", F(3), F(4)))
    VOLUME = F(4)  # particles per commodity; the horizon
    COMMODITIES = (("1", "s1", "t", F(2), F(0), F(2)),
                   ("2", "s2", "t", F(3, 2), F(1, 2), F(1, 2) + F(8, 3)))
    PATHS = {"1": (("a", "c1", "d1"), ("a", "c2", "d2"), ("a", "e")),
             "2": (("b", "c1", "d1"), ("b", "c2", "d2"), ("b", "e"))}
    SWITCHES = 40
    SETS = 2

    def generate(self, program, seed: int) -> list:
        inst = _instance(program, self.NODES, self.ARCS, self.COMMODITIES)
        rng = random.Random(seed)
        return [Item(f"strategies-{k}", inst, {"strategies": self._strategies(program, rng)})
                for k in range(self.SETS)]

    def _strategies(self, program, rng) -> dict:
        """Per arc, the summed weight share of the paths through it."""
        strategies = {}
        for c, paths in self.PATHS.items():
            cuts = [F(0)] + _times(rng, F(0), self.VOLUME, self.SWITCHES)
            shares = {e: [] for path in paths for e in path}
            for _ in cuts:
                weights = [rng.randint(1, 4) for _ in paths]
                for values in shares.values():
                    values.append(F(0))
                for path, w in zip(paths, weights):
                    for e in path:
                        shares[e][-1] += F(w, sum(weights))
            for e, values in shares.items():
                strategies[(c, e)] = program.timefn.StepFunction(
                    cuts + [self.VOLUME], values + [F(0)])
        return strategies

    def solve(self, program, item):
        return program.labels.extend_labels(item.instance, item.data["strategies"],
                                            self.VOLUME)

    def certify(self, program, item, labels):
        return program.thinflow.verify_multicommodity_thinflow(
            item.instance, item.data["strategies"], labels, self.VOLUME,
            require_tightness=False)

    def verdict(self, certificate) -> list:
        return [f"verify_multicommodity_thinflow: {v}" for v in certificate.violations]

    def check(self, program, item, labels, certificate) -> list:
        return checks.extension(item.instance, labels, self.VOLUME)


WORKLOADS = {"equilibria": Equilibria(), "breakpoints": Breakpoints(), "extend": Extend()}
