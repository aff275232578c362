"""Independent output checks, written from the model's definitions.

The checks evaluate the program's functions from their anchors with their
own bisection, sum rates piece by piece, run their own shortest paths and
their own queue sweep, so a fault shared by the program's certificates still
shows here.  Each check returns a list of problem strings; an empty list
means the output passed.  None of them compares against stored output.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from fractions import Fraction

ZERO = Fraction(0)


# --------------------------------------------------------------------------
# evaluation helpers
# --------------------------------------------------------------------------


def pwl_at(f, x: Fraction) -> Fraction:
    """Value of a piecewise-linear function, from its anchors and end slopes."""
    bps, vals = f.breakpoints, f.values
    i = bisect_right(bps, x) - 1
    if i < 0:
        return vals[0] + f.initial_slope * (x - bps[0])
    if i == len(bps) - 1:
        return vals[-1] + f.final_slope * (x - bps[-1])
    return vals[i] + (vals[i + 1] - vals[i]) * (x - bps[i]) / (bps[i + 1] - bps[i])


def volume(rate) -> Fraction | None:
    """Total mass of a step function, or None unless it vanishes at both ends."""
    if rate.initial != 0 or (rate.values and rate.values[-1] != 0):
        return None
    bps, vals = rate.breakpoints, rate.values
    return sum((vals[k] * (bps[k + 1] - bps[k]) for k in range(len(bps) - 1)), ZERO)


class Cumulative:
    """Integral from minus infinity of a step function that starts at zero."""

    def __init__(self, rate):
        self.bps = rate.breakpoints
        self.vals = rate.values
        self.acc = [ZERO]
        for k in range(len(self.bps) - 1):
            self.acc.append(self.acc[-1] + self.vals[k] * (self.bps[k + 1] - self.bps[k]))

    def __call__(self, x: Fraction) -> Fraction:
        i = bisect_right(self.bps, x) - 1
        if i < 0:
            return ZERO
        return self.acc[i] + self.vals[i] * (x - self.bps[i])


def free_flow(instance, source: str) -> dict:
    """Transit-only shortest distances from ``source`` (Dijkstra)."""
    adjacency: dict[str, list] = {}
    for a in instance.arcs:
        adjacency.setdefault(a.tail, []).append(a)
    dist = {source: ZERO}
    heap = [(ZERO, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for a in adjacency.get(u, ()):
            nd = d + a.transit
            if a.head not in dist or nd < dist[a.head]:
                dist[a.head] = nd
                heapq.heappush(heap, (nd, a.head))
    return dist


def probes(points, lo: Fraction, hi: Fraction) -> list:
    """The points inside [lo, hi], both ends, and every midpoint between."""
    mesh = sorted({p for p in points if lo <= p <= hi} | {lo, hi})
    return mesh + [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]


def _incident(instance, node: str):
    """(arcs leaving, arcs entering) ``node``, from the arc list itself."""
    out = [a for a in instance.arcs if a.tail == node]
    into = [a for a in instance.arcs if a.head == node]
    return out, into


# --------------------------------------------------------------------------
# equilibria
# --------------------------------------------------------------------------


def equilibrium(program, oracle, instance, result) -> list:
    """Oracle slopes per phase, conserved volumes and free-flow sink labels."""
    problems = _phase_slopes(program, oracle, instance, result)
    problems += _injected_volumes(result)
    if instance.mode != program.netmodel.COMMON_DESTINATION:
        problems += _sink_labels_at_zero(instance, result)
    return problems


def _phase_slopes(program, oracle, instance, result) -> list:
    """Each phase's label slopes equal those of the brute-force enumeration
    for that phase's active and resetting sets (slopes are unique)."""
    solved_on = result.extended_instance or instance
    arcs = {a.id: (a.tail, a.head, a.capacity) for a in solved_on.arcs}
    problems = []
    for k, phase in enumerate(result.phases):
        thin = phase.thin
        if isinstance(thin, program.thinflow.MultiSourceThinFlow):
            sources = {c.id: (c.origin, c.rate) for c in instance.commodities}
            sink = instance.commodities[0].destination
            found = oracle.oracle_multisource(arcs, set(thin.active), set(thin.resetting),
                                              sources, sink)
            slopes = [s for _, _, s in found]
        else:
            c = solved_on.commodities[0]
            found = oracle.oracle_single(arcs, set(thin.active), set(thin.resetting),
                                         c.origin, c.destination, c.rate, thin.value)
            slopes = [s for _, s in found]
        if not slopes:
            problems.append(f"phase {k}: the enumeration finds no thin flow")
        elif any(s != thin.label_slopes for s in slopes):
            problems.append(f"phase {k}: label slopes differ from the enumeration")
    return problems


def _injected_volumes(result) -> list:
    """Per commodity, the volume leaving the origin and the volume entering
    the destination both equal rate times the injected interval."""
    flow = result.flow
    problems = []
    for c in result.instance.commodities:
        injected = c.rate * (c.inflow_end - c.inflow_start)
        for node, sign in ((c.origin, 1), (c.destination, -1)):
            out, into = _incident(result.instance, node)
            sent = [volume(flow.inflow[(c.id, a.id)]) for a in out]
            received = [volume(flow.outflow[(c.id, a.id)]) for a in into]
            if None in sent + received:
                problems.append(f"commodity {c.id}: unbounded rate at {node}")
                continue
            net = sign * (sum(sent, ZERO) - sum(received, ZERO))
            if net != injected:
                problems.append(f"commodity {c.id}: net volume at {node} is {net}, "
                                f"injected {injected}")
    return problems


def _sink_labels_at_zero(instance, result) -> list:
    """The first particle reaches each sink after the free-flow distance."""
    problems = []
    for c in instance.commodities:
        expected = c.inflow_start + free_flow(instance, c.origin)[c.destination]
        got = pwl_at(result.node_labels[c.destination], ZERO)
        if got != expected:
            problems.append(f"commodity {c.id}: sink label {got} at particle 0, "
                            f"free-flow arrival {expected}")
    return problems


# --------------------------------------------------------------------------
# breakpoints (network loading)
# --------------------------------------------------------------------------


def loading(instance, flow, profile, labels) -> list:
    """Capacity, conservation, FIFO identity, queue sweep and label recursion."""
    problems = []
    for a in instance.arcs:
        problems += _arc_loading(instance, flow, profile, a)
    for c in instance.commodities:
        problems += _labels_recursion(instance, profile, labels[c.id], c)
    return problems


def _arc_loading(instance, flow, profile, arc) -> list:
    problems = []
    e = arc.id
    total_in, total_out = flow.total_inflow[e], flow.total_outflow[e]
    if max((total_out.initial,) + total_out.values) > arc.capacity:
        problems.append(f"{e}: outflow exceeds capacity {arc.capacity}")
    vin, vout = volume(total_in), volume(total_out)
    if vin is None or vin != vout:
        problems.append(f"{e}: volume in {vin} and out {vout} differ")
    exit_time = profile.exit_time[e]
    for c in instance.commodities:
        f_in, f_out = flow.inflow[(c.id, e)], flow.outflow[(c.id, e)]
        cum_in, cum_out = Cumulative(f_in), Cumulative(f_out)
        marks = set(f_in.breakpoints) | set(exit_time.breakpoints)
        if not marks:
            continue
        for theta in probes(marks, min(marks), max(marks)):
            if cum_in(theta) != cum_out(pwl_at(exit_time, theta)):
                problems.append(f"{c.id},{e}: F_in({theta}) != F_out(T({theta}))")
                break
    queue = profile.volume[e]
    for t, z in _queue_sweep(total_in, arc.transit, arc.capacity):
        if pwl_at(queue, t) != z:
            problems.append(f"{e}: queue volume at {t} is {pwl_at(queue, t)}, "
                            f"the sweep gives {z}")
            break
    return problems


def _queue_sweep(total_in, transit: Fraction, capacity: Fraction):
    """Queue volume at each breakpoint of the arrival rate: it grows at
    arrival minus capacity while positive and never drops below zero."""
    times = [b + transit for b in total_in.breakpoints]
    z = ZERO
    out = []
    for k, t in enumerate(times):
        if k:
            rate = total_in.values[k - 1]
            z = max(ZERO, z + (rate - capacity) * (t - times[k - 1]))
        out.append((t, z))
    return out


def _labels_recursion(instance, profile, labelset, commodity) -> list:
    """l_source = a + phi/r; every other label is the minimum over incoming
    arcs of the exit time at the tail label, at every probe particle."""
    problems = []
    last = commodity.particle_volume
    labels = labelset.labels
    source = labels[commodity.origin]
    for phi in probes(source.breakpoints, ZERO, last):
        if pwl_at(source, phi) != commodity.inflow_start + phi / commodity.rate:
            problems.append(f"commodity {commodity.id}: source label at {phi}")
            break
    for v, label in labels.items():
        if v == commodity.origin:
            continue
        _, into = _incident(instance, v)
        into = [a for a in into if a.tail in labels]
        for phi in probes(label.breakpoints, ZERO, last):
            best = min(pwl_at(profile.exit_time[a.id], pwl_at(labels[a.tail], phi))
                       for a in into)
            if pwl_at(label, phi) != best:
                problems.append(f"commodity {commodity.id}: label of {v} at {phi} "
                                f"is not the minimum over incoming arcs")
                break
    return problems


# --------------------------------------------------------------------------
# extend (label extension)
# --------------------------------------------------------------------------


def extension(instance, labels, horizon: Fraction) -> list:
    """Source lines, monotone labels, and sinks no earlier than free flow."""
    problems = []
    for c in instance.commodities:
        own = labels[c.id].labels
        source, sink = own[c.origin], own[c.destination]
        for phi in probes(source.breakpoints, ZERO, horizon):
            if pwl_at(source, phi) != c.inflow_start + phi / c.rate:
                problems.append(f"commodity {c.id}: source label at {phi}")
                break
        for v, label in own.items():
            if (label.initial_slope < 0 or label.final_slope < 0
                    or any(x > y for x, y in zip(label.values, label.values[1:]))):
                problems.append(f"commodity {c.id}: label of {v} decreases")
        distance = free_flow(instance, c.origin)[c.destination]
        for phi in probes(set(source.breakpoints) | set(sink.breakpoints), ZERO, horizon):
            if pwl_at(sink, phi) < pwl_at(source, phi) + distance:
                problems.append(f"commodity {c.id}: sink label at {phi} is below "
                                f"the free-flow arrival")
                break
    return problems
