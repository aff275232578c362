"""Earliest-arrival labels and their companions.

Per commodity, the label of a node maps a particle to the earliest time that
particle can reach the node given the evolving queues.  This module computes
labels from a loaded flow (one sweep in topological order), classifies
arcs as active/resetting, reconstructs waiting times from the labels of an
equilibrium, turns a per-particle rate into a rate over time through a
label, reads the foreign rate (the other commodities' traffic as one
commodity samples it) at one particle, and extends labels from scratch for
given per-particle routing strategies by an exact time-frontier sweep, which
grows the labels and the queues as ``timefn.GrowingPwl`` curves, reads
them, and the strategies, through forward ``timefn.Cursor``s, and at each
event recomputes only the reads and event times that the event changed.

Each arc's wait and gap T_e(l_u) - l_v (``arc_gaps``) are read at a sorted
column of particles, each function in one merge pass: the thin-flow verifier
reads the gaps on its partition mesh and at its cell midpoints.
``arc_status`` is their one-point case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .netmodel import INF, Arc, Instance, topological_order, transit_distances
from .loading import QueueProfile
from .timefn import (ZERO, Cursor, GrowingPwl, PwlFunction, StepFunction,
                     SweepInvariantBroken, ValueNotAttained, breakpoint_budget,
                     compose, differentiate, min_compose, min_preimage,
                     sorted_union)


class CyclicZeroTransit(RuntimeError):
    """Label iteration failed to stabilize (zero-transit cycle)."""


class ZeroTransitArc(ValueError):
    """Label extension requires strictly positive transit times."""


class BreakpointBudgetExceeded(RuntimeError):
    """The label extension exceeded the configured breakpoint budget."""


class ThetaOutsideRange(ValueError):
    """A queried time is not reached by some commodity's labels."""

    def __init__(self, commodity, theta):
        super().__init__(f"labels of commodity {commodity} never reach {theta}")
        self.commodity = commodity


@dataclass
class LabelSet:
    """Earliest-arrival labels of one commodity, per reachable node."""

    commodity: str
    labels: dict[str, PwlFunction]
    phi_max: Fraction | None = None


def earliest_arrival(instance: Instance, profile: QueueProfile, commodity_id: str,
                     phi_max=None) -> LabelSet:
    """Labels from loaded exit times: the source label is phi/r + a, every
    other label the pointwise minimum of exit-time compositions over the
    incoming arcs.

    The sweep visits the nodes in topological order of all arcs, or in
    ``instance.nodes`` order when the arcs contain a cycle, and repeats
    until a round changes no label.  A node is recomputed only when the
    label of some in-arc tail changed after its last computation; it
    composes those tails' labels and takes their minimum with its old label,
    which the compositions through the other tails cannot undercut.  A
    single candidate is taken as it is.  On an acyclic instance every node
    is computed once, and the second round only reads the stamps.  Where
    exit times never undercut their entry times, each round settles the
    paths one arc longer, so ``len(instance.nodes) + 1`` rounds suffice;
    labels that still change after that (a cycle with T_e(theta) < theta,
    which only an infeasible flow has) raise CyclicZeroTransit.
    """
    c = instance.commodity(commodity_id)
    source_label = PwlFunction.line(Fraction(1, 1) / c.rate, ZERO, c.inflow_start)
    labels: dict[str, PwlFunction] = {c.origin: source_label}
    in_arcs = {v: instance.in_arcs(v) for v in instance.nodes}
    order = topological_order(instance, [a.id for a in instance.arcs]) or instance.nodes
    # stamps of the last change of each label and the last computation of
    # each node, in the visits of the sweep
    changed = {c.origin: 0}
    computed: dict[str, int] = {}
    visit = 0
    for rounds in count(1):
        if rounds > len(instance.nodes) + 1:
            raise CyclicZeroTransit("label iteration did not stabilize")
        stable = True
        for v in order:
            if v == c.origin:
                continue
            last = computed.get(v, -1)
            candidates = [compose(profile.exit_time[a.id], labels[a.tail])
                          for a in in_arcs[v] if changed.get(a.tail, -1) > last]
            if not candidates:
                continue
            visit += 1
            computed[v] = visit
            old = labels.get(v)
            if old is not None:
                candidates.append(old)
            new = candidates[0] if len(candidates) == 1 else min_compose(candidates)[0]
            if new != old:
                labels[v] = new
                changed[v] = visit
                stable = False
        if stable:
            break
    return LabelSet(commodity_id, labels,
                    None if phi_max is None else Fraction(phi_max))


def arc_gaps(instance: Instance, labelset: LabelSet, profile: QueueProfile,
             points) -> dict[str, tuple[list, list | None]]:
    """Per arc whose tail a commodity's labels reach: its wait q_e(l_u) and
    gap T_e(l_u) - l_v (None if the head is unlabelled) at every particle of
    the non-decreasing ``points``.  Each label and wait is read in one merge
    pass; a tail label that decreases between the points raises ValueError."""
    values = {v: f.at_sorted(points) for v, f in labelset.labels.items()}
    columns = {}
    for a in instance.arcs:
        entries = values.get(a.tail)
        if entries is None:
            continue
        if any(t < s for s, t in zip(entries, entries[1:])):
            raise ValueError(f"the label at {a.tail} decreases between the "
                             f"points read")
        waits = profile.waiting[a.id].at_sorted(entries)
        heads = values.get(a.head)
        gaps = None if heads is None else [
            entry + a.transit + wait - head
            for entry, wait, head in zip(entries, waits, heads)]
        columns[a.id] = (waits, gaps)
    return columns


def arc_status(instance: Instance, labelset: LabelSet, profile: QueueProfile,
               phi) -> tuple[set, set]:
    """Active (gap 0) and resetting (wait > 0) arc ids at one particle."""
    columns = arc_gaps(instance, labelset, profile, [Fraction(phi)])
    return ({e for e, (_, gaps) in columns.items() if gaps is not None and gaps[0] == 0},
            {e for e, (waits, _) in columns.items() if waits[0] > 0})


def waiting_from_labels(instance: Instance, labels_all: dict, arc_id: str,
                        theta) -> Fraction:
    """Waiting time at tail arrival ``theta`` reconstructed from labels alone:
    the largest of 0 and the label gaps l_head - l_tail - transit of all
    commodities, each taken at its first particle to reach the tail at
    ``theta``.  On an arc that some commodity's labels use this is the real
    wait; a queue on an arc that every label bypasses widens no gap, so
    there it can be understated."""
    theta = Fraction(theta)
    arc = instance.arc(arc_id)
    q = ZERO
    for j, ls in labels_all.items():
        lu = ls.labels.get(arc.tail)
        lv = ls.labels.get(arc.head)
        if lu is None or lv is None:
            continue
        try:
            phi = min_preimage(lu, theta)
        except ValueNotAttained:
            raise ThetaOutsideRange(j, theta) from None
        q = max(q, lv(phi) - theta - arc.transit)
    return q


def rate_over_time(x: StepFunction, label: PwlFunction) -> StepFunction:
    """The rate over time of a per-particle rate ``x`` whose particle phi
    passes at time label(phi): x(phi) / l'(phi) at time l(phi), on the
    merged breakpoints of both functions.  ``label`` must be
    non-decreasing; a flat stretch of it passes no time, so a nonzero rate
    there raises ValueError."""
    if x.initial and not label.initial_slope:
        raise ValueError(f"rate {x.initial} on the flat left ray of the label")
    initial = x.initial / label.initial_slope if x.initial else ZERO
    mesh = sorted_union(x.breakpoints, label.breakpoints)
    # time -> rate; a flat stretch's zero gives way to the cell after it
    pieces = {}
    for phi, t, rate, slope in zip(mesh, label.at_sorted(mesh), x.at_sorted(mesh),
                                   differentiate(label).at_sorted(mesh)):
        if rate and not slope:
            raise ValueError(f"rate {rate} at particle {phi} on a flat stretch "
                             f"of the label")
        pieces[t] = rate / slope if slope else ZERO
    return StepFunction(list(pieces), list(pieces.values()), initial)


def foreign_rate_at(instance: Instance, labels_all: dict, strategies: dict,
                    j: str, arc_id: str, phi) -> Fraction:
    """Derivative of the foreign flow of commodity j on one arc at particle
    ``phi``: the other commodities' strategy rates at their first particles
    to reach the tail when j's particle does, rescaled by the label slopes.
    Where j's tail label is flat the rate is 0 and nothing else is read."""
    phi = Fraction(phi)
    arc = instance.arc(arc_id)
    lu_j = labels_all[j].labels[arc.tail]
    own_slope = lu_j.slope_right(phi)
    if own_slope == 0:
        return ZERO
    theta = lu_j(phi)
    total = ZERO
    for i, ls in labels_all.items():
        lu_i = ls.labels.get(arc.tail)
        if i == j or lu_i is None:
            continue
        phi_i = min_preimage(lu_i, theta)  # ValueNotAttained propagates
        x = strategies.get((i, arc_id), StepFunction.zero())(phi_i)
        if x == 0:
            continue
        slope_i = lu_i.slope_right(phi_i)
        if slope_i == 0:
            raise ValueError(
                f"commodity {i} sends flow into {arc_id} on a label flat "
                f"(particle {phi_i}); rates are undefined there")
        total += x * own_slope / slope_i
    return total


# --------------------------------------------------------------------------
# label extension for given strategies (time-frontier sweep)
# --------------------------------------------------------------------------


class _Candidate:
    """An in-arc (u, v) of a label, read at v's frontier particle at every
    event: the arrival time there, entry + transit + wait(entry), and its
    slope; and its next event time, kept while ``key`` holds."""

    __slots__ = ("arc", "track_u", "tail", "queue", "pending", "value", "slope",
                 "entry_slope", "wait_slope", "key", "next_time")

    def __init__(self, arc: Arc, track_u: GrowingPwl, queue: GrowingPwl):
        self.arc, self.track_u = arc, track_u
        # the tail label is read at v's frontier particle, the queue at its entry
        self.tail, self.queue = Cursor(track_u), Cursor(queue)
        self.entry_slope = self.wait_slope = self.key = None

    def read(self, phi: Fraction):
        """Read at ``phi``; pending at or beyond u's frontier, where it
        enters now or later and so trails the label by a transit time."""
        self.pending = phi >= self.track_u.edge
        if self.pending:
            self.key = None
            return
        entry, entry_slope = self.tail.curve_at(phi)
        wait, wait_slope = self.queue.curve_at(entry)
        self.value = entry + self.arc.transit + wait if wait else entry + self.arc.transit
        if entry_slope is not self.entry_slope or wait_slope is not self.wait_slope:
            self.slope = entry_slope * (1 + wait_slope) if wait_slope else entry_slope
            self.entry_slope, self.wait_slope = entry_slope, wait_slope

    def next_event(self, track_v: GrowingPwl, theta0: Fraction) -> Fraction | None:
        """The first time after theta0 of a tie, a read reaching an anchor,
        or v's frontier catching up with u's; pending: one transit time."""
        if self.pending:
            return theta0 + self.arc.transit
        tail, queue, track_u, m_v = self.tail, self.queue, self.track_u, track_v.slope
        key = (track_v.version, track_u.version, queue.curve.version, tail.i, queue.i)
        if key == self.key:
            return self.next_time
        self.key, times = key, []
        if self.value > theta0 and self.slope < m_v:
            times.append(theta0 + (self.value - theta0) / (1 - self.slope / m_v))
        nb = tail.next_anchor()
        if nb is not None:
            times.append(theta0 + (nb - track_v.edge) * m_v)
        qnext = queue.next_anchor() if self.entry_slope > 0 else None
        if qnext is not None:
            times.append(theta0 + (qnext - queue.x) * m_v / self.entry_slope)
        if m_v < track_u.slope:
            times.append(theta0 + (track_u.edge - track_v.edge)
                         / (1 / m_v - 1 / track_u.slope))
        self.next_time = min((t for t in times if t > theta0), default=None)
        return self.next_time


class _Queue:
    """An arc's queue, with its slope and the times the strategies into it,
    read at their tail labels' frontiers, reach their next breakpoints, kept
    while those reads' keys hold, and the time it runs dry."""

    __slots__ = ("arc", "curve", "feeds", "key", "growth", "floor", "events",
                 "version", "dry")

    def __init__(self, arc: Arc, curve: GrowingPwl, feeds: list):
        # (Cursor on the strategy, tail label) per commodity
        self.arc, self.curve, self.feeds = arc, curve, feeds
        self.key = self.version = None

    def commit(self, theta0: Fraction):
        xs = [steps.step_at(tail.edge) for steps, tail in self.feeds]
        key = [(tail.version, steps.i) for steps, tail in self.feeds]
        if key != self.key:
            self.key = key
            rate = sum((x / tail.slope for x, (_, tail) in zip(xs, self.feeds) if x), ZERO)
            ahead = [(steps.next_anchor(), tail) for steps, tail in self.feeds]
            self.events = [theta0 + (nb - tail.edge) * tail.slope
                           for nb, tail in ahead if nb is not None]
            self.growth = rate / self.arc.capacity - 1
            self.floor = max(self.growth, ZERO)
        q = self.curve
        q.commit(self.growth if q.value > 0 else self.floor)
        if q.version != self.version:
            self.version = q.version
            self.dry = theta0 + q.value / -q.slope if q.value > 0 and q.slope < 0 else None


def extend_labels(instance: Instance, strategies: dict, horizon,
                  return_queues: bool = False):
    """Construct labels for all commodities from per-particle routing rates.

    ``strategies`` maps (commodity id, arc id) to a StepFunction over
    particles (zero outside [0, horizon]).  All transit times must be
    strictly positive; the sweep then always reaches data that is at least
    one transit time old, so labels, virtual inflows and queues grow together
    in one pass.  Returns {commodity id: LabelSet} covering [0, horizon];
    with ``return_queues`` also the per-arc waiting functions the sweep
    maintained (mass balance of the sampled strategy rates).

    These waits are the real ones: loading the strategies' rates over time
    through the tail labels (``rate_over_time``, then ``load_queues``)
    gives the same queues up to the last particle's arrival, and the labels
    are the earliest arrivals against them, which
    ``verify_multicommodity_thinflow`` checks.  Flow
    entering an arc that the labels bypass queues up without widening any
    label gap, so there ``waiting_from_labels`` can understate the wait.

    The sweep moves a frontier time theta0 from event to event.  Each label
    is theta0 at its edge and each queue's edge is theta0, so an advance by
    delta moves a label's edge by delta over its slope, and only a queue
    with a non-zero slope changes value.  An event time is kept, absolute,
    while the versions and cursor indices it came from hold: all it came
    from then runs on one line.  An event moves a read past an anchor,
    changes a slope or makes a candidate pending, so no kept time falls
    behind theta0.
    """
    horizon = Fraction(horizon)
    for a in instance.arcs:
        if a.transit <= 0:
            raise ZeroTransitArc(a.id)
    for (j, e), f in strategies.items():
        if not f.is_nonnegative():
            raise ValueError(f"negative strategy rate for ({j}, {e})")
        if f.initial != 0 or (f.breakpoints and f.breakpoints[0] < 0):
            raise ValueError(f"strategy for ({j}, {e}) must vanish below 0")

    budget = breakpoint_budget()
    comms = list(instance.commodities)
    reach: dict[str, set] = {}
    # labels over particles; the edge of a label is its frontier particle
    tracks: dict[tuple[str, str], GrowingPwl] = {}
    for c in comms:
        dist = transit_distances(instance, c.origin)
        reach[c.id] = {v for v in instance.nodes if dist[v] is not INF}
        for v in reach[c.id]:
            phi0 = -c.rate * (c.inflow_start + dist[v])
            tracks[(c.id, v)] = GrowingPwl(
                f"label of {c.id} at {v}", phi0, ZERO, 1 / c.rate,
                1 / c.rate if v == c.origin else None)
    # waiting times over entry times, with no queue before time 0
    queues = {a.id: GrowingPwl(f"waiting time on arc {a.id}", ZERO, ZERO, ZERO, ZERO)
              for a in instance.arcs}
    # every read moves forward; a strategy is read at its tail's frontier
    rates = {(j, e): Cursor(f, f"strategy of {j} on arc {e}")
             for (j, e), f in strategies.items()}
    heads = [(c.id, v, tracks[(c.id, v)],
              [_Candidate(a, tracks[(c.id, a.tail)], queues[a.id])
               for a in instance.in_arcs(v) if a.tail in reach[c.id]])
             for c in comms for v in reach[c.id] if v != c.origin]
    fed = [_Queue(a, queues[a.id], [(rates[(c.id, a.id)], tracks[(c.id, a.tail)])
                                    for c in comms if a.tail in reach[c.id]
                                    and (c.id, a.id) in rates])
           for a in instance.arcs]
    curves = [*tracks.values(), *queues.values()]
    theta0 = ZERO

    def winner_slope(j: str, v: str, track_v: GrowingPwl, cands: list) -> Fraction:
        tied, behind = [], []
        for c in cands:
            c.read(track_v.edge)
            if not c.pending and c.value <= theta0:
                (tied if c.value == theta0 else behind).append(c)
        if not tied:
            raise SweepInvariantBroken(
                f"label invariant broken at ({j}, {v}): no candidate attains "
                f"the frontier time {theta0}")
        if behind:
            raise SweepInvariantBroken(
                f"label invariant broken at ({j}, {v}): arc {behind[0].arc.id} "
                f"reaches {behind[0].value} before the frontier time {theta0}")
        return min(c.slope for c in tied)

    def mass_on(j: str, v: str, lo: Fraction, hi: Fraction) -> bool:
        """Positive strategy rate of commodity j out of v anywhere on [lo, hi)."""
        for a in instance.out_arcs(v):
            rate, b = rates.get((j, a.id)), lo
            while rate is not None and b is not None and b < hi:
                if rate.step_at(b) > 0:
                    return True
                b = rate.next_anchor()
        return False

    def frontier_slope(j: str, v: str, track_v: GrowingPwl, cands: list) -> Fraction:
        """The label's slope at its frontier, once the frontier has crossed
        any flat stretch there without moving time."""
        while True:
            slope = winner_slope(j, v, track_v, cands)
            if slope != 0:
                return slope
            tied = [c for c in cands if not c.pending and c.value == theta0
                    and c.slope == 0]
            next_phi = None
            for c in tied:
                nb = c.tail.next_anchor()
                if nb is None or nb > c.tail.curve.edge:
                    nb = c.tail.curve.edge
                stops = [nb]
                qnext = c.queue.next_anchor()
                if qnext is not None and c.entry_slope > 0:
                    stops.append(track_v.edge + (qnext - c.queue.x) / c.entry_slope)
                stop = min(stops)
                if stop > track_v.edge and (next_phi is None or stop < next_phi):
                    next_phi = stop
            if next_phi is None or next_phi <= track_v.edge:
                raise SweepInvariantBroken(f"flat stretch at ({j}, {v}) cannot advance")
            if mass_on(j, v, track_v.edge, next_phi):
                raise ValueError(
                    f"strategy sends positive mass of commodity {j} through a "
                    f"label flat at node {v}; the induced inflow is impulsive")
            track_v.commit(ZERO)
            track_v.advance(next_phi - track_v.edge)

    for iterations in count(1):
        if sum(len(g.xs) for g in curves) > budget or iterations > budget:
            raise BreakpointBudgetExceeded(f"budget {budget} exceeded")

        # label slopes at the frontier (sources are fixed lines)
        for j, v, track_v, cands in heads:
            track_v.commit(frontier_slope(j, v, track_v, cands))

        if all(t.edge >= horizon for t in tracks.values()):
            break

        # queue slopes, then the next event: the queue commits can append an
        # anchor beyond the point a cursor last read
        for q in fed:
            q.commit(theta0)
        times = [t for q in fed for t in (q.dry, *q.events)] + [
            c.next_event(track_v, theta0) for _, _, track_v, cands in heads for c in cands]
        first = min((t for t in times if t is not None), default=None)
        if first is None:
            # no structural events ahead: jump straight to the horizon
            delta = max((horizon - t.edge) * t.slope
                        for t in tracks.values() if t.edge < horizon)
            if delta <= 0:
                break
        elif first > theta0:
            delta = first - theta0
        else:
            raise SweepInvariantBroken(f"an event time kept at {first} is not after "
                                       f"the frontier time {theta0}")

        # advance, keeping both frontier invariants
        theta0 += delta
        for track in tracks.values():
            track.edge += delta / track.slope
            track.value = theta0
        for q in queues.values():
            q.edge = theta0
            if q.slope:
                q.value += q.slope * delta

    out: dict[str, LabelSet] = {}
    for c in comms:
        labels = {v: tracks[(c.id, v)].finish() for v in reach[c.id]}
        out[c.id] = LabelSet(c.id, labels, horizon)
    if not return_queues:
        return out
    return out, {e: q.finish() for e, q in queues.items()}
