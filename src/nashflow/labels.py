"""Earliest-arrival labels and their companions.

Per commodity, the label of a node maps a particle to the earliest time that
particle can reach the node given the evolving queues.  This module computes
labels from a loaded flow (one sweep in topological order), classifies
arcs as active/resetting, reconstructs waiting times from the labels of an
equilibrium, turns a per-particle rate into a rate over time through a
label, reads the foreign rate (the other commodities' traffic as one
commodity samples it) at one particle, and extends labels from scratch for
given per-particle routing strategies by an exact time-frontier sweep over
``timefn.GrowingPwl`` curves, read through forward ``timefn.Cursor``s, that
at each event revisits only the labels, queues and event times it changed.

Each arc's gap T_e(l_u) - l_v (``arc_gaps``) is read at a sorted column of
particles from the loaded exit times T_e, each function in one merge pass:
the thin-flow verifier reads them on its partition mesh, and again where
they cross 0, and its checks take them at the ends of each cell.
``arc_status`` reads them at one particle, and the waits there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .netmodel import INF, Arc, Instance, topological_order, transit_distances
from .loading import QueueProfile, _require_known
from .timefn import (ZERO, Cursor, GrowingPwl, PwlFunction, StepFunction,
                     SweepInvariantBroken, ValueNotAttained, _align, breakpoint_budget,
                     compose, min_compose, min_preimage)


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
             points) -> dict[str, list]:
    """Per arc whose two ends a commodity's labels reach: its gap
    T_e(l_u) - l_v at every particle of the non-decreasing ``points``, read
    off the loaded exit times.  Each label and exit time is read in one merge
    pass; a tail label that decreases between the points raises ValueError.
    Only a label that decreases somewhere is scanned for that."""
    values = {v: f.at_sorted(points) for v, f in labelset.labels.items()}
    gaps = {}
    for a in instance.arcs:
        entries = values.get(a.tail)
        if entries is None:
            continue
        if (not labelset.labels[a.tail].is_nondecreasing()
                and any(t < s for s, t in zip(entries, entries[1:]))):
            raise ValueError(f"the label at {a.tail} decreases between the "
                             f"points read")
        heads = values.get(a.head)
        if heads is not None:
            gaps[a.id] = [t - head for t, head in
                          zip(profile.exit_time[a.id].at_sorted(entries), heads)]
    return gaps


def arc_status(instance: Instance, labelset: LabelSet, profile: QueueProfile,
               phi) -> tuple[set, set]:
    """Active (gap 0) and resetting (wait > 0) arc ids at one particle."""
    phi = Fraction(phi)
    gaps = arc_gaps(instance, labelset, profile, [phi])
    return ({e for e, gap in gaps.items() if gap[0] == 0},
            {a.id for a in instance.arcs if a.tail in labelset.labels
             and profile.waiting[a.id](labelset.labels[a.tail](phi)) > 0})


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
    merged breakpoints of both functions.  A ``label`` that decreases
    somewhere raises ValueError; a flat stretch of it passes no time, so a
    nonzero rate there raises ValueError too.  A zero rate is zero at once."""
    if not label.is_nondecreasing():
        raise ValueError("the label decreases somewhere, so its particles do "
                         "not pass in order")
    if not x.breakpoints and not x.initial:
        return StepFunction.zero()
    if x.initial and not label.initial_slope:
        raise ValueError(f"rate {x.initial} on the flat left ray of the label")
    initial = x.initial / label.initial_slope if x.initial else ZERO
    mesh, (i_x, i_label) = _align(x.breakpoints, label.breakpoints)
    # time -> rate; a flat stretch's zero gives way to the cell after it
    pieces = {}
    times, slopes = label._read(i_label, mesh)
    for phi, t, rate, slope in zip(mesh, times, x._values_at(i_x), slopes):
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
    """An in-arc (u, v) of the label ``head``, read at v's frontier at time ``theta``:
    the arrival entry + transit + wait(entry), its slope, and ``at``, its event time."""

    __slots__ = ("arc", "head", "track_u", "track_v", "tail", "queue", "pending",
                 "value", "slope", "entry_slope", "theta", "at")

    def __init__(self, arc: Arc, head: int, track_u: GrowingPwl, track_v: GrowingPwl,
                 queue: GrowingPwl):
        self.arc, self.head, self.track_u, self.track_v = arc, head, track_u, track_v
        # the tail label is read at v's frontier particle, the queue at its entry
        self.tail, self.queue = Cursor(track_u), Cursor(queue)
        self.at, self.pending = None, True  # unread
        for curve, cursor in ((track_u, self.tail), (track_v, None), (queue, self.queue)):
            curve.readers.append((self, cursor))

    def read(self, theta0: Fraction):
        """Read now; at or beyond u's edge it is pending: nothing is read,
        as its value is at least theta0 plus the transit time."""
        self.theta, self.pending = theta0, self.track_v.edge >= self.track_u.edge
        if self.pending:
            return
        entry, self.entry_slope = self.tail.curve_at(self.track_v.edge)
        wait, wait_slope = self.queue.curve_at(entry)
        self.value = entry + self.arc.transit + wait if wait else entry + self.arc.transit
        self.slope = self.entry_slope * (1 + wait_slope) if wait_slope else self.entry_slope

    def next_event(self, theta0: Fraction) -> Fraction | None:
        """The first time after theta0 of a tie, a read reaching an anchor or
        v's edge catching up with u's, on the last read's lines; if pending,
        the read time plus the transit time."""
        if self.pending:
            return self.theta + self.arc.transit
        tail, queue, theta, m_v = self.tail, self.queue, self.theta, self.track_v.slope
        times = [theta + (self.value - theta) / (1 - self.slope / m_v)] \
            if self.value > theta and self.slope < m_v else []
        nb, qnext = tail.next_anchor(), queue.next_anchor() if self.entry_slope > 0 else None
        if nb is not None:
            times.append(theta + (nb - tail.x) * m_v)
        if qnext is not None:
            times.append(theta + (qnext - queue.x) * m_v / self.entry_slope)
        u = self.track_u
        if nb is None and m_v < u.slope:  # v's edge passes an anchor of u first
            times.append(theta0 + (u.edge - self.track_v.edge) / (1 / m_v - 1 / u.slope))
        return min((t for t in times if t > theta0), default=None)


class _Queue:
    """An arc's queue, fed by (Cursor on a strategy, tail label read at its edge)."""

    __slots__ = ("arc", "curve", "feeds", "at")

    def __init__(self, arc: Arc, curve: GrowingPwl, feeds: list):
        self.arc, self.curve, self.feeds, self.at = arc, curve, feeds, None
        for _, tail in feeds:
            tail.readers.append((self, None))

    def slope(self, theta0: Fraction) -> tuple[Fraction, Fraction | None]:
        """The slope from theta0 on, and when a feed steps or the queue runs dry."""
        rate, times = ZERO, []
        for steps, tail in self.feeds:
            x = steps.step_at(tail.edge)
            if x:
                rate += x / tail.slope
            nb = steps.next_anchor()
            if nb is not None:
                times.append(theta0 + (nb - tail.edge) * tail.slope)
        growth, value = rate / self.arc.capacity - 1, self.curve.value
        if value > 0 and growth < 0:
            times.append(theta0 + value / -growth)
        return growth if value > 0 else max(growth, ZERO), min(times, default=None)


def extend_labels(instance: Instance, strategies: dict, horizon) -> dict:
    """Construct labels for all commodities from per-particle routing rates.

    ``strategies`` maps (commodity id, arc id) to a StepFunction over
    particles (zero outside [0, horizon]); an entry the instance lacks raises
    UnknownEntry, a rate into an arc whose tail the commodity never reaches
    ValueError.  All transit times must be strictly positive; the sweep then
    always reaches data that is at least one transit time old, so labels,
    virtual inflows and queues grow together in one pass.  Returns
    {commodity id: LabelSet} whose labels end at the horizon: each is the
    label on (-inf, horizon], run on past it with the slope that the sweep
    commits at particle horizon, so it depends on the strategies alone and
    not on the event at which the sweep stops.

    The waits the sweep maintains are the real ones: loading the strategies'
    rates over time through the tail labels (``rate_over_time``, then
    ``load_queues``) gives the same queues up to the last particle's
    arrival, and the labels are the earliest arrivals against them, which
    ``verify_multicommodity_thinflow`` checks; its report's ``queues`` are
    those loaded queues.  Flow entering an arc that the labels bypass queues
    up without widening any label gap, so there ``waiting_from_labels`` can
    understate the wait.

    The sweep moves a frontier time theta0 from event to event.  Each label
    is theta0 at its edge and each queue's edge is theta0, so an advance by
    delta moves a label's edge by delta over its slope, and only a queue
    with a non-zero slope changes value.  Candidates and queues keep their
    next event times in one heap.  A fired time recommits its queue or
    rereads its candidate's label.  A slope change anchors the curve's edge,
    beyond every read (a queue is read at its edge only on a flat of the
    tail), so it recommits the queues that the curve feeds and retimes its
    label's candidates and the readers whose next anchor on it is the new
    one.  A pending candidate, whose label's edge is at or beyond its
    tail's, is not read; its kept time is its read time theta_r plus its
    transit time tau, which a retime keeps.  That is soon enough: at every
    later frontier time its value is at least theta_r + tau, since its entry
    reads the tail label at a particle at or beyond the tail's edge at
    theta_r, where the label is at least theta_r, and waits are
    non-negative; so it can neither tie nor undercut before theta_r + tau.

    Checks run where they can fail: a label that rereads needs a candidate
    at theta0, none before it, and progress over a flat; a time taken from
    the heap must lie after theta0.  A label not reread keeps the first two,
    as its candidates run on their last reads' lines up to their kept
    times: a tied one with its slope stays tied, one with a larger slope
    moves ahead, and one ahead returns only at its kept tie time.
    """
    horizon = Fraction(horizon)
    for a in instance.arcs:
        if a.transit <= 0:
            raise ZeroTransitArc(a.id)
    _require_known(instance, strategies)
    budget = breakpoint_budget()
    reach: dict[str, set] = {}  # for membership; tracks follow instance.nodes
    # labels over particles; the edge of a label is its frontier particle
    tracks: dict[tuple[str, str], GrowingPwl] = {}
    for c in instance.commodities:
        dist = transit_distances(instance, c.origin)
        order = [v for v in instance.nodes if dist[v] is not INF]
        reach[c.id] = set(order)
        for v in order:
            phi0 = -c.rate * (c.inflow_start + dist[v])
            tracks[(c.id, v)] = GrowingPwl(
                f"label of {c.id} at {v}", phi0, ZERO, 1 / c.rate,
                1 / c.rate if v == c.origin else None)
    for (j, e), f in strategies.items():
        if not f.is_nonnegative():
            raise ValueError(f"negative strategy rate for ({j}, {e})")
        if f.initial != 0 or (f.breakpoints and f.breakpoints[0] < 0):
            raise ValueError(f"strategy for ({j}, {e}) must vanish below 0")
        if any(f.values) and instance.arc(e).tail not in reach[j]:
            raise ValueError(f"commodity {j} sends flow into arc {e}, whose "
                             f"tail its labels never reach")
    # waiting times over entry times, with no queue before time 0
    queues = {a.id: GrowingPwl(f"waiting time on arc {a.id}", ZERO, ZERO, ZERO, ZERO)
              for a in instance.arcs}
    heads = [(j, v, t) for (j, v), t in tracks.items() if t.slope is None]  # not sources
    heads = [(j, v, track_v, [_Candidate(a, k, tracks[(j, a.tail)], track_v, queues[a.id])
                              for a in instance.in_arcs(v) if a.tail in reach[j]])
             for k, (j, v, track_v) in enumerate(heads)]
    # every read moves forward; a strategy is read at its tail's frontier
    fed = [_Queue(a, queues[a.id], [(Cursor(f, f"strategy of {j} on arc {e}"),
                                     tracks[(j, a.tail)])
                                    for (j, e), f in strategies.items()
                                    if e == a.id and a.tail in reach[j]])
           for a in instance.arcs]
    anchors, theta0 = len(tracks) + len(queues), ZERO
    # labels to reread; the candidates to retime and queues to recommit
    stale, touched, heap, tiebreak = set(range(len(heads))), set(fed), [], count()

    def commit(curve: GrowingPwl, slope: Fraction):
        nonlocal anchors
        old, n = curve.slope, len(curve.xs)
        curve.commit(slope)
        anchors += len(curve.xs) - n
        for r, cursor in curve.readers if curve.slope is not old else ():
            if cursor is None or r.pending or cursor.next_anchor() is curve.xs[-1]:
                touched.add(r)

    def schedule(reader, at):
        if at is not None and at != reader.at:
            heapq.heappush(heap, (at, next(tiebreak), reader))
        reader.at = at

    def mass_on(j: str, v: str, lo: Fraction, hi: Fraction) -> bool:
        """Positive strategy rate of commodity j out of v anywhere on [lo, hi)."""
        fs = [strategies[(j, a.id)] for a in instance.out_arcs(v) if (j, a.id) in strategies]
        return any(f(lo) > 0 or any(x > 0 for b, x in zip(f.breakpoints, f.values)
                                    if lo < b < hi) for f in fs)

    def frontier_slope(j: str, v: str, track_v: GrowingPwl, cands: list) -> Fraction:
        """The label's slope at its frontier, past any flat stretch at theta0."""
        while True:
            tied, behind = [], []
            for c in cands:
                c.read(theta0)
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
            slope = min(c.slope for c in tied)
            if slope != 0:
                return slope
            stops = []
            for c in (c for c in tied if c.slope == 0):
                nb = c.tail.next_anchor()
                stop = c.tail.curve.edge if nb is None else min(nb, c.tail.curve.edge)
                qnext = c.queue.next_anchor()
                if qnext is not None and c.entry_slope > 0:
                    stop = min(stop, track_v.edge + (qnext - c.queue.x) / c.entry_slope)
                stops.append(stop)
            next_phi = min((stop for stop in stops if stop > track_v.edge), default=None)
            if next_phi is None:
                raise SweepInvariantBroken(f"flat stretch at ({j}, {v}) cannot advance")
            if mass_on(j, v, track_v.edge, next_phi):
                raise ValueError(
                    f"strategy sends positive mass of commodity {j} through a "
                    f"label flat at node {v}; the induced inflow is impulsive")
            commit(track_v, ZERO)
            track_v.advance(next_phi - track_v.edge)

    for iterations in count(1):
        if anchors > budget or iterations > budget:
            raise BreakpointBudgetExceeded(f"budget {budget} exceeded")

        # label slopes at the frontier (sources are fixed lines)
        for k in sorted(stale):
            commit(heads[k][2], frontier_slope(*heads[k]))
        stale.clear()
        if all(t.edge >= horizon for t in tracks.values()):
            break

        # queue slopes, then the next event: the queue commits can append an
        # anchor beyond the point a cursor last read
        for q in [r for r in touched if r.__class__ is _Queue]:
            slope, at = q.slope(theta0)
            commit(q.curve, slope)
            schedule(q, at)
        for c in touched:
            if c.__class__ is _Candidate:
                schedule(c, c.next_event(theta0))
        touched = set()
        while heap and heap[0][2].at != heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            # no structural events ahead: jump straight to the horizon
            delta = max((horizon - t.edge) * t.slope
                        for t in tracks.values() if t.edge < horizon)
        elif heap[0][0] > theta0:
            delta = heap[0][0] - theta0
        else:
            raise SweepInvariantBroken(f"an event time kept at {heap[0][0]} is not "
                                       f"after the frontier time {theta0}")

        # advance, keeping both frontier invariants
        theta0 += delta
        for track in tracks.values():
            track.edge += delta / track.slope
            track.value = theta0
        for q in queues.values():
            q.edge = theta0
            if q.slope:
                q.value += q.slope * delta
        while heap and heap[0][0] == theta0:
            reader = heapq.heappop(heap)[2]
            if reader.at == theta0:
                reader.at = None
                touched.add(reader)
                if reader.__class__ is _Candidate:
                    stale.add(reader.head)

    out: dict[str, LabelSet] = {}
    for c in instance.commodities:
        labels = {v: t.finish(horizon) for (j, v), t in tracks.items() if j == c.id}
        out[c.id] = LabelSet(c.id, labels, horizon)
    return out
