"""Per-point reference scans for the sweep kernels of ``timefn`` and
``loading``.

Each function here answers the same question as a production kernel, but by
the plain method: evaluate the functions point by point (one bisection per
call) and scan every segment or breakpoint in turn.  They are slow on
purpose, share no helper with the kernels beyond single-point evaluation,
and serve the equivalence tests only.  ``queue_positivity_failures``,
``waiting_derivative_failures``, ``unfrozen_exit_times``, ``negative_queue``
and ``exit_times_decrease`` are the queue-dynamics checks that
``check_feasibility`` proves implied rather than runs; the implication test
in ``test_loading`` keeps them as references, and with them the FIFO split,
the total cumulative identity (``fifo_split_failures``,
``total_identity_fails``), and every commodity's identity, of which the
library composes all but the last on an arc that keeps the outflow rules
(``commodity_identity_failures``).  ``static_flow_failures`` is the underlying
static-flow check that ``verify_nash`` proves implied; ``test_nash`` keeps it
as a reference.  These four take their cumulative flows from the library's
``integrate``.  ``antiderivative`` is ``integrate`` summed piece by piece
at every anchor, and ``derive_arc`` the derivation of an arc's queue
volume, waits and exit times from two integrals, F_in shifted by the
transit time less F_out, that ``loading._derive_arc`` replaces with one
integral of the net arrival rate.  The thin-flow verifier at the
end reads every check cell by cell, one gap at a time; it shares the loading
and the partition with the library, since the equivalence test is about the
reads.  ``partition`` is that partition as it was built from the waits: cut
where each q_e bends or crosses 0, with each gap read as entry + transit +
wait - head, where the library cuts at the bends of the exit times and reads
the gaps off them.  ``stress_conditions`` keeps the slope conditions that the
verifier proves implied rather than runs, read through the one-point
``arc_status`` here and the library's one-point ``foreign_rate_at``; it passes
``stress`` a commodity's own rate plus its foreign rate as the one flow on the
arc, and reads them on the partition refined where the foreign rate changes.
``earliest_arrival`` is the round-based label iteration that the ordered
sweep of ``labels.earliest_arrival`` replaces: every round recomputes every
node from all its in-arcs and its old label, with the library's
``compose`` and ``min_compose``, since its equivalence test is about the
order of the work.  ``lexicographic_single`` and
``lexicographic_multisource`` are the thin-flow search that the two-pass
search of ``thinflow._solve`` replaces: one depth-first pass over the state
tuples in lexicographic order, returning the first full-rank leaf that the
library's ``_conditions`` passes, and for value 0 the direct propagation of
the slopes (``propagate_zero_flow``).  They share the library's support and
evaluator, since their equivalence test is about the search order.
``extend_labels`` is the time-frontier sweep that the incremental sweep of
``labels.extend_labels`` replaces, kept verbatim but for its end: at every
event it rereads every candidate, recomputes every event time from the
current state and advances every curve.  Its labels end at the horizon,
run on past it with their slopes right of it, as the library's do; beyond
that they depended on the event at which the sweep stops.  It shares the
library's ``GrowingPwl`` and ``Cursor``, since its equivalence test is about
the work per event.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from nashflow import timefn
from nashflow.labels import (BreakpointBudgetExceeded, CyclicZeroTransit, LabelSet,
                             ZeroTransitArc, foreign_rate_at, rate_over_time)
from nashflow.loading import load_network
from nashflow.netmodel import INF, Arc, Instance, topological_order, transit_distances
from nashflow.thinflow import (NoThinFlow, ThinFlowReport, ThinFlowViolation,
                               UnreachableNode, _conditions, _partition,
                               _support, stress)
from nashflow.timefn import (Cursor, GrowingPwl, PwlFunction, StepFunction,
                             SweepInvariantBroken, ValueNotAttained, breakpoint_budget,
                             differentiate, integrate)

ZERO = Fraction(0)
ONE = Fraction(1)


def is_nondecreasing(F: PwlFunction) -> bool:
    if F.initial_slope < 0 or F.final_slope < 0:
        return False
    return all(a <= b for a, b in zip(F.values, F.values[1:]))


def strict_preimage(F: PwlFunction, y):
    """An x with F(x) = y where F crosses y strictly inside a segment or an
    outer ray; None otherwise."""
    y = Fraction(y)
    bps, vals = F.breakpoints, F.values
    if F.initial_slope > 0 and y < vals[0]:
        return bps[0] - (vals[0] - y) / F.initial_slope
    if F.final_slope > 0 and y > vals[-1]:
        return bps[-1] + (y - vals[-1]) / F.final_slope
    for k in range(len(bps) - 1):
        lo, hi = vals[k], vals[k + 1]
        if lo < y < hi:
            return bps[k] + (y - lo) * (bps[k + 1] - bps[k]) / (hi - lo)
    return None


def min_preimage(F: PwlFunction, value):
    """Smallest x with F(x) == value, by a linear scan."""
    value = Fraction(value)
    if not is_nondecreasing(F):
        raise ValueError("min_preimage requires a non-decreasing function")
    bps, vals = F.breakpoints, F.values
    if value < vals[0]:
        if F.initial_slope > 0:
            return bps[0] - (vals[0] - value) / F.initial_slope
        raise ValueNotAttained(f"value {value} below the function range")
    if value == vals[0]:
        if F.initial_slope > 0:
            return bps[0]
        raise ValueNotAttained("value attained on an unbounded leading flat")
    for k in range(len(bps)):
        if vals[k] == value:
            return bps[k]
        if vals[k] > value:
            span = bps[k] - bps[k - 1]
            rise = vals[k] - vals[k - 1]
            return bps[k - 1] + (value - vals[k - 1]) * span / rise
    if F.final_slope > 0:
        return bps[-1] + (value - vals[-1]) / F.final_slope
    raise ValueNotAttained(f"value {value} above the function range")


def compose(outer: PwlFunction, inner: PwlFunction) -> PwlFunction:
    if not is_nondecreasing(inner):
        raise ValueError("compose requires a non-decreasing inner function")
    pts = set(inner.breakpoints)
    for beta in outer.breakpoints:
        x = strict_preimage(inner, beta)
        if x is not None:
            pts.add(x)
    mesh = sorted(pts)
    vals = [outer(inner(x)) for x in mesh]
    y_lo = inner(mesh[0])
    y_hi = inner(mesh[-1])
    s0 = outer.slope_left(y_lo) * inner.initial_slope if inner.initial_slope != 0 \
        else ZERO
    s1 = outer.slope_right(y_hi) * inner.final_slope if inner.final_slope != 0 \
        else ZERO
    return PwlFunction(mesh, vals, s0, s1)


def _cells(mesh):
    return [(None, mesh[0])] + list(zip(mesh, mesh[1:])) + [(mesh[-1], None)]


def _crossing_in_cell(f, g, lo, hi):
    if lo is None:
        sl = f.slope_left(hi) - g.slope_left(hi)
        dv = f(hi) - g(hi)
        if sl == 0 or dv == 0:
            return None
        x = hi - dv / sl
        return x if x < hi else None
    if hi is None:
        sl = f.slope_right(lo) - g.slope_right(lo)
        dv = f(lo) - g(lo)
        if sl == 0 or dv == 0:
            return None
        x = lo - dv / sl
        return x if x > lo else None
    da = f(lo) - g(lo)
    db = f(hi) - g(hi)
    if da == 0 or db == 0 or (da > 0) == (db > 0):
        return None
    return lo + (hi - lo) * (-da) / (db - da)


def min_compose(candidates):
    funcs = list(candidates)
    mesh = sorted({b for f in funcs for b in f.breakpoints})
    extra = set()
    for lo, hi in _cells(mesh):
        for a in range(len(funcs)):
            for b in range(a + 1, len(funcs)):
                x = _crossing_in_cell(funcs[a], funcs[b], lo, hi)
                if x is not None:
                    extra.add(x)
    mesh = sorted(set(mesh) | extra)
    vals = [min(f(x) for f in funcs) for x in mesh]
    left_probe = mesh[0] - 1
    right_probe = mesh[-1] + 1
    left_min = min(f(left_probe) for f in funcs)
    right_min = min(f(right_probe) for f in funcs)
    s0 = min(f.slope_right(left_probe) for f in funcs if f(left_probe) == left_min)
    s1 = min(f.slope_right(right_probe) for f in funcs if f(right_probe) == right_min)
    result = PwlFunction(mesh, vals, s0, s1)
    segments = []
    for lo, hi in _cells(mesh):
        a = mesh[0] - 1 if lo is None else lo
        b = mesh[-1] + 1 if hi is None else hi
        mv_a = min(f(a) for f in funcs)
        mv_b = min(f(b) for f in funcs)
        members = frozenset(i for i, f in enumerate(funcs)
                            if f(a) == mv_a and f(b) == mv_b)
        segments.append((lo, hi, members))
    return result, segments


def antiderivative(f: StepFunction, start) -> PwlFunction:
    """The integral of f from ``start``, anchored at ``start`` and every
    breakpoint, each anchor's value summed piece by piece from ``start``."""
    start = Fraction(start)
    mesh = sorted(set(f.breakpoints) | {start})

    def area(lo, hi):
        cuts = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
        return sum((f(a) * (b - a) for a, b in zip(cuts, cuts[1:])), ZERO)
    vals = [area(start, x) if x >= start else -area(x, start) for x in mesh]
    return PwlFunction(mesh, vals, f.initial, f.final)


def derive_arc(arc: Arc, f_in: StepFunction, f_out: StepFunction):
    """The arc's queue volume z = F_in(. - tau) - F_out from two integrals
    from the anchor, its waits q = z(. + tau) / nu and its exit times
    T = theta + tau + q, as (z, q, T)."""
    anchor = min([ZERO] + [f.breakpoints[0] for f in (f_in, f_out) if f.breakpoints])
    z = integrate(f_in, anchor).shift(arc.transit) - integrate(f_out, anchor)
    q = z.shift(-arc.transit).scale(1 / arc.capacity)
    return z, q, q + PwlFunction.line(ONE, ZERO, arc.transit)


def earliest_arrival(instance, profile, commodity_id, phi_max=None):
    """Labels by rounds over ``instance.nodes`` until a round changes none."""
    c = instance.commodity(commodity_id)
    labels = {c.origin: PwlFunction.line(1 / c.rate, ZERO, c.inflow_start)}
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds > len(instance.nodes) + 1:
            raise CyclicZeroTransit("label iteration did not stabilize")
        for v in instance.nodes:
            if v == c.origin:
                continue
            candidates = [timefn.compose(profile.exit_time[a.id], labels[a.tail])
                          for a in instance.in_arcs(v) if a.tail in labels]
            if v in labels:
                candidates.append(labels[v])
            if not candidates:
                continue
            new, _ = timefn.min_compose(candidates)
            if new != labels.get(v):
                labels[v] = new
                changed = True
    return LabelSet(commodity_id, labels, None if phi_max is None else Fraction(phi_max))


def split_outflow(inflow_j: StepFunction, total_in: StepFunction,
                  total_out: StepFunction, T: PwlFunction) -> StepFunction:
    """Per-commodity outflow under FIFO, one preimage search per cut."""
    if not inflow_j.breakpoints and inflow_j.initial == 0:
        return StepFunction.zero()
    cut = set(total_out.breakpoints)
    for b in set(T.breakpoints) | set(total_in.breakpoints) | set(inflow_j.breakpoints):
        cut.add(T(b))
    cuts = sorted(cut)
    samples = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])] + [cuts[-1] + 1]
    vals = []
    for m in samples:
        out_total = total_out(m)
        if out_total == 0:
            vals.append(ZERO)
            continue
        entry = min_preimage(T, m)
        den = total_in(entry)
        vals.append(ZERO if den == 0 else out_total * inflow_j(entry) / den)
    return StepFunction(cuts, vals, ZERO)


def _summed(instance, rates, arc_id) -> StepFunction:
    return sum((rates.get((c.id, arc_id), StepFunction.zero())
                for c in instance.commodities), StepFunction.zero())


def _rises(T: PwlFunction) -> bool:
    """Whether T is non-decreasing with a rising right ray: the exit times
    the FIFO split and the total identity are read through."""
    return is_nondecreasing(T) and T.final_slope > 0


def fifo_split_failures(instance, flow, T: PwlFunction, arc_id) -> list:
    """Commodities whose outflow on the arc is not their FIFO share
    (``split_outflow``) of the summed outflow, read through the exit times
    ``T``; an outflow that finds no entry time fails.  Nothing fails
    through a T that does not rise."""
    if not _rises(T):
        return []
    f_in = _summed(instance, flow.inflow, arc_id)
    f_out = _summed(instance, flow.outflow, arc_id)
    failures = []
    for c in instance.commodities:
        fj_in = flow.inflow.get((c.id, arc_id), StepFunction.zero())
        fj_out = flow.outflow.get((c.id, arc_id), StepFunction.zero())
        try:
            split = split_outflow(fj_in, f_in, f_out, T)
        except ValueNotAttained:
            split = None
        if split != fj_out:
            failures.append(c.id)
    return failures


def _totals(instance, flow, arc_id):
    """The arc's summed in- and outflow, and where its cumulative flows
    start: 0 or the first breakpoint of either total, whichever is earlier."""
    f_in = _summed(instance, flow.inflow, arc_id)
    f_out = _summed(instance, flow.outflow, arc_id)
    return f_in, f_out, min([ZERO] + [f.breakpoints[0] for f in (f_in, f_out) if f.breakpoints])


def total_identity_fails(instance, flow, T: PwlFunction, arc_id) -> bool:
    """Whether the summed cumulative flows break F_in(theta) =
    F_out(T(theta)), both integrated from the arc's anchor.  Nothing fails
    through a T that does not rise."""
    if not _rises(T):
        return False
    f_in, f_out, anchor = _totals(instance, flow, arc_id)
    return compose(integrate(f_out, anchor), T) != integrate(f_in, anchor)


def commodity_identity_failures(instance, flow, T: PwlFunction, arc_id) -> list:
    """Commodities whose cumulative flows on the arc break F_in,j(theta) =
    F_out,j(T(theta)), every commodity composed, both integrated from the
    arc's anchor.  Nothing fails through a T that does not rise."""
    if not _rises(T):
        return []
    anchor = _totals(instance, flow, arc_id)[2]
    failures = []
    for c in instance.commodities:
        fj_in = flow.inflow.get((c.id, arc_id), StepFunction.zero())
        fj_out = flow.outflow.get((c.id, arc_id), StepFunction.zero())
        if compose(integrate(fj_out, anchor), T) != integrate(fj_in, anchor):
            failures.append(c.id)
    return failures


def static_flow_failures(instance, commodity, labelset, flow) -> list:
    """Labelled nodes, the destination aside, where the arc vector
    F_in,j(l_u) over the arcs with a labelled tail u is not a static flow of
    value phi from the origin, read at 0, at the particle volume and at
    every breakpoint between.  No node fails for an unbounded commodity."""
    volume = commodity.particle_volume
    if volume is None:
        return []
    per_arc = {}
    for a in instance.arcs:
        lu = labelset.labels.get(a.tail)
        if lu is not None:
            f_in = flow.inflow.get((commodity.id, a.id), StepFunction.zero())
            start = min([ZERO] + list(f_in.breakpoints[:1]))
            per_arc[a.id] = compose(integrate(f_in, start), lu)
    failures = []
    for v in instance.nodes:
        if v == commodity.destination or v not in labelset.labels:
            continue
        out = [per_arc[a.id] for a in instance.out_arcs(v) if a.id in per_arc]
        into = [per_arc[a.id] for a in instance.in_arcs(v) if a.id in per_arc]
        if not out and not into:
            continue
        points = {ZERO, volume} | {b for x in out + into for b in x.breakpoints
                                   if 0 < b < volume}
        for phi in sorted(points):
            net = sum(x(phi) for x in out) - sum(x(phi) for x in into)
            if net != (phi if v == commodity.origin else ZERO):
                failures.append(v)
                break
    return failures


def queue_positivity_failures(q: PwlFunction, z: PwlFunction, transit) -> list:
    """Particles theta, probed at every anchor b of q and at b + 1/2 (the
    first failing one per anchor), whose positive wait q(theta) meets a
    non-positive queue volume somewhere in [theta + transit,
    theta + transit + q(theta))."""
    failures = []
    for b in q.breakpoints:
        for theta in (b, b + Fraction(1, 2)):
            w = q(theta)
            if w <= 0:
                continue
            lo = theta + transit
            hi = lo + w
            inside = [z(lo)] + [z(x) for x in z.breakpoints if lo < x < hi]
            if min(inside) <= 0:
                failures.append(theta)
                break
    return failures


def _with_interior_zeros(mesh: list, fn: PwlFunction) -> list:
    """The sorted ``mesh`` plus the zeros of ``fn`` strictly inside its cells."""
    points = set(mesh)
    for lo, hi in zip(mesh, mesh[1:]):
        a, b = fn(lo), fn(hi)
        if a and b and (a > 0) != (b > 0):
            points.add(lo - a * (hi - lo) / (b - a))
    return sorted(points)


def waiting_derivative_failures(q: PwlFunction, f_in: StepFunction, capacity) -> list:
    """Probes m, one inside every cell of the breakpoints of q and f_in
    refined by the zeros of q (the two outer rays included), where the right
    slope of q is not f_in(m)/capacity - 1 while q(m) > 0, or not
    max(f_in(m)/capacity - 1, 0) otherwise."""
    mesh = _with_interior_zeros(sorted(set(q.breakpoints) | set(f_in.breakpoints)), q)
    probes = [mesh[0] - 1] + [(lo + hi) / 2 for lo, hi in zip(mesh, mesh[1:])] + \
        [mesh[-1] + 1]
    failures = []
    for m in probes:
        ratio = f_in(m) / capacity - 1
        expected = ratio if q(m) > 0 else max(ratio, ZERO)
        if q.slope_right(m) != expected:
            failures.append(m)
    return failures


def unfrozen_exit_times(T: PwlFunction, f_in: StepFunction, z: PwlFunction,
                        transit) -> list:
    """Cell midpoints m of the breakpoints of T, f_in and z refined by the
    zeros of z, with no inflow at m and a standing queue z(m + transit) > 0,
    where the exit time still moves (its slope at m is not 0)."""
    mesh = _with_interior_zeros(
        sorted(set(T.breakpoints) | set(f_in.breakpoints) | set(z.breakpoints)), z)
    mids = [(lo + hi) / 2 for lo, hi in zip(mesh, mesh[1:])]
    return [m for m in mids
            if f_in(m) == 0 and z(m + transit) > 0 and T.slope_right(m) != 0]


def negative_queue(z: PwlFunction) -> bool:
    """Whether the queue volume z falls below 0 somewhere: at an anchor, or
    on an outer ray that runs down without bound."""
    return (z.initial_slope > 0 or z.final_slope < 0
            or any(z(b) < 0 for b in z.breakpoints))


def exit_times_decrease(T: PwlFunction) -> bool:
    """Whether the exit times T fall somewhere."""
    return not is_nondecreasing(T)


def arc_status(instance, labelset, profile, phi):
    """Active and resetting arc ids for one particle, read arc by arc."""
    phi = Fraction(phi)
    active, resetting = set(), set()
    for a in instance.arcs:
        lu = labelset.labels.get(a.tail)
        lv = labelset.labels.get(a.head)
        if lu is None:
            continue
        entry = lu(phi)
        wait = profile.waiting[a.id](entry)
        if wait > 0:
            resetting.add(a.id)
        if lv is not None and lv(phi) == entry + a.transit + wait:
            active.add(a.id)
    return active, resetting


def partition(instance, ls, rates, horizon, profile):
    """The cells of ``thinflow._partition`` cut where each wait q_e bends or
    crosses 0, their gaps entry + transit + q_e(entry) - l_v; a tail label
    that decreases on the mesh raises ValueError at the first such arc."""
    cuts = {ZERO, horizon}
    for f in (*ls.labels.values(), *rates.values()):
        cuts |= {b for b in f.breakpoints if 0 < b < horizon}
    for a in instance.arcs:
        lu = ls.labels.get(a.tail)
        if lu is None:
            continue
        q = profile.waiting[a.id]
        times = list(q.breakpoints) + timefn.zero_crossings(
            q.breakpoints, q.values, q.initial_slope, q.final_slope)
        lo, hi = lu(ZERO), lu(horizon)
        cuts.update(min_preimage(lu, t) for t in times if lo < t < hi)
    mesh = sorted(cuts)
    gap_zeros = []
    for a in instance.arcs:
        lu, lv = ls.labels.get(a.tail), ls.labels.get(a.head)
        if lu is None:
            continue
        entries = [lu(m) for m in mesh]
        if any(t < s for s, t in zip(entries, entries[1:])):
            raise ValueError(f"the label at {a.tail} decreases between the "
                             f"points read")
        if lv is not None:
            gaps = [entry + a.transit + profile.waiting[a.id](entry) - lv(m)
                    for m, entry in zip(mesh, entries)]
            gap_zeros += timefn.zero_crossings(mesh, gaps)
    mesh = sorted(set(mesh) | set(gap_zeros))
    return list(zip(mesh, mesh[1:]))


def strategy_profile(instance, strategies, labels_all):
    """The queues of the strategies loaded through their tail labels."""
    inflows = {}
    for (j, e), x in strategies.items():
        lu = labels_all[j].labels.get(instance.arc(e).tail)
        if lu is not None:
            inflows[(j, e)] = rate_over_time(x, lu)
        elif x != StepFunction.zero():
            raise ValueError(f"commodity {j} sends flow into arc {e}, whose "
                             f"tail its labels never reach")
    return load_network(instance, inflows)[1]


def verify_multicommodity_thinflow(instance, strategies, labels_all, horizon,
                                   require_tightness=True):
    """The library's thin-flow verifier, read cell by cell at the midpoints
    against the queues the strategies load."""
    profile = strategy_profile(instance, strategies, labels_all)
    horizon = Fraction(horizon)
    violations = []
    pieces = {}
    for c in instance.commodities:
        j = c.id
        ls = labels_all[j]
        rates = {e: x for (i, e), x in strategies.items() if i == j}
        cells = _partition(instance, ls, rates, horizon, profile)
        pieces[j] = cells
        source = ls.labels[c.origin]
        for lo, hi in cells:
            m = (lo + hi) / 2
            piece = (lo, hi)
            in_k = c.particle_volume is None or m < c.particle_volume
            if source.slope_right(m) != 1 / c.rate or \
                    source(m) != c.inflow_start + m / c.rate:
                violations.append(ThinFlowViolation("TF1Violated", j, c.origin, piece))
            gaps = {}
            for a in instance.arcs:
                lu, lv = ls.labels.get(a.tail), ls.labels.get(a.head)
                if lu is not None and lv is not None:
                    entry = lu(m)
                    gaps[a.id] = entry + a.transit + profile.waiting[a.id](entry) - lv(m)
            own = {a.id: strategies.get((j, a.id), StepFunction.zero())(m)
                   for a in instance.arcs}
            for a in instance.arcs:
                if require_tightness and own[a.id] > 0 and gaps.get(a.id) != 0:
                    violations.append(ThinFlowViolation("SupportViolated", j, a.id,
                                                        piece))
            for a in instance.arcs:
                if a.id in gaps and gaps[a.id] < 0:
                    violations.append(ThinFlowViolation("LabelUndercut", j, a.id,
                                                        piece))
            for v in instance.nodes:
                if v == c.origin or v not in ls.labels:
                    continue
                if all(gaps.get(a.id) != 0 for a in instance.in_arcs(v)):
                    violations.append(ThinFlowViolation("TF2Violated", j, v, piece))
            for v in instance.nodes:
                net = sum((own[a.id] for a in instance.out_arcs(v)), ZERO) \
                    - sum((own[a.id] for a in instance.in_arcs(v)), ZERO)
                expected = ZERO
                if v == c.origin:
                    expected = Fraction(1) if in_k else ZERO
                elif v == c.destination:
                    expected = Fraction(-1) if in_k else ZERO
                if net != expected:
                    violations.append(ThinFlowViolation("StaticFlowViolated", j, v,
                                                        piece))
                    break
    return ThinFlowReport(ok=not violations, violations=violations, pieces=pieces)


def foreign_cells(instance, labels_all, strategies, j, cells):
    """The cells refined at j's first particles to reach an arc's tail
    when another commodity's tail label or strategy on that arc bends, so
    that j's foreign rate on every arc is constant on each cell."""
    ls = labels_all[j]
    cuts = {x for cell in cells for x in cell}
    for a in instance.arcs:
        lu = ls.labels.get(a.tail)
        if lu is None:
            continue
        lo, hi = lu(cells[0][0]), lu(cells[-1][1])
        for i, other in labels_all.items():
            lu_i = other.labels.get(a.tail)
            if i == j or lu_i is None:
                continue
            x_i = strategies.get((i, a.id), StepFunction.zero())
            for beta in set(lu_i.breakpoints) | set(x_i.breakpoints):
                t = lu_i(beta)
                if lo < t < hi:
                    cuts.add(min_preimage(lu, t))
    mesh = sorted(cuts)
    return list(zip(mesh, mesh[1:]))


def stress_conditions(instance, strategies, labels_all, horizon, profile,
                      require_tightness=True):
    """The slope conditions that ``verify_multicommodity_thinflow`` proves
    implied rather than runs, read cell by cell against ``profile``.  On
    every cell of the partition refined by ``foreign_cells``, a labelled
    node other than the origin whose label slope is not the minimum stress
    over its active incoming arcs (foreign rates included) gives
    ``TF2Violated``, and with ``require_tightness`` an active arc carrying
    flow whose stress is not that slope gives ``TF3Violated``.  A node with
    no active incoming arc is left to the verifier's own TF2."""
    violations = []
    for c in instance.commodities:
        j = c.id
        ls = labels_all[j]
        lslope = {v: differentiate(f) for v, f in ls.labels.items()}
        rates = {e: x for (i, e), x in strategies.items() if i == j}
        cells = _partition(instance, ls, rates, Fraction(horizon), profile)
        for lo, hi in foreign_cells(instance, labels_all, strategies, j, cells):
            m = (lo + hi) / 2
            active, resetting = arc_status(instance, ls, profile, m)
            for v in instance.nodes:
                if v == c.origin or v not in ls.labels:
                    continue
                rhos = []
                for a in instance.in_arcs(v):
                    if a.id in active:
                        x = strategies.get((j, a.id), StepFunction.zero())(m)
                        y = foreign_rate_at(instance, labels_all, strategies, j,
                                            a.id, m)
                        rhos.append((a.id, x, stress(a.capacity, lslope[a.tail](m),
                                                     x + y, a.id in resetting)))
                if rhos and lslope[v](m) != min(r for _, _, r in rhos):
                    violations.append(ThinFlowViolation("TF2Violated", j, v, (lo, hi)))
                for e, x, rho in rhos:
                    if require_tightness and x > 0 and rho != lslope[v](m):
                        violations.append(ThinFlowViolation("TF3Violated", j, e,
                                                            (lo, hi)))
    return violations


def _state_solutions(instance, usable, resetting, base_rows, unknowns):
    """The solutions of the full-rank per-arc state systems, in the
    lexicographic order of their state tuples under Z < L < C, pruning the
    prefixes whose rows contradict each other or can no longer reach full
    rank."""
    echelon = []  # (pivot, other coefficients, rhs); no row holds an earlier pivot

    def push(coeffs, rhs):
        row = {v: c for v, c in coeffs.items() if c}
        for pivot, others, r in echelon:
            c = row.pop(pivot, None)
            if c is None:
                continue
            for v, a in others.items():
                left = row.get(v, ZERO) - c * a
                if left:
                    row[v] = left
                else:
                    del row[v]
            rhs -= c * r
        if not row:
            return None if rhs else False
        pivot, c = next(iter(row.items()))
        del row[pivot]
        echelon.append((pivot, {v: a / c for v, a in row.items()}, rhs / c))
        return True

    def solution():
        values = {}
        for pivot, others, rhs in reversed(echelon):
            values[pivot] = rhs - sum((a * values[v] for v, a in others.items()), ZERO)
        return values

    def visit(depth):
        if len(echelon) + len(usable) - depth < unknowns:
            return
        if depth == len(usable):
            yield solution()
            return
        arc = instance.arc(usable[depth])
        x = ("x", arc.id)
        rows = {"Z": {x: ONE},
                "L": {arc.head: ONE, arc.tail: -ONE},
                "C": {x: ONE, arc.head: -arc.capacity}}
        for state in ("Z", "C") if arc.id in resetting else ("Z", "L", "C"):
            grown = push(rows[state], ZERO)
            if grown is None:
                continue
            yield from visit(depth + 1)
            if grown:
                echelon.pop()

    if all(push(coeffs, rhs) is not None for coeffs, rhs in base_rows):
        yield from visit(0)


def _lexicographic_solve(instance, active, resetting, nodes, usable, rates, sink,
                         demand, source_rows):
    """(flow, slopes) of the first passing leaf in lexicographic order."""
    rows = list(source_rows)
    for v in sorted(nodes):
        coeffs = {v: -rates[v]} if v in rates else {}
        for a in instance.out_arcs(v):
            if a.id in usable:
                coeffs[("x", a.id)] = ONE
        for a in instance.in_arcs(v):
            if a.id in usable:
                coeffs[("x", a.id)] = -ONE
        rows.append((coeffs, -demand if v == sink else ZERO))
    for values in _state_solutions(instance, usable, resetting, rows,
                                   len(nodes) + len(usable)):
        flow = {e: values[("x", e)] for e in usable}
        slopes = {v: values[v] for v in sorted(nodes)}
        supplied = {s: (slopes[s], r * slopes[s]) for s, r in rates.items()}
        if not list(_conditions(instance, active, resetting, supplied, sink,
                                demand, flow, slopes, nodes)):
            return flow, slopes
    raise NoThinFlow("no thin flow found")


def propagate_zero_flow(instance, usable, resetting, source, rate):
    """Label slopes of the zero-value thin flow, propagated in topological
    order: a node takes the least slope its in-arcs pass on."""
    slopes = {source: 1 / Fraction(rate)}
    for v in topological_order(instance, usable):
        if v == source:
            continue
        rhos = [ZERO if a.id in resetting else slopes[a.tail]
                for a in instance.in_arcs(v)
                if a.id in usable and a.tail in slopes]
        slopes[v] = min(rhos) if rhos else ZERO
    return slopes


def lexicographic_single(instance, active, resetting, source, sink, rate,
                         value=ONE):
    """(flow, slopes) of ``solve_thinflow_single`` by the plain search."""
    active, resetting = frozenset(active), frozenset(resetting)
    rate, value = Fraction(rate), Fraction(value)
    nodes, usable = _support(instance, active, [source], sink)
    if value == 0:
        return ({e: ZERO for e in usable},
                propagate_zero_flow(instance, usable, resetting, source, rate))
    return _lexicographic_solve(instance, active, resetting, nodes, usable,
                                {source: value * rate}, sink, value,
                                [({source: ONE}, 1 / rate)])


def lexicographic_multisource(instance, active, resetting, sources, sink):
    """(supplies, flow, slopes) of ``solve_thinflow_multisource`` by the
    plain search."""
    active, resetting = frozenset(active), frozenset(resetting)
    sources = {j: (s_j, Fraction(r_j)) for j, (s_j, r_j) in sources.items()}
    rates = dict(sources.values())
    nodes, usable = _support(instance, active, rates, sink)
    if active - set(usable):
        raise UnreachableNode(sorted(active - set(usable))[0])
    flow, slopes = _lexicographic_solve(instance, active, resetting, nodes, usable,
                                        rates, sink, ONE, [(rates, ONE)])
    return {j: r_j * slopes[s_j] for j, (s_j, r_j) in sources.items()}, flow, slopes


# The time-frontier sweep that ``labels.extend_labels`` replaces, kept as it
# was but for the labels' end at the horizon: every event rereads every
# candidate and recomputes every event time.


@dataclass
class _Candidate:
    arc: Arc
    tail: Cursor  # on the tail label, read at the head's frontier particle
    queue: Cursor  # on the arc's queue, read at that particle's entry time
    pending: bool
    value: Fraction | None = None
    slope: Fraction | None = None
    entry_slope: Fraction | None = None  # slope of the tail label at the sample


def extend_labels(instance: Instance, strategies: dict, horizon,
                  return_queues: bool = False):
    """Construct labels for all commodities from per-particle routing rates.

    ``strategies`` maps (commodity id, arc id) to a StepFunction over
    particles (zero outside [0, horizon]).  All transit times must be
    strictly positive; the sweep then always reaches data that is at least
    one transit time old, so labels, virtual inflows and queues grow together
    in one pass.  Returns {commodity id: LabelSet} whose labels end at the
    horizon, run on past it with their slopes right of it; with
    ``return_queues`` also the per-arc waiting functions the sweep
    maintained (mass balance of the sampled strategy rates).

    These waits are the real ones: loading the strategies' rates over time
    through the tail labels (``rate_over_time``, then ``load_queues``)
    gives the same queues up to the last particle's arrival, and the labels
    are the earliest arrivals against them, which
    ``verify_multicommodity_thinflow`` checks.  Flow
    entering an arc that the labels bypass queues up without widening any
    label gap, so there ``waiting_from_labels`` can understate the wait.
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
    cursors = {(c.id, a.id): (Cursor(tracks[(c.id, a.tail)]), Cursor(queues[a.id]))
               for c in comms for a in instance.arcs if a.tail in reach[c.id]}
    rates = {(j, e): Cursor(f, f"strategy of {j} on arc {e}")
             for (j, e), f in strategies.items()}
    in_arcs = {v: instance.in_arcs(v) for v in instance.nodes}
    out_arcs = {v: instance.out_arcs(v) for v in instance.nodes}
    theta0 = ZERO

    def candidates_for(j: str, v: str) -> list[_Candidate]:
        track_v = tracks[(j, v)]
        result = []
        for a in in_arcs[v]:
            if a.tail not in reach[j]:
                continue
            tail, queue = cursors[(j, a.id)]
            if track_v.edge >= tail.curve.edge:
                # at or beyond the tail's frontier the entry time is the
                # current moment or later, so the candidate trails the label
                # by at least the transit time; recheck within one transit
                result.append(_Candidate(a, tail, queue, pending=True))
                continue
            entry, entry_slope = tail.curve_at(track_v.edge)
            wait, wait_slope = queue.curve_at(entry)
            result.append(_Candidate(a, tail, queue, False, entry + a.transit + wait,
                                     entry_slope * (1 + wait_slope), entry_slope))
        return result

    def winner_slope(j: str, v: str):
        cands = candidates_for(j, v)
        live = [c for c in cands if not c.pending]
        tied = [c for c in live if c.value == theta0]
        if not tied:
            raise SweepInvariantBroken(
                f"label invariant broken at ({j}, {v}): no candidate attains "
                f"the frontier time {theta0}")
        for c in live:
            if c.value < theta0:
                raise SweepInvariantBroken(
                    f"label invariant broken at ({j}, {v}): arc {c.arc.id} "
                    f"reaches {c.value} before the frontier time {theta0}")
        return min(c.slope for c in tied), cands

    def mass_on(j: str, v: str, lo: Fraction, hi: Fraction) -> bool:
        """Positive strategy rate of commodity j out of v anywhere on [lo, hi)."""
        for a in out_arcs[v]:
            rate, b = rates.get((j, a.id)), lo
            while rate is not None and b is not None and b < hi:
                if rate.step_at(b) > 0:
                    return True
                b = rate.next_anchor()
        return False

    def process_flat(j: str, v: str):
        """Advance a frontier across a flat stretch without moving time."""
        track_v = tracks[(j, v)]
        while True:
            slope, cands = winner_slope(j, v)
            if slope != 0:
                track_v.commit(slope)
                return
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
        total_pts = sum(len(g.xs) for g in (*tracks.values(), *queues.values()))
        if total_pts > budget or iterations > budget:
            raise BreakpointBudgetExceeded(f"budget {budget} exceeded")

        # label slopes at the frontier (sources are fixed lines)
        cand_map: dict[tuple[str, str], list[_Candidate]] = {}
        for c in comms:
            for v in reach[c.id]:
                if v == c.origin:
                    continue
                slope, cands = winner_slope(c.id, v)
                if slope == 0:
                    process_flat(c.id, v)
                    slope, cands = winner_slope(c.id, v)
                tracks[(c.id, v)].commit(slope)
                cand_map[(c.id, v)] = cands

        if all(t.edge >= horizon for t in tracks.values()):
            break

        # the next event, found along the way
        delta = None

        def note(d):
            nonlocal delta
            if d is not None and d > 0 and (delta is None or d < delta):
                delta = d

        # virtual inflow rates and queue slopes; strategy breakpoints and
        # queues running dry
        for a in instance.arcs:
            rate = ZERO
            for c in comms:
                if a.tail not in reach[c.id]:
                    continue
                f = rates.get((c.id, a.id))
                if f is None:
                    continue
                track_u = tracks[(c.id, a.tail)]
                x = f.step_at(track_u.edge)
                if x != 0:
                    rate += x / track_u.slope
                nb = f.next_anchor()
                if nb is not None:
                    note((nb - track_u.edge) * track_u.slope)
            q = queues[a.id]
            growth = rate / a.capacity - 1
            q.commit(growth if q.value > 0 else max(growth, ZERO))
            if q.value > 0 and q.slope < 0:
                note(q.value / (-q.slope))

        # label events; these next-anchor reads come after the commits above,
        # which can append an anchor beyond the point a cursor last read
        for (j, v), cands in cand_map.items():
            track_v = tracks[(j, v)]
            m_v = track_v.slope
            for c in cands:
                if c.pending:
                    note(c.arc.transit)
                    continue
                if c.value > theta0:
                    denom = 1 - c.slope / m_v
                    if denom > 0:
                        note((c.value - theta0) / denom)
                track_u = c.tail.curve
                nb = c.tail.next_anchor()
                if nb is not None:
                    note((nb - track_v.edge) * m_v)
                if c.entry_slope and c.entry_slope > 0:
                    qnext = c.queue.next_anchor()
                    if qnext is not None:
                        note((qnext - c.queue.x) * m_v / c.entry_slope)
                # frontier of v catching up with the data of u
                if track_u.slope is not None and m_v < track_u.slope:
                    gap = track_u.edge - track_v.edge
                    note(gap / (1 / m_v - 1 / track_u.slope))
        if delta is None:
            # no structural events ahead: jump straight to the horizon
            delta = max((horizon - t.edge) * t.slope
                        for t in tracks.values() if t.edge < horizon)
            if delta <= 0:
                break

        # advance
        theta0 += delta
        for track in tracks.values():
            track.advance(delta / track.slope)
        for q in queues.values():
            q.advance(delta)

    out: dict[str, LabelSet] = {}
    for c in comms:
        labels = {v: tracks[(c.id, v)].finish(horizon) for v in reach[c.id]}
        out[c.id] = LabelSet(c.id, labels, horizon)
    if not return_queues:
        return out
    return out, {e: q.finish() for e, q in queues.items()}
