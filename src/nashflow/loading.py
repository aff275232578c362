"""Network loading for the deterministic queueing model.

Given per-commodity arc inflow rates, derives total and per-commodity
outflows, queue volumes, waiting times and exit times by an exact
event-driven sweep (events are rate breakpoints shifted by the transit time
and queue depletion instants, which are linear solves) of each arc's total
inflow; one merge pass over the arc's exit times then splits the total
outflow among all commodities.  Also provides the feasibility checker that
certifies the flow dynamics piece by piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .netmodel import Instance, UnknownEntry
from .timefn import (ONE, ZERO, PwlFunction, StepFunction, _align, breakpoint_budget,
                     compose, first_difference, integrate, min_preimage, zero_crossings)


class NegativeInflow(ValueError):
    """Inflow rates are non-negative and zero before their first breakpoint."""


class UnboundedBreakpoints(RuntimeError):
    """The configured breakpoint budget was exceeded."""


class BeyondHorizon(ValueError):
    """Evaluation past the horizon the profile was computed for."""


class LoadingInvariantBroken(RuntimeError):
    """The event sweep of one arc ended in a state its invariants exclude."""


@dataclass
class QueueProfile:
    """Per-arc queue volume z (over time), waiting time q and exit time T."""

    volume: dict[str, PwlFunction]
    waiting: dict[str, PwlFunction]
    exit_time: dict[str, PwlFunction]
    horizon: Fraction | None = None

    def _guard(self, theta):
        if self.horizon is not None and Fraction(theta) > self.horizon:
            raise BeyondHorizon(f"{theta} exceeds computed horizon {self.horizon}")


def queue_size(profile: QueueProfile, arc_id: str, theta) -> Fraction:
    profile._guard(theta)
    return profile.volume[arc_id](theta)


def waiting_time(profile: QueueProfile, arc_id: str, theta) -> Fraction:
    profile._guard(theta)
    return profile.waiting[arc_id](theta)


def exit_time(profile: QueueProfile, arc_id: str, theta) -> Fraction:
    profile._guard(theta)
    return profile.exit_time[arc_id](theta)


@dataclass
class FlowOverTime:
    """Per-commodity arc in-/outflow rates plus their totals, which are
    outputs (``load_network``, ``fill_totals``): certificates sum the
    commodity rates themselves (``arc_total``)."""

    inflow: dict[tuple[str, str], StepFunction]       # (commodity, arc) -> rate
    outflow: dict[tuple[str, str], StepFunction]
    total_inflow: dict[str, StepFunction] = field(default_factory=dict)
    total_outflow: dict[str, StepFunction] = field(default_factory=dict)

    def fill_totals(self, instance: Instance):
        for a in instance.arcs:
            self.total_inflow[a.id] = arc_total(instance, self.inflow, a.id)
            self.total_outflow[a.id] = arc_total(instance, self.outflow, a.id)
        return self

    def cumulative_inflow(self, commodity_id, arc_id) -> PwlFunction:
        f = self.inflow.get((commodity_id, arc_id), StepFunction.zero())
        return integrate(f, _anchor(f))

    def cumulative_outflow(self, commodity_id, arc_id) -> PwlFunction:
        f = self.outflow.get((commodity_id, arc_id), StepFunction.zero())
        return integrate(f, _anchor(f))


def arc_total(instance: Instance, rates: dict, arc_id: str) -> StepFunction:
    """The sum of the arc's commodity rates in ``rates`` (missing is zero)."""
    return StepFunction.sum_of(rates.get((c.id, arc_id), StepFunction.zero())
                               for c in instance.commodities)


def inflow_fault(f: StepFunction) -> str | None:
    """Where ``f`` first breaks the inflow rule, or None: "-inf" if it is
    nonzero before its first breakpoint, else its first negative breakpoint."""
    if f.initial != 0:
        return "-inf"
    return next((str(b) for b, v in zip(f.breakpoints, f.values) if v < 0), None)


def _require_known(instance: Instance, *rates: dict):
    """Raise UnknownEntry on a (commodity, arc) key the instance lacks."""
    known = {(c.id, a.id) for c in instance.commodities for a in instance.arcs}
    for j, e in (key for r in rates for key in r):
        if (j, e) not in known:
            raise UnknownEntry(f"flow entry ({j}, {e}) names a commodity or arc "
                               f"that the instance lacks")


def _anchor(*rates: StepFunction) -> Fraction:
    """Where cumulative flows start: at or before 0 and every first breakpoint."""
    return min([ZERO] + [f.breakpoints[0] for f in rates if f.breakpoints])


def _store(profile: QueueProfile, arc, z: PwlFunction):
    """Store the arc's queue volume z, the waits q = z(. + tau) / nu that it
    defines, built on z's anchors moved by -tau, and the exit times
    T = theta + tau + q, built on q's anchors with each slope raised by 1."""
    tau, c = arc.transit, 1 / arc.capacity
    q = PwlFunction._carried([b - tau for b in z.breakpoints], [c * v for v in z.values],
                             [c * s for s in z._slopes], c * z.initial_slope, c * z.final_slope)
    profile.volume[arc.id] = z
    profile.waiting[arc.id] = q
    profile.exit_time[arc.id] = PwlFunction._carried(
        q.breakpoints, [v + b + tau for b, v in zip(q.breakpoints, q.values)],
        [s + 1 for s in q._slopes], q.initial_slope + 1, q.final_slope + 1)


def _derive_arc(profile: QueueProfile, arc, f_in: StepFunction, f_out: StepFunction):
    """Store the arc's z = F_in(. - tau) - F_out, waits and exit times, and
    return g = f_in(. - tau).  From the anchor, left of every breakpoint of
    f_in, z is the integral of g - f_out less f_in(-inf) tau (tau >= 0)."""
    g = f_in.shift(arc.transit)
    z = integrate(g - f_out, _anchor(f_in, f_out))
    if f_in.initial and arc.transit:
        z = z.add_constant(-f_in.initial * arc.transit)
    _store(profile, arc, z)
    return g


def load_network(instance: Instance, inflows: dict, horizon=None):
    """Load given inflow rates through the network.

    ``inflows`` maps (commodity id, arc id) to a StepFunction of time; missing
    pairs mean zero inflow.  Rates must be non-negative with finite support
    (zero before their first breakpoint and, when ``horizon`` is given, zero
    from the horizon on).  Returns (FlowOverTime, QueueProfile); all outputs
    are exact piecewise functions.  Per arc the cost is one sweep of the total
    inflow and one merge pass splitting the outflow (``_split_outflows``).
    """
    profile, total_in, total_out = _load_totals(instance, inflows, horizon)
    flow = FlowOverTime({}, {}, total_in, total_out)
    for a in instance.arcs:
        rates = [inflows.get((c.id, a.id), StepFunction.zero()) for c in instance.commodities]
        outflows = _split_outflows(rates, total_in[a.id], total_out[a.id],
                                   profile.exit_time[a.id])
        for c, f_j, out in zip(instance.commodities, rates, outflows):
            flow.inflow[(c.id, a.id)] = f_j
            flow.outflow[(c.id, a.id)] = out
    return flow, profile


def load_queues(instance: Instance, inflows: dict) -> QueueProfile:
    """The complete queue profile of ``load_network``: volumes, waits and exit
    times, without the FIFO split of the outflows among commodities."""
    return _load_totals(instance, inflows, None)[0]


def _load_totals(instance: Instance, inflows: dict, horizon):
    """Check the inflows and load each arc's total inflow: the queue profile,
    and the total in- and outflow per arc."""
    _require_known(instance, inflows)
    budget = breakpoint_budget()
    total_bps = 0
    for (j, e), f in inflows.items():
        where = inflow_fault(f)
        if where is not None:
            raise NegativeInflow(f"inflow of commodity {j} into arc {e} is negative "
                                 f"or nonzero before its first breakpoint, at {where}")
        if horizon is not None and not f.vanishes_beyond(horizon):
            raise ValueError(f"inflow of commodity {j} into {e} is nonzero beyond "
                             f"the horizon {horizon}")
        total_bps += len(f.breakpoints)
        if total_bps > budget:
            raise UnboundedBreakpoints(f"more than {budget} inflow breakpoints")

    profile = QueueProfile(volume={}, waiting={}, exit_time={})
    total_in, total_out = {}, {}
    for arc in instance.arcs:
        total_in[arc.id] = arc_total(instance, inflows, arc.id)
        total_out[arc.id], z = _load_arc(total_in[arc.id], arc)
        _store(profile, arc, z)
    if horizon is not None:
        drain = sum((a.transit for a in instance.arcs), ZERO)
        volume = sum((_total_volume(f) for f in total_in.values()), ZERO)
        nu_min = min((a.capacity for a in instance.arcs), default=ONE)
        profile.horizon = Fraction(horizon) + drain + volume / nu_min
    return profile, total_in, total_out


def _total_volume(f: StepFunction) -> Fraction:
    return sum((v * (hi - lo) for lo, hi, v in f.pieces()
                if v != 0 and lo is not None and hi is not None), ZERO)


def _load_arc(total_in: StepFunction, arc):
    """Total outflow and queue volume for one arc under queue dynamics.

    The queue volume grows at arrival rate minus capacity while positive;
    at zero it grows only when arrivals exceed capacity.  Outflow is the
    capacity while a queue stands, otherwise min(arrival rate, capacity).
    """
    capacity = arc.capacity
    g = total_in.shift(arc.transit)  # arrival rate at the queue
    if not g.breakpoints:
        return StepFunction.zero(), PwlFunction.constant(ZERO)
    z_bps = [g.breakpoints[0]]
    z_vals = [ZERO]
    z_slopes = []  # right of every anchor but the last
    outflows = {}  # time -> outflow; the last value set at a time wins
    z = ZERO
    # from the first breakpoint on; the last piece, a ray, sets final_slope and final_out
    for lo, hi, rate in list(g.pieces())[1:]:
        t = lo
        while True:
            if z > 0:
                slope = rate - capacity
                out = capacity
            else:
                slope = max(rate - capacity, ZERO)
                out = min(rate, capacity)
            outflows[t] = out
            if z > 0 and slope < 0:
                deplete = t + z / (-slope)
                if hi is None or deplete < hi:
                    z_bps.append(deplete)
                    z_vals.append(ZERO)
                    z_slopes.append(slope)
                    t, z = deplete, ZERO
                    continue
            if hi is None:
                final_slope = slope
                final_out = out
                break
            z = z + slope * (hi - t)
            z_bps.append(hi)
            z_vals.append(z)
            z_slopes.append(slope)
            break
    volume = PwlFunction._carried(z_bps, z_vals, z_slopes, ZERO, final_slope)
    outflow = StepFunction(list(outflows), list(outflows.values()), ZERO)
    if outflow.final != final_out:
        raise LoadingInvariantBroken(
            f"arc {arc.id}: outflow settles at {outflow.final}, the sweep at {final_out}")
    return outflow, volume


def _split_outflows(inflows: list, total_in: StepFunction, total_out: StepFunction,
                    T: PwlFunction) -> list[StepFunction]:
    """Every commodity's outflow on one arc: its share f_j / f of the total
    outflow, read at the FIFO entry time of the particles leaving.

    The marks are the breakpoints of T and of every inflow, which hold
    those of ``total_in``, their sum; the cuts are ``total_out``'s
    breakpoints and the marks' exit times, in order as the loader's T does
    not decrease.  The particles leaving in a cut cell entered right of the
    last mark whose exit time is at or before the cell and left of the
    next, where T is linear and rising and every inflow constant.  One
    ``_align`` merge reads every function at the marks, a second gives each
    cut cell its mark, so no entry time is searched for."""
    if all(f == StepFunction.zero() for f in inflows):
        return [StepFunction.zero()] * len(inflows)
    marks, (i_T, i_in, *cols) = _align(T.breakpoints, total_in.breakpoints,
                                       *(f.breakpoints for f in inflows))
    exits = T._read(i_T, marks)[0]
    cuts, (i_out, i_exit) = _align(total_out.breakpoints, exits)
    outs = total_out._values_at(i_out)
    at = [i + 1 for i in i_exit]  # 0: T's left ray
    rising = T.is_nondecreasing()
    rays = (rising and T.initial_slope > 0, rising and T.final_slope > 0)
    for k, (out, i) in enumerate(zip(outs, at)):
        if out and not (rays[0] if i == 0 else rays[1] if i == len(marks) else rising):
            # T misses the cell: raise as the search at the cell's sample does
            hi = cuts[k + 1] if k + 1 < len(cuts) else cuts[k] + 2
            min_preimage(T, (cuts[k] + hi) / 2)
    dens = [total_in.initial] + total_in._values_at(i_in)
    split = []
    for f, col in zip(inflows, cols):
        shares = [num / den if den else ZERO
                  for num, den in zip([f.initial] + f._values_at(col), dens)]
        split.append(StepFunction(cuts, [out * shares[i] for out, i in zip(outs, at)], ZERO))
    return split


@dataclass
class FeasibilityReport:
    ok: bool
    violations: list
    checks: dict
    profile: QueueProfile = field(compare=False, repr=False)  # the flow's derivation

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "violations": [v.record() for v in self.violations],
                "checks": self.checks}


@dataclass(frozen=True)
class FlowViolation:
    code: str
    subject: str
    where: str = ""

    def __str__(self):
        return f"{self.code}({self.subject}){' at ' + self.where if self.where else ''}"

    def record(self) -> dict:
        return {"code": self.code, "subject": self.subject, "where": self.where}


def derive_profile(instance: Instance, flow: FlowOverTime) -> QueueProfile:
    """Queue profile implied by a flow's summed commodity rates (definitional,
    no dynamics); an entry the instance lacks raises UnknownEntry."""
    _require_known(instance, flow.inflow, flow.outflow)
    profile = QueueProfile(volume={}, waiting={}, exit_time={})
    for a in instance.arcs:
        _derive_arc(profile, a, arc_total(instance, flow.inflow, a.id),
                    arc_total(instance, flow.outflow, a.id))
    return profile


def check_feasibility(instance: Instance, flow: FlowOverTime,
                      profile: QueueProfile | None = None) -> FeasibilityReport:
    """Certify the flow dynamics exactly on every piece.

    Reads the commodity rates alone.  Each arc's totals f_in and f_out are
    their sums (``arc_total``); its queue volume z = F_in(. - tau) - F_out,
    one integral of the net rate f_in(. - tau) - f_out less f_in(-inf) tau,
    waits q = z(. + tau) / nu and exit times T = theta + tau + q are derived
    from them once, into the report's ``profile``.  A given ``profile`` is a
    claim: each field is compared with the derivation (QueueMismatch,
    WaitingMismatch, ExitTimeMismatch, at the first differing point), and
    the other checks read the derivation.  Unknown entries raise UnknownEntry.

    Checks every commodity inflow against the loader's rule
    (``inflow_fault``), node conservation per commodity and, per arc, the
    total-outflow law (f_out = nu while z > 0, otherwise min(g, nu) with
    g = f_in(. - tau)) on every cell and ray of a mesh on which z keeps its
    sign and g and f_out are constant, hence at every point, a total outflow
    zero before its first breakpoint and the identity
    F_in,j(theta) = F_out,j(T(theta)) of every commodity j, all exactly.

    Once these checks pass, the remaining queue-dynamics properties follow,
    so none of them is checked again:

    (a) Waiting derivative.  The right derivative of q is
        q'(theta) = (f_in(theta) - f_out(theta + tau)) / nu.  The law gives
        f_out(theta + tau) = nu when q(theta) > 0 and min(f_in(theta), nu)
        otherwise, so q' = f_in / nu - 1 where q > 0 and
        max(f_in / nu - 1, 0) elsewhere, at every point.
    (b) Frozen exit times.  T' = q' + 1, which by (a) is 0 wherever
        f_in = 0 and q > 0.
    (c) A positive wait meets a standing queue.  z(theta + tau) =
        nu q(theta) > 0.  While z > 0 on [theta + tau, t) the law gives
        f_out = nu, so z' = g - nu >= -nu there, inflows being non-negative,
        and z(t) >= nu q(theta) - nu (t - theta - tau) > 0 for every
        t < theta + tau + q(theta).
    (d) Arc conservation, F_in(theta) = F_out(T(theta)): the totals are
        sums, and integrating and composing with T are linear, so it is the
        sum of the per-commodity identities.
    (e) FIFO: f_out,j(t) = f_out(t) f_in,j(theta) / f_in(theta), or 0 if
        f_in(theta) = 0, at the first entry time theta of t.  Both totals
        are 0 before the anchor, so T = theta + tau on a left ray; with its
        right ray rising, T is onto.  By the right derivatives of (d) and of
        j's identity, f_in(theta) and f_in,j(theta) are f_out(t) T'(theta)
        and f_out,j(t) T'(theta); where T'(theta) > 0 that is the formula
        (f_in(theta) = 0 forces f_in,j(theta) = 0, inflows being
        non-negative).  The other t, values of T on flat pieces, are finitely
        many, and right-continuous step functions that agree elsewhere are
        equal.
    (f) Non-negative queues.  By the inflow rule and the early-outflow check
        both totals are 0 before the anchor, so z = 0 on a left ray.  On
        every cell where z <= 0 the law gives f_out = min(g, nu) <= g, so
        z' = g - f_out >= 0 there.  A continuous z that cannot fall while it
        is non-positive never goes below 0.
    (g) Monotone exit times.  The law gives f_out <= nu, and g >= 0, so
        z' >= -nu, q' >= -1 and T' = q' + 1 >= 0.  A right ray with T' = 0
        has z' = -nu, so z goes negative, and by (f) a law, inflow or
        early-outflow violation is already reported: the identity, which
        needs T to rise on its right ray, is skipped only on a failing arc.
    (h) The last identity.  On an arc with no inflow, law or early-outflow
        violation q >= 0 by (f), and by (c) and the law f_out = nu on
        [theta + tau, T(theta)), so F_out(T(theta)) = F_out(theta + tau) +
        nu q(theta) = F_out(theta + tau) + z(theta + tau) = F_in(theta): the
        total identity holds.  As in (d), the last commodity's identity is
        then the total's minus the others', so it is composed there only if
        another one fails.
    """
    _require_known(instance, flow.inflow, flow.outflow)
    derived = QueueProfile(volume={}, waiting={}, exit_time={})
    violations: list[FlowViolation] = []
    for a in instance.arcs:
        violations += _check_arc(instance, flow, profile, derived, a)
    violations += _check_conservation(instance, flow)
    checks = {
        "arcs": len(instance.arcs),
        "commodities": len(instance.commodities),
        "arc_conservation": "implied by per-commodity cumulative identity",
    }
    return FeasibilityReport(not violations, violations, checks, derived)


def _witness(a, b) -> str:
    """The first point at which the functions a and b differ, written out."""
    return str(first_difference(a, b)[0])


def _check_arc(instance: Instance, flow: FlowOverTime, claim: QueueProfile | None,
               derived: QueueProfile, arc):
    violations = []
    e = arc.id
    for c in instance.commodities:
        where = inflow_fault(flow.inflow.get((c.id, e), StepFunction.zero()))
        if where is not None:
            violations.append(FlowViolation("NegativeInflow", f"{c.id},{e}", where))
    f_in = arc_total(instance, flow.inflow, e)
    f_out = arc_total(instance, flow.outflow, e)
    g = _derive_arc(derived, arc, f_in, f_out)
    z, q, T = derived.volume[e], derived.waiting[e], derived.exit_time[e]

    if claim is not None:
        if claim.volume[e] != z:
            violations.append(FlowViolation("QueueMismatch", e,
                                            _witness(claim.volume[e], z)))
        if claim.waiting[e] != q:
            violations.append(FlowViolation("WaitingMismatch", e,
                                            _witness(claim.waiting[e], q)))
        if claim.exit_time[e] != T:
            violations.append(FlowViolation("ExitTimeMismatch", e,
                                            _witness(claim.exit_time[e], T)))

    # the total outflow law on every cell and ray of a mesh on which z keeps
    # its sign and g and f_out are constant: read at the cell's left end, and
    # z by the sign of z(lo) + z(hi), with z = 0 at the crossings the mesh adds
    mesh, (i_z, i_g, i_out) = _align(z.breakpoints, g.breakpoints, f_out.breakpoints)
    zs = z._read(i_z, mesh)[0]
    cells, (at, _) = _align(mesh, zero_crossings(mesh, zs, z.initial_slope, z.final_slope))
    zc = [zs[i] if i != j else ZERO for i, j in zip(at, [-1] + at)]
    signs = [zc[0] - z.initial_slope] + [u + v for u, v in zip(zc, zc[1:])] + \
        [zc[-1] + z.final_slope]
    gs = [g.initial] + g._values_at(i_g)  # by mesh index + 1
    outs = [f_out.initial] + f_out._values_at(i_out)
    ends = [None] + cells + [None]
    for lo, hi, zm, i in zip(ends, ends[1:], signs, [-1] + at):
        expected = arc.capacity if zm > 0 else min(gs[i + 1], arc.capacity)
        if outs[i + 1] != expected:
            left = "(-inf" if lo is None else f"[{lo}"
            right = "inf" if hi is None else str(hi)
            violations.append(FlowViolation("OutflowLawViolated", e, f"{left}, {right})"))
            break

    # an outflow since -inf has no entry times: T is flat on its left ray
    if f_out.initial != 0:
        violations.append(FlowViolation("EarlyOutflow", e, "-inf"))

    # by (g) an arc whose T cannot be composed with is already reported
    if not T.is_nondecreasing() or T.final_slope == 0:
        return violations

    # the cumulative identity per commodity (exact, via composition); by (h)
    # the last one follows from the others' on an arc that keeps the rules
    anchor = _anchor(f_in, f_out)
    implied = not any(v.code in ("NegativeInflow", "OutflowLawViolated", "EarlyOutflow")
                      for v in violations)
    before = len(violations)
    for k, c in enumerate(instance.commodities, 1):
        if implied and k == len(instance.commodities) and len(violations) == before:
            break
        Fj_in = integrate(flow.inflow.get((c.id, e), StepFunction.zero()), anchor)
        Fj_out = integrate(flow.outflow.get((c.id, e), StepFunction.zero()), anchor)
        composed = compose(Fj_out, T)
        if composed != Fj_in:
            violations.append(FlowViolation("CommodityCumulativeViolated",
                                            f"{c.id},{e}", _witness(composed, Fj_in)))
    return violations


def _check_conservation(instance: Instance, flow: FlowOverTime):
    violations = []
    for c in instance.commodities:
        for v in instance.nodes:
            if v == c.destination:
                continue
            net = StepFunction.sum_of(
                [flow.inflow.get((c.id, a.id), StepFunction.zero())
                 for a in instance.out_arcs(v)]) - StepFunction.sum_of(
                [flow.outflow.get((c.id, a.id), StepFunction.zero())
                 for a in instance.in_arcs(v)])
            if v != c.origin:
                expected = StepFunction.zero()
            elif c.inflow_end is None:
                expected = StepFunction((c.inflow_start,), (c.rate,))
            else:
                expected = StepFunction((c.inflow_start, c.inflow_end), (c.rate, ZERO))
            if net != expected:
                violations.append(FlowViolation("ConservationViolated",
                                                f"{v},{c.id}", _witness(net, expected)))
    return violations


def flow_to_json(instance: Instance, flow: FlowOverTime) -> dict:
    return {name: [{"commodity": j, "arc": e, "rate": f.to_json()}
                   for (j, e), f in sorted(rates.items()) if f.values or f.initial != 0]
            for name, rates in (("inflows", flow.inflow), ("outflows", flow.outflow))}


def inflows_from_json(doc: dict, name: str = "inflows") -> dict:
    """Read a flow-rate file: {"inflows": [{commodity, arc, rate}, ...]};
    ``name`` picks another list of rates, such as "outflows"."""
    return {(str(item["commodity"]), str(item["arc"])): StepFunction.from_json(item["rate"])
            for item in doc.get(name, [])}


def flow_from_json(instance: Instance, doc: dict) -> FlowOverTime:
    """Read a full flow file (inflows plus outflows) and fill totals; an
    entry the instance lacks raises UnknownEntry."""
    flow = FlowOverTime(inflows_from_json(doc), inflows_from_json(doc, "outflows"))
    _require_known(instance, flow.inflow, flow.outflow)
    for c in instance.commodities:
        for a in instance.arcs:
            flow.inflow.setdefault((c.id, a.id), StepFunction.zero())
            flow.outflow.setdefault((c.id, a.id), StepFunction.zero())
    return flow.fill_totals(instance)
