"""Phase-wise construction and verification of dynamic equilibria.

Constructors grow the equilibrium particle by particle: at each step the
active and resetting arcs follow from the label gaps, a thin flow gives the
label slopes, and the phase extends until an inactive arc becomes active,
a queue on a resetting arc depletes, the inflow interval ends, or the
particle horizon is reached.  A single commodity, and the common-origin
commodities merged on the super-sink extension, grow from one origin;
common-destination commodities from several sources at once.  All three
constructors end the same way: each commodity's inflow interval is cut at
its origin's label of the last injected particle, and the flow over time is
read off each phase once (rate = flow part / label slope on the image
window).

The verifier is independent of construction: it recomputes earliest-arrival
labels from the flow and checks that the cumulative inflow at the tail
arrival time equals the cumulative outflow at the head arrival time, per
commodity and arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .labels import LabelSet, earliest_arrival, rate_over_time
from .loading import (FeasibilityReport, FlowOverTime, FlowViolation,
                      QueueProfile, check_feasibility, derive_profile)
from .netmodel import (COMMON_DESTINATION, COMMON_ORIGIN, INF, Arc, Instance,
                       InvalidDerivedInstance, _fresh_name, _rate_and_sigma,
                       extend_with_super_sink, transit_distances, validate_instance)
from .thinflow import (MultiSourceThinFlow, NewArcInactive, ThinFlow,
                       decompose, solve_thinflow_multisource,
                       solve_thinflow_single, verify_multicommodity_thinflow)
from .timefn import (ONE, ZERO, GrowingPwl, PwlFunction, StepFunction,
                     compose, differentiate, first_difference)


class PhaseBudgetExceeded(RuntimeError):
    """The construction hit the phase cap before the horizon."""


class StalledPhase(RuntimeError):
    """A phase came out with non-positive length, so the construction
    cannot advance past its particle."""

    def __init__(self, phase: int, particle):
        super().__init__(f"phase {phase} at particle {particle} has no positive length")
        self.phase = phase
        self.particle = particle


class FlowReconstructionError(RuntimeError):
    """Phase flows put mass where the labels leave no time for it."""


@dataclass
class Phase:
    phi_start: Fraction
    phi_end: Fraction
    thin: object  # ThinFlow or MultiSourceThinFlow
    flows: dict = field(default_factory=dict)  # commodity -> {arc: flow part}

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "interval": [format_rational(self.phi_start), format_rational(self.phi_end)],
            "thinflow": self.thin.to_json(),
            "decomposition": {j: {e: format_rational(x) for e, x in sorted(fl.items())}
                              for j, fl in sorted(self.flows.items())},
        }


@dataclass
class NashFlowOverTime:
    instance: Instance              # effective instance (truncated intervals)
    phases: list
    node_labels: dict[str, PwlFunction]  # construction labels over particles
    flow: FlowOverTime
    horizon: Fraction
    extended_instance: Instance | None = None
    sink_arc_map: dict | None = None
    sigma: Fraction | None = None

    def to_json(self) -> dict:
        from .loading import flow_to_json
        return {
            "phases": [p.to_json() for p in self.phases],
            "labels": {v: f.to_json() for v, f in sorted(self.node_labels.items())},
            "flow": flow_to_json(self.instance, self.flow),
        }


def _phase_alpha(gaps: list, slopes: dict, remaining: Fraction) -> Fraction:
    """Largest step before an arc activates or a standing queue depletes."""
    alpha = remaining
    for a, gap in gaps:
        rate = slopes[a.head] - slopes[a.tail]
        if gap < 0 and rate > 0:
            alpha = min(alpha, -gap / rate)
        elif gap > 0 and rate < 0:
            alpha = min(alpha, gap / -rate)
    return alpha


def _run_phases(instance: Instance, labels: dict, horizon: Fraction,
                max_phases: int, solve, split, cap, tail_slope):
    """The phase loop all constructors share, from the initial ``labels``
    of the reachable nodes: (phases, node labels over particles).

    Each phase reads the label gap l_w - l_v - tau_e of every arc between
    labelled nodes once: the arcs with gap >= 0 are active, those with
    gap > 0 resetting, and the phase ends where a gap changes sign.
    ``solve(active, resetting, phi, hint)`` gives the thin flow of the phase
    starting at particle phi, with the previous phase's solver states as the
    search hint, and ``split(thin)`` its flows per commodity.
    No phase crosses the particle ``cap`` (None for no cap), and the labels
    run left of particle 0 with ``tail_slope``.
    """
    curves = {v: GrowingPwl(f"label at {v}", ZERO, y, tail_slope)
              for v, y in labels.items()}
    arcs = [a for a in instance.arcs if a.tail in curves and a.head in curves]
    phases: list[Phase] = []
    phi = ZERO
    hint = None
    while phi < horizon:
        if len(phases) >= max_phases:
            raise PhaseBudgetExceeded(f"{max_phases} phases before particle {horizon}")
        gaps = [(a, curves[a.head].value - curves[a.tail].value - a.transit)
                for a in arcs]
        active = {a.id for a, gap in gaps if gap >= 0}
        resetting = {a.id for a, gap in gaps if gap > 0}
        thin = solve(active, resetting, phi, hint)
        hint = thin.states
        slopes = thin.label_slopes
        remaining = horizon - phi
        if cap is not None and phi < cap:
            remaining = min(remaining, cap - phi)
        alpha = _phase_alpha(gaps, slopes, remaining)
        if alpha <= 0:
            raise StalledPhase(len(phases), phi)
        phases.append(Phase(phi, phi + alpha, thin, split(thin)))
        for v, g in curves.items():
            g.commit(slopes[v])
            g.advance(alpha)
        phi += alpha
    return phases, {v: g.finish() for v, g in curves.items()}


def _single_phases(instance: Instance, horizon, max_phases: int):
    """The phases of the one commodity of a valid ``instance`` up to the
    particle ``horizon`` (default: its volume), from free-flow labels:
    (phases, node labels, horizon, particles injected by the horizon)."""
    c = instance.commodities[0]
    volume = c.particle_volume
    horizon = Fraction(horizon) if horizon is not None else volume
    if horizon is None:
        raise ValueError("an unbounded inflow interval needs an explicit horizon")
    dist = transit_distances(instance, c.origin)
    labels = {v: c.inflow_start + dist[v] for v in instance.nodes
              if dist[v] is not INF}

    def solve(active, resetting, phi, hint):
        value = ONE if (volume is None or phi < volume) else ZERO
        return solve_thinflow_single(instance, active, resetting, c.origin,
                                     c.destination, c.rate, value, hint)

    phases, node_labels = _run_phases(
        instance, labels, horizon, max_phases, solve,
        lambda thin: {c.id: dict(thin.flow)}, volume, 1 / c.rate)
    injected = horizon if volume is None else min(horizon, volume)
    return phases, node_labels, horizon, injected


def _finish(instance: Instance, phases: list, node_labels: dict,
            horizon: Fraction, injected: Fraction, **extension) -> NashFlowOverTime:
    """The equilibrium of the phases on the effective instance: each
    commodity's inflow interval ends at its origin's label of the particle
    ``injected``, a + injected / r, so it carries exactly the constructed
    mass, and a commodity that injected nothing is dropped."""
    commodities = []
    for c in instance.commodities:
        end = node_labels[c.origin](injected)
        if end > c.inflow_start:
            commodities.append(replace(c, inflow_end=end))
    effective = validate_instance(Instance(instance.nodes, instance.arcs,
                                           tuple(commodities), instance.mode))
    if isinstance(effective, list):
        raise InvalidDerivedInstance(f"truncated instance invalid: {effective}")
    flow = _reconstruct_flow(effective, phases, node_labels)
    return NashFlowOverTime(effective, phases, node_labels, flow, horizon, **extension)


def construct_nash_single(instance: Instance, horizon=None,
                          max_phases: int = 500) -> NashFlowOverTime:
    """Equilibrium for a single commodity, phase by phase up to the particle
    ``horizon`` (default: the commodity's volume)."""
    instance = _require_valid(instance)
    if len(instance.commodities) != 1:
        raise ValueError("construct_nash_single needs exactly one commodity")
    return _finish(instance, *_single_phases(instance, horizon, max_phases))


def construct_common_destination(instance: Instance, horizon,
                                 max_phases: int = 500) -> NashFlowOverTime:
    """Multi-commodity equilibrium when all commodities share a destination.

    Runs the phase loop with multi-source thin flows, which need distinct
    sources; each phase's flow is split into commodities by grouping the
    path decomposition through a virtual super source.  Also yields the
    inflow distribution (per-particle source fractions), recoverable from
    each phase's supplies.
    """
    instance = _require_valid(instance)
    if instance.mode != COMMON_DESTINATION:
        raise ValueError("instance is not in common-destination mode")
    for c in instance.commodities:
        if c.inflow_start != 0 or c.inflow_end is not None:
            raise ValueError("common-destination construction assumes inflow "
                             "intervals [0, infinity)")
    horizon = Fraction(horizon)
    sink = instance.commodities[0].destination
    sources = {c.id: (c.origin, c.rate) for c in instance.commodities}
    dists = [transit_distances(instance, c.origin) for c in instance.commodities]
    labels = {v: min(d[v] for d in dists if d[v] is not INF) for v in instance.nodes
              if any(d[v] is not INF for d in dists)}
    virtual, group = _virtual_super_source(instance, sources)
    total_rate = sum((c.rate for c in instance.commodities), ZERO)
    phases, node_labels = _run_phases(
        instance, labels, horizon, max_phases,
        lambda active, resetting, phi, hint: solve_thinflow_multisource(
            instance, active, resetting, sources, sink, hint),
        lambda thin: _group_by_source(virtual, group, thin), None, 1 / total_rate)
    return _finish(instance, phases, node_labels, horizon, horizon)


def construct_common_origin(instance: Instance, horizon=None,
                            max_phases: int = 500) -> NashFlowOverTime:
    """Multi-commodity equilibrium when all commodities share an origin.

    Runs the single-commodity phases on the super-sink extension, then
    splits each phase's thin flow into commodities by grouping paths
    through the added sink arcs (their flow shares are r_j / r in every
    phase, which ``decompose`` checks, and their label gaps stay
    non-negative, else ``NewArcInactive``).  The flow is rebuilt once, on
    the original arcs.
    """
    instance = _require_valid(instance)
    if instance.mode != COMMON_ORIGIN:
        raise ValueError("instance is not in common-origin mode")
    extended, arc_map = extend_with_super_sink(instance)
    phases, node_labels, horizon, injected = _single_phases(extended, horizon,
                                                            max_phases)
    total_rate, sigma = _rate_and_sigma(instance)
    for p in phases:
        p.flows = decompose(extended, p.thin, arc_map,
                            {c.id: c.rate / total_rate * p.thin.value
                             for c in instance.commodities})
    # a sink arc with a negative gap at a phase start is inactive, so
    # ``decompose`` has raised NewArcInactive for it; at particle 0 every
    # such gap is 0 (transit delta_max - delta_j), so the last end is left
    if phases:
        end = phases[-1].phi_end
        for j, e in arc_map.items():
            a = extended.arc(e)
            if node_labels[a.head](end) - node_labels[a.tail](end) - a.transit < 0:
                raise NewArcInactive(j)
    node_labels = {v: f for v, f in node_labels.items() if v in instance.nodes}
    return _finish(instance, phases, node_labels, horizon, injected,
                   extended_instance=extended, sink_arc_map=arc_map, sigma=sigma)


def _require_valid(instance: Instance) -> Instance:
    if instance.validated:
        return instance
    result = validate_instance(instance)
    if isinstance(result, list):
        raise ValueError("invalid instance: " + "; ".join(map(str, result)))
    return result


def _virtual_super_source(instance: Instance, sources: dict):
    """Instance extended by a virtual super source, for path grouping only."""
    origin = _fresh_name("__source__", instance.nodes)
    arcs = list(instance.arcs)
    group = {}
    for j, (s_j, _) in sorted(sources.items()):
        arc_id = _fresh_name(f"__from_source_{j}__", {a.id for a in arcs})
        arcs.append(Arc(arc_id, origin, s_j, ZERO, ONE))
        group[j] = arc_id
    virtual = Instance(instance.nodes + (origin,), tuple(arcs), (), instance.mode)
    return virtual, group


def _group_by_source(virtual: Instance, group: dict, thin: MultiSourceThinFlow):
    flow = dict(thin.flow)
    active = set(thin.active)
    for j, e in group.items():
        flow[e] = thin.supplies[j]
        active.add(e)
    helper = ThinFlow(flow, {}, frozenset(active), thin.resetting, ONE, ONE)
    return decompose(virtual, helper, group)


def _reconstruct_flow(instance: Instance, phases: list, node_labels: dict
                      ) -> FlowOverTime:
    """Rates from phase flows: each commodity's flow part on an arc, a step
    function over particles, becomes a rate over time through the label of
    the arc's tail (inflow) and of its head (outflow)."""
    flow = FlowOverTime(inflow={}, outflow={})
    bounds = [p.phi_start for p in phases] + [p.phi_end for p in phases[-1:]]
    for c in instance.commodities:
        for a in instance.arcs:
            key = (c.id, a.id)
            parts = [p.flows[c.id].get(a.id, ZERO) for p in phases]
            x = StepFunction(bounds, parts + [ZERO for _ in phases[-1:]])
            if a.tail not in node_labels or a.head not in node_labels:
                # unreachable endpoints never carry flow
                if x != StepFunction.zero():
                    raise FlowReconstructionError(
                        f"commodity {c.id} sends flow into arc {a.id}, which "
                        f"has an unreachable endpoint")
                flow.inflow[key] = flow.outflow[key] = x
                continue
            try:
                flow.inflow[key] = rate_over_time(x, node_labels[a.tail])
                flow.outflow[key] = rate_over_time(x, node_labels[a.head])
            except ValueError as err:
                raise FlowReconstructionError(
                    f"commodity {c.id} on arc {a.id}: {err}") from None
    return flow.fill_totals(instance)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NashViolation:
    code: str
    commodity: str
    subject: str
    particle: Fraction | None = None
    gap: Fraction | None = None

    def __str__(self):
        tail = ""
        if self.particle is not None:
            tail = f" at particle {self.particle}"
        if self.gap is not None:
            tail += f" (gap {self.gap})"
        return f"{self.code}({self.commodity},{self.subject}){tail}"

    def record(self) -> dict:
        from .rationals import format_optional_rational
        return {"code": self.code, "commodity": self.commodity,
                "subject": self.subject,
                "particle": format_optional_rational(self.particle),
                "gap": format_optional_rational(self.gap)}


@dataclass
class NashReport:
    ok: bool
    feasibility: FeasibilityReport
    violations: list
    labels: dict[str, LabelSet] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "feasibility": self.feasibility.to_json(),
                "violations": [v.record() for v in self.violations]}


def verify_nash(instance: Instance, flow: FlowOverTime,
                profile: QueueProfile | None = None) -> NashReport:
    """Certify the equilibrium conditions of a feasible flow.

    Checks, exactly and for every particle, that F_in,j at the tail arrival
    time equals F_out,j at the head arrival time, per arc, on labels read from
    the profile ``check_feasibility`` derives (a given one must match it).

    The static flow x_e = F_in,j(l_u) on the arcs e = uv with a labelled
    tail then has value phi on [0, V_j].  At a labelled node v other than
    j's destination, conservation composed with l_v gives sum_out x_e -
    sum_in F_out,j(l_v) = phi at the origin (l = a + phi / r), else 0, and
    the Nash identity makes F_out,j(l_v) = x_e on in-arcs with a labelled
    tail.  The others leave the nodes the origin does not reach, which no
    labelled node enters; there conservation sums to 0 the inflows of the
    leaving arcs and F_in,j - F_out,j >= 0 (theta <= T(theta)) of the inner
    ones, so the leaving arcs, with non-negative inflows, carry nothing.
    """
    feas = check_feasibility(instance, flow, profile)
    if not feas.ok:
        return NashReport(False, feas, [NashViolation("NotFeasible", "*", "*")])
    violations: list[NashViolation] = []
    labels_all: dict[str, LabelSet] = {}
    for c in instance.commodities:
        ls, entered = _entered(instance, flow, feas.profile, c)
        labels_all[c.id] = ls
        for a, lhs in entered:
            # feasible rates start at their first breakpoints; every head is labelled
            rhs = compose(flow.cumulative_outflow(c.id, a.id), ls.labels[a.head])
            if lhs != rhs:
                phi, u, v = first_difference(lhs, rhs)
                violations.append(NashViolation("NashViolated", c.id, a.id, phi, u - v))
    return NashReport(not violations, feas, violations, labels_all)


def check_derivatives_thinflow(instance: Instance, flow: FlowOverTime,
                               profile: QueueProfile | None = None):
    """The construction round trip: ``_read_back`` reads labels from the
    flow's queues and strategies from its inflows, and
    ``verify_multicommodity_thinflow`` certifies them against the queues the
    strategies load; an arc whose loaded wait differs from the flow's gives
    ``LoadedWaitMismatch`` at the first probe time found.  Every commodity
    needs a bounded inflow interval: its volume bounds the particles checked."""
    if profile is None:
        profile = derive_profile(instance, flow)
    report = verify_multicommodity_thinflow(instance, *_read_back(instance, flow, profile))
    for a in instance.arcs:
        loaded, derived = report.queues.waiting[a.id], profile.waiting[a.id]
        if loaded != derived:
            report.violations.append(FlowViolation(
                "LoadedWaitMismatch", a.id, str(first_difference(loaded, derived)[0])))
    report.ok = not report.violations
    return report


def _entered(instance: Instance, flow: FlowOverTime, profile: QueueProfile, c):
    """Commodity c's earliest arrivals on ``profile`` and, per arc with a
    labelled tail in arc order, the arc and c's cumulative inflow into it at
    the tail label: F_in,c(l_u), its particles entered by then."""
    ls = earliest_arrival(instance, profile, c.id, c.particle_volume)
    return ls, [(a, compose(flow.cumulative_inflow(c.id, a.id), ls.labels[a.tail]))
                for a in instance.arcs if a.tail in ls.labels]


def _read_back(instance: Instance, flow: FlowOverTime, profile: QueueProfile):
    """The strategies of the flow's inflows through the earliest arrivals of
    ``profile``, those labels, and the largest particle volume."""
    labels_all = {}
    strategies = {}
    for c in instance.commodities:
        if c.particle_volume is None:
            raise ValueError(f"commodity {c.id} has an unbounded inflow "
                             f"interval; the round trip needs a bounded one")
        labels_all[c.id], entered = _entered(instance, flow, profile, c)
        for a, cumulative in entered:
            strategies[(c.id, a.id)] = differentiate(cumulative)
    horizon = max((c.particle_volume for c in instance.commodities), default=ZERO)
    return strategies, labels_all, horizon
