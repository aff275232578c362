"""Thin flows with resetting: exact solvers and verifiers.

A thin flow assigns a static flow x' on the active arcs and a label slope l'
to every node so that slopes propagate by the per-arc stress rule: a
resetting arc imposes x'/capacity, any other active arc the maximum of that
and the tail's slope; node slopes are the minimum over incoming active
arcs and arcs carrying flow must attain it.

A single commodity is the one-source case of the multi-source thin flow,
so both solvers share one core: each source's supply is its rate times its
label slope, and the caller's source rows pin those slopes.  The core
searches depth first over per-arc states (zero flow, tail slope attained,
capacity ratio attained), each adding one row to an exact linear system in
sparse row-echelon form, and prunes the prefixes whose rows are inconsistent
or can no longer reach full rank.  It searches twice.  The first pass tries
each arc's state in the previous phase's thin flow first, and its first leaf
that passes the condition evaluator gives the label slopes, which are
unique.  The second pass returns the first passing leaf in the lexicographic
order of the state tuples, with those slopes pinned to prune and to leave
each arc only the states that can pass with them.  A leaf is tested for
what its rows leave open; ``check_thinflow`` and
``check_multisource_thinflow`` run the same evaluator, which knows nothing
of the linear algebra, in full.  The worst case stays exponential in the
number of active arcs: on a 2-vCPU machine with Python 3.11 the
equilibrium of a 3x3 grid, whose phases reach 12 active arcs, builds in
about 0.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .netmodel import Instance, reachable, topological_order
from .timefn import (ONE, ZERO, StepFunction, _align, _as_fractions, min_preimage,
                     zero_crossings)
from .loading import QueueProfile, _require_known, load_queues
from .labels import arc_gaps, rate_over_time
from .rationals import format_rational

SIZE_LIMIT = 25


class NoSinkPath(ValueError):
    """The sink is unreachable within the active arcs."""


class Cyclic(ValueError):
    """The active arc set must be acyclic."""


class SizeLimitExceeded(RuntimeError):
    """The exact solver only handles small active sets."""


class NoThinFlow(RuntimeError):
    """No state system of the configuration passes the thin-flow conditions."""


class UnreachableNode(ValueError):
    """Some referenced node is unreachable from every source."""


class DecompositionError(RuntimeError):
    """A flow does not split into paths as its grouping arcs require."""


class NewArcInactive(RuntimeError):
    """A grouping arc of the decomposition carries no membership."""

    def __init__(self, commodity):
        super().__init__(f"grouping arc of commodity {commodity} is inactive")
        self.commodity = commodity


def stress(capacity, label_slope, flow, resetting=False) -> Fraction:
    """Per-arc stress: x'/capacity, floored by the tail slope unless the arc
    is resetting.  On an arc that commodities share, x' is x_j + y_j."""
    capacity, label_slope, flow = _as_fractions((capacity, label_slope, flow))
    load = flow / capacity
    if resetting:
        return load
    return max(label_slope, load)


@dataclass
class ThinFlow:
    flow: dict[str, Fraction]            # arc id -> x'
    label_slopes: dict[str, Fraction]    # node -> l'
    active: frozenset
    resetting: frozenset
    rate: Fraction
    value: Fraction = ONE
    # usable arc id -> "Z", "L" or "C", the solver's hint for the next phase
    states: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json(self) -> dict:
        return {**_shared_json(self), "rate": format_rational(self.rate),
                "value": format_rational(self.value)}


@dataclass
class MultiSourceThinFlow:
    supplies: dict[str, Fraction]        # commodity -> x'_j
    flow: dict[str, Fraction]
    label_slopes: dict[str, Fraction]
    active: frozenset
    resetting: frozenset
    states: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json(self) -> dict:
        return {**_shared_json(self), "supplies": {
            j: format_rational(x) for j, x in sorted(self.supplies.items())}}


def _shared_json(thin) -> dict:
    """The fields that single and multi-source thin flows write alike."""
    return {"flow": {e: format_rational(x) for e, x in sorted(thin.flow.items())},
            "label_slopes": {v: format_rational(l)
                             for v, l in sorted(thin.label_slopes.items())},
            "active": sorted(thin.active), "resetting": sorted(thin.resetting)}


def _push(echelon, coeffs, rhs):
    """Reduce a row by ``echelon``, rows of (pivot, other coefficients, rhs)
    none of which holds an earlier pivot, and append it.  True if it raised
    the rank, False if it was redundant, None if it contradicts the rows."""
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


def _state_solutions(instance, usable, resetting, base_rows, unknowns,
                     first=None, pins=None):
    """Yield (states, solution) for each full-rank per-arc state system, in
    search order; ``states`` maps every usable arc to its state.

    Each usable arc keeps its flow unknown ("x", e) and adds one row for its
    state: "Z" sets x = 0, "L" asserts the tail's slope is attained (not on
    resetting arcs), "C" asserts the capacity ratio is attained.  Arcs come
    in the given order, each trying Z, L, C (the lexicographic order), or
    with ``first`` the state it names for the arc, then the rest in C, L, Z
    order.  The search keeps the rows in sparse row-echelon form, reducing
    each new row once, and prunes a prefix whose rows contradict each other
    or can no longer reach rank ``unknowns``; neither test depends on the
    order, so every order of the same states visits the same leaves.
    ``pins`` maps every node to a label slope.  They fill a second echelon
    that only prunes, so every leaf yielded has these slopes, and they drop
    per arc e = uv each state that fails ``_conditions`` at every such leaf.
    With u', v' >= 0 pinned and the stress x/nu if e resets, else
    max(u', x/nu): v' < u' without resetting makes x = 0 (tightness), so C
    only with v' = 0 and no L; v' > u', or resetting with v' > 0, needs a
    stress of v' > 0 (minimum rule, then tightness), so C only; a resetting
    arc into v' = 0 takes Z or C, and u' = v' any state.  So the first
    passing leaf is never dropped.  Leaves are solved by back substitution.
    """
    echelon = []
    pinned = None if pins is None else [(v, {}, slope) for v, slope in pins.items()]
    choices = []
    for e in usable:
        arc = instance.arc(e)
        rows = {"Z": {("x", e): ONE}, "L": {arc.head: ONE, arc.tail: -ONE},
                "C": {("x", e): ONE, arc.head: -arc.capacity}}
        order = "ZLC" if first is None else "CLZ"
        if e in resetting:
            order = order.replace("L", "")
        hinted = first.get(e) if first else None
        if hinted in list(order):
            order = hinted + order.replace(hinted, "")
        if pins is not None:
            u, v, free = pins[arc.tail], pins[arc.head], e not in resetting
            passable = ("ZLC" if free and u == v else "ZC" if v == 0
                        else "Z" if free and v < u else "C")
            order = "".join(state for state in order if state in passable)
        choices.append([(state, rows[state]) for state in order])
    path = []

    def solution():
        values = {}
        for pivot, others, rhs in reversed(echelon):
            values[pivot] = rhs - sum((a * values[v] for v, a in others.items()), ZERO)
        return values

    def visit(depth):
        if len(echelon) + len(usable) - depth < unknowns:
            return
        if depth == len(usable):
            yield dict(zip(usable, path)), solution()
            return
        for state, row in choices[depth]:
            held = pinned is not None and _push(pinned, row, ZERO)
            if held is None:
                continue
            grown = _push(echelon, row, ZERO)
            if grown is not None:
                path.append(state)
                yield from visit(depth + 1)
                path.pop()
                if grown:
                    echelon.pop()
            if held:
                pinned.pop()

    echelons = [echelon] if pinned is None else [echelon, pinned]
    if all(_push(rows, coeffs, rhs) is not None
           for rows in echelons for coeffs, rhs in base_rows):
        yield from visit(0)


def _support(instance: Instance, active, roots, sink):
    """Nodes the roots reach through the active arcs, and the active arcs
    leaving those nodes in id order; rejects cycles and an unreached sink."""
    if topological_order(instance, active) is None:
        raise Cyclic("active arcs contain a cycle")
    nodes = reachable(instance, roots, active)
    if sink not in nodes:
        raise NoSinkPath(f"{sink} unreachable from {', '.join(sorted(roots))} "
                         f"in the active arcs")
    return nodes, [e for e in sorted(active) if instance.arc(e).tail in nodes]


def _solve(instance, active, resetting, nodes, usable, rates, sink, demand,
           source_rows, hint=None):
    """The first solution of the per-arc state systems, in lexicographic
    order, that passes the condition evaluator: (flow, label slopes, states).
    ``rates`` maps each source node to its rate, ``source_rows`` pin the
    source slopes (a source supplies its rate times its slope), and the sink
    absorbs ``demand``.

    The oracle pass tries the state ``hint`` names for an arc first, and its
    first passing leaf gives the label slopes.  Its order permutes the
    leaves of the lexicographic search, so it finds one exactly when that
    search does.  The recovery pass searches in lexicographic order with
    those slopes pinned, trying only the states that can pass with them.
    Passing leaves share one slope vector (Cominetti, Correa & Larre, Oper.
    Res. 2015, for one source; the tests check it for several on their
    instances), so the lexicographic search's first passing leaf satisfies
    every pinned row, keeps its states and is never pruned, and every leaf
    the recovery yields before it is one that search yields and rejects.
    So ``hint`` changes the work, never the result.  Leaves skip the checks
    their rows impose (``_conditions``, ``search=True``).
    """
    if len(usable) > SIZE_LIMIT:
        raise SizeLimitExceeded(f"{len(usable)} active arcs exceed {SIZE_LIMIT}")
    rows = list(source_rows)
    kept = set(usable)
    for v in sorted(nodes):
        coeffs = {v: -rates[v]} if v in rates else {}
        for a in instance.out_arcs(v):
            if a.id in kept:
                coeffs[("x", a.id)] = ONE
        for a in instance.in_arcs(v):
            if a.id in kept:
                coeffs[("x", a.id)] = -ONE
        rows.append((coeffs, -demand if v == sink else ZERO))

    def first_passing(**order):
        for states, values in _state_solutions(instance, usable, resetting, rows,
                                               len(nodes) + len(usable), **order):
            flow = {e: values[("x", e)] for e in usable}
            slopes = {v: values[v] for v in sorted(nodes)}
            # the source rows fix the source slopes; the evaluator checks that
            # the supplies they imply are non-negative
            supplied = {s: (slopes[s], r * slopes[s]) for s, r in rates.items()}
            if next(_conditions(instance, active, resetting, supplied, sink, demand,
                                flow, slopes, nodes, search=True), None) is None:
                return flow, slopes, states
        raise NoThinFlow("no thin flow found; the configuration is inconsistent")

    _, slopes, _ = first_passing(first=hint or {})
    return first_passing(pins=slopes)


def _conditions(instance, active, resetting, sources, sink, demand, flow,
                slopes, nodes, search=False):
    """Yield the violations of the defining conditions, independent of the
    solver's algebra.

    ``sources`` maps each source node to its (expected label slope, supply),
    and the sink absorbs ``demand``.  Supplies must be non-negative and sum
    to the demand.  A source's slope never exceeds its incoming stress; every
    other node of ``nodes``, which the sources reach through active arcs,
    takes the minimum incoming stress, attained wherever flow runs.

    ``search=True`` skips four checks every leaf of ``_solve`` passes by
    construction: SourceSlope (the leaf's own slopes), SupplySum (the source
    rows fix value * r * (1/r), or sum r_j l'(s_j) = 1), ConservationViolated
    (each node's row) and SupportViolated (the flow is keyed by usable arcs).
    """
    total = sum((supply for _, supply in sources.values()), ZERO)
    if not search and total != demand:
        yield ("SupplySum", str(total))
    for s, (slope, supply) in sources.items():
        if supply < 0:
            yield ("NegativeSupply", s)
        if not search and slopes.get(s) != slope:
            yield ("SourceSlope", s)
    for e, x in flow.items():
        if x < 0:
            yield ("NegativeFlow", e)
        if not search and x > 0 and e not in active:
            yield ("SupportViolated", e)
    for v in () if search else nodes:
        net = sum((flow.get(a.id, ZERO) for a in instance.out_arcs(v)), ZERO) \
            - sum((flow.get(a.id, ZERO) for a in instance.in_arcs(v)), ZERO)
        expected = sources[v][1] if v in sources else ZERO
        if v == sink:
            expected -= demand
        if net != expected:
            yield ("ConservationViolated", v)
    for v in nodes:
        rhos = []
        for a in instance.in_arcs(v):
            if a.id not in active or a.tail not in nodes:
                continue
            rhos.append((a.id, stress(a.capacity, slopes[a.tail],
                                      flow.get(a.id, ZERO), a.id in resetting)))
        if v in sources:
            if rhos and slopes[v] > min(r for _, r in rhos):
                yield ("SourceMinViolated", v)
        elif slopes[v] != min(r for _, r in rhos):
            yield ("MinViolated", v)
        for e, r in rhos:
            if flow.get(e, ZERO) > 0 and r != slopes[v]:
                yield ("TightnessViolated", e)


def solve_thinflow_single(instance: Instance, active, resetting, source, sink,
                          rate, value=ONE, hint=None) -> ThinFlow:
    """Unique-label thin flow for one source and sink.

    The label slopes are unique; among flow parts the first consistent
    assignment in a fixed enumeration order is returned, so outputs are
    deterministic.  Active arcs the source cannot reach carry no flow.
    ``hint`` maps arc ids to states to try first, such as the previous
    phase's ``states``; it never changes the result.  A value of 0 needs no
    special case: the flow is 0, each node takes the least slope its active
    in-arcs pass on, and the system with L or C on one such arc per node and
    Z elsewhere has full rank.
    """
    active = frozenset(active)
    resetting = frozenset(resetting)
    rate = Fraction(rate)
    value = Fraction(value)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not resetting <= active:
        raise ValueError("resetting arcs must be active")
    nodes, usable = _support(instance, active, [source], sink)
    # slope 1 / rate and supply ``value``: a source of rate value * rate
    flow, slopes, states = _solve(instance, active, resetting, nodes, usable,
                                  {source: value * rate}, sink, value,
                                  [({source: ONE}, 1 / rate)], hint)
    return ThinFlow(flow, slopes, active, resetting, rate, value, states)


def solve_thinflow_multisource(instance: Instance, active, resetting,
                               sources: dict, sink, hint=None) -> MultiSourceThinFlow:
    """Thin flow with per-source supplies summing to one.

    ``sources`` maps commodity id to (source node, rate).  Source label
    slopes are supply/rate and never exceed the incoming stress; all other
    nodes take the minimum incoming stress, attained wherever flow runs.
    Every active arc must be reachable from some source.  ``hint`` is as
    for ``solve_thinflow_single``.
    """
    active = frozenset(active)
    resetting = frozenset(resetting)
    sources = {j: (s_j, Fraction(r_j)) for j, (s_j, r_j) in sources.items()}
    for j, (_, r_j) in sources.items():
        if r_j <= 0:
            raise ValueError(f"rate of source {j} must be positive, got {r_j}")
    if not resetting <= active:
        raise ValueError("resetting arcs must be active")
    rates = dict(sources.values())  # source node -> rate
    if len(rates) != len(sources):
        raise ValueError("sources must be distinct nodes")
    nodes, usable = _support(instance, active, rates, sink)
    stray = sorted(active - set(usable))
    if stray:
        raise UnreachableNode(stray[0])
    # the supplies r_j * l'(s_j) sum to one
    flow, slopes, states = _solve(instance, active, resetting, nodes, usable,
                                  rates, sink, ONE, [(rates, ONE)], hint)
    supplies = {j: r_j * slopes[s_j] for j, (s_j, r_j) in sources.items()}
    return MultiSourceThinFlow(supplies, flow, slopes, active, resetting, states)


def check_thinflow(instance, thin: ThinFlow, source, sink) -> list:
    """Public re-check of a single-commodity thin flow's conditions."""
    return list(_conditions(instance, thin.active, thin.resetting,
                            {source: (1 / thin.rate, thin.value)}, sink,
                            thin.value, thin.flow, thin.label_slopes,
                            reachable(instance, [source], thin.active)))


def check_multisource_thinflow(instance, thin: MultiSourceThinFlow,
                               sources: dict, sink) -> list:
    """Public re-check of a multi-source thin flow's conditions."""
    return list(_conditions(instance, thin.active, thin.resetting,
                            {s_j: (thin.supplies[j] / r_j, thin.supplies[j])
                             for j, (s_j, r_j) in sources.items()},
                            sink, ONE, thin.flow, thin.label_slopes,
                            reachable(instance, {s for s, _ in sources.values()},
                                      thin.active)))


# --------------------------------------------------------------------------
# static flow decomposition grouped by designated arcs
# --------------------------------------------------------------------------


def decompose(instance: Instance, thin: ThinFlow, group_arcs: dict,
              expected_shares: dict | None = None) -> dict:
    """Split a thin flow into per-commodity static flows by path grouping.

    ``group_arcs`` maps commodity id to its designated arc; every
    source-sink path in the (acyclic) support uses exactly one of them.
    Returns {commodity: {arc id: flow}} restricted to non-group arcs.
    Raises NewArcInactive(j) when a designated arc is inactive, and checks
    the expected per-commodity share when given.
    """
    for j, e in group_arcs.items():
        if e not in thin.active:
            raise NewArcInactive(j)
    if expected_shares:
        for j, share in expected_shares.items():
            got = thin.flow.get(group_arcs[j], ZERO)
            if got != share:
                raise DecompositionError(
                    f"share of commodity {j} is {got}, expected {share}")
    residual = {e: x for e, x in thin.flow.items() if x > 0}
    group_of = {e: j for j, e in group_arcs.items()}
    out: dict[str, dict[str, Fraction]] = {j: {} for j in group_arcs}
    # the arcs out of each node, sorted; the walk skips those the paths spent
    tails = {}
    for e in sorted(residual):
        tails.setdefault(instance.arc(e).tail, []).append(e)

    def first_path():
        # start from a node with positive out-throughput and no residual in-flow
        starts = ({instance.arc(e).tail for e in residual}
                  - {instance.arc(e).head for e in residual})
        if not starts:
            return None
        u = min(starts)
        path = []
        while u in tails:
            e = next((x for x in tails[u] if residual.get(x, ZERO) > 0), None)
            if e is None:
                break
            path.append(e)
            u = instance.arc(e).head
        return path or None

    while residual:
        path = first_path()
        if not path:
            break
        delta = min(residual[e] for e in path)
        members = [e for e in path if e in group_of]
        if len(members) != 1:
            raise DecompositionError(f"path {path} uses {len(members)} grouping arcs")
        j = group_of[members[0]]
        for e in path:
            if e not in group_of:
                out[j][e] = out[j].get(e, ZERO) + delta
            residual[e] -= delta
            if residual[e] == 0:
                del residual[e]
    if residual:
        raise DecompositionError(f"decomposition left residual flow on {sorted(residual)}")
    return out


# --------------------------------------------------------------------------
# multi-commodity thin flow verification
# --------------------------------------------------------------------------


@dataclass
class ThinFlowReport:
    ok: bool
    violations: list
    pieces: dict = field(default_factory=dict)
    queues: QueueProfile | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "violations": [v.record() for v in self.violations],
                "pieces": {j: len(p) for j, p in self.pieces.items()}}


@dataclass(frozen=True)
class ThinFlowViolation:
    code: str
    commodity: str
    subject: str
    piece: tuple

    def __str__(self):
        lo, hi = self.piece
        return f"{self.code}({self.commodity},{self.subject}) on [{lo},{hi})"

    def record(self) -> dict:
        return {"code": self.code, "commodity": self.commodity,
                "subject": self.subject,
                "piece": [format_rational(self.piece[0]),
                          format_rational(self.piece[1])]}


def verify_multicommodity_thinflow(instance: Instance, strategies: dict,
                                   labels_all: dict, horizon,
                                   require_tightness: bool = True) -> ThinFlowReport:
    """Certify, particle by particle on [0, H], that every commodity's
    labels are the earliest arrivals through the queues its strategies load.

    The strategies enter their arcs at the times the tail labels give
    (``labels.rate_over_time``), and ``load_queues`` loads them into the
    report's ``queues``.  On every cell of ``_partition`` each quantity read
    is linear and no gap g_e = T_e(l_u) - l_v changes sign, so the reads at
    the cell's two ends decide every check.  Per commodity j and cell:

    - ``TF1Violated``: the origin's label is not inflow_start + phi/r, in
      value or in slope.
    - ``LabelUndercut``: g_e < 0 on an arc whose two ends j labels.
    - ``TF2Violated``: no arc into a labelled node other than the origin
      has g_e = 0.
    - ``SupportViolated``: j sends flow into an arc with g_e != 0, or with
      an unlabelled head.
    - ``StaticFlowViolated``: j's strategy is not a static flow of value 1
      from origin to destination (0 beyond its particle volume).

    Without undercut and TF2 violations every label is the minimum of
    T_e(l_u) over its incoming arcs, which defines earliest arrivals.
    ``require_tightness=True`` runs all five checks, ``False`` all but
    ``SupportViolated``.  A strategy entry the instance lacks raises
    UnknownEntry; a rate on an arc whose tail j's labels never reach, or on a
    flat stretch of its tail label, ValueError.

    The slope conditions of a thin flow with resetting follow, so they are
    not checked again.  On an active arc e = uv, g_e = 0 on the cell, so
    l_v' = d/dphi T_e(l_u) = l_u' (1 + q_e'(l_u)).  At time l_u the arc's
    inflow is f = x_j / l_u' + sum over i != j of x_i / l_i', each commodity
    read at its first particle at the tail then, and q_e is its loading, so
    q_e' = f / nu_e - 1 where q_e > 0 and max(f / nu_e - 1, 0) where
    q_e = 0 (``check_feasibility``, (a)).  With the foreign rate
    y_j = sum over i != j of x_i l_u' / l_i', this makes l_v' equal to
    (x_j + y_j) / nu_e where q_e(l_u) > 0 and to max(l_u', (x_j + y_j) / nu_e)
    where q_e(l_u) = 0, which is the stress of e (``stress``, passed
    x_j + y_j as one flow).  On a flat tail label x_j = 0 and both sides are
    0.  So every active arc into v attains l_v': it is the minimum stress
    over them, of which TF2 leaves at least one (TF2's slope condition), and
    every active arc carrying flow attains it (TF3).

    Every quantity is read once, as one column over the mesh of
    ``_partition``, which hands over the gaps (``labels.arc_gaps``) it
    read.  On a cell a gap has the sign of g_e(lo) + g_e(hi), that of its
    left end unless that is 0; the origin's label is inflow_start + phi/r
    iff it is at both ends; a strategy keeps its left end's value; and, V
    being a cut, the particles lie in [0, V) iff lo < V.  A negative
    ``horizon`` raises ValueError, and 0 gives no cell.
    """
    horizon = Fraction(horizon)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    _require_known(instance, strategies)
    inflows = {}
    for (j, e), x in strategies.items():
        lu = labels_all[j].labels.get(instance.arc(e).tail)
        if lu is not None:
            inflows[(j, e)] = rate_over_time(x, lu)
        elif x != StepFunction.zero():
            raise ValueError(f"commodity {j} sends flow into arc {e}, whose "
                             f"tail its labels never reach")
    profile = load_queues(instance, inflows)
    violations = []
    pieces_per_commodity = {}
    for c in instance.commodities:
        j = c.id
        ls = labels_all[j]
        rates = {e: x for (i, e), x in strategies.items() if i == j}
        mesh, gaps = _partition(instance, ls, rates, horizon, c.particle_volume, profile)
        cells = list(zip(mesh, mesh[1:]))
        pieces_per_commodity[j] = cells
        slope = 1 / c.rate
        on_line = [v == c.inflow_start + x * slope
                   for x, v in zip(mesh, ls.labels[c.origin].at_sorted(mesh))]
        own = {a.id: rates.get(a.id, StepFunction.zero()).at_sorted(mesh)
               for a in instance.arcs}
        signs = {e: [lo or hi for lo, hi in zip(gap, gap[1:])] for e, gap in gaps.items()}
        for k, piece in enumerate(cells):
            in_k = c.particle_volume is None or piece[0] < c.particle_volume
            if not (on_line[k] and on_line[k + 1]):
                violations.append(ThinFlowViolation("TF1Violated", j, c.origin, piece))
            for a in instance.arcs:
                if (require_tightness and own[a.id][k] > 0
                        and (a.id not in signs or signs[a.id][k])):
                    violations.append(ThinFlowViolation("SupportViolated", j, a.id, piece))
            for e, sign in signs.items():
                if sign[k] < 0:
                    violations.append(ThinFlowViolation("LabelUndercut", j, e, piece))
            reached = {instance.arc(e).head for e, sign in signs.items() if sign[k] == 0}
            for v in instance.nodes:
                if v in ls.labels and v != c.origin and v not in reached:
                    violations.append(ThinFlowViolation("TF2Violated", j, v, piece))
            # the strategy must be a static flow of value 1 on K_j, 0 outside
            supply = {c.origin: ONE, c.destination: -ONE} if in_k else {}
            for v in instance.nodes:
                net = sum((own[a.id][k] for a in instance.out_arcs(v)), ZERO) \
                    - sum((own[a.id][k] for a in instance.in_arcs(v)), ZERO)
                if net != supply.get(v, ZERO):
                    violations.append(ThinFlowViolation("StaticFlowViolated", j, v, piece))
                    break
    return ThinFlowReport(ok=not violations, violations=violations,
                          pieces=pieces_per_commodity, queues=profile)


def _partition(instance, ls, rates, horizon, volume, profile):
    """The mesh of [0, horizon] on whose cells every quantity that one
    commodity's checks read is linear and every gap keeps its sign, so that
    the reads at a cell's two ends decide it, and each gap's values on the
    mesh, {arc id: column}; ``ls`` is its label set, ``rates`` its strategy
    per arc id and ``volume`` its particle volume V (None if unbounded).

    The cuts are V, the label and strategy breakpoints and, per arc, the
    first particles to reach the tail where the exit times T_e bend, which
    is where the waits q_e bend.  On that mesh each gap T_e(l_u) - l_v is
    linear per cell; ``arc_gaps`` reads it there, and its zeros inside the
    cells finish the mesh, where it reads the gaps again, exactly: the
    crossing arc's own gap is 0.  No wait crosses 0 between its bends:
    ``load_queues`` never lets a queue fall below 0, empties it at an
    anchor, and gives it a flat left ray and a non-decreasing right one.
    Other commodities act on these checks only through the loaded queues.
    """
    cuts = {ZERO, horizon}
    if volume is not None and 0 < volume < horizon:
        cuts.add(volume)
    for f in (*ls.labels.values(), *rates.values()):
        cuts |= {b for b in f.breakpoints if 0 < b < horizon}
    for a in instance.arcs:
        lu = ls.labels.get(a.tail)
        if lu is None:
            continue
        lo, hi = lu(ZERO), lu(horizon)
        cuts.update(min_preimage(lu, t) for t in profile.exit_time[a.id].breakpoints
                    if lo < t < hi)
    mesh = sorted(cuts)
    gaps = arc_gaps(instance, ls, profile, mesh)
    crossings = [zero_crossings(mesh, gap) for gap in gaps.values()]
    if not any(crossings):
        return mesh, gaps
    mesh = _align(mesh, *crossings)[0]
    return mesh, arc_gaps(instance, ls, profile, mesh)
