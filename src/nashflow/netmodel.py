"""Network instances: arcs with transit times and capacities, commodities,
validation, transit-only shortest distances, the graph searches the
thin-flow solvers share (cycles, reachability, topological order), and the
super-sink extension used to reduce common-origin instances to a single
commodity.

Instances are immutable after validation and safe to share.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .rationals import (format_optional_rational, format_rational,
                        parse_optional_rational, parse_rational)

GENERAL = "general"
COMMON_ORIGIN = "commonOrigin"
COMMON_DESTINATION = "commonDestination"
MODES = (GENERAL, COMMON_ORIGIN, COMMON_DESTINATION)

INF = math.inf  # sentinel for unreachable nodes; never enters arithmetic


class NotCommonOrigin(ValueError):
    """The super-sink extension needs a common-origin instance."""


class InvalidDerivedInstance(RuntimeError):
    """An instance the program built from a valid one failed validation."""


class UnknownEntry(ValueError):
    """An input names a commodity or arc that the instance lacks."""


@dataclass(frozen=True)
class Arc:
    id: str
    tail: str
    head: str
    transit: Fraction
    capacity: Fraction

    def __post_init__(self):
        object.__setattr__(self, "transit", Fraction(self.transit))
        object.__setattr__(self, "capacity", Fraction(self.capacity))


@dataclass(frozen=True)
class Commodity:
    id: str
    origin: str
    destination: str
    rate: Fraction
    inflow_start: Fraction = Fraction(0)
    inflow_end: Fraction | None = None  # None means unbounded

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        object.__setattr__(self, "inflow_start", Fraction(self.inflow_start))
        if self.inflow_end is not None:
            object.__setattr__(self, "inflow_end", Fraction(self.inflow_end))

    @property
    def particle_volume(self) -> Fraction | None:
        """Total particle mass (b - a) * r, or None when unbounded."""
        if self.inflow_end is None:
            return None
        return (self.inflow_end - self.inflow_start) * self.rate


@dataclass(frozen=True)
class Instance:
    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]
    commodities: tuple[Commodity, ...]
    mode: str = GENERAL
    validated: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "commodities", tuple(self.commodities))

    def arc(self, arc_id: str) -> Arc:
        try:
            return self._arc_index[arc_id]
        except KeyError:
            raise UnknownEntry(f"the instance has no arc {arc_id}") from None

    def commodity(self, commodity_id: str) -> Commodity:
        try:
            return self._commodity_index[commodity_id]
        except KeyError:
            raise UnknownEntry(f"the instance has no commodity {commodity_id}") from None

    # cached in the instance's __dict__, outside the compared fields
    @cached_property
    def _arc_index(self) -> dict:
        return {a.id: a for a in self.arcs}

    @cached_property
    def _commodity_index(self) -> dict:
        return {c.id: c for c in self.commodities}

    @cached_property
    def _adjacency(self) -> tuple[dict, dict]:
        out: dict[str, list[Arc]] = {}
        inc: dict[str, list[Arc]] = {}
        for a in self.arcs:
            out.setdefault(a.tail, []).append(a)
            inc.setdefault(a.head, []).append(a)
        return out, inc

    def out_arcs(self, node: str) -> list[Arc]:
        return list(self._adjacency[0].get(node, ()))

    def in_arcs(self, node: str) -> list[Arc]:
        return list(self._adjacency[1].get(node, ()))


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str = ""

    def __str__(self):
        return f"{self.code}({self.subject}){': ' + self.detail if self.detail else ''}"

    def record(self) -> dict:
        return {"code": self.code, "subject": self.subject, "detail": self.detail}


def validate_instance(raw: Instance):
    """Return the instance marked valid, or the list of violated invariants."""
    if raw.validated:
        return raw
    violations: list[Violation] = []
    node_set = set(raw.nodes)
    if len(raw.nodes) != len(node_set):
        violations.append(Violation("DuplicateNode", "nodes"))
    seen_arcs = set()
    for a in raw.arcs:
        if a.id in seen_arcs:
            violations.append(Violation("DuplicateArc", a.id))
        seen_arcs.add(a.id)
        if a.tail not in node_set or a.head not in node_set:
            violations.append(Violation("UnknownEndpoint", a.id))
            continue
        if a.capacity <= 0:
            violations.append(Violation("NonPositiveCapacity", a.id))
        if a.transit < 0:
            violations.append(Violation("NegativeTransit", a.id))
        if a.tail == a.head:
            violations.append(Violation("SelfLoop", a.id))
    seen_comm = set()
    for c in raw.commodities:
        if c.id in seen_comm:
            violations.append(Violation("DuplicateCommodity", c.id))
        seen_comm.add(c.id)
        if c.origin not in node_set or c.destination not in node_set:
            violations.append(Violation("UnknownEndpoint", c.id))
            continue
        if c.origin == c.destination:
            violations.append(Violation("OriginIsDestination", c.id))
        if c.rate <= 0:
            violations.append(Violation("NonPositiveRate", c.id))
        if c.inflow_start < 0:
            violations.append(Violation("NegativeInflowStart", c.id))
        if c.inflow_end is not None and c.inflow_end <= c.inflow_start:
            violations.append(Violation("EmptyInflowInterval", c.id))
        if c.inflow_end is None and raw.mode == GENERAL:
            violations.append(Violation("UnboundedInflow", c.id,
                                        "unbounded intervals need a common-origin or "
                                        "common-destination instance"))
    if raw.mode not in MODES:
        violations.append(Violation("ModeMismatch", raw.mode, "unknown mode"))
    if raw.mode == COMMON_ORIGIN and len({c.origin for c in raw.commodities}) > 1:
        violations.append(Violation("ModeMismatch", raw.mode, "origins differ"))
    if raw.mode == COMMON_DESTINATION and len({c.destination for c in raw.commodities}) > 1:
        violations.append(Violation("ModeMismatch", raw.mode, "destinations differ"))
    if violations:
        return violations
    # reachability needs structurally sound arcs, hence the second pass
    for c in raw.commodities:
        dist = transit_distances(raw, c.origin)
        if dist[c.destination] is INF:
            violations.append(Violation("MissingPath", c.id))
    # transit times are non-negative, so a zero-transit cycle uses only
    # zero-transit arcs
    if raw.mode == COMMON_DESTINATION and topological_order(
            raw, [a.id for a in raw.arcs if a.transit == 0]) is None:
        violations.append(Violation("CycleWithZeroTransit", raw.mode))
    if violations:
        return violations
    return Instance(raw.nodes, raw.arcs, raw.commodities, raw.mode, validated=True)


def transit_distances(instance: Instance, source: str) -> dict:
    """Shortest transit-time distance from ``source`` (no queues); INF when
    unreachable."""
    dist = {v: INF for v in instance.nodes}
    dist[source] = Fraction(0)
    heap = [(Fraction(0), source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for a in instance.out_arcs(u):
            nd = d + a.transit
            if dist[a.head] is INF or nd < dist[a.head]:
                dist[a.head] = nd
                heapq.heappush(heap, (nd, a.head))
    return dist


def reachable(instance: Instance, roots, arc_ids) -> set:
    """Nodes reachable from ``roots`` along the given arcs, roots included."""
    adj: dict[str, list[str]] = {}
    for e in arc_ids:
        a = instance.arc(e)
        adj.setdefault(a.tail, []).append(a.head)
    seen = set(roots)
    stack = list(roots)
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def topological_order(instance: Instance, arc_ids) -> list | None:
    """The endpoints of the given arcs, each before the heads of its arcs,
    or None when the arcs contain a directed cycle (three-colour DFS)."""
    adj: dict[str, list[str]] = {}
    for e in arc_ids:
        a = instance.arc(e)
        adj.setdefault(a.tail, []).append(a.head)
        adj.setdefault(a.head, [])
    color: dict[str, int] = {}
    finished: list[str] = []

    def dfs(u: str) -> bool:
        color[u] = 1
        for w in adj[u]:
            c = color.get(w, 0)
            if c == 1 or (c == 0 and dfs(w)):
                return True
        color[u] = 2
        finished.append(u)
        return False

    if any(color.get(u, 0) == 0 and dfs(u) for u in adj):
        return None
    return finished[::-1]


def _fresh_name(name: str, taken) -> str:
    """``name`` with the fewest underscores appended that ``taken`` lacks."""
    while name in taken:
        name += "_"
    return name


SUPER_SINK = "__sink__"
MERGED_COMMODITY = "__merged__"


def _rate_and_sigma(instance: Instance) -> tuple[Fraction, Fraction]:
    """The total inflow rate r and sigma = min(minimum capacity, r)."""
    total_rate = sum((c.rate for c in instance.commodities), Fraction(0))
    nu_min = min(a.capacity for a in instance.arcs)
    return total_rate, min(nu_min, total_rate)


def extend_with_super_sink(instance: Instance):
    """Reduce a common-origin instance to a single commodity.

    Adds a super sink t and one arc per commodity j from its sink to t with
    transit delta_max - delta_j and capacity r_j * sigma / (2 r), where
    delta_j is the transit distance to j's sink, r the total inflow rate and
    sigma = min(minimum capacity, r).  Returns (extended instance, arc map
    commodity id -> new arc id).
    """
    if instance.mode != COMMON_ORIGIN:
        raise NotCommonOrigin(f"instance mode is {instance.mode}")
    if not instance.commodities:
        raise NotCommonOrigin("no commodities")
    starts = {c.inflow_start for c in instance.commodities}
    ends = {c.inflow_end for c in instance.commodities}
    if len(starts) > 1 or len(ends) > 1:
        raise NotCommonOrigin("commodities must share one inflow interval")
    origin = instance.commodities[0].origin
    dist = transit_distances(instance, origin)
    delta = {c.id: dist[c.destination] for c in instance.commodities}
    if any(d is INF for d in delta.values()):
        raise NotCommonOrigin("some sink is unreachable")
    delta_max = max(delta.values())
    total_rate, sigma = _rate_and_sigma(instance)
    sink = _fresh_name(SUPER_SINK, instance.nodes)
    arcs = list(instance.arcs)
    arc_map = {}
    for c in instance.commodities:
        arc_id = _fresh_name(f"__to_sink_{c.id}__", {a.id for a in arcs})
        arcs.append(Arc(arc_id, c.destination, sink,
                        delta_max - delta[c.id],
                        c.rate * sigma / (2 * total_rate)))
        arc_map[c.id] = arc_id
    merged = Commodity(MERGED_COMMODITY, origin, sink, total_rate,
                       instance.commodities[0].inflow_start,
                       instance.commodities[0].inflow_end)
    extended = Instance(instance.nodes + (sink,), tuple(arcs),
                        (merged,), GENERAL)
    extended = validate_instance(extended)
    if isinstance(extended, list):
        raise InvalidDerivedInstance(f"extension produced an invalid instance: {extended}")
    return extended, arc_map


def instance_to_json(instance: Instance) -> dict:
    return {
        "nodes": list(instance.nodes),
        "arcs": [{"id": a.id, "tail": a.tail, "head": a.head,
                  "transit": format_rational(a.transit),
                  "capacity": format_rational(a.capacity)} for a in instance.arcs],
        "commodities": [{"id": c.id, "origin": c.origin, "destination": c.destination,
                         "rate": format_rational(c.rate),
                         "inflow_start": format_rational(c.inflow_start),
                         "inflow_end": format_optional_rational(c.inflow_end)}
                        for c in instance.commodities],
        "mode": instance.mode,
    }


_MODE_ALIASES = {
    "general": GENERAL,
    "commonorigin": COMMON_ORIGIN,
    "common_origin": COMMON_ORIGIN,
    "commondestination": COMMON_DESTINATION,
    "common_destination": COMMON_DESTINATION,
}


def instance_from_json(doc: dict) -> Instance:
    mode = str(doc.get("mode", GENERAL))
    mode = _MODE_ALIASES.get(mode.lower(), mode)
    arcs = [Arc(str(a["id"]), str(a["tail"]), str(a["head"]),
                parse_rational(a["transit"]), parse_rational(a["capacity"]))
            for a in doc.get("arcs", [])]
    commodities = [Commodity(str(c["id"]), str(c["origin"]), str(c["destination"]),
                             parse_rational(c["rate"]),
                             parse_rational(c.get("inflow_start", 0)),
                             parse_optional_rational(c.get("inflow_end")))
                   for c in doc.get("commodities", [])]
    return Instance(tuple(str(n) for n in doc.get("nodes", [])),
                    tuple(arcs), tuple(commodities), mode)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
