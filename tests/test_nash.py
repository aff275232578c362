import hashlib
import importlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nashflow.netmodel import (COMMON_ORIGIN, Arc, Commodity, Instance,
                               validate_instance)
from nashflow.loading import (FlowOverTime, check_feasibility, derive_profile,
                              load_network)
from nashflow.labels import earliest_arrival, waiting_from_labels
from nashflow import nash, netmodel, thinflow
from nashflow.nash import (FlowReconstructionError, Phase,
                           PhaseBudgetExceeded, StalledPhase,
                           _reconstruct_flow, check_derivatives_thinflow,
                           construct_common_destination,
                           construct_common_origin, construct_nash_single,
                           verify_nash)
from nashflow.timefn import PwlFunction, StepFunction

import reference_kernels as reference
from corpus import corpus, single_arc_canonical
from oracle import oracle_multisource

F = Fraction


class TestConstructSingleArc:
    def setup_method(self):
        self.result = construct_nash_single(single_arc_canonical(), horizon=4)

    def test_first_phase_grows_queue(self):
        p = self.result.phases[0]
        assert p.phi_start == 0 and p.phi_end == 2
        assert p.thin.label_slopes["t"] == 1
        assert p.thin.flow["e"] == 1

    def test_arrival_label(self):
        lt = self.result.node_labels["t"]
        for phi in (F(0), F(1), F(2)):
            assert lt(phi) == phi + 1
        assert lt(2) == 3  # final arrival of the last particle

    def test_drain_phases_after_inflow_stops(self):
        # the queue drains while the sink label stays frozen, then normal pace
        lt = self.result.node_labels["t"]
        assert lt(3) == 3 and lt(4) == 3

    def test_flow_matches_loader_closed_form(self):
        flow = self.result.flow
        assert flow.inflow[("1", "e")] == StepFunction([0, 1], [2, 0], 0)
        assert flow.outflow[("1", "e")] == StepFunction([1, 3], [1, 0], 0)

    def test_verified(self):
        report = verify_nash(self.result.instance, self.result.flow)
        assert report.ok, [str(v) for v in report.violations]


class TestConstructVariants:
    def test_low_rate_single_phase(self):
        inst = validate_instance(Instance(
            ("s", "v", "t"),
            (Arc("a", "s", "v", F(1), F(2)), Arc("b", "v", "t", F(2), F(2))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        result = construct_nash_single(inst)
        assert len(result.phases) == 1
        thin = result.phases[0].thin
        assert all(s == 1 for s in thin.label_slopes.values())
        # no queues anywhere
        profile = derive_profile(result.instance, result.flow)
        for e in ("a", "b"):
            assert profile.volume[e].values == (F(0),)

    def test_parallel_activation_event(self):
        inst = validate_instance(Instance(
            ("s", "t"),
            (Arc("e1", "s", "t", F(1), F(1)), Arc("e2", "s", "t", F(2), F(2))),
            (Commodity("1", "s", "t", F(3), F(0), F(2)),)))
        result = construct_nash_single(inst, horizon=6)
        first, second = result.phases[0], result.phases[1]
        assert first.thin.active == frozenset({"e1"})
        assert first.phi_end == F(3, 2)  # the label gap of e2 closes here
        assert "e2" in second.thin.active
        assert second.thin.label_slopes["t"] == F(1, 3)
        assert verify_nash(result.instance, result.flow).ok

    def test_phase_budget(self):
        with pytest.raises(PhaseBudgetExceeded):
            construct_nash_single(single_arc_canonical(), horizon=4, max_phases=1)

    def test_stalled_phase_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(nash, "_phase_alpha", lambda *args: F(0))
        with pytest.raises(StalledPhase, match="phase 0 at particle 0"):
            construct_nash_single(single_arc_canonical(), horizon=4)
        inst = next(i for n, i, _ in corpus() if n == "evac_symmetric")
        with pytest.raises(StalledPhase, match="phase 0 at particle 0"):
            construct_common_destination(inst, horizon=2)


class TestCommonDestination:
    def test_symmetric_sources(self):
        from corpus import corpus
        inst = next(i for n, i, _ in corpus() if n == "evac_symmetric")
        result = construct_common_destination(inst, horizon=2)
        p = result.phases[0]
        assert p.thin.supplies == {"1": F(1, 2), "2": F(1, 2)}
        assert p.thin.label_slopes["t"] == F(1, 2)
        # inflow distribution: each source takes half of every particle
        assert result.node_labels["s1"](2) == 1
        report = verify_nash(result.instance, result.flow)
        assert report.ok, [str(v) for v in report.violations]

    def test_far_source_activates_late(self):
        from corpus import corpus
        inst = next(i for n, i, _ in corpus() if n == "evac_far_near")
        result = construct_common_destination(inst, horizon=6)
        assert result.phases[0].thin.supplies["2"] == 0
        assert result.phases[-1].thin.supplies["2"] > 0
        # source-arrival identity: cumulative source inflow = label * rate
        for c in result.instance.commodities:
            lab = result.node_labels[c.origin]
            mass = sum((fl.get(a.id, F(0))
                        for p in result.phases
                        for a in inst.out_arcs(c.origin)
                        for fl in [p.flows[c.id]]), F(0))
        report = verify_nash(result.instance, result.flow)
        assert report.ok, [str(v) for v in report.violations]

    def test_source_inflow_identity_per_phase(self):
        # cumulative source inflow equals the source label times the rate,
        # exactly at phase ends
        from corpus import corpus
        inst = next(i for n, i, _ in corpus() if n == "evac_far_near")
        result = construct_common_destination(inst, horizon=6)
        acc = {c.id: F(0) for c in inst.commodities}
        for p in result.phases:
            width = p.phi_end - p.phi_start
            for c in inst.commodities:
                acc[c.id] += p.thin.supplies[c.id] * width
                lab = result.node_labels[c.origin](p.phi_end)
                assert acc[c.id] == lab * c.rate
        # supplies always sum to one
        for p in result.phases:
            assert sum(p.thin.supplies.values()) == 1

    def test_sources_must_be_distinct(self):
        inst = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1)), Commodity("2", "s", "t", F(1))),
            "commonDestination"))
        with pytest.raises(ValueError, match="^sources must be distinct nodes$"):
            construct_common_destination(inst, horizon=2)


class TestCommonOrigin:
    def test_two_sinks_disjoint_paths(self):
        from corpus import corpus
        inst = next(i for n, i, _ in corpus() if n == "origin_two_sinks")
        result = construct_common_origin(inst, horizon=2)
        for p in result.phases:
            assert p.flows["1"].get("a", F(0)) == p.thin.value * F(1, 2)
            assert p.flows["2"].get("b", F(0)) == p.thin.value * F(1, 2)
            assert "b" not in p.flows["1"] and "a" not in p.flows["2"]
        report = verify_nash(result.instance, result.flow)
        assert report.ok, [str(v) for v in report.violations]

    def test_single_sink_reduces_to_single_commodity(self):
        inst = validate_instance(Instance(
            ("s", "t1"),
            (Arc("a", "s", "t1", F(1), F(1)),),
            (Commodity("1", "s", "t1", F(2), F(0), F(1)),),
            COMMON_ORIGIN))
        result = construct_common_origin(inst, horizon=2)
        plain = construct_nash_single(validate_instance(Instance(
            ("s", "t1"), (Arc("a", "s", "t1", F(1), F(1)),),
            (Commodity("1", "s", "t1", F(2), F(0), F(1)),))), horizon=2)
        assert result.flow.inflow[("1", "a")] == plain.flow.inflow[("1", "a")]

    def test_label_slope_bound_on_original_nodes(self):
        from corpus import corpus
        for name in ("origin_two_sinks", "origin_asymmetric"):
            inst = next(i for n, i, _ in corpus() if n == name)
            result = construct_common_origin(inst, horizon=2)
            bound = 1 / result.sigma
            for p in result.phases:
                for v in inst.nodes:
                    assert p.thin.label_slopes[v] <= bound, (name, v)

    def test_sink_arc_shares(self):
        from corpus import corpus
        inst = next(i for n, i, _ in corpus() if n == "origin_asymmetric")
        result = construct_common_origin(inst, horizon=2)
        r = sum(c.rate for c in inst.commodities)
        for p in result.phases:
            for c in inst.commodities:
                e = result.sink_arc_map[c.id]
                assert p.thin.flow.get(e, F(0)) == p.thin.value * c.rate / r

    def test_sink_arc_inactive_at_the_start_is_rejected(self, monkeypatch):
        """A sink arc whose gap is negative at particle 0 starts inactive;
        the constructor rejects its commodity although it reads the sink-arc
        gaps only at phase ends."""
        real = nash.extend_with_super_sink

        def late_sink(instance):
            extended, arc_map = real(instance)
            late = arc_map["1"]
            arcs = tuple(Arc(a.id, a.tail, a.head, a.transit + 1, a.capacity)
                         if a.id == late else a for a in extended.arcs)
            return validate_instance(Instance(extended.nodes, arcs, extended.commodities,
                                              extended.mode)), arc_map

        monkeypatch.setattr(nash, "extend_with_super_sink", late_sink)
        inst = next(i for n, i, _ in corpus() if n == "origin_two_sinks")
        with pytest.raises(nash.NewArcInactive) as raised:
            construct_common_origin(inst, horizon=2)
        assert raised.value.commodity == "1"


    def test_sink_arc_gap_negative_at_the_end_is_rejected(self, monkeypatch):
        """A sink-arc gap that turns negative inside the last phase leaves
        every phase's active set as it was; the constructor reads it at the
        last phase end."""
        real = nash._single_phases

        def sunk(instance, horizon, max_phases):
            phases, labels, horizon, injected = real(instance, horizon, max_phases)
            sink, last = instance.commodities[0].destination, phases[-1]
            gap = min(labels[sink](last.phi_end) - labels[a.tail](last.phi_end) - a.transit
                      for a in instance.in_arcs(sink))
            drop = PwlFunction([last.phi_start, last.phi_end], [0, gap + 1])
            return phases, {**labels, sink: labels[sink] - drop}, horizon, injected

        monkeypatch.setattr(nash, "_single_phases", sunk)
        inst = next(i for n, i, _ in corpus() if n == "origin_two_sinks")
        with pytest.raises(nash.NewArcInactive) as raised:
            construct_common_origin(inst, horizon=2)
        assert raised.value.commodity == "1"

    def test_sink_arcs_take_names_no_arc_has(self):
        """Commodity 1's sink arc steps aside from the instance's arc
        ``__to_sink_1__``, and commodity ``1_``'s from that new name."""
        inst = validate_instance(Instance(
            ("s", "t1", "t2"),
            (Arc("__to_sink_1__", "s", "t1", F(1), F(1)), Arc("b", "s", "t2", F(1), F(1))),
            (Commodity("1", "s", "t1", F(1), F(0), F(2)),
             Commodity("1_", "s", "t2", F(1), F(0), F(2))),
            COMMON_ORIGIN))
        result = construct_common_origin(inst)
        assert result.sink_arc_map == {"1": "__to_sink_1___", "1_": "__to_sink_1____"}
        report = verify_nash(result.instance, result.flow)
        assert report.ok, [str(v) for v in report.violations]

    def test_zero_horizon_builds_no_phase(self):
        inst = next(i for n, i, _ in corpus() if n == "origin_two_sinks")
        assert construct_common_origin(inst, horizon=0).phases == []


class TestReconstructFlow:
    def instance(self):
        return validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))

    def test_flow_through_a_flat_tail_label_raises(self):
        phases = [Phase(F(0), F(1), None, {"1": {"e": F(1)}})]
        labels = {"s": PwlFunction.constant(0), "t": PwlFunction.line(1, 0, 1)}
        with pytest.raises(FlowReconstructionError, match="commodity 1 on arc e"):
            _reconstruct_flow(self.instance(), phases, labels)

    def test_no_phases_give_the_zero_flow(self):
        labels = {"s": PwlFunction.line(1), "t": PwlFunction.line(1, 0, 1)}
        flow = _reconstruct_flow(self.instance(), [], labels)
        assert flow.inflow[("1", "e")] == StepFunction.zero()
        assert flow.outflow[("1", "e")] == StepFunction.zero()


class TestRoundTripNeedsBoundedInflow:
    def test_unbounded_commodity_raises(self):
        # with unbounded inflow intervals no particle would be checked, and a
        # tripled inflow would pass; the truncated instance catches it
        inst = validate_instance(Instance(
            ("s", "v", "t"),
            (Arc("a", "s", "t", F(1), F(1)), Arc("b", "v", "t", F(1), F(1))),
            (Commodity("1", "s", "t", F(1), F(0), None),
             Commodity("2", "v", "t", F(1), F(0), None)), "commonDestination"))
        result = construct_common_destination(inst, 2)
        flow = FlowOverTime(dict(result.flow.inflow), dict(result.flow.outflow))
        flow.inflow[("1", "a")] = flow.inflow[("1", "a")].scale(3)
        flow.fill_totals(inst)
        with pytest.raises(ValueError, match="unbounded"):
            check_derivatives_thinflow(inst, flow)
        report = check_derivatives_thinflow(result.instance, flow)
        assert "StaticFlowViolated" in {v.code for v in report.violations}


def _scaled(f, lo, hi, factor):
    """The step function f, multiplied by factor on [lo, hi)."""
    bps = sorted(set(f.breakpoints) | {lo, hi})
    return StepFunction(bps, [f(b) * factor if lo <= b < hi else f(b) for b in bps],
                        f.initial)


class TestRoundTripImplication:
    """The round trip rejects every corrupted corpus flow on which the slope
    conditions that ``verify_multicommodity_thinflow`` proves implied (TF2's
    minimum, TF3) fail against the flow's derived queues, and a flow whose
    queues are not the loading of its inflows."""

    TRIALS = 6

    def test_corrupted_corpus_flows(self):
        rng = random.Random(20261018)
        fired = 0
        for name, instance, horizon in corpus():
            result = _construct_by_mode(instance, horizon)
            inst = result.instance
            keys = sorted(k for k, f in result.flow.inflow.items() if f.breakpoints)
            for _ in range(self.TRIALS):
                key = rng.choice(keys)
                which = rng.choice(["inflow", "outflow", "both"])
                f_in, f_out = result.flow.inflow[key], result.flow.outflow[key]
                start, end = f_in.breakpoints[0], f_out.breakpoints[-1]
                lo, hi = (start + (end - start) * F(k, 8)
                          for k in sorted(rng.sample(range(9), 2)))
                factor = rng.choice([F(1, 2), F(3, 2), F(2)])
                flow = FlowOverTime(dict(result.flow.inflow), dict(result.flow.outflow))
                if which != "outflow":
                    flow.inflow[key] = _scaled(f_in, lo, hi, factor)
                if which != "inflow":
                    flow.outflow[key] = _scaled(f_out, lo, hi, factor)
                flow.fill_totals(inst)
                profile = derive_profile(inst, flow)
                strategies, labels, checked = nash._read_back(inst, flow, profile)
                try:
                    dropped = reference.stress_conditions(inst, strategies, labels,
                                                          checked, profile)
                except ValueError:
                    continue
                if dropped:
                    fired += 1
                    report = check_derivatives_thinflow(inst, flow)
                    assert not report.ok, (name, key, which, lo, hi, factor)
        assert fired >= 40

    def test_outflow_corruption_is_rejected(self):
        # halving an outflow leaves the inflows, and so the queues that the
        # read-back strategies load, as they were; the labels read from the
        # flow's own queues are then certified against other queues, which
        # the round trip must report rather than pass
        instance, horizon = next((inst, h) for name, inst, h in corpus()
                                 if name == "parallel_equal_tau")
        result = _construct_by_mode(instance, horizon)
        flow = FlowOverTime(dict(result.flow.inflow), dict(result.flow.outflow))
        flow.outflow[("1", "e2")] = _scaled(flow.outflow[("1", "e2")], F(7, 12),
                                            F(7, 4), F(1, 2))
        flow.fill_totals(result.instance)
        report = check_derivatives_thinflow(result.instance, flow)
        assert [str(v) for v in report.violations] == ["LoadedWaitMismatch(e2) at 3/8"]
        assert not report.ok


class TestVerifyNashNegative:
    def test_delayed_inflow_fails_the_gate(self):
        inst = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        from nashflow.loading import FlowOverTime
        flow = FlowOverTime(
            inflow={("1", "e"): StepFunction([F(1, 2), F(3, 2)], [1, 0], 0)},
            outflow={("1", "e"): StepFunction([F(3, 2), F(5, 2)], [1, 0], 0)},
        ).fill_totals(inst)
        report = verify_nash(inst, flow)
        assert not report.ok
        assert not report.feasibility.ok  # conservation breaks at the source
        assert [str(v) for v in report.violations] == ["NotFeasible(*,*)"]

    def test_flow_forced_on_long_path(self):
        inst = validate_instance(Instance(
            ("s", "t"),
            (Arc("fast", "s", "t", F(1), F(5)), Arc("slow", "s", "t", F(3), F(5))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        inflows = {("1", "slow"): StepFunction([0, 1], [1, 0], 0)}
        flow, profile = load_network(inst, inflows)
        assert check_feasibility(inst, flow, profile).ok
        report = verify_nash(inst, flow, profile)
        assert not report.ok
        assert any(v.code == "NashViolated" and v.subject == "slow"
                   for v in report.violations)
        # the first particle whose in- and outflow identity breaks, and by how much
        slow = next(v for v in report.violations if v.subject == "slow")
        assert (slow.particle, slow.gap) == (F(1, 2), F(1, 2))


def _split_flow(rng, n_nodes=5):
    """A random acyclic instance, and a flow that sends each commodity from
    its origin to the last node in random static splits: at every node in
    turn, what arrives (the commodity's inflow at its origin, the loaded
    outflows of the arcs in) leaves on the arcs out in fixed random shares,
    and those arcs are loaded together."""
    nodes = tuple(f"n{k}" for k in range(n_nodes))
    arcs = [Arc(f"e{k}", nodes[k], nodes[k + 1], F(rng.randint(1, 3)), F(rng.randint(1, 3)))
            for k in range(n_nodes - 1)]
    for k in range(rng.randint(1, 4)):
        u, v = sorted(rng.sample(range(n_nodes), 2))
        arcs.append(Arc(f"x{k}", nodes[u], nodes[v], F(rng.randint(0, 4)),
                        F(rng.randint(1, 3), rng.choice([1, 2]))))
    commodities = tuple(Commodity(str(j), nodes[j], nodes[-1], F(rng.randint(1, 3)),
                                  F(0), F(rng.randint(1, 2)))
                        for j in range(rng.randint(1, 2)))
    inst = validate_instance(Instance(nodes, tuple(arcs), commodities))
    flow = FlowOverTime({}, {})
    for v in nodes[:-1]:
        leaving = inst.out_arcs(v)
        for c in commodities:
            arriving = [flow.outflow[(c.id, a.id)] for a in inst.in_arcs(v)]
            if v == c.origin:
                arriving.append(StepFunction([c.inflow_start, c.inflow_end], [c.rate, 0]))
            weights = [rng.randint(0, 2) for _ in leaving]
            weights[rng.randrange(len(weights))] += 1
            for a, w in zip(leaving, weights):
                flow.inflow[(c.id, a.id)] = StepFunction.sum_of(arriving).scale(
                    F(w, sum(weights)))
        loaded, _ = load_network(inst, {(c.id, a.id): flow.inflow[(c.id, a.id)]
                                        for c in commodities for a in leaving})
        for c in commodities:
            for a in leaving:
                flow.outflow[(c.id, a.id)] = loaded.outflow[(c.id, a.id)]
    return inst, flow


class TestStaticFlowImplication:
    """On a feasible flow, the underlying static flow of every commodity has
    value phi on its particles once the Nash identity holds (``verify_nash``
    proves it).  Whenever the static-flow check, run as a reference
    predicate, fails for a commodity of a feasible flow in random static
    splits, ``verify_nash`` must report a Nash violation of that
    commodity."""

    def test_static_flow_failures_are_nash_violations(self):
        rng = random.Random(20261019)
        fired = 0
        for trial in range(60):
            inst, flow = _split_flow(rng)
            assert check_feasibility(inst, flow).ok, trial
            report = verify_nash(inst, flow)
            violated = {v.commodity for v in report.violations}
            for c in inst.commodities:
                if reference.static_flow_failures(inst, c, report.labels[c.id], flow):
                    fired += 1
                    assert c.id in violated, (trial, c.id)
        assert fired >= 20, fired


class TestVerdictAgreement:
    """On feasible flows in random static splits, ``verify_nash`` and the
    round trip ``check_derivatives_thinflow`` accept and reject the same
    flows: both certify that the flow is a Nash flow, from two sides."""

    def test_same_verdicts(self):
        verdicts = {(True, True): 0, (False, False): 0}
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for trial in range(250):
                inst, flow = _split_flow(rng)
                verdict = (verify_nash(inst, flow).ok, check_derivatives_thinflow(inst, flow).ok)
                assert verdict in verdicts, (seed, trial, verdict)
                verdicts[verdict] += 1
        assert verdicts[(False, False)] >= 600 and verdicts[(True, True)] >= 50, verdicts


class TestCorpusConstructVerify:
    """Every constructor output passes feasibility, the equilibrium check and
    the derivative thin-flow round trip with zero violations."""

    @pytest.mark.parametrize("name,instance,horizon",
                             [(n, i, h) for n, i, h in corpus()])
    def test_construct_then_verify(self, name, instance, horizon):
        result = _construct_by_mode(instance, horizon)
        profile = derive_profile(result.instance, result.flow)
        feas = check_feasibility(result.instance, result.flow, profile)
        assert feas.ok, (name, list(map(str, feas.violations)))
        report = verify_nash(result.instance, result.flow, profile)
        assert report.ok, (name, list(map(str, report.violations)))
        thin_report = check_derivatives_thinflow(result.instance, result.flow,
                                                 profile)
        assert thin_report.ok, (name, list(map(str, thin_report.violations)))

    @pytest.mark.parametrize("name,instance,horizon",
                             [(n, i, h) for n, i, h in corpus()])
    def test_waiting_reconstruction(self, name, instance, horizon):
        # label-gap waiting times agree with the loaded queues everywhere
        result = _construct_by_mode(instance, horizon)
        flow, profile = load_network(result.instance,
                                     {k: f for k, f in result.flow.inflow.items()})
        labels = {c.id: earliest_arrival(result.instance, profile, c.id)
                  for c in result.instance.commodities}
        for a in result.instance.arcs:
            q = profile.waiting[a.id]
            probes = list(q.breakpoints)
            probes += [(x + y) / 2 for x, y in zip(q.breakpoints, q.breakpoints[1:])]
            for theta in probes:
                assert waiting_from_labels(result.instance, labels, a.id,
                                           theta) == q(theta), (name, a.id, theta)


def _construct_by_mode(instance, horizon):
    if instance.mode == "commonOrigin":
        return construct_common_origin(instance, horizon)
    if instance.mode == "commonDestination":
        return construct_common_destination(instance, horizon)
    return construct_nash_single(instance, horizon)


def _net_origin_outflow(instance, flows, origin):
    return (sum((flows.get(a.id, F(0)) for a in instance.out_arcs(origin)), F(0))
            - sum((flows.get(a.id, F(0)) for a in instance.in_arcs(origin)), F(0)))


def _interval_end_formula(instance, result, horizon, c):
    """The inflow end the constructors set before they shared one finish:
    a + (injected particles) * r_j / r / r_j for one origin, the origin's
    label at the horizon for several sources."""
    if instance.mode == "commonDestination":
        return result.node_labels[c.origin](horizon)
    merged = (result.extended_instance or instance).commodities[0]
    horizon = merged.particle_volume if horizon is None else horizon
    injected = min(horizon, merged.particle_volume)
    return c.inflow_start + injected * (c.rate / merged.rate) / c.rate


class TestOneFinish:
    """The three constructors share one finish: it rebuilds the flow once
    and cuts each inflow interval where the constructed mass ends."""

    @pytest.mark.parametrize("name,instance,horizon",
                             [(n, i, h) for n, i, h in corpus()])
    def test_one_reconstruction_per_call(self, name, instance, horizon, monkeypatch):
        calls = []
        rebuild = nash._reconstruct_flow
        monkeypatch.setattr(nash, "_reconstruct_flow",
                            lambda *args: calls.append(args[0]) or rebuild(*args))
        result = _construct_by_mode(instance, horizon)
        assert calls == [result.instance]

    @pytest.mark.parametrize("name,instance,horizon",
                             [(n, i, h) for n, i, h in corpus()])
    def test_interval_ends_carry_the_constructed_mass(self, name, instance, horizon):
        result = _construct_by_mode(instance, horizon)
        ends = {c.id: c.inflow_end for c in result.instance.commodities}
        assert len(ends) == len(instance.commodities)
        for c in instance.commodities:
            mass = sum((_net_origin_outflow(instance, p.flows[c.id], c.origin)
                        * (p.phi_end - p.phi_start) for p in result.phases), F(0))
            assert ends[c.id] == _interval_end_formula(instance, result, horizon, c)
            assert ends[c.id] == c.inflow_start + mass / c.rate, (name, c.id)

    def test_modes_covered(self):
        assert {i.mode for _, i, _ in corpus()} == {
            "general", "commonOrigin", "commonDestination"}


def _grid(rows, cols):
    """The rows x cols grid of the scale baselines: nodes n<i><j>, a right
    and a down arc per node, numbered e0, e1, ... in row-major order, with
    transit time and capacity drawn from 1..3 by ``random.Random(1)``,
    transit first; one commodity from corner to corner at rate 6 on
    [0, 2]."""
    rng = random.Random(1)
    arcs = []
    for i in range(rows):
        for j in range(cols):
            for k, l in ((i, j + 1), (i + 1, j)):
                if k < rows and l < cols:
                    transit, capacity = F(rng.randint(1, 3)), F(rng.randint(1, 3))
                    arcs.append(Arc(f"e{len(arcs)}", f"n{i}{j}", f"n{k}{l}",
                                    transit, capacity))
    nodes = tuple(f"n{i}{j}" for i in range(rows) for j in range(cols))
    return validate_instance(Instance(nodes, tuple(arcs), (
        Commodity("1", "n00", f"n{rows - 1}{cols - 1}", F(6), F(0), F(2)),)))


class TestGridScale:
    """Grids whose phases reach 12 and 16 active arcs build, fast, the very
    documents that the plain lexicographic search built: the digests are of
    its ``to_json`` output, which took about 6 s and 80 s to build."""

    @pytest.mark.parametrize("rows,cols,widest,digest", [
        (3, 3, 12, "54b767d1399911d0a6323dfb6487192203a30e6cf4dba7b1947035060e283040"),
        (3, 4, 16, "6553a24c238e534d3be16c695a5a5a7e306f3a3d79efdfa5f507a3e764ccb95e"),
    ])
    def test_document_unchanged(self, rows, cols, widest, digest):
        result = construct_nash_single(_grid(rows, cols))
        assert max(len(p.thin.active) for p in result.phases) == widest
        document = json.dumps(result.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(document).hexdigest() == digest


def _rescaled(instance, a, b):
    """The instance with transit times and inflow intervals scaled by a,
    capacities and inflow rates by b."""
    arcs = [replace(e, transit=a * e.transit, capacity=b * e.capacity) for e in instance.arcs]
    commodities = [replace(c, rate=b * c.rate, inflow_start=a * c.inflow_start,
                           inflow_end=None if c.inflow_end is None else a * c.inflow_end)
                   for c in instance.commodities]
    return validate_instance(Instance(instance.nodes, arcs, commodities, instance.mode))


class TestScaling:
    """Scaling time by a and flow by b maps an equilibrium onto the scaled
    instance's, the premise of the ``equilibria`` benchmark's rescaled grids.
    Particles are indexed by volume, which scales by ab, so the labels are
    l'_v = a l_v(. / ab), the waits q'_e(a t) = a q_e(t), and every phase
    keeps its active and resetting arcs.  Checked exactly."""

    PAIRS = [(F(2), F(3, 4)), (F(2, 3), F(5, 2))]
    CASES = [(name, inst, horizon) for name, inst, horizon in corpus()] + \
        [("grid3x3", _grid(3, 3), None)]

    @pytest.mark.parametrize("name,instance,horizon", CASES, ids=[c[0] for c in CASES])
    def test_equilibrium_scales(self, name, instance, horizon):
        base = _construct_by_mode(instance, horizon)
        base_waits = derive_profile(base.instance, base.flow).waiting
        for a, b in self.PAIRS:
            scaled = _construct_by_mode(_rescaled(instance, a, b),
                                        None if horizon is None else a * b * horizon)
            assert [(p.thin.active, p.thin.resetting) for p in scaled.phases] == \
                [(p.thin.active, p.thin.resetting) for p in base.phases], (a, b)
            assert scaled.node_labels == {
                v: PwlFunction([a * b * x for x in f.breakpoints], [a * y for y in f.values],
                               f.initial_slope / b, f.final_slope / b)
                for v, f in base.node_labels.items()}, (a, b)
            waits = derive_profile(scaled.instance, scaled.flow).waiting
            assert waits == {e: PwlFunction([a * x for x in q.breakpoints],
                                            [a * y for y in q.values],
                                            q.initial_slope, q.final_slope)
                             for e, q in base_waits.items()}, (a, b)


def _benchmark_items(monkeypatch, seed):
    """The ``equilibria`` benchmark's instances: the corpus and the grids."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    program = SimpleNamespace(netmodel=netmodel)
    items = workloads.Equilibria().generate(program, seed)
    return [(item.name, item.instance, item.data["horizon"]) for item in items]


def _benchmark_grids(monkeypatch, seed, mode):
    """The ``equilibria`` benchmark's grid instances of one mode."""
    return [(name, inst, horizon) for name, inst, horizon in _benchmark_items(monkeypatch, seed)
            if name.startswith("grid") and inst.mode == mode]


class TestSearchLeaves:
    """The leaves the thin-flow search yields in every phase of the
    ``equilibria`` benchmark's instances at seeds 1-3, the corpus among
    them."""

    CONSTRUCT = {"general": construct_nash_single,
                 "commonOrigin": construct_common_origin,
                 "commonDestination": construct_common_destination}

    def _build_all(self, monkeypatch, current):
        for seed in (1, 2, 3):
            for name, instance, horizon in _benchmark_items(monkeypatch, seed):
                current[:] = [seed, name]
                self.CONSTRUCT[instance.mode](instance, horizon)

    def test_recovery_yields_one_leaf(self, monkeypatch):
        """The recovery pass tries only the states that can pass with its
        pinned slopes, so the only leaf it yields is the one it returns."""
        search = thinflow._state_solutions
        current, yielded = [], []

        def counted(*args, pins=None, **kwargs):
            leaves = search(*args, pins=pins, **kwargs)
            if pins is None:
                return leaves
            yielded.append([tuple(current), 0])

            def count():
                for leaf in leaves:
                    yielded[-1][1] += 1
                    yield leaf
            return count()

        monkeypatch.setattr(thinflow, "_state_solutions", counted)
        self._build_all(monkeypatch, current)
        assert len(yielded) >= 90
        assert [(item, n) for item, n in yielded if n != 1] == []

    def test_leaves_pass_the_skipped_checks(self, monkeypatch):
        """Every leaf that either pass tests passes, in full, the four checks
        that the search skips (``_conditions`` with ``search=True``)."""
        conditions = thinflow._conditions
        skipped = {"SupplySum", "SourceSlope", "ConservationViolated", "SupportViolated"}
        current, found = [], []

        def in_full(*args, search=False):
            if search:
                found.append((tuple(current), {c for c, _ in conditions(*args)} & skipped))
            return conditions(*args, search=search)

        monkeypatch.setattr(thinflow, "_conditions", in_full)
        self._build_all(monkeypatch, current)
        assert len(found) >= 600
        assert [(item, codes) for item, codes in found if codes] == []


class TestMultiSourceSlopesUnique:
    """The recovery pass of the thin-flow search pins the slopes of the
    first passing leaf it finds, which returns the lexicographic search's
    leaf only if all passing leaves share their slopes.  For one source that
    is a theorem; for several, every phase of the benchmark's common-
    destination grids and of the evacuation corpus shows it: every solution
    of the brute-force oracle has the solver's slopes."""

    def test_every_phase(self, monkeypatch):
        instances = [(name, inst, horizon) for name, inst, horizon in corpus()
                     if name.startswith("evac_")]
        for seed in (1, 2, 3):
            instances += _benchmark_grids(monkeypatch, seed, "commonDestination")
        phases = 0
        for name, instance, horizon in instances:
            arcs = {a.id: (a.tail, a.head, a.capacity) for a in instance.arcs}
            sources = {c.id: (c.origin, c.rate) for c in instance.commodities}
            sink = instance.commodities[0].destination
            result = construct_common_destination(instance, horizon)
            for k, phase in enumerate(result.phases):
                thin = phase.thin
                found = oracle_multisource(arcs, set(thin.active), set(thin.resetting),
                                           sources, sink)
                assert found, (name, k)
                assert all(slopes == thin.label_slopes for _, _, slopes in found), (name, k)
                phases += 1
        assert len(instances) == 9 and phases >= 20, phases
