import importlib
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from corpus import corpus
from nashflow import labels, loading, netmodel, timefn
from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import (BeyondHorizon, FlowOverTime, NegativeInflow,
                              UnknownEntry, check_feasibility, derive_profile,
                              exit_time, flow_from_json, flow_to_json,
                              load_network, load_queues, queue_size, waiting_time)
from nashflow.nash import (construct_common_destination, construct_common_origin,
                           construct_nash_single, verify_nash)
from nashflow.timefn import PwlFunction, StepFunction

F = Fraction


def single_arc(capacity=1, transit=1, rate=2):
    return validate_instance(Instance(
        nodes=("s", "t"),
        arcs=(Arc("e", "s", "t", F(transit), F(capacity)),),
        commodities=(Commodity("1", "s", "t", F(rate), F(0), F(1)),),
    ))


class TestSingleArcClosedForm:
    """Hand-integrated queue dynamics on one arc (tau=1, nu=1, rate 2 on [0,1))."""

    def setup_method(self):
        self.instance = single_arc()
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        self.flow, self.profile = load_network(self.instance, inflows, horizon=1)

    def test_queue_volume(self):
        z = self.profile.volume["e"]
        assert z(1) == 0 and z(F(3, 2)) == F(1, 2) and z(2) == 1
        assert z(F(5, 2)) == F(1, 2) and z(3) == 0 and z(4) == 0

    def test_outflow(self):
        out = self.flow.total_outflow["e"]
        assert out == StepFunction([1, 3], [1, 0], 0)

    def test_waiting_time(self):
        q = self.profile.waiting["e"]
        assert q(0) == 0 and q(F(1, 2)) == F(1, 2) and q(1) == 1
        assert q(F(3, 2)) == F(1, 2) and q(2) == 0

    def test_exit_time(self):
        T = self.profile.exit_time["e"]
        for theta in (F(0), F(1, 4), F(1, 2), F(1)):
            assert T(theta) == 2 * theta + 1

    def test_accessors(self):
        assert waiting_time(self.profile, "e", F(1, 2)) == F(1, 2)
        assert queue_size(self.profile, "e", 2) == 1
        assert exit_time(self.profile, "e", 0) == 1

    def test_beyond_horizon_guard(self):
        assert self.profile.horizon is not None
        with pytest.raises(BeyondHorizon):
            queue_size(self.profile, "e", self.profile.horizon + 1)

    def test_feasibility_certificate(self):
        report = check_feasibility(self.instance, self.flow, self.profile)
        assert report.ok, [str(v) for v in report.violations]


class TestNoQueue:
    def test_outflow_is_shifted_inflow(self):
        instance = single_arc(capacity=3)
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        assert profile.volume["e"] == PwlFunction.constant(0)
        assert flow.total_outflow["e"] == StepFunction([1, 2], [2, 0], 0)

    def test_zero_queue_exit_time(self):
        instance = single_arc(capacity=3)
        flow, profile = load_network(instance, {})
        for theta in (F(-1), F(0), F(7, 3)):
            assert exit_time(profile, "e", theta) == theta + 1


class TestFifoSplit:
    def test_proportional_split(self):
        # rates 1 and 2 into one arc (nu=1): outflow splits 1/3 and 2/3
        instance = validate_instance(Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),
                         Commodity("2", "s", "t", F(2), F(0), F(1))),
        ))
        inflows = {("1", "e"): StepFunction([0, 1], [1, 0], 0),
                   ("2", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        assert flow.total_outflow["e"] == StepFunction([1, 4], [1, 0], 0)
        assert flow.outflow[("1", "e")] == StepFunction([1, 4], [F(1, 3), 0], 0)
        assert flow.outflow[("2", "e")] == StepFunction([1, 4], [F(2, 3), 0], 0)
        report = check_feasibility(instance, flow, profile)
        assert report.ok

    def test_commodity_cumulative_identity(self):
        # Per-commodity cumulative inflow equals outflow at the exit time
        instance = single_arc()
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        T = profile.exit_time["e"]
        F_in = flow.cumulative_inflow("1", "e")
        F_out = flow.cumulative_outflow("1", "e")
        for theta in (F(0), F(1, 3), F(1, 2), F(1), F(2)):
            assert F_in(theta) == F_out(T(theta))


class TestViolations:
    def test_negative_inflow_rejected(self):
        with pytest.raises(NegativeInflow):
            load_network(single_arc(), {("1", "e"): StepFunction([0], [-1], 0)})

    def test_outflow_above_capacity_detected(self):
        instance = single_arc()
        flow, _ = load_network(instance,
                               {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        flow.outflow[("1", "e")] = StepFunction([1, 2], [2, 0], 0)
        flow.fill_totals(instance)
        report = check_feasibility(instance, flow)
        assert not report.ok
        assert any(v.code == "OutflowLawViolated" for v in report.violations)
        # the witness is the failing cell, written in rationals
        law = [v.record() for v in report.violations if v.code == "OutflowLawViolated"]
        assert law == [{"code": "OutflowLawViolated", "subject": "e", "where": "[1, 2)"}]

    def test_outflow_law_witness_on_a_ray(self):
        # arrivals at rate 2 from time 1 on keep a queue standing for ever,
        # yet the outflow drops to 1/2 below capacity 1
        instance = single_arc()
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0], [2], 0)})
        flow.outflow[("1", "e")] = StepFunction([1], [F(1, 2)], 0)
        flow.fill_totals(instance)
        report = check_feasibility(instance, flow)
        law = [v.where for v in report.violations if v.code == "OutflowLawViolated"]
        assert law == ["[1, inf)"]

    def test_witnesses_where_z_crosses_zero_on_a_ray(self):
        # rate 2 on [0, 1) through transit 1, capacity 1, with an outflow of 1
        # from time 1 on: z = 3 - t from time 2, so the queue stands on
        # [2, 3) and is negative from 3 on, where the law wants outflow 0
        instance = single_arc()
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        flow.outflow[("1", "e")] = StepFunction([1], [1], 0)
        flow.fill_totals(instance)
        report = check_feasibility(instance, flow)
        assert ref.negative_queue(report.profile.volume["e"])
        assert [str(v) for v in report.violations] == ["OutflowLawViolated(e) at [3, inf)"]

    def test_leak_at_intermediate_node(self):
        instance = validate_instance(Instance(
            nodes=("s", "v", "t"),
            arcs=(Arc("a", "s", "v", F(1), F(2)), Arc("b", "v", "t", F(1), F(2))),
            commodities=(Commodity("1", "s", "v", F(1), F(0), F(1)),),
        ))
        # flow enters a but never continues on b, with destination t: node v leaks
        instance2 = validate_instance(Instance(
            instance.nodes, instance.arcs,
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        inflows = {("1", "a"): StepFunction([0, 1], [1, 0], 0)}
        flow, profile = load_network(instance2, inflows)
        report = check_feasibility(instance2, flow, profile)
        assert any(v.code == "ConservationViolated" and v.subject.startswith("v")
                   for v in report.violations)

    def test_fifo_violation_detected(self):
        instance = validate_instance(Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),
                         Commodity("2", "s", "t", F(2), F(0), F(1))),
        ))
        inflows = {("1", "e"): StepFunction([0, 1], [1, 0], 0),
                   ("2", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        # hand the whole outflow to commodity 2 on some stretch
        flow.outflow[("1", "e")] = StepFunction([2, 4], [F(1, 3), 0], 0)
        flow.outflow[("2", "e")] = StepFunction([1, 2, 4], [1, F(2, 3), 0], 0)
        flow.fill_totals(instance)
        report = check_feasibility(instance, flow, profile)
        assert "CommodityCumulativeViolated" in {v.code for v in report.violations}

    def test_profile_exit_times_are_checked(self):
        # exit times one later than theta + tau + q, a claim the flow refutes
        # everywhere: the witness is the first probe, left of every anchor
        instance = single_arc()
        flow, profile = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        profile.exit_time["e"] = profile.exit_time["e"].add_constant(1)
        report = check_feasibility(instance, flow, profile)
        assert [str(v) for v in report.violations] == ["ExitTimeMismatch(e) at -1"]

    def test_wrong_queue_volume_is_the_one_violation(self):
        # a given z that climbs above the flow's from time 2 on; the flow is
        # feasible, so every check that reads the derivation passes
        instance = single_arc()
        flow, profile = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        profile.volume["e"] = profile.volume["e"] + PwlFunction([2, 3], [0, 1], 0, 0)
        report = check_feasibility(instance, flow, profile)
        assert [str(v) for v in report.violations] == ["QueueMismatch(e) at 5/2"]

    def test_decreasing_exit_times_are_reported(self):
        # a queue of 2 drains at rate 4 through capacity 1, so the exit time
        # of the particles entering on [1, 2) falls at slope -3; the law
        # already fails on [1, 2), where arrivals queue but nothing leaves
        instance = single_arc()
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        flow.outflow[("1", "e")] = StepFunction([2, 3], [4, 0], 0)
        report = check_feasibility(instance, flow)
        assert ref.exit_times_decrease(report.profile.exit_time["e"])
        assert [str(v) for v in report.violations] == ["OutflowLawViolated(e) at [1, 2)"]


class TestPremises:
    """The flow facts that ``check_feasibility`` takes from the commodity
    rates alone: the rule for inflow rates, which the loader shares, the
    summed totals and an outflow that starts somewhere."""

    @pytest.mark.parametrize("rate,where", [
        (StepFunction([0, 1], [-1, 0], 0), "0"),
        (StepFunction([0, 1, 2], [1, -2, 0], 0), "1"),
        (StepFunction([1], [0], 2), "-inf"),
        (StepFunction((), (), 1), "-inf"),
    ])
    def test_inflow_rule(self, rate, where):
        instance = single_arc(capacity=5)
        with pytest.raises(NegativeInflow):
            load_network(instance, {("1", "e"): rate})
        flow = FlowOverTime({("1", "e"): rate}, {("1", "e"): rate.shift(1)})
        report = check_feasibility(instance, flow)
        assert [v.where for v in report.violations if v.code == "NegativeInflow"] == [where]
        assert report.violations[0].subject == "1,e"

    def test_stored_totals_are_not_read(self):
        # rate 3 in on [0, 1) and out on [1, 2), while the stored totals say 1
        instance = single_arc(rate=3)
        rate = StepFunction([0, 1], [3, 0], 0)
        flow = FlowOverTime({("1", "e"): rate}, {("1", "e"): rate.shift(1)},
                            {"e": rate.scale(F(1, 3))}, {"e": rate.shift(1).scale(F(1, 3))})
        report = check_feasibility(instance, flow)
        assert [str(v) for v in report.violations] == ["OutflowLawViolated(e) at [1, 2)"]
        assert not verify_nash(instance, flow).ok

    def test_outflow_since_minus_infinity(self):
        # the loaded outflow plus rate 1 before time 0: a queue that stood
        # since -inf drains at time 0, which the FIFO split once caught alone
        instance = single_arc()
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        flow.outflow[("1", "e")] = StepFunction([0, 1, 3], [0, 1, 0], 1)
        report = check_feasibility(instance, flow)
        assert [str(v) for v in report.violations] == ["EarlyOutflow(e) at -inf"]

    def test_unknown_entries_are_rejected(self):
        instance = single_arc()
        rate = StepFunction([0, 1], [5, 0], 0)
        with pytest.raises(UnknownEntry, match=r"\(9, zz\)"):
            load_network(instance, {("1", "e"): rate, ("9", "zz"): rate})
        flow, _ = load_network(instance, {("1", "e"): rate})
        for key in ("inflows", "outflows"):
            doc = flow_to_json(instance, flow)
            doc[key].append({"commodity": "9", "arc": "zz", "rate": rate.to_json()})
            with pytest.raises(UnknownEntry, match=r"\(9, zz\)"):
                flow_from_json(instance, doc)

    @pytest.mark.parametrize("rates", ["inflow", "outflow"])
    def test_unknown_entries_of_a_flow_built_in_code(self, rates):
        # a loaded flow plus an entry for a commodity and arc the instance lacks
        instance = single_arc()
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
        getattr(flow, rates)[("9", "zz")] = StepFunction([0, 1], [5, 0], 0)
        for check in (check_feasibility, derive_profile, verify_nash):
            with pytest.raises(UnknownEntry, match=r"\(9, zz\)"):
                check(instance, flow)


def random_instance(rng: random.Random):
    n_nodes = rng.randint(2, 8)
    nodes = tuple(f"n{k}" for k in range(n_nodes))
    n_arcs = rng.randint(1, 14)
    arcs = []
    for k in range(n_arcs):
        tail, head = rng.sample(range(n_nodes), 2)
        arcs.append(Arc(f"e{k}", f"n{tail}", f"n{head}",
                        F(rng.randint(0, 6), rng.choice([1, 2, 3])),
                        F(rng.randint(1, 5), rng.choice([1, 2]))))
    commodities = tuple(
        Commodity(f"c{j}", rng.choice(nodes), rng.choice(nodes), F(1), F(0), F(1))
        for j in range(rng.randint(1, 3)))
    return Instance(nodes, tuple(arcs), commodities)


def random_inflows(rng: random.Random, instance):
    inflows = {}
    for c in instance.commodities:
        for a in instance.arcs:
            if rng.random() < 0.4:
                cuts = sorted(rng.sample(range(0, 12), rng.randint(1, 3)))
                bps = [F(x, 2) for x in cuts]
                vals = [F(rng.randint(0, 4), rng.choice([1, 2])) for _ in bps]
                vals[-1] = F(0)
                inflows[(c.id, a.id)] = StepFunction(bps, vals, 0)
    return inflows


class TestQueueDynamicsRandomized:
    """Loader output satisfies the queue-dynamics properties on random data.

    The feasibility checker re-derives every property from the definitions
    (not from the loader's internal state), so this is a genuine cross-check;
    node conservation is not expected for arbitrary rates and is ignored.
    """

    def test_random_instances(self):
        rng = random.Random(20240811)
        for trial in range(60):
            instance = random_instance(rng)
            inflows = random_inflows(rng, instance)
            flow, profile = load_network(instance, inflows)
            report = check_feasibility(instance, flow, profile)
            arc_violations = [v for v in report.violations
                              if v.code != "ConservationViolated"]
            assert not arc_violations, (trial, list(map(str, arc_violations)))
            assert report.profile == derive_profile(instance, flow)


def _random_rate(rng):
    return F(rng.randint(0, 4), rng.choice([1, 2]))


def corrupt(rng, instance, flow):
    """A copy of the loaded ``flow`` with one random corruption, and the
    profile to certify it with.  Either one inflow or outflow rate gets a
    piece changed, moved or added (the profile is then derived from the
    corrupted flow), or the waits of one arc are shifted by a constant, with
    or without its exit times."""
    bad = FlowOverTime(dict(flow.inflow), dict(flow.outflow))
    arc = rng.choice(instance.arcs)
    key = (rng.choice(instance.commodities).id, arc.id)
    kind = rng.choice(["change", "move", "add", "wait", "wait and exit"])
    if kind.startswith("wait"):
        profile = derive_profile(instance, bad.fill_totals(instance))
        shift = F(rng.choice([-1, 1]) * rng.randint(1, 4), rng.choice([2, 4]))
        profile.waiting[arc.id] = profile.waiting[arc.id].add_constant(shift)
        if kind == "wait and exit":
            profile.exit_time[arc.id] = profile.exit_time[arc.id].add_constant(shift)
        return bad, profile
    rates = rng.choice([bad.inflow, bad.outflow])
    bps, vals = list(rates[key].breakpoints), list(rates[key].values)
    if kind == "change" and bps:
        vals[rng.randrange(len(bps))] = _random_rate(rng)
    elif kind == "move" and bps:
        k = rng.randrange(len(bps))
        lo = bps[k - 1] if k > 0 else bps[k] - 2
        hi = bps[k + 1] if k + 1 < len(bps) else bps[k] + 2
        bps[k] = lo + (hi - lo) * F(rng.randint(1, 3), 4)
    else:
        x = F(rng.randint(0, 40), 4)
        if x not in bps:
            k = sum(b < x for b in bps)
            bps.insert(k, x)
            vals.insert(k, _random_rate(rng))
    rates[key] = StepFunction(bps, vals, 0)
    bad.fill_totals(instance)
    return bad, derive_profile(instance, bad)


class TestImpliedDynamicsChecks:
    """The waiting-derivative case formula, frozen exit times, queue
    positivity over the waiting window, the total cumulative identity, the
    FIFO split, non-negative queues and monotone exit times follow from the
    checks that ``check_feasibility`` runs (see its docstring).  Whenever
    one of them, run as a reference predicate, fails on a corrupted flow,
    the report must reject that flow.  The last two read the flow's own
    derivation, the others the profile the report is given."""

    def test_each_implied_failure_is_rejected(self):
        rng = random.Random(20261018)
        trials = 200
        fired = {"dynamics": 0, "total identity": 0, "FIFO split": 0,
                 "negative queue": 0, "decreasing exit times": 0}
        for trial in range(trials):
            instance = random_instance(rng)
            flow, _ = load_network(instance, random_inflows(rng, instance))
            bad, profile = corrupt(rng, instance, flow)
            report = check_feasibility(instance, bad, profile)
            failing = []
            for a in instance.arcs:
                z, q, T = (profile.volume[a.id], profile.waiting[a.id],
                           profile.exit_time[a.id])
                f_in = bad.total_inflow[a.id]
                if ref.waiting_derivative_failures(q, f_in, a.capacity):
                    failing.append(("waiting derivative", a.id))
                if ref.unfrozen_exit_times(T, f_in, z, a.transit):
                    failing.append(("frozen exit times", a.id))
                if ref.queue_positivity_failures(q, z, a.transit):
                    failing.append(("queue positivity", a.id))
                if ref.total_identity_fails(instance, bad, T, a.id):
                    failing.append(("total identity", a.id))
                if ref.fifo_split_failures(instance, bad, T, a.id):
                    failing.append(("FIFO split", a.id))
                if ref.negative_queue(report.profile.volume[a.id]):
                    failing.append(("negative queue", a.id))
                if ref.exit_times_decrease(report.profile.exit_time[a.id]):
                    failing.append(("decreasing exit times", a.id))
            for kind in {name if name in fired else "dynamics" for name, _ in failing}:
                fired[kind] += 1
            if failing:
                assert not report.ok, (trial, failing)
        assert fired["dynamics"] >= trials // 4, fired
        assert fired["total identity"] >= 50 and fired["FIFO split"] >= 50, fired
        assert fired["negative queue"] >= 30, fired
        assert fired["decreasing exit times"] >= 10, fired


class TestLastIdentityImplied:
    """(h) of ``check_feasibility``: on an arc that keeps the inflow rule and
    the outflow law and has no early outflow, the last commodity's
    cumulative identity follows from the others', and it is composed only
    when another one fails.  So on corrupted flows the report names, per
    arc, exactly the commodities whose identity the reference that composes
    every one finds broken (``commodity_identity_failures``), read through
    the exit times the report derives."""

    @staticmethod
    def transfer(rng, instance, flow):
        """A copy of ``flow`` in which, on one arc, one piece of one
        commodity's outflow leaves as another's: the totals, and with them
        the outflow law, stay as they were."""
        bad = FlowOverTime(dict(flow.inflow), dict(flow.outflow))
        arc = rng.choice(instance.arcs)
        i, j = (c.id for c in rng.sample(instance.commodities, 2))
        f = bad.outflow[(i, arc.id)]
        pieces = [(lo, hi, v) for lo, hi, v in f.pieces() if v and hi is not None]
        if pieces:
            lo, hi, v = rng.choice(pieces)
            moved = StepFunction([lo, hi], [v, 0], 0)
            bad.outflow[(i, arc.id)] = f - moved
            bad.outflow[(j, arc.id)] = bad.outflow[(j, arc.id)] + moved
        return bad.fill_totals(instance), None

    def test_named_commodities_match_the_reference(self):
        rng = random.Random(20261019)
        fired = {"kept, last skipped": 0, "kept, identity broken": 0, "last broken": 0}
        premises = {"NegativeInflow", "OutflowLawViolated", "EarlyOutflow"}
        for trial in range(300):
            instance = random_instance(rng)
            flow, _ = load_network(instance, random_inflows(rng, instance))
            several = len(instance.commodities) > 1 and rng.random() < 0.5
            bad, profile = (self.transfer if several else corrupt)(rng, instance, flow)
            report = check_feasibility(instance, bad, profile)
            last = instance.commodities[-1].id
            for a in instance.arcs:
                named = [v.subject.split(",")[0] for v in report.violations
                         if v.code == "CommodityCumulativeViolated"
                         and v.subject.split(",")[1] == a.id]
                expected = ref.commodity_identity_failures(
                    instance, bad, report.profile.exit_time[a.id], a.id)
                assert named == expected, (trial, a.id, named, expected)
                kept = not any(v.code in premises and v.subject.endswith(a.id)
                               for v in report.violations)
                fired["kept, last skipped"] += kept and not expected
                fired["kept, identity broken"] += kept and bool(expected)
                fired["last broken"] += last in expected
        assert fired["kept, last skipped"] >= 200, fired
        assert fired["kept, identity broken"] >= 20 and fired["last broken"] >= 20, fired


class TestExitTimeThatStopsRising:
    def test_outflow_that_never_stops_is_reported(self):
        # inflow 1 on [0, 1) through transit 1, capacity 1, with an outflow
        # of 1 from time 1 on: the queue drains without end, so the exit time
        # stops rising and the late outflow has no FIFO entry time
        instance = single_arc(rate=1)
        flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [1, 0], 0)})
        flow.outflow[("1", "e")] = StepFunction([1], [1], 0)
        flow.fill_totals(instance)
        assert derive_profile(instance, flow).exit_time["e"].final_slope == 0
        report = check_feasibility(instance, flow)
        assert [str(v) for v in report.violations] == ["OutflowLawViolated(e) at [2, inf)"]


class TestLoaderTotals:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_totals_equal_the_commodity_sums(self, seed):
        # load_network sets both totals itself; callers need no fill_totals
        rng = random.Random(seed)
        instance = random_instance(rng)
        flow, _ = load_network(instance, random_inflows(rng, instance))
        summed = FlowOverTime(dict(flow.inflow), dict(flow.outflow)).fill_totals(instance)
        assert flow.total_inflow == summed.total_inflow
        assert flow.total_outflow == summed.total_outflow


def _breakpoints_inflows(monkeypatch):
    """(instance, arc inflows) of the ``breakpoints`` benchmark's items."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").Breakpoints()
    program = SimpleNamespace(netmodel=netmodel, timefn=timefn, loading=loading)
    return [(item.instance, workload.solve(program, item)[0].inflow)
            for seed in (1, 2) for item in workload.generate(program, seed)]


def _corpus_inflows():
    """(instance, arc inflows) of the corpus equilibria."""
    constructors = {"general": construct_nash_single, "commonOrigin": construct_common_origin,
                    "commonDestination": construct_common_destination}
    results = [constructors[instance.mode](instance, horizon)
               for _, instance, horizon in corpus()]
    return [(result.instance, result.flow.inflow) for result in results]


class TestLoadQueues:
    def test_complete_profile_of_load_network(self, monkeypatch):
        """``load_queues`` gives ``load_network``'s queue profile, exit times
        included."""
        cases = _breakpoints_inflows(monkeypatch) + _corpus_inflows()
        assert len(cases) == 16
        for instance, inflows in cases:
            queues = load_queues(instance, inflows)
            loaded = load_network(instance, inflows)[1]
            assert queues.volume == loaded.volume
            assert queues.waiting == loaded.waiting
            assert queues.exit_time == loaded.exit_time


class TestCertificateWork:
    """The work of the ``breakpoints`` benchmark's certificate at seed 1,
    ``check_feasibility`` and ``earliest_arrival`` of both items: each arc's
    queue volume is one integral of its net arrival rate, and its waits and
    exit times one construction each."""

    def test_integrals_and_constructions(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workload = importlib.import_module("workloads").Breakpoints()
        program = SimpleNamespace(netmodel=netmodel, timefn=timefn, loading=loading,
                                  labels=labels)
        items = workload.generate(program, 1)
        outputs = [workload.solve(program, item) for item in items]
        counts = {"integrate": 0, "_carried": 0}
        integrate, carried = timefn.integrate, PwlFunction._carried.__func__

        def counted_integrate(*args):
            counts["integrate"] += 1
            return integrate(*args)

        def counted_carried(cls, *args):
            counts["_carried"] += 1
            return carried(cls, *args)

        for module in (timefn, loading):
            monkeypatch.setattr(module, "integrate", counted_integrate)
        monkeypatch.setattr(PwlFunction, "_carried", classmethod(counted_carried))
        for item, output in zip(items, outputs):
            report, _ = workload.certify(program, item, output)
            assert report.ok
        assert counts["integrate"] <= 24 and counts["_carried"] <= 72, counts


class TestFlowJson:
    def test_round_trip(self):
        instance = single_arc()
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, _ = load_network(instance, inflows)
        doc = flow_to_json(instance, flow)
        back = flow_from_json(instance, doc)
        assert back.inflow[("1", "e")] == flow.inflow[("1", "e")]
        assert back.outflow[("1", "e")] == flow.outflow[("1", "e")]
