import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import (BeyondHorizon, FlowOverTime, NegativeInflow,
                              check_feasibility, exit_time, flow_from_json,
                              flow_to_json, load_network, queue_size,
                              waiting_time)
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
        assert any(v.code in ("OutflowLawViolated", "QueueMismatch",
                              "CumulativeIdentityViolated", "QueueNegative")
                   for v in report.violations)

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
        assert any(v.code in ("FifoViolated", "CommodityCumulativeViolated")
                   for v in report.violations)


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


class TestFlowJson:
    def test_round_trip(self):
        instance = single_arc()
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, _ = load_network(instance, inflows)
        doc = flow_to_json(instance, flow)
        back = flow_from_json(instance, doc)
        assert back.inflow[("1", "e")] == flow.inflow[("1", "e")]
        assert back.outflow[("1", "e")] == flow.outflow[("1", "e")]
