"""General-mode multi-commodity equilibria built by hand.

Two commodities with different origin-destination pairs share a bottleneck.
Each commodity has a single path, so entering at the earliest-arrival times
is the unique equilibrium; all quantities below are integrated by hand.
"""

from fractions import Fraction

from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import check_feasibility, derive_profile, load_network
from nashflow.labels import earliest_arrival, extend_labels
from nashflow.nash import check_derivatives_thinflow, construct_nash_single, verify_nash
from nashflow.thinflow import verify_multicommodity_thinflow
from nashflow.timefn import StepFunction

F = Fraction


def crossing_instance():
    return validate_instance(Instance(
        ("u", "v", "w"),
        (Arc("a", "u", "v", F(1), F(2)), Arc("b", "v", "w", F(1), F(1, 2))),
        (Commodity("1", "u", "w", F(1), F(0), F(1)),
         Commodity("2", "v", "w", F(1), F(0), F(1))),
    ))


def crossing_flow(instance):
    # commodity 2 feeds the bottleneck during [0,1), commodity 1 during [1,2);
    # the queue grows at rate 1/2 throughout, so exits are time-separated
    inflows = {
        ("1", "a"): StepFunction([0, 1], [1, 0], 0),
        ("1", "b"): StepFunction([1, 2], [1, 0], 0),
        ("2", "b"): StepFunction([0, 1], [1, 0], 0),
    }
    return load_network(instance, inflows)


class TestCrossingCommodities:
    def setup_method(self):
        self.instance = crossing_instance()
        self.flow, self.profile = crossing_flow(self.instance)

    def test_hand_integrated_queue(self):
        q = self.profile.waiting["b"]
        for theta in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
            assert q(theta) == theta
        assert self.flow.outflow[("2", "b")] == StepFunction([1, 3], [F(1, 2), 0], 0)
        assert self.flow.outflow[("1", "b")] == StepFunction([3, 5], [F(1, 2), 0], 0)

    def test_labels(self):
        ls1 = earliest_arrival(self.instance, self.profile, "1")
        ls2 = earliest_arrival(self.instance, self.profile, "2")
        for phi in (F(0), F(1, 2), F(1)):
            assert ls1.labels["v"](phi) == phi + 1
            assert ls1.labels["w"](phi) == 2 * phi + 3
            assert ls2.labels["w"](phi) == 2 * phi + 1

    def test_equilibrium_certified(self):
        assert check_feasibility(self.instance, self.flow, self.profile).ok
        report = verify_nash(self.instance, self.flow, self.profile)
        assert report.ok, [str(v) for v in report.violations]
        thin = check_derivatives_thinflow(self.instance, self.flow, self.profile)
        assert thin.ok, [str(v) for v in thin.violations]

    def test_extension_reproduces_labels(self):
        strategies = {
            ("1", "a"): StepFunction([0, 1], [1, 0], 0),
            ("1", "b"): StepFunction([0, 1], [1, 0], 0),
            ("2", "b"): StepFunction([0, 1], [1, 0], 0),
        }
        labels = extend_labels(self.instance, strategies, 1)
        ls1 = earliest_arrival(self.instance, self.profile, "1")
        ls2 = earliest_arrival(self.instance, self.profile, "2")
        for phi in (F(0), F(1, 3), F(1, 2), F(1)):
            assert labels["1"].labels["w"](phi) == ls1.labels["w"](phi)
            assert labels["2"].labels["w"](phi) == ls2.labels["w"](phi)
        # the strategies' loaded queue agrees with the flow's on the shared range
        queues = verify_multicommodity_thinflow(self.instance, strategies, labels, 1).queues
        q = self.profile.waiting["b"]
        for theta in (F(0), F(1, 2), F(1)):
            assert queues.waiting["b"](theta) == q(theta)


class TestDelayedInflowStart:
    def test_single_commodity_with_offset_interval(self):
        inst = validate_instance(Instance(
            ("s", "t"),
            (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(2), F(3), F(4)),),
        ))
        result = construct_nash_single(inst, horizon=2)
        # same dynamics as the canonical instance, shifted by 3 time units
        lt = result.node_labels["t"]
        for phi in (F(0), F(1), F(2)):
            assert lt(phi) == phi + 4
        assert result.flow.inflow[("1", "e")] == StepFunction([3, 4], [2, 0], 0)
        report = verify_nash(result.instance, result.flow)
        assert report.ok, [str(v) for v in report.violations]
        assert check_derivatives_thinflow(result.instance, result.flow).ok
