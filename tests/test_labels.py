import random
from fractions import Fraction

import pytest

from nashflow import labels as labels_mod
from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import FlowOverTime, UnknownEntry, derive_profile, load_network
from nashflow.labels import (CyclicZeroTransit, LabelSet, ThetaOutsideRange,
                             ZeroTransitArc, arc_status, earliest_arrival,
                             extend_labels, foreign_rate_at, rate_over_time,
                             waiting_from_labels)
from nashflow.timefn import PwlFunction, StepFunction

import reference_kernels as ref
from corpus import corpus
from test_loading import random_inflows, random_instance
from test_nash import _construct_by_mode

F = Fraction


def single_arc(rate=2, interval=(0, 1)):
    return validate_instance(Instance(
        nodes=("s", "t"),
        arcs=(Arc("e", "s", "t", F(1), F(1)),),
        commodities=(Commodity("1", "s", "t", F(rate), F(interval[0]),
                               F(interval[1])),),
    ))


def loaded_single_arc():
    instance = single_arc()
    inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
    flow, profile = load_network(instance, inflows)
    return instance, flow, profile


def parallel_arcs():
    return validate_instance(Instance(
        nodes=("s", "t"),
        arcs=(Arc("fast", "s", "t", F(1), F(1)), Arc("slow", "s", "t", F(2), F(5))),
        commodities=(Commodity("1", "s", "t", F(2), F(0), F(2)),),
    ))


class TestEarliestArrival:
    def test_empty_network_is_shifted_distance(self):
        instance = validate_instance(Instance(
            nodes=("s", "v", "t"),
            arcs=(Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(2), F(1)),
                  Arc("c", "s", "t", F(4), F(1))),
            commodities=(Commodity("1", "s", "t", F(2), F(3), F(4)),),
        ))
        flow, profile = load_network(instance, {})
        ls = earliest_arrival(instance, profile, "1")
        for phi in (F(0), F(1), F(7, 2)):
            assert ls.labels["s"](phi) == phi / 2 + 3
            assert ls.labels["v"](phi) == phi / 2 + 3 + 1
            assert ls.labels["t"](phi) == phi / 2 + 3 + 3

    def test_single_arc_label(self):
        instance, flow, profile = loaded_single_arc()
        ls = earliest_arrival(instance, profile, "1")
        for phi in (F(0), F(1, 2), F(1), F(2)):
            assert ls.labels["t"](phi) == phi + 1
        # queue drains: the label is flat at 3 until phi = 4, then phi/2 + 1
        assert ls.labels["t"](3) == 3
        assert ls.labels["t"](4) == 3
        assert ls.labels["t"](6) == 4

    def test_slower_parallel_arc_never_attains(self):
        instance = parallel_arcs()
        inflows = {("1", "fast"): StepFunction([0, 2], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        ls = earliest_arrival(instance, profile, "1")
        # the slow arc candidate phi/2 + 2 exceeds phi + 1 until phi = 2
        assert ls.labels["t"](1) == 2
        active, _ = arc_status(instance, ls, profile, F(1))
        assert active == {"fast"}

    def test_unreachable_node_has_no_label(self):
        instance = validate_instance(Instance(
            nodes=("s", "t", "w"),
            arcs=(Arc("e", "s", "t", F(1), F(1)), Arc("f", "w", "t", F(1), F(1))),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        ))
        flow, profile = load_network(instance, {})
        ls = earliest_arrival(instance, profile, "1")
        assert "w" not in ls.labels


def _same_labels(instance, profile):
    """The sweep and the round-based reference give equal labels, node by
    node, for every commodity; returns how many labels were compared."""
    compared = 0
    for c in instance.commodities:
        got = earliest_arrival(instance, profile, c.id).labels
        want = ref.earliest_arrival(instance, profile, c.id).labels
        assert sorted(got) == sorted(want), c.id
        for v in want:
            assert got[v] == want[v], (c.id, v)
        compared += len(want)
    return compared


class TestSweepMatchesRounds:
    """The ordered sweep against the round-based reference iteration."""

    def test_corpus_profiles(self):
        for name, instance, horizon in corpus():
            result = _construct_by_mode(instance, horizon)
            assert _same_labels(result.instance,
                                derive_profile(result.instance, result.flow)), name

    def test_random_loaded_flows(self):
        rng = random.Random(20261019)
        compared = 0
        for _ in range(40):
            instance = random_instance(rng)
            _, profile = load_network(instance, random_inflows(rng, instance))
            compared += _same_labels(instance, profile)
        assert compared >= 100

    def test_sink_listed_first(self):
        # the nodes tuple is not a topological order: t before v before s
        instance = validate_instance(Instance(
            nodes=("t", "v", "s"),
            arcs=(Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(1), F(1)),
                  Arc("c", "s", "t", F(3), F(2))),
            commodities=(Commodity("1", "s", "t", F(3), F(0), F(2)),),
        ))
        inflows = {("1", "a"): StepFunction([0, 2], [2, 0], 0),
                   ("1", "c"): StepFunction([0, 2], [1, 0], 0)}
        _, profile = load_network(instance, inflows)
        assert _same_labels(instance, profile) == 3

    def test_cyclic_instance_with_positive_transit(self):
        instance = validate_instance(Instance(
            nodes=("s", "a", "b", "t"),
            arcs=(Arc("sa", "s", "a", F(1), F(1)), Arc("ab", "a", "b", F(1), F(1)),
                  Arc("ba", "b", "a", F(1, 2), F(1)), Arc("sb", "s", "b", F(3), F(1)),
                  Arc("bt", "b", "t", F(1), F(1))),
            commodities=(Commodity("1", "s", "t", F(3), F(0), F(2)),),
        ))
        inflows = {("1", "sa"): StepFunction([0, 2], [2, 0], 0),
                   ("1", "sb"): StepFunction([0, 2], [1, 0], 0),
                   ("1", "ab"): StepFunction([1, 3], [2, 0], 0),
                   ("1", "ba"): StepFunction([4, 5], [3, 0], 0)}
        _, profile = load_network(instance, inflows)
        assert _same_labels(instance, profile) == 4

    def test_acyclic_nodes_are_computed_once(self, monkeypatch):
        calls = {"compose": 0, "min_compose": 0}

        def counted(name):
            original = getattr(labels_mod, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        instance = validate_instance(Instance(
            nodes=("t", "v", "s"),
            arcs=(Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(1), F(1)),
                  Arc("c", "s", "t", F(3), F(2))),
            commodities=(Commodity("1", "s", "t", F(3), F(0), F(2)),),
        ))
        _, profile = load_network(instance, {("1", "a"): StepFunction([0, 2], [3, 0], 0)})
        for name in calls:
            monkeypatch.setattr(labels_mod, name, counted(name))
        earliest_arrival(instance, profile, "1")
        # one composition per arc, one minimum at t, none at v
        assert calls == {"compose": 3, "min_compose": 1}


class TestCyclicZeroTransit:
    def test_cycle_whose_exit_times_undercut_entry(self):
        """An infeasible flow that drains the cycle a -> b -> a without
        filling it: its derived waits go negative, T_e(theta) < theta on
        both cycle arcs for late theta, and the labels never settle."""
        instance = validate_instance(Instance(
            nodes=("s", "a", "b"),
            arcs=(Arc("sa", "s", "a", F(1), F(1)), Arc("ab", "a", "b", F(1), F(1)),
                  Arc("ba", "b", "a", F(1), F(1))),
            commodities=(Commodity("1", "s", "b", F(1), F(0), F(1)),),
        ))
        drain = StepFunction([0, 10], [F(1, 2), 0], 0)
        flow = FlowOverTime(
            inflow={("1", "sa"): StepFunction([0, 1], [1, 0], 0)},
            outflow={("1", "sa"): StepFunction([1, 2], [1, 0], 0),
                     ("1", "ab"): drain, ("1", "ba"): drain}).fill_totals(instance)
        profile = derive_profile(instance, flow)
        for e in ("ab", "ba"):
            assert profile.exit_time[e](F(20)) < 20
        with pytest.raises(CyclicZeroTransit):
            earliest_arrival(instance, profile, "1")
        with pytest.raises(CyclicZeroTransit):
            ref.earliest_arrival(instance, profile, "1")


class TestArcStatus:
    def test_empty_network_shortest_paths_active(self):
        instance = validate_instance(Instance(
            nodes=("s", "v", "t"),
            arcs=(Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(2), F(1)),
                  Arc("c", "s", "t", F(4), F(1))),
            commodities=(Commodity("1", "s", "t", F(2), F(0), F(1)),),
        ))
        flow, profile = load_network(instance, {})
        ls = earliest_arrival(instance, profile, "1")
        active, resetting = arc_status(instance, ls, profile, F(0))
        assert active == {"a", "b"} and resetting == set()

    def test_single_arc_active_and_resetting(self):
        instance, flow, profile = loaded_single_arc()
        ls = earliest_arrival(instance, profile, "1")
        active, resetting = arc_status(instance, ls, profile, F(1, 2))
        # the particle enters at 1/4 where the queue already stands
        assert profile.waiting["e"](F(1, 4)) == F(1, 4)
        assert active == {"e"} and resetting == {"e"}

    def test_resetting_but_not_active(self):
        instance = parallel_arcs()
        inflows = {("1", "fast"): StepFunction([0, 2], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        ls = earliest_arrival(instance, profile, "1")
        active, resetting = arc_status(instance, ls, profile, F(3))
        assert "fast" in resetting and "fast" not in active
        assert active == {"slow"}


class TestWaitingFromLabels:
    def test_empty_network_zero(self):
        instance = single_arc()
        flow, profile = load_network(instance, {})
        ls = earliest_arrival(instance, profile, "1")
        for theta in (F(0), F(1), F(5)):
            assert waiting_from_labels(instance, {"1": ls}, "e", theta) == 0

    def test_matches_loader_on_equilibrium(self):
        instance, flow, profile = loaded_single_arc()
        ls = earliest_arrival(instance, profile, "1")
        q = profile.waiting["e"]
        for theta in list(q.breakpoints) + [F(1, 3), F(1, 2), F(3, 2)]:
            assert waiting_from_labels(instance, {"1": ls}, "e", theta) == q(theta)

    def test_time_beyond_a_flat_right_ray(self):
        # the tail label stops at time 1, so no particle reaches s at time 2
        tail = PwlFunction([0, 1], [0, 1], 1, 0)
        labels = {"1": LabelSet("1", {"s": tail, "t": tail.add_constant(1)})}
        assert waiting_from_labels(single_arc(), labels, "e", 1) == 0
        with pytest.raises(ThetaOutsideRange, match="commodity 1 never reach 2") as info:
            waiting_from_labels(single_arc(), labels, "e", 2)
        assert info.value.commodity == "1"


class TestRateOverTime:
    def test_rate_divides_by_the_label_slope(self):
        # particles [0, 2) at rate 1 pass at slope 2, then [2, 3) at slope 1/2
        label = PwlFunction([0, 2, 3], [1, 5, F(11, 2)], 2, 1)
        x = StepFunction([0, 2, 3], [1, 3, 0], 0)
        assert rate_over_time(x, label) == StepFunction(
            [1, 5, F(11, 2)], [F(1, 2), 6, 0], 0)

    def test_flat_stretch_passes_no_time(self):
        # particles on [1, 2) wait at time 1; the rate resumes there
        label = PwlFunction([0, 1, 2], [0, 1, 1], 1, 1)
        x = StepFunction([0, 1, 2, 3], [1, 0, 2, 0], 0)
        assert rate_over_time(x, label) == StepFunction([0, 1, 2], [1, 2, 0], 0)

    def test_flat_right_ray_ends_the_rate(self):
        label = PwlFunction([0, 1], [0, 1], 1, 0)
        assert rate_over_time(StepFunction([0, 1], [1, 0], 0), label) == \
            StepFunction([0, 1], [1, 0], 0)

    def test_rate_on_a_flat_stretch_raises(self):
        label = PwlFunction([0, 1, 2], [0, 1, 1], 1, 1)
        with pytest.raises(ValueError, match="flat"):
            rate_over_time(StepFunction([0, 2], [1, 0], 0), label)

    def test_label_falling_on_its_right_ray_raises(self):
        with pytest.raises(ValueError, match="the label decreases"):
            rate_over_time(StepFunction([0], [1]), PwlFunction([0], [0], 1, -1))

    def test_label_up_then_down_raises(self):
        # times 0, 1, 0 at particles 0, 1, 2: a dict keyed by time would
        # merge the two visits of time 0
        label = PwlFunction([0, 1, 2], [0, 1, 0], 1, 1)
        with pytest.raises(ValueError, match="the label decreases"):
            rate_over_time(StepFunction([0], [1]), label)


def shared_arc_instance():
    return validate_instance(Instance(
        nodes=("s", "t"),
        arcs=(Arc("e", "s", "t", F(1), F(1)),),
        commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),
                     Commodity("2", "s", "t", F(1), F(0), F(1))),
    ))


def shared_arc_strategies():
    one = StepFunction([0, 1], [1, 0], 0)
    return {("1", "e"): one, ("2", "e"): one}


class TestExtendLabels:
    def test_positive_transit_required(self):
        inst = validate_instance(Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(0), F(1)),),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        ))
        with pytest.raises(ZeroTransitArc):
            extend_labels(inst, {}, 1)

    @pytest.mark.parametrize("key", [("9", "e"), ("1", "zz")])
    def test_unknown_strategy_entry_is_rejected(self, key):
        # an entry the instance lacks cannot be honoured, so it is an error
        # rather than a strategy that changes nothing
        strategies = {key: StepFunction([0, 1], [1, 0], 0)}
        with pytest.raises(UnknownEntry, match=rf"\({key[0]}, {key[1]}\)"):
            extend_labels(single_arc(), strategies, 1)

    def test_rate_on_an_arc_the_labels_never_reach_is_rejected(self):
        # u is unreachable from s, so commodity 1 cannot send flow into f
        instance = validate_instance(Instance(
            ("s", "u", "t"), (Arc("e", "s", "t", F(1), F(1)), Arc("f", "u", "t", F(1), F(1))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        send = StepFunction([0, 1], [1, 0], 0)
        with pytest.raises(ValueError, match="commodity 1 sends flow into arc f, whose "
                                             "tail its labels never reach"):
            extend_labels(instance, {("1", "e"): send, ("1", "f"): send}, 1)
        # a zero rate there asks for nothing
        labels = extend_labels(instance, {("1", "e"): send, ("1", "f"): StepFunction.zero()}, 1)
        assert labels["1"].labels["t"] == PwlFunction.line(1, 0, 1)

    def test_single_commodity_single_arc(self):
        instance = single_arc()
        strategies = {("1", "e"): StepFunction([0, 2], [1, 0], 0)}
        out = extend_labels(instance, strategies, 2)
        lt = out["1"].labels["t"]
        for phi in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
            assert lt(phi) == phi + 1
        # cross-check against the loaded-flow labels on the whole range
        inflows = {("1", "e"): StepFunction([0, 1], [2, 0], 0)}
        flow, profile = load_network(instance, inflows)
        ref = earliest_arrival(instance, profile, "1").labels["t"]
        for phi in (F(0), F(1), F(2)):
            assert lt(phi) == ref(phi)

    def test_zero_strategies_give_transit_labels(self):
        instance = single_arc()
        out = extend_labels(instance, {}, 3)
        for phi in (F(0), F(1), F(3)):
            assert out["1"].labels["s"](phi) == phi / 2
            assert out["1"].labels["t"](phi) == phi / 2 + 1

    def test_two_commodities_sharing_one_arc(self):
        instance = shared_arc_instance()
        out = extend_labels(instance, shared_arc_strategies(), 1)
        for j in ("1", "2"):
            lt = out[j].labels["t"]
            for phi in (F(0), F(1, 4), F(1, 2), F(1)):
                assert lt(phi) == 2 * phi + 1, (j, phi)

    def test_shared_arc_against_loader(self):
        # reconstruct rates from the extension and reload: labels must agree
        instance = shared_arc_instance()
        out = extend_labels(instance, shared_arc_strategies(), 1)
        inflows = {("1", "e"): StepFunction([0, 1], [1, 0], 0),
                   ("2", "e"): StepFunction([0, 1], [1, 0], 0)}
        flow, profile = load_network(instance, inflows)
        for j in ("1", "2"):
            ref = earliest_arrival(instance, profile, j).labels["t"]
            got = out[j].labels["t"]
            for phi in (F(0), F(1, 3), F(1, 2), F(1)):
                assert got(phi) == ref(phi)


class TestForeignFlow:
    def test_identical_commodities_rate_one(self):
        instance = shared_arc_instance()
        labels = extend_labels(instance, shared_arc_strategies(), 1)
        for j in ("1", "2"):
            for phi in (F(0), F(1, 3), F(2, 3)):
                assert foreign_rate_at(instance, labels, shared_arc_strategies(),
                                       j, "e", phi) == 1

    def test_zero_slope_segment_gives_zero(self):
        # when the sampling commodity's own tail label is flat, its foreign
        # rate vanishes regardless of the other commodities' strategies
        from nashflow.labels import LabelSet
        instance = shared_arc_instance()
        flat = PwlFunction([0, 1, 2], [0, 1, 1], 1, 1)  # flat on [1, 2]
        line = PwlFunction.line(1)
        labels = {"1": LabelSet("1", {"s": flat, "t": flat.add_constant(2)}),
                  "2": LabelSet("2", {"s": line, "t": line.add_constant(2)})}
        strategies = {("2", "e"): StepFunction([0, 5], [1, 0], 0)}
        assert foreign_rate_at(instance, labels, strategies, "1", "e",
                               F(3, 2)) == 0
        # on a rising stretch the same strategies do contribute
        assert foreign_rate_at(instance, labels, strategies, "1", "e",
                               F(1, 2)) == 1
