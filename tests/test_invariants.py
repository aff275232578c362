"""Cross-module property tests for the documented invariants."""

import random
from fractions import Fraction

import pytest

from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import UnboundedBreakpoints, derive_profile, load_network
from nashflow.labels import (BreakpointBudgetExceeded, SweepInvariantBroken,
                             earliest_arrival, extend_labels)
from nashflow.nash import FlowReconstructionError, Phase, _reconstruct_flow
from nashflow.thinflow import verify_multicommodity_thinflow
from nashflow.timefn import (Cursor, GrowingPwl, PwlFunction, StepFunction,
                             compose, differentiate)

from corpus import corpus
from test_loading import random_inflows, random_instance

F = Fraction


class TestBellmanConsistency:
    """Labels never exceed any exit-time candidate; equality defines activity,
    and the label slope is the smallest composed slope over the active arcs."""

    def _check(self, instance, flow, profile):
        for c in instance.commodities:
            ls = earliest_arrival(instance, profile, c.id)
            for v, lv in ls.labels.items():
                if v == c.origin:
                    continue
                cands = {}
                for a in instance.in_arcs(v):
                    lu = ls.labels.get(a.tail)
                    if lu is not None:
                        cands[a.id] = compose(profile.exit_time[a.id], lu)
                assert cands, (c.id, v)
                mesh = sorted(set(lv.breakpoints)
                              | {b for f in cands.values() for b in f.breakpoints})
                probes = mesh + [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]
                slopes = {e: differentiate(f) for e, f in cands.items()}
                dl = differentiate(lv)
                for phi in probes:
                    values = {e: f(phi) for e, f in cands.items()}
                    assert lv(phi) == min(values.values()), (c.id, v, phi)
                for x, y in zip(mesh, mesh[1:]):
                    m = (x + y) / 2
                    active = [e for e, f in cands.items() if f(m) == lv(m)]
                    assert dl(m) == min(slopes[e](m) for e in active), (c.id, v, m)
                    # symmetric difference quotient agrees exactly
                    h = (y - x) / 8
                    assert (lv(m + h) - lv(m - h)) / (2 * h) == dl(m)

    def test_on_corpus_flows(self):
        for name, instance, horizon in corpus():
            from test_nash import _construct_by_mode
            result = _construct_by_mode(instance, horizon)
            profile = derive_profile(result.instance, result.flow)
            self._check(result.instance, result.flow, profile)

    def test_on_random_loaded_flows(self):
        rng = random.Random(7)
        for _ in range(25):
            instance = random_instance(rng)
            flow, profile = load_network(instance, random_inflows(rng, instance))
            self._check(instance, flow, profile)


class TestExtendedLabelsWithoutTightness:
    def test_arbitrary_strategies_satisfy_source_and_min_conditions(self):
        # all flow on the longer arc: not an equilibrium strategy, but the
        # extension still satisfies the source-slope and minimum conditions
        instance = validate_instance(Instance(
            ("s", "t"),
            (Arc("e", "s", "t", F(1), F(1)), Arc("f", "s", "t", F(3), F(1))),
            (Commodity("1", "s", "t", F(2), F(0), F(1)),),
        ))
        strategies = {("1", "f"): StepFunction([0, 2], [1, 0], 0)}
        labels = extend_labels(instance, strategies, 2)
        full = verify_multicommodity_thinflow(instance, strategies, labels, 2)
        assert not full.ok  # flow runs on an inactive arc
        relaxed = verify_multicommodity_thinflow(instance, strategies, labels, 2,
                                                 require_tightness=False)
        assert relaxed.ok, [str(v) for v in relaxed.violations]

    def test_two_commodity_asymmetric_strategies(self):
        instance = validate_instance(Instance(
            ("s", "v", "t"),
            (Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(1), F(2)),
             Arc("c", "s", "t", F(2), F(1))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),
             Commodity("2", "s", "t", F(2), F(0), F(1))),
        ))
        strategies = {
            ("1", "a"): StepFunction([0, 1], [1, 0], 0),
            ("1", "b"): StepFunction([0, 1], [1, 0], 0),
            ("2", "c"): StepFunction([0, 2], [1, 0], 0),
        }
        labels = extend_labels(instance, strategies, 2)
        relaxed = verify_multicommodity_thinflow(instance, strategies, labels, 2,
                                                 require_tightness=False)
        assert relaxed.ok, [str(v) for v in relaxed.violations]


class TestBreakpointBudget:
    def test_load_network_budget(self, monkeypatch):
        monkeypatch.setenv("NASHFLOW_MAX_BREAKPOINTS", "3")
        instance = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1), F(0), F(4)),)))
        rates = StepFunction([0, 1, 2, 3, 4], [1, F(1, 2), 1, F(1, 2), 0], 0)
        with pytest.raises(UnboundedBreakpoints):
            load_network(instance, {("1", "e"): rates})

    def test_extend_labels_budget(self, monkeypatch):
        monkeypatch.setenv("NASHFLOW_MAX_BREAKPOINTS", "4")
        instance = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(2), F(0), F(1)),)))
        strategies = {("1", "e"): StepFunction([0, 2], [1, 0], 0)}
        with pytest.raises(BreakpointBudgetExceeded):
            extend_labels(instance, strategies, 6)


class TestImpulseRejection:
    def test_mass_through_label_flat_is_rejected(self):
        # conservation-violating strategies keep sending flow out of v while
        # v's label is frozen (the upstream queue drains with no new inflow);
        # that mass has an empty time image and must be rejected
        instance = validate_instance(Instance(
            ("s", "v", "t"),
            (Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(1), F(1))),
            (Commodity("1", "s", "t", F(2), F(0), F(1)),),
        ))
        strategies = {
            ("1", "a"): StepFunction([0, 1], [1, 0], 0),
            ("1", "b"): StepFunction([0, 2], [1, 0], 0),
        }
        with pytest.raises(ValueError, match="flat"):
            extend_labels(instance, strategies, 2)

    @pytest.mark.parametrize("inside,rejected", [(1, True), (0, False)])
    def test_mass_inside_a_label_flat(self, inside, rejected):
        # v's label is flat on particles [1, 2]; the strategy out of v is
        # zero where the flat starts and sends ``inside`` on [3/2, 2)
        instance = validate_instance(Instance(
            ("s", "v", "t"),
            (Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(1), F(1))),
            (Commodity("1", "s", "t", F(2), F(0), F(1)),),
        ))
        strategies = {
            ("1", "a"): StepFunction([0, 1], [1, 0], 0),
            ("1", "b"): StepFunction([0, 1, F(3, 2), 2], [1, 0, inside, 0], 0),
        }
        if rejected:
            with pytest.raises(ValueError, match="flat at node v"):
                extend_labels(instance, strategies, 2)
        else:
            labels = extend_labels(instance, strategies, 2)
            assert labels["1"].labels["v"] == PwlFunction([0, 1, 2], [1, 2, 2],
                                                          F(1, 2), F(1, 2))


def _corrupt_reads(monkeypatch, name, value=None, slope=None, anchor=None):
    """Make every ``Cursor`` on the curve ``name`` misread: ``value`` and
    ``slope`` map the value and slope that ``curve_at`` returns, and
    ``anchor`` the cursor's next anchor."""
    read, next_anchor = Cursor.curve_at, Cursor.next_anchor

    def curve_at(self, x):
        y, s = read(self, x)
        if self.name != name:
            return y, s
        return (value or (lambda y: y))(y), (slope or (lambda s: s))(s)

    def misplaced(self):
        nb = next_anchor(self)
        return anchor(self, nb) if anchor and self.name == name else nb

    monkeypatch.setattr(Cursor, "curve_at", curve_at)
    monkeypatch.setattr(Cursor, "next_anchor", misplaced)


class TestSweepInvariants:
    """Each check of the label extension's sweep fires when the reads of one
    curve are corrupted."""

    @staticmethod
    def _instance(arcs):
        return validate_instance(Instance(
            ("s", "t"), tuple(Arc(e, "s", "t", F(tau), F(1)) for e, tau in arcs),
            (Commodity("1", "s", "t", F(2), F(0), F(1)),)))

    def test_no_candidate_attains_the_frontier(self, monkeypatch):
        # the source label read one unit late puts every arrival behind
        _corrupt_reads(monkeypatch, "label of 1 at s", value=lambda y: y + 1)
        with pytest.raises(SweepInvariantBroken,
                           match=r"\(1, t\): no candidate attains the frontier time 0"):
            extend_labels(self._instance([("e", 1)]), {}, 1)

    def test_candidate_below_the_frontier(self, monkeypatch):
        # a wait of -2 on the longer arc makes it arrive before the frontier
        _corrupt_reads(monkeypatch, "waiting time on arc f", value=lambda y: y - 2)
        with pytest.raises(SweepInvariantBroken,
                           match=r"\(1, t\): arc f reaches -1 before the frontier time 0"):
            extend_labels(self._instance([("e", 1), ("f", 2)]), {}, 1)

    def test_flat_stretch_without_progress(self, monkeypatch):
        # a flat source label whose next anchor is the point already read
        _corrupt_reads(monkeypatch, "label of 1 at s", slope=lambda s: F(0),
                       anchor=lambda cursor, nb: cursor.x)
        with pytest.raises(SweepInvariantBroken,
                           match=r"flat stretch at \(1, t\) cannot advance"):
            extend_labels(self._instance([("e", 1)]), {}, 1)

    def test_kept_event_time_behind_the_frontier(self, monkeypatch):
        # a strategy cursor stuck on its first step keeps the time its next
        # breakpoint is reached; the sweep refuses it once that time is now
        seek = Cursor._seek

        def stuck(self, x):
            if self.name != "strategy of 1 on arc e" or self.i < 0:
                return seek(self, x)
            self.x = x
            return self.i

        monkeypatch.setattr(Cursor, "_seek", stuck)
        strategies = {("1", "e"): StepFunction([0, 2], [1, 0], 0)}
        with pytest.raises(SweepInvariantBroken,
                           match="event time kept at 1 is not after the frontier time 1"):
            extend_labels(self._instance([("e", 1)]), strategies, 3)


class TestTypedInvariantErrors:
    """Invariant checks raise typed errors that name what broke."""

    def test_track_sampled_beyond_its_frontier(self):
        track = GrowingPwl("label of 1 at t", F(0), F(0), F(1), F(1))
        track.advance(F(1))
        with pytest.raises(SweepInvariantBroken, match="label of 1 at t: 2 "):
            Cursor(track).curve_at(F(2))

    def test_queue_sampled_beyond_its_edge(self):
        queue = GrowingPwl("waiting time on arc e", F(0), F(0), F(0), F(0))
        with pytest.raises(SweepInvariantBroken, match="arc e:"):
            Cursor(queue).curve_at(F(1))

    def test_flow_on_an_arc_without_labels(self):
        instance = validate_instance(Instance(
            ("s", "t", "u"), (Arc("e", "s", "t", F(1), F(1)), Arc("f", "t", "u", F(1), F(1))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        node_labels = {"s": PwlFunction.line(1), "t": PwlFunction.line(1, 0, 1)}
        phase = Phase(F(0), F(1), None, {"1": {"e": F(1), "f": F(1)}})
        with pytest.raises(FlowReconstructionError, match="commodity 1 .* arc f"):
            _reconstruct_flow(instance, [phase], node_labels)
