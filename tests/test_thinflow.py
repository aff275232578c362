import importlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.labels import (LabelSet, arc_gaps, arc_status, extend_labels,
                             foreign_rate_at)
from nashflow.loading import QueueProfile, UnknownEntry
from nashflow import labels as labels_mod, nash, netmodel, thinflow, timefn
from nashflow.thinflow import (Cyclic, NewArcInactive, NoSinkPath,
                               SizeLimitExceeded, ThinFlow, _partition,
                               check_multisource_thinflow, check_thinflow,
                               decompose,
                               solve_thinflow_multisource,
                               solve_thinflow_single, stress,
                               verify_multicommodity_thinflow)
from nashflow.timefn import PwlFunction, StepFunction

import reference_kernels as reference
from oracle import oracle_multisource, oracle_single

F = Fraction


class TestStress:
    def test_non_resetting_takes_max(self):
        assert stress(1, F(1, 2), 1) == 1

    def test_resetting_drops_the_max(self):
        assert stress(3, F(1, 2), 1, resetting=True) == F(1, 3)

    def test_idle_arc_passes_label(self):
        assert stress(2, F(1, 2), 0) == F(1, 2)

    def test_integer_arguments_give_a_fraction(self):
        for resetting in (False, True):
            result = stress(1, 2, 3, resetting=resetting)
            assert result == 3 and isinstance(result, Fraction)


def make_instance(arcs, commodities=None, mode="general"):
    nodes = sorted({a[1] for a in arcs} | {a[2] for a in arcs})
    arc_objs = tuple(Arc(a[0], a[1], a[2], F(1), F(a[3])) for a in arcs)
    commodities = commodities or (Commodity("1", nodes[0], nodes[-1], F(1),
                                            F(0), F(1)),)
    result = validate_instance(Instance(tuple(nodes), arc_objs, commodities, mode))
    assert not isinstance(result, list), result
    return result


class TestSolveSingle:
    def test_single_arc_non_resetting(self):
        inst = make_instance([("e", "s", "t", 1)])
        thin = solve_thinflow_single(inst, {"e"}, set(), "s", "t", F(2))
        assert thin.flow["e"] == 1
        assert thin.label_slopes["s"] == F(1, 2)
        assert thin.label_slopes["t"] == 1

    def test_single_arc_resetting_label_can_shrink(self):
        inst = make_instance([("e", "s", "t", 3)])
        thin = solve_thinflow_single(inst, {"e"}, {"e"}, "s", "t", F(2))
        assert thin.label_slopes["t"] == F(1, 3)
        assert thin.label_slopes["t"] < thin.label_slopes["s"]

    def test_parallel_arcs_equalize(self):
        inst = make_instance([("a", "s", "t", 1), ("b", "s", "t", 2)])
        thin = solve_thinflow_single(inst, {"a", "b"}, set(), "s", "t", F(3))
        assert thin.flow == {"a": F(1, 3), "b": F(2, 3)}
        assert thin.label_slopes["t"] == F(1, 3)

    @pytest.mark.parametrize("rate", [0, -1])
    def test_non_positive_rate_rejected(self, rate):
        inst = make_instance([("e", "s", "t", 1)])
        with pytest.raises(ValueError, match="positive"):
            solve_thinflow_single(inst, {"e"}, set(), "s", "t", rate)
        with pytest.raises(ValueError, match="positive"):
            solve_thinflow_multisource(inst, {"e"}, set(), {"1": ("s", rate)}, "t")

    def test_zero_value_drain(self):
        inst = make_instance([("e", "s", "t", 1)])
        thin = solve_thinflow_single(inst, {"e"}, {"e"}, "s", "t", F(2), F(0))
        assert thin.flow["e"] == 0
        assert thin.label_slopes["t"] == 0  # the queue drains, label frozen

    def test_no_sink_path(self):
        inst = make_instance([("a", "s", "v", 1), ("b", "v", "t", 1)])
        with pytest.raises(NoSinkPath):
            solve_thinflow_single(inst, {"a"}, set(), "s", "t", F(1))

    def test_cyclic_rejected(self):
        inst = make_instance([("a", "s", "v", 1), ("b", "v", "w", 1),
                              ("c", "w", "v", 1), ("d", "v", "t", 1)])
        with pytest.raises(Cyclic):
            solve_thinflow_single(inst, {"a", "b", "c", "d"}, set(), "s", "t", F(1))

    def test_conditions_recheck(self):
        inst = make_instance([("a", "s", "t", 1), ("b", "s", "t", 2)])
        thin = solve_thinflow_single(inst, {"a", "b"}, set(), "s", "t", F(3))
        assert check_thinflow(inst, thin, "s", "t") == []
        # corrupt a label and watch the evaluator object
        bad = ThinFlow(dict(thin.flow), {**thin.label_slopes, "t": F(7)},
                       thin.active, thin.resetting, thin.rate, thin.value)
        assert check_thinflow(inst, bad, "s", "t") != []


class TestSizeLimit:
    def test_refused_before_any_search(self, monkeypatch):
        # 26 active parallel arcs, one more than the search takes on
        inst = make_instance([(f"e{k}", "s", "t", 1) for k in range(26)])

        def search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(thinflow, "_state_solutions", search)
        with pytest.raises(SizeLimitExceeded, match="26 active arcs exceed 25"):
            solve_thinflow_single(inst, {a.id for a in inst.arcs}, set(), "s", "t", F(1))


class TestSolveMultisource:
    def test_symmetric_two_sources(self):
        inst = make_instance(
            [("a", "s1", "t", 1), ("b", "s2", "t", 1)],
            (Commodity("1", "s1", "t", F(1), F(0), None),
             Commodity("2", "s2", "t", F(1), F(0), None)),
            mode="commonDestination")
        thin = solve_thinflow_multisource(
            inst, {"a", "b"}, set(),
            {"1": ("s1", F(1)), "2": ("s2", F(1))}, "t")
        assert thin.supplies == {"1": F(1, 2), "2": F(1, 2)}
        assert thin.label_slopes["s1"] == F(1, 2)
        assert thin.label_slopes["t"] == F(1, 2)

    def test_single_source_reduces_to_single(self):
        inst = make_instance([("e", "s", "t", 1)])
        multi = solve_thinflow_multisource(inst, {"e"}, set(),
                                           {"1": ("s", F(2))}, "t")
        single = solve_thinflow_single(inst, {"e"}, set(), "s", "t", F(2))
        assert multi.supplies["1"] == 1
        assert multi.label_slopes == single.label_slopes

    def test_slow_access_source_idles(self):
        # s2 has no active route to the sink: its supply and slope vanish
        inst = make_instance(
            [("a", "s1", "t", 1), ("b", "s1", "s2", 1), ("c", "s2", "t", 1)],
            (Commodity("1", "s1", "t", F(1), F(0), None),
             Commodity("2", "s2", "t", F(1), F(0), None)),
            mode="commonDestination")
        thin = solve_thinflow_multisource(
            inst, {"a", "b"}, set(),
            {"1": ("s1", F(1)), "2": ("s2", F(1))}, "t")
        assert thin.supplies["2"] == 0
        assert thin.label_slopes["s2"] == 0
        assert thin.label_slopes["t"] == 1


def diamond_arcs():
    # s -> a -> t, s -> b -> t, a -> b chord; capacities break symmetry
    return {
        "e1": ("s", "a", F(1)),
        "e2": ("s", "b", F(2)),
        "e3": ("a", "t", F(1, 2)),
        "e4": ("b", "t", F(3)),
        "e5": ("a", "b", F(1)),
    }


def parallel_arcs6():
    return {
        "p1": ("s", "a", F(1)),
        "p2": ("s", "a", F(2)),
        "p3": ("a", "t", F(1)),
        "p4": ("a", "t", F(1, 3)),
        "p5": ("s", "t", F(2)),
        "p6": ("a", "t", F(5)),
    }


def multisource_arcs():
    return {
        "a": ("s1", "t", F(1)),
        "b": ("s2", "t", F(2)),
        "c": ("s1", "s2", F(1)),
        "d": ("s2", "v", F(1)),
        "e": ("v", "t", F(1, 2)),
    }


def _multisource_instance(arcs):
    nodes = sorted({u for u, _, _ in arcs.values()} | {v for _, v, _ in arcs.values()})
    return validate_instance(Instance(
        tuple(nodes),
        tuple(Arc(e, u, v, F(1), cap) for e, (u, v, cap) in sorted(arcs.items())),
        (Commodity("1", "s1", "t", F(1), F(0), None),
         Commodity("2", "s2", "t", F(2), F(0), None)),
        "commonDestination"))


def _instance_from(arcs):
    nodes = sorted({u for u, _, _ in arcs.values()} | {v for _, v, _ in arcs.values()})
    return validate_instance(Instance(
        tuple(nodes),
        tuple(Arc(e, u, v, F(1), cap) for e, (u, v, cap) in sorted(arcs.items())),
        (Commodity("1", "s", "t", F(1), F(0), F(1)),)))


def _reaches_sink(arcs, active, source, sink):
    seen = {source}
    changed = True
    while changed:
        changed = False
        for e in active:
            u, v, _ = arcs[e]
            if u in seen and v not in seen:
                seen.add(v)
                changed = True
    return sink in seen


class TestOracleEquivalence:
    """Solver output matches the independent enumerator on every
    configuration, and all oracle solutions share one slope vector."""

    @pytest.mark.parametrize("arcs,rate", [(diamond_arcs(), F(2)),
                                           (parallel_arcs6(), F(3))])
    def test_all_configurations_single(self, arcs, rate):
        instance = _instance_from(arcs)
        ids = sorted(arcs)
        checked = 0
        for k in range(1, len(ids) + 1):
            for active in combinations(ids, k):
                if not _reaches_sink(arcs, active, "s", "t"):
                    continue
                for m in range(0, len(active) + 1):
                    for resetting in combinations(active, m):
                        solutions = oracle_single(arcs, set(active),
                                                  set(resetting), "s", "t", rate)
                        thin = None
                        try:
                            thin = solve_thinflow_single(
                                instance, set(active), set(resetting),
                                "s", "t", rate)
                        except RuntimeError:
                            pass
                        assert (thin is None) == (not solutions), \
                            (active, resetting)
                        if thin is None:
                            continue
                        checked += 1
                        slopes = solutions[0][1]
                        for _, other in solutions[1:]:
                            assert other == slopes, (active, resetting)
                        assert thin.label_slopes == slopes, (active, resetting)
                        # the first solution in enumeration order, exactly
                        assert dict(thin.flow) == dict(solutions[0][0]), \
                            (active, resetting)
        assert checked > 50

    def test_all_configurations_multisource(self):
        arcs = multisource_arcs()
        instance = _multisource_instance(arcs)
        sources = {"1": ("s1", F(1)), "2": ("s2", F(2))}
        ids = sorted(arcs)
        checked = 0
        for k in range(1, len(ids) + 1):
            for active in combinations(ids, k):
                reach_ok = any(_reaches_sink(arcs, active, s, "t")
                               for s, _ in sources.values())
                if not reach_ok:
                    continue
                usable_ok = all(
                    arcs[e][0] in _reach_all(arcs, active, ["s1", "s2"]) and
                    arcs[e][1] in _reach_all(arcs, active, ["s1", "s2"])
                    for e in active)
                if not usable_ok:
                    continue
                for m in range(0, len(active) + 1):
                    for resetting in combinations(active, m):
                        solutions = oracle_multisource(arcs, set(active),
                                                       set(resetting), sources, "t")
                        thin = None
                        try:
                            thin = solve_thinflow_multisource(
                                instance, set(active), set(resetting), sources, "t")
                        except RuntimeError:
                            pass
                        assert (thin is None) == (not solutions), \
                            (active, resetting)
                        if thin is None:
                            continue
                        checked += 1
                        slopes = solutions[0][2]
                        for _, _, other in solutions[1:]:
                            assert other == slopes, (active, resetting)
                        assert thin.label_slopes == slopes
                        assert (thin.supplies, dict(thin.flow)) == \
                            (solutions[0][0], dict(solutions[0][1])), \
                            (active, resetting)
        assert checked > 20


def _reach_all(arcs, active, roots):
    seen = set(roots)
    changed = True
    while changed:
        changed = False
        for e in active:
            u, v, _ = arcs[e]
            if u in seen and v not in seen:
                seen.add(v)
                changed = True
    return seen


def _configurations(arcs, roots):
    """Every (active, resetting) pair whose active arcs all leave nodes that
    ``roots`` reach through them."""
    ids = sorted(arcs)
    for k in range(1, len(ids) + 1):
        for active in combinations(ids, k):
            reached = _reach_all(arcs, active, roots)
            if any(arcs[e][0] not in reached for e in active):
                continue
            for m in range(0, len(active) + 1):
                yield from ((set(active), set(resetting))
                            for resetting in combinations(active, m))


def _hints(rng, ids, resetting):
    """Seeded hints that name arcs of the whole instance, active or not, with
    any state: one with ``L`` on every resetting arc, one with a state no arc
    takes, and one drawn freely."""
    drawn = [{e: rng.choice("ZLC") for e in ids if rng.random() < 0.8}
             for _ in range(3)]
    drawn[0].update({e: "L" for e in resetting})
    drawn[1][rng.choice(ids)] = "X"
    return drawn


def _outcome_of(solve):
    try:
        return solve()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


class TestHintIndependence:
    """The two-pass search returns exactly what the plain lexicographic
    search (``reference.lexicographic_*``) returns, or raises the same
    error, under any hint; without one, ``TestOracleEquivalence`` checks it
    against the oracle's first solution."""

    @pytest.mark.parametrize("arcs,rate", [(diamond_arcs(), F(2)),
                                           (parallel_arcs6(), F(3))])
    def test_single(self, arcs, rate):
        instance = _instance_from(arcs)
        rng = random.Random(16)
        compared = 0
        for active, resetting in _configurations(arcs, ["s"]):
            for value in (F(1), F(0)):
                expected = _outcome_of(lambda: reference.lexicographic_single(
                    instance, active, resetting, "s", "t", rate, value))
                for hint in _hints(rng, sorted(arcs), resetting):
                    got = _outcome_of(lambda: solve_thinflow_single(
                        instance, active, resetting, "s", "t", rate, value, hint))
                    if isinstance(got, ThinFlow):
                        got = (got.flow, got.label_slopes)
                    assert got == expected, (active, resetting, value, hint)
                compared += isinstance(expected, tuple)
        assert compared > 250

    def test_multisource(self):
        arcs = multisource_arcs()
        instance = _multisource_instance(arcs)
        sources = {"1": ("s1", F(1)), "2": ("s2", F(2))}
        rng = random.Random(16)
        compared = 0
        for active, resetting in _configurations(arcs, ["s1", "s2"]):
            expected = _outcome_of(lambda: reference.lexicographic_multisource(
                instance, active, resetting, sources, "t"))
            for hint in _hints(rng, sorted(arcs), resetting):
                got = _outcome_of(lambda: solve_thinflow_multisource(
                    instance, active, resetting, sources, "t", hint))
                if not isinstance(got, type):
                    got = (got.supplies, got.flow, got.label_slopes)
                assert got == expected, (active, resetting, hint)
            compared += isinstance(expected, tuple)
        assert compared > 100

    def test_states_describe_the_returned_leaf(self):
        """``states`` is the hint for the next phase: one state per usable
        arc, each row holding at the returned solution, and not part of the
        thin flow's value or document."""
        instance = _instance_from(diamond_arcs())
        thin = solve_thinflow_single(instance, set(diamond_arcs()), {"e5"},
                                     "s", "t", F(2))
        assert set(thin.states) == set(diamond_arcs())
        for e, state in thin.states.items():
            arc = instance.arc(e)
            x, head = thin.flow[e], thin.label_slopes[arc.head]
            assert {"Z": x == 0, "L": head == thin.label_slopes[arc.tail],
                    "C": x == arc.capacity * head}[state], (e, state)
        assert thin == replace(thin, states={})
        assert "states" not in thin.to_json()


class TestOneSourceIsSingle:
    """A single commodity is the one-source case of the multi-source thin
    flow: on every configuration whose active arcs the source reaches, both
    solvers return the same flow and slopes or raise the same error."""

    @pytest.mark.parametrize("arcs,rate", [(diamond_arcs(), F(2)),
                                           (parallel_arcs6(), F(3))])
    def test_all_configurations(self, arcs, rate):
        instance = _instance_from(arcs)
        compared = 0
        # the multi-source solver rejects stray arcs, which these lack
        for active, resetting in _configurations(arcs, ["s"]):
            outcomes = []
            for solve in (
                    lambda: solve_thinflow_single(
                        instance, active, resetting, "s", "t", rate),
                    lambda: solve_thinflow_multisource(
                        instance, active, resetting, {"1": ("s", rate)}, "t")):
                thin = _outcome_of(solve)
                outcomes.append(thin if isinstance(thin, type)
                                else (thin.flow, thin.label_slopes))
            assert outcomes[0] == outcomes[1], (active, resetting)
            compared += isinstance(outcomes[0], tuple)
        assert compared > 100


def _corrupt_flow(**changes):
    return lambda thin: replace(thin, flow={**thin.flow, **changes})


def _corrupt_slope(node, slope):
    return lambda thin: replace(thin, label_slopes={**thin.label_slopes, node: slope})


class TestConditionMutations:
    """Each corruption of a solved thin flow is reported by its checker."""

    SINGLE = {
        "source slope": (_corrupt_slope("s", F(1)), "SourceSlope"),
        "negative flow": (_corrupt_flow(a=F(-1, 3), b=F(4, 3)), "NegativeFlow"),
        "inactive arc": (_corrupt_flow(a=F(0), c=F(1, 3)), "SupportViolated"),
        "conservation": (_corrupt_flow(a=F(1)), "ConservationViolated"),
        "minimum": (_corrupt_slope("t", F(1)), "MinViolated"),
        "tightness": (_corrupt_flow(a=F(2, 3), b=F(1, 3)), "TightnessViolated"),
        "supply sum": (lambda thin: replace(thin, value=F(2)), "ConservationViolated"),
    }
    MULTI = {
        "source slope": (_corrupt_slope("s1", F(1)), "SourceSlope"),
        "negative flow": (_corrupt_flow(a=F(-1, 3), c=F(1)), "NegativeFlow"),
        "inactive arc": (_corrupt_flow(b=F(0), d=F(1, 3)), "SupportViolated"),
        "conservation": (_corrupt_flow(b=F(1)), "ConservationViolated"),
        "minimum": (_corrupt_slope("t", F(1)), "MinViolated"),
        "tightness": (_corrupt_flow(a=F(2, 3), c=F(0)), "TightnessViolated"),
        "supply sum": (lambda thin: replace(thin, supplies={"1": F(2, 3), "2": F(2, 3)}),
                       "SupplySum"),
        "negative supply": (lambda thin: replace(thin, supplies={"1": F(-1, 3), "2": F(4, 3)}),
                            "NegativeSupply"),
        "source minimum": (lambda thin: replace(
            thin, active=thin.active | {"e"},
            label_slopes={**thin.label_slopes, "s1": F(1)}), "SourceMinViolated"),
    }

    @pytest.mark.parametrize("name", sorted(SINGLE))
    def test_single(self, name):
        # a and b share the load at slope 1/3; c stays inactive
        inst = make_instance([("a", "s", "t", 1), ("b", "s", "t", 2), ("c", "s", "t", 1)])
        thin = solve_thinflow_single(inst, {"a", "b"}, set(), "s", "t", F(3))
        assert (thin.flow, thin.label_slopes["t"]) == ({"a": F(1, 3), "b": F(2, 3)}, F(1, 3))
        assert check_thinflow(inst, thin, "s", "t") == []
        corrupt, code = self.SINGLE[name]
        codes = [c for c, _ in check_thinflow(inst, corrupt(thin), "s", "t")]
        assert code in codes, codes

    @pytest.mark.parametrize("name", sorted(MULTI))
    def test_multisource(self, name):
        # s1 sends 2/3 over c, s2 sends 1/3 over b; a is tight but idle, and
        # d and e, from s2 into s1, inactive
        inst = make_instance(
            [("a", "s1", "t", 1), ("c", "s1", "t", 2), ("b", "s2", "t", 1),
             ("d", "s2", "t", 1), ("e", "s2", "s1", 1)],
            (Commodity("1", "s1", "t", F(2), F(0), None),
             Commodity("2", "s2", "t", F(1), F(0), None)),
            mode="commonDestination")
        sources = {"1": ("s1", F(2)), "2": ("s2", F(1))}
        thin = solve_thinflow_multisource(inst, {"a", "b", "c"}, set(), sources, "t")
        assert thin.flow == {"a": F(0), "b": F(1, 3), "c": F(2, 3)}
        assert thin.label_slopes == {"s1": F(1, 3), "s2": F(1, 3), "t": F(1, 3)}
        assert check_multisource_thinflow(inst, thin, sources, "t") == []
        corrupt, code = self.MULTI[name]
        codes = [c for c, _ in check_multisource_thinflow(inst, corrupt(thin),
                                                           sources, "t")]
        assert code in codes, codes


class TestDecompose:
    def test_groups_by_designated_arc(self):
        arcs = [("a", "s", "t1", 1), ("b", "s", "t2", 1),
                ("g1", "t1", "z", 1), ("g2", "t2", "z", 1)]
        inst = make_instance(arcs, (Commodity("1", "s", "z", F(1), F(0), F(1)),))
        thin = ThinFlow({"a": F(1, 2), "b": F(1, 2), "g1": F(1, 2), "g2": F(1, 2)},
                        {}, frozenset({"a", "b", "g1", "g2"}), frozenset(),
                        F(1), F(1))
        out = decompose(inst, thin, {"1": "g1", "2": "g2"},
                        {"1": F(1, 2), "2": F(1, 2)})
        assert out["1"] == {"a": F(1, 2)}
        assert out["2"] == {"b": F(1, 2)}

    def test_single_group_is_identity(self):
        arcs = [("a", "s", "v", 1), ("g", "v", "z", 1)]
        inst = make_instance(arcs, (Commodity("1", "s", "z", F(1), F(0), F(1)),))
        thin = ThinFlow({"a": F(1), "g": F(1)}, {},
                        frozenset({"a", "g"}), frozenset(), F(1), F(1))
        out = decompose(inst, thin, {"1": "g"})
        assert out["1"] == {"a": F(1)}

    def test_inactive_group_arc(self):
        arcs = [("a", "s", "t1", 1), ("g1", "t1", "z", 1), ("g2", "t1", "z", 1)]
        inst = make_instance(arcs, (Commodity("1", "s", "z", F(1), F(0), F(1)),))
        thin = ThinFlow({"a": F(1), "g1": F(1)}, {},
                        frozenset({"a", "g1"}), frozenset(), F(1), F(1))
        with pytest.raises(NewArcInactive):
            decompose(inst, thin, {"1": "g1", "2": "g2"})


def shared_arc_setup():
    instance = validate_instance(Instance(
        nodes=("s", "t"),
        arcs=(Arc("e", "s", "t", F(1), F(1)),),
        commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),
                     Commodity("2", "s", "t", F(1), F(0), F(1))),
    ))
    one = StepFunction([0, 1], [1, 0], 0)
    strategies = {("1", "e"): one, ("2", "e"): one}
    return instance, strategies


class TestVerifyMulticommodity:
    def test_shared_arc_certificate(self):
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        report = verify_multicommodity_thinflow(instance, strategies, labels, 1)
        assert report.ok, [str(v) for v in report.violations]

    def test_unknown_strategy_entry_is_rejected(self):
        # a typed error naming the entry, not a KeyError for the commodity
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        strategies[("9", "e")] = StepFunction([0, 1], [1, 0], 0)
        with pytest.raises(UnknownEntry, match=r"\(9, e\)"):
            verify_multicommodity_thinflow(instance, strategies, labels, 1)

    def test_perturbed_label_slope_fails(self):
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        from nashflow.labels import LabelSet
        bad = dict(labels)
        # slope 3 instead of 2 at the head
        bad["1"] = LabelSet("1", {"s": labels["1"].labels["s"],
                                  "t": PwlFunction.line(3, 0, 1)})
        report = verify_multicommodity_thinflow(instance, strategies, bad, 1)
        assert any(v.code == "TF2Violated" for v in report.violations)

    def test_flow_off_active_arc_fails(self):
        instance = validate_instance(Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)), Arc("f", "s", "t", F(3), F(1))),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        ))
        # send everything over the long arc; the short one stays active-empty
        strategies = {("1", "f"): StepFunction([0, 1], [1, 0], 0)}
        labels = extend_labels(instance, strategies, 1)
        report = verify_multicommodity_thinflow(instance, strategies, labels, 1)
        assert any(v.code == "SupportViolated" for v in report.violations)

    def test_label_later_than_an_arrival_is_undercut(self):
        # l_t = 1 + phi fits the queue on e1, but from particle 2 on e2
        # reaches t at phi/2 + 2, earlier than l_t
        instance = validate_instance(Instance(
            nodes=("s", "t"),
            arcs=(Arc("e1", "s", "t", F(1), F(1)), Arc("e2", "s", "t", F(2), F(100))),
            commodities=(Commodity("1", "s", "t", F(2), F(0), F(4)),),
        ))
        strategies = {("1", "e1"): StepFunction([0, 8], [1, 0], 0)}
        labels = {"1": LabelSet("1", {"s": PwlFunction.line(F(1, 2)),
                                      "t": PwlFunction.line(1, 0, 1)})}
        report = verify_multicommodity_thinflow(instance, strategies, labels, 8)
        assert [str(v) for v in report.violations] == ["LabelUndercut(1,e2) on [2,8)"]

    def test_shifted_labels_fail_tf1(self):
        # shifting every label by 5 shifts the loaded queues with them, so
        # only the source label's value can tell
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        shifted = {j: LabelSet(j, {v: f + PwlFunction.constant(5)
                                   for v, f in ls.labels.items()}, ls.phi_max)
                   for j, ls in labels.items()}
        report = verify_multicommodity_thinflow(instance, strategies, shifted, 1)
        assert [str(v) for v in report.violations] == [
            "TF1Violated(1,s) on [0,1)", "TF1Violated(2,s) on [0,1)"]

    def test_horizon_below_zero_raises_and_zero_checks_nothing(self):
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        with pytest.raises(ValueError, match="horizon must be non-negative, got -1"):
            verify_multicommodity_thinflow(instance, strategies, labels, -1)
        report = verify_multicommodity_thinflow(instance, strategies, labels, 0)
        assert report.ok and report.pieces == {"1": [], "2": []}

    def test_particle_volume_inside_a_cell(self):
        """The strategy stops at particle 1/2, before the particle volume 1,
        which no label or strategy breakpoint marks.  The partition cuts at
        1, so the static-flow check sees the particles on [1/2, 1) routed
        nowhere, whatever the horizon past 1."""
        instance = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        strategies = {("1", "e"): StepFunction([0, F(1, 2)], [1, 0])}
        labels = extend_labels(instance, strategies, 2)
        for horizon in (F(5, 4), F(3, 2), F(2)):
            report = verify_multicommodity_thinflow(instance, strategies, labels, horizon)
            assert report == reference.verify_multicommodity_thinflow(
                instance, strategies, labels, horizon)
            assert [str(v) for v in report.violations] == [
                "StaticFlowViolated(1,s) on [1/2,1)"], horizon
            assert report.pieces["1"] == [(0, F(1, 2)), (F(1, 2), 1), (1, horizon)]

    def test_strategy_stops_before_its_volume_beside_another(self):
        """Commodity 1 (volume 1) routes over e1 up to particle 1/2 only,
        while commodity 2 (volume 2) routes over e2 up to the horizon 2.
        Only commodity 1's report fails, on [1/2, 1)."""
        instance = validate_instance(Instance(
            ("s", "t"), (Arc("e1", "s", "t", F(1), F(1)), Arc("e2", "s", "t", F(1), F(1))),
            (Commodity("1", "s", "t", F(1), F(0), F(1)),
             Commodity("2", "s", "t", F(1), F(0), F(2)))))
        strategies = {("1", "e1"): StepFunction([0, F(1, 2)], [1, 0]),
                      ("2", "e2"): StepFunction([0, 2], [1, 0])}
        labels = extend_labels(instance, strategies, 2)
        report = verify_multicommodity_thinflow(instance, strategies, labels, 2)
        assert report == reference.verify_multicommodity_thinflow(
            instance, strategies, labels, 2)
        assert [str(v) for v in report.violations] == [
            "StaticFlowViolated(1,s) on [1/2,1)"]
        assert report.pieces == {"1": [(0, F(1, 2)), (F(1, 2), 1), (1, 2)],
                                 "2": [(0, 2)]}

    def test_flow_into_an_unreached_tail_raises(self):
        instance = validate_instance(Instance(
            nodes=("s", "t", "u"),
            arcs=(Arc("e", "s", "t", F(1), F(1)), Arc("f", "u", "t", F(1), F(1))),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        ))
        one = StepFunction([0, 1], [1, 0], 0)
        labels = extend_labels(instance, {("1", "e"): one}, 1)
        with pytest.raises(ValueError, match="arc f"):
            verify_multicommodity_thinflow(
                instance, {("1", "e"): one, ("1", "f"): one}, labels, 1)


class TestBypassedQueue:
    """Extended labels are certified against the real queues, also where a
    queue stands on an arc that the labels bypass (m1 -> m2 here)."""

    ARCS = (("a1", "s1", "m1", 1, 2), ("a2", "s1", "m2", 2, 2),
            ("b1", "s2", "m1", 1, 2), ("b2", "s2", "m2", 1, 2),
            ("c", "m1", "m2", 1, 1), ("d1", "m1", "t", 2, 1),
            ("d2", "m2", "t", 1, 1))
    PATHS = {"1": (("a1", "d1"), ("a1", "c", "d2"), ("a2", "d2")),
             "2": (("b1", "d1"), ("b1", "c", "d2"), ("b2", "d2"))}
    HORIZON = F(4)

    def instance(self):
        return validate_instance(Instance(
            ("s1", "s2", "m1", "m2", "t"),
            tuple(Arc(e, u, v, F(tau), F(nu)) for e, u, v, tau, nu in self.ARCS),
            (Commodity("1", "s1", "t", F(2), F(0), F(2)),
             Commodity("2", "s2", "t", F(3, 2), F(1, 2), F(1, 2) + F(8, 3)))))

    def strategies(self, seed):
        """Each commodity splits over its three paths by weights 1..4 that
        switch at six seeded particles."""
        rng = random.Random(seed)
        strategies = {}
        for j, paths in self.PATHS.items():
            cuts = [F(0)] + [self.HORIZON * F(k, 64)
                             for k in sorted(rng.sample(range(1, 64), 6))]
            shares = {e: [F(0)] * len(cuts) for path in paths for e in path}
            for k in range(len(cuts)):
                weights = [rng.randint(1, 4) for _ in paths]
                for path, w in zip(paths, weights):
                    for e in path:
                        shares[e][k] += F(w, sum(weights))
            for e, values in shares.items():
                strategies[(j, e)] = StepFunction(cuts + [self.HORIZON],
                                                  values + [F(0)])
        return strategies

    def test_extended_labels_pass(self):
        instance = self.instance()
        for seed in range(25):
            strategies = self.strategies(seed)
            labels = extend_labels(instance, strategies, self.HORIZON)
            report = verify_multicommodity_thinflow(
                instance, strategies, labels, self.HORIZON,
                require_tightness=False)
            assert report.ok, (seed, [str(v) for v in report.violations])

    def test_cells_depend_on_their_own_commodity_alone(self):
        """Commodity 1's cells come from its own labels and strategies and the
        loaded queues.  Commodity 2's label and strategy bends, which reach
        the shared tails with commodity 1's particles 1 and 7/6, cut only
        the cells on which the reference reads the foreign rates."""
        instance = self.instance()
        strategies = self.strategies(2)
        labels = extend_labels(instance, strategies, self.HORIZON)
        profile = verify_multicommodity_thinflow(
            instance, strategies, labels, self.HORIZON,
            require_tightness=False).queues
        rates = {e: f for (i, e), f in strategies.items() if i == "1"}
        cells = reference.partition_cells(instance, labels["1"], rates, self.HORIZON,
                                          instance.commodity("1").particle_volume,
                                          profile)
        mesh = [F(0), F(1, 4), F(1, 3), F(3, 8), F(2), F(9, 4), F(7, 3),
                F(55, 16), F(7, 2), F(61, 16), F(31, 8), F(4)]
        assert cells == list(zip(mesh, mesh[1:]))
        mesh = sorted(mesh + [F(1), F(7, 6)])
        assert (reference.foreign_cells(instance, labels, strategies, "1", cells)
                == list(zip(mesh, mesh[1:])))


def _on(f, lo, hi):
    """The step function f on [lo, hi), 0 elsewhere."""
    bps = sorted(set(f.breakpoints) | {lo, hi})
    return StepFunction(bps, [f(b) if lo <= b < hi else 0 for b in bps])


def _outcome(fn, *args, **kwargs):
    """The result, or ValueError when the call raises one: where several
    reads fail, the two sides may meet a different one first."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


class TestPointwiseReference:
    """The columnar verifier and column readers against the cell-by-cell
    reference: equal reports, violations in order, and equal pieces."""

    SEEDS = range(4)
    CODES = {"TF1Violated", "TF2Violated", "LabelUndercut", "SupportViolated",
             "StaticFlowViolated"}

    def cases(self):
        """(name, instance, strategies, labels, horizon, profile): seeded
        strategy sets on the bypassed-queue network and the shared arc, clean
        and corrupted, with the queues of the clean set."""
        bypass = TestBypassedQueue()
        instance, horizon = bypass.instance(), bypass.HORIZON
        sets = [(f"bypass-{seed}", seed, instance, bypass.strategies(seed), horizon)
                for seed in self.SEEDS]
        instance, strategies = shared_arc_setup()
        sets += [(f"shared-{seed}", seed, instance, strategies, F(1))
                 for seed in self.SEEDS]
        for name, seed, instance, strategies, horizon in sets:
            labels = extend_labels(instance, strategies, horizon)
            profile = reference.strategy_profile(instance, strategies, labels)
            yield name, instance, strategies, labels, horizon, profile
            for change, s, ls in self._corrupted(seed, instance, strategies, labels,
                                                 horizon):
                yield f"{name}-{change}", instance, s, ls, horizon, profile

    @staticmethod
    def _corrupted(seed, instance, strategies, labels, horizon):
        """A label slope raised on a window, a commodity's mass on the window
        moved to another arc out of the same tail, which the labels need not
        make active, and a strategy doubled on the window."""
        rng = random.Random(seed)
        j = rng.choice(sorted(labels))
        lo, hi = (horizon * F(k, 16) for k in sorted(rng.sample(range(16), 2)))
        nodes = sorted(labels[j].labels)
        v = nodes[seed % len(nodes)]
        bump = PwlFunction([lo, hi], [0, (hi - lo) * F(rng.randint(1, 3), 2)])
        bent = dict(labels)
        bent[j] = LabelSet(j, {**labels[j].labels, v: labels[j].labels[v] + bump},
                           labels[j].phi_max)
        yield f"slope-{j}-{v}", strategies, bent
        arcs = sorted(e for i, e in strategies if i == j)
        pairs = [(e, f) for e in arcs for f in arcs
                 if e != f and instance.arc(e).tail == instance.arc(f).tail]
        if pairs:
            e, f = rng.choice(pairs)
            moved = _on(strategies[(j, e)], lo, hi)
            yield (f"move-{j}-{e}-{f}",
                   {**strategies, (j, e): strategies[(j, e)] - moved,
                    (j, f): strategies[(j, f)] + moved}, labels)
        e = rng.choice(arcs)
        yield (f"double-{j}-{e}",
               {**strategies, (j, e): strategies[(j, e)] + _on(strategies[(j, e)], lo, hi)},
               labels)

    def test_reports_match(self):
        """Against the queues the strategies load.  The slope conditions
        that the verifier proves implied (TF2's minimum, TF3) fail on no
        piece against those queues; against the clean set's queues, which
        the flow round trip once passed in, every piece on which they fail
        meets a piece of that commodity that the verifier rejects."""
        fired, reports, dropped_fired = set(), 0, 0
        for name, instance, strategies, labels, horizon, clean in self.cases():
            loaded = _outcome(reference.strategy_profile, instance, strategies, labels)
            for tight in (True, False):
                got = _outcome(verify_multicommodity_thinflow, instance, strategies,
                               labels, horizon, require_tightness=tight)
                want = _outcome(reference.verify_multicommodity_thinflow, instance,
                                strategies, labels, horizon, require_tightness=tight)
                assert got == want, (name, tight)
                if got is ValueError:
                    continue
                reports += 1
                fired |= {v.code for v in got.violations}
                assert reference.stress_conditions(instance, strategies, labels,
                                                   horizon, loaded, tight) == [], name
                dropped = _outcome(reference.stress_conditions, instance, strategies,
                                   labels, horizon, clean, tight)
                if dropped is ValueError:
                    continue
                for v in dropped:
                    dropped_fired += 1
                    assert any(w.commodity == v.commodity and w.piece[0] < v.piece[1]
                               and v.piece[0] < w.piece[1]
                               for w in got.violations), (name, tight, str(v))
        assert fired >= self.CODES, fired
        assert reports >= 50
        assert dropped_fired > 0

    def test_column_readers_match_one_point_reads(self):
        for name, instance, strategies, labels, horizon, profile in self.cases():
            for j, ls in labels.items():
                rates = {e: x for (i, e), x in strategies.items() if i == j}
                try:
                    cells = reference.partition_cells(
                        instance, ls, rates, horizon,
                        instance.commodity(j).particle_volume, profile)
                except ValueError:
                    continue
                ends = sorted({x for cell in cells for x in cell})
                points = [ends[0] - 1] + sorted(
                    ends + [(lo + hi) / 2 for lo, hi in cells]) + [ends[-1] + 1]
                gaps = arc_gaps(instance, ls, profile, points)
                statuses = [({e for e, gap in gaps.items() if gap[k] == 0},
                             arc_status(instance, ls, profile, p)[1])
                            for k, p in enumerate(points)]
                assert statuses == [
                    reference.arc_status(instance, ls, profile, p) for p in points], name

    def test_strategy_into_a_label_flat_raises_on_both_sides(self):
        instance, strategies = shared_arc_setup()
        labels = extend_labels(instance, strategies, 1)
        flat = PwlFunction([0, F(1, 2), F(3, 4)], [0, F(1, 2), F(1, 2)], 1, 1)
        bent = {**labels, "1": LabelSet("1", {**labels["1"].labels, "s": flat})}
        for verify in (verify_multicommodity_thinflow,
                       reference.verify_multicommodity_thinflow):
            with pytest.raises(ValueError, match="flat"):
                verify(instance, strategies, bent, 1)
        # commodity 2 reaches s at time 1/2 with its particle 1/2, where
        # commodity 1 enters the arc from the start of its label flat
        with pytest.raises(ValueError, match="label flat"):
            foreign_rate_at(instance, bent, strategies, "2", "e", F(1, 2))


class TestPartition:
    """The verifier's partition cuts where an arc's activity switches."""

    @staticmethod
    def _crossing_gap():
        # the gap l_t - l_s - 1 runs from -1 at 0 to 1 at 2 and crosses 0 at
        # particle 1, which no label breakpoint marks
        instance = validate_instance(Instance(
            ("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
            (Commodity("1", "s", "t", F(1), F(0), F(2)),)))
        labels = {"1": LabelSet("1", {"s": PwlFunction.line(1),
                                      "t": PwlFunction([0, 2], [0, 4], 1, 1)}, F(2))}
        return instance, labels

    NO_QUEUE = QueueProfile(volume={}, waiting={"e": PwlFunction.constant(0)},
                            exit_time={"e": PwlFunction.line(1, 0, 1)})

    def test_refines_at_gap_crossings(self):
        instance, labels = self._crossing_gap()
        # the gap T_e(l_s) - l_t, 1 at 0 and -1 at 2, is 0 at the crossing
        assert _partition(instance, labels["1"], {}, F(2), F(2), self.NO_QUEUE) == \
            ([0, 1, 2], {"e": [1, 0, -1]})

    def test_tail_label_decreasing_between_the_points_raises(self):
        """A tail label that decreases somewhere is read for the points; it
        raises only where it decreases between them."""
        instance, labels = self._crossing_gap()
        dip = PwlFunction([0, 1, 2], [0, 1, F(1, 2)], 1, 1)
        ls = LabelSet("1", {**labels["1"].labels, "s": dip})
        assert arc_gaps(instance, ls, self.NO_QUEUE, [0, 1, 3]) == {"e": [1, 0, F(-5, 2)]}
        with pytest.raises(ValueError, match="the label at s decreases"):
            arc_gaps(instance, ls, self.NO_QUEUE, [0, 1, 2])


class TestWaitPartition:
    """The partition cut at the bends of the exit times, with the gaps read
    off them, equals the one cut where the waits bend or cross 0, with the
    gaps built from the waits (``reference.partition``).  The gaps it
    returns, read again at the crossings it adds, equal a direct
    ``arc_gaps`` read on its mesh."""

    @staticmethod
    def _checked(partition, *args):
        """``partition(*args)``, its gaps checked against ``arc_gaps``."""
        instance, ls, *_, profile = args
        mesh, gaps = partition(*args)
        assert gaps == arc_gaps(instance, ls, profile, mesh)
        return mesh, gaps

    @staticmethod
    def _crossings(monkeypatch) -> list:
        """The zeros of gaps that the partition adds to its mesh, as it finds them."""
        found = []

        def listed(*args):
            zeros = timefn.zero_crossings(*args)
            found.extend(zeros)
            return zeros

        monkeypatch.setattr(thinflow, "zero_crossings", listed)
        return found

    def test_pointwise_reference_cases(self, monkeypatch):
        crossings = self._crossings(monkeypatch)
        compared = 0
        for name, instance, strategies, labels, horizon, profile in \
                TestPointwiseReference().cases():
            for j, ls in labels.items():
                rates = {e: x for (i, e), x in strategies.items() if i == j}
                args = (instance, ls, rates, horizon,
                        instance.commodity(j).particle_volume, profile)
                got = _outcome(self._checked, _partition, *args)
                if got is not ValueError:
                    got = list(zip(got[0], got[0][1:]))
                assert got == _outcome(reference.partition, *args), (name, j)
                compared += got is not ValueError
        assert compared >= 50
        assert len(crossings) == 1, crossings

    def test_benchmark_certificates(self, monkeypatch):
        """Every partition that the verifier builds to certify the ``extend``
        items and the ``equilibria`` round trips at seeds 1-3.  No gap there
        crosses 0 inside a cell of the cuts, so the pointwise cases and
        ``TestCorruptedExtendItems`` exercise the second read."""
        real, compared = thinflow._partition, []
        crossings = self._crossings(monkeypatch)

        def both(*args):
            mesh, gaps = self._checked(real, *args)
            assert list(zip(mesh, mesh[1:])) == reference.partition(*args)
            compared.append(len(mesh) - 1)
            return mesh, gaps

        monkeypatch.setattr(thinflow, "_partition", both)
        workloads, program = _benchmark(monkeypatch)
        for seed in (1, 2, 3):
            for name in ("extend", "equilibria"):
                workload = workloads.WORKLOADS[name]
                for item in workload.generate(program, seed):
                    result = workload.solve(program, item)
                    if name == "extend":
                        workload.certify(program, item, result)
                    else:
                        nash.check_derivatives_thinflow(result.instance, result.flow)
        assert len(compared) == 96 and sum(compared) == 943, compared
        assert crossings == []


def _benchmark(monkeypatch):
    """The benchmark's workloads module, and the program its calls go through."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return (importlib.import_module("workloads"),
            SimpleNamespace(netmodel=netmodel, timefn=timefn, labels=labels_mod,
                            thinflow=thinflow, nash=nash))


class TestCorruptedExtendItems:
    """The benchmark's ``extend`` items at seed 1, each corrupted on seeded
    windows: a label shifted up and back by a plateau, or up and then down
    past its old value, or a strategy rescaled.  The
    verifier's reports, violations in order and pieces included, equal the
    cell-by-cell reference's for both ``require_tightness`` values, and the
    gaps of every partition equal a direct ``arc_gaps`` read on its mesh."""

    CORRUPTIONS = 18  # per item

    def cases(self, workload, program):
        for item in workload.generate(program, 1):
            strategies = item.data["strategies"]
            labels = workload.solve(program, item)
            rng = random.Random(item.name)
            for k in range(self.CORRUPTIONS):
                j = rng.choice(sorted(labels))
                lo, hi = (workload.VOLUME * F(x, 32) for x in sorted(rng.sample(range(33), 2)))
                if k % 3 < 2:
                    # up and back by a plateau, or up and then down past 0
                    v = rng.choice(sorted(labels[j].labels))
                    ramp = (hi - lo) / 4
                    lift = ramp * F(rng.choice((-1, 1)) * rng.randint(1, 3), 4)
                    shift = PwlFunction([lo, lo + ramp, hi - ramp, hi],
                                        [0, lift, -lift if k % 3 else lift, 0])
                    bent = LabelSet(j, {**labels[j].labels, v: labels[j].labels[v] + shift},
                                    labels[j].phi_max)
                    yield f"{item.name}-shift-{j}-{v}", strategies, {**labels, j: bent}
                else:
                    e = rng.choice(sorted(e for i, e in strategies if i == j))
                    x = strategies[(j, e)]
                    factor = F(rng.choice((0, 1, 3, 5)), 2)
                    rescaled = x + _on(x, lo, hi).scale(factor - 1)
                    yield (f"{item.name}-rescale-{j}-{e}", {**strategies, (j, e): rescaled},
                           labels)

    def test_reports_match(self, monkeypatch):
        workloads, program = _benchmark(monkeypatch)
        workload = workloads.WORKLOADS["extend"]
        instance = workload.generate(program, 1)[0].instance
        real = thinflow._partition
        monkeypatch.setattr(thinflow, "_partition",
                            lambda *args: TestWaitPartition._checked(real, *args))
        crossings = TestWaitPartition._crossings(monkeypatch)
        reports, fired = 0, {}
        for name, strategies, labels in self.cases(workload, program):
            for tight in (True, False):
                got = _outcome(verify_multicommodity_thinflow, instance, strategies,
                               labels, workload.VOLUME, require_tightness=tight)
                want = _outcome(reference.verify_multicommodity_thinflow, instance,
                                strategies, labels, workload.VOLUME,
                                require_tightness=tight)
                assert got == want, (name, tight)
                if got is not ValueError:
                    reports += 1
                    for v in got.violations:
                        fired[v.code] = fired.get(v.code, 0) + 1
        assert reports >= 58, reports
        floors = {"SupportViolated": 9386, "LabelUndercut": 898, "TF2Violated": 2268,
                  "StaticFlowViolated": 710, "TF1Violated": 174}
        assert fired.keys() == floors.keys(), fired
        assert all(fired[code] >= floor for code, floor in floors.items()), fired
        # the reference's cells come from the same partition, which finds each
        # crossing again
        assert len(set(crossings)) >= 11, crossings
