from dataclasses import replace
from fractions import Fraction

import pytest

from nashflow.netmodel import (Arc, Commodity, Instance, NotCommonOrigin,
                               Violation, extend_with_super_sink,
                               instance_from_json, instance_to_json,
                               transit_distances, validate_instance)

F = Fraction


def single_arc_instance(capacity=1):
    return Instance(
        nodes=("s", "t"),
        arcs=(Arc("e", "s", "t", F(1), F(capacity)),),
        commodities=(Commodity("1", "s", "t", F(2), F(0), F(1)),),
    )


class TestValidate:
    def test_minimal_instance_valid(self):
        result = validate_instance(single_arc_instance())
        assert isinstance(result, Instance) and result.validated

    def test_idempotent(self):
        once = validate_instance(single_arc_instance())
        assert validate_instance(once) is once

    def test_zero_capacity(self):
        result = validate_instance(single_arc_instance(capacity=0))
        assert any(v.code == "NonPositiveCapacity" for v in result)

    def test_unreachable_destination(self):
        inst = Instance(
            nodes=("s", "t", "w"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "w", F(1), F(0), F(1)),),
        )
        result = validate_instance(inst)
        assert any(v.code == "MissingPath" and v.subject == "1" for v in result)

    def test_origin_is_destination_rejected(self):
        inst = Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "s", F(1), F(0), F(1)),),
        )
        assert Violation("OriginIsDestination", "1") in validate_instance(inst)

    def test_self_loop_rejected(self):
        inst = Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)), Arc("l", "t", "t", F(1), F(1))),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        )
        result = validate_instance(inst)
        assert any(v.code == "SelfLoop" for v in result)

    def test_mode_mismatch(self):
        inst = Instance(
            nodes=("a", "b", "t"),
            arcs=(Arc("e1", "a", "t", F(1), F(1)), Arc("e2", "b", "t", F(1), F(1))),
            commodities=(Commodity("1", "a", "t", F(1), F(0), F(1)),
                         Commodity("2", "b", "t", F(1), F(0), F(1))),
            mode="commonOrigin",
        )
        result = validate_instance(inst)
        assert any(v.code == "ModeMismatch" for v in result)

    def test_zero_transit_cycle_rejected_for_common_destination(self):
        inst = Instance(
            nodes=("a", "b", "t"),
            arcs=(Arc("e1", "a", "b", F(0), F(1)), Arc("e2", "b", "a", F(0), F(1)),
                  Arc("e3", "a", "t", F(1), F(1))),
            commodities=(Commodity("1", "a", "t", F(1), F(0), None),),
            mode="commonDestination",
        )
        result = validate_instance(inst)
        assert any(v.code == "CycleWithZeroTransit" for v in result)

    def test_unbounded_inflow_needs_special_mode(self):
        inst = Instance(
            nodes=("s", "t"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "t", F(1), F(0), None),),
        )
        result = validate_instance(inst)
        assert any(v.code == "UnboundedInflow" for v in result)


    EDITS = {
        "DuplicateNode": lambda i: replace(i, nodes=i.nodes + ("s",)),
        "DuplicateArc": lambda i: replace(i, arcs=i.arcs * 2),
        "DuplicateCommodity": lambda i: replace(i, commodities=i.commodities * 2),
        "UnknownEndpoint": lambda i: replace(i, arcs=(Arc("e", "s", "x", F(1), F(1)),)),
        "NonPositiveRate": lambda i: replace(
            i, commodities=(Commodity("1", "s", "t", F(0), F(0), F(1)),)),
        "NegativeInflowStart": lambda i: replace(
            i, commodities=(Commodity("1", "s", "t", F(1), F(-1), F(1)),)),
        "EmptyInflowInterval": lambda i: replace(
            i, commodities=(Commodity("1", "s", "t", F(1), F(1), F(1)),)),
    }

    @pytest.mark.parametrize("code", sorted(EDITS))
    def test_structural_violation(self, code):
        result = validate_instance(self.EDITS[code](single_arc_instance()))
        assert code in {v.code for v in result}, result


class TestTransitDistances:
    def test_single_arc(self):
        inst = validate_instance(single_arc_instance())
        assert transit_distances(inst, "s") == {"s": F(0), "t": F(1)}

    def test_two_paths(self):
        inst = Instance(
            nodes=("s", "v", "t"),
            arcs=(Arc("a", "s", "v", F(1), F(1)), Arc("b", "v", "t", F(2), F(1)),
                  Arc("c", "s", "t", F(4), F(1))),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        )
        inst = validate_instance(inst)
        # derived by enumerating both paths: 1+2 = 3 beats the direct 4
        assert transit_distances(inst, "s") == {"s": F(0), "v": F(1), "t": F(3)}

    def test_unreachable_is_infinite(self):
        inst = Instance(
            nodes=("s", "t", "w"),
            arcs=(Arc("e", "s", "t", F(1), F(1)),),
            commodities=(Commodity("1", "s", "t", F(1), F(0), F(1)),),
        )
        dist = transit_distances(validate_instance(inst), "s")
        assert dist["w"] == float("inf")


def common_origin_two_sinks():
    # delta_1 = 1, delta_2 = 2, r_1 = r_2 = 1, nu_min = 1
    return validate_instance(Instance(
        nodes=("s", "t1", "t2"),
        arcs=(Arc("a", "s", "t1", F(1), F(1)), Arc("b", "t1", "t2", F(1), F(1))),
        commodities=(Commodity("1", "s", "t1", F(1), F(0), F(1)),
                     Commodity("2", "s", "t2", F(1), F(0), F(1))),
        mode="commonOrigin",
    ))


class TestSuperSink:
    def test_two_sink_parameters(self):
        # direct evaluation: r = 2, sigma = 1, taus are delta_max - delta_j,
        # capacities r_j sigma / (2 r) = 1/4
        extended, arc_map = extend_with_super_sink(common_origin_two_sinks())
        a1 = extended.arc(arc_map["1"])
        a2 = extended.arc(arc_map["2"])
        assert a1.transit == 1 and a2.transit == 0
        assert a1.capacity == F(1, 4) and a2.capacity == F(1, 4)
        assert len(extended.commodities) == 1
        merged = extended.commodities[0]
        assert merged.rate == 2 and merged.destination == a1.head == a2.head

    def test_single_sink_degenerate(self):
        inst = validate_instance(Instance(
            nodes=("s", "t1"),
            arcs=(Arc("a", "s", "t1", F(1), F(3)),),
            commodities=(Commodity("1", "s", "t1", F(2), F(0), F(1)),),
            mode="commonOrigin",
        ))
        extended, arc_map = extend_with_super_sink(inst)
        new = extended.arc(arc_map["1"])
        # sigma = min(3, 2) = 2; transit 0; capacity sigma/2 = 1
        assert new.transit == 0 and new.capacity == 1

    def test_new_capacities_below_all_old(self):
        extended, arc_map = extend_with_super_sink(common_origin_two_sinks())
        new_ids = set(arc_map.values())
        new_caps = [a.capacity for a in extended.arcs if a.id in new_ids]
        old_caps = [a.capacity for a in extended.arcs if a.id not in new_ids]
        assert max(new_caps) < min(old_caps)
        # the new capacities sum to sigma / 2
        assert sum(new_caps) == F(1, 2)

    def test_equal_transit_paths_to_super_sink(self):
        extended, arc_map = extend_with_super_sink(common_origin_two_sinks())
        dist = transit_distances(extended, "s")
        sink = extended.commodities[0].destination
        for j, e in arc_map.items():
            arc = extended.arc(e)
            assert dist[arc.tail] + arc.transit == dist[sink]

    def test_rejects_wrong_mode(self):
        with pytest.raises(NotCommonOrigin):
            extend_with_super_sink(validate_instance(single_arc_instance()))


class TestJsonRoundTrip:
    def test_round_trip(self):
        inst = common_origin_two_sinks()
        doc = instance_to_json(inst)
        back = validate_instance(instance_from_json(doc))
        assert back.nodes == inst.nodes
        assert back.arcs == inst.arcs
        assert back.commodities == inst.commodities
        assert back.mode == inst.mode

    def test_rationals_as_strings(self):
        doc = {
            "nodes": ["s", "t"],
            "arcs": [{"id": "e", "tail": "s", "head": "t",
                      "transit": "3/2", "capacity": "1/3"}],
            "commodities": [{"id": "1", "origin": "s", "destination": "t",
                             "rate": 2, "inflow_start": 0, "inflow_end": "1/2"}],
            "mode": "general",
        }
        inst = instance_from_json(doc)
        assert inst.arc("e").transit == F(3, 2)
        assert inst.arc("e").capacity == F(1, 3)
        assert inst.commodity("1").inflow_end == F(1, 2)


class TestAdjacency:
    def test_cached_lists_equal_plain_scan(self):
        from corpus import corpus
        name, inst, _ = max(corpus(), key=lambda item: len(item[1].arcs))
        before = hash(inst)
        copy = Instance(inst.nodes, inst.arcs, inst.commodities, inst.mode)
        for v in inst.nodes:
            assert inst.out_arcs(v) == [a for a in inst.arcs if a.tail == v], name
            assert inst.in_arcs(v) == [a for a in inst.arcs if a.head == v], name
        assert inst.out_arcs("not a node") == []
        # the cache stays out of equality and hashing
        assert hash(inst) == before
        assert inst == copy and hash(inst) == hash(copy)

    def test_returned_list_does_not_alias_the_cache(self):
        inst = single_arc_instance()
        inst.out_arcs("s").clear()
        assert [a.id for a in inst.out_arcs("s")] == ["e"]
