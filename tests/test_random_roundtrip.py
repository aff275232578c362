"""Randomized construct-then-verify round trips (seeded)."""

import random
from fractions import Fraction

from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.loading import check_feasibility, derive_profile
from nashflow.nash import (check_derivatives_thinflow,
                           construct_common_destination, construct_nash_single,
                           verify_nash)

F = Fraction


def _roundtrip_ok(result):
    profile = derive_profile(result.instance, result.flow)
    feas = check_feasibility(result.instance, result.flow, profile)
    rep = verify_nash(result.instance, result.flow, profile)
    thin = check_derivatives_thinflow(result.instance, result.flow, profile)
    problems = [str(v) for v in feas.violations + rep.violations + thin.violations]
    return feas.ok and rep.ok and thin.ok, problems


def test_random_single_commodity():
    rng = random.Random(20250809)
    built = 0
    while built < 30:
        n = rng.randint(3, 6)
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(nodes[i], nodes[i + 1]) for i in range(n - 1)]
        for _ in range(rng.randint(2, 5)):
            a, b = sorted(rng.sample(range(n), 2))
            pairs.append((nodes[a], nodes[b]))
        arcs = tuple(Arc(f"e{i}", a, b,
                         F(rng.randint(1, 4), rng.choice([1, 2, 3])),
                         F(rng.randint(1, 5), rng.choice([1, 2, 3])))
                     for i, (a, b) in enumerate(pairs))
        comm = Commodity("1", nodes[0], nodes[-1],
                         F(rng.randint(2, 8), rng.choice([1, 2])),
                         F(0), F(rng.randint(1, 3), rng.choice([1, 2])))
        inst = validate_instance(Instance(tuple(nodes), arcs, (comm,)))
        if isinstance(inst, list):
            continue
        built += 1
        result = construct_nash_single(inst, horizon=comm.particle_volume + 1)
        ok, problems = _roundtrip_ok(result)
        assert ok, (built, problems[:4])


def test_random_common_destination():
    rng = random.Random(31337)
    built = 0
    while built < 25:
        n_src = rng.randint(2, 3)
        n_mid = rng.randint(0, 2)
        sources = [f"s{i}" for i in range(n_src)]
        mids = [f"m{i}" for i in range(n_mid)]
        nodes = sources + mids + ["t"]
        pairs = []
        for s in sources:
            route = [s] + rng.sample(mids, rng.randint(0, len(mids))) + ["t"]
            pairs += list(zip(route, route[1:]))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(nodes, 2)
            if a != "t":
                pairs.append((a, b))
        arcs = tuple(Arc(f"e{i}", a, b,
                         F(rng.randint(1, 3), rng.choice([1, 2])),
                         F(rng.randint(1, 3), rng.choice([1, 2])))
                     for i, (a, b) in enumerate(pairs))
        comms = tuple(Commodity(f"c{i}", s, "t", F(rng.randint(1, 3)), F(0), None)
                      for i, s in enumerate(sources))
        inst = validate_instance(Instance(tuple(nodes), arcs, comms,
                                          "commonDestination"))
        if isinstance(inst, list):
            continue
        built += 1
        result = construct_common_destination(inst, horizon=F(rng.randint(2, 4)))
        # the flow is built over the effective instance, which drops the
        # commodities that inject nothing before the horizon
        kept = {c.id for c in result.instance.commodities}
        assert {j for j, _ in [*result.flow.inflow, *result.flow.outflow]} <= kept
        ok, problems = _roundtrip_ok(result)
        assert ok, (built, problems[:4])
