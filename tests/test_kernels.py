"""The sweep kernels of ``timefn`` and ``loading`` against the per-point
reference scans in ``reference_kernels``: results must agree exactly,
exceptions included."""

import cProfile
import fractions
import json
import pstats
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from nashflow import loading
from nashflow.netmodel import Arc, Commodity, Instance, validate_instance
from nashflow.timefn import (GrowingPwl, PwlFunction, StepFunction, ValueNotAttained,
                             _align, _segment_indices, compose, integrate, min_compose,
                             min_preimage, zero_crossings)

F = Fraction


def sorted_union(*seqs) -> list:
    """The distinct elements of the sequences, in increasing order."""
    return sorted(set().union(*seqs))


def rationals(lo=-20, hi=20, den=6):
    return st.builds(F, st.integers(lo * den, hi * den), st.just(den))


def _points(draw, n, lo=-20, hi=20):
    return sorted(draw(st.sets(rationals(lo, hi), min_size=n, max_size=n)))


@st.composite
def pwl_functions(draw, max_pieces=6):
    n = draw(st.integers(1, max_pieces))
    bps = _points(draw, n)
    vals = [draw(rationals()) for _ in bps]
    return PwlFunction(bps, vals, draw(rationals(-3, 3)), draw(rationals(-3, 3)))


@st.composite
def monotone_pwl(draw, max_pieces=6):
    """Non-decreasing, with flats and flat outer rays drawn often."""
    n = draw(st.integers(1, max_pieces))
    bps = _points(draw, n)
    rise = st.one_of(st.just(F(0)), rationals(0, 5))
    vals = [draw(rationals(-5, 5))]
    for _ in range(n - 1):
        vals.append(vals[-1] + draw(rise))
    return PwlFunction(bps, vals, draw(st.one_of(st.just(F(0)), rationals(0, 3))),
                       draw(st.one_of(st.just(F(0)), rationals(0, 3))))


@st.composite
def step_functions(draw, max_pieces=6, lo=0, hi=5):
    n = draw(st.integers(0, max_pieces))
    bps = _points(draw, n)
    return StepFunction(bps, [draw(rationals(lo, hi)) for _ in bps],
                        draw(rationals(lo, hi)))


def _outcome(fn, *args, **kwargs):
    try:
        return ("value", fn(*args, **kwargs))
    except ValueError as exc:  # ValueNotAttained included
        return (type(exc), str(exc))


def _query(draw, F_):
    """A value hitting an anchor, a flat or an outer ray, or a random one."""
    return draw(st.one_of(st.sampled_from(F_.values), rationals(-30, 30),
                          st.sampled_from([F_.values[0] - 1, F_.values[-1] + 1])))


class TestMinPreimage:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_scan(self, data):
        f = data.draw(monotone_pwl())
        value = _query(data.draw, f)
        assert _outcome(min_preimage, f, value) == _outcome(ref.min_preimage, f, value)

    def test_unbounded_ends(self):
        f = PwlFunction([0, 1, 2], [1, 1, 3], 0, 0)
        for value in (F(0), F(1), F(4)):
            assert _outcome(min_preimage, f, value) == _outcome(ref.min_preimage, f, value)
            assert _outcome(min_preimage, f, value)[0] is ValueNotAttained
        assert min_preimage(f, 2) == F(3, 2)

    def test_rejects_decreasing(self):
        f = PwlFunction([0, 1], [1, 0], 0, 0)
        assert _outcome(min_preimage, f, 0) == _outcome(ref.min_preimage, f, 0)


class TestCompose:
    @settings(max_examples=300, deadline=None)
    @given(pwl_functions(), monotone_pwl())
    def test_matches_scan(self, outer, inner):
        assert compose(outer, inner) == ref.compose(outer, inner)


class TestMinCompose:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(pwl_functions(), min_size=1, max_size=4))
    def test_minimum_and_argmin_segments(self, funcs):
        assert min_compose(funcs) == ref.min_compose(funcs)

    def test_ties_on_shared_segments(self):
        f = PwlFunction([0, 2], [0, 2], 1, 0)
        g = PwlFunction([1, 2], [1, 2], 1, 1)
        assert min_compose([f, g, f]) == ref.min_compose([f, g, f])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_crossing_candidates(self, data):
        """The candidates cross inside a cell or on a ray, where the minimum
        reads them at the added crossing only."""
        f, g = data.draw(pwl_functions()), data.draw(pwl_functions())
        mesh = sorted_union(f.breakpoints, g.breakpoints)
        x = data.draw(st.sampled_from([mesh[0] - 1, mesh[-1] + 1] +
                                      [(a + b) / 2 for a, b in zip(mesh, mesh[1:])]))
        g = g.add_constant(f(x) - g(x))
        assume(f.slope_right(x) != g.slope_right(x))
        funcs = [f, g] + data.draw(st.lists(pwl_functions(), max_size=2))
        minimum, segments = min_compose(funcs)
        assert (minimum, segments) == ref.min_compose(funcs)
        assert x in {lo for lo, _, _ in segments}


def _probes(*funcs) -> list:
    """Every breakpoint of the functions, every cell midpoint and a point of
    each ray."""
    mesh = sorted_union(*(f.breakpoints for f in funcs)) or [F(0)]
    return [mesh[0] - 1] + mesh + [(a + b) / 2 for a, b in zip(mesh, mesh[1:])] + \
        [mesh[-1] + 1]


class TestStepArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(step_functions(lo=-5), step_functions(lo=-5))
    def test_difference(self, f, g):
        d = f - g
        assert all(d(x) == f(x) - g(x) for x in _probes(f, g))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(step_functions(lo=-5), min_size=1, max_size=4))
    def test_sum_of(self, funcs):
        total = StepFunction.sum_of(funcs)
        assert all(total(x) == sum(f(x) for f in funcs) for x in _probes(*funcs))


class TestIntegrate:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_piecewise_sums(self, data):
        """The start lies before, at, between or after the breakpoints."""
        f = data.draw(step_functions(lo=-5))
        bps = list(f.breakpoints) or [F(0)]
        start = data.draw(st.one_of(
            st.sampled_from([bps[0] - 1, bps[-1] + 1] + bps +
                            [(a + b) / 2 for a, b in zip(bps, bps[1:])]),
            rationals(-25, 25)))
        assert integrate(f, start) == ref.antiderivative(f, start)


class TestValueAtBreakpoint:
    @settings(max_examples=300, deadline=None)
    @given(pwl_functions())
    def test_breakpoint_object_or_equal_copy(self, f):
        for i, b in enumerate(f.breakpoints):
            copy = F(b.numerator, b.denominator)
            assert copy is not b and copy == b
            assert f._value(i, b) == f._value(i, copy) == f.values[i]
        copies = [F(b.numerator, b.denominator) for b in f.breakpoints]
        assert f.at_sorted(f.breakpoints) == f.at_sorted(copies) == list(f.values)


def _run(draw, pool) -> list:
    """A non-decreasing run of points of ``pool`` with repeats, each one the
    pool's object or an equal copy of it."""
    xs = sorted(draw(st.lists(st.sampled_from(pool), max_size=10)))
    return [F(x.numerator, x.denominator) if draw(st.booleans()) else x for x in xs]


class TestAlign:
    """The one merge of sorted breakpoint sequences, and the readers at
    non-decreasing points, on runs with repeated points and with equal
    points that are different objects."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_union_and_columns(self, data):
        pool = data.draw(st.lists(rationals(-3, 3, 2), min_size=1, max_size=8))
        seqs = [_run(data.draw, pool) for _ in range(data.draw(st.integers(0, 4)))]
        points, columns = _align(*seqs)
        assert points == sorted(set().union(*seqs))
        assert len(columns) == len(seqs)
        for s, col in zip(seqs, columns):
            assert col == [bisect_right(s, u) - 1 for u in points]
        for u in points:  # the object of the first input that holds the point
            s = next(s for s in seqs if u in s)
            assert u is s[bisect_left(s, u)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_readers_at_repeated_points(self, data):
        f, g = data.draw(pwl_functions()), data.draw(step_functions(lo=-5))
        pool = [*f.breakpoints, *g.breakpoints, *data.draw(st.lists(rationals(), min_size=1))]
        xs = _run(data.draw, pool)
        idx = _segment_indices(f.breakpoints, xs)
        assert idx == [bisect_right(f.breakpoints, x) - 1 for x in xs]
        values, slopes = f._read(idx, xs)
        assert values == f.at_sorted(xs) == [f(x) for x in xs]
        assert slopes == [f.slope_right(x) for x in xs]
        assert g.at_sorted(xs) == [g(x) for x in xs]


def _comparisons(fn, *args) -> int:
    """The rational comparisons that one call makes, counted by cProfile."""
    profile = cProfile.Profile()
    profile.enable()
    fn(*args)
    profile.disable()
    return sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path == fractions.__file__
               and name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"))


class TestComparisonCount:
    """The sums merge their inputs' breakpoints once, without sorting them
    or searching the union again: their rational comparisons stay within
    a multiple of the breakpoints they are given, counted on seeded inputs
    of 25 and 100 breakpoints each."""

    @staticmethod
    def _inputs(n):
        rng = random.Random(n)

        def points():
            return sorted(F(k, 7) for k in rng.sample(range(-2000, 2000), n))

        steps = [StepFunction(points(), [F(rng.randint(1, 9), 4) for _ in range(n)])
                 for _ in range(3)]
        pwls = [PwlFunction(points(), [F(rng.randint(-50, 50), 3) for _ in range(n)], 1, -1)
                for _ in range(2)]
        return steps, pwls

    @pytest.mark.parametrize("n", [25, 100])
    def test_sums(self, n):
        (f, g, h), (p, q) = self._inputs(n)
        assert _comparisons(StepFunction.__add__, f, g) <= F(21, 5) * 2 * n
        assert _comparisons(StepFunction.sum_of, [f, g, h]) <= F(11, 2) * 3 * n
        assert _comparisons(PwlFunction.__add__, p, q) <= F(9, 2) * 2 * n


class TestDeriveArc:
    """One integral of the net arrival rate gives the queue volume, waits
    and exit times of the two-integral derivation."""

    @settings(max_examples=400, deadline=None)
    @given(step_functions(lo=-5), step_functions(lo=-5),
           st.one_of(st.just(F(0)), rationals(0, 3)), rationals(1, 3))
    def test_matches_two_integrals(self, f_in, f_out, transit, capacity):
        self._check(f_in, f_out, transit, capacity)

    def test_inflow_on_its_left_ray_and_early_outflow(self):
        """An inflow nonzero since -inf, and an outflow that starts before
        it, through a transit time or none."""
        f_in = StepFunction([1, 3], [2, 0], F(1, 2))
        f_out = StepFunction([-4, 2], [1, 0], 0)
        for transit in (F(0), F(3, 2)):
            self._check(f_in, f_out, transit, F(2))

    @staticmethod
    def _check(f_in, f_out, transit, capacity):
        arc = Arc("e", "s", "t", transit, capacity)
        profile = loading.QueueProfile({}, {}, {})
        g = loading._derive_arc(profile, arc, f_in, f_out)
        assert g == f_in.shift(transit)
        assert (profile.volume["e"], profile.waiting["e"], profile.exit_time["e"]) == \
            ref.derive_arc(arc, f_in, f_out)


def _as_if_divided(f: PwlFunction):
    """``f`` must equal the public constructor's function through its own
    anchors, and so must the segment slopes it carries."""
    fresh = PwlFunction(f.breakpoints, f.values, f.initial_slope, f.final_slope)
    assert f == fresh
    assert f._slopes == fresh._slopes


@st.composite
def grown(draw):
    """A curve grown forward by random commits and advances."""
    x0, y0 = draw(rationals(-5, 5)), draw(rationals(-5, 5))
    g = GrowingPwl("curve", x0, y0, draw(rationals(-3, 3)),
                   draw(st.one_of(st.none(), rationals(-3, 3))))
    for _ in range(draw(st.integers(0, 6))):
        g.commit(draw(rationals(-3, 3)))
        g.advance(draw(st.one_of(st.just(F(0)), rationals(0, 4))))
    return g


class TestCarriedSlopes:
    """Kernel results carry the segment slopes that the kernel knows rather
    than divide them out of the anchors; both must give the same function."""

    @settings(max_examples=300, deadline=None)
    @given(pwl_functions(), pwl_functions(), rationals(-4, 4))
    def test_linear_kernels(self, f, g, c):
        for result in (f + g, f - g, -f, f.scale(c), f.scale(0), f.shift(c),
                       f.add_constant(c)):
            _as_if_divided(result)

    @settings(max_examples=300, deadline=None)
    @given(step_functions(lo=-5), rationals(-10, 10))
    def test_integrate(self, f, start):
        _as_if_divided(integrate(f, start))

    @settings(max_examples=300, deadline=None)
    @given(pwl_functions(), monotone_pwl())
    def test_compose(self, outer, inner):
        _as_if_divided(compose(outer, inner))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(pwl_functions(), min_size=1, max_size=4))
    def test_min_compose(self, funcs):
        _as_if_divided(min_compose(funcs)[0])

    @settings(max_examples=300, deadline=None)
    @given(grown(), rationals(-10, 30))
    def test_finish(self, g, cut):
        _as_if_divided(g.finish())
        _as_if_divided(g.finish(cut))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(step_functions(), min_size=1, max_size=3),
           rationals(0, 3), rationals(1, 3))
    def test_loaded_queue_volume(self, inflows, transit, capacity):
        arc = Arc("e", "s", "t", transit, capacity)
        _, z = loading._load_arc(StepFunction.sum_of(inflows), arc)
        _as_if_divided(z)


def _split_matches_scan(inflows, total_out, T):
    """The arc's inflow split in one pass, its total the sum of ``inflows``:
    each outflow is the reference split of its own inflow, and a T that
    misses a live sample raises what the reference raises for every nonzero
    commodity."""
    total_in = StepFunction.sum_of(inflows)
    expected = [_outcome(ref.split_outflow, f, total_in, total_out, T) for f in inflows]
    errors = {e for e in expected if e[0] != "value"}
    got = _outcome(loading._split_outflows, inflows, total_in, total_out, T)
    if errors:
        assert len(errors) == 1 and got in errors, (got, expected)
        assert all(e in errors for e, f in zip(expected, inflows)
                   if f != StepFunction.zero())
    else:
        assert got == ("value", [value for _, value in expected])


class TestSplitOutflow:
    """``_split_outflows`` takes the total of the inflows it splits, as
    ``load_network`` passes it; a rest of the total that no commodity sends
    is drawn as one more commodity."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scan(self, data):
        inflow_j, rest = data.draw(step_functions()), data.draw(step_functions())
        _split_matches_scan([inflow_j, rest], data.draw(step_functions()),
                            data.draw(monotone_pwl()))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(step_functions(lo=0, hi=3), min_size=2, max_size=2),
           rationals(1, 3), rationals(1, 3))
    def test_matches_scan_on_loaded_arcs(self, inflows, transit, capacity):
        inflows = [StepFunction([b for b in f.breakpoints], f.values, 0)
                   for f in inflows]
        instance = Instance(("s", "t"), (Arc("e", "s", "t", transit, capacity),),
                            (Commodity("1", "s", "t", F(1)), Commodity("2", "s", "t", F(1))))
        flow, profile = loading.load_network(
            instance, {("1", "e"): inflows[0], ("2", "e"): inflows[1]})
        total_in, total_out = flow.total_inflow["e"], flow.total_outflow["e"]
        T = profile.exit_time["e"]
        expected = [ref.split_outflow(f, total_in, total_out, T) for f in inflows]
        assert [flow.outflow[(j, "e")] for j in "12"] == expected
        assert loading._split_outflows(inflows, total_in, total_out, T) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scan_per_commodity(self, data):
        """Two or three commodities, each possibly zero, and a rest."""
        inflows = data.draw(st.lists(st.one_of(st.just(StepFunction.zero()), step_functions()),
                                     min_size=2, max_size=3))
        _split_matches_scan(inflows + [data.draw(step_functions())],
                            data.draw(step_functions()), data.draw(monotone_pwl()))

    def test_three_commodities_load_to_the_scan(self):
        """Seeded acyclic networks with three commodities, split at every
        node in shares that switch at random times and loaded node by node:
        every outflow that ``load_network`` returns is the reference split of
        its inflow, and ``check_feasibility`` accepts the whole flow."""
        rng = random.Random(20261019)
        for trial in range(30):
            nodes = tuple(f"n{k}" for k in range(4))
            pairs = [(k, k + 1) for k in range(3)] + \
                [tuple(sorted(rng.sample(range(4), 2))) for _ in range(rng.randint(1, 3))]
            arcs = tuple(Arc(f"e{k}", nodes[u], nodes[v], F(rng.randint(0, 4), 2),
                             F(rng.randint(1, 4), rng.choice([1, 2])))
                         for k, (u, v) in enumerate(pairs))
            instance = validate_instance(Instance(nodes, arcs, tuple(
                Commodity(f"c{j}", nodes[rng.randint(0, 1)], nodes[-1], F(rng.randint(1, 3)),
                          F(j, 2), F(j, 2) + rng.randint(1, 3)) for j in range(3))))
            flow = loading.FlowOverTime({}, {})
            for v in nodes[:-1]:
                leaving = instance.out_arcs(v)
                for c in instance.commodities:
                    arriving = StepFunction.sum_of(
                        [flow.outflow[(c.id, a.id)] for a in instance.in_arcs(v)] +
                        [StepFunction([c.inflow_start, c.inflow_end], [c.rate, 0])
                         for _ in range(v == c.origin)])
                    times = [F(x, 2) for x in sorted(rng.sample(range(20), 3))]
                    weights = [[rng.randint(1, 3) for _ in leaving] for _ in range(4)]
                    for k, a in enumerate(leaving):
                        shares = [F(w[k], sum(w)) for w in weights]
                        share = StepFunction(times, shares[1:], shares[0])
                        bps = sorted_union(arriving.breakpoints, times)
                        flow.inflow[(c.id, a.id)] = StepFunction(
                            bps, [arriving(b) * share(b) for b in bps], 0)
                loaded, profile = loading.load_network(
                    instance, {(c.id, a.id): flow.inflow[(c.id, a.id)]
                               for c in instance.commodities for a in leaving})
                for c in instance.commodities:
                    for a in leaving:
                        expected = ref.split_outflow(
                            flow.inflow[(c.id, a.id)], loaded.total_inflow[a.id],
                            loaded.total_outflow[a.id], profile.exit_time[a.id])
                        assert loaded.outflow[(c.id, a.id)] == expected, (trial, c.id, a.id)
                        flow.outflow[(c.id, a.id)] = expected
            report = loading.check_feasibility(instance, flow.fill_totals(instance))
            assert report.ok, (trial, [str(v) for v in report.violations])


class TestQueuePositivity:
    def test_queue_touching_zero_inside_the_window_is_reported(self):
        # arrivals at rate 2 on [1, 2) and [3, 4) through capacity 1: the
        # queue volume z drains to 0 at t = 3 and refills.  A waiting time
        # half a unit longer than z / capacity (with matching exit times)
        # stretches the window of particle 1 to [2, 7/2), which contains the
        # touch.  Such a wait breaks q = z(. + transit) / capacity, the
        # identity from which check_feasibility derives queue positivity.
        arc = Arc("e", "s", "t", F(1), F(1))
        instance = Instance(("s", "t"), (arc,), (Commodity("1", "s", "t", F(2), F(0), F(3)),))
        inflow = StepFunction([0, 1, 2, 3], [2, 0, 2, 0], 0)
        flow, _ = loading.load_network(instance, {("1", "e"): inflow})
        z = loading.derive_profile(instance, flow).volume["e"]
        q = z.shift(-arc.transit).add_constant(F(1, 2))
        profile = loading.QueueProfile(
            {"e": z}, {"e": q}, {"e": q + PwlFunction.line(1, 0, arc.transit)})
        assert z(3) == 0 and z(2) > 0 and z(4) > 0 and q(1) == F(3, 2)
        assert F(1) in ref.queue_positivity_failures(q, z, arc.transit)
        report = loading.check_feasibility(instance, flow, profile)
        assert not report.ok
        assert "WaitingMismatch" in {v.code for v in report.violations}


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_loaded_waits_never_cross_zero(self, data):
        """The thin-flow verifier cuts its cells only where the exit times
        bend: no wait that ``load_queues`` builds crosses 0 between its
        anchors or on a ray."""
        arcs = tuple(Arc(e, u, v, data.draw(rationals(0, 3)),
                         data.draw(rationals(1, 3)))
                     for e, u, v in (("a", "s", "v"), ("b", "v", "t"), ("c", "s", "t")))
        instance = validate_instance(Instance(("s", "v", "t"), arcs,
                                              (Commodity("1", "s", "t", F(1), F(0), F(1)),)))
        inflows = {}
        for a in arcs:
            f = data.draw(step_functions())
            inflows[("1", a.id)] = StepFunction(f.breakpoints, f.values, 0)
        for q in loading.load_queues(instance, inflows).waiting.values():
            assert zero_crossings(q.breakpoints, q.values, q.initial_slope,
                                  q.final_slope) == [], q


class TestCache:
    def test_cached_function_equals_fresh_one(self):
        bps, vals = [0, 1, 3], [0, 2, F(5, 2)]
        used = PwlFunction(bps, vals, 1, F(1, 3))
        used(F(1, 2))
        used.slope_right(2)
        assert used.is_nondecreasing()
        min_preimage(used, 1)
        fresh = PwlFunction(bps, vals, 1, F(1, 3))
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert used.to_json() == fresh.to_json()
        doc = json.loads(json.dumps(used.to_json()))
        assert PwlFunction.from_json(doc) == fresh
        assert len({used, fresh}) == 1
