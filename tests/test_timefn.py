from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashflow.timefn import (Cursor, GrowingPwl, PwlFunction, StepFunction,
                             SweepInvariantBroken, ValueNotAttained, compose,
                             differentiate, first_difference, integrate,
                             min_compose, min_preimage)

F = Fraction


def rationals(lo=-20, hi=20, den=12):
    return st.builds(F, st.integers(lo * den, hi * den), st.just(den))


@st.composite
def step_functions(draw, max_pieces=6):
    n = draw(st.integers(0, max_pieces))
    bps = sorted(draw(st.sets(rationals(), min_size=n, max_size=n)))
    vals = [draw(rationals()) for _ in bps]
    init = draw(rationals())
    return StepFunction(bps, vals, init)


@st.composite
def pwl_functions(draw, max_pieces=6):
    n = draw(st.integers(1, max_pieces))
    bps = sorted(draw(st.sets(rationals(), min_size=n, max_size=n)))
    vals = [draw(rationals()) for _ in bps]
    return PwlFunction(bps, vals, draw(rationals()), draw(rationals()))


@st.composite
def monotone_pwl(draw, max_pieces=6):
    n = draw(st.integers(1, max_pieces))
    bps = sorted(draw(st.sets(rationals(), min_size=n, max_size=n)))
    vals = [draw(rationals(0, 5))]
    for _ in range(n - 1):
        vals.append(vals[-1] + draw(rationals(0, 5)))
    s0 = draw(rationals(0, 3))
    s1 = draw(rationals(0, 3))
    return PwlFunction(bps, vals, s0, s1)


@st.composite
def collinear_pwl(draw, max_pieces=8):
    """Anchors on few slopes, so that many of them are collinear with their
    neighbours or with an outer ray."""
    n = draw(st.integers(1, max_pieces))
    bps = sorted(draw(st.sets(rationals(), min_size=n, max_size=n)))
    pick = st.sampled_from([F(-1), F(0), F(1)])
    vals = [draw(rationals())]
    for a, b in zip(bps, bps[1:]):
        vals.append(vals[-1] + draw(pick) * (b - a))
    return PwlFunction(bps, vals, draw(pick), draw(pick))


class TestStepFunction:
    def test_eval_and_canonical_merge(self):
        f = StepFunction([0, 1, 2], [2, 2, 5], 0)
        assert f.breakpoints == (F(0), F(2))
        assert f(-1) == 0 and f(0) == 2 and f(F(3, 2)) == 2 and f(2) == 5

    def test_right_continuity_convention(self):
        f = StepFunction([1], [3], 0)
        assert f(1) == 3 and f(F(999, 1000)) == 0

    def test_add_and_scale(self):
        f = StepFunction([0, 2], [1, 0], 0)
        g = StepFunction([1], [2], 0)
        h = f + g
        assert h(0) == 1 and h(1) == 3 and h(2) == 2 and h(-1) == 0
        assert f.scale(3)(0) == 3

    def test_shift(self):
        f = StepFunction([0], [1], 0)
        g = f.shift(2)  # g(x) = f(x - 2)
        assert g(1) == 0 and g(2) == 1

    def test_zero_is_one_shared_instance(self):
        assert StepFunction.zero() is StepFunction.zero()
        assert StepFunction.zero() == StepFunction()

    def test_vanishes_beyond(self):
        f = StepFunction([0, 1], [2, 0], 0)
        assert f.vanishes_beyond(1)
        assert not f.vanishes_beyond(F(1, 2))


class TestIntegrate:
    def test_rectangle(self):
        # f = 2 on [0,1), 0 after; F(1) = 2 and stays 2
        f = StepFunction([0, 1], [2, 0], 0)
        Fn = integrate(f, 0)
        assert Fn(1) == 2 and Fn(3) == 2 and Fn(0) == 0

    def test_zero(self):
        assert integrate(StepFunction.zero(), 0)(5) == 0

    def test_two_pieces(self):
        # 1 on [0,1), 3 on [1,2): F(2) = 4, slope 3 on [1,2)
        f = StepFunction([0, 1, 2], [1, 3, 0], 0)
        Fn = integrate(f, 0)
        assert Fn(2) == 4
        assert Fn(F(3, 2)) - Fn(1) == F(3, 2)

    def test_anchor_below_support(self):
        f = StepFunction([2], [1], 0)
        Fn = integrate(f, 0)
        assert Fn(0) == 0 and Fn(2) == 0 and Fn(4) == 2

    @given(step_functions(), rationals())
    @settings(max_examples=80)
    def test_matches_riemann_sum(self, f, start):
        # brute-force oracle: sum piece contributions over a fixed window
        Fn = integrate(f, start)
        target = start + 7
        acc = F(0)
        cuts = sorted({start, target} | {b for b in f.breakpoints
                                         if start < b < target})
        for lo, hi in zip(cuts, cuts[1:]):
            acc += f(lo) * (hi - lo)
        assert Fn(target) == acc


class TestDifferentiate:
    def test_identity_slope(self):
        line = PwlFunction.line(1)
        d = differentiate(line)
        assert d(0) == 1 and d(-5) == 1

    def test_constant(self):
        assert differentiate(PwlFunction.constant(3)) == StepFunction.zero()

    @given(pwl_functions())
    @settings(max_examples=120)
    def test_round_trip(self, fn):
        anchor = fn.breakpoints[0]
        back = integrate(differentiate(fn), anchor).add_constant(fn(anchor))
        assert back == fn

    @given(step_functions(), rationals())
    @settings(max_examples=120)
    def test_reverse_round_trip(self, f, start):
        assert differentiate(integrate(f, start)) == f


class TestCompose:
    def test_exit_time_through_label(self):
        T = PwlFunction([0, 1], [1, 3], 1, 1)      # 2*theta + 1 on [0,1]
        label = PwlFunction.line(F(1, 2))          # phi / 2
        out = compose(T, label)
        assert out(0) == 1 and out(2) == 3 and out(1) == 2

    @given(pwl_functions(), monotone_pwl())
    @settings(max_examples=100)
    def test_pointwise(self, outer, inner):
        out = compose(outer, inner)
        probes = set(out.breakpoints) | set(inner.breakpoints)
        probes |= {b - F(1, 3) for b in out.breakpoints}
        probes |= {b + F(1, 3) for b in out.breakpoints}
        mids = [(a + b) / 2 for a, b in zip(out.breakpoints, out.breakpoints[1:])]
        for x in list(probes) + mids:
            assert out(x) == outer(inner(x))


class TestMinPreimage:
    def test_linear_inversion(self):
        Fn = PwlFunction.line(2)  # F(phi) = 2 phi
        assert min_preimage(Fn, 3) == F(3, 2)

    def test_flat_segment_left_endpoint(self):
        Fn = PwlFunction([0, 2, 4, 5], [0, 5, 5, 6], 0, 0)
        assert min_preimage(Fn, 5) == 2

    def test_from_loading_example(self):
        # F(theta) = 2 theta on [0,1], then constant 2
        Fn = PwlFunction([0, 1], [0, 2], 0, 0)
        assert min_preimage(Fn, 2) == 1

    def test_not_attained(self):
        Fn = PwlFunction([0, 1], [0, 2], 0, 0)
        with pytest.raises(ValueNotAttained):
            min_preimage(Fn, 3)

    @given(monotone_pwl(), rationals())
    @settings(max_examples=120)
    def test_is_minimal_preimage(self, fn, phi):
        value = fn(phi)
        try:
            x = min_preimage(fn, value)
        except ValueNotAttained:
            assert fn.initial_slope == 0 and value == fn.values[0]
            return
        assert fn(x) == value
        assert x <= phi
        if fn(phi - F(1, 1000)) < value:
            # strictly increasing just left of phi forces equality
            assert fn(x) == value and x <= phi


class TestMinCompose:
    def test_crossing(self):
        a = PwlFunction.line(1, 0, 1)   # theta + 1
        b = PwlFunction.line(2)         # 2 theta
        out, segments = min_compose([a, b])
        assert out(0) == 0 and out(1) == 2 and out(2) == 3
        assert out(F(1, 2)) == 1
        # crossing breakpoint at theta = 1
        assert F(1) in out.breakpoints
        by_interval = {(lo, hi): s for lo, hi, s in segments}
        assert any(s == frozenset({1}) for (lo, hi), s in by_interval.items()
                   if hi is not None and hi <= 1)
        assert any(s == frozenset({0}) for (lo, hi), s in by_interval.items()
                   if lo is not None and lo >= 1)

    def test_singleton(self):
        a = PwlFunction.line(1)
        out, segments = min_compose([a])
        assert out == a
        assert all(s == frozenset({0}) for _, _, s in segments)

    def test_tie(self):
        a = PwlFunction.line(1)
        out, segments = min_compose([a, PwlFunction.line(1)])
        assert out == a
        assert all(s == frozenset({0, 1}) for _, _, s in segments)

    @given(st.lists(pwl_functions(max_pieces=4), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_pointwise_minimum(self, funcs):
        out, segments = min_compose(funcs)
        probes = sorted(set(out.breakpoints)
                        | {b for f in funcs for b in f.breakpoints})
        probes = [probes[0] - 1] + probes + [probes[-1] + 1] + \
            [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        for x in probes:
            assert out(x) == min(f(x) for f in funcs)

    @given(st.lists(pwl_functions(max_pieces=4), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_argmin_segments(self, funcs):
        out, segments = min_compose(funcs)
        for lo, hi, members in segments:
            a = (hi - 1) if lo is None else lo
            b = (lo + 1) if hi is None else hi
            m = (a + b) / 2
            assert members, "argmin set never empty"
            for k in members:
                assert funcs[k](m) == out(m)


class TestKeptSlopes:
    @given(st.one_of(pwl_functions(), collinear_pwl()))
    @settings(max_examples=200, deadline=None)
    def test_kept_slopes_match_the_anchors(self, f):
        bps, vals = f.breakpoints, f.values
        assert f._slopes == tuple((vals[k + 1] - vals[k]) / (bps[k + 1] - bps[k])
                                  for k in range(len(bps) - 1))


def _difference_probes(a, b):
    """The probes first_difference promises, in increasing order."""
    mesh = sorted(set(a.breakpoints) | set(b.breakpoints))
    if not mesh:
        return [F(0)]
    mids = [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]
    return sorted([mesh[0] - 1, mesh[-1] + 1] + mesh + mids)


class TestFirstDifference:
    @given(st.one_of(st.tuples(step_functions(), step_functions()),
                     st.tuples(pwl_functions(), pwl_functions()),
                     step_functions().map(lambda f: (f, f)),
                     pwl_functions().map(lambda f: (f, f.add_constant(0)))))
    @settings(max_examples=300, deadline=None)
    def test_first_differing_probe(self, pair):
        a, b = pair
        found = first_difference(a, b)
        probes = _difference_probes(a, b)
        differing = [(x, a(x), b(x)) for x in probes if a(x) != b(x)]
        assert found == (differing[0] if differing else None)
        assert (found is None) == (a == b)

    def test_no_breakpoints_probes_zero(self):
        assert first_difference(StepFunction.constant(1), StepFunction.zero()) == (0, 1, 0)

    def test_left_ray_comes_first(self):
        a = StepFunction([1, 2], [1, 0], 3)
        b = StepFunction([1, 2], [1, 0], 0)
        assert first_difference(a, b) == (0, 3, 0)


def _next_anchor(xs, x):
    """The first anchor beyond x, by a scan over all of them."""
    return next((b for b in xs if b > x), None)


class TestGrowingPwl:
    @given(rationals(), rationals(), rationals(-3, 3),
           st.lists(st.tuples(rationals(-3, 3), rationals(0, 3)), min_size=1, max_size=8),
           st.lists(rationals(-30, 50), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_reads_match_the_finished_function(self, x0, y0, tail, steps, probes):
        g = GrowingPwl("g", x0, y0, tail)
        for slope, dx in steps:
            g.commit(slope)
            g.advance(dx)
        f = g.finish()
        cursor = Cursor(g)
        for x in sorted(probes + g.xs + [g.edge]):
            if x > g.edge:
                with pytest.raises(SweepInvariantBroken, match="g: "):
                    cursor.curve_at(x)
                continue
            assert cursor.curve_at(x) == (f(x), f.slope_right(x))
            assert cursor.next_anchor() == _next_anchor(g.xs, x)

    @given(rationals(), rationals(), rationals(-3, 3),
           st.lists(st.tuples(rationals(-3, 3), rationals(0, 3)), max_size=8),
           rationals(-30, 50), st.lists(rationals(-30, 50), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_cut_runs_on_with_the_slope_right_of_it(self, x0, y0, tail, steps, cut, probes):
        """``finish(cut)`` is ``finish()`` up to ``cut``, bends nowhere
        beyond it, and runs on with the slope right of ``cut``."""
        g = GrowingPwl("g", x0, y0, tail)
        for slope, dx in steps:
            g.commit(slope)
            g.advance(dx)
        f, h = g.finish(), g.finish(cut)
        assert h.final_slope == f.slope_right(cut)
        assert all(h.slope_left(b) == h.slope_right(b) for b in h.breakpoints if b > cut)
        for x in probes + [cut]:
            assert h(x) == (f(x) if x <= cut else f(cut) + f.slope_right(cut) * (x - cut))

    def test_anchors_only_where_the_slope_changes(self):
        g = GrowingPwl("g", F(0), F(0), F(1))
        for slope in (F(1), F(1), F(2), F(2)):
            g.commit(slope)
            g.advance(F(1))
        assert g.xs == [F(0), F(2)] and g.edge == 4 and g.value == 6
        assert g.finish() == PwlFunction([0, 2], [0, 2], 1, 2)


# one step of an interleaved run: grow the curve by (slope, dx), read it at
# the fraction t of the way from the last read to the edge, or ask for the
# next anchor
_growths = st.tuples(st.just("grow"), rationals(-3, 3), rationals(0, 3))
_reads = st.tuples(st.just("read"), st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]))
_next = st.tuples(st.just("next"))


class TestCursor:
    @given(rationals(), rationals(), rationals(-3, 3), rationals(0, 5),
           st.lists(st.one_of(_growths, _reads, _next), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_reads_while_the_curve_grows(self, x0, y0, tail, behind, ops):
        g = GrowingPwl("g", x0, y0, tail, F(1))
        cursor = Cursor(g)
        last = x0 - behind  # the first read may lie left of the first anchor
        reads = []
        for op in ops:
            if op[0] == "grow":
                g.commit(op[1])
                g.advance(op[2])
            elif op[0] == "read":
                x = last + op[1] * (g.edge - last)
                value, slope = cursor.curve_at(x)
                reads.append((x, value, slope, g.edge, g.slope))
                last = x
            elif reads:
                assert cursor.next_anchor() == _next_anchor(g.xs, last)
        f = g.finish()
        for x, value, slope, edge, live_slope in reads:
            assert value == f(x)
            # at the edge the slope is the live one; a later commit may
            # anchor a new slope right there
            assert slope == (live_slope if x == edge else f.slope_right(x))

    @given(step_functions(), st.lists(rationals(-30, 30), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_step_function_reads(self, f, probes):
        cursor = Cursor(f, "f")
        for x in sorted(probes + list(f.breakpoints)):
            assert cursor.step_at(x) == f(x)
            k = bisect_right(f.breakpoints, x)
            assert cursor.next_anchor() == (f.breakpoints[k] if k < len(f.breakpoints)
                                            else None)

    def test_next_anchor_sees_an_anchor_appended_at_the_read_point(self):
        g = GrowingPwl("g", F(0), F(0), F(1), F(1))
        g.advance(F(2))
        cursor = Cursor(g)
        assert cursor.curve_at(F(2)) == (2, 1) and cursor.next_anchor() is None
        g.commit(F(3))  # anchors the edge, where the cursor read
        g.advance(F(1))
        g.commit(F(0))
        assert cursor.next_anchor() == 3

    @pytest.mark.parametrize("kind", ["growing", "step"])
    def test_backward_read_raises(self, kind):
        if kind == "growing":
            g = GrowingPwl("g", F(0), F(0), F(1), F(1))
            g.advance(F(3))
            read = Cursor(g, "curve c").curve_at
        else:
            read = Cursor(StepFunction([1, 2], [1, 0]), "curve c").step_at
        read(F(3, 2))
        read(F(3, 2))  # the same point again is fine
        with pytest.raises(SweepInvariantBroken,
                           match="curve c: 5/4 read behind the cursor at 3/2"):
            read(F(5, 4))
