"""Exact piecewise-constant and piecewise-linear functions over the rationals.

Every quantity in the model is either a rate (right-continuous step function)
or a cumulative/label curve (continuous piecewise-linear function).  Both
types are defined on all of the real line: a step function holds a default
value before its first breakpoint, a piecewise-linear function extends its
outermost segments with explicit slopes.  Instances are canonicalized on
construction so that structural equality coincides with pointwise equality.

All breakpoints and values are ``fractions.Fraction``; there is no floating
point anywhere.

Cost.  With n breakpoints, one evaluation is a bisection, O(log n).  A
``PwlFunction`` keeps its n - 1 segment slopes, and whether it is
non-decreasing once asked; equality, hashing and ``to_json`` read the four
fields only.  The public constructor divides the slopes out of the anchors;
every kernel hands over the slopes it already knows.  One k-way merge,
``_align``, lines up sorted breakpoint sequences: it gives their union and
each input's segment at every point, without sorting runs already in order
or searching the union again, in about two comparisons per point for two
inputs.  Step ``+``, ``-`` and ``sum_of`` and piecewise-linear ``+`` are one
merge each, O(kN) for k functions with N breakpoints in all; ``compose`` is
linear in the breakpoints of both functions, and ``min_compose`` of k
functions on a mesh of N points costs O(k^2 N), reading the candidates
again only at the crossings it adds.  ``at_sorted`` reads one function at m
non-decreasing points, O(n + m); ``integrate`` and ``min_preimage`` need one
bisection.  A ``GrowingPwl``, the curve that a forward sweep grows, appends
an anchor only where its slope changes.  A ``Cursor`` reads it, or a step
function, at non-decreasing points in O(1) amortized each.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations
from operator import add, sub

ZERO = Fraction(0)
ONE = Fraction(1)


class ValueNotAttained(ValueError):
    """A preimage query lies outside the range attained by the function."""


class SweepInvariantBroken(RuntimeError):
    """A forward sweep reached a state its invariants exclude."""


def breakpoint_budget() -> int:
    """Global cap on breakpoint counts, tunable via NASHFLOW_MAX_BREAKPOINTS."""
    return int(os.environ.get("NASHFLOW_MAX_BREAKPOINTS", "200000"))


def _as_fractions(seq) -> tuple[Fraction, ...]:
    return tuple(x if x.__class__ is Fraction else Fraction(x) for x in seq)


def _align(*seqs) -> tuple[list, list[list[int]]]:
    """One k-way merge of the non-decreasing ``seqs``: their distinct points in
    increasing order, as the input objects (the first input's on a tie), and per
    input the index of its last element at or before each point, -1 before it."""
    heads = [0] * len(seqs)
    live = [k for k, s in enumerate(seqs) if s]
    points, columns = [], [[] for _ in seqs]
    while live:
        x, tied = None, []
        for k in live:
            h = seqs[k][heads[k]]
            if x is None or h < x:
                x, tied = h, [k]
            elif h is x or not x < h:
                tied.append(k)
        points.append(x)
        for k in tied:  # step past x and its repeats
            s, i = seqs[k], heads[k] + 1
            while i < len(s) and (s[i] is x or s[i] == x):
                i += 1
            heads[k] = i
            if i == len(s):
                live.remove(k)
        for col, i in zip(columns, heads):
            col.append(i - 1)
    return points, columns


def _segment_indices(bps, xs) -> list[int]:
    """``bisect_right(bps, x) - 1`` for every x of the non-decreasing ``xs``,
    in one merge pass; a point that is the breakpoint itself is not compared."""
    out = []
    i, last = -1, len(bps) - 1
    for x in xs:
        while i < last and (bps[i + 1] is x or bps[i + 1] <= x):
            i += 1
        out.append(i)
    return out


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: value ``values[k]`` on [b_k, b_{k+1}).

    ``initial`` is the value on (-inf, b_0); ``values[-1]`` persists on
    [b_{n-1}, inf).  Adjacent equal values are merged, so two step functions
    are equal as dataclasses iff they are equal pointwise.
    """

    breakpoints: tuple[Fraction, ...] = ()
    values: tuple[Fraction, ...] = ()
    initial: Fraction = ZERO

    def __post_init__(self):
        bps = _as_fractions(self.breakpoints)
        vals = _as_fractions(self.values)
        init = Fraction(self.initial)
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        keep_b, keep_v = [], []
        prev = init
        for b, v in zip(bps, vals):
            if v != prev:
                keep_b.append(b)
                keep_v.append(v)
                prev = v
        object.__setattr__(self, "breakpoints", tuple(keep_b))
        object.__setattr__(self, "values", tuple(keep_v))
        object.__setattr__(self, "initial", init)

    @classmethod
    def constant(cls, c) -> "StepFunction":
        return cls((), (), Fraction(c))

    @staticmethod
    def zero() -> "StepFunction":
        """The zero rate; one shared instance, since step functions are frozen."""
        return _ZERO_STEP

    @property
    def final(self) -> Fraction:
        return self.values[-1] if self.values else self.initial

    def __call__(self, x) -> Fraction:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        i = bisect_right(self.breakpoints, x) - 1
        return self.initial if i < 0 else self.values[i]

    def at_sorted(self, xs) -> list[Fraction]:
        """Values at every point of the non-decreasing sequence ``xs``."""
        return self._values_at(_segment_indices(self.breakpoints, xs))

    def _values_at(self, idx) -> list[Fraction]:
        """Values at the points whose segment indices are ``idx``."""
        vals, init = self.values, self.initial
        return [init if i < 0 else vals[i] for i in idx]

    def pieces(self):
        """Yield (lo, hi, value) with lo=None / hi=None for the infinite ends."""
        ends = [None, *self.breakpoints, None]
        yield from zip(ends, ends[1:], (self.initial, *self.values))

    def _merge(self, other: "StepFunction", op) -> "StepFunction":
        """``op`` of the two functions, on the union of their breakpoints."""
        bps, (a, b) = _align(self.breakpoints, other.breakpoints)
        return StepFunction(bps, list(map(op, self._values_at(a), other._values_at(b))),
                            op(self.initial, other.initial))

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self._merge(other, add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self._merge(other, sub)

    def scale(self, c) -> "StepFunction":
        c = Fraction(c)
        return StepFunction(self.breakpoints, [c * v for v in self.values], c * self.initial)

    def shift(self, delta) -> "StepFunction":
        """Return g with g(x) = f(x - delta)."""
        delta = Fraction(delta)
        return StepFunction([b + delta for b in self.breakpoints], self.values, self.initial)

    def is_nonnegative(self) -> bool:
        return self.initial >= 0 and all(v >= 0 for v in self.values)

    def vanishes_beyond(self, x) -> bool:
        """True iff f == 0 on [x, inf)."""
        x = Fraction(x)
        if self(x) != 0:
            return False
        return all(v == 0 for b, v in zip(self.breakpoints, self.values) if b >= x)

    @staticmethod
    def sum_of(funcs) -> "StepFunction":
        funcs = list(funcs)
        if not funcs:
            return StepFunction.zero()
        bps, idx = _align(*(f.breakpoints for f in funcs))
        columns = [f._values_at(col) for f, col in zip(funcs, idx)]
        return StepFunction(bps, [reduce(add, col) for col in zip(*columns)],
                            reduce(add, (f.initial for f in funcs)))

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
            "initial": format_rational(self.initial),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "StepFunction":
        from .rationals import parse_rational
        return cls([parse_rational(b) for b in doc.get("breakpoints", [])],
                   [parse_rational(v) for v in doc.get("values", [])],
                   parse_rational(doc.get("initial", 0)))


_ZERO_STEP = StepFunction()


@dataclass(frozen=True)
class PwlFunction:
    """Continuous piecewise-linear function anchored at its breakpoints.

    Linear interpolation between (breakpoints[k], values[k]); the function
    continues to the left of the first breakpoint with ``initial_slope`` and
    to the right of the last with ``final_slope``.  Collinear breakpoints are
    removed on construction (at least one anchor is always kept).  The
    segment slopes are kept from construction, the monotonicity flag is
    cached on first use.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    initial_slope: Fraction = ZERO
    final_slope: Fraction = ZERO

    def __post_init__(self):
        bps, vals = _anchors(self.breakpoints, self.values)
        slopes = [(v1 - v0) / (b1 - b0)
                  for b0, b1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
        self._canonicalize(bps, vals, slopes, self.initial_slope, self.final_slope)

    @classmethod
    def _carried(cls, bps, vals, slopes, s0, s1) -> "PwlFunction":
        """The function through the anchors whose segment slopes the caller
        already knows: ``slopes[k]`` on [bps[k], bps[k+1]].  They must be
        the slopes between the anchors; nothing divides them out again."""
        self = object.__new__(cls)
        bps, vals = _anchors(bps, vals)
        slopes = _as_fractions(slopes)
        if len(slopes) != len(bps) - 1:
            raise ValueError("one slope per segment is needed")
        self._canonicalize(bps, vals, slopes, s0, s1)
        return self

    def _canonicalize(self, bps, vals, slopes, s0, s1):
        """Drop interior collinear anchors, then collinear outermost
        anchors; ``slopes[k]`` stays the slope right of the k-th kept
        anchor."""
        s0 = Fraction(s0)
        s1 = Fraction(s1)
        keep = [0 < k < len(slopes) and slopes[k - 1] == slopes[k]
                for k in range(len(bps))]
        bps = [b for b, drop in zip(bps, keep) if not drop]
        vals = [v for v, drop in zip(vals, keep) if not drop]
        slopes = [s for s, drop in zip(slopes, keep) if not drop]
        while len(bps) > 1 and slopes[0] == s0:
            bps.pop(0)
            vals.pop(0)
            slopes.pop(0)
        while len(bps) > 1 and slopes[-1] == s1:
            bps.pop()
            vals.pop()
            slopes.pop()
        if len(bps) == 1 and s0 == s1 and bps[0] != 0:
            # a globally linear function: normalize the anchor to x = 0
            vals = [vals[0] - s0 * bps[0]]
            bps = [ZERO]
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "initial_slope", s0)
        object.__setattr__(self, "final_slope", s1)
        object.__setattr__(self, "_slopes", tuple(slopes))

    @classmethod
    def line(cls, slope, anchor_x=ZERO, anchor_y=ZERO) -> "PwlFunction":
        slope = Fraction(slope)
        return cls((Fraction(anchor_x),), (Fraction(anchor_y),), slope, slope)

    @classmethod
    def constant(cls, c) -> "PwlFunction":
        return cls.line(ZERO, ZERO, c)

    @cached_property
    def _nondecreasing(self) -> bool:
        if self.initial_slope < 0 or self.final_slope < 0:
            return False
        vals = self.values
        return all(a <= b for a, b in zip(vals, vals[1:]))

    def _slope_on(self, i: int) -> Fraction:
        """Slope right of breakpoint i (left of the first one for i = -1)."""
        if i < 0:
            return self.initial_slope
        if i == len(self.breakpoints) - 1:
            return self.final_slope
        return self._slopes[i]

    def _value(self, i: int, x) -> Fraction:
        """Value at x, given i = bisect_right(breakpoints, x) - 1."""
        if i < 0:
            return self.values[0] + self.initial_slope * (x - self.breakpoints[0])
        b = self.breakpoints[i]
        if x is b or not (d := x - b):  # at a breakpoint, read its value
            return self.values[i]
        return self.values[i] + self._slope_on(i) * d

    def __call__(self, x) -> Fraction:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        return self._value(bisect_right(self.breakpoints, x) - 1, x)

    def at_sorted(self, xs) -> list[Fraction]:
        """Values at every point of the non-decreasing sequence ``xs``."""
        return self._read(_segment_indices(self.breakpoints, xs), xs)[0]

    def _read(self, idx, xs) -> tuple[list, list]:
        """Values and right slopes at the points ``xs``, whose segment indices
        (``bisect_right(breakpoints, x) - 1``) are ``idx``."""
        value, slope = self._value, self._slope_on
        return [value(i, x) for i, x in zip(idx, xs)], [slope(i) for i in idx]

    def slope_right(self, x) -> Fraction:
        """Right derivative at x."""
        if x.__class__ is not Fraction:
            x = Fraction(x)
        return self._slope_on(bisect_right(self.breakpoints, x) - 1)

    def slope_left(self, x) -> Fraction:
        """Left derivative at x."""
        if x.__class__ is not Fraction:
            x = Fraction(x)
        return self._slope_on(bisect_left(self.breakpoints, x) - 1)

    def __add__(self, other: "PwlFunction") -> "PwlFunction":
        bps, (a, b) = _align(self.breakpoints, other.breakpoints)
        va, sa = self._read(a, bps)
        vb, sb = other._read(b, bps)
        return PwlFunction._carried(bps, [a + b for a, b in zip(va, vb)],
                                    [a + b for a, b in zip(sa[:-1], sb)],
                                    self.initial_slope + other.initial_slope,
                                    self.final_slope + other.final_slope)

    def __neg__(self) -> "PwlFunction":
        return self.scale(-1)

    def __sub__(self, other: "PwlFunction") -> "PwlFunction":
        return self + (-other)

    def scale(self, c) -> "PwlFunction":
        c = Fraction(c)
        return PwlFunction._carried(self.breakpoints, [c * v for v in self.values],
                                    [c * s for s in self._slopes],
                                    c * self.initial_slope, c * self.final_slope)

    def shift(self, delta) -> "PwlFunction":
        """Return g with g(x) = f(x - delta)."""
        delta = Fraction(delta)
        return PwlFunction._carried([b + delta for b in self.breakpoints], self.values,
                                    self._slopes, self.initial_slope, self.final_slope)

    def add_constant(self, c) -> "PwlFunction":
        c = Fraction(c)
        return PwlFunction._carried(self.breakpoints, [v + c for v in self.values],
                                    self._slopes, self.initial_slope, self.final_slope)

    def is_nondecreasing(self) -> bool:
        return self._nondecreasing

    def to_json(self) -> dict:
        from .rationals import format_rational
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
            "initial_slope": format_rational(self.initial_slope),
            "final_slope": format_rational(self.final_slope),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PwlFunction":
        from .rationals import parse_rational
        return cls([parse_rational(b) for b in doc["breakpoints"]],
                   [parse_rational(v) for v in doc["values"]],
                   parse_rational(doc.get("initial_slope", 0)),
                   parse_rational(doc.get("final_slope", 0)))

    def csv_rows(self):
        from .rationals import format_rational
        yield ("breakpoint", "value")
        for b, v in zip(self.breakpoints, self.values):
            yield (format_rational(b), format_rational(v))


def _anchors(bps, vals) -> tuple[tuple, tuple]:
    """The anchors as Fractions, checked: at least one, one value each, and
    strictly increasing breakpoints."""
    bps = _as_fractions(bps)
    vals = _as_fractions(vals)
    if not bps:
        raise ValueError("a piecewise-linear function needs at least one breakpoint")
    if len(bps) != len(vals):
        raise ValueError("breakpoints and values must have equal length")
    if any(b >= c for b, c in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    return bps, vals


class GrowingPwl:
    """A piecewise-linear function grown forward in x, read while it grows.

    ``xs``/``ys`` are its committed anchors; from the last one it runs with
    ``slope`` (None until first committed) to the live edge, where it has
    ``value``.  Left of the first anchor it runs with ``tail_slope``.
    ``readers`` lists what a sweep revisits when the slope changes.  A sweep
    may set ``edge`` and ``value`` itself, on the line that ``slope`` runs on.
    """

    def __init__(self, name: str, x0: Fraction, y0: Fraction,
                 tail_slope: Fraction, slope: Fraction | None = None):
        self.name = name
        self.xs, self.ys = [x0], [y0]
        self._right = []  # slope right of every anchor but the last
        self.edge, self.value = x0, y0
        self.tail_slope, self.slope = tail_slope, slope
        self.readers = []

    def commit(self, slope: Fraction):
        """Run on with ``slope`` from the edge, anchoring the edge if the
        slope changes there."""
        if slope is not self.slope and slope != self.slope:
            if self.edge != self.xs[-1]:
                self._right.append(self.slope)
                self.xs.append(self.edge)
                self.ys.append(self.value)
            self.slope = slope

    def advance(self, dx: Fraction):
        self.edge += dx
        self.value += self.slope * dx

    def finish(self, cut: Fraction | None = None) -> PwlFunction:
        """The curve up to its edge, run on with its slope; with ``cut``,
        only its anchors up to ``cut``, run on with its slope right of it."""
        xs, ys, slopes = self.xs, self.ys, self._right + [self.slope]
        if self.edge != xs[-1]:
            xs, ys, slopes = xs + [self.edge], ys + [self.value], slopes + [self.slope]
        n = len(xs) if cut is None else bisect_right(xs, cut)
        final = slopes[n - 1] if n and slopes[n - 1] is not None else self.tail_slope
        n = max(n, 1)
        return PwlFunction._carried(xs[:n], ys[:n], slopes[:n - 1], self.tail_slope, final)


class Cursor:
    """Reads a ``GrowingPwl``, which may grow between reads, or a
    ``StepFunction`` at non-decreasing points, in O(1) amortized each.

    It keeps ``i``, the index of the last anchor at or before ``x``, the
    point last read, and only moves it forward.  A read behind ``x``, or past
    the edge of a growing curve, raises SweepInvariantBroken naming the curve.
    While ``i`` holds and the curve keeps its slope, reads lie on one segment.
    """

    __slots__ = ("name", "curve", "xs", "i", "x", "n")

    def __init__(self, curve, name: str | None = None):
        self.curve, self.name = curve, name or curve.name
        self.xs = curve.xs if curve.__class__ is GrowingPwl else curve.breakpoints
        self.i, self.x, self.n = -1, None, 0  # n: len(xs) at the last read

    def _seek(self, x: Fraction) -> int:
        if x is not self.x and self.x is not None and x < self.x:
            raise SweepInvariantBroken(
                f"{self.name}: {x} read behind the cursor at {self.x}")
        xs, i = self.xs, self.i
        last = len(xs) - 1
        while i < last and xs[i + 1] <= x:
            i += 1
        self.i, self.x, self.n = i, x, last + 1
        return i

    def curve_at(self, x: Fraction) -> tuple[Fraction, Fraction | None]:
        """Value and right slope of the growing curve at x."""
        g = self.curve
        if x > g.edge:
            raise SweepInvariantBroken(f"{self.name}: {x} read beyond the edge {g.edge}")
        i = self._seek(x)
        if i < 0:
            return g.ys[0] + g.tail_slope * (x - g.xs[0]), g.tail_slope
        slope = g._right[i] if i < len(g._right) else g.slope
        d = slope and x - g.xs[i]  # a flat segment needs no offset
        return (g.ys[i] + slope * d if d else g.ys[i]), slope

    def step_at(self, x: Fraction) -> Fraction:
        """Value of the step function at x."""
        i = self._seek(x)
        return self.curve.initial if i < 0 else self.curve.values[i]

    def next_anchor(self) -> Fraction | None:
        """The first anchor beyond ``x``, counting the anchors a growing
        curve has appended since; None if there is none."""
        xs = self.xs
        i = (self.i if len(xs) == self.n else self._seek(self.x)) + 1
        return xs[i] if i < len(xs) else None


def integrate(f: StepFunction, start) -> PwlFunction:
    """Exact antiderivative F(x) = integral of f from ``start`` to x."""
    start = Fraction(start)
    bps, rates = f.breakpoints, f.values
    idx = bisect_left(bps, start)
    if idx == len(bps) or bps[idx] != start:  # insert the start, at its rate
        bps = bps[:idx] + (start,) + bps[idx:]
        rates = rates[:idx] + (rates[idx - 1] if idx else f.initial,) + rates[idx:]
    vals = [ZERO] * len(bps)
    # accumulate from the anchor outwards in both directions
    acc = ZERO
    for k in range(idx + 1, len(bps)):
        if rates[k - 1]:
            acc += rates[k - 1] * (bps[k] - bps[k - 1])
        vals[k] = acc
    acc = ZERO
    for k in range(idx - 1, -1, -1):
        if rates[k]:
            acc -= rates[k] * (bps[k + 1] - bps[k])
        vals[k] = acc
    return PwlFunction._carried(bps, vals, rates[:-1], f.initial, f.final)


def differentiate(F: PwlFunction) -> StepFunction:
    """Slope function of a piecewise-linear function (right-continuous)."""
    return StepFunction(F.breakpoints, F._slopes + (F.final_slope,), F.initial_slope)


def compose(outer: PwlFunction, inner: PwlFunction) -> PwlFunction:
    """Exact composition outer(inner(x)) for non-decreasing ``inner``.

    The mesh is the inner breakpoints plus the points where ``inner`` crosses
    an outer breakpoint strictly inside a segment or an outer ray; both
    functions are then evaluated on it by merge passes.
    """
    if not inner.is_nondecreasing():
        raise ValueError("compose requires a non-decreasing inner function")
    ivals = inner.values
    crossings = []
    k, n = 0, len(ivals)
    for beta in outer.breakpoints:  # increasing, so k only moves forward
        while k < n and ivals[k] < beta:
            k += 1
        if k < n and ivals[k] == beta:
            continue  # the level set starts at an inner breakpoint
        try:
            crossings.append(_leftmost_preimage(inner, beta, k))
        except ValueNotAttained:
            continue  # on or beyond a flat outer ray
    # the crossings avoid the inner breakpoints: two sorted, disjoint runs
    mesh, (at, _) = _align(inner.breakpoints, crossings)
    inner_vals, inner_slopes = inner._read(at, mesh)
    vals, outer_slopes = outer._read(_segment_indices(outer.breakpoints, inner_vals), inner_vals)
    # each cell maps into one outer segment, or onto one point where flat
    slopes = [so * si if si else ZERO for so, si in zip(outer_slopes, inner_slopes[:-1])]
    s0 = outer.slope_left(inner_vals[0]) * inner.initial_slope \
        if inner.initial_slope != 0 else ZERO
    s1 = outer.slope_right(inner_vals[-1]) * inner.final_slope \
        if inner.final_slope != 0 else ZERO
    return PwlFunction._carried(mesh, vals, slopes, s0, s1)


def min_preimage(F: PwlFunction, value) -> Fraction:
    """Smallest x with F(x) == value for a non-decreasing F, so the left end
    of a flat stretch at ``value``; ValueNotAttained if F never reaches it."""
    if value.__class__ is not Fraction:
        value = Fraction(value)
    if not F.is_nondecreasing():
        raise ValueError("min_preimage requires a non-decreasing function")
    return _leftmost_preimage(F, value, bisect_left(F.values, value))


def _leftmost_preimage(F: PwlFunction, value: Fraction, k: int) -> Fraction:
    """Smallest x with F(x) == value for non-decreasing F, given the first
    index k with ``F.values[k] >= value``."""
    bps, vals = F.breakpoints, F.values
    if k == 0:
        if value < vals[0]:
            if F.initial_slope > 0:
                return bps[0] - (vals[0] - value) / F.initial_slope
            raise ValueNotAttained(f"value {value} below the function range")
        if F.initial_slope > 0:
            return bps[0]
        raise ValueNotAttained("value attained on an unbounded leading flat")
    if k < len(vals):
        if vals[k] == value:
            return bps[k]
        # first reached inside segment (k-1, k), which rises
        return bps[k - 1] + (value - vals[k - 1]) / F._slopes[k - 1]
    if F.final_slope > 0:
        return bps[-1] + (value - vals[-1]) / F.final_slope
    raise ValueNotAttained(f"value {value} above the function range")


def min_compose(candidates) -> tuple[PwlFunction, list]:
    """Pointwise minimum of continuous piecewise-linear functions.

    Returns (minimum, segments) where segments is a list of
    (lo, hi, argmin_indices) covering the line; lo is None on the leftmost
    segment and hi is None on the rightmost.  On each segment every reported
    index attains the minimum throughout.
    """
    funcs = list(candidates)
    if not funcs:
        raise ValueError("min_compose needs at least one candidate")
    mesh, cols = _align(*(f.breakpoints for f in funcs))
    reads = [f._read(col, mesh) for f, col in zip(funcs, cols)]
    # refine by pairwise crossings so that the order is constant per cell
    extra = []
    for a, b in combinations(range(len(funcs)), 2):
        diff = [u - v for u, v in zip(reads[a][0], reads[b][0])]
        extra.append(zero_crossings(mesh, diff, funcs[a].initial_slope - funcs[b].initial_slope,
                                    funcs[a].final_slope - funcs[b].final_slope))
    if any(extra):  # the crossings lie inside cells: read the candidates there only
        mesh, (at, *_) = _align(mesh, *extra)
        kept = [i != j for i, j in zip(at, [-1] + at)]  # where the coarse column steps up
        for k, (f, col) in enumerate(zip(funcs, cols)):
            idx = [col[i] if i >= 0 else -1 for i in at]
            vals = [reads[k][0][i] if keep else f._value(s, x)
                    for x, i, s, keep in zip(mesh, at, idx, kept)]
            reads[k] = vals, [f._slope_on(s) for s in idx]
    table = [col for col, _ in reads]
    vals = [min(col) for col in zip(*table)]
    # one unit beyond the mesh every candidate runs with its outer slope
    left = [col[0] - f.initial_slope for f, col in zip(funcs, table)]
    right = [col[-1] + f.final_slope for f, col in zip(funcs, table)]
    left_ties, right_ties = _argmins(left, min(left)), _argmins(right, min(right))
    s0 = min(funcs[i].initial_slope for i in left_ties)
    s1 = min(funcs[i].final_slope for i in right_ties)
    ties = [left_ties] + [_argmins(col, v) for col, v in zip(zip(*table), vals)] \
        + [right_ties]
    bounds = [None] + mesh + [None]
    segments = [(bounds[k], bounds[k + 1], ties[k] & ties[k + 1])
                for k in range(len(mesh) + 1)]
    # on an inner cell the minimum runs with any candidate attaining it there
    slopes = [reads[next(iter(members))][1][k]
              for k, (_, _, members) in enumerate(segments[1:-1])]
    return PwlFunction._carried(mesh, vals, slopes, s0, s1), segments


def _argmins(column, least) -> frozenset:
    return frozenset(i for i, v in enumerate(column) if v == least)


def first_difference(a, b):
    """The first probe x at which the functions a and b (two step or two
    piecewise-linear functions) differ, as (x, a(x), b(x)); None if they agree.

    The probes, in increasing order: a point of the left ray, every
    breakpoint of either function and every cell midpoint, and a point of the
    right ray; 0 alone when neither function has a breakpoint.
    """
    mesh = _align(a.breakpoints, b.breakpoints)[0]
    probes = [ZERO]
    if mesh:
        mids = [(x + y) / 2 for x, y in zip(mesh, mesh[1:])]
        probes = [mesh[0] - 1, *chain.from_iterable(zip(mesh, mids)), mesh[-1], mesh[-1] + 1]
    for x, u, v in zip(probes, a.at_sorted(probes), b.at_sorted(probes)):
        if u != v:
            return x, u, v
    return None


def zero_crossings(mesh, values, left_slope=ZERO, right_slope=ZERO) -> list:
    """Zeros strictly inside the cells of ``mesh`` of a function that is
    linear on each cell, given its ``values`` on the mesh and its slopes on
    the two outer rays.  Zeros on the mesh need no refinement."""
    out = []
    if left_slope and values[0]:
        x = mesh[0] - values[0] / left_slope
        if x < mesh[0]:
            out.append(x)
    for lo, hi, va, vb in zip(mesh, mesh[1:], values, values[1:]):
        if va and vb and (va > 0) != (vb > 0):
            out.append(lo + (hi - lo) * (-va) / (vb - va))
    if right_slope and values[-1]:
        x = mesh[-1] - values[-1] / right_slope
        if x > mesh[-1]:
            out.append(x)
    return out
