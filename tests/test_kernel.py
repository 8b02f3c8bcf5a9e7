"""The linear step-function kernel against its reference implementation.

``indicator``, the Boolean merge and the interval-set operations walk
their inputs once; ``reference_kernel`` decides the same results by
probing, or by sorting loose pieces through the public constructor.
The growth guards count probes and constructions instead of timing them,
so they cannot flake.
"""

import operator
from fractions import Fraction as F
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import stepfn
from sigdelay.cli import main
from sigdelay.conditions import MODELS, _Model, _assemble, _le, _prepare, _trusted
from sigdelay.stepfn import Interval, IntervalSet, StepFunction, chi, indicator, window

from conftest import counted_calls
from reference_kernel import (bisect_zip, boolean_derivatives, boolean_le_violations,
                              minkowski_window, probe_indicator, sorted_clipped_below,
                              sorted_complement, sorted_level_set, sorted_minkowski,
                              window_judge)

# a coarse grid, so that random intervals often share endpoints
grid = st.integers(-6, 6).map(lambda n: F(n, 2))
# mixed denominators 1, 3 and 7, whose points still coincide now and then
mixed = st.tuples(st.integers(-9, 9), st.sampled_from((1, 3, 7))).map(lambda p: F(*p))


@st.composite
def intervals(draw, points=grid):
    lo = draw(st.one_of(st.none(), points))
    hi = draw(st.one_of(st.none(), points))
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    if draw(st.booleans()) and lo is not None:
        hi = lo  # a point, or an empty interval when an end is open
    return Interval(lo, lo is not None and draw(st.booleans()),
                    hi, hi is not None and draw(st.booleans()))


@st.composite
def touching_chains(draw, points=grid):
    """Consecutive intervals over sorted grid points with random closures;
    where two open ends meet, the merged set keeps both intervals."""
    ends = sorted(draw(st.sets(points, min_size=1, max_size=6)))
    out = []
    for lo, hi in zip([None] + ends, ends + [None]):
        if draw(st.booleans()):
            out.append(Interval(lo, lo is not None and draw(st.booleans()),
                                hi, hi is not None and draw(st.booleans())))
    return out


def interval_sets_on(points):
    return st.one_of(st.lists(intervals(points), max_size=6),
                     touching_chains(points)).map(IntervalSet)


interval_sets = interval_sets_on(grid)
any_sets = st.one_of(interval_sets, interval_sets_on(mixed))

times = st.integers(-14, 14).map(lambda n: F(n, 4))


@st.composite
def stepfns(draw, points=grid):
    bps = sorted(draw(st.sets(points, max_size=6)))
    at = [draw(st.integers(0, 1)) for _ in bps]
    right = [draw(st.integers(0, 1)) for _ in bps]
    return StepFunction(draw(st.integers(0, 1)), bps, at, right)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(interval_sets)
def test_indicator_matches_probe_reference(s):
    f = indicator(s)
    assert f == probe_indicator(s)
    assert f == StepFunction(f.leading, f.bps, f.at, f.right)  # canonical


@settings(max_examples=300, deadline=None)
@given(interval_sets)
def test_indicator_round_trips_through_support(s):
    assert indicator(s).support() == s


def test_indicator_open_ends_meeting_at_a_point():
    s = IntervalSet([Interval(F(0), True, F(1), False), Interval(F(1), False, F(2), True)])
    assert len(s.intervals) == 2  # (0,1) and (1,2) do not merge through 1
    f = indicator(s)
    assert (f.leading, f.bps, f.at, f.right) == (0, (0, 1, 2), (1, 0, 1), (1, 1, 0))
    assert f == probe_indicator(s)
    assert [f(t) for t in (F(-1), 0, F(1, 2), 1, F(3, 2), 2, 3)] == [0, 1, 1, 0, 1, 1, 0]


@pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.xor])
@settings(max_examples=300, deadline=None)
@given(f=stepfns(), g=stepfns())
def test_boolean_merge_matches_bisect_reference(op, f, g):
    assert f._zip(g, op) == bisect_zip(f, g, op)


@st.composite
def glitchy(draw, points=mixed):
    """A step function whose breakpoints are often point glitches: a point
    value apart from the equal values on both sides."""
    bps = sorted(draw(st.sets(points, max_size=8)))
    leading = v = draw(st.integers(0, 1))
    at, right = [], []
    for _ in bps:
        if draw(st.booleans()):  # a glitch
            at.append(1 - v)
        else:  # a switch, attaining either value at its breakpoint
            v = 1 - v
            at.append(draw(st.integers(0, 1)))
        right.append(v)
    return StepFunction(leading, bps, at, right)


def is_canonical(f: StepFunction) -> bool:
    return (all(type(part) is tuple for part in (f.bps, f.at, f.right))
            and f == StepFunction(f.leading, f.bps, f.at, f.right))


any_stepfns = st.one_of(stepfns(), stepfns(mixed), glitchy())


@settings(max_examples=400, deadline=None)
@given(any_stepfns, any_stepfns, st.one_of(times, mixed), any_sets,
       st.lists(mixed, unique=True, max_size=6).map(sorted), st.integers(0, 1))
def test_trusted_results_equal_validated_ones(f, g, d, s, ts, v):
    # every trusted producer returns a canonical function
    k = stepfn.timebase(f.bps)
    for h in (f & g, f | g, f ^ g, f.left_limit(), f.right_limit(),
              f.truncate_before(d, v), ~f, f.shift(d), f.truncate(d), indicator(s),
              StepFunction._from_toggles(v, ts), f._to_ticks(k),
              f._to_ticks(k)._to_time(k), f.rises(), f.falls(), f.derivative()):
        assert is_canonical(h), h
    assert f._to_ticks(k)._to_time(k) == f


def in_ticks(*fs: StepFunction) -> list[StepFunction]:
    """The functions on integer ticks of their common timebase."""
    k = stepfn.timebase([b for f in fs for b in f.bps])
    return [f._to_ticks(k) for f in fs]


SEMI_KINDS = ("01-left", "10-left", "01-right", "10-right")


@settings(max_examples=500, deadline=None)
@given(any_stepfns, st.booleans())
@example(StepFunction(0, [1], [1], [0]), False)  # a lone point glitch
@example(StepFunction(1, [F(2, 7), F(1, 3), 5], [1, 0, 0], [0, 1, 1]), True)
def test_derivatives_match_boolean_definitions(f, ticks):
    if ticks:
        f, = in_ticks(f)
    want = boolean_derivatives(f)
    got = {"derivative": f.derivative(), "right_derivative": f.right_derivative(),
           **{kind: f.semi_derivative(kind) for kind in SEMI_KINDS}}
    assert got == want
    assert f.rises() == want["01-left"] and f.falls() == want["10-left"]
    assert all(is_canonical(h) for h in got.values())


@settings(max_examples=400, deadline=None)
@given(any_stepfns, any_stepfns, st.booleans())
def test_le_violations_match_boolean_definition(lhs, rhs, ticks):
    if ticks:
        lhs, rhs = in_ticks(lhs, rhs)
    assert _le(lhs, rhs, "clause") == (indicator(boolean_le_violations(lhs, rhs)), "clause")
    assert (lhs <= rhs) == (not boolean_le_violations(lhs, rhs))


def test_unknown_semi_derivative_kind_keeps_its_message():
    with pytest.raises(ValueError) as info:
        chi(0, 1).semi_derivative("01")
    assert str(info.value) == "unknown semi-derivative kind '01'"


@settings(max_examples=300, deadline=None)
@given(stepfns(), times, st.integers(0, 1))
def test_truncate_before_matches_boolean_clamp(f, d, v):
    before = chi(None, d)
    assert f.truncate_before(d, v) == (before & StepFunction.const(v)) | (~before & f)


@st.composite
def sums(draw):
    """An interval set and a non-empty offset interval <a, a + w>, closed or
    open at each end, or the zero-width [a, a].  Half the time w is a gap
    of the set, so that shifted neighbours touch; wider offsets make them
    overlap."""
    s = draw(any_sets)
    a = draw(mixed)
    gaps = [q.lo - p.hi for p, q in zip(s.intervals, s.intervals[1:])]
    if gaps and draw(st.booleans()):
        w = draw(st.sampled_from(gaps))
    else:
        w = abs(draw(mixed))
    if w == 0:
        return s, (a, True, a, True)
    return s, (a, draw(st.booleans()), a + w, draw(st.booleans()))


def canonical(s):
    return IntervalSet(s.intervals) == s


@settings(max_examples=400, deadline=None)
@given(st.one_of(stepfns(), stepfns(mixed)), st.integers(0, 1))
def test_level_set_matches_sorting_reference(f, bit):
    s = f.support() if bit else f.zero_set()
    assert s == sorted_level_set(f, bit)
    assert canonical(s)


@settings(max_examples=500, deadline=None)
@given(sums())
def test_minkowski_matches_sorting_reference(sum_):
    s, off = sum_
    m = s.minkowski(*off)
    assert m == sorted_minkowski(s, *off)
    assert canonical(m)


@settings(max_examples=300, deadline=None)
@given(any_sets)
def test_complement_matches_sorting_reference(s):
    c = s.complement()
    assert c == sorted_complement(s)
    assert canonical(c)


@settings(max_examples=300, deadline=None)
@given(any_sets, st.one_of(times, mixed))
@example(IntervalSet([Interval(F(0), False, F(1), False),
                      Interval(F(1), False, F(2), False)]), F(1))
def test_clipped_below_matches_sorting_reference(s, t):
    c = s.clipped_below(t)
    assert c == sorted_clipped_below(s, t)
    assert canonical(c)


@st.composite
def window_specs(draw, points):
    """A window <t+s, t+e>, each end closed or open: [t-d, t] (m = d),
    [t-d, t-d] (m = 0, a point or, with an open end, empty everywhere), or
    two free offsets in either order (reversed: empty everywhere)."""
    d = abs(draw(points))
    shape = draw(st.sampled_from(["m = d", "m = 0", "free"]))
    if shape == "m = d":
        s, e = -d, 0
    elif shape == "m = 0":
        s = e = -d
    else:
        s, e = draw(points), draw(points)
    return s, e, draw(st.booleans()), draw(st.booleans())


# arbitrary step functions, their derivatives and complements (windows of
# both occur in the delay models), and the constants, whose level sets are
# empty or the whole line
window_inputs = st.one_of(any_stepfns, any_stepfns.map(StepFunction.derivative),
                          any_stepfns.map(StepFunction.__invert__),
                          st.sampled_from([StepFunction.const(0), StepFunction.const(1)]))


@settings(max_examples=800, deadline=None)
@given(window_inputs, st.sampled_from(["inf", "sup"]),
       st.one_of(window_specs(grid), window_specs(mixed)))
@example(chi(None, 1), "inf", (F(-2), F(0), True, False))  # leading 1, half-open
@example(chi(0, None), "sup", (F(-1), F(-1), True, True))  # ends at +oo, a point window
@example(StepFunction(0, [1], [1], [0]), "sup", (F(-1, 2), F(1, 2), False, False))  # open
def test_window_matches_the_minkowski_route(u, op, spec):
    s, e, inc_s, inc_e = spec
    got = window(u, op, s, e, inc_s, inc_e)
    assert got == minkowski_window(u, op, s, e, inc_s, inc_e)
    assert is_canonical(got)


def test_interval_is_an_immutable_hashable_tuple():
    i = Interval(F(0), True, None, False)
    with pytest.raises(AttributeError):
        i.lo = F(1)
    assert hash(i) == hash(Interval(F(0), True, None, False))
    assert {i: 1}[Interval(lo=F(0), lo_closed=True, hi=None, hi_closed=False)] == 1
    assert repr(i) == "Interval(lo=Fraction(0, 1), lo_closed=True, hi=None, hi_closed=False)"
    assert str(i) == "[0, +oo)" and str(Interval(None, False, F(1, 2), True)) == "(-oo, 1/2]"
    assert i == (F(0), True, None, False)  # equal to the plain 4-tuple of its fields
    assert Interval(F(1), True, F(1), True).contains(1)
    assert Interval(F(1), False, F(1), True).is_empty()


def iv(lo, lo_closed, hi, hi_closed):
    return Interval(None if lo is None else F(lo), lo_closed,
                    None if hi is None else F(hi), hi_closed)


@pytest.mark.parametrize("pieces, off, expected", [
    # the shifted intervals overlap
    ([iv(0, True, 1, True), iv(2, True, 3, True)], (0, True, 2, True),
     [iv(0, True, 5, True)]),
    # they touch open against open, so they stay two
    ([iv(0, True, 1, False), iv(1, False, 2, True)], (3, True, 3, True),
     [iv(3, True, 4, False), iv(4, False, 5, True)]),
    ([iv(0, True, 1, False), iv(2, False, 3, True)], (0, True, 1, True),
     [iv(0, True, 2, False), iv(2, False, 4, True)]),
    # they touch closed against open, so they fuse
    ([iv(0, True, 1, True), iv(2, False, 3, True)], (0, True, 1, True),
     [iv(0, True, 4, True)]),
    # open offset ends open both sums; +-oo ends stay infinite
    ([iv(None, False, 0, True), iv(1, True, 1, True), iv(3, True, None, False)],
     (0, False, 1, False),
     [iv(None, False, 1, False), iv(1, False, 2, False), iv(3, False, None, False)]),
])
def test_minkowski_fuses_only_overlapping_or_touching_sums(pieces, off, expected):
    s = IntervalSet(pieces)
    lo, lo_closed, hi, hi_closed = off
    m = s.minkowski(F(lo), lo_closed, F(hi), hi_closed)
    assert m.intervals == tuple(expected)
    assert m == sorted_minkowski(s, F(lo), lo_closed, F(hi), hi_closed)


def test_clipped_below_drops_the_empty_cut():
    assert IntervalSet([iv(5, False, 7, False)]).clipped_below(F(5)) == IntervalSet()
    assert not IntervalSet([iv(5, False, 7, False)]).clipped_below(F(5))
    assert IntervalSet([iv(5, True, 7, False)]).clipped_below(F(5)).intervals \
        == (iv(5, True, 5, True),)
    assert not IntervalSet([iv(5, True, 7, False)]).clipped_below(F(3))


# ---------------------------------------------------------------------------
# Growth guards: operation counts, no timing bound
# ---------------------------------------------------------------------------

N = 2000


def test_indicator_probes_each_interval_at_most_twice(monkeypatch):
    # open neighbours meet at most integers, so no two of them merge; every
    # third interval starts closed, after a gap
    s = IntervalSet([Interval(F(k) + (F(1, 4) if k % 3 == 0 else 0), k % 3 == 0,
                              F(k + 1), False) for k in range(N)]
                    + [Interval(F(N + 1), True, F(N + 1), True)])
    assert len(s.intervals) == N + 1
    calls = 0
    contains = Interval.contains

    def counted(iv, t):
        nonlocal calls
        calls += 1
        return contains(iv, t)
    monkeypatch.setattr(Interval, "contains", counted)
    f = indicator(s)
    assert calls <= 2 * len(s.intervals)
    assert f.support() == s


def test_boolean_merge_evaluates_no_operand(monkeypatch):
    a = StepFunction.from_toggles(0, [F(2 * k, 3) for k in range(N)])
    b = StepFunction.from_toggles(1, [F(k, 2) for k in range(N)])
    calls = 0

    def counted(name):
        method = getattr(StepFunction, name)

        def wrapper(self, t):
            nonlocal calls
            calls += 1
            return method(self, t)
        return wrapper
    for name in ("value", "left_value", "right_value"):
        monkeypatch.setattr(StepFunction, name, counted(name))
    out = a & b
    assert calls == 0
    assert out.bps


SMALL_U = StepFunction.from_toggles(0, [F(1), F(3, 2), F(4)])


@pytest.mark.parametrize("spec, x, made", [
    # the Boolean route made 5 complements and 4 merges: a limit, a
    # complement and a merge per semi-derivative, a complement per _le
    # clause; the window route made 2 merges, one per hold clause, and
    # the hold clauses are now read at x's switches with none
    ("aic dr=1/2 df=1/2", StepFunction.from_toggles(0, [F(2), F(5, 2), F(6)]),
     {"__invert__": 0, "_zip": 0}),
    # the Boolean route made 3 complements and 6 merges
    ("dbridc mr=1 dr=2 mf=1 df=2", SMALL_U.shift(2), {"__invert__": 0, "_zip": 4}),
])
def test_membership_clauses_build_no_complemented_copies(monkeypatch, spec, x, made):
    # an aic grid candidate and a dbridc trace, judged against an input
    # prepared once, as grid enumeration and the sampler judge them
    model = sd.parse_model(spec)
    prepared = _prepare(SMALL_U, model, None, x.bps)
    x = x._to_ticks(prepared.k)  # a prepared check judges x in the input's ticks
    calls = {name: counted_calls(monkeypatch, StepFunction, name) for name in made}
    assert not sd.check_membership(SMALL_U, x, model, _input=prepared)
    assert {name: len(seen) for name, seen in calls.items()} == made


@pytest.mark.parametrize("spec, u, ok", [
    ("aic dr=1/2 df=1/2", None, False),  # a fall at 5/2, the end of the rise's hold
    ("ric mur=0 deltar=1 muf=0 deltaf=1", SMALL_U, True),
])
def test_switch_clauses_build_no_window_over_x(monkeypatch, spec, u, ok):
    # the permit and hold clauses are read at x's switches: an aic check
    # has no input side, and a ric check's input is prepared first, so no
    # level set is walked at all, and so no window is built over x
    x = StepFunction.from_toggles(0, [F(2), F(5, 2), F(6)])
    model = sd.parse_model(spec)
    prepared = _prepare(u, model, None, x.bps)
    runs = counted_calls(monkeypatch, StepFunction, "_runs")
    assert bool(sd.check_membership(u, x._to_ticks(prepared.k), model, _input=prepared)) is ok
    if u is None:
        assert bool(sd.check_membership(u, x, model)) is ok
    assert runs == []


# the models whose clauses the default ``_judge`` builds
JUDGED = ("bdc", "bdcprime", "aic", "aicprime", "ric", "ricprime", "baidc", "bridc")
MEMORY_OF = {"dr": "mr", "df": "mf", "deltar": "mur", "deltaf": "muf"}
halves = st.integers(0, 6).map(lambda n: F(n, 2))


@st.composite
def judged_models(draw, keywords=JUDGED):
    """One of the models ``keywords``, its times on a grid of 1/2 so that a
    switch often lands at b + delta; a zero delta is drawn often too."""
    cls = MODELS[draw(st.sampled_from(keywords))]
    vals = {key: draw(halves) for key in cls.keys}
    for d, m in MEMORY_OF.items():
        if m in vals:  # 0 <= m <= d
            vals[m], vals[d] = sorted((vals[m], vals[d]))
        elif d in vals and cls.keyword == "bdcprime":  # d > 0
            vals[d] += F(1, 2)
    return sd.parse_model(" ".join([cls.keyword, *(f"{k}={v}" for k, v in vals.items())]))


signals = st.builds(StepFunction.from_toggles, st.integers(0, 1),
                    st.lists(st.integers(0, 16).map(lambda n: F(n, 2)),
                             unique=True, max_size=6).map(sorted))
outputs = st.one_of(stepfns(), glitchy(grid), glitchy(), signals)


@settings(max_examples=600, deadline=None)
@given(judged_models(), signals, outputs, st.booleans())
@example(sd.parse_model("aic dr=1 df=1"), SMALL_U,  # a fall exactly at b + delta
         StepFunction.from_toggles(0, [1, 2]), False)
@example(sd.parse_model("aicprime dr=1 df=1"), SMALL_U,
         StepFunction.from_toggles(0, [1, 2]), True)
@example(sd.parse_model("aic dr=0 df=0"), SMALL_U,  # point glitches, delta 0
         StepFunction(0, [1, 2], [1, 0], [0, 1]), False)
@example(sd.parse_model("aicprime dr=0 df=1/2"), SMALL_U,
         StepFunction(1, [1, F(3, 2)], [0, 0], [1, 1]), True)
@example(sd.parse_model("ric mur=0 deltar=1 muf=0 deltaf=1"), SMALL_U,
         StepFunction.from_toggles(0, [F(3, 2), F(5, 2)]), True)
def test_switch_clauses_match_the_window_route(model, u, x, ticks):
    if ticks:  # every time in ticks of their timebase; the model need not be consistent
        k = stepfn.timebase(chain(model._parameters(), u.bps, x.bps))
        model = _assemble(type(model), iter([stepfn._to_ticks(t, k) for t in model._parameters()]),
                          _trusted)
        u, x = u._to_ticks(k), x._to_ticks(k)
    want = window_judge(model, u, x)
    assert model._judge(model._input_side(u), x) == want
    assert model.clauses(u, x) == [(f.support(), name) for f, name in want]


# the models with switch permits; dbridc's own judge is its equality form,
# so its permits are read by the default judge on its side
RELATIVE = ("ric", "ricprime", "bridc", "dbridc")
U_AT_1_2 = StepFunction.from_toggles(0, [1, 2])


@settings(max_examples=600, deadline=None)
@given(judged_models(RELATIVE), signals, outputs, st.booleans())
@example(sd.parse_model("ric mur=0 deltar=0 muf=0 deltaf=0"), U_AT_1_2,  # delta 0: the point t
         StepFunction(0, [1, 2, 3], [1, 0, 1], [0, 1, 1]), False)
@example(sd.parse_model("ricprime mur=0 deltar=0 muf=0 deltaf=0"), U_AT_1_2,  # empty windows
         StepFunction(1, [1, 2], [0, 0], [1, 0]), True)
@example(sd.parse_model("ric mur=1 deltar=1 muf=1/2 deltaf=1/2"), U_AT_1_2,  # mu = delta
         StepFunction.from_toggles(0, [2, F(5, 2), 3]), True)
@example(sd.parse_model("ric mur=1 deltar=2 muf=0 deltaf=1"), U_AT_1_2,  # u switches at e
         StepFunction.from_toggles(0, [3]), False)
@example(sd.parse_model("ricprime mur=0 deltar=1 muf=0 deltaf=1"), U_AT_1_2,  # at the open e
         StepFunction.from_toggles(0, [2, 3]), True)
@example(sd.parse_model("bridc mr=1 dr=2 mf=1 df=2 mur=1/2 deltar=1 muf=1/2 deltaf=1"),
         StepFunction(0, [1, 2], [1, 1], [0, 1]), StepFunction.from_toggles(0, [2, 3]), False)
@example(sd.parse_model("dbridc mr=1 dr=2 mf=1 df=2"), U_AT_1_2,  # u switches at s
         StepFunction(0, [3, 4], [1, 0], [1, 1]), True)
def test_permit_probe_matches_the_permit_windows(model, u, x, ticks):
    # the default judge probes u at x's switches; the windows of the public
    # permits(u) are the oracle, on ticks and on the Fractions alike
    if ticks:
        k = stepfn.timebase(chain(model._parameters(), u.bps, x.bps))
        model = _assemble(type(model), iter([stepfn._to_ticks(t, k) for t in model._parameters()]),
                          _trusted)
        u, x = u._to_ticks(k), x._to_ticks(k)
    assert _Model._judge(model, model._input_side(u), x) == window_judge(model, u, x)


# the interval-set route of a window and of a clause's infimum
SET_ROUTE = [(StepFunction, "support"), (StepFunction, "zero_set"),
             (IntervalSet, "minkowski"), (IntervalSet, "clipped_below")]


@pytest.mark.parametrize("spec, x", [
    ("aic dr=1/2 df=1/2", StepFunction.from_toggles(0, [F(2), F(5, 2), F(6)])),
    ("dbridc mr=1 dr=2 mf=1 df=2", SMALL_U.shift(2)),
])
def test_membership_clauses_build_no_interval_set(monkeypatch, spec, x):
    # the windows dilate u's runs as they walk them, and each clause is
    # read from its violation indicator, with or without a horizon
    calls = [counted_calls(monkeypatch, owner, name) for owner, name in SET_ROUTE]
    model = sd.parse_model(spec)
    for h in (None, F(9, 2)):
        prepared = _prepare(SMALL_U, model, h, x.bps)
        assert not sd.check_membership(SMALL_U, x._to_ticks(prepared.k), model, h,
                                       _input=prepared)
    u, _ = long_pair()
    for op in ("inf", "sup"):
        assert window(u, op, -3, F(-11, 4)).bps
    assert [len(seen) for seen in calls] == [0, 0, 0, 0]


def long_pair():
    """A 2,000-toggle input with gaps 1/3 to 2 and its output under a
    transport delay of 3: long enough that a sort per window would show."""
    gaps = (F(1, 3), F(2), F(3, 2), F(5, 7), F(1))
    ts, t = [], F(0)
    for k in range(N):
        t += gaps[k % len(gaps)]
        ts.append(t)
    return (StepFunction.from_toggles(0, ts),
            StepFunction.from_toggles(0, [t + 3 for t in ts]))


@pytest.mark.parametrize("spec", [
    "bdc mr=1 dr=3 mf=1 df=3",
    "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2",
    "dbridc mr=1 dr=3 mf=1 df=3",
    "sdbridc d=2",
    "aic dr=1 df=1",
])
def test_check_membership_sorts_no_interval_set(monkeypatch, spec):
    u, x = long_pair()
    calls = 0
    merge = stepfn._merge_intervals

    def counted(intervals):
        nonlocal calls
        calls += 1
        return merge(intervals)
    monkeypatch.setattr(stepfn, "_merge_intervals", counted)
    sd.check_membership(u, x, sd.parse_model(spec))
    assert calls == 0


@pytest.mark.parametrize("spec", [
    "bdc mr=1 dr=3 mf=1 df=3",
    "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2",
    "dbridc mr=1 dr=3 mf=1 df=3",
    "sdbridc d=2",
    "aic dr=1 df=1",
])
def test_check_membership_canonicalizes_nothing(monkeypatch, spec):
    # every kernel result is canonical as built, so the canonicalizing
    # pass of the validating constructor never runs
    u, x = long_pair()
    model = sd.parse_model(spec)
    calls = 0
    init = StepFunction.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)
    monkeypatch.setattr(StepFunction, "__init__", counted)
    sd.check_membership(u, x, model)
    sd.check_membership(u, x.shift(F(1, 3)), model)
    assert calls == 0


def test_cli_check_validates_no_signal_twice(monkeypatch, tmp_path):
    u, x = long_pair()
    (tmp_path / "u.sig").write_text(sd.format_signal_literal("u", u) + "\n")
    (tmp_path / "x.sig").write_text(sd.format_signal_literal("x", x) + "\n")
    calls = 0
    init = StepFunction.__init__

    def counted(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)
    monkeypatch.setattr(StepFunction, "__init__", counted)
    code = main(["check", "--model", "dbridc mr=1 dr=3 mf=1 df=3",
                 "--input", str(tmp_path / "u.sig"), "--state", str(tmp_path / "x.sig")])
    assert code in (0, 1)
    assert calls == 0
