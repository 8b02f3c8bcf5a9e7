"""The linear step-function kernel against its reference implementation.

``indicator`` and the Boolean merge walk their inputs once;
``reference_kernel`` decides the same results by probing.
The growth guards count probes instead of timing them, so they cannot
flake.
"""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sigdelay.stepfn import Interval, IntervalSet, StepFunction, chi, indicator

from reference_kernel import bisect_zip, probe_indicator

# a coarse grid, so that random intervals often share endpoints
grid = st.integers(-6, 6).map(lambda n: F(n, 2))


@st.composite
def intervals(draw):
    lo = draw(st.one_of(st.none(), grid))
    hi = draw(st.one_of(st.none(), grid))
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    if draw(st.booleans()) and lo is not None:
        hi = lo  # a point, or an empty interval when an end is open
    return Interval(lo, lo is not None and draw(st.booleans()),
                    hi, hi is not None and draw(st.booleans()))


@st.composite
def touching_chains(draw):
    """Consecutive intervals over sorted grid points with random closures;
    where two open ends meet, the merged set keeps both intervals."""
    points = sorted(draw(st.sets(grid, min_size=1, max_size=6)))
    out = []
    for lo, hi in zip([None] + points, points + [None]):
        if draw(st.booleans()):
            out.append(Interval(lo, lo is not None and draw(st.booleans()),
                                hi, hi is not None and draw(st.booleans())))
    return out


interval_sets = st.one_of(st.lists(intervals(), max_size=6),
                          touching_chains()).map(IntervalSet)

times = st.integers(-14, 14).map(lambda n: F(n, 4))


@st.composite
def stepfns(draw):
    bps = sorted(draw(st.sets(grid, max_size=6)))
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


@settings(max_examples=200, deadline=None)
@given(stepfns(), times)
def test_trusted_results_equal_validated_ones(f, d):
    for g in (~f, f.left_limit(), f.right_limit(), f.shift(d), f.truncate(d),
              f.truncate_before(d, 0), f.truncate_before(d, 1)):
        assert g == StepFunction(g.leading, g.bps, g.at, g.right)


@settings(max_examples=300, deadline=None)
@given(stepfns(), times, st.integers(0, 1))
def test_truncate_before_matches_boolean_clamp(f, d, v):
    before = chi(None, d)
    assert f.truncate_before(d, v) == (before & StepFunction.const(v)) | (~before & f)


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
