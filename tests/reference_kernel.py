"""Reference step-function kernel and deterministic solvers: the
probe-based indicator, the bisect-based Boolean merge, the sorting
interval-set operations and the window sweeps of the two inertial delays.

These are the straightforward, quadratic-time versions of
``stepfn.indicator``, ``StepFunction._zip``, ``solve_dbridc`` and
``solve_sdbridc``, followed by the direct formulas of constancy and of
the transmission delay, which the library derives from relative inertia
and from the last switches, and by the switch-window witness that
searches for a member by halving a margin where the library realises
its chain once.  They decide every value by evaluating whole step
functions at probe points (every interval's ``contains`` and
``StepFunction.value``/``left_value``/``right_value``), so they share no
walking logic or event form with the library and serve as its
independent oracle.  The interval-set operations emit loose pieces and
leave sorting, dropping empties and merging to the public
``IntervalSet(...)`` constructor, where the library builds its results
canonical in one walk.

Two routes at the end build on the kernel's Boolean operations and
windows instead: the grid's forced cells taken one cell at a time,
where the library walks the sandwich's forced regions once, and the
paper's alternative forms of the deterministic bounded relative
inertial delay (section 9.5), which cross-check each other and the
checker's form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from sigdelay.conditions import (Bdc, BdcParams, CheckReport, Dbridc, DelayModel,
                                 SdbridcPrime, _eq, _in_ticks, _in_time, _le, _report)
from sigdelay.solvers import forced_switch_windows
from sigdelay.stepfn import (Interval, IntervalSet, StepFunction, as_signal, timebase,
                             window_inf, window_sup)


def sorted_level_set(f: StepFunction, bit: int) -> IntervalSet:
    """{t : f(t) = bit}: one point piece per breakpoint valued ``bit`` and
    one open piece per run between breakpoints, merged by sorting."""
    pieces: list[Interval] = []
    if f.leading == bit:
        pieces.append(Interval(None, False, f.bps[0] if f.bps else None, False))
    for i, b in enumerate(f.bps):
        if f.at[i] == bit:
            pieces.append(Interval(b, True, b, True))
        if f.right[i] == bit:
            hi = f.bps[i + 1] if i + 1 < len(f.bps) else None
            pieces.append(Interval(b, False, hi, False))
    return IntervalSet(pieces)


def sorted_minkowski(s: IntervalSet, lo_off: Fraction, lo_closed: bool,
                     hi_off: Fraction, hi_closed: bool) -> IntervalSet:
    """Minkowski sum with <lo_off, hi_off>: every interval shifted on its
    own, the overlaps left to the constructor."""
    out = []
    for iv in s.intervals:
        lo = None if iv.lo is None else iv.lo + lo_off
        hi = None if iv.hi is None else iv.hi + hi_off
        out.append(Interval(lo, iv.lo_closed and lo_closed,
                            hi, iv.hi_closed and hi_closed))
    return IntervalSet(out)


def sorted_complement(s: IntervalSet) -> IntervalSet:
    out = []
    prev_hi: Optional[Fraction] = None
    prev_closed = False
    at_start = True
    for iv in s.intervals:
        if at_start:
            if iv.lo is not None:
                out.append(Interval(None, False, iv.lo, not iv.lo_closed))
            at_start = False
        else:
            out.append(Interval(prev_hi, not prev_closed, iv.lo, not iv.lo_closed))
        if iv.hi is None:
            return IntervalSet(out)
        prev_hi, prev_closed = iv.hi, iv.hi_closed
    if at_start:
        return IntervalSet([Interval(None, False, None, False)])
    out.append(Interval(prev_hi, not prev_closed, None, False))
    return IntervalSet(out)


def sorted_clipped_below(s: IntervalSet, t: Fraction) -> IntervalSet:
    """Intersection with (-oo, t]; the constructor drops an empty cut."""
    out = []
    for iv in s.intervals:
        if iv.lo is not None and (iv.lo > t):
            break
        if iv.hi is None or iv.hi > t:
            out.append(Interval(iv.lo, iv.lo_closed, t, True))
            break
        out.append(iv)
    return IntervalSet(out)


def probe_indicator(intervals: IntervalSet) -> StepFunction:
    """The characteristic StepFunction of an interval set, by probing the
    set once per endpoint and once per open gap between endpoints."""
    def member(t):
        return any(iv.contains(t) for iv in intervals)

    endpoints = sorted({p for iv in intervals
                        for p in (iv.lo, iv.hi) if p is not None})
    if not endpoints:
        return StepFunction.const(1 if intervals else 0)
    leading = 1 if member(endpoints[0] - 1) else 0
    at, right = [], []
    for i, b in enumerate(endpoints):
        at.append(1 if member(b) else 0)
        probe = b + 1 if i + 1 == len(endpoints) else (b + endpoints[i + 1]) / 2
        right.append(1 if member(probe) else 0)
    return StepFunction(leading, endpoints, at, right)


def bisect_zip(f: StepFunction, g: StepFunction, op) -> StepFunction:
    """Pointwise ``op`` of two step functions, evaluating both at every
    breakpoint of either and just right of it."""
    bps = sorted(set(f.bps) | set(g.bps))
    at = [op(f.value(b), g.value(b)) for b in bps]
    right = [op(f.right_value(b), g.right_value(b)) for b in bps]
    return StepFunction(op(f.leading, g.leading), bps, at, right)


def sweep_dbridc(u: StepFunction, p: BdcParams) -> StepFunction:
    """The deterministic bounded relative inertial delay by a sweep over the
    merged switches of  a = inf-window of u  and  b0 = inf-window of not-u:
    x is 1 where a is 1, 0 where b0 is 1 and holds elsewhere."""
    a, b0 = Dbridc(p).permits(u)
    v = u.leading
    toggles = []
    for t in sorted(set(a.bps) | set(b0.bps)):
        nv = 1 if a.value(t) else (0 if b0.value(t) else v)
        if nv != v:
            toggles.append(t)
            v = nv
    return StepFunction.from_toggles(u.leading, toggles)


def sweep_sdbridc(u: StepFunction, d) -> StepFunction:
    """The symmetric deterministic variant by a sweep over the switches of u
    and of  quiet  (no input switch in the open window (t-d, t))."""
    quiet = SdbridcPrime(d).quiet(u)
    v = u.leading
    toggles = []
    for t in sorted(set(u.bps) | set(quiet.bps)):
        if (v ^ u.left_value(t)) and quiet.value(t):
            v ^= 1
            toggles.append(t)
        # a pending difference across a whole quiet interval would mean
        # dense switching; the sweep always clears it at the left end
        if (v ^ u.right_value(t)) and quiet.right_value(t):
            raise RuntimeError(f"sweep_sdbridc left a pending switch after t={t}")
    return StepFunction.from_toggles(u.leading, toggles)


def anticipation_constancy(u: StepFunction, x: StepFunction,
                           d_r: Fraction, d_f: Fraction) -> CheckReport:
    """Constancy by its own two clauses on the Fractions: a rise of x at t
    needs u(t - d_r) = 1, a fall needs u(t - d_f) = 0."""
    return _report([_le(x.rises(), u.shift(d_r), "rise-permit"),
                    _le(x.falls(), ~u.shift(d_f), "fall-permit")])


def derivative_transmission_delay(u: StepFunction, x: StepFunction
                                  ) -> tuple[Fraction, str]:
    """The transmission delay of a stable pair from the supports of both
    derivatives, classified by the switch indicators at the last switches."""
    du, dx = u.derivative().support(), x.derivative().support()
    t1 = du.intervals[-1].hi if du else Fraction(0)
    t2 = dx.intervals[-1].hi if dx else Fraction(0)
    kind = "unclassified"
    if du and dx:
        u_rise = (~u.left_limit() & u).value(t1) == 1
        x_rise = (~x.left_limit() & x).value(t2) == 1
        u_fall = (u.left_limit() & ~u).value(t1) == 1
        x_fall = (x.left_limit() & ~x).value(t2) == 1
        if u_rise and x_rise:
            kind = "rising"
        elif u_fall and x_fall:
            kind = "falling"
    return max(Fraction(0), t2 - t1), kind


def flagged_earliest_in(sets: IntervalSet, bound: Fraction, bound_strict: bool
                        ) -> Optional[tuple[Fraction, bool]]:
    """Infimum of {t in sets : t >= bound (or > if strict)} as
    (value, attained); None when that set is empty."""
    for iv in sets.intervals:
        if iv.lo is None or bound > iv.lo:
            t, attained = bound, not bound_strict
        elif bound == iv.lo:
            t, attained = bound, not bound_strict and iv.lo_closed
        else:
            t, attained = iv.lo, iv.lo_closed
        if iv.hi is not None:
            if t > iv.hi:
                continue
            if t == iv.hi and not (attained and iv.hi_closed):
                continue
        return t, attained
    return None


def margin_witness(u: StepFunction, model: DelayModel) -> Optional[StepFunction]:
    """The switch-window witness by search: propagate the chain of infima
    with strictness flags, then realise it by adding a margin at every
    unattained infimum, halving the margin up to 64 times until the pick
    is a member by the model's clauses; None when none is found."""
    gaps = {"rise": model.a.delta_r, "fall": model.a.delta_f} if model.hold else None
    permits = model.permits(u)
    if permits is not None:
        permits = {"rise": permits[0].support(), "fall": permits[1].support()}

    def member(x: StepFunction) -> bool:
        return not any(vset for vset, _ in model.clauses(u, x))

    windows = forced_switch_windows(u, Bdc(model.p).sandwich(u))
    if not windows:
        x = StepFunction.const(u.leading)
        return x if member(x) else None

    def propagate(realize_margin: Optional[Fraction]) -> Optional[list[Fraction]]:
        times: list[Fraction] = []
        bound, strict = Fraction(0), False
        for w in windows:
            if bound < w.lo:
                bound, strict = w.lo, False
            if permits is not None:
                hit = flagged_earliest_in(permits[w.kind], bound, strict)
                if hit is None:
                    return None
                t, attained = hit
            else:
                t, attained = bound, not strict
            if t > w.hi or (t == w.hi and not attained):
                return None
            if realize_margin is not None and not attained:
                t = t + realize_margin
                if t > w.hi:
                    return None
                if permits is not None and not permits[w.kind].contains(t):
                    return None
            times.append(t)
            gap = gaps[w.kind] if gaps else Fraction(0)
            bound, strict = t + gap, True
        return times

    if propagate(None) is None:
        return None
    margin = max(w.hi for w in windows) + 1
    for _ in range(64):
        margin = margin / 2
        times = propagate(margin)
        if times is None:
            continue
        x = StepFunction.from_toggles(u.leading, times)
        if member(x):
            return x
    return None


def boolean_forced_cells(bounds: Optional[tuple[StepFunction, StepFunction]],
                         points: Sequence) -> Optional[list[Optional[int]]]:
    """The grid's forced cells by Boolean operations, one cell at a time:
    cell (-oo, p0), [p0, p1), ..., [pn, +oo) is forced to 1 where
    lower & cell is nonzero and to 0 where cell & ~upper is; None for the
    list when some cell is forced both ways."""
    if bounds is None:
        return [None] * (len(points) + 1)
    lower, not_upper = bounds[0], ~bounds[1]
    cells: list[Optional[int]] = []
    for lo, hi in zip([None, *points], [*points, None]):
        cell = StepFunction._from_toggles(int(lo is None), [t for t in (lo, hi) if t is not None])
        up, down = (lower & cell)._nonzero(), (cell & not_upper)._nonzero()
        if up and down:
            return None
        cells.append(1 if up else 0 if down else None)
    return cells


def dbridc_form_report(u: StepFunction, x: StepFunction, p: BdcParams,
                       form: str) -> CheckReport:
    """Membership under one of the equivalent shapes of the deterministic
    bounded relative inertial delay: 'a' the sandwich plus switch
    permits, 'b' the switch equalities, 'e' the closed recursion,
    'f' the derivative equation, 'g' the single tautology.

    The forms are provably equivalent; independent implementations
    cross-check each other on random traces.
    """
    model = Dbridc(p)
    k = timebase(chain(u.bps, x.bps, model._parameters()))
    model = _in_ticks(model, k)
    as_signal(u), as_signal(x)
    return _in_time(_form_report(u._to_ticks(k), x._to_ticks(k), model, form), k)


def _form_report(u: StepFunction, x: StepFunction, model: Dbridc, form: str) -> CheckReport:
    p = model.p
    a = window_inf(u, p.d_r, p.m_r)
    b0 = window_inf(~u, p.d_f, p.m_f)
    upper = window_sup(u, p.d_f, p.m_f)
    xl = x.left_limit()
    if form == "a":
        return _report([
            _le(a, x, "lower-bound"),
            _le(x, upper, "upper-bound"),
            _le(~xl & x, a, "rise-permit"),
            _le(xl & ~x, b0, "fall-permit"),
        ])
    if form == "b":
        return _report(model.clauses(u, x))
    if form == "e":
        return _report([_eq(x, a | (xl & upper), "recursion")])
    if form == "f":
        return _report([_eq(x.derivative(), (~xl & a) | (xl & b0),
                            "derivative-equation")])
    if form == "g":
        big = ((~xl & x & a) | (xl & ~x & b0)
               | (~xl & ~x & ~a) | (xl & x & ~b0))
        return _report([_eq(big, StepFunction.const(1), "tautology")])
    raise ValueError(f"unknown form {form!r}; expected one of a, b, e, f, g")
