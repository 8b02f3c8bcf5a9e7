"""Solution construction and the independent brute-force oracle.

Deterministic conditions get direct solvers (a translation, a window
evaluation, or an event form).  Nondeterministic conditions are
represented four ways: exact extremal members, one sampler that judges
each model's own candidates, the exact switch-window witness of the
bounded family (its earliest schedule, strict bounds counted as
infinitesimals, realised in one pass), and exhaustive enumeration of all
grid-toggle candidates filtered through the membership checkers.  The
enumeration doubles as the oracle for set-level claims (uniqueness,
composition): it generates candidates independently and keeps only those
the checker accepts.  It steps from switch to switch and skips only
candidates that break a necessary condition of membership: a cell forced
by the model's sandwich, a switch permit, or the hold gap of absolute
inertia after a switch.

``brute_*`` evaluate signals and sliding windows directly from toggle
lists, with no interval machinery; the test suite uses them to
cross-check every exact operation at a dense set of instants.  Nothing
in the library calls them.  They stay here because the benchmark's
oracle (``bench/oracle.py``) reads them from this module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .stepfn import (
    Interval,
    IntervalSet,
    RationalLike,
    StepFunction,
    _as_offset,
    _to_ticks,
    as_signal,
    as_time,
)
from .conditions import (
    Bdc,
    BdcParams,
    Bridc,
    Dbridc,
    DelayModel,
    RicParams,
    SdbridcPrime,
    _Bounded,
    _permit_windows,
    _prepare,
    _switch_hits,
    check_membership,
    format_model,
)


class BudgetExceededError(RuntimeError):
    """Enumeration or retry budget ran out before an answer was reached."""


class SampleRetryError(RuntimeError):
    """No verified member was found within the retry budget."""


# ---------------------------------------------------------------------------
# Deterministic solvers
# ---------------------------------------------------------------------------

def solve_fixed(u: StepFunction, d: RationalLike) -> StepFunction:
    """The pure delay: x(t) = u(t-d), d >= 0."""
    d = _as_offset(d)
    if d < 0:
        raise ValueError("fixed delay needs d >= 0")
    return as_signal(u).shift(d)


def bdc_bounds(u: StepFunction, p: BdcParams) -> tuple[StepFunction, StepFunction]:
    """Extremal members (windowed AND, windowed OR) of the bounded delay."""
    model = Bdc(p)
    model.require_consistent()
    as_signal(u)
    return model.sandwich(u)


def sample_bdc(u: StepFunction, p: BdcParams, free: StepFunction) -> StepFunction:
    """A verified member of the bounded delay's solution set, by ``_sample``:
    lower or (free . upper).

    Every choice of the free signal yields a member; free = 0 gives the
    lower bound and free = 1 the upper bound.
    """
    return _sample(u, Bdc(p), free, 1)


def solve_dbridc(u: StepFunction, p: BdcParams) -> StepFunction:
    """Unique solution of the deterministic bounded relative inertial delay.

    x is 1 where  a = inf-window of u  is 1, 0 where  b0 = inf-window of
    not-u  is 1 and holds its previous value elsewhere; before time 0 it
    equals u.  Computed by the model's event form, one step per switch of u.
    """
    return Dbridc(p).solve(u)


def solve_sdbridc(u: StepFunction, d: RationalLike) -> StepFunction:
    """Unique solution with x(0-0) = u(0-0) of the symmetric deterministic
    variant: x toggles toward u(t-0) exactly when the open lookback window
    (t-d, t) contains no input switch.  Computed by the model's event form,
    one step per switch of u."""
    return SdbridcPrime(d).solve(u)  # SdbridcPrime checks d > 0


# ---------------------------------------------------------------------------
# Switch-window propagation for alternating inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchWindow:
    kind: str  # "rise" | "fall"
    lo: Fraction
    hi: Fraction


def _forced_regions(lower: StepFunction, upper: StepFunction) -> list[tuple[Interval, int]]:
    """Where the sandwich lower <= x <= upper forces x: each interval of
    the lower bound's support labelled 1 and each interval of the upper
    bound's zero set labelled 0, sorted by lower end with -oo first."""
    regions = [(iv, 1) for iv in lower.support()] + [(iv, 0) for iv in upper.zero_set()]
    regions.sort(key=lambda r: (1, r[0].lo) if r[0].lo is not None else (0, 0))
    return regions


def forced_switch_windows(u: StepFunction, sandwich: tuple[StepFunction, StepFunction]
                          ) -> list[SwitchWindow]:
    """Closed windows in which any member with the bounds ``sandwich`` of
    input u must place its switches, assuming the forced-1 and forced-0
    regions alternate: the support of the lower bound and the zero set of
    the upper bound.  Between consecutive opposite regions exactly one
    switch must fall, anywhere in [end of one, start of the next].
    """
    v = u.leading
    windows: list[SwitchWindow] = []
    prev_end: Optional[Fraction] = None
    for iv, bit in _forced_regions(*sandwich):
        if bit == v:
            # same-value region: no switch needed, it only pins the floor
            prev_end = iv.hi
            if iv.hi is None:
                break
            continue
        if iv.lo is None:
            raise ValueError("forced regions do not alternate from the initial value")
        lo = prev_end if prev_end is not None else Fraction(0)
        windows.append(SwitchWindow("rise" if bit == 1 else "fall", lo, iv.lo))
        v = bit
        prev_end = iv.hi
        if iv.hi is None:
            break
    return windows


def _earliest_in(sets: IntervalSet, bound: tuple[Fraction, int]
                 ) -> Optional[tuple[Fraction, int]]:
    """The earliest time of ``sets`` at or after ``bound``; None when there is
    none.  A time (v, k) stands for v + k*eps with an infinitesimal eps > 0,
    so an open lower end lo gives (lo, 1)."""
    v, k = bound
    for iv in sets.intervals:
        t = bound
        if iv.lo is not None and v <= iv.lo:
            t = (iv.lo, (k if v == iv.lo else 0) or int(not iv.lo_closed))
        if iv.hi is None or t[0] < iv.hi or (t == (iv.hi, 0) and iv.hi_closed):
            return t
    return None


def alternating_witness(u: StepFunction, model: DelayModel
                        ) -> Optional[StepFunction]:
    """Decide solvability for an alternating-region input by exact forward
    propagation of switch-window infima; returns a verified member, or
    None when the window chain is infeasible.

    Handles the models with bounded-delay parameters ``p``: Bdc, Baidc,
    Bridc and Dbridc, with or without a satisfied consistency condition
    (consistency quantifies over all inputs; this decides one input), so
    its input side is built on the Fractions, without ``_prepare``'s gate.
    """
    if not isinstance(model, _Bounded):
        raise TypeError(f"alternating_witness does not handle {format_model(model)!r}")
    return _witness(u, model, model._input_side(as_signal(u)))


def _witness(u: StepFunction, model: _Bounded, side) -> Optional[StepFunction]:
    """``alternating_witness`` on the input side ``side`` of u, in the unit
    that u, the model, the side and the member returned share.

    The model's switch permits, whose windows are built here from the
    side's specs, and its closed hold windows narrow the chain.
    Infeasibility is exact: any solution must place its k-th forced
    switch inside the k-th window (and permit set), above the propagated
    bound -- the hold constraints apply to all later opposite switches,
    so intermediate extra switches cannot relax the chain.

    The chain is the earliest schedule of the windows, each time kept as
    v + k*eps for an infinitesimal eps > 0: a strict bound (t + gap, or
    the next switch after t) adds 1 to k, and a bound raised to a
    window's lower end resets k to 0.  It is realised once with the
    exact Fraction eps = delta / (n + 1), where delta is the least
    distance between the distinct times the pass compared and n the
    chain length: since k <= n, each time lies in [v, v + delta) and
    every comparison keeps its outcome.  The member test then runs once
    on that realisation, on ``side``.
    """
    gaps = {"rise": model.a.delta_r, "fall": model.a.delta_f} if model.hold else None
    sandwich, permits, _ = side
    compared = {Fraction(0)}
    if permits is not None:
        rise, fall = _permit_windows(*permits)
        permits = {"rise": rise.support(), "fall": fall.support()}
        compared.update(end for s in permits.values() for iv in s.intervals
                        for end in (iv.lo, iv.hi) if end is not None)
    chain: list[tuple[Fraction, int]] = []
    bound = (Fraction(0), 0)
    for w in forced_switch_windows(u, sandwich):
        compared.update((w.lo, w.hi, bound[0]))
        if bound[0] < w.lo:
            bound = (w.lo, 0)
        t = bound if permits is None else _earliest_in(permits[w.kind], bound)
        if t is None or t[0] > w.hi or (t[0] == w.hi and t[1]):
            return None
        chain.append(t)
        compared.add(t[0])
        bound = (t[0] + (gaps[w.kind] if gaps else 0), t[1] + 1)
    ends = sorted(compared)
    delta = min((b - a for a, b in zip(ends, ends[1:])), default=Fraction(1))
    eps = Fraction(delta, len(chain) + 1)  # exact: in ticks, delta is an int
    x = StepFunction.from_toggles(u.leading, [v + k * eps for v, k in chain])
    return None if any(f._nonzero() for f, _ in model._judge(side, x)) else x


def sample_bridc(u: StepFunction, p: BdcParams, r: RicParams,
                 free: StepFunction, retries: int = 8) -> StepFunction:
    """A verified member of the bounded relative inertial delay, by ``_sample``."""
    return _sample(u, Bridc(p, r), free, retries)


def _sample(u: StepFunction, model: DelayModel, free: StepFunction,
            retries: int) -> StepFunction:
    """A verified member of ``model`` for the input u: its ``_candidates``,
    then for a bounded model the switch-window witness, each counted
    against ``retries``.  Exhaustion raises, saying whether the budget ran
    out (the other models list only members) or the witness found none.
    A candidate's error propagates: none raises on a consistent model.
    The input is prepared once, in ticks over ``free``'s times, and each
    attempt reads its side: the checker judges a candidate in those ticks,
    the witness its own member, and only the member returned is scaled back.  Private,
    as the benchmark's tracer counts the checks under the public
    ``sample_bridc`` as its attempts."""
    model.require_consistent()  # first: ``sample`` reports it before a bad input
    k, ticked, u_ticks, side, _ = prepared = _prepare(u, model, None, free.bps)
    as_signal(free)
    tried = 0
    for x in islice(model._candidates(prepared, free._to_ticks(k)), max(retries, 0)):
        tried += 1
        if check_membership(u, x, model, _input=prepared).ok:
            return x._to_time(k)
    witness = isinstance(model, _Bounded)
    why = "the attempt budget ran out" + " before the switch-window witness was tried" * witness
    if witness and tried < retries:
        tried += 1
        x = _witness(u_ticks, ticked, side)
        if x is not None:
            return x._to_time(k)
        why = "the switch-window witness found no member"
    raise SampleRetryError(
        f"no verified member found in {tried} attempts for {format_model(model)!r}: {why}")


# ---------------------------------------------------------------------------
# Grid enumeration oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    step: Fraction
    horizon: Fraction
    max_toggles: int
    max_candidates: int = 200_000

    def __post_init__(self):
        object.__setattr__(self, "step", as_time(self.step))
        object.__setattr__(self, "horizon", as_time(self.horizon))
        if self.step <= 0 or self.horizon <= 0:
            raise ValueError("step and horizon must be positive")
        if (self.horizon / self.step).denominator != 1:
            raise ValueError("step must divide horizon")
        if self.max_toggles < 0:
            raise ValueError("max_toggles must be >= 0")

    def points(self) -> list[Fraction]:
        n = int(self.horizon / self.step)
        return [i * self.step for i in range(n + 1)]


def _forced_cells(bounds: Optional[tuple[StepFunction, StepFunction]],
                  points: Sequence) -> Optional[list[Optional[int]]]:
    """The value x must take on each cell (-oo, p0), [p0, p1), ..., [pn, +oo),
    None where it is free; None for the list when no solution fits.

    One pass over the forced regions of the model's sandwich ``bounds``
    (``_forced_regions``): a region forces its value on every cell it
    meets, from the cell holding its lower end (or just right of it) to
    the one holding its upper end (or just left of it, when that end is
    open).  This sandwich is one of the three necessary conditions of
    membership the enumeration prunes by; the model's switch permits and
    its hold gaps are the others.  None of them comes from solve_dbridc
    or solve_sdbridc, so grid uniqueness checks stay independent of them.
    """
    cells: list[Optional[int]] = [None] * (len(points) + 1)
    if bounds is None:
        return cells
    for iv, bit in _forced_regions(*bounds):
        first = 0 if iv.lo is None else bisect_right(points, iv.lo)
        last = len(points) if iv.hi is None else \
            (bisect_right if iv.hi_closed else bisect_left)(points, iv.hi)
        for c in range(first, last + 1):
            if cells[c] == 1 - bit:
                return None
            cells[c] = bit
    return cells


def _may_switch(permits, times: Sequence) -> list:
    """may[v][i]: may x switch to v at ``times[i]`` under an input side's
    permits (u, specs), as the checker probes u for a signal that switches
    to v at each of the increasing ``times``; [None, None] without permits."""
    if permits is None:
        return [None, None]
    n, may = len(times), []
    for v in (0, 1):
        train = StepFunction._canon(1 - v, times, (v,) * n, (1 - v,) * n)
        barred = set(_switch_hits(train, permits, None, None)[0][v])
        may.append([t not in barred for t in times])
    return may


def enumerate_grid_solutions(u: Optional[StepFunction], model: DelayModel,
                             grid: GridSpec,
                             stop_after: Optional[int] = None) -> list[StepFunction]:
    """All signals with toggles on the grid in [0, horizon] (final value
    extended to +oo) that the membership checker accepts.

    The search steps from switch to switch: from the cell where x took
    the value v it checks the candidate with no further switch, when no
    later cell is forced to 1 - v, and then tries each next switch up to
    the last cell where x may still hold v.  A next switch must be
    allowed by the model's switch permit at its point and, for a model
    with hold windows, lie beyond the hold gap after the previous switch
    (delta_r after a rise, delta_f after a fall; more than delta for
    closed windows, at least delta for half-open ones).  The forced
    sandwich cells, the permits and the hold gaps are necessary
    conditions of membership and the checker judges every candidate left,
    so the result is exactly the accepted subset of the full grid family.
    ``stop_after`` truncates the search once that many members are found
    (existence queries).  ``max_candidates`` charges only the candidates
    checked; BudgetExceededError is raised when it runs out.  Raises as
    the checker does on a missing input or inconsistent parameters,
    whatever the input.
    """
    points = grid.points()
    # the checker's input, in ticks: candidates are judged on them, members built on the points
    k, ticked, u_ticks, (bounds, permits, _), _ = prepared = _prepare(u, model, None, points)
    ticks = [_to_ticks(g, k) for g in points]  # ticks[1] is the step
    if u is not None:
        as_signal(u)
        if any(b % ticks[1] for b in u_ticks.bps if b <= ticks[-1]):  # off the grid
            raise ValueError("input breakpoints must lie on the grid")
    cells = _forced_cells(bounds, ticks)
    if cells is None:
        return []
    n = len(points)
    # first[w][c]: the first cell at or after c forced to w (n + 1: none)
    first = [[n + 1] * (n + 2), [n + 1] * (n + 2)]
    for c in reversed(range(n + 1)):
        for w in (0, 1):
            first[w][c] = c if cells[c] == w else first[w][c + 1]
    may_switch = _may_switch(permits, ticks)
    # gap[v]: how long x holds v after switching to it (closed windows: a
    # next switch lies past the gap; half-open: at its end or past it)
    gap = None if model.hold is None else (ticked.a.delta_f, ticked.a.delta_r)
    past = bisect_right if model.hold else bisect_left

    # depth first, one stack entry per switch: (first cell of the current
    # value, that value, x0, the switch indices so far); a next switch at
    # points[i] makes cell i + 1 the first of the opposite value.  Children
    # are pushed by rising i: of two candidates, the one that stays at the
    # first point where they differ is checked first.
    found = []
    budget = grid.max_candidates
    stack = [(0, x0, x0, ()) for x0 in (1, 0)]
    while stack:
        c, v, x0, toggles = stack.pop()
        end = first[1 - v][c]
        if end > n:
            budget -= 1
            if budget < 0:
                raise BudgetExceededError("grid enumeration budget exceeded")
            x = StepFunction._from_toggles(x0, [ticks[i] for i in toggles])
            if check_membership(u, x, model, _input=prepared).ok:
                found.append((x0, toggles))
                if stop_after is not None and len(found) >= stop_after:
                    break
        if len(toggles) >= grid.max_toggles:
            continue
        lo = c
        if gap is not None and toggles:
            lo = max(c, past(ticks, ticks[toggles[-1]] + gap[v]))
        permit = may_switch[1 - v]
        for i in range(lo, min(end, n)):
            if cells[i + 1] != v and (permit is None or permit[i]):
                stack.append((i + 1, 1 - v, x0, toggles + (i,)))
    found.sort()  # on grid indices: the points rise with them
    return [StepFunction._from_toggles(x0, [points[i] for i in toggles]) for x0, toggles in found]


# ---------------------------------------------------------------------------
# Brute-force probe evaluation (the grid oracle's primitive layer)
# ---------------------------------------------------------------------------

def brute_value(initial: int, toggles: Sequence[Fraction], t: Fraction) -> int:
    """Right-continuous evaluation straight from a toggle list."""
    flips = sum(1 for s in toggles if s <= t)
    return initial ^ (flips & 1)


def brute_left_value(initial: int, toggles: Sequence[Fraction], t: Fraction) -> int:
    flips = sum(1 for s in toggles if s < t)
    return initial ^ (flips & 1)


def brute_window(initial: int, toggles: Sequence[Fraction], op: str,
                 lo: Fraction, hi: Fraction,
                 include_lo: bool, include_hi: bool) -> int:
    """inf/sup of a right-continuous toggle signal over <lo, hi> by scanning
    every constant piece the window intersects.

    Right continuity makes the closure at lo irrelevant (the value at lo
    is also the value just right of it); the closure at hi is not.
    """
    if lo > hi or (lo == hi and not (include_lo and include_hi)):
        return 1 if op == "inf" else 0
    inner = [s for s in toggles if lo < s < hi]
    walls = [lo] + inner + [hi]
    vals = [brute_value(initial, toggles, lo)]
    vals += [brute_value(initial, toggles, s) for s in inner]
    vals += [brute_value(initial, toggles, (a + b) / 2)
             for a, b in zip(walls, walls[1:])]
    if lo != hi:
        vals.append(brute_value(initial, toggles, hi) if include_hi
                    else brute_left_value(initial, toggles, hi))
    return min(vals) if op == "inf" else max(vals)
