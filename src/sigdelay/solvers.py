"""Solution construction and the independent brute-force oracle.

Deterministic conditions get direct solvers (a translation, a window
evaluation, or an event form).  Nondeterministic conditions are
represented three ways: exact extremal members, a constructive sampler
built on the representation  x = lower or (free . upper),  and
exhaustive enumeration of all grid-toggle candidates filtered through
the membership checkers.  The enumeration doubles as the oracle for
set-level claims (uniqueness, composition): it generates candidates
independently and keeps only those the checker accepts.

``probe_points`` / ``brute_*`` evaluate signals and sliding windows
directly from toggle lists, with no interval machinery; the test suite
uses them to cross-check every exact operation at a dense set of
instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .stepfn import (
    IntervalSet,
    RationalLike,
    StepFunction,
    _as_offset,
    as_signal,
    as_time,
    window_inf,
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
    """A member of the bounded delay's solution set: lower or (free . upper).

    Every choice of the free signal yields a member; free = 0 gives the
    lower bound and free = 1 the upper bound.
    """
    lower, upper = bdc_bounds(u, p)
    as_signal(free)
    return lower | (free & upper)


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


def forced_switch_windows(u: StepFunction, p: BdcParams) -> list[SwitchWindow]:
    """Closed windows in which any solution of the bounded delay must place
    its switches, assuming the forced-1 and forced-0 regions alternate.

    Forced regions are supp(inf-window) and the zero set of the
    sup-window; between consecutive opposite regions exactly one switch
    must fall, anywhere in [end of one, start of the next].  The windows
    are built whether or not the parameters are consistent.
    """
    lower, upper = Bdc(p).sandwich(u)
    regions = []
    for iv in lower.support():
        regions.append((iv, 1))
    for iv in upper.zero_set():
        regions.append((iv, 0))
    regions.sort(key=lambda r: (1, r[0].lo) if r[0].lo is not None else (0, Fraction(0)))
    v = u.leading
    windows: list[SwitchWindow] = []
    prev_end: Optional[Fraction] = None
    for iv, bit in regions:
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


def _earliest_in(sets: IntervalSet, bound: Fraction, bound_strict: bool
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


def alternating_witness(u: StepFunction, model: DelayModel
                        ) -> Optional[StepFunction]:
    """Decide solvability for an alternating-region input by exact forward
    propagation of switch-window infima; returns a verified member, or
    None when the window chain is infeasible.

    Handles the models with bounded-delay parameters ``p``: Bdc, Baidc,
    Bridc and Dbridc, with or without a satisfied consistency condition
    (consistency quantifies over all inputs; this decides one input).
    Their switch permits and closed hold windows narrow the chain.
    Infeasibility is exact: any solution must place its k-th forced
    switch inside the k-th window (and permit set), above the propagated
    bound -- the hold constraints apply to all later opposite switches,
    so intermediate extra switches cannot relax the chain.
    """
    if not isinstance(model, _Bounded):
        raise TypeError(f"alternating_witness does not handle {format_model(model)!r}")
    gaps = {"rise": model.a.delta_r, "fall": model.a.delta_f} if model.hold else None
    permits = model.permits(u)
    if permits is not None:
        permits = {"rise": permits[0].support(), "fall": permits[1].support()}

    side = model._input_side(u)

    def member(x: StepFunction) -> bool:
        # clause by clause without the consistency gate: this judges one input
        return not any(vset for vset, _ in model._judge(side, x))

    windows = forced_switch_windows(u, model.p)
    if not windows:
        x = StepFunction.const(u.leading)
        return x if member(x) else None

    def propagate(realize_margin: Optional[Fraction]) -> Optional[list[Fraction]]:
        """Infima chain; with a margin, also pick concrete times."""
        times: list[Fraction] = []
        bound, strict = Fraction(0), False
        for w in windows:
            if bound < w.lo:
                bound, strict = w.lo, False
            if permits is not None:
                hit = _earliest_in(permits[w.kind], bound, strict)
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
    # feasible: realize with a concrete margin at unattained infima
    span = max(w.hi for w in windows) + 1
    margin = span  # shrink geometrically until a verified pick exists
    for _ in range(64):
        margin = margin / 2
        times = propagate(margin)
        if times is None:
            continue
        x = StepFunction.from_toggles(u.leading, times)
        if member(x):
            return x
    return None


def sample_bridc(u: StepFunction, p: BdcParams, r: RicParams,
                 free: StepFunction, retries: int = 8) -> StepFunction:
    """A verified member of the bounded relative inertial delay.

    Tries the deterministic sweep, then bounded-delay samples driven by
    the free signal, then switch-window propagation; every candidate is
    filtered through the checker, and exhaustion raises instead of
    returning an unverified trace.
    """
    model = Bridc(p, r)
    model.require_consistent()
    as_signal(u), as_signal(free)

    def verified(x: Optional[StepFunction]) -> Optional[StepFunction]:
        if x is None:
            return None
        return x if check_membership(u, x, model).ok else None

    candidates: list[Callable[[], Optional[StepFunction]]] = [
        lambda: solve_dbridc(u, p),
        lambda: sample_bdc(u, p, free),
        lambda: sample_bdc(u, p, StepFunction.const(0)),
        lambda: sample_bdc(u, p, StepFunction.const(1)),
        lambda: sample_bdc(u, p, free & window_inf(u, r.delta_r, r.mu_r)),
        lambda: alternating_witness(u, model),
    ]
    tried = 0
    for make in candidates:
        if tried >= retries:
            break
        tried += 1
        try:
            x = verified(make())
        except (ValueError, TypeError):
            continue
        if x is not None:
            return x
    raise SampleRetryError(
        f"no verified member found in {tried} attempts for {format_model(model)!r}")


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


def _extremum_on(f: StepFunction, lo: Fraction, hi: Optional[Fraction],
                 want_max: bool) -> int:
    """Max (or min) of f over [lo, hi); hi None means +oo."""
    probes = [lo]
    inner = [b for b in f.bps if b > lo and (hi is None or b < hi)]
    probes += inner
    walls = [lo] + inner + ([hi] if hi is not None else [inner[-1] + 1 if inner else lo + 1])
    for a, b in zip(walls, walls[1:]):
        probes.append((a + b) / 2)
    if hi is None:
        probes.append(walls[-1] + 1)
    vals = [f.value(t) for t in probes]
    return max(vals) if want_max else min(vals)


def _forced_cells(points: Sequence[Fraction],
                  lower: Optional[StepFunction],
                  upper: Optional[StepFunction]) -> Optional[list[Optional[int]]]:
    """Per-cell forced values from a sandwich; None when no solution fits."""
    cells: list[Optional[int]] = []
    for i, g in enumerate(points):
        hi = points[i + 1] if i + 1 < len(points) else None
        forced: Optional[int] = None
        if lower is not None and _extremum_on(lower, g, hi, want_max=True) == 1:
            forced = 1
        if upper is not None and _extremum_on(upper, g, hi, want_max=False) == 0:
            if forced == 1:
                return None
            forced = 0
        cells.append(forced)
    return cells


def _oracle_constraints(u: Optional[StepFunction], model: DelayModel,
                        points: Sequence[Fraction]):
    """(x0_forced, cells, rise_permit, fall_permit); cells None = infeasible.

    Only necessary conditions of membership prune: the model's sandwich
    and switch permits.  They never come from solve_dbridc or
    solve_sdbridc, so grid uniqueness checks stay independent of them.
    """
    lower, upper = model.sandwich(u) or (None, None)
    rise, fall = model.permits(u) or (None, None)
    x0: Optional[int] = None
    if lower is not None:
        if lower.leading == 1:
            x0 = 1
        if upper.leading == 0:
            if x0 == 1:
                return None, None, None, None
            x0 = 0
    cells = _forced_cells(points, lower, upper)
    return x0, cells, rise, fall


class _Enough(Exception):
    pass


def enumerate_grid_solutions(u: Optional[StepFunction], model: DelayModel,
                             grid: GridSpec,
                             stop_after: Optional[int] = None) -> list[StepFunction]:
    """All signals with toggles on the grid in [0, horizon] (final value
    extended to +oo) that the membership checker accepts.

    Candidate generation prunes only by conditions that are necessary
    for membership (forced sandwich cells, switch-permit instants), so
    the filtered family is exactly the accepted subset of the full grid
    family.  ``stop_after`` truncates the search once that many members
    are found (existence queries).  Raises BudgetExceededError when the
    candidate budget runs out.
    """
    points = grid.points()
    if u is not None:
        as_signal(u)
        on_grid = set(points)
        if any(b not in on_grid and b <= grid.horizon for b in u.bps):
            raise ValueError("input breakpoints must lie on the grid")
    x0_forced, cells, rise, fall = _oracle_constraints(u, model, points)
    if cells is None:
        return []
    # may_switch[v][i]: may x switch to v at points[i]; None where no permit limits it
    may_switch = [None if permit is None else [permit.value(g) for g in points]
                  for permit in (fall, rise)]

    solutions = []
    budget = grid.max_candidates

    def check(x0: int, toggles: tuple[Fraction, ...]) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BudgetExceededError("grid enumeration budget exceeded")
        x = StepFunction._from_toggles(x0, toggles)
        if check_membership(u, x, model).ok:
            solutions.append(x)
            if stop_after is not None and len(solutions) >= stop_after:
                raise _Enough

    def extend(i: int, v: int, x0: int, toggles: list[Fraction]) -> None:
        if i == len(points):
            check(x0, tuple(toggles))
            return
        forced = cells[i]
        for nv in (v, 1 - v):
            if forced is not None and nv != forced:
                continue
            if nv != v:
                if len(toggles) >= grid.max_toggles:
                    continue
                permit = may_switch[nv]
                if permit is not None and permit[i] == 0:
                    continue
                toggles.append(points[i])
                extend(i + 1, nv, x0, toggles)
                toggles.pop()
            else:
                extend(i + 1, nv, x0, toggles)

    starts = (x0_forced,) if x0_forced is not None else (0, 1)
    try:
        for x0 in starts:
            extend(0, x0, x0, [])
    except _Enough:
        pass
    solutions.sort(key=lambda x: (x.leading, x.bps))
    return solutions


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


def probe_points(fns: Sequence[StepFunction],
                 offsets: Sequence[RationalLike] = (0,)) -> list[Fraction]:
    """A probe set dense enough to distinguish any two step functions whose
    breakpoints come from the given ones shifted by the given offsets:
    every shifted breakpoint, every midpoint between consecutive ones,
    and a point on each unbounded side."""
    base = sorted({b + as_time(o) for f in fns for b in f.bps for o in offsets}
                  | {Fraction(0)})
    pts = list(base)
    pts += [(a + b) / 2 for a, b in zip(base, base[1:])]
    pts += [base[0] - 1, base[-1] + 1]
    return sorted(set(pts))
