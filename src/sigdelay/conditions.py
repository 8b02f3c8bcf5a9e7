"""Delay conditions: parameter tuples, consistency predicates, checkers.

A delay condition relates the input u and output x of a delay buffer by
a system of pointwise inequalities between sliding-window combinations
of the two signals.  Membership is decided exactly: each clause
``lhs <= rhs`` is turned into the step function lhs . not(rhs), whose
support is the violation set; the condition holds iff every violation
set is empty.  ``first_violation`` reports the infimum of the earliest
one, with a flag saying whether it is attained.  Each check runs on
integer ticks over the timebase of its signals, parameters and horizon
(``stepfn.timebase``) and reports its times as Fractions.

Each model judges a trace in two stages: ``_input_side(u)`` builds the
triple ``(sandwich, permits, own)`` from the input alone (the bounds
lower <= x <= upper, the rise and fall permits, and whatever else its
clauses need; None where it has none), and ``_judge(side, x)`` the
clauses from that and the output.  Input windows are built there only:
the checker, the grid pruning and the switch-window witness read them
from a side, and ``_input_stage`` keeps the last one it built.

Consistency predicates (cc_*) are the closed-form parameter
inequalities equivalent to "a solution exists for every input".  A
checker invoked with inconsistent parameters raises
InconsistentModelError rather than reporting a trace failure, so
callers can tell a malformed model from a bad trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Callable, ClassVar, Optional, Sequence, Union, get_args

from .stepfn import (
    Interval,
    IntervalSet,
    RationalLike,
    StepFunction,
    _as_offset,
    _to_ticks,
    _to_time,
    as_signal,
    as_time,
    format_time,
    timebase,
    window,
    window_inf,
    window_inf_halfopen,
    window_sup,
    window_sup_halfopen,
)


class InconsistentModelError(ValueError):
    """The model's consistency condition fails; no trace can be judged."""


# ---------------------------------------------------------------------------
# Parameter tuples
# ---------------------------------------------------------------------------

class _RangeError(ValueError):
    """Parameters out of range: ``rule`` is what they need, and the message
    adds the parameter tuple; ``parse_model`` names its spec text instead."""

    def __init__(self, rule: str, params):
        super().__init__(f"{rule}, got {params}")
        self.rule = rule


@dataclass(frozen=True)
class BdcParams:
    """Memories (thresholds for cancellation) and upper delay bounds.

    The lower bounds d_f - m_f (rising) and d_r - m_r (falling) are
    derived, not stored.
    """

    m_r: Fraction
    d_r: Fraction
    m_f: Fraction
    d_f: Fraction

    def __post_init__(self):
        for name in ("m_r", "d_r", "m_f", "d_f"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if not (0 <= self.m_r <= self.d_r and 0 <= self.m_f <= self.d_f):
            raise _RangeError("need 0 <= m_r <= d_r and 0 <= m_f <= d_f", self)


@dataclass(frozen=True)
class AicParams:
    """Absolute inertia: minimum hold times after a rise / a fall."""

    delta_r: Fraction
    delta_f: Fraction

    def __post_init__(self):
        for name in ("delta_r", "delta_f"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if self.delta_r < 0 or self.delta_f < 0:
            raise _RangeError("inertia parameters must be >= 0", self)


@dataclass(frozen=True)
class RicParams:
    """Relative inertia: a switch at t needs the input held over the
    window [t-delta, t-delta+mu]."""

    mu_r: Fraction
    delta_r: Fraction
    mu_f: Fraction
    delta_f: Fraction

    def __post_init__(self):
        for name in ("mu_r", "delta_r", "mu_f", "delta_f"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if not (0 <= self.mu_r <= self.delta_r and 0 <= self.mu_f <= self.delta_f):
            raise _RangeError("need 0 <= mu <= delta for both edges", self)


# ---------------------------------------------------------------------------
# Delay models: each class is the model's one registry entry
# ---------------------------------------------------------------------------

class _Model:
    """What a delay model defines.

    ``keyword`` and ``keys`` give its spec text ``keyword key=value ...``,
    one key per number of the dataclass fields in order, parameter tuples
    flattened.  ``solve`` maps an input to the unique output and
    ``events(leading)`` builds the element's event form (``_Events``);
    both are None for a model that does not determine its output.

    ``clauses(u, x)`` is ``_judge(_input_side(u), x)``: the input stage
    builds the triple ``(sandwich, permits, own)`` from u alone, the output
    stage the clause list.  By default the side holds the declared
    ``sandwich`` lower <= x <= upper and switch ``permits`` (own None), and
    the clauses come from them, then from the hold windows on the
    ``AicParams`` field ``a`` when ``hold`` is set (True: closed windows
    [t, t+delta]; False: half-open [t, t+delta)).  A model whose clauses
    take another shape overrides both stages, keeping what it has of both.
    """

    keyword: ClassVar[str]
    keys: ClassVar[tuple[str, ...]] = ()
    needs_input: ClassVar[bool] = True
    hold: ClassVar[Optional[bool]] = None
    solve: ClassVar[Optional[Callable[[StepFunction], StepFunction]]] = None
    events: ClassVar[Optional[Callable[[int], "_Events"]]] = None
    _groups: ClassVar[tuple] = ()   # per field: (name, parameter class or None, its field names)
    _getters: ClassVar[tuple] = ()  # per key: its value's attribute getter

    def consistency(self) -> Optional[tuple[str, bool, Optional[str]]]:
        """(predicate name, result, satisfied clause), or None when the
        parameters are consistent by construction."""
        return None

    def require_consistent(self) -> None:
        """Raise InconsistentModelError, naming the model, if it is inconsistent."""
        cc = self.consistency()
        if cc is not None and not cc[1]:
            raise InconsistentModelError(f"{cc[0]} fails for {format_model(self)!r}")

    def sandwich(self, u: StepFunction) -> Optional[tuple[StepFunction, StepFunction]]:
        """Bounds lower <= x <= upper that every member x obeys."""
        return None

    def permits(self, u: StepFunction) -> Optional[tuple[StepFunction, StepFunction]]:
        """Where a member may rise and where it may fall."""
        return None

    def clauses(self, u: Optional[StepFunction], x: StepFunction
                ) -> list[tuple[IntervalSet, str]]:
        """Violation set and name of every clause of the defining system,
        whether or not the parameters are consistent."""
        return self._judge(self._input_side(u), x)

    def _input_side(self, u: Optional[StepFunction]):
        """What the clauses need from the input alone: (sandwich, permits, own)."""
        return self.sandwich(u), self.permits(u), None

    def _judge(self, side, x: StepFunction) -> list[tuple[IntervalSet, str]]:
        """The clauses of the output x, given the input side ``side``."""
        bounds, permits, _ = side
        out = []
        if bounds is not None:
            out += [_le(bounds[0], x, "lower-bound"), _le(x, bounds[1], "upper-bound")]
        if permits is not None:
            out += [_le(x.rises(), permits[0], "rise-permit"),
                    _le(x.falls(), permits[1], "fall-permit")]
        if self.hold is not None:
            a = self.a
            hold1 = window(x, "inf", 0, a.delta_r, include_end=self.hold)
            hold0 = window(~x, "inf", 0, a.delta_f, include_end=self.hold)
            out += [_le(x.rises(), hold1, "rise-hold"), _le(x.falls(), hold0, "fall-hold")]
        return out

    def zero_lookback(self) -> bool:
        """Does the output at t depend on the input at t itself?"""
        return False

    def _parameters(self) -> list[Fraction]:
        """Every number of the spec, in key order."""
        return [get(self) for get in self._getters]


class _Formula(_Model):
    """A deterministic model given by its closed form x = solve(u)."""

    clause: ClassVar[str]

    def _input_side(self, u):
        x = self.solve(u)
        return (x, x), None, None

    def _judge(self, side, x):
        return [_eq(x, side[0][0], self.clause)]


class _Driven(_Model):
    """A deterministic model solved by feeding its event form every switch of u."""

    def solve(self, u):
        as_signal(u)
        form = self.events(u.leading)
        for s, bit in zip(u.bps, u.at):
            form.feed(s, bit)
        return StepFunction._from_toggles(u.leading, form.pending)


class _Events:
    """A deterministic delay element as an event form.

    ``feed(s, bit)`` takes the input's switch to ``bit`` at s, in time
    order.  ``pending`` holds, in time order, the output switches that the
    input up to s implies if it holds from then on, and ``value`` is the
    output after the last of them.  A feed cancels or adds switches only
    from s on, and for a positive-lookback model only after s; it returns
    the time of the switch it adds, if any.
    """

    def __init__(self, leading: int):
        self.pending: deque[Fraction] = deque()
        self.value = leading

    def _add(self, t: Fraction) -> Fraction:
        self.pending.append(t)
        self.value ^= 1
        return t

    def _cancel(self, t: Fraction, closed: bool) -> None:
        """Drop the pending switches after t, and at t when closed."""
        p = self.pending
        while p and (p[-1] > t or closed and p[-1] == t):
            p.pop()
            self.value ^= 1


class _Transport(_Events):
    """fixed: every input switch at s reappears at s + d."""

    def __init__(self, leading: int, d: Fraction):
        super().__init__(leading)
        self.d = d

    def feed(self, s, bit):
        return self._add(s + self.d)


class _WindowEdges(_Events):
    """wand/wor: a switch to the dominant value (0 for wand, 1 for wor) at s
    reaches the output with the first window that sees it, at s + d - m,
    and merges with any later pending switch; a switch away from it
    reaches the output once the whole window has passed it, at s + d."""

    def __init__(self, leading: int, m: Fraction, d: Fraction, dominant: int):
        super().__init__(leading)
        self.m, self.d, self.dominant = m, d, dominant

    def feed(self, s, bit):
        if bit != self.dominant:
            return self._add(s + self.d)
        cut = s + self.d - self.m
        self._cancel(cut, closed=True)
        return self._add(cut) if self.value != bit else None


class _SharedWindow(_Events):
    """dbridc: an input rise at s sets the output at s + d_r unless the
    input falls again by s + m_r; a fall resets it at s + d_f unless the
    input rises again by s + m_f.  The output holds in between, so a set
    or reset that finds it at its value adds no switch."""

    def __init__(self, leading: int, p: BdcParams):
        super().__init__(leading)
        self.p = p
        self.last: Optional[Fraction] = None  # the latest input switch
        self.added = False                    # did it add the last pending switch

    def feed(self, s, bit):
        p = self.p
        # the memory of the previous, opposite switch and this switch's delay
        memory, delay = (p.m_f, p.d_r) if bit else (p.m_r, p.d_f)
        if self.added and s - self.last <= memory:
            self.pending.pop()
            self.value ^= 1
        self.last = s
        self.added = self.value != bit
        return self._add(s + delay) if self.added else None


class _OpenWindow(_Events):
    """sdbridc: an input switch at s cancels the pending output switches in
    (s, s + d); if the output then differs from the input, it switches at
    s + d."""

    def __init__(self, leading: int, d: Fraction):
        super().__init__(leading)
        self.d = d

    def feed(self, s, bit):
        self._cancel(s, closed=False)
        return self._add(s + self.d) if self.value != bit else None


@dataclass(frozen=True)
class Sc(_Model):
    """Stability: if the input settles, the output settles to the same value.

    Representable signals always settle, so this compares final values;
    the violation starts where both have settled.
    """

    keyword = "sc"

    def _input_side(self, u):
        return None, None, (u.limit_at_infinity(), u.bps[-1:])  # final value, last switch

    def _judge(self, side, x):
        final, last = side[2]
        if final == x.limit_at_infinity():
            return [(IntervalSet(), "final-value")]
        settle = max([Fraction(0), *last, *x.bps[-1:]])
        return [(IntervalSet([Interval(settle, True, None, False)]), "final-value")]


@dataclass(frozen=True)
class Fixed(_Formula):
    """The pure delay x(t) = u(t-d)."""

    d: Fraction
    keyword = "fixed"
    keys = ("d",)
    clause = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "d", as_time(self.d))
        if self.d < 0:
            raise ValueError("fixed delay needs d >= 0")

    def solve(self, u):
        from . import solvers  # solvers imports this module
        return solvers.solve_fixed(u, self.d)

    def events(self, leading):
        return _Transport(leading, self.d)

    def zero_lookback(self):
        return self.d == 0


class _Bounded(_Model):
    """The bounded delay's sandwich between the windows of its parameters ``p``."""

    def consistency(self):
        return "CC_BDC", cc_bdc(self.p), None

    def sandwich(self, u):
        p = self.p
        return window_inf(u, p.d_r, p.m_r), window_sup(u, p.d_f, p.m_f)


@dataclass(frozen=True)
class Bdc(_Bounded):
    p: BdcParams
    keyword = "bdc"
    keys = ("mr", "dr", "mf", "df")


@dataclass(frozen=True)
class BdcPrime(_Model):
    """Upper bounded, lower unbounded delays: windows [t-d, t)."""

    d_r: Fraction
    d_f: Fraction
    keyword = "bdcprime"
    keys = ("dr", "df")

    def __post_init__(self):
        object.__setattr__(self, "d_r", as_time(self.d_r))
        object.__setattr__(self, "d_f", as_time(self.d_f))
        if self.d_r <= 0 or self.d_f <= 0:
            raise ValueError("BDC' needs d_r > 0 and d_f > 0")

    def sandwich(self, u):
        return window_inf_halfopen(u, self.d_r), window_sup_halfopen(u, self.d_f)


class _Window(_Formula):
    """The window delays: u over [t-d, t-d+m], 0 <= m <= d."""

    def __post_init__(self):
        object.__setattr__(self, "m", as_time(self.m))
        object.__setattr__(self, "d", as_time(self.d))
        if not 0 <= self.m <= self.d:
            raise ValueError("window delay needs 0 <= m <= d")

    def zero_lookback(self):
        return self.d == self.m


@dataclass(frozen=True)
class WindowAnd(_Window):
    """Deterministic delay x(t) = inf of u over [t-d, t-d+m]."""

    m: Fraction
    d: Fraction
    keyword = "wand"
    keys = ("m", "d")
    clause = "window-and"

    def solve(self, u):
        return window_inf(u, self.d, self.m)

    def events(self, leading):
        return _WindowEdges(leading, self.m, self.d, 0)


@dataclass(frozen=True)
class WindowOr(_Window):
    """Deterministic delay x(t) = sup of u over [t-d, t-d+m]."""

    m: Fraction
    d: Fraction
    keyword = "wor"
    keys = ("m", "d")
    clause = "window-or"

    def solve(self, u):
        return window_sup(u, self.d, self.m)

    def events(self, leading):
        return _WindowEdges(leading, self.m, self.d, 1)


@dataclass(frozen=True)
class Aic(_Model):
    """Absolute inertia: after a switch the output holds for the
    closed windows [t, t+delta]."""

    a: AicParams
    keyword = "aic"
    keys = ("dr", "df")
    needs_input = False
    hold = True


@dataclass(frozen=True)
class AicPrime(_Model):
    """Half-open hold windows [t, t+delta): hold >= delta instead of > delta."""

    a: AicParams
    keyword = "aicprime"
    keys = ("dr", "df")
    needs_input = False
    hold = False


class _Relative(_Model):
    """Relative inertia's switch permits from the windows of its parameters ``r``."""

    def permits(self, u):
        r = self.r
        return window_inf(u, r.delta_r, r.mu_r), window_inf(~u, r.delta_f, r.mu_f)


@dataclass(frozen=True)
class Ric(_Relative):
    r: RicParams
    keyword = "ric"
    keys = ("mur", "deltar", "muf", "deltaf")


@dataclass(frozen=True)
class RicPrime(_Model):
    """Lookback windows [t-delta, t); delta = 0 is the trivial condition."""

    r: RicParams
    keyword = "ricprime"
    keys = ("mur", "deltar", "muf", "deltaf")

    def permits(self, u):
        return (window(u, "inf", -self.r.delta_r, 0, include_end=False),
                window(~u, "inf", -self.r.delta_f, 0, include_end=False))


@dataclass(frozen=True)
class Baidc(_Bounded):
    p: BdcParams
    a: AicParams
    keyword = "baidc"
    keys = ("mr", "dr", "mf", "df", "deltar", "deltaf")
    hold = True

    def consistency(self):
        return "CC_BAIDC", cc_baidc(self.p, self.a), None


@dataclass(frozen=True)
class Bridc(_Bounded, _Relative):
    p: BdcParams
    r: RicParams
    keyword = "bridc"
    keys = ("mr", "dr", "mf", "df", "mur", "deltar", "muf", "deltaf")

    def consistency(self):
        return ("CC_BRIDC", *cc_bridc(self.p, self.r))


@dataclass(frozen=True)
class Dbridc(_Bounded, _Driven):
    """Deterministic: the bound and inertia windows share parameters."""

    p: BdcParams
    keyword = "dbridc"
    keys = ("mr", "dr", "mf", "df")

    def permits(self, u):
        return self._input_side(u)[1]

    def _input_side(self, u):
        a, upper = self.sandwich(u)
        # the fall permit: window_inf(~u, d_f, m_f) is ~window_sup(u, d_f, m_f)
        return (a, upper), (a, ~upper), None

    def _judge(self, side, x):
        # equality form: a switch happens exactly when the shared window demands
        a, b0 = side[1]
        xl = x.left_limit()
        return [_eq(~xl & x, ~xl & a, "rise-equality"),
                _eq(xl & ~x, xl & b0, "fall-equality")]

    def events(self, leading):
        self.require_consistent()
        return _SharedWindow(leading, self.p)

    def zero_lookback(self):
        return self.p.d_r == self.p.m_r or self.p.d_f == self.p.m_f


@dataclass(frozen=True)
class SdbridcPrime(_Driven):
    """Symmetric deterministic variant written as a single left-derivative
    equation with an open lookback window free of input switches."""

    d: Fraction
    keyword = "sdbridc"
    keys = ("d",)

    def __post_init__(self):
        object.__setattr__(self, "d", as_time(self.d))
        if self.d <= 0:
            raise ValueError("SDBRIDC' needs d > 0")

    def sandwich(self, u):
        # before time 0 the output equals the input, and from 0 on it is free
        held, flip = (StepFunction._from_toggles(u.leading, ts) for ts in ((), (0,)))
        return (flip, held) if u.leading else (held, flip)

    def quiet(self, u: StepFunction) -> StepFunction:
        """Where the open lookback window (t-d, t) holds no input switch."""
        return ~window(u.derivative(), "sup", -self.d, 0,
                       include_start=False, include_end=False)

    def _input_side(self, u):
        return self.sandwich(u), None, (u.left_limit(), self.quiet(u))

    def _judge(self, side, x):
        u_left, quiet = side[2]
        rhs = (x.left_limit() ^ u_left) & quiet
        return [_eq(x.derivative(), rhs, "derivative-equation")]

    def events(self, leading):
        return _OpenWindow(leading, self.d)


DelayModel = Union[Sc, Fixed, Bdc, BdcPrime, WindowAnd, WindowOr, Aic, AicPrime,
                   Ric, RicPrime, Baidc, Bridc, Dbridc, SdbridcPrime]

MODELS: dict[str, type] = {}  # spec keyword -> model class


def _register(cls) -> None:
    """Map the spec keys onto the fields once, so that parsing, formatting
    and building models in ticks inspect nothing per call."""
    groups, paths = [], []
    for f in fields(cls):
        params = globals().get(f.type)  # annotations are strings in this module
        if is_dataclass(params):
            sub = tuple(g.name for g in fields(params))
            groups.append((f.name, params, sub))
            paths += [f"{f.name}.{s}" for s in sub]
        else:
            groups.append((f.name, None, ()))
            paths.append(f.name)
    if len(paths) != len(cls.keys) or cls.keyword in MODELS:
        raise TypeError(f"{cls.__name__}: keys do not match fields, or keyword taken")
    cls._groups = tuple(groups)
    cls._getters = tuple(attrgetter(p) for p in paths)
    MODELS[cls.keyword] = cls


for _cls in get_args(DelayModel):
    _register(_cls)


def _assemble(cls, nums, make):
    """Model ``cls`` from its spec numbers in key order: ``make(c, items)``
    builds each parameter tuple, then the model, from (field name, value)
    pairs."""
    return make(cls, [(name, next(nums) if group is None
                       else make(group, [(s, next(nums)) for s in sub]))
                      for name, group, sub in cls._groups])


def _trusted(cls, items):
    """A dataclass holding the values of ``items`` as they are, without
    ``__post_init__`` (which would make ticks Fractions again)."""
    obj = object.__new__(cls)
    for name, value in items:
        object.__setattr__(obj, name, value)
    return obj


def _in_ticks(model: DelayModel, k: Optional[int]) -> DelayModel:
    """The model with every parameter in ticks of 1/k (k None: as it is),
    after ``require_consistent``: scaling by k > 0 keeps every consistency
    inequality, and every check of ``__post_init__``."""
    model.require_consistent()
    if k is None:
        return model
    return _assemble(type(model), iter([_to_ticks(t, k) for t in model._parameters()]),
                     _trusted)


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    time: Optional[Fraction]  # None: the violation set reaches -oo
    attained: bool            # is the infimum itself a violating instant
    clause: str
    net: Optional[str] = None  # set by circuit-level conformance checks


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    first_violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.ok


def _report(violations: list[tuple[IntervalSet, str]],
            horizon: Optional[Fraction] = None) -> CheckReport:
    """Combine per-clause violation sets into a report."""
    best: Optional[Violation] = None
    for vset, clause in violations:
        if horizon is not None:
            vset = vset.clipped_below(horizon)
        if not vset:
            continue
        t, attained = vset.infimum()
        cand = Violation(t, attained, clause)
        if best is None or _violation_key(cand) < _violation_key(best):
            best = cand
    return CheckReport(best is None, best)


def _in_time(report: CheckReport, k: Optional[int]) -> CheckReport:
    """The report of a check run in ticks of 1/k, its violation time as a Fraction."""
    v = report.first_violation
    if v is None or v.time is None or k is None:
        return report
    return CheckReport(report.ok, Violation(_to_time(v.time, k), v.attained, v.clause, v.net))


def _violation_key(v: Violation):
    if v.time is None:
        return (0, Fraction(0), 0)
    return (1, v.time, 0 if v.attained else 1)


def _le(lhs: StepFunction, rhs: StepFunction, clause: str) -> tuple[IntervalSet, str]:
    return (lhs & ~rhs).support(), clause


def _eq(lhs: StepFunction, rhs: StepFunction, clause: str) -> tuple[IntervalSet, str]:
    return (lhs ^ rhs).support(), clause


# ---------------------------------------------------------------------------
# Consistency predicates
# ---------------------------------------------------------------------------

def cc_bdc(p: BdcParams) -> bool:
    """Solvable for every input iff d_r - m_r <= d_f and d_f - m_f <= d_r."""
    return p.d_r - p.m_r <= p.d_f and p.d_f - p.m_f <= p.d_r


def cc_baidc(p: BdcParams, a: AicParams) -> bool:
    return cc_bdc(p) and a.delta_r + a.delta_f <= p.m_r + p.m_f


def cc_bridc(p: BdcParams, r: RicParams) -> tuple[bool, Optional[str]]:
    """Four-case disjunction; returns the first satisfied clause a..d."""
    mr, dr, mf, df = p.m_r, p.d_r, p.m_f, p.d_f
    ur, er, uf, ef = r.mu_r, r.delta_r, r.mu_f, r.delta_f
    clauses = {
        "a": (df - mf <= er <= dr <= er - ur + mr
              and dr - mr <= ef <= df <= ef - uf + mf),
        "b": (dr - mr + ur <= er <= df - mf <= dr
              and df - mf + uf <= ef <= dr - mr <= df),
        "c": (df - mf <= er <= dr - mr + ur <= dr
              and dr - mr <= ef <= df - mf + uf <= df),
        "d": (er <= df - mf <= er + mr - ur <= dr
              and ef <= dr - mr <= ef + mf - uf <= df),
    }
    for name in "abcd":
        if clauses[name]:
            return True, name
    return False, None


def zeno_free(r: RicParams) -> bool:
    """No families of accepted traces with arbitrarily close switches."""
    return r.delta_f > r.delta_r - r.mu_r and r.delta_r > r.delta_f - r.mu_f


# ---------------------------------------------------------------------------
# Parameter algebra
# ---------------------------------------------------------------------------

def compose_bdc(p: BdcParams, q: BdcParams) -> BdcParams:
    """Serial connection of bounded delays: parameters add."""
    for params in (p, q):
        Bdc(params).require_consistent()
    return BdcParams(p.m_r + q.m_r, p.d_r + q.d_r, p.m_f + q.m_f, p.d_f + q.d_f)


def bdc_includes(p: BdcParams, q: BdcParams) -> bool:
    """Every trace accepted under p is accepted under q."""
    return (q.d_r - q.m_r <= p.d_r - p.m_r <= p.d_f <= q.d_f
            and q.d_f - q.m_f <= p.d_f - p.m_f <= p.d_r <= q.d_r)


def bdc_deterministic(p: BdcParams) -> bool:
    Bdc(p).require_consistent()
    return p.m_r == p.m_f == 0


def bdc_symmetric(p: BdcParams) -> bool:
    Bdc(p).require_consistent()
    return p.d_r == p.d_f and p.m_r == p.m_f


def convert_minmax(d_r_min: RationalLike, d_r_max: RationalLike,
                   d_f_min: RationalLike, d_f_max: RationalLike) -> BdcParams:
    """Translate min/max transition-delay bounds into memory form."""
    rn, rx = as_time(d_r_min), as_time(d_r_max)
    fn, fx = as_time(d_f_min), as_time(d_f_max)
    if not (0 <= rn <= rx and 0 <= fn <= fx):
        raise ValueError("need 0 <= min <= max for both edges")
    if rn > fx or fn > rx:
        raise InconsistentModelError(
            "min/max bounds admit no delay: need d_r_min <= d_f_max and d_f_min <= d_r_max")
    return BdcParams(rx - fn, rx, fx - rn, fx)


# ---------------------------------------------------------------------------
# Stability and transmission delay
# ---------------------------------------------------------------------------

def check_sc(u: StepFunction, x: StepFunction) -> CheckReport:
    """Stability: if the input settles, the output settles to the same value."""
    return check_membership(u, x, Sc())


def transmission_delay(u: StepFunction, x: StepFunction
                       ) -> tuple[Fraction, str]:
    """Distance between the last input switch and the last output switch.

    Returns (d, kind) with kind in {'rising','falling','unclassified'}.
    """
    if not check_sc(u, x).ok:
        raise ValueError("transmission delay needs the pair to satisfy stability")
    t1 = u.bps[-1] if u.bps else Fraction(0)
    t2 = x.bps[-1] if x.bps else Fraction(0)
    kind = "unclassified"
    if u.bps and x.bps:
        # stability: both last switches go to the one final value
        kind = "rising" if x.right[-1] else "falling"
    return max(Fraction(0), t2 - t1), kind


def check_constancy(u: StepFunction, x: StepFunction,
                    d_r: RationalLike, d_f: RationalLike) -> CheckReport:
    """x may rise at t only if u(t-d_r) = 1 and fall only if u(t-d_f) = 0:
    relative inertia with both memories 0."""
    d_r, d_f = as_time(d_r), as_time(d_f)
    if d_r < 0 or d_f < 0:
        raise ValueError("constancy needs d_r >= 0 and d_f >= 0")
    return check_membership(u, x, Ric(RicParams(0, d_r, 0, d_f)))


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

# The last ``_input_stage``: (u, model, horizon, k, model in ticks, input side in ticks).
_last_input: tuple = (None,) * 6


def check_membership(u: Optional[StepFunction], x: StepFunction,
                     model: DelayModel,
                     horizon: Optional[RationalLike] = None) -> CheckReport:
    """Does the trace (u, x) satisfy the model's defining system everywhere?

    ``u`` may be None only for the input-free conditions (SC needs both).
    With ``horizon`` set, violations after it are ignored (the signals
    are then only claimed up to the horizon).

    The clauses are decided on integer ticks: the signals, the parameters
    and the horizon are scaled by their ``timebase`` k, and the
    violation time is scaled back to a Fraction.  Above the timebase
    bound the same clauses run on the Fractions themselves.
    """
    h = None if horizon is None else _as_offset(horizon)
    as_signal(x)
    k, ticked, side = _input_stage(u, model, h, x.bps)
    return _in_time(_report(ticked._judge(side, x._to_ticks(k)), _to_ticks(h, k)), k)


def _input_stage(u: Optional[StepFunction], model: DelayModel, h,
                 times: Sequence) -> tuple[Optional[int], DelayModel, tuple]:
    """The timebase k, the model in ticks of 1/k and its ``_input_side``
    of u in ticks, for outputs with breakpoints ``times``; raises as
    ``check_membership`` does on a missing input or an inconsistent model.

    It keeps its result in one entry, which the next call reuses when it
    passes the same u object and the same model object (an identity
    test, not equality), an equal horizon h, and times that are whole
    ticks of that timebase (or, above the bound, times above it too);
    any other call replaces the entry.  Hits and misses judge an output
    alike, so no report depends on the entry.  It holds strong references
    to u and the model, so neither id is reused while it is kept; only a
    consistent model is ever kept, so an inconsistent one raises on every
    call.  No option turns it off: it changes nothing but the work done.
    """
    global _last_input
    if model.needs_input:
        if u is None:
            raise ValueError(f"model {format_model(model)!r} needs an input signal")
        as_signal(u)
    last_u, last_model, last_h, k, ticked, side = _last_input
    if not (u is last_u and model is last_model and h == last_h and _fits(times, k)):
        k = timebase(chain(times, () if u is None else u.bps, model._parameters(),
                           () if h is None else (h,)))
        ticked = _in_ticks(model, k)
        side = ticked._input_side(None if u is None else u._to_ticks(k))
        _last_input = (u, model, h, k, ticked, side)
    return k, ticked, side


def _fits(times: Sequence, k: Optional[int]) -> bool:
    """Can ``times`` be judged over the timebase k of another call: their
    own timebase divides k, or both are above the bound?"""
    kt = timebase(times)
    return not times or (k is None if kt is None else k is not None and k % kt == 0)


# ---------------------------------------------------------------------------
# Model parameter text syntax (shared with the CLI)
# ---------------------------------------------------------------------------

def parse_model(text: str) -> DelayModel:
    """Parse a model spec like 'bdc mr=1 dr=2 mf=1 df=2'.

    Numbers are exact rationals (decimals or p/q).
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty model spec")
    kind = tokens[0].lower()
    cls = MODELS.get(kind)
    if cls is None:
        raise ValueError(f"unknown model kind {tokens[0]!r}; "
                         f"expected one of {', '.join(sorted(MODELS))}")
    vals: dict[str, Fraction] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, num = tok.partition("=")
        key = key.lower()
        if key not in cls.keys:
            raise ValueError(f"model {kind!r} does not take parameter {key!r}")
        if key in vals:
            raise ValueError(f"duplicate parameter {key!r}")
        try:
            vals[key] = Fraction(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad number {num!r} for {key!r}: {exc}") from exc
    missing = [k for k in cls.keys if k not in vals]
    if missing:
        raise ValueError(f"model {kind!r} is missing {', '.join(missing)}")
    try:
        return _assemble(cls, iter([vals[k] for k in cls.keys]),
                         lambda c, items: c(**dict(items)))
    except ValueError as exc:
        raise ValueError(f"invalid parameters for {' '.join(tokens)!r}: "
                         f"{getattr(exc, 'rule', exc)}") from exc


def format_model(model: DelayModel) -> str:
    return " ".join([model.keyword, *(f"{key}={format_time(get(model))}"
                                      for key, get in zip(model.keys, model._getters))])
