"""Delay conditions: parameter tuples, consistency predicates, checkers.

A delay condition relates the input u and output x of a delay buffer by
a system of pointwise inequalities between sliding-window combinations
of the two signals.  Membership is decided exactly: each clause
``lhs <= rhs`` is turned into the step function lhs . not(rhs), the
indicator of its violation set; the condition holds iff every indicator
is 0.  ``first_violation`` reports the infimum of the earliest
violation, with a flag saying whether it is attained.  A canonical
indicator's infimum is its first breakpoint (or -oo when it leads with
1), attained where its point value there is 1, so a clause is read
without building its set; ``clauses`` still returns the sets.  Each
check runs on integer ticks over the timebase of its signals, parameters
and horizon (``stepfn.timebase``) and reports its times as Fractions.

Each model judges a trace in two stages: ``_input_side(u)`` builds the
triple ``(sandwich, permits, own)`` from the input alone (the bounds
lower <= x <= upper, u with the model's switch permit specs, and
whatever else its clauses need; None where it has none), and
``_judge(side, x)`` the clauses from that and the output.  Input windows
are built there only: the checker, the grid pruning, the sampler's
candidates and its witness read u's side, built in ticks by
``_build_input`` once per input and passed to each call: no call keeps
one for the next.  The switch permits and the hold windows after a
switch constrain x only at its switches, so the default judge reads them
in one walk over x's breakpoints, probing u there for the permits: no
window is built over x, and none for a permit.  Only the witness and the
public ``permits(u)`` build the permit windows, from the same specs.

Consistency predicates (cc_*) are the closed-form parameter
inequalities equivalent to "a solution exists for every input".  Each is
linear and homogeneous in the parameters, so a check judges it on the
parameters in its ticks.  A checker invoked with inconsistent parameters
raises InconsistentModelError, naming the model as given, rather than
reporting a trace failure, so callers can tell a malformed model from a
bad trace.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter, gt
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence, Union, get_args

from .stepfn import (
    IntervalSet,
    RationalLike,
    StepFunction,
    _as_offset,
    _read_fraction,
    _read_ratio,
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


class _Times:
    """A frozen dataclass whose fields are all times.  Each value that is
    not already a Fraction is made one by ``as_time``; then ``rule``, what
    the values need and a test of them, must hold."""

    rule: ClassVar[tuple[str, Callable[..., bool]]]

    def __post_init__(self):
        for name in self.__match_args__:
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, as_time(value))
        need, holds = self.rule
        if not holds(self):
            raise _RangeError(need, self)


@dataclass(frozen=True)
class BdcParams(_Times):
    """Memories (thresholds for cancellation) and upper delay bounds.

    The lower bounds d_f - m_f (rising) and d_r - m_r (falling) are
    derived, not stored.
    """

    m_r: Fraction
    d_r: Fraction
    m_f: Fraction
    d_f: Fraction
    rule = ("need 0 <= m_r <= d_r and 0 <= m_f <= d_f",
            lambda p: 0 <= p.m_r <= p.d_r and 0 <= p.m_f <= p.d_f)


@dataclass(frozen=True)
class AicParams(_Times):
    """Absolute inertia: minimum hold times after a rise / a fall."""

    delta_r: Fraction
    delta_f: Fraction
    rule = ("inertia parameters must be >= 0", lambda a: a.delta_r >= 0 and a.delta_f >= 0)


@dataclass(frozen=True)
class RicParams(_Times):
    """Relative inertia: a switch at t needs the input held over the
    window [t-delta, t-delta+mu]."""

    mu_r: Fraction
    delta_r: Fraction
    mu_f: Fraction
    delta_f: Fraction
    rule = ("need 0 <= mu <= delta for both edges",
            lambda r: 0 <= r.mu_r <= r.delta_r and 0 <= r.mu_f <= r.delta_f)


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
    ``sandwich`` lower <= x <= upper and, for a model with
    ``_permit_specs``, the pair (u, specs) (own None); the judge merges x
    with the bounds, and reads the permits, probing u, and the hold
    windows on the ``AicParams`` field ``a`` when ``hold`` is set (True:
    closed windows [t, t+delta]; False: half-open [t, t+delta)), at x's
    switches in one walk (``_switch_hits``).  A model whose clauses take
    another shape overrides both stages, keeping what it has of both.
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

    def _permit_specs(self) -> Optional[tuple[tuple, tuple]]:
        """The switch permits, per edge indexed by the bit v switched to
        (fall, rise): (delta, width, closed), saying that x may switch to v
        at t only if u is v over [t-delta, t-delta+width], or over
        [t-delta, t-delta+width) when not ``closed``; None without permits."""
        return None

    def permits(self, u: StepFunction) -> Optional[tuple[StepFunction, StepFunction]]:
        """Where a member may rise and where it may fall: the windows of
        ``_permit_specs`` over u."""
        specs = self._permit_specs()
        return None if specs is None else _permit_windows(u, specs)

    def clauses(self, u: Optional[StepFunction], x: StepFunction
                ) -> list[tuple[IntervalSet, str]]:
        """Violation set and name of every clause of the defining system,
        whether or not the parameters are consistent."""
        return [(f.support(), name) for f, name in self._judge(self._input_side(u), x)]

    def _input_side(self, u: Optional[StepFunction]):
        """What the clauses need from the input alone: (sandwich, permits, own)."""
        specs = self._permit_specs()
        return self.sandwich(u), None if specs is None else (u, specs), None

    def _judge(self, side, x: StepFunction) -> list[tuple[StepFunction, str]]:
        """The violation indicator and name of each clause of the output x,
        given the input side ``side``: the sandwich merged with x, and the
        permit and hold clauses, each 0 but 1 at every switch of x that
        violates it (``_switch_hits``)."""
        bounds, permits, _ = side
        out = []
        if bounds is not None:
            out += [_le(bounds[0], x, "lower-bound"), _le(x, bounds[1], "upper-bound")]
        hold = self.hold
        if permits is None and hold is None:
            return out
        gaps = None if hold is None else (self.a.delta_f, self.a.delta_r)
        permit_hits, hold_hits = _switch_hits(x, permits, gaps, hold)
        if permits is not None:
            out += [(_points(permit_hits[1]), "rise-permit"),
                    (_points(permit_hits[0]), "fall-permit")]
        if gaps is not None:
            out += [(_points(hold_hits[1]), "rise-hold"), (_points(hold_hits[0]), "fall-hold")]
        return out

    def zero_lookback(self) -> bool:
        """Does the output at t depend on the input at t itself?"""
        return False

    def _candidates(self, prepared: _Input, free: StepFunction):
        """The sampler's candidate members, in the ticks of ``_prepare``'s
        input ``prepared``, as is ``free``: lower | (free . upper) of its
        sandwich (a formula's solution); else the constant at u's final value,
        which no permit, hold or final-value clause rejects.  Called on the
        model as given, so that a refusal names its own parameters."""
        if (bounds := prepared.side[0]) is not None:
            yield bounds[0] | (free & bounds[1])
        else:
            yield StepFunction.const(prepared.u.limit_at_infinity())

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

    def _candidates(self, prepared, free):
        yield prepared.model.solve(prepared.u)


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


class _WindowEdges(_Events):
    """wand/wor: a switch to the dominant value (0 for wand, 1 for wor) at s
    reaches the output with the first window that sees it, at s + d - m,
    and merges with any later pending switch; a switch away from it
    reaches the output once the whole window has passed it, at s + d.
    fixed is the window [t-d, t-d]: at m = 0 every switch reappears at s + d."""

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
            return [(StepFunction._from_toggles(0, ()), "final-value")]
        settle = max([Fraction(0), *last, *x.bps[-1:]])
        return [(StepFunction._from_toggles(0, (settle,)), "final-value")]  # [settle, +oo)


@dataclass(frozen=True)
class Fixed(_Times, _Formula):
    """The pure delay x(t) = u(t-d)."""

    d: Fraction
    keyword = "fixed"
    keys = ("d",)
    clause = "fixed"
    rule = ("fixed delay needs d >= 0", lambda f: f.d >= 0)

    def solve(self, u):
        from . import solvers  # solvers imports this module
        return solvers.solve_fixed(u, self.d)

    def events(self, leading):
        return _WindowEdges(leading, 0, self.d, 0)

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
class BdcPrime(_Times, _Model):
    """Upper bounded, lower unbounded delays: windows [t-d, t)."""

    d_r: Fraction
    d_f: Fraction
    keyword = "bdcprime"
    keys = ("dr", "df")
    rule = ("BDC' needs d_r > 0 and d_f > 0", lambda p: p.d_r > 0 and p.d_f > 0)

    def sandwich(self, u):
        return window_inf_halfopen(u, self.d_r), window_sup_halfopen(u, self.d_f)

    def _candidates(self, prepared, free):  # none: its bounds need not be signals
        raise ValueError(f"sampling is not supported for {format_model(self)!r}")


@dataclass(frozen=True)
class _Window(_Times, _Formula):
    """The window delays: the ``op`` ("inf" or "sup") of u over
    [t-d, t-d+m], 0 <= m <= d; ``dominant`` is the value that decides it
    (0 for inf, 1 for sup)."""

    m: Fraction
    d: Fraction
    keys = ("m", "d")
    rule = ("window delay needs 0 <= m <= d", lambda w: 0 <= w.m <= w.d)
    op: ClassVar[str]
    dominant: ClassVar[int]

    def solve(self, u):
        return window(u, self.op, -self.d, -self.d + self.m)

    def events(self, leading):
        return _WindowEdges(leading, self.m, self.d, self.dominant)

    def zero_lookback(self):
        return self.d == self.m


@dataclass(frozen=True)
class WindowAnd(_Window):
    """Deterministic delay x(t) = inf of u over [t-d, t-d+m]."""

    keyword = "wand"
    clause = "window-and"
    op = "inf"
    dominant = 0


@dataclass(frozen=True)
class WindowOr(_Window):
    """Deterministic delay x(t) = sup of u over [t-d, t-d+m]."""

    keyword = "wor"
    clause = "window-or"
    op = "sup"
    dominant = 1


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
    """Relative inertia's switch permits over the closed windows of its
    parameters ``r``: [t-delta, t-delta+mu]."""

    def _permit_specs(self):
        r = self.r
        return (r.delta_f, r.mu_f, True), (r.delta_r, r.mu_r, True)


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

    def _permit_specs(self):
        r = self.r
        return (r.delta_f, r.delta_f, False), (r.delta_r, r.delta_r, False)


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

    def _candidates(self, prepared, free):
        yield Dbridc(prepared.model.p).solve(prepared.u)  # the sweep
        yield from super()._candidates(prepared, free)


@dataclass(frozen=True)
class Dbridc(_Bounded, _Driven):
    """Deterministic: the bound and inertia windows share parameters."""

    p: BdcParams
    keyword = "dbridc"
    keys = ("mr", "dr", "mf", "df")

    def _permit_specs(self):
        p = self.p
        return (p.d_f, p.m_f, True), (p.d_r, p.m_r, True)

    def _input_side(self, u):
        a, upper = self.sandwich(u)
        # its own: the permit windows, the fall permit window_inf(~u, d_f, m_f)
        # built as ~window_sup(u, d_f, m_f)
        return (a, upper), (u, self._permit_specs()), (a, ~upper)

    def _judge(self, side, x):
        # equality form: a switch happens exactly when the shared window demands
        a, b0 = side[2]
        xl = x.left_limit()
        return [_eq(x.rises(), a._zip(xl, gt), "rise-equality"),  # a and not xl
                _eq(x.falls(), xl & b0, "fall-equality")]

    def events(self, leading):
        self.require_consistent()
        return _SharedWindow(leading, self.p)

    def zero_lookback(self):
        return self.p.d_r == self.p.m_r or self.p.d_f == self.p.m_f


@dataclass(frozen=True)
class SdbridcPrime(_Times, _Driven):
    """Symmetric deterministic variant written as a single left-derivative
    equation with an open lookback window free of input switches."""

    d: Fraction
    keyword = "sdbridc"
    keys = ("d",)
    rule = ("SDBRIDC' needs d > 0", lambda s: s.d > 0)

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
    judged consistent there: scaling by k > 0 keeps every consistency
    inequality (each is homogeneous), its clause and every check of
    ``__post_init__``.  If not, ``model.require_consistent()`` names it as given."""
    ticked = model if k is None else _assemble(
        type(model), iter([_to_ticks(t, k) for t in model._parameters()]), _trusted)
    cc = ticked.consistency()
    if cc is not None and not cc[1]:
        model.require_consistent()
    return ticked


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


def _report(violations: list[tuple[StepFunction, str]],
            horizon: Optional[Fraction] = None) -> CheckReport:
    """Combine per-clause violation indicators into a report, each read in
    constant time from its leading value and first breakpoint; with
    ``horizon`` set, a violation that starts after it, or at it without
    attaining it, is none."""
    best: Optional[Violation] = None
    for f, clause in violations:
        if f.leading:  # the violation reaches -oo
            cand = Violation(None, False, clause)
        elif not f.bps:
            continue
        else:
            t, attained = f.bps[0], f.at[0] == 1
            if horizon is not None and (t > horizon or t == horizon and not attained):
                continue
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


def _le(lhs: StepFunction, rhs: StepFunction, clause: str) -> tuple[StepFunction, str]:
    return lhs._zip(rhs, gt), clause  # on bits, a > b is a and not b


def _eq(lhs: StepFunction, rhs: StepFunction, clause: str) -> tuple[StepFunction, str]:
    return lhs ^ rhs, clause


_ZERO = StepFunction._canon(0, (), (), ())  # shared: a clause that holds builds nothing


def _points(times: Sequence) -> StepFunction:
    """The indicator of the increasing ``times``: 0, but 1 at each."""
    n = len(times)
    return StepFunction._canon(0, times, (1,) * n, (0,) * n) if n else _ZERO


def _permit_windows(u: StepFunction, specs) -> tuple[StepFunction, StepFunction]:
    """The rise and fall permits of the ``_permit_specs`` ``specs`` as windows
    over u: where u, and where ~u, is 1 over each edge's window."""
    (d0, w0, c0), (d1, w1, c1) = specs
    return (window(u, "inf", -d1, w1 - d1, True, c1),
            window(~u, "inf", -d0, w0 - d0, True, c0))


def _switch_hits(x: StepFunction, permits, gaps, closed: Optional[bool]):
    """The switches of x that break a permit and that break a hold, each
    per edge indexed by the bit switched to: (fall, rise).

    ``permits`` is an input side's (u, specs) or None.  A switch to v at b
    is permitted when u is v over the window [s, s+w] ([s, s+w) when not
    closed), s = b-delta: u is v at s and, for w > 0, just right of s, no
    breakpoint of u lies in (s, s+w), and u(s+w) = v when the end is
    closed; an empty window permits all.  Each edge reads u by a pointer
    that only moves forward.  ``gaps`` is the hold per edge or None: x
    breaks its hold where it leaves v in [b, b+delta] ([b, b+delta) when
    not ``closed``): right of b when delta > 0, or at the next breakpoint
    b' when b' < b+delta, or when b' = b+delta, the window is closed and
    x(b') != v.  A canonical breakpoint changes its function at it or right
    of it, so a breakpoint inside a window alone shows the value leaving
    v there, and no later one matters."""
    cursors, permit_hits, hold_hits = [0, 0], ([], []), ([], [])
    if permits is not None:
        u, specs = permits
        ubps, uat, uright, lead, n = u.bps, u.at, u.right, u.leading, len(u.bps)
    bps, at, right = x.bps, x.at, x.right
    last, left = len(bps) - 1, x.leading
    for i, b in enumerate(bps):
        v = at[i]
        if v != left:
            if permits is not None:
                delta, w, closed_end = specs[v]
                if w or closed_end:
                    s = b - delta
                    j = cursors[v] = bisect_left(ubps, s, cursors[v])
                    if j < n and ubps[j] == s:
                        here, after, j = uat[j], uright[j], j + 1
                    else:
                        here = after = uright[j - 1] if j else lead
                    if here != v or w and (after != v or j < n and (
                            ubps[j] < s + w or closed_end and ubps[j] == s + w and uat[j] != v)):
                        permit_hits[v].append(b)
            if gaps is not None:
                end = b + gaps[v]
                if right[i] != v and end > b or i < last and (
                        bps[i + 1] < end or closed and bps[i + 1] == end and at[i + 1] != v):
                    hold_hits[v].append(b)
        left = right[i]
    return permit_hits, hold_hits


# ---------------------------------------------------------------------------
# Consistency predicates
# ---------------------------------------------------------------------------

def cc_bdc(p: BdcParams) -> bool:
    """Solvable for every input iff d_r - m_r <= d_f and d_f - m_f <= d_r."""
    return p.d_r - p.m_r <= p.d_f and p.d_f - p.m_f <= p.d_r


def cc_baidc(p: BdcParams, a: AicParams) -> bool:
    return cc_bdc(p) and a.delta_r + a.delta_f <= p.m_r + p.m_f


def cc_bridc(p: BdcParams, r: RicParams) -> tuple[bool, Optional[str]]:
    """Four-case disjunction; returns the first satisfied clause a..d, tested in order."""
    mr, dr, mf, df = p.m_r, p.d_r, p.m_f, p.d_f
    ur, er, uf, ef = r.mu_r, r.delta_r, r.mu_f, r.delta_f
    if df - mf <= er <= dr <= er - ur + mr and dr - mr <= ef <= df <= ef - uf + mf:
        return True, "a"
    if dr - mr + ur <= er <= df - mf <= dr and df - mf + uf <= ef <= dr - mr <= df:
        return True, "b"
    if df - mf <= er <= dr - mr + ur <= dr and dr - mr <= ef <= df - mf + uf <= df:
        return True, "c"
    if er <= df - mf <= er + mr - ur <= dr and ef <= dr - mr <= ef + mf - uf <= df:
        return True, "d"
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

class _Input(NamedTuple):
    """``_build_input``'s timebase k, and the model, u, its side and the horizon in ticks."""

    k: Optional[int]
    model: DelayModel
    u: Optional[StepFunction]
    side: tuple
    horizon: Optional[RationalLike]


def check_membership(u: Optional[StepFunction], x: StepFunction,
                     model: DelayModel, horizon: Optional[RationalLike] = None,
                     *, _input: Optional[_Input] = None) -> CheckReport:
    """Does the trace (u, x) satisfy the model's defining system everywhere?

    ``u`` may be None only for the input-free conditions (SC needs both).
    With ``horizon`` set, violations after it are ignored (the signals
    are then only claimed up to the horizon).

    The clauses are decided on integer ticks: the signals, the parameters
    and the horizon are scaled by their ``timebase`` k, and the
    violation time is scaled back to a Fraction.  Above the timebase
    bound the same clauses run on the Fractions themselves.
    ``_input``, ``_prepare``'s result for the same u, model and horizon,
    makes this a trusted private entry, as ``StepFunction._canon`` is: x is
    then already in its ticks, whole ones, and is judged as it is.
    """
    as_signal(x)
    if _input is None:
        _input = _prepare(u, model, horizon, x.bps)
        x = x._to_ticks(_input.k)
    k, ticked, _, side, h = _input
    return _in_time(_report(ticked._judge(side, x), h), k)


def _prepare(u: Optional[StepFunction], model: DelayModel,
             horizon: Optional[RationalLike], times: Sequence) -> _Input:
    """u prepared for judging outputs whose breakpoints are ``times``, over
    the timebase of those, u's, the parameters and the horizon; raises as
    ``check_membership`` does on a missing input or an inconsistent model."""
    h = None if horizon is None else _as_offset(horizon)
    if model.needs_input:
        if u is None:
            raise ValueError(f"model {format_model(model)!r} needs an input signal")
        as_signal(u)
    k = timebase(chain(times, () if u is None else u.bps, model._parameters(),
                       () if h is None else (h,)))
    return _build_input(k, _in_ticks(model, k), None if u is None else u._to_ticks(k),
                        _to_ticks(h, k))


def _build_input(k: Optional[int], ticked: DelayModel, u, horizon) -> _Input:
    """The one builder of ``_Input``: the model, u and the horizon in one
    unit, and u's side; the check's report is scaled back by k (None: not)."""
    return _Input(k, ticked, u, ticked._input_side(u), horizon)


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
            ratio = _read_ratio(num)  # one Fraction per number, decimals too
            vals[key] = Fraction(*ratio) if ratio else _read_fraction(num)
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
