"""Delay conditions: parameter tuples, consistency predicates, checkers.

A delay condition relates the input u and output x of a delay buffer by
a system of pointwise inequalities between sliding-window combinations
of the two signals.  Membership is decided exactly: each clause
``lhs <= rhs`` is turned into the step function lhs . not(rhs), whose
support is the violation set; the condition holds iff every violation
set is empty.  ``first_violation`` reports the infimum of the earliest
one, with a flag saying whether it is attained.

Consistency predicates (cc_*) are the closed-form parameter
inequalities equivalent to "a solution exists for every input".  A
checker invoked with inconsistent parameters raises
InconsistentModelError rather than reporting a trace failure, so
callers can tell a malformed model from a bad trace.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import islice
from operator import attrgetter
from typing import Callable, ClassVar, Optional, Union, get_args

from .stepfn import (
    Interval,
    IntervalSet,
    RationalLike,
    StepFunction,
    as_signal,
    as_time,
    chi,
    format_time,
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
            raise ValueError(f"need 0 <= m_r <= d_r and 0 <= m_f <= d_f, got {self}")


@dataclass(frozen=True)
class AicParams:
    """Absolute inertia: minimum hold times after a rise / a fall."""

    delta_r: Fraction
    delta_f: Fraction

    def __post_init__(self):
        for name in ("delta_r", "delta_f"):
            object.__setattr__(self, name, as_time(getattr(self, name)))
        if self.delta_r < 0 or self.delta_f < 0:
            raise ValueError(f"inertia parameters must be >= 0, got {self}")


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
            raise ValueError(f"need 0 <= mu <= delta for both edges, got {self}")


# ---------------------------------------------------------------------------
# Delay models: each class is the model's one registry entry
# ---------------------------------------------------------------------------

class _Model:
    """What a delay model defines.

    ``keyword`` and ``keys`` give its spec text ``keyword key=value ...``,
    one key per number of the dataclass fields in order, parameter tuples
    flattened.  ``solve`` maps an input to the unique output and is None
    for a model that does not determine its output.
    """

    keyword: ClassVar[str]
    keys: ClassVar[tuple[str, ...]] = ()
    needs_input: ClassVar[bool] = True
    solve: ClassVar[Optional[Callable[[StepFunction], StepFunction]]] = None
    _groups: ClassVar[tuple] = ()   # per field: (parameter class or None, key count)
    _getters: ClassVar[tuple] = ()  # per key: its value's attribute getter

    def consistency(self) -> Optional[tuple[str, bool, Optional[str]]]:
        """(predicate name, result, satisfied clause), or None when the
        parameters are consistent by construction."""
        return None

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
        out = []
        bounds = self.sandwich(u)
        if bounds is not None:
            out += [_le(bounds[0], x, "lower-bound"), _le(x, bounds[1], "upper-bound")]
        permits = self.permits(u)
        if permits is not None:
            out += [_le(x.rises(), permits[0], "rise-permit"),
                    _le(x.falls(), permits[1], "fall-permit")]
        return out

    def check(self, u: Optional[StepFunction], x: StepFunction,
              horizon: Optional[Fraction]) -> CheckReport:
        return _report(self.clauses(u, x), horizon)

    def zero_lookback(self) -> bool:
        """Does the output at t depend on the input at t itself?"""
        return False


class _Formula(_Model):
    """A deterministic model given by its closed form x = solve(u)."""

    clause: ClassVar[str]

    def sandwich(self, u):
        x = self.solve(u)
        return x, x

    def clauses(self, u, x):
        return [_eq(x, self.solve(u), self.clause)]


@dataclass(frozen=True)
class Sc(_Model):
    """Stability: if the input settles, the output settles to the same value.

    Representable signals always settle, so this compares final values;
    the violation starts where both have settled.
    """

    keyword = "sc"

    def clauses(self, u, x):
        if u.limit_at_infinity() == x.limit_at_infinity():
            return [(IntervalSet(), "final-value")]
        settle = max([Fraction(0), *u.bps, *x.bps])
        return [(IntervalSet([Interval(settle, True, None, False)]), "final-value")]

    def check(self, u, x, horizon):
        return _report(self.clauses(u, x))  # a condition at +oo: no horizon cuts it


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
        return u.shift(self.d)

    def zero_lookback(self):
        return self.d == 0


class _Bounded(_Model):
    """The bounded delay's sandwich between the windows of its parameters ``p``."""

    def consistency(self):
        return "CC_BDC", cc_bdc(self.p), None

    def sandwich(self, u):
        return bdc_lower(u, self.p), bdc_upper(u, self.p)


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


@dataclass(frozen=True)
class Aic(_Model):
    """Absolute inertia: after a switch the output holds for the
    closed windows [t, t+delta]."""

    a: AicParams
    keyword = "aic"
    keys = ("dr", "df")
    needs_input = False

    def clauses(self, u, x):
        return _hold_clauses(x, self.a, include_end=True)


@dataclass(frozen=True)
class AicPrime(_Model):
    """Half-open hold windows [t, t+delta): hold >= delta instead of > delta."""

    a: AicParams
    keyword = "aicprime"
    keys = ("dr", "df")
    needs_input = False

    def clauses(self, u, x):
        return _hold_clauses(x, self.a, include_end=False)


@dataclass(frozen=True)
class Ric(_Model):
    r: RicParams
    keyword = "ric"
    keys = ("mur", "deltar", "muf", "deltaf")

    def permits(self, u):
        return ric_rise_permit(u, self.r), ric_fall_permit(u, self.r)


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

    def consistency(self):
        return "CC_BAIDC", cc_baidc(self.p, self.a), None

    def clauses(self, u, x):
        return super().clauses(u, x) + _hold_clauses(x, self.a, include_end=True)


@dataclass(frozen=True)
class Bridc(_Bounded):
    p: BdcParams
    r: RicParams
    keyword = "bridc"
    keys = ("mr", "dr", "mf", "df", "mur", "deltar", "muf", "deltaf")

    def consistency(self):
        return ("CC_BRIDC", *cc_bridc(self.p, self.r))

    def permits(self, u):
        return ric_rise_permit(u, self.r), ric_fall_permit(u, self.r)


@dataclass(frozen=True)
class Dbridc(_Bounded):
    """Deterministic: the bound and inertia windows share parameters."""

    p: BdcParams
    keyword = "dbridc"
    keys = ("mr", "dr", "mf", "df")

    def permits(self, u):
        return bdc_lower(u, self.p), window_inf(~u, self.p.d_f, self.p.m_f)

    def clauses(self, u, x):
        # equality form: a switch happens exactly when the shared window demands
        a, b0 = self.permits(u)
        xl = x.left_limit()
        return [_eq(~xl & x, ~xl & a, "rise-equality"),
                _eq(xl & ~x, xl & b0, "fall-equality")]

    def solve(self, u):
        from . import solvers  # solvers imports this module
        return solvers.solve_dbridc(u, self.p)

    def zero_lookback(self):
        return self.p.d_r == self.p.m_r or self.p.d_f == self.p.m_f


@dataclass(frozen=True)
class SdbridcPrime(_Model):
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
        before = chi(None, 0)  # before time 0 the output equals the input
        return u & before, u | ~before

    def clauses(self, u, x):
        quiet = ~window(u.derivative(), "sup", -self.d, 0,
                        include_start=False, include_end=False)
        rhs = (x.left_limit() ^ u.left_limit()) & quiet
        return [_eq(x.derivative(), rhs, "derivative-equation")]

    def solve(self, u):
        from . import solvers  # solvers imports this module
        return solvers.solve_sdbridc(u, self.d)


DelayModel = Union[Sc, Fixed, Bdc, BdcPrime, WindowAnd, WindowOr, Aic, AicPrime,
                   Ric, RicPrime, Baidc, Bridc, Dbridc, SdbridcPrime]

MODELS: dict[str, type] = {}  # spec keyword -> model class


def _register(cls) -> None:
    """Map the spec keys onto the fields once, so that parsing and
    formatting inspect nothing per call."""
    groups, paths = [], []
    for f in fields(cls):
        params = globals().get(f.type)  # annotations are strings in this module
        if is_dataclass(params):
            sub = [g.name for g in fields(params)]
            groups.append((params, len(sub)))
            paths += [f"{f.name}.{s}" for s in sub]
        else:
            groups.append((None, 1))
            paths.append(f.name)
    if len(paths) != len(cls.keys) or cls.keyword in MODELS:
        raise TypeError(f"{cls.__name__}: keys do not match fields, or keyword taken")
    cls._groups = tuple(groups)
    cls._getters = tuple(attrgetter(p) for p in paths)
    MODELS[cls.keyword] = cls


for _cls in get_args(DelayModel):
    _register(_cls)


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
        if not cc_bdc(params):
            raise InconsistentModelError(f"CC_BDC fails for {params}")
    return BdcParams(p.m_r + q.m_r, p.d_r + q.d_r, p.m_f + q.m_f, p.d_f + q.d_f)


def bdc_includes(p: BdcParams, q: BdcParams) -> bool:
    """Every trace accepted under p is accepted under q."""
    return (q.d_r - q.m_r <= p.d_r - p.m_r <= p.d_f <= q.d_f
            and q.d_f - q.m_f <= p.d_f - p.m_f <= p.d_r <= q.d_r)


def bdc_deterministic(p: BdcParams) -> bool:
    if not cc_bdc(p):
        raise InconsistentModelError(f"CC_BDC fails for {p}")
    return p.m_r == p.m_f == 0


def bdc_symmetric(p: BdcParams) -> bool:
    if not cc_bdc(p):
        raise InconsistentModelError(f"CC_BDC fails for {p}")
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
    as_signal(u), as_signal(x)
    return Sc().check(u, x, None)


def transmission_delay(u: StepFunction, x: StepFunction
                       ) -> tuple[Fraction, str]:
    """Distance between the last input switch and the last output switch.

    Returns (d, kind) with kind in {'rising','falling','unclassified'}.
    """
    if not check_sc(u, x).ok:
        raise ValueError("transmission delay needs the pair to satisfy stability")
    du, dx = u.derivative().support(), x.derivative().support()
    t1 = du.intervals[-1].hi if du else Fraction(0)
    t2 = dx.intervals[-1].hi if dx else Fraction(0)
    d = max(Fraction(0), t2 - t1)
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
    return d, kind


def check_constancy(u: StepFunction, x: StepFunction,
                    d_r: RationalLike, d_f: RationalLike) -> CheckReport:
    """x may rise at t only if u(t-d_r) = 1 and fall only if u(t-d_f) = 0."""
    d_r, d_f = as_time(d_r), as_time(d_f)
    if d_r < 0 or d_f < 0:
        raise ValueError("constancy needs d_r >= 0 and d_f >= 0")
    as_signal(u), as_signal(x)
    return _report([
        _le(x.rises(), u.shift(d_r), "rising-anticipation"),
        _le(x.falls(), ~u.shift(d_f), "falling-anticipation"),
    ])


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def bdc_lower(u: StepFunction, p: BdcParams) -> StepFunction:
    return window_inf(u, p.d_r, p.m_r)


def bdc_upper(u: StepFunction, p: BdcParams) -> StepFunction:
    return window_sup(u, p.d_f, p.m_f)


def ric_rise_permit(u: StepFunction, r: RicParams) -> StepFunction:
    return window_inf(u, r.delta_r, r.mu_r)


def ric_fall_permit(u: StepFunction, r: RicParams) -> StepFunction:
    return window_inf(~u, r.delta_f, r.mu_f)


def _hold_clauses(x: StepFunction, a: AicParams, include_end: bool):
    hold1 = window(x, "inf", 0, a.delta_r, include_end=include_end)
    hold0 = window(~x, "inf", 0, a.delta_f, include_end=include_end)
    return [_le(x.rises(), hold1, "rise-hold"),
            _le(x.falls(), hold0, "fall-hold")]


def dbridc_form_report(u: StepFunction, x: StepFunction, p: BdcParams,
                       form: str) -> CheckReport:
    """Membership under one of the equivalent shapes of the deterministic
    bounded relative inertial delay: 'a' the sandwich plus switch
    permits, 'b' the switch equalities, 'e' the closed recursion,
    'f' the derivative equation, 'g' the single tautology.

    The forms are provably equivalent; independent implementations
    cross-check each other on random traces.
    """
    if not cc_bdc(p):
        raise InconsistentModelError(f"CC_BDC fails for {p}")
    as_signal(u), as_signal(x)
    a = bdc_lower(u, p)
    b0 = window_inf(~u, p.d_f, p.m_f)
    upper = bdc_upper(u, p)
    xl = x.left_limit()
    if form == "a":
        return _report([
            _le(a, x, "lower-bound"),
            _le(x, upper, "upper-bound"),
            _le(~xl & x, a, "rise-permit"),
            _le(xl & ~x, b0, "fall-permit"),
        ])
    if form == "b":
        return _report(Dbridc(p).clauses(u, x))
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


def check_membership(u: Optional[StepFunction], x: StepFunction,
                     model: DelayModel,
                     horizon: Optional[RationalLike] = None) -> CheckReport:
    """Does the trace (u, x) satisfy the model's defining system everywhere?

    ``u`` may be None only for the input-free conditions (SC needs both).
    With ``horizon`` set, violations after it are ignored (the signals
    are then only claimed up to the horizon).
    """
    h = None if horizon is None else as_time(horizon)
    as_signal(x)
    if model.needs_input:
        if u is None:
            raise ValueError(f"model {format_model(model)!r} needs an input signal")
        as_signal(u)
    cc = model.consistency()
    if cc is not None and not cc[1]:
        raise InconsistentModelError(f"{cc[0]} fails for {format_model(model)!r}")
    return model.check(u, x, h)


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
    nums = iter([vals[k] for k in cls.keys])
    try:
        return cls(*[next(nums) if group is None else group(*islice(nums, n))
                     for group, n in cls._groups])
    except ValueError as exc:
        raise ValueError(f"invalid parameters for {kind!r}: {exc}") from exc


def format_model(model: DelayModel) -> str:
    return " ".join([model.keyword, *(f"{key}={format_time(get(model))}"
                                      for key, get in zip(model.keys, model._getters))])
