"""Exact algebra of binary step functions over rational time.

A StepFunction is an R -> {0,1} map that is constant on the open
intervals between finitely many rational breakpoints and carries an
independent value at each breakpoint.  One-sided limits therefore exist
everywhere, and every operation below is exact rational arithmetic: no
floats, no sampling.

Signals -- the right-continuous step functions whose switches all lie in
[0, oo) -- are what circuits actually produce.  Left limits,
semi-derivatives and half-open sliding windows leave that class, which
is why the general type keeps point values separate from interval
values.  ``is_signal`` checks the refinement; ``as_signal`` asserts it.

Sliding-window infima/suprema are computed by Minkowski-summing the
zero set (resp. support) of the input with the window interval, with
explicit open/closed bookkeeping at every endpoint.  Window endpoint
membership is exactly where the delay conditions differ from each
other, so closures are never approximated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Time = Fraction

RationalLike = Union[Fraction, int, str]


def as_time(value: RationalLike) -> Fraction:
    """Coerce ints, p/q strings and terminating decimals to an exact Fraction.

    Floats are rejected: a binary float silently moves window endpoints.
    """
    if isinstance(value, float):
        raise TypeError("float times are not exact; pass Fraction, int or a 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"time {value!r} has a zero denominator") from exc


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """One maximal interval of an interval set.

    ``lo is None`` means -oo (then lo_closed is False), ``hi is None``
    means +oo.  A single point is lo == hi with both ends closed.
    """

    lo: Optional[Fraction]
    lo_closed: bool
    hi: Optional[Fraction]
    hi_closed: bool

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def contains(self, t: Fraction) -> bool:
        if self.lo is not None:
            if t < self.lo or (t == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if t > self.hi or (t == self.hi and not self.hi_closed):
                return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"{left}{lo}, {hi}{right}"


def _lo_key(iv: Interval):
    # -oo sorts first; at equal positions a closed end sorts before an open one
    if iv.lo is None:
        return (0, Fraction(0), 0)
    return (1, iv.lo, 0 if iv.lo_closed else 1)


def _merge_intervals(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping or touching intervals."""
    items = sorted((iv for iv in intervals if not iv.is_empty()), key=_lo_key)
    merged: list[Interval] = []
    for iv in items:
        if not merged:
            merged.append(iv)
            continue
        cur = merged[-1]
        # does iv attach to cur?
        if cur.hi is None:
            touches = True
        elif iv.lo is None:
            touches = True
        else:
            touches = iv.lo < cur.hi or (
                iv.lo == cur.hi and (cur.hi_closed or iv.lo_closed)
            )
        if not touches:
            merged.append(iv)
            continue
        # extend cur's upper end if iv reaches further
        if cur.hi is None:
            continue
        if iv.hi is None:
            merged[-1] = Interval(cur.lo, cur.lo_closed, None, False)
        elif iv.hi > cur.hi or (iv.hi == cur.hi and iv.hi_closed and not cur.hi_closed):
            merged[-1] = Interval(cur.lo, cur.lo_closed, iv.hi, iv.hi_closed)
    return tuple(merged)


class IntervalSet:
    """A finite union of disjoint intervals over Q, with +-oo ends."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        object.__setattr__(self, "intervals", _merge_intervals(intervals))

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(str(iv) for iv in self.intervals)

    __repr__ = __str__

    def contains(self, t: Fraction) -> bool:
        return any(iv.contains(t) for iv in self.intervals)

    def infimum(self) -> tuple[Optional[Fraction], bool]:
        """(inf, attained) of the set; (None, False) for an empty set or -oo."""
        if not self.intervals:
            return None, False
        first = self.intervals[0]
        if first.lo is None:
            return None, False
        return first.lo, first.lo_closed

    def minkowski(self, lo_off: Fraction, lo_closed: bool,
                  hi_off: Fraction, hi_closed: bool) -> "IntervalSet":
        """Minkowski sum with the interval <lo_off, hi_off>.

        [p,q) + [a,b] = [p+a, q+b) and {p} + (0,d] = (p, p+d]; in general
        each endpoint closure survives only if both contributing ends are
        closed.
        """
        if lo_off > hi_off or (lo_off == hi_off and not (lo_closed and hi_closed)):
            raise ValueError("empty offset interval in Minkowski sum")
        out = []
        for iv in self.intervals:
            lo = None if iv.lo is None else iv.lo + lo_off
            hi = None if iv.hi is None else iv.hi + hi_off
            out.append(Interval(lo, iv.lo_closed and lo_closed,
                                hi, iv.hi_closed and hi_closed))
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        out = []
        prev_hi: Optional[Fraction] = None
        prev_closed = False
        at_start = True
        for iv in self.intervals:
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

    def clipped_below(self, t: Fraction) -> "IntervalSet":
        """Intersection with (-oo, t]."""
        out = []
        for iv in self.intervals:
            if iv.lo is not None and (iv.lo > t):
                break
            if iv.hi is None or iv.hi > t:
                out.append(Interval(iv.lo, iv.lo_closed, t, True))
                break
            out.append(iv)
        return IntervalSet(out)


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------

class StepFunction:
    """Canonical binary step function with independent breakpoint values.

    The value is ``leading`` on (-oo, bps[0]), ``at[i]`` at bps[i] and
    ``right[i]`` on (bps[i], bps[i+1]) -- the last ``right`` extends to
    +oo.  Construction canonicalizes: a breakpoint whose point value and
    right value both equal the value to its left carries no information
    and is dropped, so pointwise equality of functions coincides with
    structural equality (``==``).
    """

    __slots__ = ("leading", "bps", "at", "right")

    def __init__(self, leading: int, bps: Sequence[RationalLike],
                 at: Sequence[int], right: Sequence[int]):
        if not (len(bps) == len(at) == len(right)):
            raise ValueError("bps, at and right must have equal length")
        ts = [as_time(b) for b in bps]
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if leading not in (0, 1) or any(v not in (0, 1) for v in at) \
                or any(v not in (0, 1) for v in right):
            raise ValueError("values must be bits")
        k_bps: list[Fraction] = []
        k_at: list[int] = []
        k_right: list[int] = []
        left = leading
        for b, a, r in zip(ts, at, right):
            if a == r == left:
                continue
            k_bps.append(b)
            k_at.append(a)
            k_right.append(r)
            left = r
        object.__setattr__(self, "leading", leading)
        object.__setattr__(self, "bps", tuple(k_bps))
        object.__setattr__(self, "at", tuple(k_at))
        object.__setattr__(self, "right", tuple(k_right))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("StepFunction is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(bit: int) -> "StepFunction":
        return StepFunction(bit, (), (), ())

    @staticmethod
    def from_toggles(initial: int, toggles: Sequence[RationalLike]) -> "StepFunction":
        """Right-continuous function flipping its value at each toggle."""
        ts = [as_time(t) for t in toggles]
        if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("toggle times must be strictly increasing")
        at, right = [], []
        v = initial
        for _ in ts:
            v ^= 1
            at.append(v)
            right.append(v)
        return StepFunction(initial, ts, at, right)

    # -- evaluation ---------------------------------------------------------

    def value(self, t: RationalLike) -> int:
        t = as_time(t)
        i = bisect.bisect_left(self.bps, t)
        if i < len(self.bps) and self.bps[i] == t:
            return self.at[i]
        return self.leading if i == 0 else self.right[i - 1]

    def left_value(self, t: RationalLike) -> int:
        """f(t-0), the left limit at t."""
        t = as_time(t)
        i = bisect.bisect_left(self.bps, t)
        return self.leading if i == 0 else self.right[i - 1]

    def right_value(self, t: RationalLike) -> int:
        """f(t+0), the right limit at t."""
        t = as_time(t)
        i = bisect.bisect_right(self.bps, t)
        return self.leading if i == 0 else self.right[i - 1]

    def __call__(self, t: RationalLike) -> int:
        return self.value(t)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, StepFunction)
                and self.leading == other.leading and self.bps == other.bps
                and self.at == other.at and self.right == other.right)

    def __hash__(self) -> int:
        return hash((self.leading, self.bps, self.at, self.right))

    def __repr__(self) -> str:
        if not self.bps:
            return f"StepFunction.const({self.leading})"
        parts = [f"{self.leading}|(-oo,{self.bps[0]})"]
        for i, b in enumerate(self.bps):
            parts.append(f"{self.at[i]}@{b}")
            hi = self.bps[i + 1] if i + 1 < len(self.bps) else "oo"
            parts.append(f"{self.right[i]}|({b},{hi})")
        return "<" + " ".join(parts) + ">"

    # -- Boolean algebra ----------------------------------------------------

    def __invert__(self) -> "StepFunction":
        return StepFunction(1 - self.leading, self.bps,
                            tuple(1 - v for v in self.at),
                            tuple(1 - v for v in self.right))

    def _zip(self, other: "StepFunction", op) -> "StepFunction":
        bps = sorted(set(self.bps) | set(other.bps))
        at = [op(self.value(b), other.value(b)) for b in bps]
        right = [op(self.right_value(b), other.right_value(b)) for b in bps]
        return StepFunction(op(self.leading, other.leading), bps, at, right)

    def __and__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, lambda a, b: a & b)

    def __or__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, lambda a, b: a | b)

    def __xor__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, lambda a, b: a ^ b)

    def __le__(self, other: "StepFunction") -> bool:
        """Pointwise order: self(t) <= other(t) for all t."""
        return not (self & ~other)._nonzero()

    def _nonzero(self) -> bool:
        return self.leading == 1 or any(self.at) or any(self.right)

    # -- limits and derivatives ---------------------------------------------

    def left_limit(self) -> "StepFunction":
        """t -> f(t-0); the result is left-continuous."""
        at = []
        left = self.leading
        for i in range(len(self.bps)):
            at.append(left)
            left = self.right[i]
        return StepFunction(self.leading, self.bps, at, self.right)

    def right_limit(self) -> "StepFunction":
        """t -> f(t+0); the result is right-continuous."""
        return StepFunction(self.leading, self.bps, self.right, self.right)

    def derivative(self) -> "StepFunction":
        """Left derivative  Df(t) = f(t-0) xor f(t)."""
        return self.left_limit() ^ self

    def right_derivative(self) -> "StepFunction":
        """Right derivative  D*f(t) = f(t+0) xor f(t)."""
        return self.right_limit() ^ self

    def semi_derivative(self, kind: str) -> "StepFunction":
        """Semi-derivatives: '01-left', '10-left', '01-right', '10-right'.

        '01-left' is (not f(t-0)) . f(t): the rising switch indicator.
        """
        if kind == "01-left":
            return ~self.left_limit() & self
        if kind == "10-left":
            return self.left_limit() & ~self
        if kind == "01-right":
            return ~self & self.right_limit()
        if kind == "10-right":
            return self & ~self.right_limit()
        raise ValueError(f"unknown semi-derivative kind {kind!r}")

    def rises(self) -> "StepFunction":
        return self.semi_derivative("01-left")

    def falls(self) -> "StepFunction":
        return self.semi_derivative("10-left")

    # -- geometry -----------------------------------------------------------

    def shift(self, d: RationalLike) -> "StepFunction":
        """Translation: result(t) = f(t - d)."""
        d = as_time(d)
        return StepFunction(self.leading, tuple(b + d for b in self.bps),
                            self.at, self.right)

    def truncate(self, horizon: RationalLike) -> "StepFunction":
        """Drop behaviour after the horizon; the value at it extends to +oo."""
        h = as_time(horizon)
        n = bisect.bisect_right(self.bps, h)
        return StepFunction(self.leading, self.bps[:n], self.at[:n], self.right[:n])

    def support(self) -> IntervalSet:
        """The set {t : f(t) = 1} with exact endpoint closures."""
        return self._level_set(1)

    def zero_set(self) -> IntervalSet:
        return self._level_set(0)

    def _level_set(self, bit: int) -> IntervalSet:
        pieces: list[Interval] = []
        if self.leading == bit:
            pieces.append(Interval(None, False, self.bps[0] if self.bps else None, False))
        for i, b in enumerate(self.bps):
            if self.at[i] == bit:
                pieces.append(Interval(b, True, b, True))
            if self.right[i] == bit:
                hi = self.bps[i + 1] if i + 1 < len(self.bps) else None
                pieces.append(Interval(b, False, hi, False))
        return IntervalSet(pieces)

    # -- classification -----------------------------------------------------

    def is_right_continuous(self) -> bool:
        return self.at == self.right

    def is_signal(self) -> bool:
        """Right-continuous with every switch at time >= 0."""
        return self.is_right_continuous() and (not self.bps or self.bps[0] >= 0)

    def limit_at_infinity(self) -> int:
        """Finitely many breakpoints make every function eventually constant."""
        return self.right[-1] if self.bps else self.leading

    def toggles(self) -> tuple[Fraction, ...]:
        """Switch times of a right-continuous function."""
        if not self.is_right_continuous():
            raise ValueError("toggles are defined for right-continuous functions only")
        return self.bps

    def final_value(self) -> int:
        return self.limit_at_infinity()


def as_signal(f: StepFunction) -> StepFunction:
    if not f.is_signal():
        raise ValueError(f"not a signal (right-continuous with switches >= 0): {f!r}")
    return f


def indicator(intervals: IntervalSet) -> StepFunction:
    """The characteristic StepFunction of an interval set."""
    endpoints = sorted({p for iv in intervals
                        for p in (iv.lo, iv.hi) if p is not None})
    if not endpoints:
        return StepFunction.const(1 if intervals else 0)
    leading = 1 if intervals.contains(endpoints[0] - 1) else 0
    at, right = [], []
    for i, b in enumerate(endpoints):
        at.append(1 if intervals.contains(b) else 0)
        probe = b + 1 if i + 1 == len(endpoints) else (b + endpoints[i + 1]) / 2
        right.append(1 if intervals.contains(probe) else 0)
    return StepFunction(leading, endpoints, at, right)


def chi(lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> StepFunction:
    """Indicator of a single interval; chi(a, b) is the usual [a, b).

    Pass ``None`` for an infinite end.
    """
    lo_t = None if lo is None else as_time(lo)
    hi_t = None if hi is None else as_time(hi)
    return indicator(IntervalSet([Interval(lo_t, lo_closed and lo_t is not None,
                                           hi_t, hi_closed and hi_t is not None)]))


def chi_point(t) -> StepFunction:
    t = as_time(t)
    return indicator(IntervalSet([Interval(t, True, t, True)]))


# ---------------------------------------------------------------------------
# Sliding windows
# ---------------------------------------------------------------------------

def window(u: StepFunction, op: str,
           start_off: RationalLike, end_off: RationalLike,
           include_start: bool = True, include_end: bool = True) -> StepFunction:
    """op in {'inf','sup'} of u over the sliding window <t+start_off, t+end_off>.

    The window may be empty nowhere or everywhere; an everywhere-empty
    window yields the empty-meet conventions (inf 1, sup 0).

    The result is exact: op(u) hits the off value exactly on the
    Minkowski sum of u's relevant level set with the reflected window.
    """
    if op not in ("inf", "sup"):
        raise ValueError("op must be 'inf' or 'sup'")
    s, e = as_time(start_off), as_time(end_off)
    if s > e or (s == e and not (include_start and include_end)):
        return StepFunction.const(1 if op == "inf" else 0)
    level = u.zero_set() if op == "inf" else u.support()
    # xi in <t+s, t+e>  <=>  t in <xi-e, xi-s>
    hit = level.minkowski(-e, include_end, -s, include_start)
    return indicator(hit.complement() if op == "inf" else hit)


def window_inf(u: StepFunction, d: RationalLike, m: RationalLike) -> StepFunction:
    """inf of u over [t-d, t-d+m], 0 <= m <= d.  m = 0 degenerates to a shift."""
    d, m = as_time(d), as_time(m)
    if not 0 <= m <= d:
        raise ValueError("window needs 0 <= m <= d")
    return window(u, "inf", -d, -d + m)


def window_sup(u: StepFunction, d: RationalLike, m: RationalLike) -> StepFunction:
    """sup of u over [t-d, t-d+m], 0 <= m <= d."""
    d, m = as_time(d), as_time(m)
    if not 0 <= m <= d:
        raise ValueError("window needs 0 <= m <= d")
    return window(u, "sup", -d, -d + m)


def window_inf_halfopen(u: StepFunction, d: RationalLike) -> StepFunction:
    """inf of u over [t-d, t), d > 0.  Not right-continuous in general."""
    d = as_time(d)
    if d <= 0:
        raise ValueError("half-open window needs d > 0")
    return window(u, "inf", -d, 0, include_end=False)


def window_sup_halfopen(u: StepFunction, d: RationalLike) -> StepFunction:
    """sup of u over [t-d, t), d > 0."""
    d = as_time(d)
    if d <= 0:
        raise ValueError("half-open window needs d > 0")
    return window(u, "sup", -d, 0, include_end=False)


# ---------------------------------------------------------------------------
# Pulses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pulse:
    kind: str  # "one-pulse" | "zero-pulse"
    start: Fraction
    end: Fraction
    length: Fraction


def pulses(f: StepFunction) -> list[Pulse]:
    """All maximal pulses of a signal: runs [t', t'') flanked by the
    opposite value on both sides."""
    as_signal(f)
    out = []
    for i in range(len(f.bps) - 1):
        start, end = f.bps[i], f.bps[i + 1]
        kind = "one-pulse" if f.at[i] == 1 else "zero-pulse"
        out.append(Pulse(kind, start, end, end - start))
    return out


# ---------------------------------------------------------------------------
# Signal literal format:  name: <0|1> @ t1, t2, ...
# ---------------------------------------------------------------------------

def parse_signal_literal(line: str) -> tuple[str, StepFunction]:
    """Parse one 'name: <0|1> @ t1, t2, ...' line into a named signal.

    Times are exact decimals or p/q fractions.  The '@' clause may be
    omitted for a constant.
    """
    if ":" not in line:
        raise ValueError(f"signal literal needs 'name: value', got {line!r}")
    name, _, rest = line.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"empty signal name in {line!r}")
    rest = rest.strip()
    if "@" in rest:
        init_txt, _, times_txt = rest.partition("@")
    else:
        init_txt, times_txt = rest, ""
    init_txt = init_txt.strip()
    if init_txt not in ("0", "1"):
        raise ValueError(f"initial value of {name!r} must be 0 or 1, got {init_txt!r}")
    toggles = []
    for tok in times_txt.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            toggles.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad time {tok!r} in signal {name!r}: {exc}") from exc
    if any(toggles[i] >= toggles[i + 1] for i in range(len(toggles) - 1)):
        raise ValueError(f"toggle times of {name!r} must be strictly increasing")
    return name, StepFunction.from_toggles(int(init_txt), toggles)


def parse_signal_file(text: str) -> dict[str, StepFunction]:
    out: dict[str, StepFunction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, sig = parse_signal_literal(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if name in out:
            raise ValueError(f"line {lineno}: duplicate signal {name!r}")
        out[name] = sig
    return out


def format_time(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def format_signal_literal(name: str, f: StepFunction) -> str:
    ts = f.toggles()
    if not ts:
        return f"{name}: {f.leading}"
    return f"{name}: {f.leading} @ " + ", ".join(format_time(t) for t in ts)
