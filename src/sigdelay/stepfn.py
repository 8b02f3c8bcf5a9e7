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
other, so closures are never approximated.  The sum is built as the
level set is walked: ``StepFunction._runs`` yields the runs of a bit
and ``_dilate`` shifts each and fuses it with the one before, so no
level set is kept; a supremum is the indicator of the sum, an infimum
the indicator of its complement.

Cost is linear in the breakpoints involved.  The Boolean operations
merge the two breakpoint tuples in one two-pointer walk; each derivative
keeps the breakpoints that pass one test in one pass.  A window is one
walk that dilates u's runs, a complement for an infimum, and one walk of
``indicator``.  Level sets, Minkowski sums, complements and clips build
their interval sets in one walk too, the first two from the same run
generator and fusion as the windows.  Only the public ``IntervalSet``
constructor sorts and merges, so a set built there from unsorted pieces
adds a logarithmic factor; kernel-built sets and signals skip the
validation of what they built themselves.  Each kernel result is
canonical as built: an operation that can make a breakpoint
uninformative drops it inside its own walk, so only the validating
``StepFunction`` constructor runs a canonicalizing pass.  An ``Interval``
is a named tuple, so building one costs little more than a tuple.

The kernel only adds, subtracts and compares times, so it runs alike on
Fractions and on plain ints, which mix exactly.  A computation over
many times first scales them all to integer ticks 1/k over their
``timebase`` k, the lcm of their denominators (the reduction of timed
automata to integer constants), runs on ints, and scales the times it
returns back to Fractions; ints count as ticks already.  Offsets,
bounds and point lookups (``shift``, ``truncate``, the windows, ``value``
and its one-sided limits) keep an int argument an int for that reason;
``as_time`` and every operation that inserts a breakpoint make Fractions.

The signal literal format has one tokenizer, ``_read_signal_literal``,
which reads a line into its initial bit and the integer numerators and
denominators of its times, and times have one writer, ``format_time``
(of a time, or of t ticks of 1/k).  ``parse_signal_literal`` builds
Fractions; the CLI's ``check`` builds its signals straight in ticks.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Time = Fraction

RationalLike = Union[Fraction, int, str]


def as_time(value: RationalLike) -> Fraction:
    """Coerce ints, p/q strings and terminating decimals to an exact Fraction.

    Floats are rejected: a binary float silently moves window endpoints.
    """
    if isinstance(value, float):
        raise TypeError("float times are not exact; pass Fraction, int or a 'p/q' string")
    try:
        return _read_fraction(value) if type(value) is str else Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"time {value!r} has a zero denominator") from exc


# CPython's default limit on the digits of an int read from or written as a
# string.  A decimal exponent beyond it makes a short token a huge number:
# Fraction('1e10000000') takes seconds, and '1e999999999' has a billion digits.
_EXPONENT_LIMIT = 4300


def _read_fraction(tok: str) -> Fraction:
    """``Fraction(tok)``, the one reader of every time and parameter that
    is text; it refuses a decimal exponent outside -4300..4300 before it
    builds anything, and more digits than CPython reads, naming the token."""
    _, e, exp = tok.lower().partition("e")
    digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _EXPONENT_LIMIT):
        raise ValueError(f"{tok!r} has a decimal exponent outside "
                         f"-{_EXPONENT_LIMIT}..{_EXPONENT_LIMIT}")
    try:
        return Fraction(tok)
    except ValueError as exc:  # the only one that does not quote tok: too many digits
        if repr(tok) in str(exc):
            raise
        raise ValueError(f"{tok!r} has more than {_EXPONENT_LIMIT} digits") from None


def _as_offset(value: RationalLike) -> Union[Fraction, int]:
    """``as_time`` for an offset or a bound, except that an int stays an
    int: added to or compared with ticks it keeps them ints, and with
    Fractions it mixes exactly."""
    return value if type(value) is int else as_time(value)


# ---------------------------------------------------------------------------
# Integer ticks
# ---------------------------------------------------------------------------

# Ticks over a timebase of many bits are big integers whose sums and
# comparisons cost more than the Fraction arithmetic they replace.  A
# Dbridc check of two 2,000-toggle signals with prime denominators took
# 0.40x the time of the Fraction kernel at a 1,704-bit timebase, 0.59x at
# 8,716 bits and 1.19x at 24,856 bits (CPython 3.11, x86-64).  Above this
# bound ``timebase`` declines and the kernel runs on the Fractions.
_TIMEBASE_BITS = 8192


def timebase(times: Iterable) -> Optional[int]:
    """The lcm k of the denominators of the Fractions among ``times``, so
    that each time is a whole number of ticks 1/k.  None when the times are
    best left as they are: all ints already (ticks), or k above the bound."""
    return _lcm_within_bound({t.denominator for t in times if type(t) is not int})


def _lcm_within_bound(dens: set) -> Optional[int]:
    """The lcm of the denominators ``dens``; None when there are none or it
    is above the timebase bound."""
    if not dens:
        return None
    k = 1
    for d in dens:
        k = math.lcm(k, d)
        if k.bit_length() > _TIMEBASE_BITS:
            return None
    return k


def _to_ticks(t, k: Optional[int]):
    """t in ticks of 1/k; None (an infinite end) and k None leave it as it is."""
    return t if k is None or t is None else t.numerator * (k // t.denominator)


def _to_time(t, k: Optional[int]):
    """The Fraction time of t ticks of 1/k; None and k None leave it as it is."""
    return t if k is None or t is None else Fraction(t, k)


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------

class Interval(NamedTuple):
    """One maximal interval of an interval set.

    ``lo is None`` means -oo (then lo_closed is False), ``hi is None``
    means +oo.  A single point is lo == hi with both ends closed.  A
    plain tuple underneath: immutable and hashable, and equal to the
    4-tuple of its fields.
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


# ``Interval(...)`` runs a Python-level ``__new__``; the kernel builds the
# intervals it knows to be well formed with ``tuple.__new__`` directly.
_new = tuple.__new__


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

    @classmethod
    def _canon(cls, intervals: Sequence[Interval]) -> "IntervalSet":
        """Trusted constructor for intervals that are canonical by
        construction: sorted, disjoint, non-touching (two of them share an
        end only where both ends are open) and non-empty.  It stores them
        as they are; ``IntervalSet(...)`` sorts and merges everything that
        comes from outside."""
        s = object.__new__(cls)
        object.__setattr__(s, "intervals", tuple(intervals))
        return s

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
        """Minkowski sum with the interval <lo_off, hi_off>, by ``_dilate``."""
        if lo_off > hi_off or (lo_off == hi_off and not (lo_closed and hi_closed)):
            raise ValueError("empty offset interval in Minkowski sum")
        return _dilate(self.intervals, lo_off, lo_closed, hi_off, hi_closed)

    def complement(self) -> "IntervalSet":
        """The gaps between the intervals; gaps between canonical intervals
        are non-empty."""
        out = []
        gap_lo: Optional[Fraction] = None  # the first gap starts at -oo
        gap_lo_c = False
        for lo, lo_c, hi, hi_c in self.intervals:
            if lo is not None:
                out.append(_new(Interval, (gap_lo, gap_lo_c, lo, not lo_c)))
            if hi is None:
                return IntervalSet._canon(out)
            gap_lo, gap_lo_c = hi, not hi_c
        out.append(_new(Interval, (gap_lo, gap_lo_c, None, False)))
        return IntervalSet._canon(out)

    def clipped_below(self, t: Fraction) -> "IntervalSet":
        """Intersection with (-oo, t]."""
        out = []
        for iv in self.intervals:
            lo, lo_c, hi, _ = iv
            if lo is not None and lo > t:
                break
            if hi is None or hi > t:
                if lo != t or lo_c:  # (t, t] is empty
                    out.append(_new(Interval, (lo, lo_c, t, True)))
                break
            out.append(iv)
        return IntervalSet._canon(out)


def _dilate(runs: Iterable[tuple], lo_off, lo_closed: bool,
            hi_off, hi_closed: bool) -> IntervalSet:
    """The Minkowski sum of sorted, disjoint, non-touching runs (a canonical
    set's intervals, or a level set as ``StepFunction._runs`` yields it)
    with the non-empty interval <lo_off, hi_off>, in one pass.

    [p,q) + [a,b] = [p+a, q+b) and {p} + (0,d] = (p, p+d]; in general
    each endpoint closure survives only if both contributing ends are
    closed.  Shifting keeps the lower ends, and so the upper ends,
    strictly increasing, so each sum fuses with the one before where they
    now overlap or touch, the later upper end winning; the sum being fused
    is kept in locals and stored once it is complete.
    """
    out: list[Interval] = []
    first = True  # only the first sum starts at -oo, only the last ends at +oo
    for lo, lo_c, hi, hi_c in runs:
        if lo is not None:
            lo += lo_off
        if hi is not None:
            hi += hi_off
        lo_c, hi_c = lo_c and lo_closed, hi_c and hi_closed
        if first:
            first = False
        elif lo < p_hi or (lo == p_hi and (p_hi_c or lo_c)):
            p_hi, p_hi_c = hi, hi_c
            continue
        else:
            out.append(_new(Interval, (p_lo, p_lo_c, p_hi, p_hi_c)))
        p_lo, p_lo_c, p_hi, p_hi_c = lo, lo_c, hi, hi_c
    if not first:
        out.append(_new(Interval, (p_lo, p_lo_c, p_hi, p_hi_c)))
    return IntervalSet._canon(out)


# ---------------------------------------------------------------------------
# Step functions
# ---------------------------------------------------------------------------

# semi-derivative kind -> (test of f(b) against a limit at b, is it the left limit)
_SEMI = {"01-left": (operator.gt, True), "10-left": (operator.lt, True),
         "01-right": (operator.lt, False), "10-right": (operator.gt, False)}


class StepFunction:
    """Canonical binary step function with independent breakpoint values.

    The value is ``leading`` on (-oo, bps[0]), ``at[i]`` at bps[i] and
    ``right[i]`` on (bps[i], bps[i+1]) -- the last ``right`` extends to
    +oo.  The form is canonical: a breakpoint whose point value and right
    value both equal the value to its left carries no information and is
    never stored, so pointwise equality of functions coincides with
    structural equality (``==``).  ``StepFunction(...)`` drops such
    breakpoints from what it is given; every kernel operation emits none.
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
        _store(self, leading, k_bps, k_at, k_right)

    @classmethod
    def _canon(cls, leading: int, bps: Sequence[Fraction],
               at: Sequence[int], right: Sequence[int]) -> "StepFunction":
        """Trusted constructor for data that is canonical by construction:
        breakpoints in strictly increasing order, bit values, and no
        breakpoint whose point and right values repeat the value to its
        left.  It stores them as they are; ``StepFunction(...)`` validates
        and canonicalizes everything that comes from outside."""
        f = object.__new__(cls)
        _store(f, leading, bps, at, right)
        return f

    def __setattr__(self, *a):  # immutable
        raise AttributeError("StepFunction is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(bit: int) -> "StepFunction":
        return StepFunction(bit, (), (), ())

    @staticmethod
    def from_toggles(initial: int, toggles: Sequence[RationalLike]) -> "StepFunction":
        """Right-continuous function flipping its value at each toggle."""
        at = _toggled_bits(initial, len(toggles))
        return StepFunction(initial, toggles, at, at)

    @classmethod
    def _from_toggles(cls, initial: int, times: Sequence[Fraction]) -> "StepFunction":
        """Trusted ``from_toggles`` for an initial bit and Fraction times in
        strictly increasing order, as the kernel, the simulator and the
        parser (after its own checks) produce them; ``from_toggles``
        validates everything that comes from outside.  Canonical: each
        breakpoint switches the value."""
        at = _toggled_bits(initial, len(times))
        return cls._canon(initial, times, at, at)

    # -- ticks --------------------------------------------------------------

    def _to_ticks(self, k: Optional[int]) -> "StepFunction":
        """This function with its breakpoints in ticks of 1/k (k None: as it
        is).  Scaling time by k > 0 keeps a canonical function canonical,
        so the values are shared as they are."""
        if k is None:
            return self
        return self._with_bps([b.numerator * (k // b.denominator) for b in self.bps])

    def _to_time(self, k: Optional[int]) -> "StepFunction":
        """The inverse of ``_to_ticks``: breakpoints of t ticks back to t/k,
        which keeps a canonical function canonical too."""
        if k is None:
            return self
        return self._with_bps([Fraction(b, k) for b in self.bps])

    def _with_bps(self, bps: Sequence) -> "StepFunction":
        return StepFunction._canon(self.leading, bps, self.at, self.right)

    # -- evaluation ---------------------------------------------------------

    def value(self, t: RationalLike) -> int:
        t = _as_offset(t)
        i = bisect.bisect_left(self.bps, t)
        if i < len(self.bps) and self.bps[i] == t:
            return self.at[i]
        return self.leading if i == 0 else self.right[i - 1]

    def left_value(self, t: RationalLike) -> int:
        """f(t-0), the left limit at t."""
        t = _as_offset(t)
        i = bisect.bisect_left(self.bps, t)
        return self.leading if i == 0 else self.right[i - 1]

    def right_value(self, t: RationalLike) -> int:
        """f(t+0), the right limit at t."""
        t = _as_offset(t)
        i = bisect.bisect_right(self.bps, t)
        return self.leading if i == 0 else self.right[i - 1]

    __call__ = value

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
        # negation keeps every breakpoint informative
        return StepFunction._canon(1 - self.leading, self.bps,
                                   [1 - v for v in self.at],
                                   [1 - v for v in self.right])

    def _zip(self, other: "StepFunction", op) -> "StepFunction":
        """Pointwise ``op``: one two-pointer merge of the breakpoint tuples,
        carrying each side's value right of its last breakpoint passed and
        dropping every breakpoint whose values both equal the one to its left."""
        f_bps, f_at, f_right = self.bps, self.at, self.right
        g_bps, g_at, g_right = other.bps, other.at, other.right
        nf, ng = len(f_bps), len(g_bps)
        i = j = 0
        fv, gv = self.leading, other.leading
        left = leading = op(fv, gv)
        bps: list[Fraction] = []
        at: list[int] = []
        right: list[int] = []
        while i < nf or j < ng:
            if j == ng or (i < nf and f_bps[i] < g_bps[j]):
                b, fa, ga = f_bps[i], f_at[i], gv
                fv = f_right[i]
                i += 1
            elif i == nf or g_bps[j] < f_bps[i]:
                b, fa, ga = g_bps[j], fv, g_at[j]
                gv = g_right[j]
                j += 1
            else:
                b, fa, ga = f_bps[i], f_at[i], g_at[j]
                fv, gv = f_right[i], g_right[j]
                i += 1
                j += 1
            a, r = op(fa, ga), op(fv, gv)
            if a == r == left:
                continue
            bps.append(b)
            at.append(a)
            right.append(r)
            left = r
        return StepFunction._canon(leading, bps, at, right)

    def __and__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.and_)

    def __or__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.or_)

    def __xor__(self, other: "StepFunction") -> "StepFunction":
        return self._zip(other, operator.xor)

    def __le__(self, other: "StepFunction") -> bool:
        """Pointwise order: self(t) <= other(t) for all t."""
        return not self._zip(other, operator.gt)._nonzero()  # self and not other

    def _nonzero(self) -> bool:
        return self.leading == 1 or any(self.at) or any(self.right)

    # -- limits and derivatives ---------------------------------------------

    def _switches(self) -> tuple[list, list[int]]:
        """The breakpoints where the value to the right changes, with that
        value: the breakpoints of both one-sided limits.  The others are
        point glitches, which neither limit sees."""
        bps: list[Fraction] = []
        right: list[int] = []
        left = self.leading
        for b, r in zip(self.bps, self.right):
            if r != left:
                bps.append(b)
                right.append(r)
                left = r
        return bps, right

    def left_limit(self) -> "StepFunction":
        """t -> f(t-0); the result is left-continuous."""
        bps, right = self._switches()
        return StepFunction._canon(self.leading, bps, [1 - r for r in right], right)

    def right_limit(self) -> "StepFunction":
        """t -> f(t+0); the result is right-continuous."""
        bps, right = self._switches()
        return StepFunction._canon(self.leading, bps, right, right)

    def derivative(self) -> "StepFunction":
        """Left derivative  Df(t) = f(t-0) xor f(t)."""
        return self._marks(operator.ne, True)

    def right_derivative(self) -> "StepFunction":
        """Right derivative  D*f(t) = f(t+0) xor f(t)."""
        return self._marks(operator.ne, False)

    def semi_derivative(self, kind: str) -> "StepFunction":
        """Semi-derivatives: '01-left', '10-left', '01-right', '10-right'.

        '01-left' is (not f(t-0)) . f(t): the rising switch indicator.
        """
        if kind not in _SEMI:
            raise ValueError(f"unknown semi-derivative kind {kind!r}")
        return self._marks(*_SEMI[kind])

    def rises(self) -> "StepFunction":
        return self._marks(operator.gt, True)

    def falls(self) -> "StepFunction":
        return self._marks(operator.lt, True)

    def _marks(self, op, left: bool) -> "StepFunction":
        """The indicator of the breakpoints b where op(f(b), f(b-0) if left
        else f(b+0)) holds: 0, but 1 at each.  Every derivative is 0 off the
        breakpoints, so one pass builds it, canonical as built."""
        limits = chain((self.leading,), self.right) if left else self.right
        bps = tuple(compress(self.bps, map(op, self.at, limits)))
        return StepFunction._canon(0, bps, (1,) * len(bps), (0,) * len(bps))

    # -- geometry -----------------------------------------------------------

    def shift(self, d: RationalLike) -> "StepFunction":
        """Translation: result(t) = f(t - d)."""
        d = _as_offset(d)
        # translation keeps the order of the breakpoints and their values
        return StepFunction._canon(self.leading, [b + d for b in self.bps],
                                   self.at, self.right)

    def truncate(self, horizon: RationalLike) -> "StepFunction":
        """Drop behaviour after the horizon; the value at it extends to +oo."""
        h = _as_offset(horizon)
        n = bisect.bisect_right(self.bps, h)
        # a prefix of a canonical function is canonical
        return StepFunction._canon(self.leading, self.bps[:n], self.at[:n], self.right[:n])

    def truncate_before(self, start: RationalLike, value: int) -> "StepFunction":
        """Drop behaviour before ``start``: the result is ``value`` before it
        and f from it on."""
        if value not in (0, 1):
            raise ValueError("values must be bits")
        s = _as_offset(start)
        i = bisect.bisect_left(self.bps, s)
        if i < len(self.bps) and self.bps[i] == s:
            b, a, r = self.bps[i], self.at[i], self.right[i]
            i += 1
        else:  # a breakpoint at start carrying f's value there
            b, a = as_time(s), (self.leading if i == 0 else self.right[i - 1])
            r = a
        bps, at, right = self.bps[i:], self.at[i:], self.right[i:]
        if not a == r == value:  # else it repeats the value before start
            bps, at, right = (b,) + bps, (a,) + at, (r,) + right
        return StepFunction._canon(value, bps, at, right)

    def support(self) -> IntervalSet:
        """The set {t : f(t) = 1} with exact endpoint closures."""
        return IntervalSet._canon(map(_new, repeat(Interval), self._runs(1)))

    def zero_set(self) -> IntervalSet:
        return IntervalSet._canon(map(_new, repeat(Interval), self._runs(0)))

    def _runs(self, bit: int) -> Iterator[tuple]:
        """The maximal runs of ``bit``, in order, from one walk, each as the
        plain tuple of an ``Interval``'s fields: a run opens where the value
        turns to ``bit`` and closes where it leaves it, closed at b if the
        point value there is ``bit``.  Runs that meet at a point outside the
        set, as in (p, b) u (b, q), stay two, so the runs are the canonical
        intervals of the level set."""
        inside = self.leading == bit
        lo: Optional[Fraction] = None
        lo_closed = False
        for b, a, r in zip(self.bps, self.at, self.right):
            if inside:
                yield lo, lo_closed, b, a == bit
            elif a == bit != r:
                yield b, True, b, True
            inside = r == bit
            lo, lo_closed = b, a == bit
        if inside:
            yield lo, lo_closed, None, False

    # -- classification -----------------------------------------------------

    def is_right_continuous(self) -> bool:
        return self.at == self.right

    def is_signal(self) -> bool:
        """Right-continuous with every switch at time >= 0 (a numerator's sign)."""
        return self.is_right_continuous() and (not self.bps or self.bps[0].numerator >= 0)

    def limit_at_infinity(self) -> int:
        """Finitely many breakpoints make every function eventually constant."""
        return self.right[-1] if self.bps else self.leading

    def toggles(self) -> tuple[Fraction, ...]:
        """Switch times of a right-continuous function."""
        if not self.is_right_continuous():
            raise ValueError("toggles are defined for right-continuous functions only")
        return self.bps


# StepFunction refuses attribute assignment; its slots' own setters store
# its data at half the cost of object.__setattr__
_set_leading, _set_bps, _set_at, _set_right = (
    StepFunction.__dict__[name].__set__ for name in StepFunction.__slots__)


def _store(f: StepFunction, leading, bps, at, right) -> None:
    _set_leading(f, leading)
    _set_bps(f, tuple(bps))
    _set_at(f, tuple(at))
    _set_right(f, tuple(right))


def _toggled_bits(initial: int, n: int) -> tuple[int, ...]:
    """The value after each of n toggles from ``initial``; a toggle's value
    holds after it."""
    return ((1 - initial, initial) * ((n + 1) // 2))[:n]


def as_signal(f: StepFunction) -> StepFunction:
    if not f.is_signal():
        raise ValueError(f"not a signal (right-continuous with switches >= 0): {f!r}")
    return f


def indicator(intervals: IntervalSet) -> StepFunction:
    """The characteristic StepFunction of an interval set.

    One walk over the merged intervals, which are sorted, disjoint and
    non-touching: each finite endpoint is one breakpoint whose point value
    its own interval decides.  The only shared breakpoint is where two open
    ends meet, as in [0, 1) u (1, 2]: point value 0, right value 1.  Every
    breakpoint so built differs from the value to its left, in its point
    value or its right value, so the function is canonical as built.
    """
    ivs = intervals.intervals
    bps: list[Fraction] = []
    at: list[int] = []
    right: list[int] = []
    for iv in ivs:
        lo, _, hi, _ = iv
        if lo is not None:
            if bps and bps[-1] == lo:  # open ends meet: (p, lo) u (lo, q)
                right[-1] = 1
            else:
                bps.append(lo)
                at.append(1 if iv.contains(lo) else 0)
                right.append(0 if lo == hi else 1)
        if hi is not None and hi != lo:
            bps.append(hi)
            at.append(1 if iv.contains(hi) else 0)
            right.append(0)
    leading = 1 if ivs and ivs[0].lo is None else 0
    return StepFunction._canon(leading, bps, at, right)


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
    Minkowski sum of u's relevant level set with the reflected window,
    which ``_dilate`` builds as ``_runs`` walks u: one walk, and no level
    set is kept.
    """
    if op not in ("inf", "sup"):
        raise ValueError("op must be 'inf' or 'sup'")
    s, e = _as_offset(start_off), _as_offset(end_off)
    if s > e or (s == e and not (include_start and include_end)):
        return StepFunction.const(1 if op == "inf" else 0)
    # xi in <t+s, t+e>  <=>  t in <xi-e, xi-s>
    hit = _dilate(u._runs(0 if op == "inf" else 1), -e, include_end, -s, include_start)
    return indicator(hit.complement() if op == "inf" else hit)


def window_inf(u: StepFunction, d: RationalLike, m: RationalLike) -> StepFunction:
    """inf of u over [t-d, t-d+m], 0 <= m <= d.  m = 0 degenerates to a shift."""
    d, m = _as_offset(d), _as_offset(m)
    if not 0 <= m <= d:
        raise ValueError("window needs 0 <= m <= d")
    return window(u, "inf", -d, -d + m)


def window_sup(u: StepFunction, d: RationalLike, m: RationalLike) -> StepFunction:
    """sup of u over [t-d, t-d+m], 0 <= m <= d."""
    d, m = _as_offset(d), _as_offset(m)
    if not 0 <= m <= d:
        raise ValueError("window needs 0 <= m <= d")
    return window(u, "sup", -d, -d + m)


def window_inf_halfopen(u: StepFunction, d: RationalLike) -> StepFunction:
    """inf of u over [t-d, t), d > 0.  Not right-continuous in general."""
    d = _as_offset(d)
    if d <= 0:
        raise ValueError("half-open window needs d > 0")
    return window(u, "inf", -d, 0, include_end=False)


def window_sup_halfopen(u: StepFunction, d: RationalLike) -> StepFunction:
    """sup of u over [t-d, t), d > 0."""
    d = _as_offset(d)
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

# a literal's reading: its initial bit and the numerators and denominators of its times
_Reading = tuple[int, list[int], list[int]]


def _read_time(tok: str) -> tuple[int, int]:
    """The numerator and (positive) denominator of a time token, raising as
    ``Fraction(tok)`` does; p/q is kept as written."""
    return _read_ratio(tok) or _read_fraction(tok).as_integer_ratio()


def _read_ratio(tok: str) -> Optional[tuple[int, int]]:
    """ASCII digits, or two such runs around a '/', read by ``int`` with no
    Fraction; None for any other token, and for a run longer than CPython
    reads, which ``_read_fraction`` then refuses by name."""
    num, slash, den = tok.partition("/")
    if tok.isascii() and num.isdigit() and (not slash or den.isdigit()):
        try:
            n, d = int(num), int(den or 1)
        except ValueError:
            return None
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        return n, d
    return None


def _read_signal_literal(line: str) -> tuple[str, _Reading]:
    """Tokenize one 'name: <0|1> @ t1, t2, ...' line into its name and its
    reading: the initial bit, and the numerators and the (positive)
    denominators of its times, checked to increase strictly.

    Times are exact decimals or p/q fractions, read by ``_read_time``.
    The '@' clause may be omitted for a constant.  The order check
    compares the numerators and denominators as integers.
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
    nums: list[int] = []
    dens: list[int] = []
    increasing = True
    prev_n, prev_d = None, 1
    for tok in times_txt.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            n, d = _read_time(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad time {tok!r} in signal {name!r}: {exc}") from exc
        if prev_n is not None and n * prev_d <= prev_n * d:  # denominators > 0
            increasing = False
        prev_n, prev_d = n, d
        nums.append(n)
        dens.append(d)
    if not increasing:
        raise ValueError(f"toggle times of {name!r} must be strictly increasing")
    return name, (int(init_txt), nums, dens)


def _signal_of(reading: _Reading, k: Optional[int]) -> StepFunction:
    """The signal of a ``_read_signal_literal`` reading, its times as
    Fractions (k None) or as ticks of 1/k, for a k that every denominator
    divides."""
    initial, nums, dens = reading
    if k is None:
        times = [Fraction(n, d) for n, d in zip(nums, dens)]
    else:
        times = [n * (k // d) for n, d in zip(nums, dens)]
    return StepFunction._from_toggles(initial, times)


def parse_signal_literal(line: str) -> tuple[str, StepFunction]:
    """Parse one 'name: <0|1> @ t1, t2, ...' line into a named signal whose
    times are Fractions (see ``_read_signal_literal`` for the syntax)."""
    name, reading = _read_signal_literal(line)
    return name, _signal_of(reading, None)


def parse_signal_file(text: str) -> dict[str, StepFunction]:
    return {name: _signal_of(reading, None)
            for name, reading in _read_signal_file(text).items()}


def _read_signal_file(text: str) -> dict[str, _Reading]:
    """The ``_read_signal_literal`` reading of each signal line of ``text``,
    keyed by its name; '#' starts a comment."""
    out: dict[str, _Reading] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, reading = _read_signal_literal(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if name in out:
            raise ValueError(f"line {lineno}: duplicate signal {name!r}")
        out[name] = reading
    return out


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any length: CPython writes at most 4,300
    digits, so a longer one is written as two halves around a power of ten."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        half = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 3/10
        high, low = divmod(n, 10 ** half)
        return _decimal(high) + _decimal(low).zfill(half)


def format_time(t, k: Optional[int] = None) -> str:
    """The time t, or t ticks of 1/k, as n or n/d in lowest terms; ticks
    are reduced by one gcd, with no Fraction."""
    if k is None:
        n, d = t.numerator, t.denominator
    else:
        g = math.gcd(t, k)
        n, d = t // g, k // g
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def format_signal_literal(name: str, f: StepFunction) -> str:
    ts = f.toggles()
    if not ts:
        return f"{name}: {f.leading}"
    return f"{name}: {f.leading} @ " + ", ".join(format_time(t) for t in ts)
