"""Reference step-function kernel and deterministic solvers: the
probe-based indicator, the bisect-based Boolean merge and the window
sweeps of the two inertial delays.

These are the straightforward, quadratic-time versions of
``stepfn.indicator``, ``StepFunction._zip``, ``solve_dbridc`` and
``solve_sdbridc``.  They decide every value by evaluating whole step
functions at probe points (every interval's ``contains`` and
``StepFunction.value``/``left_value``/``right_value``), so they share no
walking logic or event form with the library and serve as its
independent oracle.
"""

from __future__ import annotations

from sigdelay.conditions import BdcParams, Dbridc, SdbridcPrime
from sigdelay.stepfn import IntervalSet, StepFunction


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
