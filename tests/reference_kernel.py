"""Reference step-function kernel: the probe-based indicator and the
bisect-based Boolean merge.

These are the straightforward, quadratic-time versions of
``stepfn.indicator`` and ``StepFunction._zip``.  They decide every value
by evaluating the inputs at probe points (every interval's ``contains``
and ``StepFunction.value``/``right_value``), so they share no walking logic
with the linear kernel and serve as its independent oracle.
"""

from __future__ import annotations

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
