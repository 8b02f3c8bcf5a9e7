"""Independent answer checks: brute probe evaluation from toggle lists.

Every verdict and waveform the benchmark times is re-judged here with
``brute_value``, ``brute_left_value`` and ``brute_window`` from
``sigdelay.solvers``, which read toggle lists directly and never touch
the interval or step-function machinery.

Two exact reductions keep the route affordable on long traces:

* times are scaled by twice the lcm of every denominator involved, so
  probes, breakpoints and window ends are even integers (integer
  comparisons instead of Fraction ones; midpoints stay exact);
* each brute call gets only the part of the toggle list that can matter
  for the probe: the dropped prefix contributes its parity to the
  initial value, and toggles after the probe's right end are never read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

GATES = {
    "NOT": lambda vals: 1 - vals[0],
    "AND": lambda vals: int(all(vals)),
    "OR": lambda vals: int(any(vals)),
    "NAND": lambda vals: 1 - int(all(vals)),
    "NOR": lambda vals: 1 - int(any(vals)),
    "XOR": lambda vals: sum(vals) & 1,
}


class Sig:
    """A right-continuous signal as (initial value, sorted scaled toggles)."""

    __slots__ = ("init", "ts", "brute")

    def __init__(self, init: int, ts: list[int], brute):
        self.init, self.ts, self.brute = init, ts, brute

    def _cut(self, lo, hi):
        i = bisect_left(self.ts, lo)
        j = bisect_right(self.ts, hi)
        return self.init ^ (i & 1), self.ts[i:j]

    def at(self, t) -> int:
        return self.brute.brute_value(*self._cut(t, t), t)

    def left(self, t) -> int:
        return self.brute.brute_left_value(*self._cut(t, t), t)

    def win(self, op: str, lo, hi, inc_lo=True, inc_hi=True) -> int:
        init, ts = self._cut(lo, hi)
        return self.brute.brute_window(init, ts, op, lo, hi, inc_lo, inc_hi)

    def rise(self, t) -> int:
        return (1 - self.left(t)) & self.at(t)

    def fall(self, t) -> int:
        return self.left(t) & (1 - self.at(t))

    def switched_in_open(self, lo, hi) -> bool:
        return bisect_left(self.ts, hi) > bisect_right(self.ts, lo)


class Oracle:
    """Scaled-integer probe evaluation for one group of signals and times."""

    def __init__(self, brute, times):
        self.brute = brute
        self.scale = 2 * lcm(*{Fraction(t).denominator for t in times}, 1)

    def time(self, t) -> int:
        v = Fraction(t) * self.scale
        if v.denominator != 1:
            raise ValueError(f"time {t} is off the oracle's scale")
        return v.numerator

    def sig(self, init: int, toggles) -> Sig:
        return Sig(init, [self.time(t) for t in toggles], self.brute)

    @staticmethod
    def probes(sigs, offsets, horizon=None) -> list[int]:
        """Every breakpoint shifted by every offset, the midpoints between
        consecutive ones, and one point beyond each end."""
        base = {0} if horizon is None else {0, horizon}
        for s in sigs:
            for b in s.ts:
                base.add(b)
                for off in offsets:
                    base.add(b + off)
                    base.add(b - off)
        base = sorted(base)
        pts = set(base)
        pts.update((a + b) // 2 for a, b in zip(base, base[1:]))
        pts.update((base[0] - 2, base[-1] + 2))
        return sorted(p for p in pts if horizon is None or p <= horizon)


def model_times(sd, model) -> list[Fraction]:
    """Every time parameter of a delay model (for the common scale)."""
    if isinstance(model, sd.Fixed) or isinstance(model, sd.SdbridcPrime):
        return [model.d]
    parts = []
    for name in ("p", "a", "r"):
        sub = getattr(model, name, None)
        if sub is not None:
            parts += [getattr(sub, f) for f in sub.__dataclass_fields__]
    if not parts:
        raise TypeError(f"oracle does not handle {model!r}")
    return parts


def _clauses(sd, o: Oracle, u: Sig | None, x: Sig, model):
    """(clause predicates over scaled t, probe offsets) of a delay model."""
    T = o.time
    if isinstance(model, sd.Fixed):
        d = T(model.d)
        return [lambda t: x.at(t) == u.at(t - d)], [d]
    if isinstance(model, sd.SdbridcPrime):
        d = T(model.d)

        def derivative_equation(t):
            xl = x.left(t)
            quiet = not u.switched_in_open(t - d, t)
            return (xl ^ x.at(t)) == ((xl ^ u.left(t)) & quiet)
        return [derivative_equation], [d]
    if isinstance(model, sd.Aic):
        dr, df = T(model.a.delta_r), T(model.a.delta_f)
        return [lambda t: x.rise(t) <= x.win("inf", t, t + dr),
                lambda t: x.fall(t) <= 1 - x.win("sup", t, t + df)], [dr, df]
    if isinstance(model, (sd.Bdc, sd.Dbridc, sd.Bridc)):
        p = model.p
        mr, dr, mf, df = T(p.m_r), T(p.d_r), T(p.m_f), T(p.d_f)
        offsets = [dr, dr - mr, df, df - mf]

        def low(t):
            return u.win("inf", t - dr, t - dr + mr)

        def up(t):
            return u.win("sup", t - df, t - df + mf)
        if isinstance(model, sd.Dbridc):
            return [lambda t: x.rise(t) == (1 - x.left(t)) & low(t),
                    lambda t: x.fall(t) == x.left(t) & (1 - up(t))], offsets
        cl = [lambda t: low(t) <= x.at(t), lambda t: x.at(t) <= up(t)]
        if isinstance(model, sd.Bridc):
            r = model.r
            ur, er, uf, ef = T(r.mu_r), T(r.delta_r), T(r.mu_f), T(r.delta_f)
            cl += [lambda t: x.rise(t) <= u.win("inf", t - er, t - er + ur),
                   lambda t: x.fall(t) <= 1 - u.win("sup", t - ef, t - ef + uf)]
            offsets += [er, er - ur, ef, ef - uf]
        return cl, offsets
    if isinstance(model, sd.Ric):
        r = model.r
        ur, er, uf, ef = T(r.mu_r), T(r.delta_r), T(r.mu_f), T(r.delta_f)
        return [lambda t: x.rise(t) <= u.win("inf", t - er, t - er + ur),
                lambda t: x.fall(t) <= 1 - u.win("sup", t - ef, t - ef + uf)], \
            [er, er - ur, ef, ef - uf]
    raise TypeError(f"oracle does not handle {model!r}")


def _holds(sd, o, u, x, model, horizon) -> bool:
    clauses, offsets = _clauses(sd, o, u, x, model)
    sigs = [x] if u is None else [x, u]
    return all(all(c(t) for c in clauses)
               for t in Oracle.probes(sigs, offsets, horizon))


def member(sd, u, x, model, horizon=None) -> bool:
    """Brute verdict: does (u, x) satisfy the model?

    ``u`` and ``x`` are (initial, toggles) pairs; ``u`` is None for the
    input-free models.
    """
    times = list(x[1]) + model_times(sd, model) + ([] if u is None else list(u[1]))
    if horizon is not None:
        times.append(horizon)
    o = Oracle(sd.solvers, times)
    us = None if u is None else o.sig(*u)
    h = None if horizon is None else o.time(horizon)
    return _holds(sd, o, us, o.sig(*x), model, h)


def circuit_errors(sd, netlist, waves: dict, horizon) -> list[str]:
    """Brute re-judgement of a simulated waveform set.

    ``waves`` maps every net to (initial, toggles).  Every gate equation
    and every delay element's model must hold on (-oo, horizon], and the
    initial values must follow the netlist; with positive lookback on
    every cycle that makes the waveform set the unique simulation result.
    """
    nets = netlist.nets()
    if sorted(waves) != sorted(nets):
        return [f"nets {sorted(waves)} != {sorted(nets)}"]
    times = [horizon] + [t for _, ts in waves.values() for t in ts]
    for d in netlist.delays:
        times += model_times(sd, d.model)
    o = Oracle(sd.solvers, times)
    sig = {n: o.sig(*waves[n]) for n in nets}
    h = o.time(horizon)
    errors = []
    for net, bit in netlist.inits.items():
        if sig[net].init != bit:
            errors.append(f"{net}: initial {sig[net].init} != init {bit}")
    for g in netlist.gates:
        fn, out, ins = GATES[g.kind], sig[g.out], [sig[i] for i in g.ins]
        if g.out not in netlist.inits and out.init != fn([s.init for s in ins]):
            errors.append(f"{g.out}: initial value breaks the {g.kind} gate")
        for t in Oracle.probes([out, *ins], [], h):
            if t >= 0 and out.at(t) != fn([s.at(t) for s in ins]):
                errors.append(f"{g.out}: {g.kind} gate fails at {Fraction(t, o.scale)}")
                break
    for d in netlist.delays:
        src, out = sig[d.src], sig[d.out]
        if src.init != out.init:
            errors.append(f"{d.out}: initial value differs from its input {d.src}")
        if not _holds(sd, o, src, out, d.model, h):
            errors.append(f"{d.out}: {sd.format_model(d.model)} fails")
    return errors
