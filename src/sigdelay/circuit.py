"""Netlists of instantaneous gates and deterministic delay elements.

The modeling discipline: logical gates compute their Boolean function
with zero delay from time 0 on (before 0 they hold a free constant),
and all timing lives in explicit delay elements.  Only deterministic
delay models are simulatable; nondeterministic models enter through
``check_trace_conformance``, which re-judges a finished waveform set
element by element.

Feedback is legal when every cycle contains an element that looks
strictly into the past (a positive-lookback window or the open-window
derivative equation); a cycle of zero-lookback elements has no
well-defined solution and is rejected statically, as is a delay whose
initial-value override contradicts its input.  Such cycles are found
from the evaluation order itself: the nets that the Kahn sort of the
zero-lookback graph cannot place all lie on or behind a cycle.

Simulation is event-driven: one queue of switch times, each delay
element in its model's event form (``conditions._Events``).  At each
time only the nets an event touches are settled, in the order of the
zero-lookback graph, so a gate or a zero-lookback delay sees its
inputs' values at that instant; a positive-lookback delay decides from
its input before that instant.  Work grows with the switches made, not
with the horizon, and an event budget bounds the switches of every net,
so runaway oscillation ends in an explicit error instead of a hang.
Simulation and conformance checks run on integer ticks over the
timebase of their inputs, parameters and horizon (``stepfn.timebase``);
every time they return is a Fraction.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .stepfn import (RationalLike, StepFunction, _to_ticks, _to_time, as_time,
                     format_time, timebase)
from .conditions import (
    CheckReport,
    DelayModel,
    Dbridc,
    Fixed,
    BdcParams,
    _eq,
    _in_ticks,
    _in_time,
    _report,
    _violation_key,
    check_membership,
    format_model,
    parse_model,
)


class ValidationError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class EventBudgetError(RuntimeError):
    """A net's switch at ``time`` is one more than the event budget allows."""

    def __init__(self, net: str, time: Optional[Fraction]):
        at = f" at t={format_time(time)}" if time is not None else ""
        super().__init__(f"event budget exceeded on net {net!r}{at}")
        self.net = net
        self.time = time


class GateKind(NamedTuple):
    op: Callable      # folds the inputs, bits and signals alike
    control: Optional[int]  # an input at this value decides the output
    invert: bool
    unary: bool = False


GATES = {
    "NOT": GateKind(operator.and_, None, True, unary=True),
    "AND": GateKind(operator.and_, 0, False),
    "NAND": GateKind(operator.and_, 0, True),
    "OR": GateKind(operator.or_, 1, False),
    "NOR": GateKind(operator.or_, 1, True),
    "XOR": GateKind(operator.xor, None, False),
}


def _gate_value(kind: str, values: list[Optional[int]]) -> Optional[int]:
    """The gate's output bit; None (unknown) inputs are read three-valued,
    so the result is None unless the known inputs decide it."""
    g = GATES[kind]
    if g.control is not None and g.control in values:
        out = g.control
    elif None in values:
        return None
    else:
        out = reduce(g.op, values)
    return out ^ g.invert


def _gate_signal(kind: str, inputs: list[StepFunction]) -> StepFunction:
    g = GATES[kind]
    out = reduce(g.op, inputs)
    return ~out if g.invert else out


@dataclass(frozen=True)
class Gate:
    kind: str
    out: str
    ins: tuple[str, ...]


@dataclass(frozen=True)
class DelayElement:
    out: str
    src: str
    model: DelayModel


@dataclass
class Netlist:
    inputs: list[str] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    delays: list[DelayElement] = field(default_factory=list)
    inits: dict[str, int] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    event_budget: int = 10_000

    def nets(self) -> list[str]:
        seen: dict[str, None] = {}
        for n in self.inputs:
            seen.setdefault(n)
        for g in self.gates:
            seen.setdefault(g.out)
            for n in g.ins:
                seen.setdefault(n)
        for d in self.delays:
            seen.setdefault(d.out)
            seen.setdefault(d.src)
        return list(seen)


@dataclass(frozen=True)
class WaveformSet:
    signals: dict[str, StepFunction]
    horizon: Fraction


# ---------------------------------------------------------------------------
# Causality classification
# ---------------------------------------------------------------------------

def validate(n: Netlist, inputs: Optional[dict[str, StepFunction]] = None
             ) -> list[str]:
    """All structural diagnostics; an empty list means the netlist is sound.

    With input waveforms provided, initial values are fully resolved and
    checked; without them, only definite contradictions are reported.
    """
    diags: list[str] = []
    drivers: dict[str, str] = {}
    for g in n.gates:
        kind = GATES.get(g.kind)
        if kind is None:
            diags.append(f"unknown gate kind {g.kind!r} driving {g.out!r}")
        elif kind.unary and len(g.ins) != 1:
            diags.append(f"{g.kind} gate {g.out!r} takes exactly one input")
        elif not kind.unary and len(g.ins) < 2:
            diags.append(f"gate {g.out!r} ({g.kind}) needs at least two inputs")
        if g.out in drivers:
            diags.append(f"net {g.out!r} driven more than once")
        drivers[g.out] = "gate"
    for d in n.delays:
        if d.model.events is None:
            diags.append(f"delay {d.out!r} uses non-simulatable model "
                         f"{format_model(d.model)!r}")
        if d.out in drivers:
            diags.append(f"net {d.out!r} driven more than once")
        drivers[d.out] = "delay"
    for name in n.inputs:
        if name in drivers:
            diags.append(f"primary input {name!r} is also driven")
        if name in n.inits:
            diags.append(f"primary input {name!r} takes its initial value "
                         "from its waveform, not from an init override")
    nets = dict.fromkeys(n.nets())  # in order, with constant-time lookups
    for net in nets:
        if net not in drivers and net not in n.inputs:
            diags.append(f"net {net!r} has no driver and is not an input")
    for name in n.outputs:
        if name not in nets:
            diags.append(f"output {name!r} is not a net of the circuit")
    for name in n.inits:
        if name not in nets:
            diags.append(f"init override on unknown net {name!r}")

    _, cycle = _eval_order(n)
    if cycle is not None:
        diags.append("zero-lookback cycle: " + " -> ".join(cycle))

    if diags:
        return diags
    resolved, init_diags = _resolve_initials(n, inputs)
    diags.extend(init_diags)
    if inputs is not None and not diags:
        missing = [name for name in nets if name not in resolved]
        if missing:
            diags.append("initial values cannot be resolved for "
                         + ", ".join(repr(m) for m in missing)
                         + " (add init overrides)")
    return diags


def _resolve_initials(n: Netlist, inputs: Optional[dict[str, StepFunction]]
                      ) -> tuple[dict[str, int], list[str]]:
    """Initial (t < 0) value of every net.

    Gate outputs default to their function of the input initials and may
    be overridden freely; a delay output always equals its input's
    initial, and an override saying otherwise is a contradiction.
    Resolution is three-valued propagation plus, if values remain
    unknown, exhaustive search over them; zero or multiple consistent
    assignments are diagnostics.
    """
    diags: list[str] = []
    known: dict[str, int] = dict(n.inits)
    if inputs is not None:
        for name in n.inputs:
            if name in inputs:
                known[name] = inputs[name].leading
    overridden = set(n.inits)

    changed = True
    while changed:
        changed = False
        for d in n.delays:
            src, out = known.get(d.src), known.get(d.out)
            if src is not None and out is None:
                known[d.out] = src
                changed = True
            elif src is None and out is not None:
                known[d.src] = out
                changed = True
            elif src is not None and out is not None and src != out:
                diags.append(f"delay output {d.out!r} has initial value {out} "
                             f"but its input {d.src!r} starts at {src}")
                return known, diags
        for g in n.gates:
            if g.out in overridden:
                continue
            val = _gate_value(g.kind, [known.get(i) for i in g.ins])
            if val is not None:
                if g.out in known:
                    if known[g.out] != val:
                        diags.append(
                            f"gate {g.out!r} initial value {known[g.out]} "
                            f"contradicts its inputs ({val})")
                        return known, diags
                else:
                    known[g.out] = val
                    changed = True

    unknown = [net for net in n.nets() if net not in known]
    if inputs is None or not unknown:
        return known, diags
    if len(unknown) > 16:
        diags.append("too many unresolved initial values; add init overrides")
        return known, diags
    consistent = []
    for mask in range(1 << len(unknown)):
        trial = dict(known)
        for i, net in enumerate(unknown):
            trial[net] = (mask >> i) & 1
        ok = all(trial[d.src] == trial[d.out] for d in n.delays)
        ok = ok and all(
            g.out in overridden
            or trial[g.out] == _gate_value(g.kind, [trial[i] for i in g.ins])
            for g in n.gates)
        if ok:
            consistent.append(trial)
            if len(consistent) > 1:
                break
    if not consistent:
        diags.append("no consistent initial values; an init override "
                     "contradicts the gate equations")
    elif len(consistent) > 1:
        diags.append("ambiguous initial values for "
                     + ", ".join(repr(x) for x in unknown)
                     + "; add init overrides")
    else:
        known.update(consistent[0])
    return known, diags


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _solve_delay(model: DelayModel, leading: int):
    """The element's event form; simulate reaches a delay model only here."""
    return model.events(leading)


def _clamped_gate(kind: str, ins: list[StepFunction], y0: int) -> StepFunction:
    """The gate's output: ``y0`` before time 0, the gate of its inputs from 0 on."""
    return _gate_signal(kind, ins).truncate_before(0, y0)


def _eval_order(n: Netlist) -> tuple[list[str], Optional[list[str]]]:
    """Topological order of the zero-lookback graph (Kahn, first in first
    out) and, when some nets cannot be ordered, one cycle through them."""
    nets = n.nets()
    edges = [(src, g.out) for g in n.gates for src in g.ins]
    edges += [(d.src, d.out) for d in n.delays if d.model.zero_lookback()]
    preds: dict[str, list[str]] = {net: [] for net in nets}
    succs: dict[str, list[str]] = {net: [] for net in nets}
    for src, out in edges:
        preds[out].append(src)
        succs[src].append(out)
    indegree = {net: len(preds[net]) for net in nets}
    order = [net for net in nets if not indegree[net]]
    for net in order:  # order is also the queue: it grows while it is read
        for s in succs[net]:
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    if len(order) == len(nets):
        return order, None
    # every left-over net has a left-over predecessor; walk back to a repeat
    walk = [next(net for net in nets if indegree[net])]
    pos = {walk[0]: 0}
    while True:
        p = next(q for q in preds[walk[-1]] if indegree[q])
        if p in pos:
            return order, [p] + walk[pos[p]:][::-1]
        pos[p] = len(walk)
        walk.append(p)


def simulate(n: Netlist, inputs: dict[str, StepFunction],
             horizon: RationalLike) -> WaveformSet:
    """Run the netlist on (-oo, horizon] by event-driven simulation.

    Inputs must provide a signal for every primary input and for no
    other net.  Raises ValidationError for a malformed netlist or inputs
    and EventBudgetError at the first switch that takes a non-input net
    past the event budget.  The result is re-judged by
    ``check_trace_conformance`` before it is returned.

    After validation the inputs, the delay parameters and the horizon
    are scaled to integer ticks over their ``timebase`` k: the queue, the
    event forms, the gates and the self-check all run on ints, and the
    result nets, the horizon and a budget error's time are scaled back
    to Fractions.  Above the timebase bound the same code runs on the
    Fractions themselves.
    """
    h = as_time(horizon)
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {format_time(h)}")
    if n.event_budget < 0:
        raise ValueError(f"event budget must be >= 0, got {n.event_budget}")
    for name in n.inputs:
        if name not in inputs:
            raise ValidationError([f"no waveform for primary input {name!r}"])
    extra = [f"waveform for {name!r}, which is not a primary input"
             for name in inputs if name not in n.inputs]
    if extra:
        raise ValidationError(extra)
    diags = validate(n, inputs)
    if diags:
        raise ValidationError(diags)
    for name in n.inputs:
        if not inputs[name].is_signal():
            raise ValidationError([f"input waveform {name!r} is not a signal"])
    init, _ = _resolve_initials(n, inputs)
    ins = {name: inputs[name].truncate(h) for name in n.inputs}
    k = timebase(chain([h], *(f.bps for f in ins.values()),
                       *(d.model._parameters() for d in n.delays)))
    ht = _to_ticks(h, k)

    order = _eval_order(n)[0]
    rank = {net: i for i, net in enumerate(order)}
    value = dict(init)
    switches: dict[str, list] = {net: [] for net in order}  # in ticks
    gate_by_out = {g.out: g for g in n.gates}
    # the next switches of every input and delay output, in time order
    pending: dict[str, deque] = {}
    # per net, who reads it: (gate output, None) or (delay output, event form)
    readers: dict[str, list] = {net: [] for net in order}
    # (time, rank, net): the net may switch at that time; stale entries are
    # skipped, and at one time the nets settle in evaluation order
    queue: list[tuple] = []
    for name in n.inputs:
        pending[name] = deque(ins[name]._to_ticks(k).bps)
        queue += [(t, rank[name], name) for t in pending[name]]
    models = {}
    for d in n.delays:
        models[d.out] = _in_ticks(d.model, k)
        form = _solve_delay(models[d.out], init[d.src])
        pending[d.out] = form.pending
        readers[d.src].append((d.out, form))
    zero = _to_ticks(Fraction(0), k)
    for g in n.gates:  # an initial value may differ from the gate of the inputs at 0
        queue.append((zero, rank[g.out], g.out))
        for i in g.ins:
            readers[i].append((g.out, None))
    heapq.heapify(queue)

    budget = n.event_budget
    primary = set(n.inputs)
    while queue:
        t, _, net = heapq.heappop(queue)
        g = gate_by_out.get(net)
        if g is not None:
            bit = _gate_value(g.kind, [value[i] for i in g.ins])
            if bit == value[net]:
                continue
        else:
            q = pending[net]
            if not q or q[0] != t:  # stale: that switch was cancelled
                continue
            q.popleft()
            bit = value[net] ^ 1
        ts = switches[net]
        if len(ts) == budget and net not in primary:
            raise EventBudgetError(net, _to_time(t, k))
        ts.append(t)
        value[net] = bit
        for out, form in readers[net]:
            if form is None:
                heapq.heappush(queue, (t, rank[out], out))
            else:
                s = form.feed(t, bit)
                if s is not None and s <= ht:
                    heapq.heappush(queue, (s, rank[out], out))

    signals = {net: StepFunction._from_toggles(init[net], switches[net]) for net in n.nets()}
    report = check_trace_conformance(n, models, WaveformSet(signals, ht))
    if not report.ok:
        raise RuntimeError(f"simulation fails self-check: {_in_time(report, k)}")
    return WaveformSet({net: f._to_time(k) for net, f in signals.items()}, h)


def check_trace_conformance(n: Netlist,
                            nondet_models: dict[str, DelayModel],
                            w: WaveformSet) -> CheckReport:
    """Judge a waveform set against the netlist: every gate equation must
    hold and every delay element's trace must satisfy its model, with
    nondet_models (keyed by delay output net) overriding per element.

    Violations after the waveform horizon are ignored; the signals make
    no claim there.  Like ``simulate``, it judges in integer ticks and
    reports the violation time as a Fraction.
    """
    nets = n.nets()
    missing = [net for net in nets if net not in w.signals]
    if missing:
        raise ValueError("waveform set lacks signals for "
                         + ", ".join(repr(m) for m in missing))
    models = {d.out: nondet_models.get(d.out, d.model) for d in n.delays}
    k = timebase(chain([w.horizon], *(w.signals[net].bps for net in nets),
                       *(m._parameters() for m in models.values())))
    models = {out: _in_ticks(m, k) for out, m in models.items()}
    signals = {net: w.signals[net]._to_ticks(k) for net in nets}
    h = _to_ticks(w.horizon, k)
    reports = []
    for g in n.gates:
        out = signals[g.out].truncate(h)
        expect = _clamped_gate(g.kind, [signals[i].truncate(h) for i in g.ins],
                               out.leading)
        reports.append((g.out, _report([_eq(out, expect, "gate-equation")], h)))
    for d in n.delays:
        reports.append((d.out, check_membership(signals[d.src].truncate(h),
                                                signals[d.out].truncate(h),
                                                models[d.out], horizon=h)))
    worst = min((replace(r.first_violation, net=net) for net, r in reports if not r.ok),
                key=_violation_key, default=None)
    return _in_time(CheckReport(worst is None, worst), k)


# ---------------------------------------------------------------------------
# Built-in circuits
# ---------------------------------------------------------------------------

def builtin(name: str, **params) -> Netlist:
    """Construct one of the worked circuits by name.

    Names: delay-buffer, delay-feedback, not-gate-wire, not-feedback,
    delay-line-falling, transient-oscillator, c-element.  Keyword
    parameters override the default delay models and initial values.
    """
    if name == "delay-buffer":
        model = params.pop("model", Fixed(Fraction(1)))
        _no_extras(name, params)
        return Netlist(inputs=["u"], delays=[DelayElement("x", "u", model)],
                       outputs=["x"])
    if name == "delay-feedback":
        model = params.pop("model", Fixed(Fraction(1)))
        x0 = params.pop("x0", 0)
        _no_extras(name, params)
        return Netlist(delays=[DelayElement("x", "x", model)],
                       inits={"x": x0}, outputs=["x"])
    if name == "not-gate-wire":
        m1 = params.pop("m1", Fixed(Fraction(1)))
        m2 = params.pop("m2", Fixed(Fraction(1)))
        _no_extras(name, params)
        return Netlist(inputs=["u"],
                       gates=[Gate("NOT", "x", ("v",))],
                       delays=[DelayElement("v", "u", m1),
                               DelayElement("y", "x", m2)],
                       outputs=["y"])
    if name == "not-feedback":
        m1 = params.pop("m1", Fixed(Fraction(1)))
        m2 = params.pop("m2", Fixed(Fraction(1)))
        x0 = params.pop("x0", 0)
        _no_extras(name, params)
        return Netlist(gates=[Gate("NOT", "x", ("v",))],
                       delays=[DelayElement("y", "x", m1),
                               DelayElement("v", "y", m2)],
                       inits={"x": x0},
                       outputs=["x", "y", "v"])
    if name == "delay-line-falling":
        model = params.pop("model", Fixed(Fraction(1)))
        models = params.pop("models", None)
        _no_extras(name, params)
        if models is None:
            models = [model] * 6
        if len(models) != 6:
            raise ValueError("delay-line-falling takes six per-element models")
        gates = [Gate("NOT", "y1", ("u",)),
                 Gate("NOT", "y2", ("x1",)),
                 Gate("NOT", "y3", ("x2",)),
                 Gate("NAND", "y4", ("x3", "x1")),
                 Gate("NOT", "y5", ("x4",)),
                 Gate("NAND", "z", ("x5", "x1"))]
        delays = [DelayElement(f"x{i}", f"y{i}", models[i - 1]) for i in range(1, 6)]
        delays.append(DelayElement("w", "z", models[5]))
        return Netlist(inputs=["u"], gates=gates, delays=delays, outputs=["w"])
    if name == "transient-oscillator":
        d = as_time(params.pop("d", 3))
        dprime = as_time(params.pop("dprime", 1))
        v0 = params.pop("v0", 1)
        x0 = params.pop("x0", 1)
        _no_extras(name, params)
        return Netlist(inputs=["u"],
                       gates=[Gate("NOT", "v", ("u",)),
                              Gate("NAND", "x", ("u", "y", "z"))],
                       delays=[DelayElement("y", "v", Fixed(d)),
                               DelayElement("z", "x", Fixed(dprime))],
                       inits={"v": v0, "x": x0},
                       outputs=["x", "z"])
    if name == "c-element":
        layer = params.pop("layer", Dbridc(BdcParams(1, 2, 1, 2)))
        out = params.pop("out", Dbridc(BdcParams(1, 2, 1, 2)))
        _no_extras(name, params)
        return Netlist(inputs=["u", "v"],
                       gates=[Gate("AND", "ystar", ("u", "v")),
                              Gate("AND", "zstar", ("u", "x")),
                              Gate("AND", "wstar", ("v", "x")),
                              Gate("OR", "xstar", ("y", "z", "w"))],
                       delays=[DelayElement("y", "ystar", layer),
                               DelayElement("z", "zstar", layer),
                               DelayElement("w", "wstar", layer),
                               DelayElement("x", "xstar", out)],
                       outputs=["x"])
    raise ValueError(f"unknown builtin circuit {name!r}")


def _no_extras(name: str, params: dict):
    if params:
        raise ValueError(f"builtin {name!r} does not take {sorted(params)}")


# ---------------------------------------------------------------------------
# Netlist text format
# ---------------------------------------------------------------------------

def parse_netlist(text: str) -> Netlist:
    """One statement per line: input / gate / delay / init / output.

    ``gate <KIND> <out> <in...>``, ``delay <out> <in> <model params>``,
    comments from '#'.
    """
    n = Netlist()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0].lower()
        try:
            if kw == "input":
                if len(tokens) != 2:
                    raise ValueError("input takes one net name")
                n.inputs.append(tokens[1])
            elif kw == "gate":
                if len(tokens) < 4:
                    raise ValueError("gate takes a kind, an output and inputs")
                n.gates.append(Gate(tokens[1].upper(), tokens[2], tuple(tokens[3:])))
            elif kw == "delay":
                if len(tokens) < 4:
                    raise ValueError("delay takes an output, an input and a model")
                n.delays.append(DelayElement(
                    tokens[1], tokens[2], parse_model(" ".join(tokens[3:]))))
            elif kw == "init":
                if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                    raise ValueError("init takes a net name and 0 or 1")
                if tokens[1] in n.inits:
                    raise ValueError(f"duplicate init for {tokens[1]!r}")
                n.inits[tokens[1]] = int(tokens[2])
            elif kw == "output":
                if len(tokens) != 2:
                    raise ValueError("output takes one net name")
                n.outputs.append(tokens[1])
            else:
                raise ValueError(f"unknown statement {tokens[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return n


def format_netlist(n: Netlist) -> str:
    lines = []
    for name in n.inputs:
        lines.append(f"input {name}")
    for g in n.gates:
        lines.append(f"gate {g.kind} {g.out} " + " ".join(g.ins))
    for d in n.delays:
        lines.append(f"delay {d.out} {d.src} {format_model(d.model)}")
    for net, bit in n.inits.items():
        lines.append(f"init {net} {bit}")
    for name in n.outputs:
        lines.append(f"output {name}")
    return "\n".join(lines) + "\n"
