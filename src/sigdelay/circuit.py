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

``_analyse`` is the one judge of a netlist and its inputs: the input
waveforms, then the structure, then the initial values, settled by
three-valued propagation from one worklist (``_settle``), so that the
work is linear in the netlist whatever order it is listed in.

Simulation is event-driven: one queue of switch times, each delay
element in its model's event form (``conditions._Events``).  At each
time only the nets an event touches are settled, in the order of the
zero-lookback graph, so a gate or a zero-lookback delay sees its
inputs' values at that instant; a positive-lookback delay decides from
its input before that instant.  Work grows with the switches made, not
with the horizon, and an event budget bounds the switches of every net,
so runaway oscillation ends in an explicit error instead of a hang.
Simulation runs on integer ticks over the timebase of its inputs,
parameters and horizon (``stepfn.timebase``), and gates switch from a
table built once per call (``_gate_table``).  A conformance check judges
a whole set in one timebase, and ``simulate``'s self-check is one such
check of its set in its own ticks.  ``simulate`` returns its waveforms
as Fractions, or, to the CLI's writers, as the ticks it ran on
(``WaveformSet.timebase``).

The worked circuits (``builtin``) are netlist text, read by
``parse_netlist`` like any other netlist.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Callable, Collection, NamedTuple, Optional

from .stepfn import (RationalLike, StepFunction, _to_ticks, _to_time, as_signal,
                     as_time, format_time, timebase)
from .conditions import (
    MODELS,
    CheckReport,
    DelayModel,
    _build_input,
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
    """Named signals on (-oo, horizon].  With ``timebase`` k every time in
    the set, the horizon included, is an int: a whole number of ticks 1/k."""
    signals: dict[str, StepFunction]
    horizon: Fraction
    timebase: Optional[int] = None

    def _in_time(self) -> "WaveformSet":
        """This set with its times as Fractions."""
        k = self.timebase
        if k is None:
            return self
        return WaveformSet({net: f._to_time(k) for net, f in self.signals.items()},
                           _to_time(self.horizon, k))


# ---------------------------------------------------------------------------
# Causality classification
# ---------------------------------------------------------------------------

def validate(n: Netlist, inputs: Optional[dict[str, StepFunction]] = None
             ) -> list[str]:
    """All diagnostics; an empty list means the netlist is sound.

    With input waveforms provided, their faults come first and alone, as
    ``simulate`` raises them; then initial values are fully resolved and
    checked.  Without them, only definite contradictions are reported.
    """
    return _analyse(n, inputs)[0]


def _analyse(n: Netlist, inputs: Optional[dict[str, StepFunction]]
             ) -> tuple[list[str], dict[str, None], list[str], Optional[dict[str, int]]]:
    """``validate``'s diagnostics, with what it finds on the way: the nets
    in order, their evaluation order and their initial values (None when
    the inputs or the structure are unsound).  ``simulate`` checks no more."""
    nets = dict.fromkeys(n.nets())  # in order, with constant-time lookups
    declared = Counter(n.inputs)  # each primary input once, in order
    if inputs is not None:
        diags = [f"no waveform for primary input {name!r}"
                 for name in declared if name not in inputs]
        diags += [f"waveform for {name!r}, which is not a primary input"
                  for name in inputs if name not in declared]
        diags += [f"input waveform {name!r} is not a signal"
                  for name in declared if name in inputs and not inputs[name].is_signal()]
        if diags:
            return diags, nets, [], None
    diags = []
    drivers: dict[str, str] = {}
    for g in n.gates:
        diags += _gate_diags(g)
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
    for name, count in declared.items():
        if count > 1:
            diags.append(f"primary input {name!r} declared more than once")
        if name in drivers:
            diags.append(f"primary input {name!r} is also driven")
        if name in n.inits:
            diags.append(f"primary input {name!r} takes its initial value "
                         "from its waveform, not from an init override")
    for net in nets:
        if net not in drivers and net not in n.inputs:
            diags.append(f"net {net!r} has no driver and is not an input")
    for name in n.outputs:
        if name not in nets:
            diags.append(f"output {name!r} is not a net of the circuit")
    for name, bit in n.inits.items():
        if name not in nets:
            diags.append(f"init override on unknown net {name!r}")
        if bit not in (0, 1):
            diags.append(f"init override {name!r} = {bit!r} is not a bit")

    order, cycle = _eval_order(n, nets)
    if cycle is not None:
        diags.append("zero-lookback cycle: " + " -> ".join(cycle))

    if diags:
        return diags, nets, order, None
    resolved, diags = _resolve_initials(n, inputs, nets)
    return diags, nets, order, resolved


def _gate_diags(g: Gate) -> list[str]:
    """What makes a gate unreadable: an unknown kind or the wrong number
    of inputs."""
    kind = GATES.get(g.kind)
    if kind is None:
        return [f"unknown gate kind {g.kind!r} driving {g.out!r}"]
    if kind.unary and len(g.ins) != 1:
        return [f"{g.kind} gate {g.out!r} takes exactly one input"]
    if not kind.unary and len(g.ins) < 2:
        return [f"gate {g.out!r} ({g.kind}) needs at least two inputs"]
    return []


def _resolve_initials(n: Netlist, inputs: Optional[dict[str, StepFunction]],
                      nets: Collection[str]) -> tuple[dict[str, int], list[str]]:
    """Initial (t < 0) value of every net of ``nets``, the nets of n, with
    the diagnostics; ``inputs``, if given, covers every primary input.

    Gate outputs default to their function of the input initials and may
    be overridden freely; a delay output always equals its input's
    initial, and an override saying otherwise is a contradiction.
    Resolution is three-valued propagation (``_settle``) plus, if values
    remain unknown, exhaustive search over them, each trial judged by
    ``_settle`` too; zero or multiple consistent assignments are diagnostics.
    """
    known: dict[str, int] = dict(n.inits)
    if inputs is not None:
        known.update((name, inputs[name].leading) for name in n.inputs)
    touch: dict[str, list] = {net: [] for net in nets}
    for d in n.delays:
        touch[d.src].append((d, d.out))
        touch[d.out].append((d, d.src))
    for g in n.gates:
        if g.out not in n.inits:
            for net in g.ins:
                touch[net].append((g, None))
    clash = _settle(known, touch, deque(known))
    if clash is not None:
        return known, [clash]

    unknown = [net for net in nets if net not in known]
    if inputs is None or not unknown:
        return known, []
    if len(unknown) > 16:
        return known, ["too many unresolved initial values; add init overrides"]
    consistent = []
    for mask in range(1 << len(unknown)):
        trial = dict(known)
        trial.update((net, (mask >> i) & 1) for i, net in enumerate(unknown))
        if _settle(trial, touch, deque(unknown)) is None:
            consistent.append(trial)
            if len(consistent) > 1:
                return known, ["ambiguous initial values for "
                               + ", ".join(repr(x) for x in unknown)
                               + "; add init overrides"]
    if not consistent:
        return known, ["no consistent initial values; an init override "
                       "contradicts the gate equations"]
    return consistent[0], []


def _settle(known: dict[str, int], touch: dict[str, list], queue: deque
            ) -> Optional[str]:
    """Propagate ``known`` initial values from the nets of ``queue``: each
    re-examines the elements ``touch`` lists at it, a delay (paired with
    its other end) at both ends and a gate without an override (paired
    with None) at its inputs, and a net that becomes known joins the
    queue.  Returns the first contradiction, or None."""
    while queue:
        at = queue.popleft()
        for e, net in touch[at]:
            if net is None:  # a gate: its output follows from its inputs
                net, bit = e.out, _gate_value(e.kind, [known.get(i) for i in e.ins])
                if bit is None:
                    continue
            else:  # a delay: its other end equals this one
                bit = known[at]
            if net not in known:
                known[net] = bit
                queue.append(net)
            elif known[net] != bit:
                if isinstance(e, Gate):
                    return (f"gate {net!r} initial value {known[net]} "
                            f"contradicts its inputs ({bit})")
                return (f"delay output {e.out!r} has initial value {known[e.out]} "
                        f"but its input {e.src!r} starts at {known[e.src]}")
    return None


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _solve_delay(model: DelayModel, leading: int):
    """The element's event form; simulate reaches a delay model only here."""
    return model.events(leading)


def _gate_table(gates: list[Gate]) -> dict[str, tuple]:
    """How ``simulate`` switches each gate, by its output: the fold, the
    inputs and the inversion of its ``GATES`` entry, read on known bits."""
    return {g.out: (GATES[g.kind].op, g.ins, GATES[g.kind].invert) for g in gates}


def _clamped_gate(kind: str, ins: list[StepFunction], y0: int) -> StepFunction:
    """The gate's output: ``y0`` before time 0, the gate of its inputs from 0 on."""
    g = GATES[kind]
    out = reduce(g.op, ins)
    return (~out if g.invert else out).truncate_before(0, y0)


def _eval_order(n: Netlist, nets: Collection[str]) -> tuple[list[str], Optional[list[str]]]:
    """Topological order of the zero-lookback graph on ``nets``, the nets of
    n (Kahn, first in first out) and, when some nets cannot be ordered,
    one cycle through them."""
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
             horizon: RationalLike, *, _ticks: bool = False) -> WaveformSet:
    """Run the netlist on (-oo, horizon] by event-driven simulation.

    Inputs must provide a signal for every primary input and for no
    other net.  Raises ValidationError with ``validate``'s diagnostics
    for a malformed netlist or inputs and EventBudgetError at the first
    switch that takes a non-input net past the event budget.  The result
    is re-judged by ``check_trace_conformance`` before it is returned:
    every gate and every delay, on the set as built.

    After validation the inputs, the delay parameters and the horizon
    are scaled to integer ticks over their ``timebase`` k: the queue, the
    event forms, the gates and the self-check all run on ints, and a
    budget error's time is scaled back to a Fraction.  The result is the
    self-checked set in ticks, ``WaveformSet(..., timebase=k)``, with
    ``_ticks``, for a writer that formats ticks; otherwise its nets and
    horizon are scaled back to Fractions.  Above the timebase bound the
    same code runs on the Fractions themselves.
    """
    h = as_time(horizon)
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {format_time(h)}")
    if n.event_budget < 0:
        raise ValueError(f"event budget must be >= 0, got {n.event_budget}")
    diags, nets, order, init = _analyse(n, inputs)
    if diags:
        raise ValidationError(diags)
    ins = {name: inputs[name].truncate(h) for name in n.inputs}
    k = timebase(chain([h], *(f.bps for f in ins.values()),
                       *(d.model._parameters() for d in n.delays)))
    ht = _to_ticks(h, k)

    rank = {net: i for i, net in enumerate(order)}
    value = dict(init)
    switches: dict[str, list] = {net: [] for net in order}  # in ticks
    gates = _gate_table(n.gates)  # every value is known: two-valued gates
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
    get = value.__getitem__
    push, pop = heapq.heappush, heapq.heappop
    while queue:
        t, _, net = pop(queue)
        gate = gates.get(net)
        if gate is not None:
            op, ins, invert = gate
            bit = reduce(op, map(get, ins)) ^ invert
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
                push(queue, (t, rank[out], out))
            else:
                s = form.feed(t, bit)
                if s is not None and s <= ht:
                    push(queue, (s, rank[out], out))

    w = WaveformSet({net: StepFunction._from_toggles(init[net], switches[net])
                     for net in nets}, ht, k)
    report = check_trace_conformance(n, models, w)
    if not report.ok:
        raise RuntimeError(f"simulation fails self-check: {_in_time(report, k)}")
    return w if _ticks else w._in_time()


def check_trace_conformance(n: Netlist,
                            nondet_models: dict[str, DelayModel],
                            w: WaveformSet) -> CheckReport:
    """Judge a waveform set against the netlist: every gate equation must hold
    and every delay element's trace must satisfy its model, with
    nondet_models (keyed by delay output net) overriding per element.

    Of the structure only the gates are judged, raising ValidationError for
    an unknown kind or arity; nondeterministic models and zero-lookback
    cycles are legitimate here.  Then a missing net, a nondet key that is no
    delay output, and per delay a non-signal output or input and an
    inconsistent model raise ValueError, quoting them as given.

    Violations after the waveform horizon are ignored; the signals make no
    claim there.  The set is judged in one timebase: a set in ticks
    (``timebase`` set, as ``simulate`` hands it) in its own, its models and
    its report's time in those ticks too; a set in time is scaled once over
    the ``timebase`` of its nets, models and horizon, and its report back.
    That k can pass the bound where each element's own would not; the set is
    then judged on its Fractions.
    """
    diags = [d for g in n.gates for d in _gate_diags(g)]
    if diags:
        raise ValidationError(diags)
    nets = n.nets()
    missing = [net for net in nets if net not in w.signals]
    if missing:
        raise ValueError("waveform set lacks signals for "
                         + ", ".join(repr(m) for m in missing))
    outs = {d.out for d in n.delays}
    for out in nondet_models:
        if out not in outs:
            raise ValueError(f"nondet model for {out!r}, which is not a delay output")
    h = w.horizon
    signals = {net: w.signals[net].truncate(h) for net in nets}
    models = [nondet_models.get(d.out, d.model) for d in n.delays]
    k = None if w.timebase is not None else timebase(chain(
        [h], *(f.bps for f in signals.values()), *(m._parameters() for m in models)))
    for i, (d, model) in enumerate(zip(n.delays, models)):  # refused before scaling
        as_signal(signals[d.out])
        if model.needs_input:
            as_signal(signals[d.src])
        models[i] = _in_ticks(model, k)
    signals = {net: f._to_ticks(k) for net, f in signals.items()}
    h = _to_ticks(h, k)
    reports = []
    for g in n.gates:
        out = signals[g.out]
        expect = _clamped_gate(g.kind, [signals[i] for i in g.ins], out.leading)
        reports.append((g.out, _report([_eq(out, expect, "gate-equation")], h)))
    for d, model in zip(n.delays, models):
        u = signals[d.src]
        reports.append((d.out, check_membership(u, signals[d.out], model,
                                                _input=_build_input(None, model, u, h))))
    worst = min((replace(r.first_violation, net=net) for net, r in reports if not r.ok),
                key=_violation_key, default=None)
    return _in_time(CheckReport(worst is None, worst), k)


# ---------------------------------------------------------------------------
# Built-in circuits
# ---------------------------------------------------------------------------

# The worked circuits as netlist text, each with the defaults of its
# ``{key}`` fields, as text too.  The delay line's elements m1..m6 take
# ``model`` or ``models``.
_D1 = "fixed d=1"
_BUILTINS: dict[str, tuple[str, dict]] = {
    "delay-buffer": ("input u\ndelay x u {model}\noutput x\n", {"model": _D1}),
    "delay-feedback": ("delay x x {model}\ninit x {x0}\noutput x\n",
                       {"model": _D1, "x0": "0"}),
    "not-gate-wire": ("input u\ngate NOT x v\ndelay v u {m1}\ndelay y x {m2}\noutput y\n",
                      {"m1": _D1, "m2": _D1}),
    "not-feedback": ("gate NOT x v\ndelay y x {m1}\ndelay v y {m2}\ninit x {x0}\n"
                     "output x\noutput y\noutput v\n", {"m1": _D1, "m2": _D1, "x0": "0"}),
    "delay-line-falling": ("input u\ngate NOT y1 u\ngate NOT y2 x1\ngate NOT y3 x2\n"
                           "gate NAND y4 x3 x1\ngate NOT y5 x4\ngate NAND z x5 x1\n"
                           "delay x1 y1 {m1}\ndelay x2 y2 {m2}\ndelay x3 y3 {m3}\n"
                           "delay x4 y4 {m4}\ndelay x5 y5 {m5}\ndelay w z {m6}\noutput w\n",
                           {"model": _D1, "models": None}),
    "transient-oscillator": ("input u\ngate NOT v u\ngate NAND x u y z\n"
                             "delay y v fixed d={d}\ndelay z x fixed d={dprime}\n"
                             "init v {v0}\ninit x {x0}\noutput x\noutput z\n",
                             {"d": "3", "dprime": "1", "v0": "1", "x0": "1"}),
    "c-element": ("input u\ninput v\ngate AND ystar u v\ngate AND zstar u x\n"
                  "gate AND wstar v x\ngate OR xstar y z w\ndelay y ystar {layer}\n"
                  "delay z zstar {layer}\ndelay w wstar {layer}\ndelay x xstar {out}\n"
                  "output x\n", {"layer": "dbridc mr=1 dr=2 mf=1 df=2",
                                   "out": "dbridc mr=1 dr=2 mf=1 df=2"}),
}


def builtin(name: str, **params) -> Netlist:
    """Construct one of the worked circuits by name, from its netlist text.

    Names: delay-buffer, delay-feedback, not-gate-wire, not-feedback,
    delay-line-falling, transient-oscillator, c-element.  Keyword
    parameters override the default delay models and initial values.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin circuit {name!r}")
    text, defaults = _BUILTINS[name]
    extra = sorted(params.keys() - defaults.keys())
    if extra:
        raise ValueError(f"builtin {name!r} does not take {extra}")
    models = params.pop("models", None)
    fields = {**defaults, **{key: _field(v) for key, v in params.items()}}
    if name == "delay-line-falling":
        specs = [fields["model"]] * 6 if models is None else [_field(m) for m in models]
        if len(specs) != 6:
            raise ValueError("delay-line-falling takes six per-element models")
        fields = {f"m{i}": spec for i, spec in enumerate(specs, 1)}
    return parse_netlist(text.format_map(fields))


def _field(value) -> str:
    """A parameter of ``builtin`` as netlist text: a model as its spec,
    anything else as a time."""
    return format_model(value) if type(value) in MODELS.values() \
        else format_time(as_time(value))


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
