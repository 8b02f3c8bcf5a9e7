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
initial-value override contradicts its input.

Simulation runs the per-net update maps to a fixpoint over the horizon.
Each round recomputes every net from its driver in a quasi-topological
order; positive lookback guarantees each round extends the correct
prefix, so the iteration stabilizes, and an event budget converts
runaway growth into an explicit error instead of a hang.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple, Optional

from .stepfn import RationalLike, StepFunction, as_time, chi, format_time
from .conditions import (
    CheckReport,
    DelayModel,
    Dbridc,
    Fixed,
    Violation,
    BdcParams,
    check_membership,
    format_model,
    parse_model,
)


class ValidationError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class EventBudgetError(RuntimeError):
    def __init__(self, net: str, time: Optional[Fraction]):
        at = f" around t={time}" if time is not None else ""
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
        if d.model.solve is None:
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
    for net in n.nets():
        if net not in drivers and net not in n.inputs:
            diags.append(f"net {net!r} has no driver and is not an input")
    for name in n.outputs:
        if name not in n.nets():
            diags.append(f"output {name!r} is not a net of the circuit")
    for name in n.inits:
        if name not in n.nets():
            diags.append(f"init override on unknown net {name!r}")

    # zero-lookback cycles
    edges: dict[str, list[str]] = {net: [] for net in n.nets()}
    for g in n.gates:
        for src in g.ins:
            edges.setdefault(src, []).append(g.out)
    for d in n.delays:
        if d.model.zero_lookback():
            edges.setdefault(d.src, []).append(d.out)
    state: dict[str, int] = {}
    stack: list[str] = []

    def dfs(net: str) -> Optional[list[str]]:
        state[net] = 1
        stack.append(net)
        for succ in edges.get(net, ()):
            if state.get(succ, 0) == 1:
                return stack[stack.index(succ):] + [succ]
            if state.get(succ, 0) == 0:
                cycle = dfs(succ)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[net] = 2
        return None

    for net in n.nets():
        if state.get(net, 0) == 0:
            cycle = dfs(net)
            if cycle is not None:
                diags.append("zero-lookback cycle: " + " -> ".join(cycle))
                break

    if diags:
        return diags
    resolved, init_diags = _resolve_initials(n, inputs)
    diags.extend(init_diags)
    if inputs is not None and not diags:
        missing = [name for name in n.nets() if name not in resolved]
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
    known: dict[str, int] = {}
    for name, bit in n.inits.items():
        known[name] = bit
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

def _solve_delay(model: DelayModel, u: StepFunction) -> StepFunction:
    """One delay evaluation; simulate evaluates delays only through here."""
    return model.solve(u)


def _clamped_gate(kind: str, ins: list[StepFunction], y0: int) -> StepFunction:
    body = _gate_signal(kind, ins)
    before = chi(None, 0)
    after = ~before
    y0sig = StepFunction.const(y0)
    return (before & y0sig) | (after & body)


def _eval_order(n: Netlist) -> list[str]:
    """Topological order of the zero-lookback graph (Kahn, stable)."""
    nets = n.nets()
    preds: dict[str, set[str]] = {net: set() for net in nets}
    succs: dict[str, list[str]] = {net: [] for net in nets}
    for g in n.gates:
        for src in g.ins:
            preds[g.out].add(src)
            succs[src].append(g.out)
    for d in n.delays:
        if d.model.zero_lookback():
            preds[d.out].add(d.src)
            succs[d.src].append(d.out)
    order: list[str] = []
    ready = [net for net in nets if not preds[net]]
    while ready:
        net = ready.pop(0)
        order.append(net)
        for s in succs[net]:
            preds[s].discard(net)
            if not preds[s] and s not in order and s not in ready:
                ready.append(s)
    return order


def simulate(n: Netlist, inputs: dict[str, StepFunction],
             horizon: RationalLike) -> WaveformSet:
    """Run the netlist to its unique waveform fixpoint on (-oo, horizon].

    Inputs must provide a signal for every primary input.  Raises
    ValidationError for a malformed netlist and EventBudgetError when a
    net accumulates more switches than the configured budget.
    """
    h = as_time(horizon)
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {format_time(h)}")
    if n.event_budget < 0:
        raise ValueError(f"event budget must be >= 0, got {n.event_budget}")
    for name in n.inputs:
        if name not in inputs:
            raise ValidationError([f"no waveform for primary input {name!r}"])
    diags = validate(n, inputs)
    if diags:
        raise ValidationError(diags)
    init, _ = _resolve_initials(n, inputs)

    current: dict[str, StepFunction] = {}
    for name in n.inputs:
        sig = inputs[name]
        if not sig.is_signal():
            raise ValidationError([f"input waveform {name!r} is not a signal"])
        current[name] = sig.truncate(h)
    for net in n.nets():
        if net not in current:
            current[net] = StepFunction.const(init[net])

    gate_by_out = {g.out: g for g in n.gates}
    delay_by_out = {d.out: d for d in n.delays}
    order = [net for net in _eval_order(n) if net not in n.inputs]

    # each productive round extends some net's settled prefix past at
    # least one switch, so the budget bounds the round count as well
    max_rounds = n.event_budget + len(order) + 8
    for _ in range(max_rounds):
        changed = False
        for net in order:
            if net in gate_by_out:
                g = gate_by_out[net]
                new = _clamped_gate(g.kind, [current[i] for i in g.ins], init[net])
            else:
                d = delay_by_out[net]
                new = _solve_delay(d.model, current[d.src])
            new = new.truncate(h)
            if len(new.bps) > n.event_budget:
                raise EventBudgetError(net, new.bps[n.event_budget - 1])
            if new != current[net]:
                current[net] = new
                changed = True
        if not changed:
            break
    else:
        busiest = max(order, key=lambda net: len(current[net].bps))
        raise EventBudgetError(busiest, current[busiest].bps[-1]
                               if current[busiest].bps else None)

    w = WaveformSet(dict(current), h)
    report = check_trace_conformance(n, {}, w)
    if not report.ok:
        raise RuntimeError(f"simulation fixpoint fails self-check: {report}")
    return w


def check_trace_conformance(n: Netlist,
                            nondet_models: dict[str, DelayModel],
                            w: WaveformSet) -> CheckReport:
    """Judge a waveform set against the netlist: every gate equation must
    hold and every delay element's trace must satisfy its model, with
    nondet_models (keyed by delay output net) overriding per element.

    Violations after the waveform horizon are ignored; the signals make
    no claim there.
    """
    missing = [net for net in n.nets() if net not in w.signals]
    if missing:
        raise ValueError("waveform set lacks signals for "
                         + ", ".join(repr(m) for m in missing))
    h = w.horizon
    worst: Optional[Violation] = None

    def consider(report: CheckReport, net: str):
        nonlocal worst
        if report.ok:
            return
        v = report.first_violation
        v = Violation(v.time, v.attained, v.clause, net)
        if worst is None or _vkey(v) < _vkey(worst):
            worst = v

    def _vkey(v: Violation):
        if v.time is None:
            return (0, Fraction(0))
        return (1, v.time)

    for g in n.gates:
        out = w.signals[g.out].truncate(h)
        expect = _clamped_gate(g.kind, [w.signals[i].truncate(h) for i in g.ins],
                               out.leading)
        diff = (out ^ expect).support().clipped_below(h)
        if diff:
            t, attained = diff.infimum()
            consider(CheckReport(False, Violation(t, attained, "gate-equation")),
                     g.out)
    for d in n.delays:
        model = nondet_models.get(d.out, d.model)
        report = check_membership(w.signals[d.src].truncate(h),
                                  w.signals[d.out].truncate(h),
                                  model, horizon=h)
        consider(report, d.out)
    return CheckReport(worst is None, worst)


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
