"""Reference simulator: whole-waveform fixpoint relaxation.

Each round recomputes every net over the whole horizon from its driver,
in the order of the zero-lookback graph; positive lookback makes each
round extend the correct prefix, so the iteration stabilizes.  Delays
are evaluated by their closed forms (``fixed``, ``wand``, ``wor``) and
by the window sweeps of ``reference_kernel`` (``dbridc``, ``sdbridc``),
never by an event form, so this is an independent oracle for
``circuit.simulate``.  It costs a round per settled switch and a whole
horizon per round: small netlists only.

The event budget is judged once on the fixpoint: the error names the
earliest switch over the budget (ties by evaluation order), the switch
at which an event-driven run must stop.
"""

from __future__ import annotations

from sigdelay.circuit import (
    EventBudgetError,
    ValidationError,
    WaveformSet,
    _clamped_gate,
    _eval_order,
    _resolve_initials,
    check_trace_conformance,
    validate,
)
from sigdelay.conditions import (
    Dbridc,
    InconsistentModelError,
    SdbridcPrime,
    cc_bdc,
)
from sigdelay.stepfn import StepFunction, as_time, format_time

from reference_kernel import sweep_dbridc, sweep_sdbridc

MAX_ROUNDS = 10_000


def reference_solve(model, u: StepFunction) -> StepFunction:
    if isinstance(model, Dbridc):
        if not cc_bdc(model.p):
            raise InconsistentModelError(f"CC_BDC fails for {model.p}")
        return sweep_dbridc(u, model.p)
    if isinstance(model, SdbridcPrime):
        return sweep_sdbridc(u, model.d)
    return model.solve(u)


def relax(n, inputs, horizon) -> WaveformSet:
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
    nets = n.nets()
    init, _ = _resolve_initials(n, inputs, nets)

    current: dict[str, StepFunction] = {}
    for name in n.inputs:
        sig = inputs[name]
        if not sig.is_signal():
            raise ValidationError([f"input waveform {name!r} is not a signal"])
        current[name] = sig.truncate(h)
    for net in nets:
        if net not in current:
            current[net] = StepFunction.const(init[net])

    gate_by_out = {g.out: g for g in n.gates}
    delay_by_out = {d.out: d for d in n.delays}
    order = [net for net in _eval_order(n, nets)[0] if net not in n.inputs]

    for _ in range(MAX_ROUNDS):
        changed = False
        for net in order:
            if net in gate_by_out:
                g = gate_by_out[net]
                new = _clamped_gate(g.kind, [current[i] for i in g.ins], init[net])
            else:
                d = delay_by_out[net]
                new = reference_solve(d.model, current[d.src])
            new = new.truncate(h)
            if new != current[net]:
                current[net] = new
                changed = True
        if not changed:
            break
    else:
        raise RuntimeError("reference relaxation did not converge")

    over = [(current[net].bps[n.event_budget], rank, net)
            for rank, net in enumerate(_eval_order(n, nets)[0])
            if net not in n.inputs and len(current[net].bps) > n.event_budget]
    if over:
        t, _, net = min(over)
        raise EventBudgetError(net, t)

    w = WaveformSet(dict(current), h)
    report = check_trace_conformance(n, {}, w)
    if not report.ok:
        raise RuntimeError(f"simulation fixpoint fails self-check: {report}")
    return w
