"""Reference simulator: whole-waveform fixpoint relaxation.

Each round recomputes every net over the whole horizon from its driver,
in the order of the zero-lookback graph; positive lookback makes each
round extend the correct prefix, so the iteration stabilizes.  Delays
are evaluated by their closed forms (``fixed``, ``wand``, ``wor``) and
by the window sweeps of ``reference_kernel`` (``dbridc``, ``sdbridc``),
never by an event form, so this is an independent oracle for
``circuit.simulate``.  Initial values come from ``reference_initials``,
a whole-netlist sweep repeated to a fixpoint, an oracle for the
worklist propagation of ``circuit._resolve_initials``.  It costs a round
per settled switch and a whole horizon per round: small netlists only.

The event budget is judged once on the fixpoint: the error names the
earliest switch over the budget (ties by evaluation order), the switch
at which an event-driven run must stop.

``reference_conformance`` is the oracle of ``check_trace_conformance``,
which judges a whole set in one timebase: it judges element by element,
the gates on the times given and each delay through the public
``check_membership``, which scales its own check over its own timebase.
It refuses what the checker refuses, in the same order and words, and
it is the fixpoint's self-check.
"""

from __future__ import annotations

from dataclasses import replace

from sigdelay.circuit import (
    EventBudgetError,
    ValidationError,
    WaveformSet,
    _clamped_gate,
    _eval_order,
    _gate_diags,
    _gate_value,
    validate,
)
from sigdelay.conditions import (
    CheckReport,
    Dbridc,
    InconsistentModelError,
    SdbridcPrime,
    _eq,
    _report,
    _violation_key,
    cc_bdc,
    check_membership,
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


def reference_initials(n, inputs, nets):
    """Initial values of ``nets`` and their diagnostics, as
    ``circuit._resolve_initials`` decides them, by another route: every
    delay and gate is swept again until nothing changes, and each trial
    of the exhaustive search re-checks every element."""
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

    unknown = [net for net in nets if net not in known]
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


def relax(n, inputs, horizon) -> WaveformSet:
    h = as_time(horizon)
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {format_time(h)}")
    if n.event_budget < 0:
        raise ValueError(f"event budget must be >= 0, got {n.event_budget}")
    diags = validate(n, inputs)
    if diags:
        raise ValidationError(diags)
    nets = n.nets()
    init, _ = reference_initials(n, inputs, nets)

    current = {name: inputs[name].truncate(h) for name in n.inputs}
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
    report = reference_conformance(n, {}, w)
    if not report.ok:
        raise RuntimeError(f"simulation fixpoint fails self-check: {report}")
    return w


def reference_conformance(n, nondet_models, w) -> CheckReport:
    """The conformance report of w, element by element: each gate equation
    on the times given, each delay through the public ``check_membership``
    with its own timebase.  A set in ticks comes with its models in ticks,
    which the public check judges as they are, so its report is in ticks."""
    diags = [d for g in n.gates for d in _gate_diags(g)]
    if diags:
        raise ValidationError(diags)
    nets = n.nets()
    missing = [net for net in nets if net not in w.signals]
    if missing:
        raise ValueError("waveform set lacks signals for "
                         + ", ".join(repr(m) for m in missing))
    for out in nondet_models:
        if out not in [d.out for d in n.delays]:
            raise ValueError(f"nondet model for {out!r}, which is not a delay output")
    h = w.horizon
    signals = {net: w.signals[net].truncate(h) for net in nets}
    reports = []
    for g in n.gates:
        out = signals[g.out]
        expect = _clamped_gate(g.kind, [signals[i] for i in g.ins], out.leading)
        reports.append((g.out, _report([_eq(out, expect, "gate-equation")], h)))
    for d in n.delays:
        model = nondet_models.get(d.out, d.model)
        reports.append((d.out, check_membership(signals[d.src], signals[d.out], model,
                                                horizon=h)))
    violations = [replace(r.first_violation, net=net) for net, r in reports if not r.ok]
    worst = min(violations, key=_violation_key, default=None)
    return CheckReport(worst is None, worst)
