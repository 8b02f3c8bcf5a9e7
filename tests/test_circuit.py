"""Netlist validation, simulation, conformance, builtins, text format."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sigdelay as sd
from sigdelay.circuit import (
    GATES,
    DelayElement,
    EventBudgetError,
    Gate,
    Netlist,
    ValidationError,
    WaveformSet,
    builtin,
    check_trace_conformance,
    format_netlist,
    parse_netlist,
    simulate,
    validate,
)
from sigdelay.cli import main
from sigdelay.stepfn import StepFunction, chi, window_inf, window_sup
from sigdelay.stepfn import window_inf_halfopen, window_sup_halfopen

from sigdelay.conditions import _in_ticks
from conftest import counted_calls, rand_bdc_params, rand_signal
from reference_sim import reference_conformance, reference_initials


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def not_loop(model1, model2, x0=0):
    return Netlist(gates=[Gate("NOT", "x", ("v",))],
                   delays=[DelayElement("y", "x", model1),
                           DelayElement("v", "y", model2)],
                   inits={"x": x0},
                   outputs=["x", "y", "v"])


def test_zero_delay_feedback_rejected():
    n = not_loop(sd.Fixed(0), sd.Fixed(0))
    diags = validate(n)
    assert any("zero-lookback cycle" in d for d in diags)


def test_positive_delay_feedback_accepted():
    assert validate(not_loop(sd.Fixed(1), sd.Fixed(1)), {}) == []
    assert validate(not_loop(sd.SdbridcPrime(1), sd.SdbridcPrime(1)), {}) == []
    # a single positive delay in the loop is enough
    assert validate(not_loop(sd.Fixed(0), sd.Fixed(1)), {}) == []


def test_single_positive_delay_loop_simulates():
    w = simulate(not_loop(sd.Fixed(0), sd.Fixed(1)), {}, 6)
    assert w.signals["x"] == StepFunction.from_toggles(0, [0, 1, 2, 3, 4, 5, 6])


def test_dbridc_lookback_classification():
    tight = sd.Dbridc(sd.BdcParams(2, 2, 1, 2))   # d_r = m_r: no lookback
    loose = sd.Dbridc(sd.BdcParams(1, 2, 1, 2))
    assert any("zero-lookback" in d for d in validate(not_loop(tight, sd.Fixed(0))))
    assert validate(not_loop(loose, loose), {}) == []


def not_chain(k, closed):
    """k NOT gates in a row, fed by input u or, closed, by the last gate."""
    first = f"g{k - 1}" if closed else "u"
    gates = [Gate("NOT", f"g{i}", (f"g{i - 1}" if i else first,)) for i in range(k)]
    return Netlist(inputs=[] if closed else ["u"], gates=gates,
                   outputs=[f"g{k - 1}"])


def test_deep_not_chain_validates_and_simulates():
    n = not_chain(3000, closed=False)
    u = chi(1, None)
    assert validate(n, {"u": u}) == []
    w = simulate(n, {"u": u}, 2)
    assert w.signals["g2999"] == u  # an even number of inversions


def test_validate_net_listings_do_not_grow_with_outputs_or_inits(monkeypatch):
    calls = counted_calls(monkeypatch, Netlist, "nets")
    bare = not_chain(200, closed=False)
    bare.outputs = []
    assert validate(bare, {"u": StepFunction.const(1)}) == []
    listings = len(calls)
    named = not_chain(200, closed=False)
    named.outputs = [f"g{i}" for i in range(200)]
    named.inits = {f"g{i}": i % 2 for i in range(0, 200, 2)}
    calls.clear()
    assert validate(named, {"u": StepFunction.const(1)}) == []
    assert len(calls) == listings


def test_simulate_lists_the_nets_once_per_stage(monkeypatch):
    # the netlist analysis and the conformance self-check list the nets once
    # each, and only the analysis orders them and resolves their initials
    stages = [counted_calls(monkeypatch, owner, name) for owner, name in
              [(Netlist, "nets"), (sd.circuit, "_eval_order"),
               (sd.circuit, "_resolve_initials")]]
    u = StepFunction.from_toggles(0, [1, 3])
    simulate(builtin("c-element"), {"u": u, "v": u}, 12)
    assert [len(calls) for calls in stages] == [2, 1, 1]


def test_deep_not_ring_is_one_zero_lookback_cycle(tmp_path, capsys):
    n = not_chain(3000, closed=True)
    cycles = [d for d in validate(n) if "zero-lookback cycle" in d]
    assert len(cycles) == 1
    path = tmp_path / "ring.net"
    path.write_text(format_netlist(n))
    assert main(["simulate", "--netlist", str(path), "--until", "3"]) == 2
    err = capsys.readouterr().err
    assert "zero-lookback cycle" in err and "Traceback" not in err


@st.composite
def small_netlists(draw):
    """Up to 8 nets, each an input, a gate output or a fixed-delay output."""
    nets = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    n = Netlist()
    for net in nets:
        role = draw(st.sampled_from(["input", "gate", "delay"]))
        if role == "input":
            n.inputs.append(net)
        elif role == "gate":
            kind = draw(st.sampled_from(sorted(GATES)))
            arity = 1 if GATES[kind].unary else draw(st.integers(2, 3))
            ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
            n.gates.append(Gate(kind, net, tuple(ins)))
        else:
            src = draw(st.sampled_from(nets))
            n.delays.append(DelayElement(net, src, sd.Fixed(draw(st.integers(0, 1)))))
    return n


@settings(max_examples=300, deadline=None)
@given(small_netlists())
def test_hypothesis_cycle_diagnostic_matches_reachability(n):
    edges = {(src, g.out) for g in n.gates for src in g.ins}
    edges |= {(d.src, d.out) for d in n.delays if d.model.d == 0}
    reach = set(edges)
    while True:  # transitive closure, pair by pair
        more = {(a, d) for a, b in reach for c, d in reach if b == c} - reach
        if not more:
            break
        reach |= more
    has_cycle = any(a == b for a, b in reach)
    prefix = "zero-lookback cycle: "
    cycles = [d for d in validate(n) if d.startswith(prefix)]
    assert len(cycles) == has_cycle
    if cycles:
        path = cycles[0][len(prefix):].split(" -> ")
        assert len(path) >= 2 and path[0] == path[-1]
        assert all(step in edges for step in zip(path, path[1:]))


def test_delay_initial_override_must_match_input():
    n = Netlist(inputs=["u"],
                delays=[DelayElement("x", "u", sd.Fixed(1))],
                inits={"x": 0},
                outputs=["x"])
    u = chi(None, 5)  # starts at 1, contradicting the override
    diags = validate(n, {"u": u})
    assert any("initial value" in d for d in diags)
    assert validate(n, {"u": chi(0, None)}) == []


def test_init_override_must_be_a_bit():
    n = Netlist(delays=[DelayElement("x", "x", sd.Fixed(1))], inits={"x": 2},
                outputs=["x"])
    assert validate(n) == ["init override 'x' = 2 is not a bit"]
    with pytest.raises(ValidationError, match="is not a bit"):
        simulate(n, {}, 5)
    with pytest.raises(ValueError, match="0 or 1"):
        builtin("delay-feedback", x0=2)


def test_multiple_drivers_rejected():
    n = Netlist(inputs=["u"],
                gates=[Gate("NOT", "x", ("u",))],
                delays=[DelayElement("x", "u", sd.Fixed(1))])
    assert any("driven more than once" in d for d in validate(n))


def test_undriven_net_rejected():
    n = Netlist(gates=[Gate("NOT", "x", ("ghost",))])
    assert any("no driver" in d for d in validate(n))


def test_unresolvable_initials_diagnosed():
    n = not_loop(sd.Fixed(1), sd.Fixed(1))
    n.inits.clear()  # x = NOT x through delays: no consistent assignment
    diags = validate(n, {})
    assert diags and any("initial" in d for d in diags)


def test_ambiguous_initials_diagnosed():
    # a buffer loop holds either value until an override picks one
    n = Netlist(gates=[Gate("AND", "x", ("v", "v"))],
                delays=[DelayElement("v", "x", sd.Fixed(1))])
    diags = validate(n, {})
    assert any("ambiguous" in d or "initial" in d for d in diags)
    n.inits["x"] = 1
    assert validate(n, {}) == []


def test_initials_settle_in_linear_work_whatever_the_listing_order(monkeypatch):
    # listed last gate first, a sweep over all gates settles one more per pass
    n = not_chain(500, closed=False)
    n.gates.reverse()
    calls = counted_calls(monkeypatch, sd.circuit, "_gate_value")
    assert validate(n, {"u": StepFunction.const(1)}) == []
    assert len(calls) <= 2 * 500


@st.composite
def initial_value_cases(draw):
    """1-9 nets, each an input, a gate of any kind with 1-3 inputs or a
    delay output; an init on about a quarter of the other nets; the
    inputs' initial values, or none."""
    nets = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    n = Netlist()
    for net in nets:
        role = draw(st.sampled_from(["input", "gate", "delay"]))
        if role == "input":
            n.inputs.append(net)
            continue
        if role == "gate":
            ins = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3))
            n.gates.append(Gate(draw(st.sampled_from(sorted(GATES))), net, tuple(ins)))
        else:
            n.delays.append(DelayElement(net, draw(st.sampled_from(nets)), sd.Fixed(1)))
        if draw(st.integers(0, 3)) == 0:
            n.inits[net] = draw(st.integers(0, 1))
    inputs = {name: StepFunction.const(draw(st.integers(0, 1))) for name in n.inputs}
    return n, draw(st.sampled_from([None, inputs]))


def _initials_verdict(diags):
    """A contradiction names one of possibly several contradicted elements;
    every other diagnostic must match word for word."""
    if any("contradicts its inputs" in d or "but its input" in d for d in diags):
        return "contradiction"
    return diags


@settings(max_examples=500, deadline=None)
@given(initial_value_cases())
def test_hypothesis_initials_match_the_sweep_to_a_fixpoint(case):
    n, inputs = case
    nets = dict.fromkeys(n.nets())
    got, diags = sd.circuit._resolve_initials(n, inputs, nets)
    want, ref = reference_initials(n, inputs, nets)
    assert _initials_verdict(diags) == _initials_verdict(ref)
    if not diags:
        assert got == want


@pytest.mark.parametrize("inputs, diags", [
    ({}, ["no waveform for primary input 'u'", "no waveform for primary input 'v'"]),
    ({"u": chi(0, None), "v": chi(0, None), "x": chi(0, None)},
     ["waveform for 'x', which is not a primary input"]),
    ({"u": chi(-1, None), "v": chi(0, None)}, ["input waveform 'u' is not a signal"])])
def test_validate_judges_inputs_as_simulate_does(inputs, diags):
    # input faults are reported alone, before the netlist's own
    n = parse_netlist("input u\ninput v\ngate FOO x u v\noutput x\n")
    assert validate(n, inputs) == diags
    with pytest.raises(ValidationError) as exc:
        simulate(n, inputs, 3)
    assert exc.value.diagnostics == diags
    assert validate(n, {"u": chi(0, None), "v": chi(0, None)}) == [
        "unknown gate kind 'FOO' driving 'x'"]


def test_a_primary_input_declared_twice_is_reported_once(tmp_path, capsys):
    n = parse_netlist("input u\ninput u\ndelay x u fixed d=1\n")
    twice = ["primary input 'u' declared more than once"]
    assert validate(n) == twice
    assert validate(n, {"u": chi(0, None)}) == twice
    assert validate(n, {}) == ["no waveform for primary input 'u'"]  # input faults come alone
    with pytest.raises(ValidationError) as exc:
        simulate(n, {"u": chi(0, None)}, 3)
    assert exc.value.diagnostics == twice
    path = tmp_path / "twice.net"
    path.write_text(format_netlist(n))
    assert main(["simulate", "--netlist", str(path), "--input", "u: 0 @ 1", "--until", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: primary input 'u' declared more than once\n"


def test_three_valued_initials_resolve_c_element():
    n = builtin("c-element")
    zero = StepFunction.const(0)
    assert validate(n, {"u": zero, "v": zero}) == []
    one = StepFunction.const(1)
    assert validate(n, {"u": one, "v": one}) == []


# ---------------------------------------------------------------------------
# Simulation: worked circuits
# ---------------------------------------------------------------------------

def test_fixed_not_loop_oscillates():
    w = simulate(not_loop(sd.Fixed(1), sd.Fixed(1)), {}, 10)
    assert w.signals["x"] == StepFunction.from_toggles(0, [0, 2, 4, 6, 8, 10])


def test_fixed_not_loop_period_scales(rng):
    for _ in range(10):
        d1 = F(rng.randrange(1, 8), 4)
        d2 = F(rng.randrange(1, 8), 4)
        period = 2 * (d1 + d2)
        horizon = 4 * period
        w = simulate(not_loop(sd.Fixed(d1), sd.Fixed(d2)), {}, horizon)
        x = w.signals["x"]
        expected = [k * (d1 + d2) for k in range(9) if k * (d1 + d2) <= horizon]
        assert list(x.bps) == expected


def test_sdbridc_not_loop_waveforms():
    w = simulate(not_loop(sd.SdbridcPrime(1), sd.SdbridcPrime(1)), {}, 8)
    assert w.signals["x"] == StepFunction.from_toggles(0, [0, 2, 4, 6, 8])
    assert w.signals["y"] == StepFunction.from_toggles(0, [1, 3, 5, 7])
    assert w.signals["v"] == StepFunction.from_toggles(0, [2, 4, 6, 8])


def test_not_loop_initially_high():
    w = simulate(not_loop(sd.Fixed(1), sd.Fixed(1), x0=1), {}, 6)
    assert w.signals["x"] == StepFunction(1, [0, 2, 4, 6],
                                          [0, 1, 0, 1], [0, 1, 0, 1])


def test_transient_oscillator_cases():
    one = StepFunction.const(1)
    w = simulate(builtin("transient-oscillator", d=3, dprime=1), {"u": one}, 8)
    assert w.signals["x"] == chi(None, 0) ^ chi(1, 2) ^ chi(3, None)
    w = simulate(builtin("transient-oscillator", d=2, dprime=1), {"u": one}, 8)
    assert w.signals["x"] == chi(None, 0) ^ chi(1, None)
    # k = 1 upper branch: 3d' < d <= 4d'
    w = simulate(builtin("transient-oscillator", d=4, dprime=1), {"u": one}, 8)
    assert w.signals["x"] == chi(None, 0) ^ chi(1, 2) ^ chi(3, None)


def test_not_gate_wire_settles_to_complement(rng):
    for _ in range(20):
        u = rand_signal(rng)
        n = builtin("not-gate-wire",
                    m1=sd.Fixed(F(rng.randrange(0, 5), 2)),
                    m2=sd.Fixed(F(rng.randrange(0, 5), 2)))
        w = simulate(n, {"u": u}, 20)
        assert w.signals["y"].limit_at_infinity() == 1 - u.limit_at_infinity()


def test_delay_feedback_holds_constant():
    for model in (sd.Fixed(1), sd.Dbridc(sd.BdcParams(1, 2, 1, 2))):
        for bit in (0, 1):
            n = builtin("delay-feedback", model=model, x0=bit)
            w = simulate(n, {}, 6)
            assert w.signals["x"] == StepFunction.const(bit)


def test_simulate_determinism(rng):
    u = rand_signal(rng)
    n = builtin("delay-line-falling")
    w1 = simulate(n, {"u": u}, 12)
    w2 = simulate(n, {"u": u}, 12)
    assert w1.signals == w2.signals


def test_event_budget_aborts_runaway():
    n = not_loop(sd.Fixed(F(1, 64)), sd.Fixed(F(1, 64)))
    n.event_budget = 40
    with pytest.raises(EventBudgetError) as info:
        simulate(n, {}, 100)
    assert info.value.net
    assert info.value.time is not None


def test_simulate_requires_all_inputs():
    n = builtin("delay-buffer")
    with pytest.raises(ValidationError):
        simulate(n, {}, 5)


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def test_simulation_conforms_to_itself(rng):
    for name, inputs in [("delay-buffer", {"u": rand_signal(rng)}),
                         ("not-feedback", {}),
                         ("delay-line-falling", {"u": rand_signal(rng)})]:
        n = builtin(name) if name != "not-feedback" \
            else not_loop(sd.Fixed(1), sd.Fixed(2))
        w = simulate(n, inputs, 12)
        assert check_trace_conformance(n, {}, w).ok


def test_fixed_delay_line_conforms_to_bdcprime(rng):
    for _ in range(10):
        models = [sd.Fixed(F(rng.randrange(1, 5), 4)) for _ in range(6)]
        n = builtin("delay-line-falling", models=models)
        u = rand_signal(rng)
        w = simulate(n, {"u": u}, 16)
        loose = {d.out: sd.BdcPrime(1, 1) for d in n.delays}
        assert check_trace_conformance(n, loose, w).ok


def test_conformance_localizes_perturbation():
    n = builtin("delay-line-falling")
    u = chi(2, None)
    w = simulate(n, {"u": u}, 16)
    # drag the final element's switch before its cause: the upper window
    # of the loose model has seen nothing yet, so only that element breaks
    wt = w.signals["w"]
    zt = w.signals["z"]
    assert wt.bps and zt.bps
    early = zt.bps[0] - F(1, 2)
    assert early >= 0
    hacked = dict(w.signals)
    hacked["w"] = StepFunction.from_toggles(wt.leading, [early] + list(wt.bps[1:]))
    loose = {d.out: sd.BdcPrime(1, 1) for d in n.delays}
    report = check_trace_conformance(n, loose, WaveformSet(hacked, w.horizon))
    assert not report.ok
    assert report.first_violation.net == "w"
    assert report.first_violation.time == early


def test_conformance_ranks_attained_first_at_equal_times():
    # x breaks its delay at 3/2 itself; y breaks its gate only just after
    n = parse_netlist("input u\ndelay x u fixed d=1\ngate NOT y x\n")
    x = StepFunction.from_toggles(0, [F(3, 2)])
    y = ~x ^ chi(F(3, 2), F(5, 2), lo_closed=False)
    w = WaveformSet({"u": StepFunction.const(0), "x": x, "y": y}, F(4))
    v = check_trace_conformance(n, {}, w).first_violation
    assert (v.net, v.time, v.attained) == ("x", F(3, 2), True)


def _random_builtin_run(rng, denom):
    """A worked circuit with random delays of denominator ``denom``, its
    inputs and a horizon."""
    def model():
        return rng.choice((sd.Fixed, sd.SdbridcPrime))(F(rng.randrange(1, 3 * denom), denom))

    def signal():
        return rand_signal(rng, n_max=6, denom=denom, span=10 * denom)
    name = rng.choice(("delay-buffer", "delay-feedback", "not-gate-wire", "not-feedback",
                       "delay-line-falling", "transient-oscillator", "c-element"))
    params = {"delay-buffer": {"model": model()},
              "delay-feedback": {"model": model(), "x0": rng.randrange(2)},
              "not-gate-wire": {"m1": model(), "m2": model()},
              "not-feedback": {"m1": model(), "m2": model(), "x0": rng.randrange(2)},
              "delay-line-falling": {"models": [model() for _ in range(6)]},
              "transient-oscillator": {"d": model().d, "dprime": model().d},
              "c-element": {}}[name]
    n = builtin(name, **params)
    u = signal()
    if name != "c-element":
        return n, {net: u for net in n.inputs}
    # equal initial inputs, else the C-element's initial value is ambiguous
    return n, {"u": u, "v": StepFunction.from_toggles(u.leading, signal().toggles())}


def _perturbed(rng, f, step, horizon):
    """f with one toggle moved by ``step`` or one added on the grid of
    ``step`` by the horizon, or f itself where that would not be a signal;
    in the unit of f's times (ticks stay ints)."""
    ts = list(f.toggles())
    if ts and rng.randrange(2):
        i = rng.randrange(len(ts))
        ts[i] += rng.choice((-1, 1)) * step
    else:
        ts.append(rng.randrange(0, horizon // step + 1) * step)
    if len(set(ts)) < len(ts) or min(ts) < 0:
        return f
    return StepFunction._from_toggles(f.leading, sorted(ts))


def _with_toggle(f, t):
    """f with one more toggle at t, if none is there."""
    return f if t in f.bps else StepFunction._from_toggles(f.leading, sorted([*f.bps, t]))


def _assert_matches_reference(n, nondet, w):
    got = check_trace_conformance(n, nondet, w)
    want = reference_conformance(n, nondet, w)
    assert got == want
    if not got.ok:
        assert type(got.first_violation.time) is type(want.first_violation.time)
    return got


# denominators whose lcm with 3 and 7 passes the 8,192-bit timebase bound
# only when both meet in one set, not in any one element of it
_BIG_A, _BIG_B = F(1, 3 ** 2900), F(1, 2 ** 4500)


def test_conformance_in_given_times_matches_one_timebase():
    """One timebase for the whole set gives the report that each element
    judged in its own gave: sets in time, perturbed or not, simulated
    sets in their ticks with their ticked models, nondet overrides, and
    sets above the timebase bound."""
    rng = random.Random(18)
    seen = set()
    for case in range(240):
        n, inputs = _random_builtin_run(rng, rng.choice((1, 3, 7)))
        ticks = case % 3 == 0
        w = simulate(n, inputs, 12, _ticks=ticks)
        k = w.timebase
        signals = dict(w.signals)
        if rng.randrange(4):
            net = rng.choice(sorted(signals))
            step = 1 if ticks else F(1, 7)
            signals[net] = _perturbed(rng, signals[net], step, w.horizon)
        if not ticks and case % 5 == 0:  # the set passes the timebase bound
            net, other = rng.choice(sorted(signals)), rng.choice(sorted(signals))
            if case % 2:
                signals[net] = _with_toggle(signals[net], F(1, 10 ** 2500))
            else:
                signals[net] = _with_toggle(signals[net], _BIG_A)
                signals[other] = _with_toggle(signals[other], _BIG_B)
            seen.add("above")
        models = {d.out: _in_ticks(d.model, k) for d in n.delays} if ticks else {}
        if rng.randrange(3) == 0:
            d = rng.choice(n.delays)
            den = rng.choice([x for x in (1, 3, 7) if not ticks or k % x == 0])
            models[d.out] = _in_ticks(sd.Bdc(rand_bdc_params(rng, denom=den)),
                                      k if ticks else None)
        got = _assert_matches_reference(n, models, WaveformSet(signals, w.horizon, k))
        if not got.ok:
            v = got.first_violation
            seen.add("gate" if v.clause == "gate-equation" else "delay")
            seen.add("ticks" if ticks else "time")
            if v.net in models and not ticks:
                seen.add("nondet")
    assert seen == {"gate", "delay", "nondet", "ticks", "time", "above"}


def _neg(t):
    """No signal: a switch at -t, before 0; a third, so that a message
    quoting it in ticks would read otherwise."""
    return StepFunction.from_toggles(0, [-t, 2])


_LEFT = StepFunction(0, [1], [0], [1])  # not right-continuous
_AIC = sd.parse_model("aic dr=1 df=1")  # reads no input
_BAD = sd.Dbridc(sd.BdcParams(0, 1, 0, 3))  # CC_BDC fails
_FIX = sd.Fixed(F(1, 3))


@pytest.mark.parametrize("given, nondet", [
    ({"x": _neg(F(1, 3))}, {}),  # an output that is no signal
    ({"x": _LEFT}, {}),
    ({"u": _neg(F(2, 3))}, {}),  # an input that is no signal
    ({"u": _neg(F(2, 3))}, {"x": _AIC}),  # aic reads no input: judged, not refused
    ({}, {"x": _BAD}),  # an inconsistent model, named as given
    ({"y": None}, {"X": _FIX}),  # a missing net before a misspelt key
    ({"x": _neg(F(1, 3))}, {"X": _FIX}),  # a misspelt key before the delays
    ({"x": _neg(F(1, 3))}, {"y": _BAD}),  # the first delay before the second
    ({"y": _neg(F(4, 3))}, {"x": _BAD}),
    ({"x": _neg(F(1, 3)), "u": _neg(F(2, 3))}, {}),  # a delay's output before its input
    ({"x": _neg(F(1, 3))}, {"x": _BAD}),  # and before its model
    ({"u": _neg(F(2, 3))}, {"x": _BAD}),  # and its input before its model
])
def test_conformance_refuses_as_the_reference_does(given, nondet):
    """Each refusal, and which of two comes first, in the reference's type
    and words: missing nets, misspelt keys, then per delay in netlist order
    its output, its input and its model, quoting them as given."""
    n = parse_netlist("input u\ndelay x u fixed d=1\ndelay y x fixed d=1\n")
    w = simulate(n, {"u": StepFunction.from_toggles(0, [F(1, 3), 2])}, F(9, 2))
    signals = {**w.signals, **given}
    w = WaveformSet({net: f for net, f in signals.items() if f is not None}, w.horizon)
    try:
        reference_conformance(n, nondet, w)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            check_trace_conformance(n, nondet, w)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        _assert_matches_reference(n, nondet, w)


def test_conformance_refuses_a_nondet_key_that_names_no_delay():
    n = builtin("delay-buffer")
    w = simulate(n, {"u": StepFunction.from_toggles(0, [1])}, 4)
    loose = sd.Bdc(sd.BdcParams(0, 3, 0, 3))
    v = check_trace_conformance(n, {"x": loose}, w).first_violation
    assert (v.net, v.time, v.clause) == ("x", 2, "upper-bound")
    for key in ("X", "u"):
        with pytest.raises(ValueError, match=f"^nondet model for '{key}', which is not"):
            check_trace_conformance(n, {key: loose}, w)


def test_conformance_rejects_missing_nets():
    n = builtin("delay-buffer")
    with pytest.raises(ValueError):
        check_trace_conformance(n, {}, WaveformSet({"u": chi(0, None)}, F(4)))


@pytest.mark.parametrize("gate, diag", [
    ("gate FOO x u u", "unknown gate kind 'FOO' driving 'x'"),
    ("gate NOT x u v", "NOT gate 'x' takes exactly one input")])  # not a NAND
def test_conformance_rejects_gates_it_cannot_read(gate, diag):
    n = parse_netlist(f"input u\ninput v\n{gate}\n")
    zero, one = StepFunction.const(0), StepFunction.const(1)
    w = WaveformSet({"u": zero, "v": zero, "x": one}, F(3))
    with pytest.raises(ValidationError) as exc:
        check_trace_conformance(n, {}, w)
    assert exc.value.diagnostics == [diag]


def test_c_element_envelope(rng):
    p = sd.BdcParams(1, 2, 1, 2)
    P = sd.BdcParams(F(1, 2), 1, F(1, 2), 1)
    n = builtin("c-element", layer=sd.Dbridc(p), out=sd.Dbridc(P))
    for _ in range(10):
        u = rand_signal(rng, n_max=3)
        v = rand_signal(rng, n_max=3)
        if v.leading != u.leading:
            v = ~v  # the worked circuit assumes equal initial values
        w = simulate(n, {"u": u, "v": v}, 24)
        x = w.signals["x"]
        lo = window_inf(u & v, p.d_r + P.d_r, p.m_r + P.m_r).truncate(24)
        hi = window_sup(u | v, p.d_f + P.d_f, p.m_f + P.m_f).truncate(24)
        assert lo <= x and x <= hi


def test_c_element_unequal_initials_need_override():
    # with opposite input initials the stored bit is genuinely free
    n = builtin("c-element")
    u, v = StepFunction.const(1), StepFunction.const(0)
    with pytest.raises(ValidationError) as info:
        simulate(n, {"u": u, "v": v}, 8)
    assert "ambiguous" in str(info.value)
    n.inits["x"] = 0
    w = simulate(n, {"u": u, "v": v}, 8)
    assert w.signals["x"] == StepFunction.const(0)


def test_c_element_with_equal_inputs_is_delay_buffer(rng):
    p = sd.BdcParams(1, 2, 1, 2)
    n = builtin("c-element", layer=sd.Dbridc(p), out=sd.Dbridc(p))
    combined = sd.compose_bdc(p, p)
    for _ in range(10):
        u = rand_signal(rng, n_max=3)
        w = simulate(n, {"u": u, "v": u}, 24)
        assert sd.check_membership(u.truncate(24), w.signals["x"],
                                   sd.Bdc(combined), horizon=24).ok


# ---------------------------------------------------------------------------
# Builtins and text format
# ---------------------------------------------------------------------------

def test_builtin_names():
    for name in ("delay-buffer", "delay-feedback", "not-gate-wire",
                 "not-feedback", "delay-line-falling", "transient-oscillator",
                 "c-element"):
        n = builtin(name)
        assert n.nets()
    with pytest.raises(ValueError):
        builtin("mystery-box")
    with pytest.raises(ValueError):
        builtin("delay-buffer", oops=1)


_NOT_FEEDBACK = ("gate NOT x v\ndelay y x {}\ndelay v y {}\ninit x {}\n"
                 "output x\noutput y\noutput v\n")
_DELAY_LINE = ("input u\ngate NOT y1 u\ngate NOT y2 x1\ngate NOT y3 x2\n"
               "gate NAND y4 x3 x1\ngate NOT y5 x4\ngate NAND z x5 x1\n"
               "delay x1 y1 {}\ndelay x2 y2 {}\ndelay x3 y3 {}\ndelay x4 y4 {}\n"
               "delay x5 y5 {}\ndelay w z {}\noutput w\n")
_OSCILLATOR = ("input u\ngate NOT v u\ngate NAND x u y z\ndelay y v fixed d={}\n"
               "delay z x fixed d={}\ninit v 1\ninit x 1\noutput x\noutput z\n")
_C_ELEMENT = ("input u\ninput v\ngate AND ystar u v\ngate AND zstar u x\n"
              "gate AND wstar v x\ngate OR xstar y z w\ndelay y ystar {0}\n"
              "delay z zstar {0}\ndelay w wstar {0}\ndelay x xstar {1}\noutput x\n")
_DBRIDC = "dbridc mr=1 dr=2 mf=1 df=2"

_BUILTIN_TEXT = [
    ("delay-buffer", {}, "input u\ndelay x u fixed d=1\noutput x\n"),
    ("delay-feedback", {}, "delay x x fixed d=1\ninit x 0\noutput x\n"),
    ("not-gate-wire", {}, "input u\ngate NOT x v\ndelay v u fixed d=1\n"
                          "delay y x fixed d=1\noutput y\n"),
    ("not-feedback", {}, _NOT_FEEDBACK.format("fixed d=1", "fixed d=1", 0)),
    ("delay-line-falling", {}, _DELAY_LINE.format(*["fixed d=1"] * 6)),
    ("transient-oscillator", {}, _OSCILLATOR.format(3, 1)),
    ("c-element", {}, _C_ELEMENT.format(_DBRIDC, _DBRIDC)),
    ("not-feedback", {"m1": sd.SdbridcPrime(F(3, 2)), "m2": sd.SdbridcPrime(F(5, 4)),
                      "x0": 1},
     _NOT_FEEDBACK.format("sdbridc d=3/2", "sdbridc d=5/4", 1)),
    ("not-feedback", {"m1": sd.Fixed(F(7, 5)), "m2": sd.Fixed(2), "x0": 0},
     _NOT_FEEDBACK.format("fixed d=7/5", "fixed d=2", 0)),
    ("delay-line-falling",
     {"models": [sd.Fixed(F(1, 3)) if i % 2 else sd.SdbridcPrime(F(i + 1, 7))
                 for i in range(6)]},
     _DELAY_LINE.format("sdbridc d=1/7", "fixed d=1/3", "sdbridc d=3/7", "fixed d=1/3",
                        "sdbridc d=5/7", "fixed d=1/3")),
    ("delay-line-falling", {"model": sd.SdbridcPrime(F(1, 2))},
     _DELAY_LINE.format(*["sdbridc d=1/2"] * 6)),
    ("transient-oscillator", {"d": 2, "dprime": 1}, _OSCILLATOR.format(2, 1)),
    ("transient-oscillator", {"d": "1/2", "dprime": F(4, 3)}, _OSCILLATOR.format("1/2", "4/3")),
    ("c-element", {"layer": sd.Dbridc(sd.BdcParams(1, 2, 1, 2)),
                   "out": sd.Dbridc(sd.BdcParams(F(1, 2), 1, F(1, 2), 1))},
     _C_ELEMENT.format(_DBRIDC, "dbridc mr=1/2 dr=1 mf=1/2 df=1")),
]


@pytest.mark.parametrize("name,params,text", _BUILTIN_TEXT)
def test_builtin_netlist_text_is_pinned(name, params, text):
    n = builtin(name, **params)
    assert format_netlist(n) == text
    assert n == parse_netlist(text)


@pytest.mark.parametrize("name,params,error,msg", [
    ("transient-oscillator", {"d": 1.5}, TypeError, "float"),
    ("delay-line-falling", {"models": [sd.Fixed(1)] * 5}, ValueError,
     "delay-line-falling takes six per-element models"),
    ("not-feedback", {"x0": 2}, ValueError, "0 or 1"),
    ("mystery-box", {}, ValueError, "unknown builtin circuit 'mystery-box'"),
    ("delay-buffer", {"oops": 1}, ValueError,
     r"builtin 'delay-buffer' does not take \['oops'\]"),
    ("delay-line-falling", {"m1": sd.Fixed(1)}, ValueError,
     r"builtin 'delay-line-falling' does not take \['m1'\]"),
])
def test_builtin_errors(name, params, error, msg):
    with pytest.raises(error, match=msg):
        builtin(name, **params)


def test_builtin_shapes():
    c = builtin("c-element")
    assert len(c.gates) == 4 and len(c.delays) == 4
    and_gates = [g for g in c.gates if g.kind == "AND"]
    assert len(and_gates) == 3
    line = builtin("delay-line-falling")
    assert len(line.gates) == 6 and len(line.delays) == 6


def test_netlist_text_round_trip():
    for name in ("not-feedback", "delay-line-falling", "transient-oscillator",
                 "c-element"):
        n = builtin(name)
        text = format_netlist(n)
        again = parse_netlist(text)
        assert format_netlist(again) == text
        assert again.inputs == n.inputs and again.outputs == n.outputs
        assert again.gates == n.gates and again.delays == n.delays
        assert again.inits == n.inits


@pytest.mark.parametrize("bad,msg", [
    ("input", "one net"),
    ("gate NOT x", "inputs"),
    ("delay x u", "model"),
    ("init x 2", "0 or 1"),
    ("bogus a b", "unknown statement"),
    ("delay x u fixed d=oops", "bad number"),
])
def test_netlist_parse_errors_name_the_line(bad, msg):
    with pytest.raises(ValueError) as info:
        parse_netlist("input u\n" + bad + "\n")
    assert "line 2" in str(info.value)
    assert msg in str(info.value)


def test_parse_netlist_comments_and_blanks():
    n = parse_netlist("""
# a NOT gate behind a wire delay
input u
gate NOT x u      # instantaneous
delay y x fixed d=1/2
output y
""")
    assert n.inputs == ["u"] and n.outputs == ["y"]
    w = simulate(n, {"u": chi(0, None)}, 4)
    assert w.signals["y"] == chi(None, F(1, 2))


_LOOPS = "".join(f"gate AND a{i} b{i} b{i}\ndelay b{i} a{i} fixed d=1\n" for i in range(17))


@pytest.mark.parametrize("text, extra, msg", [
    ("input u\ndelay x u bdc mr=1 dr=2 mf=1 df=2\n", [],
     "delay 'x' uses non-simulatable model 'bdc mr=1 dr=2 mf=1 df=2'"),
    ("input u\ngate NOT x u\ngate NOT x u\n", [], "net 'x' driven more than once"),
    ("input u\ngate NOT u u\n", [], "primary input 'u' is also driven"),
    ("input u\ninit u 1\ndelay x u fixed d=1\n", [],
     "primary input 'u' takes its initial value from its waveform, not from an init override"),
    ("input u\ndelay x u fixed d=1\noutput y\n", [], "output 'y' is not a net of the circuit"),
    ("input u\ndelay x u fixed d=1\n", ["--init", "zz=1"], "init override on unknown net 'zz'"),
    ("input u\ndelay x u fixed d=1\n", ["--init", "x=2"], "--init takes net=0 or net=1, got 'x=2'"),
    ("input u\ngate AND x u\n", [], "gate 'x' (AND) needs at least two inputs"),
    ("input u\ndelay x u fixed d=1\ninit x 0\ninit x 0\n", [], "line 4: duplicate init for 'x'"),
    ("input u\ndelay x u fixed d=1\noutput x y\n", [], "line 3: output takes one net name"),
    (_LOOPS, [], "too many unresolved initial values; add init overrides"),
], ids=["bdc-delay", "two-drivers", "driven-input", "init-on-input", "unknown-output",
        "init-unknown-net", "init-not-a-bit", "and-of-one", "duplicate-init", "output-of-two",
        "17-loops"])
def test_simulate_refuses_a_bad_netlist_naming_the_fault(tmp_path, capsys, text, extra, msg):
    path = tmp_path / "bad.net"
    path.write_text(text)
    argv = ["simulate", "--netlist", str(path), "--until", "4", *extra]
    if text.startswith("input u"):
        argv += ["--input", "u: 0 @ 1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and msg in err
    assert "Traceback" not in err
