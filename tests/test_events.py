"""Event forms and the event-driven simulator against their references.

Each deterministic model's event form, fed the switches of one known
input, must reproduce the model's closed form (``fixed``, ``wand``,
``wor``) or the window sweep of ``reference_kernel`` (``dbridc``,
``sdbridc``).  ``simulate`` must return what the whole-waveform
relaxation of ``reference_sim`` returns, or raise the same error.
Parameters and switch times share the half-unit grid, so input gaps
often equal d, m and d - m exactly, and switches of different nets
often coincide; the random netlists also draw delays in thirds and
fifths, which the half-unit inputs do not share.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import sigdelay as sd
from sigdelay.circuit import (
    GATES,
    DelayElement,
    EventBudgetError,
    Gate,
    Netlist,
    ValidationError,
    simulate,
)
from sigdelay.solvers import solve_dbridc, solve_sdbridc
from sigdelay.stepfn import StepFunction

from reference_kernel import sweep_dbridc, sweep_sdbridc
from reference_sim import relax

def grid(den, lo=0):
    """Times k/den up to 3."""
    return st.integers(lo, 3 * den).map(lambda k: F(k, den))


half, positive = grid(2), grid(2, 1)


@st.composite
def signals(draw, span=24):
    ts = sorted(draw(st.sets(st.integers(0, span), max_size=8)))
    return StepFunction.from_toggles(draw(st.integers(0, 1)), [F(k, 2) for k in ts])


@st.composite
def windows(draw, cls, den=2):
    d = draw(grid(den))
    return cls(F(draw(st.integers(0, int(den * d))), den), d)


@st.composite
def dbridcs(draw, den=2):
    times = grid(den)
    m_r, m_f = draw(times), draw(times)
    d_r, d_f = m_r + draw(times), m_f + draw(times)
    p = sd.BdcParams(m_r, d_r, m_f, d_f)
    if not sd.cc_bdc(p):  # shrink the longer lower bound onto the other edge
        if d_r - m_r > d_f:
            p = sd.BdcParams(m_r, m_r + d_f, m_f, d_f)
        else:
            p = sd.BdcParams(m_r, d_r, m_f, m_f + d_r)
    return sd.Dbridc(p)


def deterministic_models_in(den):
    return st.one_of(
        grid(den).map(sd.Fixed), windows(sd.WindowAnd, den), windows(sd.WindowOr, den),
        dbridcs(den), grid(den, 1).map(sd.SdbridcPrime))


def zero_lookback_models_in(den):
    times = grid(den)
    return st.one_of(
        st.just(sd.Fixed(0)),
        times.map(lambda d: sd.WindowAnd(d, d)),
        times.map(lambda d: sd.WindowOr(d, d)),
        st.tuples(times, times, times).map(
            lambda t: sd.Dbridc(sd.BdcParams(t[0], t[0], t[1], t[1] + min(t[2], t[0])))))


deterministic_models = deterministic_models_in(2)
zero_lookback_models = zero_lookback_models_in(2)


def oracle(model, u):
    if isinstance(model, sd.Dbridc):
        return sweep_dbridc(u, model.p)
    if isinstance(model, sd.SdbridcPrime):
        return sweep_sdbridc(u, model.d)
    return model.solve(u)  # fixed: a shift; wand/wor: window_inf/window_sup


def drive(model, u):
    """Feed u's switches to the model's event form, checking after each
    feed that it changed no switch before the feed time (nor at it, for a
    positive-lookback model) and kept its switches in time order."""
    zero = model.zero_lookback()
    form = model.events(u.leading)
    for s, bit in zip(u.bps, u.at):
        kept = [t for t in form.pending if t < s or (t == s and not zero)]
        added = form.feed(s, bit)
        after = list(form.pending)
        assert after[:len(kept)] == kept
        assert all(t > s or (zero and t == s) for t in after[len(kept):])
        assert all(a < b for a, b in zip(after, after[1:]))
        assert added is None or added == after[-1]
        assert form.value == u.leading ^ (len(after) & 1)
    return StepFunction.from_toggles(u.leading, form.pending)


@settings(max_examples=400, deadline=None)
@given(deterministic_models, signals())
def test_event_form_matches_its_oracle(model, u):
    assert drive(model, u) == oracle(model, u)


@settings(max_examples=200, deadline=None)
@given(zero_lookback_models, signals())
def test_zero_lookback_event_form_matches_its_oracle(model, u):
    assert model.zero_lookback()
    assert drive(model, u) == oracle(model, u)


@settings(max_examples=200, deadline=None)
@given(dbridcs(), positive, signals())
def test_solvers_drive_the_event_forms(model, d, u):
    assert solve_dbridc(u, model.p) == sweep_dbridc(u, model.p)
    assert solve_sdbridc(u, d) == sweep_sdbridc(u, d)


# ---------------------------------------------------------------------------
# simulate against the relaxation
# ---------------------------------------------------------------------------

def positive_lookback_models_in(den):
    return deterministic_models_in(den).filter(lambda m: not m.zero_lookback())


dens = st.sampled_from([2, 3, 5])


@st.composite
def sim_cases(draw):
    """Up to 8 nets: primary inputs on the half-unit grid, gates, and
    delays of all five simulatable models with parameters in halves,
    thirds or fifths.  Gates and zero-lookback delays read earlier nets;
    a positive-lookback delay may read a later net or its own output, and
    a loop is such a delay read back by the gate after it, so every cycle
    passes through positive lookback.  Loop gates and most others get an
    initial value, so that cycles resolve theirs."""
    nets = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    n = Netlist(event_budget=draw(st.sampled_from([0, 1, 2, 4, 8, 10_000])))
    inputs = {}

    def gate(k, ins, init):
        kind = draw(st.sampled_from(sorted(GATES)))
        arity = 1 if GATES[kind].unary else draw(st.integers(2, 3))
        ins = (ins + draw(st.lists(st.sampled_from(nets[:k]), min_size=arity,
                                   max_size=arity)))[:arity]
        n.gates.append(Gate(kind, nets[k], tuple(ins)))
        if init or draw(st.integers(0, 3)):
            n.inits[nets[k]] = draw(st.integers(0, 1))

    k = 0
    while k < len(nets):
        net = nets[k]
        role = draw(st.sampled_from(["input", "gate", "delay", "loop"]))
        if role == "input" or not k:
            n.inputs.append(net)
            inputs[net] = draw(signals(span=16))
        elif role == "gate":
            gate(k, [], False)
        elif role == "loop" and k + 1 < len(nets):
            model = draw(positive_lookback_models_in(draw(dens)))
            n.delays.append(DelayElement(net, nets[k + 1], model))
            k += 1
            gate(k, [net], True)
        else:
            den = draw(dens)
            model = draw(st.one_of(deterministic_models_in(den), zero_lookback_models_in(den)))
            later = not model.zero_lookback() and draw(st.booleans())
            src = draw(st.sampled_from(nets[k:] if later else nets[:k]))
            n.delays.append(DelayElement(net, src, model))
        k += 1
    return n, inputs, F(draw(st.integers(0, 16)), 2)


def outcome(run, n, inputs, horizon):
    try:
        return run(n, inputs, horizon)
    except ValidationError as exc:
        return ValidationError, exc.diagnostics
    except EventBudgetError as exc:
        return EventBudgetError, exc.net, exc.time


@settings(max_examples=400, deadline=None)
@given(sim_cases())
def test_simulate_matches_relaxation(case):
    assert outcome(simulate, *case) == outcome(relax, *case)


def test_coincident_switches_settle_in_evaluation_order():
    # u and its zero-delay copy c switch together, so the AND of c and
    # NOT u never sees them apart; the closed window [t-1, t] of the wand
    # includes t itself, so it never fits into the one-unit pulse [1, 2)
    n = sd.parse_netlist("input u\ndelay c u fixed d=0\ngate NOT nu u\n"
                         "gate AND g c nu\ndelay w c wand m=1 d=1\n")
    u = StepFunction.from_toggles(0, [1, 2, 3])
    w = simulate(n, {"u": u}, 6)
    assert w == relax(n, {"u": u}, 6)
    assert w.signals["g"] == StepFunction.const(0)
    assert w.signals["w"] == StepFunction.from_toggles(0, [4])
