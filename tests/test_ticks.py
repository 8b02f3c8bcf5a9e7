"""Integer ticks against the Fraction kernel.

``check_membership``, ``check_trace_conformance`` and ``simulate`` scale
their times to integer ticks over one timebase and run the kernel on
ints.  The same kernel run on the original Fractions is the oracle:
``_report(model.clauses(u, x), h)``.  Times draw their denominators from
pools that mix 1, 3 and 7 with large primes, some of which push the
timebase past its bound, where the Fractions are kept.  The guards
count Fraction comparisons instead of timing them, so they cannot flake.

``check_membership`` keeps the input side of its last call; a repeated
check must equal the same check on fresh copies of the input and the
model, which cannot hit that entry.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import conditions
from sigdelay.circuit import EventBudgetError, builtin, check_trace_conformance, simulate
from sigdelay.conditions import MODELS, _in_time, _le, _report
from sigdelay.stepfn import StepFunction, _to_ticks, chi, format_time, timebase, window

from conftest import brute_check, counted_calls
from reference_kernel import dbridc_form_report

F = Fraction
M4423, M9689 = 2 ** 4423 - 1, 2 ** 9689 - 1  # Mersenne primes
POOLS = [
    (1, 3, 7),
    (1, 3, 7, 1_000_003, 2 ** 61 - 1),
    (1, 3, M4423),  # a timebase of 4,425 bits: below the bound
    (7, M9689),     # 9,692 bits: above it
]


def times_in(pool, wholes=6):
    return st.builds(lambda w, n, d: w + F(n, d), st.integers(0, wholes),
                     st.integers(0, 2), st.sampled_from(pool))


def signals_in(pool):
    return st.builds(lambda bit, ts: StepFunction.from_toggles(bit, sorted(ts)),
                     st.integers(0, 1), st.sets(times_in(pool), max_size=6))


@st.composite
def models_in(draw, pool, keywords=tuple(sorted(MODELS))):
    """Any registered model: each key after a memory key (m, mr, mur, ...)
    is that memory plus a time, so windows fit; zeros are common."""
    kw = draw(st.sampled_from(keywords))
    vals, prev = [], None
    for key in MODELS[kw].keys:
        t = draw(times_in(pool, wholes=3))
        vals.append(t if prev is None else prev + t)
        prev = t if key.startswith("m") else None
    try:
        return sd.parse_model(" ".join([kw] + [f"{k}={format_time(v)}"
                                               for k, v in zip(MODELS[kw].keys, vals)]))
    except ValueError:  # bdcprime and sdbridc need positive delays
        assume(False)


@st.composite
def membership_cases(draw):
    pool = draw(st.sampled_from(POOLS))
    horizon = draw(st.one_of(st.none(), times_in(pool),
                             st.integers(0, 90).map(lambda n: F(n, 11))))
    return (draw(models_in(pool)), draw(signals_in(pool)), draw(signals_in(pool)), horizon)


@settings(max_examples=250, deadline=None)
@given(membership_cases())
def test_check_membership_in_ticks_matches_the_fraction_kernel(case):
    model, u, x, h = case
    try:
        model.require_consistent()
    except sd.InconsistentModelError:
        with pytest.raises(sd.InconsistentModelError):
            sd.check_membership(u, x, model, horizon=h)
        return
    got = sd.check_membership(u, x, model, horizon=h)
    assert got == _report(model.clauses(u, x), h)
    v = got.first_violation
    assert v is None or v.time is None or type(v.time) is Fraction


# ---------------------------------------------------------------------------
# The input side of the last check
# ---------------------------------------------------------------------------

elevenths = st.integers(0, 90).map(lambda n: F(n, 11))


@st.composite
def repeated_checks(draw):
    """One model and one input against 2 to 6 outputs.  Most outputs come
    from the input's pool, the others from any pool, so some need a finer
    timebase than the one before or one above the bound; most horizons
    repeat the first, the others are none or in elevenths."""
    pool = draw(st.sampled_from(POOLS))
    model = draw(models_in(pool))
    inputs = signals_in(pool)
    u = draw(inputs if model.needs_input else st.one_of(st.none(), inputs))
    first = draw(st.one_of(st.none(), times_in(pool), elevenths))
    calls = [(draw(signals_in(draw(st.sampled_from([pool, pool, pool, *POOLS])))),
              draw(st.sampled_from([first, first, first, None, draw(elevenths)])))
             for _ in range(draw(st.integers(2, 6)))]
    return model, u, calls


_THIRDS = StepFunction.from_toggles(0, [F(1, 3), 2, F(9, 2)])
_ABOVE = StepFunction.from_toggles(1, [F(1, M9689), F(5, 2)])


@settings(max_examples=150, deadline=None)
@given(repeated_checks())
@example((sd.Aic(sd.AicParams(1, F(1, 3))), None,  # no input
          [(chi(0, 2), None), (chi(F(1, 3), 1), F(5, 11)), (chi(F(1, 7), 3), F(5, 11))]))
@example((sd.Bdc(sd.BdcParams(0, 1, 0, 2)), _THIRDS,  # inconsistent: raises every time
          [(_THIRDS, None), (_THIRDS.shift(1), None)]))
@example((sd.Dbridc(sd.BdcParams(F(1, 3), F(3, 2), F(1, 3), F(3, 2))), _ABOVE,  # above the bound
          [(_ABOVE.shift(F(3, 2)), None), (chi(F(1, 3), 2), None), (_ABOVE, F(40, 11))]))
@example((sd.Ric(sd.RicParams(0, 1, F(1, 2), 1)), _THIRDS,  # x above the bound, then back
          [(_THIRDS, 4), (_ABOVE, 4), (_THIRDS.shift(F(1, 7)), 4), (chi(1, 2), 4)]))
def test_repeated_checks_match_fresh_ones(case):
    model, u, calls = case
    cc = model.consistency()
    if cc is not None and not cc[1]:
        for x, h in calls:
            with pytest.raises(sd.InconsistentModelError):
                sd.check_membership(u, x, model, horizon=h)
        return
    got = [sd.check_membership(u, x, model, horizon=h) for x, h in calls]
    for (x, h), report in zip(calls, got):
        fresh_u = None if u is None else StepFunction(u.leading, u.bps, u.at, u.right)
        assert report == sd.check_membership(fresh_u, x, dataclasses.replace(model), horizon=h)
        assert report == _report(model.clauses(u, x), h)


def test_a_repeated_input_is_judged_once(monkeypatch):
    misses = counted_calls(monkeypatch, conditions, "_in_ticks")
    model = sd.Bdc(sd.BdcParams(1, 2, 1, 2))
    u = _THIRDS
    outputs = [u.shift(d) for d in (1, F(3, 2), F(4, 3), 2)]
    for x in outputs:  # x in sixths: one timebase for all of them
        sd.check_membership(u, x, model)
    assert len(misses) == 1
    sd.check_membership(u, u.shift(1), model, horizon=F(3, 11))  # another horizon
    sd.check_membership(u, u.shift(1), model, horizon=F(3, 11))
    assert len(misses) == 2
    sd.check_membership(u, u.shift(F(1, 5)), model, horizon=F(3, 11))  # fifths
    assert len(misses) == 3
    equal = StepFunction(u.leading, u.bps, u.at, u.right)
    assert equal == u and sd.check_membership(equal, u.shift(1), model) \
        == sd.check_membership(u, u.shift(1), model)  # equal, not the same object
    assert len(misses) == 5
    sd.check_membership(u, u.shift(1), sd.Bdc(model.p))  # an equal model
    assert len(misses) == 6
    sd.check_membership(u, _ABOVE, model)  # x above the bound
    sd.check_membership(u, _ABOVE.shift(1), model)
    assert len(misses) == 7


def test_checks_inspect_no_dataclass_fields(monkeypatch):
    inspected = counted_calls(monkeypatch, conditions, "fields")
    specs = ["bdc mr=1 dr=2 mf=1 df=2", "bridc mr=1 dr=2 mf=1 df=2 mur=0 deltar=1 muf=0 deltaf=1",
             "aic dr=1 df=1", "baidc mr=1 dr=2 mf=1 df=2 deltar=1 deltaf=1", "fixed d=1/3"]
    for i in range(100):
        u = StepFunction.from_toggles(i % 2, [F(i, 3), F(i + 5, 2)])  # a fresh input each time
        sd.check_membership(u, u.shift(F(i % 4, 2)), sd.parse_model(specs[i % len(specs)]))
    assert inspected == []


half = st.integers(0, 8).map(lambda n: F(n, 2))


@settings(max_examples=200, deadline=None)
@given(models_in((2,), keywords=tuple(sorted(set(MODELS) - {"sc"}))),
       signals_in((2,)), signals_in((2,)), st.one_of(st.none(), half))
def test_check_membership_in_ticks_agrees_with_brute_force(model, u, x, h):
    assume(model.consistency() is None or model.consistency()[1])
    assert sd.check_membership(u, x, model, horizon=h).ok == brute_check(u, x, model, h)


@st.composite
def stepfns_in(draw, pool):
    """Arbitrary step functions: independent point values, so that level
    sets have open and closed ends and infima need not be attained."""
    bps = sorted(draw(st.sets(times_in(pool), max_size=5)))
    bits = st.integers(0, 1)
    return StepFunction(draw(bits), bps, [draw(bits) for _ in bps], [draw(bits) for _ in bps])


@st.composite
def kernel_cases(draw):
    pool = draw(st.sampled_from(POOLS))
    s, e = sorted([-draw(times_in(pool, wholes=3)), -draw(times_in(pool, wholes=3))])
    return (draw(stepfns_in(pool)), draw(stepfns_in(pool)), draw(st.sampled_from(["inf", "sup"])),
            s, e, draw(st.booleans()), draw(st.booleans()),
            draw(st.one_of(st.none(), st.integers(-20, 90).map(lambda n: F(n, 11)))))


def _judge(f, g, op, s, e, inc_s, inc_e, h):
    w = window(f, op, s, e, inc_s, inc_e)
    return w, _report([_le(w, g, "window"), _le(f.left_limit(), g, "left-limit")], h)


@settings(max_examples=250, deadline=None)
@given(kernel_cases())
@example((StepFunction(0, [F(1, 3), F(1)], [0, 0], [1, 0]), StepFunction.const(0),
          "sup", F(0), F(0), True, True, None))  # violated on (1/3, 1): inf 1/3 not attained
def test_kernel_in_ticks_matches_fractions(case):
    f, g, op, s, e, inc_s, inc_e, h = case
    k = timebase([*f.bps, *g.bps, s, e] + ([] if h is None else [h]))
    assume(k is not None)
    w, report = _judge(f, g, op, s, e, inc_s, inc_e, h)
    wt, rt = _judge(f._to_ticks(k), g._to_ticks(k), op, _to_ticks(s, k), _to_ticks(e, k),
                    inc_s, inc_e, _to_ticks(h, k))
    assert all(type(b) is int for b in wt.bps)
    assert wt._to_time(k) == w
    assert _in_time(rt, k) == report


def test_timebase_is_the_lcm_of_the_denominators_up_to_its_bound():
    assert timebase([]) is None and timebase([3, -5]) is None  # ints are ticks already
    assert timebase([F(3), 5]) == 1
    assert timebase([F(1, 2), 3, F(5, 3), F(7, 4)]) == 12
    assert timebase([F(1, M4423), F(1, 3)]) == 3 * M4423
    assert timebase([F(1, M9689)]) is None
    assert timebase([F(1, M4423), F(1, 2 ** 4253 - 1)]) is None  # each alone is below it


def test_above_the_bound_the_fractions_are_kept():
    u = StepFunction.from_toggles(0, [F(1, M9689), 1, F(5, 2)])
    x = u.shift(F(3, 2))
    model = sd.Dbridc(sd.BdcParams(F(1, 3), F(3, 2), F(1, 3), F(3, 2)))
    assert sd.check_membership(u, x, model) == _report(model.clauses(u, x))
    net = builtin("delay-buffer", model=sd.Fixed(F(1, 7)))
    w = simulate(net, {"u": u}, 4)
    assert w.signals["x"] == u.shift(F(1, 7)) and type(w.horizon) is Fraction


# ---------------------------------------------------------------------------
# No tick escapes
# ---------------------------------------------------------------------------

def _all_fractions(*fns):
    return all(type(t) is Fraction for f in fns for t in f.bps)


def test_no_tick_escapes_a_public_result():
    u = StepFunction.from_toggles(0, [F(1, 3), 2, F(9, 2), F(11, 2)])
    x = StepFunction.from_toggles(0, [F(4, 3), F(7, 3), F(13, 2)])
    p = sd.BdcParams(1, 2, 1, 2)
    for spec in ["sc", "fixed d=1", "bdc mr=1 dr=2 mf=1 df=2", "aic dr=1 df=1",
                 "dbridc mr=1 dr=2 mf=1 df=2", "sdbridc d=1"]:
        for h in (None, 7, F(90, 11)):
            v = sd.check_membership(u, x, sd.parse_model(spec), horizon=h).first_violation
            assert type(v.time) is Fraction, spec
    assert type(sd.check_constancy(u, x, 1, 2).first_violation.time) is Fraction
    for form in "abefg":
        assert type(dbridc_form_report(u, x, p, form).first_violation.time) is Fraction

    net = builtin("delay-buffer", model=sd.Fixed(1))
    w = simulate(net, {"u": u}, 6)
    assert type(w.horizon) is Fraction and _all_fractions(*w.signals.values())
    bad = sd.WaveformSet({"u": u, "x": x}, F(6))
    v = check_trace_conformance(net, {}, bad).first_violation
    assert (v.net, v.time) == ("x", F(7, 3)) and type(v.time) is Fraction
    ring = builtin("not-feedback")
    ring.event_budget = 3
    with pytest.raises(EventBudgetError) as err:
        simulate(ring, {}, 100)
    assert type(err.value.time) is Fraction

    free = StepFunction.from_toggles(1, [F(1, 2), 3])
    assert _all_fractions(sd.solve_fixed(u, 3), sd.solve_dbridc(u, p), sd.solve_sdbridc(u, 1),
                          *sd.bdc_bounds(u, p), sd.sample_bdc(u, p, free),
                          sd.sample_bridc(u, p, sd.RicParams(0, 2, 0, 2), free))
    assert _all_fractions(u.shift(2), u.truncate(3), u.truncate_before(1, 1),
                          StepFunction.const(1).truncate_before(0, 0), sd.chi(0, 1),
                          sd.window_inf(u, 3, 1), sd.window_sup_halfopen(u, 2),
                          window(u, "inf", 0, 1, include_end=False))


# ---------------------------------------------------------------------------
# Growth guards: the hot loops compare no Fractions
# ---------------------------------------------------------------------------

def _fraction_comparisons(monkeypatch, run) -> int:
    calls = 0
    richcmp = Fraction._richcmp

    def counted(self, other, op):
        nonlocal calls
        calls += 1
        return richcmp(self, other, op)
    monkeypatch.setattr(Fraction, "_richcmp", counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls


def _long_input(n):
    gaps = [F(1, 2), F(3, 2), F(1), F(5, 2), F(4)]
    ts, t = [], F(0)
    for i in range(n):
        t += gaps[i % len(gaps)]
        ts.append(t)
    return StepFunction.from_toggles(0, ts)


def test_a_dbridc_check_compares_no_more_fractions_on_longer_input(monkeypatch):
    model = sd.Dbridc(sd.BdcParams(1, 2, 1, 2))
    counts = []
    for n in (200, 2000):
        u = _long_input(n)
        x, bad = model.solve(u), u.shift(3)

        def run():
            assert sd.check_membership(u, x, model).ok
            assert not sd.check_membership(u, bad, model).ok
        counts.append(_fraction_comparisons(monkeypatch, run))
    assert counts[0] == counts[1] <= 8  # the consistency test and the signal checks


def test_a_ring_simulation_compares_no_more_fractions_on_longer_horizon(monkeypatch):
    ring = builtin("not-feedback", m1=sd.SdbridcPrime(F(1, 2)), m2=sd.SdbridcPrime(F(1, 2)))
    counts = [_fraction_comparisons(monkeypatch, lambda: simulate(ring, {}, h))
              for h in (400, 1600)]
    assert counts[0] == counts[1] <= 8
    assert len(simulate(ring, {}, 400).signals["x"].bps) > 100


def test_simulate_scales_each_net_once(monkeypatch):
    # ints are ticks already, so the self-check on the simulated ticks
    # scales nothing again; only the result nets go back to Fractions
    calls = 0
    with_bps = StepFunction._with_bps

    def counted(self, bps):
        nonlocal calls
        calls += 1
        return with_bps(self, bps)
    monkeypatch.setattr(StepFunction, "_with_bps", counted)
    w = simulate(builtin("not-feedback", m1=sd.SdbridcPrime(F(1, 2))), {}, 40)
    assert calls == len(w.signals) == 3
