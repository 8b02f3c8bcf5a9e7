"""Solvers, sampler, switch-window propagation and the grid oracle."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import conditions, solvers, stepfn
from sigdelay.solvers import (
    BudgetExceededError,
    GridSpec,
    SampleRetryError,
    alternating_witness,
    enumerate_grid_solutions,
    forced_switch_windows,
    sample_bdc,
    sample_bridc,
    solve_dbridc,
    solve_fixed,
    solve_sdbridc,
)
from sigdelay.stepfn import StepFunction, chi, window, window_inf, window_sup

from conftest import brute_check, counted_calls, counted_windows, rand_bdc_params, rand_signal
from reference_kernel import boolean_forced_cells, margin_witness, scaled_back_sample


# ---------------------------------------------------------------------------
# Deterministic solvers
# ---------------------------------------------------------------------------

def test_solve_fixed_examples(rng):
    assert solve_fixed(chi(0, None), 2) == chi(2, None)
    u = rand_signal(rng)
    assert solve_fixed(u, 0) == u
    a, b = F(3, 2), F(5, 4)
    assert solve_fixed(solve_fixed(u, a), b) == solve_fixed(u, a + b)
    with pytest.raises(ValueError):
        solve_fixed(u, -1)


def test_solve_fixed_passes_checker(rng):
    for _ in range(30):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 8), 2)
        assert sd.check_membership(u, solve_fixed(u, d), sd.Fixed(d)).ok


def test_bdc_bounds_examples():
    lo, hi = sd.bdc_bounds(chi(0, None), sd.BdcParams(1, 3, 1, 3))
    assert (lo, hi) == (chi(3, None), chi(2, None))
    for c in (0, 1):
        const = StepFunction.const(c)
        assert sd.bdc_bounds(const, sd.BdcParams(1, 3, 1, 3)) == (const, const)
    lo, hi = sd.bdc_bounds(chi(0, 1), sd.BdcParams(1, 2, 1, 2))
    assert (lo, hi) == (StepFunction.const(0), chi(1, 3))


def test_bdc_bounds_are_members(rng):
    for _ in range(60):
        p = rand_bdc_params(rng)
        u = rand_signal(rng)
        lo, hi = sd.bdc_bounds(u, p)
        assert lo <= hi
        assert sd.check_membership(u, lo, sd.Bdc(p)).ok
        assert sd.check_membership(u, hi, sd.Bdc(p)).ok


def test_sample_bdc_extremes(rng):
    for _ in range(30):
        p = rand_bdc_params(rng)
        u = rand_signal(rng)
        lo, hi = sd.bdc_bounds(u, p)
        assert sample_bdc(u, p, StepFunction.const(0)) == lo
        assert sample_bdc(u, p, StepFunction.const(1)) == hi


def test_sample_bdc_always_member(rng):
    for _ in range(100):
        p = rand_bdc_params(rng)
        u, free = rand_signal(rng), rand_signal(rng)
        x = sample_bdc(u, p, free)
        assert sd.check_membership(u, x, sd.Bdc(p)).ok


def test_solve_dbridc_examples():
    p = sd.BdcParams(1, 2, 1, 2)
    assert solve_dbridc(chi(0, None), p) == chi(2, None)
    assert solve_dbridc(chi(0, 1), p) == StepFunction.const(0)


def test_solve_dbridc_degenerates_to_shift(rng):
    for _ in range(30):
        d = F(rng.randrange(0, 8), 2)
        u = rand_signal(rng)
        assert solve_dbridc(u, sd.BdcParams(0, d, 0, d)) == u.shift(d)


def test_solve_dbridc_properties(rng):
    for _ in range(80):
        p = rand_bdc_params(rng)
        u = rand_signal(rng)
        x = solve_dbridc(u, p)
        assert sd.check_membership(u, x, sd.Dbridc(p)).ok
        assert sd.check_membership(u, x, sd.Bdc(p)).ok
        aic = sd.AicParams(p.d_f - p.d_r + p.m_r, p.d_r - p.d_f + p.m_f)
        assert sd.check_membership(None, x, sd.Aic(aic)).ok
        assert sd.check_sc(u, x).ok
        assert x.leading == u.leading


def test_solve_sdbridc_examples():
    assert solve_sdbridc(chi(0, None), 2) == chi(2, None)
    for c in (0, 1):
        const = StepFunction.const(c)
        assert solve_sdbridc(const, 2) == const
    with pytest.raises(ValueError):
        solve_sdbridc(chi(0, None), 0)


def test_solve_sdbridc_passes_checker(rng):
    for _ in range(60):
        u = rand_signal(rng)
        d = F(rng.randrange(1, 8), 2)
        x = solve_sdbridc(u, d)
        assert sd.check_membership(u, x, sd.SdbridcPrime(d)).ok


def test_solve_sdbridc_agrees_with_dbridc_off_boundary(rng):
    # identical away from switch pairs exactly d apart: toggles on the
    # quarter grid with d = 1/3 can never align with a window endpoint
    d = F(1, 3)
    for _ in range(80):
        u = rand_signal(rng, denom=4, span=16)
        assert solve_sdbridc(u, d) == solve_dbridc(u, sd.BdcParams(d, d, d, d))


def test_solve_sdbridc_boundary_divergence():
    # a pulse exactly d long: the closed window filters it, the open
    # lookback window transmits it
    u = chi(0, 2)
    assert solve_dbridc(u, sd.BdcParams(2, 2, 2, 2)) == StepFunction.const(0)
    assert solve_sdbridc(u, 2) == chi(2, 4)
    assert sd.check_membership(u, chi(2, 4), sd.SdbridcPrime(2)).ok
    assert sd.check_membership(u, StepFunction.const(0),
                               sd.Dbridc(sd.BdcParams(2, 2, 2, 2))).ok


def test_window_delays_have_absolute_inertia(rng):
    # the windowed AND cancels short output pulses on the falling side,
    # the windowed OR on the rising side
    for _ in range(60):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        x_and = window_inf(u, d, m)
        x_or = window_sup(u, d, m)
        assert x_and.falls() <= window(~x_and, "inf", 0, m)
        assert x_or.rises() <= window(x_or, "inf", 0, m)


def test_members_respect_onesided_limit_bounds(rng):
    for _ in range(60):
        p = rand_bdc_params(rng)
        u, free = rand_signal(rng), rand_signal(rng)
        x = sample_bdc(u, p, free)
        lo, hi = sd.bdc_bounds(u, p)
        assert lo.left_limit() <= x.left_limit()
        assert x.left_limit() <= hi.left_limit()


# ---------------------------------------------------------------------------
# Switch-window propagation
# ---------------------------------------------------------------------------

def test_forced_switch_windows_single_step():
    u = chi(0, None)
    p = sd.BdcParams(1, 2, 1, 2)
    wins = forced_switch_windows(u, sd.Bdc(p).sandwich(u))
    assert len(wins) == 1
    w = wins[0]
    assert (w.kind, w.lo, w.hi) == ("rise", F(1), F(2))


def test_alternating_witness_matches_enumeration(rng):
    grid = GridSpec(F(1, 2), 8, 8)
    for _ in range(40):
        p = rand_bdc_params(rng)
        dr = F(rng.randrange(0, 3), 2)
        df = F(rng.randrange(0, 3), 2)
        a = sd.AicParams(dr, df)
        u = rand_signal(rng, n_max=3, span=6)
        model = sd.Baidc(p, a) if sd.cc_baidc(p, a) else sd.Bdc(p)
        witness = alternating_witness(u, model)
        found = enumerate_grid_solutions(u, model, grid)
        if witness is not None:
            assert sd.check_membership(u, witness, model).ok
        if found:
            assert witness is not None
        # on-grid solutions certainly exist when the witness lies on it
        if witness is not None and all(b * 2 % 1 == 0 for b in witness.bps) \
                and all(b <= 8 for b in witness.bps):
            assert found


def _rand_inconsistent_bdc_params(rng):
    while True:
        m_r, m_f = F(rng.randrange(0, 3), 2), F(rng.randrange(0, 3), 2)
        p = sd.BdcParams(m_r, m_r + F(rng.randrange(0, 4), 2),
                         m_f, m_f + F(rng.randrange(0, 4), 2))
        if not sd.cc_bdc(p):
            return p


def _clause_member(u, x, model):
    # membership clause by clause: check_membership refuses inconsistent models
    return not any(vset for vset, _ in model.clauses(u, x))


def test_alternating_witness_decides_inconsistent_parameters(rng):
    """Consistency quantifies over all inputs; the witness decides one input
    even where CC_BDC fails.  A witness is a member; where there is none, a
    search over every grid signal with at most three toggles finds none."""
    points = [F(k, 2) for k in range(17)]  # 0 .. 8
    grid = [StepFunction.from_toggles(x0, combo) for x0 in (0, 1) for k in range(4)
            for combo in itertools.combinations(points, k)]
    outcomes = []
    for _ in range(40):
        p = _rand_inconsistent_bdc_params(rng)
        a = sd.AicParams(F(rng.randrange(0, 3), 2), F(rng.randrange(0, 3), 2))
        r = sd.RicParams(min(p.m_r, F(rng.randrange(0, 3), 2)), p.d_r,
                         min(p.m_f, F(rng.randrange(0, 3), 2)), p.d_f)
        model = rng.choice([sd.Bdc(p), sd.Baidc(p, a), sd.Bridc(p, r)])
        u = rand_signal(rng, n_max=3, span=6)
        witness = alternating_witness(u, model)
        outcomes.append(witness is not None)
        if witness is not None:
            assert _clause_member(u, witness, model)
            assert brute_check(u, witness, model)
            continue
        lower, upper = model.sandwich(u)  # a member lies between its bounds
        assert not any(_clause_member(u, x, model) for x in grid
                       if lower <= x and x <= upper), (u, model)
    assert True in outcomes and False in outcomes


def _rand_bounded_model(rng, denom):
    """Bdc, Baidc, Bridc or Dbridc on times over ``denom``, consistent or not."""
    def t(top):
        return F(rng.randrange(0, top * denom + 1), denom)
    m_r, m_f = t(2), t(2)
    p = sd.BdcParams(m_r, m_r + t(3), m_f, m_f + t(3))
    kind = rng.randrange(4)
    if kind == 1:
        return sd.Baidc(p, sd.AicParams(t(2), t(2)))
    if kind == 2:
        mu_r, mu_f = t(2), t(2)
        r = sd.RicParams(min(p.m_r, mu_r), p.d_r, min(p.m_f, mu_f), p.d_f) \
            if rng.randrange(2) else sd.RicParams(mu_r, mu_r + t(2), mu_f, mu_f + t(2))
        return sd.Bridc(p, r)
    return sd.Dbridc(p) if kind == 3 else sd.Bdc(p)


def test_alternating_witness_against_the_margin_search(monkeypatch):
    """The one-pass witness decides as the margin search does, its members
    pass both the clauses and the probes, and it judges at most once."""
    judged = [counted_calls(monkeypatch, conditions._Model, "_judge"),
              counted_calls(monkeypatch, conditions.Dbridc, "_judge")]
    rng = random.Random(20261018)
    found = consistent = 0
    for _ in range(2000):
        denom = rng.randint(1, 4)
        model = _rand_bounded_model(rng, denom)
        u = rand_signal(rng, n_max=4, denom=denom, span=6 * denom)
        before = sum(map(len, judged))
        witness = alternating_witness(u, model)
        assert sum(map(len, judged)) - before <= 1
        assert (witness is None) == (margin_witness(u, model) is None), (u, model)
        if witness is not None:
            assert _clause_member(u, witness, model), (u, model, witness)
            assert brute_check(u, witness, model), (u, model, witness)
            found += 1
        consistent += model.consistency()[1]
    assert 0 < found < 2000 and 0 < consistent < 2000


def test_alternating_witness_realises_an_infinitesimal_chain():
    # the hold gaps push each bound past its window's lower end, so the chain
    # of earliest times is 2, 11/2 + eps, 17/2 + 2 eps
    p, a = sd.BdcParams(1, 3, 1, 3), sd.AicParams(F(7, 2), 3)
    u = StepFunction.from_toggles(0, [0, 3, 6])
    model = sd.Baidc(p, a)
    windows = forced_switch_windows(u, sd.Bdc(p).sandwich(u))
    assert [(w.lo, w.hi) for w in windows] == [(2, 3), (5, 6), (8, 9)]
    x = alternating_witness(u, model)
    chain = [F(2), F(11, 2), F(17, 2)]
    delta = F(1, 2)  # the least distance between 0, 2, 3, 5, 11/2, 6, 8, 17/2 and 9
    assert len(x.bps) == 3 and all(v <= t < v + delta for v, t in zip(chain, x.bps))
    assert x.bps[0] == chain[0] and 0 < x.bps[1] - chain[1] < x.bps[2] - chain[2]
    assert _clause_member(u, x, model) and brute_check(u, x, model)


@st.composite
def _consistent_bounded_case(draw):
    """(u, model): a consistent Bdc, Baidc, Bridc or Dbridc and an input,
    every time on the half-unit grid or each over its own denominator 1, 3
    or 7."""
    halves = draw(st.booleans())

    def t(top):
        denom = 2 if halves else draw(st.sampled_from((1, 3, 7)))
        return F(draw(st.integers(0, top * denom)), denom)
    m_r, m_f = t(2), t(2)
    p = sd.BdcParams(m_r, m_r + t(3), m_f, m_f + t(3))
    kind = draw(st.sampled_from(("bdc", "baidc", "bridc", "dbridc")))
    if kind == "baidc":
        model = sd.Baidc(p, sd.AicParams(t(2), t(2)))
    elif kind == "bridc":  # with delta = d, CC_BRIDC's clause a is CC_BDC
        model = sd.Bridc(p, sd.RicParams(min(m_r, t(2)), p.d_r, min(m_f, t(2)), p.d_f))
    else:
        model = sd.Dbridc(p) if kind == "dbridc" else sd.Bdc(p)
    assume(model.consistency()[1])
    toggles = sorted({t(6) for _ in range(draw(st.integers(0, 5)))})
    return StepFunction.from_toggles(draw(st.integers(0, 1)), toggles), model


@settings(max_examples=400, deadline=None)
@given(_consistent_bounded_case())
@example((StepFunction.from_toggles(0, [2, F(5, 2)]),  # its witness: 0 @ 9/2, 11/2 + 1/6
          sd.Baidc(sd.BdcParams(0, F(5, 2), 2, F(9, 2)), sd.AicParams(1, 0))))
def test_witness_in_ticks_is_the_witness_on_the_fractions(case):
    # the sampler's route: the prepared side in ticks, the member scaled back
    u, model = case
    prepared = conditions._prepare(u, model, None, ())
    x = solvers._witness(prepared.u, prepared.model, prepared.side)
    assert (None if x is None else x._to_time(prepared.k)) == alternating_witness(u, model)


def _intervals(*ivs):
    return stepfn.IntervalSet([stepfn.Interval(*iv) for iv in ivs])


def test_earliest_in_reads_an_open_lower_end_as_unattained():
    # the checker's permits start closed, so only hand-built sets reach this
    opened = _intervals((2, False, 5, False), (7, True, 9, True))
    assert solvers._earliest_in(opened, (F(1), 0)) == (2, 1)
    assert solvers._earliest_in(opened, (F(2), 0)) == (2, 1)
    closed = _intervals((2, True, 5, False))
    assert solvers._earliest_in(closed, (F(1), 0)) == (2, 0)
    assert solvers._earliest_in(closed, (F(3), 2)) == (3, 2)


def test_earliest_in_keeps_the_infinitesimals_of_a_bound_at_an_open_lower_end():
    opened = _intervals((2, False, 5, False), (7, True, 9, True))
    assert solvers._earliest_in(opened, (F(2), 3)) == (2, 3)
    assert solvers._earliest_in(_intervals((2, True, 5, False)), (F(2), 3)) == (2, 3)
    # past an open upper end the next component gives its own closed start
    assert solvers._earliest_in(opened, (F(5), 0)) == (7, 0)
    assert solvers._earliest_in(opened, (F(9), 1)) is None


def test_alternating_witness_rejects_what_the_checker_rejects():
    glitch = StepFunction(0, [1], [1], [0])  # a point: not right-continuous
    model = sd.Bdc(sd.BdcParams(1, 2, 1, 2))
    with pytest.raises(ValueError, match="not a signal"):
        sd.check_membership(glitch, StepFunction.const(0), model)
    with pytest.raises(ValueError, match="not a signal"):
        alternating_witness(glitch, model)


def test_alternating_witness_of_dbridc_is_its_solution(rng):
    for _ in range(40):
        p = rand_bdc_params(rng)
        u = rand_signal(rng, n_max=4, span=8)
        assert alternating_witness(u, sd.Dbridc(p)) == solve_dbridc(u, p)


def test_sample_bridc_returns_verified_member(rng):
    produced = 0
    for _ in range(60):
        p = rand_bdc_params(rng)
        mu_r = min(p.m_r, F(rng.randrange(0, 3), 2))
        mu_f = min(p.m_f, F(rng.randrange(0, 3), 2))
        r = sd.RicParams(mu_r, p.d_r, mu_f, p.d_f)
        ok, _ = sd.cc_bridc(p, r)
        if not ok:
            continue
        u, free = rand_signal(rng), rand_signal(rng)
        x = sample_bridc(u, p, r, free)
        assert sd.check_membership(u, x, sd.Bridc(p, r)).ok
        produced += 1
    assert produced > 10


def test_sample_bridc_shared_params_is_solver(rng):
    for _ in range(20):
        p = rand_bdc_params(rng)
        r = sd.RicParams(p.m_r, p.d_r, p.m_f, p.d_f)
        u = rand_signal(rng)
        x = sample_bridc(u, p, r, StepFunction.const(0))
        assert x == solve_dbridc(u, p)


# the sweep and the sample of the free signal chi(1, None) both fail here
_HARD_P = sd.BdcParams(F(3, 2), 2, F(3, 2), 3)
_HARD_R = sd.RicParams(F(3, 2), F(3, 2), F(3, 2), F(5, 2))
_HARD_U = StepFunction.from_toggles(0, [F(3, 2), F(5, 2), F(7, 2), F(11, 2)])


def test_sample_bridc_builds_the_input_side_once(monkeypatch):
    # both candidates fail until the switch-window witness, the third, which
    # reads the prepared side, builds its permit windows from the side's
    # specs, and judges its member there
    sides = counted_calls(monkeypatch, conditions._Model, "_input_side")
    misses = counted_calls(monkeypatch, conditions, "_in_ticks")
    checks = counted_calls(monkeypatch, solvers, "check_membership")
    windows = counted_windows(monkeypatch)
    witness, in_witness = solvers._witness, []

    def counted_witness(u, model, side):
        before = len(windows)
        found = witness(u, model, side)
        in_witness.append(len(windows) - before)
        return found
    monkeypatch.setattr(solvers, "_witness", counted_witness)
    x = sample_bridc(_HARD_U, _HARD_P, _HARD_R, chi(1, None))
    assert sd.format_signal_literal("x", x) == "x: 0 @ 5, 8"
    assert len(checks) == 2 and len(misses) == 1
    assert len(sides) == 1  # the prepared one, in ticks
    assert in_witness == [2]  # the permit windows: only the witness builds them
    assert len(windows) - in_witness[0] == 2  # the prepared side's sandwich, built once
    assert brute_check(_HARD_U, x, sd.Bridc(_HARD_P, _HARD_R))


@pytest.mark.parametrize("retries, witness, why", [
    (2, None, "the attempt budget ran out before the switch-window witness was tried"),
    (8, lambda u, model, side: None, "the switch-window witness found no member")])
def test_sample_bridc_exhaustion_says_why(monkeypatch, retries, witness, why):
    if witness is not None:
        monkeypatch.setattr(solvers, "_witness", witness)
    witnesses = counted_calls(monkeypatch, solvers, "_witness")
    with pytest.raises(SampleRetryError) as info:
        sample_bridc(_HARD_U, _HARD_P, _HARD_R, chi(1, None), retries=retries)
    assert str(info.value).endswith(why)
    assert len(witnesses) == (retries > 2)


# every model with candidates: bdcprime has none
SAMPLED = sorted(set(conditions.MODELS) - {"bdcprime"})
MEMORY_OF = {"d": "m", "dr": "mr", "df": "mf", "deltar": "mur", "deltaf": "muf"}
on_sevenths = st.builds(F, st.integers(0, 16), st.sampled_from((1, 2, 3, 7)))
signals_on_sevenths = st.builds(lambda bit, ts: StepFunction.from_toggles(bit, sorted(ts)),
                                st.integers(0, 1), st.sets(on_sevenths, max_size=6))
M9689 = 2 ** 9689 - 1  # a prime denominator of 9,689 bits: above the timebase bound


@st.composite
def sampled_models(draw):
    """A consistent model that can sample, its times on denominators 1, 2,
    3 and 7, each memory at most its delay.  The bounded models with holds
    or permits, whose candidates may fail and leave the witness to try,
    are drawn about half of the time.  Bounds keep CC_BDC (each memory at
    least the excess of its delay over the other), and a bridc's holds
    are often its bounds' delays, where CC_BRIDC's clause a is CC_BDC."""
    kw = draw(st.one_of(st.sampled_from(("baidc", "bridc")), st.sampled_from(SAMPLED)))
    vals = {key: draw(on_sevenths) for key in conditions.MODELS[kw].keys}
    for d, m in MEMORY_OF.items():
        if m in vals:
            vals[m], vals[d] = sorted((vals[m], vals[d]))
    if "mr" in vals:
        vals["mr"] = max(vals["mr"], vals["dr"] - vals["df"])
        vals["mf"] = max(vals["mf"], vals["df"] - vals["dr"])
    if kw == "bridc" and draw(st.booleans()):
        vals.update(mur=min(vals["mur"], vals["mr"]), deltar=vals["dr"],
                    muf=min(vals["muf"], vals["mf"]), deltaf=vals["df"])
    try:
        model = sd.parse_model(" ".join([kw, *(f"{k}={v}" for k, v in vals.items())]))
    except ValueError:  # sdbridc needs a positive delay
        assume(False)
    cc = model.consistency()
    assume(cc is None or cc[1])
    return model


def _sampled(sample, u, model, free, retries):
    try:
        return "member", sample(u, model, free, retries)
    except SampleRetryError as exc:
        return "exhausted", str(exc)


@settings(max_examples=300, deadline=None)
@given(sampled_models(), signals_on_sevenths, signals_on_sevenths, st.integers(0, 3))
@example(sd.Bridc(_HARD_P, _HARD_R), _HARD_U, chi(1, None), 3)  # the witness's member
@example(sd.parse_model("bdc mr=1 dr=2 mf=1 df=2"),  # above the bound: k is None
         StepFunction.from_toggles(0, [F(1, M9689), 3]), chi(F(1, 2), None), 1)
def test_sample_in_ticks_matches_candidates_scaled_back(model, u, free, retries):
    # the candidates are judged in the prepared ticks; the oracle scales
    # each back and judges it afresh
    assert _sampled(solvers._sample, u, model, free, retries) \
        == _sampled(scaled_back_sample, u, model, free, retries)


def _rand_bridc(rng, denom, p):
    mu_r, mu_f = (F(rng.randrange(0, 3), denom) for _ in range(2))
    if rng.random() < 0.5:
        r = sd.RicParams(mu_r, mu_r + F(rng.randrange(0, 5), denom),
                         mu_f, mu_f + F(rng.randrange(0, 5), denom))
    else:
        r = sd.RicParams(min(p.m_r, mu_r), p.d_r, min(p.m_f, mu_f), p.d_f)
    return sd.Bridc(p, r)


def _rand_baidc(rng, denom, p):
    return sd.Baidc(p, sd.AicParams(*(F(rng.randrange(0, 5), denom) for _ in range(2))))


def test_sample_bridc_never_exhausts_on_consistent_models(monkeypatch):
    """Nor does the same route on a consistent baidc, the other bounded
    model whose sandwich sample may break a clause (its holds)."""
    witnesses = counted_calls(monkeypatch, solvers, "_witness")
    rng = random.Random(20261018)
    for draw in (_rand_bridc, _rand_baidc):
        drawn = witnessed = 0
        while drawn < 300:
            denom = rng.choice((1, 2, 3))
            model = draw(rng, denom, rand_bdc_params(rng, denom=denom))
            if not model.consistency()[1]:
                continue
            drawn += 1
            u, free = rand_signal(rng, denom=denom), rand_signal(rng, denom=denom)
            before = len(witnesses)
            # raises SampleRetryError on exhaustion
            x = solvers._sample(u, model, free, 8) if isinstance(model, sd.Baidc) \
                else sample_bridc(u, model.p, model.r, free)
            witnessed += len(witnesses) > before
            assert sd.check_membership(u, x, model).ok
            # the sampler lets errors through: no candidate may raise on a consistent model
            prepared = conditions._prepare(u, model, None, free.bps)
            list(model._candidates(prepared, free._to_ticks(prepared.k)))
            alternating_witness(u, model)
        assert witnessed  # some draws get past the other candidates


def test_sample_bridc_rejects_inconsistent():
    with pytest.raises(sd.InconsistentModelError):
        sample_bridc(chi(0, None), sd.BdcParams(1, 2, 1, 2),
                     sd.RicParams(1, 5, 1, 5), StepFunction.const(0))


def test_sample_bridc_exhaustion_is_explicit():
    p = sd.BdcParams(1, 2, 1, 2)
    r = sd.RicParams(1, 2, 1, 2)
    with pytest.raises(SampleRetryError):
        sample_bridc(chi(0, None), p, r, StepFunction.const(0), retries=0)


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

def test_enumerate_fixed_is_singleton(rng):
    grid = GridSpec(F(1, 2), 6, 6)
    for _ in range(20):
        u = rand_signal(rng, n_max=3, span=6)
        d = F(rng.randrange(0, 5), 2)
        sols = enumerate_grid_solutions(u, sd.Fixed(d), grid)
        assert sols == [u.shift(d).truncate(6)] \
            or (u.shift(d).bps and u.shift(d).bps[-1] > 6 and sols == [])


def test_enumerate_dbridc_unique(rng):
    grid = GridSpec(F(1, 2), 6, 6)
    for _ in range(20):
        u = rand_signal(rng, n_max=3, span=6)
        p = rand_bdc_params(rng)
        expected = solve_dbridc(u, p).truncate(6)
        sols = enumerate_grid_solutions(u, sd.Dbridc(p), grid)
        if all(b * 2 % 1 == 0 for b in expected.bps):
            assert sols == [expected]
        else:
            assert sols == []


def test_enumerate_bdc_brackets():
    u = chi(0, None)
    p = sd.BdcParams(1, 2, 1, 2)
    sols = enumerate_grid_solutions(u, sd.Bdc(p), GridSpec(F(1, 2), 6, 6))
    lo, hi = chi(2, None), chi(1, None)
    assert lo in sols and hi in sols
    for x in sols:
        assert lo <= x and x <= hi


def test_enumerate_budget_is_explicit():
    u = chi(0, None)
    grid = GridSpec(F(1, 2), 6, 8, max_candidates=3)
    with pytest.raises(BudgetExceededError):
        enumerate_grid_solutions(u, sd.Ric(sd.RicParams(0, 0, 0, 0)), grid)


def test_enumerate_requires_on_grid_input():
    with pytest.raises(ValueError):
        enumerate_grid_solutions(chi(F(1, 3), None), sd.Fixed(1),
                                 GridSpec(F(1, 2), 6, 6))


_HUGE = 2 ** 9689 - 1  # a Mersenne prime: the timebase is above its bound


@pytest.mark.parametrize("toggles, on_grid", [
    ([F(1, 2), 2, 4], True),            # the last at the horizon
    ([F(1, 2), F(13, 3)], True),        # off the grid past the horizon
    ([F(7, 2), F(11, 3)], False),
    ([F(1, 4)], False),                 # on a finer grid, not this one
    ([F(3, 2), F(1, _HUGE) + 5], True),  # the Fractions kept, past the horizon
    ([F(1, _HUGE)], False),
])
def test_grid_membership_of_the_input(toggles, on_grid):
    # judged on the input in ticks, as the definition on the Fractions
    u, grid = StepFunction.from_toggles(0, toggles), GridSpec(F(1, 2), 4, 1)
    points = set(grid.points())
    assert on_grid == all(b in points for b in u.bps if b <= grid.horizon)
    for model in (sd.Fixed(1), sd.parse_model("aic dr=1 df=1")):
        if on_grid:
            enumerate_grid_solutions(u, model, grid)
        else:
            with pytest.raises(ValueError, match="^input breakpoints must lie on the grid$"):
                enumerate_grid_solutions(u, model, grid)


def test_grid_enumeration_names_an_input_that_is_no_signal():
    # aic reads no input, so only the grid's own check sees it
    u = StepFunction.from_toggles(0, [F(-1, 2), 1])
    with pytest.raises(ValueError) as exc:
        enumerate_grid_solutions(u, sd.parse_model("aic dr=1 df=1"), GridSpec(F(1, 2), 4, 1))
    assert str(exc.value) == f"not a signal (right-continuous with switches >= 0): {u!r}"
    assert "-1/2" in str(exc.value)


_SAMPLE_SPEC = "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2"


def test_set_up_judges_consistency_and_permits_in_ticks(monkeypatch):
    # the sampler's leading require_consistent judges CC_BRIDC on the
    # Fractions, its set-up in ticks; grid enumeration judges it, and looks
    # each grid point up in its permit table, in ticks only
    model = sd.parse_model(_SAMPLE_SPEC)
    ric, grid = sd.Ric(model.r), GridSpec(F(1, 2), 4, 3)
    u = StepFunction.from_toggles(0, [F(1, 2), 2, F(5, 2)])
    judged = counted_calls(monkeypatch, conditions, "cc_bridc")
    times = counted_calls(monkeypatch, stepfn, "as_time")
    assert sample_bridc(u, model.p, model.r, chi(1, None))
    assert [type(p.d_r) for p, _ in judged] == [F, int]
    for m in (model, ric):
        del judged[:], times[:]
        assert enumerate_grid_solutions(u, m, grid)
        assert [type(p.d_r) for p, _ in judged] == ([int] if m is model else [])
        assert times == []


@pytest.mark.parametrize("model, max_toggles", [(sd.Bdc(sd.BdcParams(1, 2, 1, 2)), (2, 4, 6)),
                                                (sd.Ric(sd.RicParams(0, 1, F(1, 2), 1)), (1, 2, 3))])
def test_enumeration_builds_the_input_side_once(monkeypatch, model, max_toggles):
    # more candidates, the same windows: the pruning and the checks read
    # one input side in ticks, built once per enumeration; bdc's side holds
    # its sandwich's two windows, and ric's none, as its permits probe u
    built = {"bdc": 2, "ric": 0}[model.keyword]
    sides = counted_calls(monkeypatch, conditions._Model, "_input_side")
    windows = counted_windows(monkeypatch)
    checks = counted_calls(monkeypatch, solvers, "check_membership")
    u = StepFunction.from_toggles(0, [F(1, 2), 2])
    seen = []
    for toggles in max_toggles:
        before = len(sides), len(windows), len(checks)
        enumerate_grid_solutions(u, model, GridSpec(F(1, 2), 4, toggles))
        seen.append((len(sides) - before[0], len(windows) - before[1], len(checks) - before[2]))
    assert [s for s, _, _ in seen] == [1, 1, 1]
    assert [w for _, w, _ in seen] == [built] * 3
    assert seen[0][2] < seen[1][2] < seen[2][2]


_NEEDS_INPUT = {"sc": "sc", "fixed": "fixed d=1", "bdc": "bdc mr=1 dr=2 mf=1 df=2",
                "bdcprime": "bdcprime dr=1 df=1", "wand": "wand m=1 d=2", "wor": "wor m=1 d=2",
                "ric": "ric mur=0 deltar=1 muf=0 deltaf=1",
                "ricprime": "ricprime mur=0 deltar=1 muf=0 deltaf=1",
                "baidc": "baidc mr=1 dr=2 mf=1 df=2 deltar=1 deltaf=1",
                "bridc": "bridc mr=1 dr=2 mf=1 df=2 mur=0 deltar=1 muf=0 deltaf=1",
                "dbridc": "dbridc mr=1 dr=2 mf=1 df=2", "sdbridc": "sdbridc d=1"}


@pytest.mark.parametrize("keyword", sorted(k for k, cls in conditions.MODELS.items()
                                           if cls.needs_input))
def test_enumeration_without_input_raises_as_the_checker(keyword):
    model = sd.parse_model(_NEEDS_INPUT[keyword])
    with pytest.raises(ValueError) as checked:
        sd.check_membership(None, StepFunction.const(0), model)
    with pytest.raises(ValueError) as enumerated:
        enumerate_grid_solutions(None, model, GridSpec(F(1, 2), 2, 2))
    assert type(enumerated.value) is ValueError
    assert str(enumerated.value) == str(checked.value) \
        == f"model {sd.format_model(model)!r} needs an input signal"


def test_enumeration_rejects_inconsistent_parameters_on_every_input():
    # a malformed model never reads as "no trace", even where the pruning
    # alone would leave no candidate to check
    rng = random.Random(20261018)
    grid = GridSpec(F(1, 2), 4, 3)
    for _ in range(100):
        p = _rand_inconsistent_bdc_params(rng)
        u = rand_signal(rng, n_max=3, span=8)
        with pytest.raises(sd.InconsistentModelError):
            enumerate_grid_solutions(u, sd.Bdc(p), grid)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(F(1, 2), F(13, 4), 4)  # step does not divide horizon
    with pytest.raises(ValueError):
        GridSpec(F(0), 4, 4)
    with pytest.raises(ValueError):
        GridSpec(F(1, 2), 4, -1)
    assert GridSpec(F(1, 2), 3, 4).points()[-1] == F(3)


def _grid_family(grid):
    import itertools
    out = []
    for x0 in (0, 1):
        for k in range(grid.max_toggles + 1):
            for combo in itertools.combinations(grid.points(), k):
                out.append(StepFunction.from_toggles(x0, combo))
    return out


def test_delay_self_loop_case_analysis():
    """A delay element fed back on itself (u = x), case by case.

    Pure positive delays, the open-lookback variant, the half-open
    sandwich and bounded delays with both slacks positive admit only the
    constant solutions; a zero delay admits everything; a bounded delay
    whose falling slack is zero admits exactly the family with
    x(t - d_r) <= x(t).
    """
    grid = GridSpec(F(1, 2), 3, 3)
    family = _grid_family(grid)

    def self_members(model):
        return {x for x in family if sd.check_membership(x, x, model).ok}

    consts = {StepFunction.const(0), StepFunction.const(1)}
    for model in (sd.Fixed(1), sd.SdbridcPrime(1), sd.BdcPrime(1, 1),
                  sd.Bdc(sd.BdcParams(F(1, 2), 1, F(1, 2), 1)),
                  sd.Dbridc(sd.BdcParams(F(1, 2), 1, F(1, 2), 1))):
        assert self_members(model) == consts, model
    assert self_members(sd.Fixed(0)) == set(family)
    got = self_members(sd.Bdc(sd.BdcParams(0, 1, 1, 1)))
    assert got == {x for x in family if x.shift(1) <= x}
    assert StepFunction.from_toggles(0, [F(1, 2)]) in got  # a genuine rise


def test_composition_gap_with_degenerate_second_stage():
    """Serial connection: parameter sums always cover the composition, but
    the reverse inclusion can fail when the second stage has a zero
    memory.

    Here the second stage falls rigidly one unit after its input falls,
    so an output pulse ending at 2 needs the intermediate to fall at 1,
    where the first stage's lower bound pins it high.  The summed
    parameters allow that pulse regardless.
    """
    u = chi(0, None)
    p = sd.BdcParams(F(1, 2), 1, F(1, 2), F(1, 2))
    q = sd.BdcParams(1, 2, 0, 1)
    combined = sd.compose_bdc(p, q)
    y = chi(1, 2) | chi(F(5, 2), None)
    assert sd.check_membership(u, y, sd.Bdc(combined)).ok
    # exhaustively: no intermediate on a fine grid threads both stages
    grid = GridSpec(F(1, 8), 4, 10, max_candidates=1_000_000)
    mids = enumerate_grid_solutions(u, sd.Bdc(p), grid)
    assert mids
    assert not any(sd.check_membership(x, y, sd.Bdc(q)).ok for x in mids)
    # and analytically: y <= upper_q(x) forces x = 1 on [0, 1), the first
    # stage forces x(1) = 1, and then lower_q(x) contradicts y(2) = 0
    for x in mids:
        upper_ok = y <= window(x, "sup", -1, -1)
        lower_ok = window(x, "inf", -2, -1) <= y
        assert not (upper_ok and lower_ok)
    # the forward inclusion always holds
    for free in (StepFunction.const(0), StepFunction.const(1), chi(1, 3)):
        x = sample_bdc(u, p, free)
        for free2 in (StepFunction.const(0), StepFunction.const(1)):
            z = sample_bdc(x, q, free2)
            assert sd.check_membership(u, z, sd.Bdc(combined)).ok


# one consistent spec per registered model, for the unpruned reference
_ENUM_SPECS = {
    "sc": "sc",
    "fixed": "fixed d=0",
    "bdc": "bdc mr=1 dr=2 mf=1 df=2",
    "bdcprime": "bdcprime dr=1 df=2",
    "wand": "wand m=1 d=2",
    "wor": "wor m=0 d=1",
    "aic": "aic dr=1 df=2",
    "aicprime": "aicprime dr=1 df=1",
    "ric": "ric mur=0 deltar=1 muf=1 deltaf=2",
    "ricprime": "ricprime mur=0 deltar=1 muf=0 deltaf=2",
    "baidc": "baidc mr=1 dr=2 mf=1 df=2 deltar=1 deltaf=1",
    "bridc": "bridc mr=2 dr=2 mf=2 df=2 mur=1 deltar=1 muf=1 deltaf=1",
    "dbridc": "dbridc mr=1 dr=2 mf=1 df=2",
    "sdbridc": "sdbridc d=1",
}


def test_enumerate_against_unpruned_reference(rng):
    # tiny instances: compare with a raw generate-and-test sweep
    grid = GridSpec(F(1), 3, 3)
    cases = []
    for _ in range(12):
        u = rand_signal(rng, n_max=2, denom=1, span=3)
        cases.append((u, sd.Bdc(rand_bdc_params(rng, denom=1, top=3))))
    assert set(_ENUM_SPECS) == set(conditions.MODELS)
    inputs = [StepFunction.from_toggles(u0, ts) for u0 in (0, 1)
              for k in range(3) for ts in itertools.combinations((0, 1, 2), k)]
    for spec in _ENUM_SPECS.values():
        model = sd.parse_model(spec)
        model.require_consistent()
        cases += [(u, model) for u in inputs]
    family = _grid_family(grid)
    for u, model in cases:
        got = enumerate_grid_solutions(u, model, grid)
        raw = {x for x in family if sd.check_membership(u, x, model).ok}
        assert set(got) == raw, (sd.format_model(model), u)
        assert got == sorted(got, key=lambda s: (s.leading, s.bps))


# absolute inertia with asymmetric gaps: on a grid point, between two, and 0
_HOLD_SPECS = ("aic dr=1 df=2", "aicprime dr=2 df=1", "aic dr=0 df=1/2",
               "baidc mr=1 dr=2 mf=1 df=2 deltar=1/2 deltaf=3/2")


@pytest.mark.parametrize("step", [F(1, 2), F(1, 3)])
@pytest.mark.parametrize("spec", _HOLD_SPECS)
def test_enumerate_hold_gaps_against_unpruned_reference(spec, step):
    # the hold-gap pruning reads delta_r after a rise and delta_f after a
    # fall, strictly past a closed window and at the end of a half-open one
    grid = GridSpec(step, 3, 3)
    model = sd.parse_model(spec)
    model.require_consistent()
    inputs = [StepFunction.from_toggles(0, [1]), StepFunction.from_toggles(1, [0, 2]),
              StepFunction.from_toggles(0, [0, 1])]
    if not model.needs_input:
        inputs.append(None)
    family = _grid_family(grid)
    for u in inputs:
        got = enumerate_grid_solutions(u, model, grid)
        raw = {x for x in family if sd.check_membership(u, x, model).ok}
        assert set(got) == raw, (spec, step, u)
        assert got == sorted(got, key=lambda s: (s.leading, s.bps))


def test_enumerate_checks_only_members_of_absolute_inertia(monkeypatch):
    # every candidate the hold gaps leave is a member: 118 checks, not 352
    checks = counted_calls(monkeypatch, solvers, "check_membership")
    sols = enumerate_grid_solutions(None, sd.parse_model("aic dr=1 df=1"),
                                    GridSpec(F(1, 2), F(9, 2), 3))
    assert len(sols) == 118
    assert len(checks) == 118


def test_enumerate_long_grids_and_long_switch_chains():
    # the search takes no frame per grid point, nor one per switch
    model = sd.parse_model("aic dr=1 df=1")
    grid = GridSpec(F(1, 100), 15, 1)
    sols = enumerate_grid_solutions(None, model, grid)
    assert len(sols) == 3004
    assert enumerate_grid_solutions(None, model, grid, stop_after=1) == [StepFunction.const(0)]
    u = StepFunction.from_toggles(0, [F(i, 100) for i in range(1200)])
    assert enumerate_grid_solutions(u, sd.Fixed(0), GridSpec(F(1, 100), 12, 1300)) == [u]


# times over denominators 1, 3 and 7, on both sides of 0
_cell_times = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 3, 7)))


@st.composite
def _any_stepfns(draw):
    """Arbitrary step functions, point glitches included (as the half-open
    windows of bdcprime make them)."""
    bps = sorted(draw(st.sets(_cell_times, max_size=6)))
    bits = st.lists(st.integers(0, 1), min_size=len(bps), max_size=len(bps))
    return StepFunction(draw(st.integers(0, 1)), bps, draw(bits), draw(bits))


@settings(max_examples=400, deadline=None)
@given(lower=_any_stepfns(), upper=_any_stepfns(),
       points=st.sets(_cell_times, max_size=8),
       shift=st.sampled_from((-70, 0, 70)), ticks=st.booleans(), nested=st.booleans())
@example(lower=StepFunction(0, [1], [1], [0]), upper=StepFunction(1, [2], [0], [1]),
         points=set(), shift=0, ticks=False, nested=False)
def test_forced_cells_against_the_boolean_route(lower, upper, points, shift, ticks, nested):
    # shift moves the grid before or after every breakpoint; ticks run in
    # 1/21; nested bounds (lower <= upper) are the sandwiches models build
    if nested:
        upper = upper | lower
    points = sorted(t + shift for t in points)
    if ticks:
        lower, upper = lower._to_ticks(21), upper._to_ticks(21)
        points = [stepfn._to_ticks(t, 21) for t in points]
    bounds = (lower, upper)
    assert solvers._forced_cells(bounds, points) == boolean_forced_cells(bounds, points)
    assert solvers._forced_cells(None, points) == [None] * (len(points) + 1)


_cell_spans = st.builds(F, st.integers(0, 21), st.sampled_from((1, 3, 7)))


@st.composite
def _permit_models(draw):
    """A model with switch permits, its times on ``_cell_spans`` (0 often),
    each memory at most its delay: its keys come in (memory, delay) pairs."""
    cls = conditions.MODELS[draw(st.sampled_from(("ric", "ricprime", "bridc", "dbridc")))]
    span = st.one_of(st.just(F(0)), _cell_spans)
    nums = [t for _ in cls.keys[::2] for t in sorted(draw(st.tuples(span, span)))]
    return sd.parse_model(" ".join([cls.keyword, *(f"{k}={v}" for k, v in zip(cls.keys, nums))]))


@settings(max_examples=400, deadline=None)
@given(model=_permit_models(), u=_any_stepfns(), points=st.sets(_cell_times, max_size=10),
       ticks=st.booleans())
@example(model=sd.parse_model("ric mur=1 deltar=2 muf=0 deltaf=1"),
         u=StepFunction.from_toggles(0, [1, 2]), points={F(3), F(4)}, ticks=False)
def test_grid_switch_table_reads_the_permit_windows(model, u, points, ticks):
    # the grid's may_switch probes u as the checker does; the permit
    # windows' point values are the oracle
    points = sorted(points)
    if ticks:
        u, points = u._to_ticks(21), [stepfn._to_ticks(t, 21) for t in points]
        model = conditions._assemble(type(model), iter(
            [stepfn._to_ticks(t, 21) for t in model._parameters()]), conditions._trusted)
    rise, fall = model.permits(u)
    want = [[bool(fall.value(t)) for t in points], [bool(rise.value(t)) for t in points]]
    assert solvers._may_switch(model._input_side(u)[1], points) == want
    assert solvers._may_switch(None, points) == [None, None]


def test_grid_set_up_walks_the_bounds_once(monkeypatch):
    # no Boolean merge per grid cell: as many merges at 800 points as at 200
    zips = counted_calls(monkeypatch, StepFunction, "_zip")
    seen = []
    for n in (200, 800):
        u = StepFunction.from_toggles(0, [F(i, 100) for i in range(n)])
        before = len(zips)
        grid = GridSpec(F(1, 100), F(n, 100), n + 100)
        assert enumerate_grid_solutions(u, sd.Fixed(0), grid) == [u]
        seen.append(len(zips) - before)
    assert seen[0] == seen[1]
