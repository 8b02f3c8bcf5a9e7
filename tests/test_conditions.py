"""Consistency predicates, membership checkers, parameter algebra."""

import ast
import pathlib
import random
from fractions import Fraction as F
from typing import get_args

import pytest
from hypothesis import assume, given, settings, strategies as st

import sigdelay as sd
from sigdelay.conditions import MODELS
from sigdelay.stepfn import StepFunction, chi, chi_point, window, window_inf, window_sup

from conftest import brute_check, fractions_made, rand_bdc_params, rand_signal, rand_stepfn
from reference_kernel import (anticipation_constancy, dbridc_form_report,
                              derivative_transmission_delay)

# times over denominators 1, 2, 3 and 7, whose points still coincide now and then
times = st.builds(lambda n, d: F(n, d), st.integers(0, 20), st.sampled_from((1, 2, 3, 7)))
signals = st.builds(lambda bit, ts: StepFunction.from_toggles(bit, sorted(ts)),
                    st.integers(0, 1), st.sets(times, max_size=6))


# ---------------------------------------------------------------------------
# Consistency predicates
# ---------------------------------------------------------------------------

def test_cc_bdc_examples():
    assert sd.cc_bdc(sd.BdcParams(0, 2, 0, 2))
    assert not sd.cc_bdc(sd.BdcParams(0, 2, 0, 3))
    assert sd.cc_bdc(sd.BdcParams(3, 3, 7, 7))  # full memories always pass


def test_cc_baidc_examples():
    p = sd.BdcParams(1, 2, 1, 2)
    assert sd.cc_baidc(p, sd.AicParams(1, 1))
    assert not sd.cc_baidc(p, sd.AicParams(2, 1))
    assert sd.cc_baidc(p, sd.AicParams(0, 0))


def test_cc_bridc_examples():
    ok, clause = sd.cc_bridc(sd.BdcParams(0, 2, 0, 2), sd.RicParams(0, 2, 0, 2))
    assert ok and clause == "a"
    ok, _ = sd.cc_bridc(sd.BdcParams(2, 2, 2, 2), sd.RicParams(1, 1, 1, 1))
    assert ok
    ok, clause = sd.cc_bridc(sd.BdcParams(1, 2, 1, 2), sd.RicParams(1, 5, 1, 5))
    assert not ok and clause is None


def test_cc_bridc_implies_cc_bdc(rng):
    for _ in range(300):
        m_r, m_f = F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2)
        d_r, d_f = m_r + F(rng.randrange(0, 5), 2), m_f + F(rng.randrange(0, 5), 2)
        mu_r, mu_f = F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2)
        e_r, e_f = mu_r + F(rng.randrange(0, 5), 2), mu_f + F(rng.randrange(0, 5), 2)
        p = sd.BdcParams(m_r, d_r, m_f, d_f)
        r = sd.RicParams(mu_r, e_r, mu_f, e_f)
        ok, _ = sd.cc_bridc(p, r)
        if ok:
            assert sd.cc_bdc(p)
            # necessity consequences
            assert p.m_r >= r.mu_r and p.m_f >= r.mu_f
            assert r.delta_r <= p.d_r and r.delta_f <= p.d_f


def test_zeno_free_examples():
    assert sd.zeno_free(sd.RicParams(1, 1, 1, 1))
    assert not sd.zeno_free(sd.RicParams(0, 2, 1, 1))
    assert not sd.zeno_free(sd.RicParams(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Stability and transmission delay
# ---------------------------------------------------------------------------

def test_check_sc_examples():
    assert sd.check_sc(chi(0, None), chi(3, None)).ok
    rep = sd.check_sc(chi(0, None), chi(0, 3))
    assert not rep.ok and rep.first_violation.clause == "final-value"
    assert sd.check_sc(StepFunction.const(0), StepFunction.const(0)).ok


def test_transmission_delay_examples():
    assert sd.transmission_delay(chi(0, None), chi(3, None)) == (F(3), "rising")
    assert sd.transmission_delay(StepFunction.const(1), StepFunction.const(1)) \
        == (F(0), "unclassified")
    assert sd.transmission_delay(chi(None, 2), chi(None, 5)) == (F(3), "falling")


def test_transmission_delay_requires_stability():
    with pytest.raises(ValueError):
        sd.transmission_delay(chi(0, None), chi(None, 5))


def test_transmission_delay_never_negative(rng):
    for _ in range(50):
        u = rand_signal(rng)
        x = rand_signal(rng)
        if u.limit_at_infinity() != x.limit_at_infinity():
            continue
        d, _ = sd.transmission_delay(u, x)
        assert d >= 0


@settings(max_examples=400, deadline=None)
@given(signals, signals)
def test_transmission_delay_matches_the_derivative_formula(u, x):
    if u.limit_at_infinity() != x.limit_at_infinity():
        with pytest.raises(ValueError):
            sd.transmission_delay(u, x)
        return
    assert sd.transmission_delay(u, x) == derivative_transmission_delay(u, x)


# ---------------------------------------------------------------------------
# Constancy
# ---------------------------------------------------------------------------

@st.composite
def constancy_cases(draw):
    """(u, x, d_r, d_f); x is often a pure delay of u, which is constant."""
    u, d_r = draw(signals), draw(times)
    if draw(st.booleans()):
        return u, u.shift(d_r), d_r, d_r
    return u, draw(signals), d_r, draw(times)


@settings(max_examples=400, deadline=None)
@given(constancy_cases())
def test_constancy_matches_the_anticipation_clauses(case):
    u, x, d_r, d_f = case
    # the verdict, and the first violation's time, attainment and clause
    assert sd.check_constancy(u, x, d_r, d_f) == anticipation_constancy(u, x, d_r, d_f)


def test_check_constancy_examples():
    assert sd.check_constancy(chi(0, None), chi(2, None), 2, 0).ok
    rep = sd.check_constancy(StepFunction.const(0), chi(1, 2), 1, 1)
    assert not rep.ok
    assert rep.first_violation == sd.Violation(F(1), True, "rise-permit")
    rep = sd.check_constancy(StepFunction.const(1), chi(None, 3), 0, 1)
    assert rep.first_violation == sd.Violation(F(3), True, "fall-permit")
    with pytest.raises(ValueError, match="constancy needs"):
        sd.check_constancy(StepFunction.const(0), StepFunction.const(0), -1, 0)


def test_pure_delay_is_constant(rng):
    for _ in range(50):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 8), 2)
        assert sd.check_constancy(u, u.shift(d), d, d).ok


def test_window_delays_are_constant(rng):
    for _ in range(50):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        assert sd.check_constancy(u, window_inf(u, d, m), d, d - m).ok
        assert sd.check_constancy(u, window_sup(u, d, m), d - m, d).ok


def test_constancy_not_closed_under_chaining():
    # two constant stages compose to a trace no single anticipation
    # distance explains: with the input step far enough in the past, the
    # second stage's switch outruns any fixed lookback
    d_r = d_f = F(1)
    tau, d = F(2), F(1)
    u = chi(tau, None)
    mid = StepFunction.const(1)
    out = chi(d, None)
    assert sd.check_constancy(u, mid, d_r, d_f).ok
    assert sd.check_constancy(mid, out, d_r, d_f).ok
    assert not sd.check_constancy(u, out, d_r, d_f).ok


# ---------------------------------------------------------------------------
# Membership: frozen examples
# ---------------------------------------------------------------------------

def test_aic_membership_examples():
    model = sd.Aic(sd.AicParams(1, 0))
    assert sd.check_membership(None, chi(0, 2), model).ok
    assert sd.check_membership(None, chi(1, 3), model).ok
    rep = sd.check_membership(None, chi(1, 2), model)
    assert not rep.ok and rep.first_violation.time == 1


def test_aic_not_closed_under_conjunction():
    model = sd.Aic(sd.AicParams(1, 0))
    meet = chi(0, 2) & chi(1, 3)
    assert meet == chi(1, 2)
    assert not sd.check_membership(None, meet, model).ok


def test_aic_lattice(rng):
    for _ in range(100):
        x = rand_signal(rng)
        a1 = sd.AicParams(F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2))
        a2 = sd.AicParams(F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2))
        both = sd.AicParams(max(a1.delta_r, a2.delta_r), max(a1.delta_f, a2.delta_f))
        in1 = sd.check_membership(None, x, sd.Aic(a1)).ok
        in2 = sd.check_membership(None, x, sd.Aic(a2)).ok
        inb = sd.check_membership(None, x, sd.Aic(both)).ok
        assert inb == (in1 and in2)


def test_aic_form_equivalence(rng):
    # the hold-window shape, the lookback shape and switch-gap scanning agree
    for _ in range(200):
        x = rand_signal(rng)
        dr, df = F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2)
        a = sd.check_membership(None, x, sd.Aic(sd.AicParams(dr, df))).ok
        xl = x.left_limit()
        rise, fall = ~xl & x, xl & ~x
        # equality form c)
        hold1 = window(x, "inf", 0, dr)
        hold0 = window(~x, "inf", 0, df)
        c = (rise ^ (~xl & hold1)) == StepFunction.const(0) \
            and (fall ^ (xl & hold0)) == StepFunction.const(0)
        # lookback form d): a rise needs the value held 0 for more than df
        d_rise = xl.shift(df).__invert__() & window(~x, "inf", -df, 0,
                                                    include_end=False)
        d_fall = xl.shift(dr) & window(x, "inf", -dr, 0, include_end=False)
        d = rise <= d_rise and fall <= d_fall
        # switch-gap form e) straight off the toggle list
        e = True
        for i, t in enumerate(x.bps):
            for s in x.bps[i + 1:]:
                rising_t = x.value(t) == 1
                rising_s = x.value(s) == 1
                if rising_t and not rising_s and not (s - t > dr):
                    e = False
                if not rising_t and rising_s and not (s - t > df):
                    e = False
        assert a == c == d == e, (x, dr, df)


def test_bdc_membership_examples():
    u = chi(0, None)
    model = sd.Bdc(sd.BdcParams(1, 2, 1, 2))
    assert sd.check_membership(u, chi(F(3, 2), None), model).ok
    rep = sd.check_membership(u, u, model)
    assert not rep.ok
    assert rep.first_violation.time == 0 and rep.first_violation.attained
    assert rep.first_violation.clause == "upper-bound"


def test_bdc_membership_rejects_inconsistent_model():
    with pytest.raises(sd.InconsistentModelError):
        sd.check_membership(chi(0, None), chi(0, None),
                            sd.Bdc(sd.BdcParams(0, 2, 0, 3)))


def test_ric_membership_examples():
    model = sd.Ric(sd.RicParams(1, 2, 1, 2))
    one = StepFunction.const(1)
    assert sd.check_membership(one, chi(5, None), model).ok
    rep = sd.check_membership(one, chi(2, 5), model)
    assert not rep.ok and rep.first_violation.time == 5


def test_ric_of_constant_input():
    # any jump toward the constant is allowed, away from it is not
    model = sd.Ric(sd.RicParams(1, 2, 1, 2))
    one = StepFunction.const(1)
    for tau in (0, F(1, 2), 5):
        assert sd.check_membership(one, chi(tau, None), model).ok
    assert sd.check_membership(one, StepFunction.const(0), model).ok
    assert sd.check_membership(one, StepFunction.const(1), model).ok


def test_fixed_membership_example():
    assert sd.check_membership(chi(0, None), chi(2, None), sd.Fixed(2)).ok
    assert not sd.check_membership(chi(0, None), chi(1, None), sd.Fixed(2)).ok


def test_ricprime_aicprime_trivial_at_zero(rng):
    for _ in range(30):
        u, x = rand_signal(rng), rand_signal(rng)
        assert sd.check_membership(u, x, sd.RicPrime(sd.RicParams(0, 0, 0, 0))).ok
        assert sd.check_membership(None, x, sd.AicPrime(sd.AicParams(0, 0))).ok


def test_aicprime_boundary_hold():
    # half-open hold window: a hold of exactly delta is enough
    pulse = chi(0, 1)
    assert not sd.check_membership(None, pulse, sd.Aic(sd.AicParams(1, 0))).ok
    assert sd.check_membership(None, pulse, sd.AicPrime(sd.AicParams(1, 0))).ok
    short = chi(0, F(1, 2))
    assert not sd.check_membership(None, short, sd.AicPrime(sd.AicParams(1, 0))).ok


def test_ricprime_boundary_lookback():
    # the input must have held its value right up to, not through, the switch
    u = chi(0, 2)
    r = sd.RicParams(0, 1, 0, 1)
    x_at_edge = chi(2, 3)  # rises exactly when u stops being 1
    assert sd.check_membership(u, x_at_edge, sd.RicPrime(r)).ok
    assert not sd.check_membership(u, x_at_edge, sd.Ric(sd.RicParams(1, 1, 1, 1))).ok
    x_late = chi(F(5, 2), 3)  # the window [t-1, t) now straddles u's fall
    assert not sd.check_membership(u, x_late, sd.RicPrime(r)).ok


def test_bdcprime_contains_small_fixed_delays(rng):
    for _ in range(60):
        u = rand_signal(rng)
        d_r = F(rng.randrange(1, 7), 2)
        d_f = F(rng.randrange(1, 7), 2)
        model = sd.BdcPrime(d_r, d_f)
        d = F(rng.randrange(1, int(min(d_r, d_f) * 2) + 1), 2)
        assert sd.check_membership(u, u.shift(d), model).ok
        # a zero delay is excluded: the windows stop just short of t
        if u.bps:
            assert not sd.check_membership(u, u, model).ok or len(u.bps) == 0


def test_membership_agrees_with_brute_force(rng):
    models = []
    for _ in range(60):
        p = rand_bdc_params(rng)
        kind = rng.randrange(6)
        if kind == 0:
            models.append(sd.Bdc(p))
        elif kind == 1:
            models.append(sd.Fixed(F(rng.randrange(0, 7), 2)))
        elif kind == 2:
            models.append(sd.Aic(sd.AicParams(F(rng.randrange(0, 5), 2),
                                              F(rng.randrange(0, 5), 2))))
        elif kind == 3:
            mu_r, mu_f = F(rng.randrange(0, 4), 2), F(rng.randrange(0, 4), 2)
            models.append(sd.Ric(sd.RicParams(
                mu_r, mu_r + F(rng.randrange(0, 4), 2),
                mu_f, mu_f + F(rng.randrange(0, 4), 2))))
        elif kind == 4:
            models.append(sd.Dbridc(p))
        else:
            models.append(sd.BdcPrime(F(rng.randrange(1, 7), 2),
                                      F(rng.randrange(1, 7), 2)))
    for model in models:
        for _ in range(6):
            u, x = rand_signal(rng), rand_signal(rng)
            got = sd.check_membership(u, x, model).ok
            assert got == brute_check(u, x, model), (u, x, model)


def test_sdbridc_membership_agrees_with_brute_force(rng):
    for _ in range(80):
        u, x = rand_signal(rng), rand_signal(rng)
        d = F(rng.randrange(1, 7), 2)
        model = sd.SdbridcPrime(d)
        assert sd.check_membership(u, x, model).ok == brute_check(u, x, model)


def _rand_declared_parts_model(rng, kind):
    """A model whose clauses come from declared hold or permit parts, or a
    window delay; Baidc and Bridc with consistent parameters."""
    while True:
        p = rand_bdc_params(rng)
        a = sd.AicParams(F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2))
        mu_r, mu_f = F(rng.randrange(0, 4), 2), F(rng.randrange(0, 4), 2)
        r = sd.RicParams(mu_r, mu_r + F(rng.randrange(0, 4), 2),
                         mu_f, mu_f + F(rng.randrange(0, 4), 2))
        if kind == "bridc" and rng.randrange(2):  # shared windows satisfy CC_BRIDC often
            r = sd.RicParams(min(p.m_r, mu_r), p.d_r, min(p.m_f, mu_f), p.d_f)
        m = F(rng.randrange(0, 4), 2)
        d = m + F(rng.randrange(0, 4), 2)
        model = {"baidc": sd.Baidc(p, a), "bridc": sd.Bridc(p, r), "aicprime": sd.AicPrime(a),
                 "wand": sd.WindowAnd(m, d), "wor": sd.WindowOr(m, d),
                 "ricprime": sd.RicPrime(r)}[kind]
        if model.consistency() is None or model.consistency()[1]:
            return model


@pytest.mark.parametrize("kind", ["baidc", "bridc", "aicprime", "wand", "wor", "ricprime"])
def test_declared_part_clauses_agree_with_brute_force(rng, kind):
    verdicts = set()
    for _ in range(25):
        model = _rand_declared_parts_model(rng, kind)
        u = rand_signal(rng)
        xs = [rand_signal(rng), rand_signal(rng, n_max=2), u.shift(F(rng.randrange(0, 6), 2))]
        if model.solve is not None:
            xs.append(model.solve(u))
        elif isinstance(model, sd.Bridc):
            xs.append(sd.sample_bridc(u, model.p, model.r, rand_signal(rng)))
        elif isinstance(model, sd.Baidc):
            xs.append(sd.alternating_witness(u, model) or u)
        for x in xs:
            got = sd.check_membership(u, x, model).ok
            assert got == brute_check(u, x, model), (u, x, model)
            verdicts.add(got)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Membership: structural properties
# ---------------------------------------------------------------------------

def test_cc_bdc_is_pointwise_bound_consistency(rng):
    for _ in range(100):
        m_r, m_f = F(rng.randrange(0, 5), 2), F(rng.randrange(0, 5), 2)
        d_r = m_r + F(rng.randrange(0, 5), 2)
        d_f = m_f + F(rng.randrange(0, 5), 2)
        p = sd.BdcParams(m_r, d_r, m_f, d_f)
        if sd.cc_bdc(p):
            for _ in range(5):
                u = rand_signal(rng)
                assert window_inf(u, p.d_r, p.m_r) <= window_sup(u, p.d_f, p.m_f)
        else:
            # build the separating input: a pulse covering one window only
            if p.d_r - p.m_r > p.d_f:
                h = (p.m_r + p.d_r - p.d_f) / 2
                u = chi(0, h)
                t0 = p.d_r
            else:
                h = (p.m_f + p.d_f - p.d_r) / 2
                u = ~chi(0, h)
                t0 = p.d_f
            lo = window_inf(u, p.d_r, p.m_r)
            hi = window_sup(u, p.d_f, p.m_f)
            assert not (lo <= hi)
            assert lo.value(t0) == 1 and hi.value(t0) == 0


def test_extremal_members_pass(rng):
    for _ in range(60):
        p = rand_bdc_params(rng)
        u = rand_signal(rng)
        lo = window_inf(u, p.d_r, p.m_r)
        hi = window_sup(u, p.d_f, p.m_f)
        assert sd.check_membership(u, lo, sd.Bdc(p)).ok
        assert sd.check_membership(u, hi, sd.Bdc(p)).ok


def test_accepted_traces_match_initial_value(rng):
    for _ in range(60):
        p = rand_bdc_params(rng)
        u, x = rand_signal(rng), rand_signal(rng)
        if sd.check_membership(u, x, sd.Bdc(p)).ok:
            assert x.leading == u.leading


def test_constant_input_pins_output(rng):
    for _ in range(30):
        p = rand_bdc_params(rng)
        c = rng.randrange(2)
        u = StepFunction.const(c)
        assert sd.check_membership(u, u, sd.Bdc(p)).ok
        x = rand_signal(rng)
        if x != u:
            assert not sd.check_membership(u, x, sd.Bdc(p)).ok


def test_shift_equivariance(rng):
    for _ in range(80):
        p = rand_bdc_params(rng)
        u, x = rand_signal(rng), rand_signal(rng)
        d = F(rng.randrange(0, 7), 2)
        for model in (sd.Bdc(p), sd.Dbridc(p), sd.Fixed(F(3, 2)),
                      sd.WindowAnd(p.m_r, p.d_r), sd.WindowOr(p.m_f, p.d_f)):
            before = sd.check_membership(u, x, model).ok
            after = sd.check_membership(u.shift(d), x.shift(d), model).ok
            assert before == after


def test_symmetry_criterion(rng):
    for _ in range(80):
        p = rand_bdc_params(rng)
        u, x = rand_signal(rng), rand_signal(rng)
        if sd.bdc_symmetric(p):
            assert sd.check_membership(u, x, sd.Bdc(p)).ok \
                == sd.check_membership(~u, ~x, sd.Bdc(p)).ok


def test_symmetry_criterion_decides_mirrored_sets(rng):
    # the mirrored solution set {not x : x in Sol(not u)} equals Sol(u)
    # exactly for symmetric parameters; a pulse input separates the rest
    from sigdelay.solvers import GridSpec, enumerate_grid_solutions

    grid = GridSpec(F(1, 4), 6, 6, max_candidates=500_000)
    seen_asym = seen_sym = 0
    for _ in range(60):
        p = rand_bdc_params(rng, top=3)
        tau = max(p.m_r, p.m_f) + 1
        u = chi(0, tau)
        sols = set(enumerate_grid_solutions(u, sd.Bdc(p), grid))
        mirrored = {~x for x in enumerate_grid_solutions(~u, sd.Bdc(p), grid)}
        if sd.bdc_symmetric(p):
            seen_sym += 1
            assert sols == mirrored, p
        else:
            seen_asym += 1
            assert sols != mirrored, p
        if seen_sym > 8 and seen_asym > 8:
            break
    assert seen_sym > 0 and seen_asym > 0


def test_bdc_inclusion_soundness(rng):
    for _ in range(200):
        p, q = rand_bdc_params(rng), rand_bdc_params(rng)
        if not sd.bdc_includes(p, q):
            continue
        for _ in range(4):
            u = rand_signal(rng)
            free = rand_signal(rng)
            x = sd.sample_bdc(u, p, free)
            assert sd.check_membership(u, x, sd.Bdc(q)).ok


def test_bdc_inclusion_examples():
    i2 = sd.BdcParams(0, 2, 0, 2)
    loose = sd.BdcParams(1, 2, 1, 2)
    assert sd.bdc_includes(i2, loose)
    assert sd.bdc_includes(loose, loose)
    assert not sd.bdc_includes(loose, i2)


def test_bdc_deterministic_and_symmetric_examples():
    assert sd.bdc_deterministic(sd.BdcParams(0, 2, 0, 2))
    assert sd.bdc_symmetric(sd.BdcParams(0, 2, 0, 2))
    assert not sd.bdc_deterministic(sd.BdcParams(1, 2, 1, 2))
    assert sd.bdc_symmetric(sd.BdcParams(1, 2, 1, 2))
    p = sd.BdcParams(1, 2, 2, 3)
    assert not sd.bdc_deterministic(p) and not sd.bdc_symmetric(p)


def test_deterministic_params_force_translation(rng):
    for _ in range(50):
        d = F(rng.randrange(0, 9), 2)
        p = sd.BdcParams(0, d, 0, d)
        assert sd.bdc_deterministic(p)
        u = rand_signal(rng)
        assert window_inf(u, d, 0) == window_sup(u, d, 0) == u.shift(d)


# ---------------------------------------------------------------------------
# Parameter algebra
# ---------------------------------------------------------------------------

def test_compose_bdc_examples():
    got = sd.compose_bdc(sd.BdcParams(1, 2, 1, 2), sd.BdcParams(1, 3, 2, 4))
    assert got == sd.BdcParams(2, 5, 3, 6)
    p = sd.BdcParams(1, 2, 1, 2)
    assert sd.compose_bdc(p, sd.BdcParams(0, 0, 0, 0)) == p
    assert sd.compose_bdc(sd.BdcParams(0, 2, 0, 2), sd.BdcParams(0, 3, 0, 3)) \
        == sd.BdcParams(0, 5, 0, 5)


def test_compose_bdc_preserves_consistency(rng):
    for _ in range(100):
        p, q = rand_bdc_params(rng), rand_bdc_params(rng)
        assert sd.cc_bdc(sd.compose_bdc(p, q))
        assert sd.compose_bdc(p, q) == sd.compose_bdc(q, p)


def test_convert_minmax_examples():
    assert sd.convert_minmax(1, 2, 1, 2) == sd.BdcParams(1, 2, 1, 2)
    d = F(7, 2)
    assert sd.convert_minmax(d, d, d, d) == sd.BdcParams(0, d, 0, d)
    assert sd.convert_minmax(2, 3, 1, 2) == sd.BdcParams(2, 3, 0, 2)


def test_convert_minmax_rejects_gaps():
    with pytest.raises(sd.InconsistentModelError):
        sd.convert_minmax(3, 4, 1, 2)  # d_r_min > d_f_max


def test_convert_minmax_membership_equivalence(rng):
    for _ in range(60):
        rn = F(rng.randrange(0, 5), 2)
        rx = rn + F(rng.randrange(0, 4), 2)
        fn = F(rng.randrange(0, 5), 2)
        fx = fn + F(rng.randrange(0, 4), 2)
        if rn > fx or fn > rx:
            continue
        p = sd.convert_minmax(rn, rx, fn, fx)
        assert sd.cc_bdc(p)
        u, x = rand_signal(rng), rand_signal(rng)
        # the min/max sandwich evaluated directly
        lo = window(u, "inf", -rx, -fn)
        hi = window(u, "sup", -fx, -rn)
        direct = (lo <= x) and (x <= hi)
        assert direct == sd.check_membership(u, x, sd.Bdc(p)).ok


# ---------------------------------------------------------------------------
# RIC / AIC interplay
# ---------------------------------------------------------------------------

def test_ric_inside_aic(rng):
    for _ in range(150):
        mu_r, mu_f = F(rng.randrange(0, 4), 2), F(rng.randrange(0, 4), 2)
        e_r = mu_r + F(rng.randrange(0, 4), 2)
        e_f = mu_f + F(rng.randrange(0, 4), 2)
        r = sd.RicParams(mu_r, e_r, mu_f, e_f)
        if not (e_f >= e_r - mu_r and e_r >= e_f - mu_f):
            continue
        u, x = rand_signal(rng), rand_signal(rng)
        if sd.check_membership(u, x, sd.Ric(r)).ok:
            a = sd.AicParams(e_f - e_r + mu_r, e_r - e_f + mu_f)
            assert sd.check_membership(None, x, sd.Aic(a)).ok


def test_zeno_witness_family():
    r = sd.RicParams(0, 2, 0, 1)
    assert not sd.zeno_free(r)
    u = chi(None, 0)
    for eps in (F(1, 2), F(1, 4), F(1, 8), F(1, 1024)):
        x = chi(1 - eps, 1)
        assert sd.check_membership(u, x, sd.Ric(r)).ok


def test_bridc_reparameterization(rng):
    # memory form versus min/max split of the switch inequalities
    checked = 0
    for _ in range(400):
        mu_r, mu_f = F(rng.randrange(0, 4), 2), F(rng.randrange(0, 4), 2)
        e_r = mu_r + F(rng.randrange(0, 4), 2)
        e_f = mu_f + F(rng.randrange(0, 4), 2)
        m_r = F(rng.randrange(0, 6), 2)
        m_f = F(rng.randrange(0, 6), 2)
        d_r = m_r + F(rng.randrange(0, 4), 2)
        d_f = m_f + F(rng.randrange(0, 4), 2)
        try:
            p = sd.BdcParams(m_r, d_r, m_f, d_f)
            r = sd.RicParams(mu_r, e_r, mu_f, e_f)
        except ValueError:
            continue
        if not (d_f - m_f <= e_f - mu_f <= e_r <= d_r
                and d_r - m_r <= e_r - mu_r <= e_f <= d_f):
            continue
        checked += 1
        u, x = rand_signal(rng), rand_signal(rng)
        form_a = sd.check_membership(u, x, sd.Bdc(p)).ok \
            and sd.check_membership(u, x, sd.Ric(r)).ok
        xl = x.left_limit()
        lo_max = window_inf(u, d_r, m_r)
        lo_min = window_inf(u, e_r, mu_r)
        hi0_max = window_inf(~u, d_f, m_f)
        hi0_min = window_inf(~u, e_f, mu_f)
        form_b = ((~xl & lo_max) <= (~xl & x)) and ((~xl & x) <= (~xl & lo_min)) \
            and ((xl & hi0_max) <= (xl & ~x)) and ((xl & ~x) <= (xl & hi0_min))
        assert form_a == form_b, (u, x, p, r)
    assert checked > 30


def test_dbridc_seven_way_equivalence(rng):
    for _ in range(200):
        p = rand_bdc_params(rng)
        u, x = rand_signal(rng), rand_signal(rng)
        answers = {f: dbridc_form_report(u, x, p, f).ok for f in "abefg"}
        assert len(set(answers.values())) == 1, (u, x, p, answers)
    # the checker used by check_membership is form b
    p = rand_bdc_params(rng)
    u, x = rand_signal(rng), rand_signal(rng)
    assert sd.check_membership(u, x, sd.Dbridc(p)).ok \
        == dbridc_form_report(u, x, p, "b").ok


# outputs near the dbridc solution on thirds: as solved, one switch moved
# by 1/6, a pulse added, or one switch dropped
_thirds = st.integers(0, 18).map(lambda n: F(n, 3))


@st.composite
def _near_dbridc_solution(draw):
    m_r, m_f, w_r, w_f = (draw(st.integers(0, 6).map(lambda n: F(n, 3))) for _ in range(4))
    p = sd.BdcParams(m_r, m_r + w_r, m_f, m_f + w_f)
    assume(sd.cc_bdc(p))
    u = StepFunction.from_toggles(draw(st.integers(0, 1)),
                                  sorted(draw(st.sets(_thirds, max_size=4))))
    ts = list(sd.solve_dbridc(u, p).toggles())
    how = draw(st.sampled_from(["solved", "moved", "pulse", "dropped"]))
    if how == "moved" and ts:
        i = draw(st.integers(0, len(ts) - 1))
        ts[i] += draw(st.sampled_from((F(-1, 6), F(1, 6))))
    elif how == "pulse":
        start = draw(st.integers(0, 48).map(lambda n: F(n, 6)))
        ts += [start, start + draw(st.integers(1, 6).map(lambda n: F(n, 6)))]
    elif how == "dropped" and ts:
        del ts[draw(st.integers(0, len(ts) - 1))]
    assume(len(set(ts)) == len(ts) and min(ts, default=0) >= 0)
    return p, u, StepFunction.from_toggles(u.leading, sorted(ts))


@settings(max_examples=400, deadline=None)
@given(_near_dbridc_solution())
def test_dbridc_is_bridc_with_the_bounded_delays_parameters(case):
    """Paper §9.5: dbridc with p accepts exactly what bridc with p and the
    relative inertia (m_r, d_r, m_f, d_f) accepts.  The clauses that fail
    are named differently, so only the verdicts are compared."""
    p, u, x = case
    r = sd.RicParams(p.m_r, p.d_r, p.m_f, p.d_f)
    assert sd.cc_bridc(p, r)[0]
    assert sd.check_membership(u, x, sd.Dbridc(p)).ok == \
        sd.check_membership(u, x, sd.Bridc(p, r)).ok


# ---------------------------------------------------------------------------
# Model text syntax
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "bdc mr=1 dr=2 mf=1 df=2",
    "fixed d=2",
    "aic dr=1 df=0",
    "ric mur=1 deltar=2 muf=1 deltaf=2",
    "bridc mr=0 dr=2 mf=0 df=2 mur=0 deltar=2 muf=0 deltaf=2",
    "dbridc mr=1 dr=2 mf=1 df=2",
    "sdbridc d=2",
    "bdcprime dr=2 df=3",
    "baidc mr=1 dr=2 mf=1 df=2 deltar=1 deltaf=1",
    "wand m=1 d=2",
    "wor m=0 d=1/2",
    "aicprime dr=1/2 df=0",
    "ricprime mur=0 deltar=1 muf=0 deltaf=1",
    "sc",
])
def test_model_syntax_round_trip(text):
    model = sd.parse_model(text)
    assert sd.format_model(model) == text
    assert sd.parse_model(sd.format_model(model)) == model


@pytest.mark.parametrize("bad", [
    "",
    "mystery d=1",
    "fixed",                      # missing d
    "fixed d=1 e=2",              # unknown key
    "fixed d=1 d=2",              # duplicate
    "fixed d=0.1.2",              # bad number
    "bdc mr=2 dr=1 mf=0 df=0",    # m > d
    "sdbridc d=0",                # needs d > 0
    "bdcprime dr=0 df=1",
])
def test_model_syntax_rejects(bad):
    with pytest.raises(ValueError):
        sd.parse_model(bad)


@pytest.mark.parametrize("spec, rule", [
    ("bdc mr=-1 dr=2 mf=1 df=2", "need 0 <= m_r <= d_r and 0 <= m_f <= d_f"),
    ("aic dr=1 df=-1/2", "inertia parameters must be >= 0"),
    ("ric mur=3 deltar=2 muf=0 deltaf=0", "need 0 <= mu <= delta for both edges"),
    ("fixed   d=-1", "fixed delay needs d >= 0"),
    ("wand m=2 d=1", "window delay needs 0 <= m <= d"),
    ("bdcprime dr=0 df=1", "BDC' needs d_r > 0 and d_f > 0"),
    ("sdbridc d=0", "SDBRIDC' needs d > 0"),
])
def test_model_range_errors_name_the_spec_text(spec, rule):
    with pytest.raises(ValueError) as info:
        sd.parse_model(spec)
    assert str(info.value) == f"invalid parameters for {' '.join(spec.split())!r}: {rule}"
    assert "Params(" not in str(info.value)


def test_parameter_tuples_built_directly_name_themselves():
    with pytest.raises(ValueError) as info:
        sd.BdcParams(-1, 2, 1, 2)
    assert str(info.value) == ("need 0 <= m_r <= d_r and 0 <= m_f <= d_f, got BdcParams("
                               "m_r=Fraction(-1, 1), d_r=Fraction(2, 1), "
                               "m_f=Fraction(1, 1), d_f=Fraction(2, 1))")
    for build, message in [
        (lambda: sd.Fixed(-1), "fixed delay needs d >= 0, got Fixed(d=Fraction(-1, 1))"),
        (lambda: sd.WindowAnd(2, 1), "window delay needs 0 <= m <= d, got "
                                     "WindowAnd(m=Fraction(2, 1), d=Fraction(1, 1))"),
        (lambda: sd.BdcPrime(0, 1), "BDC' needs d_r > 0 and d_f > 0, got "
                                    "BdcPrime(d_r=Fraction(0, 1), d_f=Fraction(1, 1))"),
        (lambda: sd.SdbridcPrime(0), "SDBRIDC' needs d > 0, got SdbridcPrime(d=Fraction(0, 1))"),
    ]:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("spec, made", [
    ("bdc mr=1 dr=2 mf=1 df=2", 4),
    ("bridc mr=1 dr=2 mf=1 df=2 mur=0 deltar=1 muf=0 deltaf=1", 8),
    ("fixed d=1/2", 1),
    # a decimal or an exponent is read by Fraction once, not read and rebuilt
    ("fixed d=0.5", 1),
    ("bdc mr=0.5 dr=1.25 mf=1e0 df=2", 4),
])
def test_parse_model_makes_one_fraction_per_number(monkeypatch, spec, made):
    assert fractions_made(monkeypatch, lambda: sd.parse_model(spec))[1] == made


# valid parameters: non-unit denominators, m <= d pairs, positive where needed
_times = st.builds(F, st.integers(0, 60), st.integers(2, 9))
_positive = _times.map(lambda t: t + F(1, 7))
_pairs = st.tuples(_times, _times).map(lambda md: (md[0], md[0] + md[1]))
_bdc = st.builds(lambda r, f: sd.BdcParams(*r, *f), _pairs, _pairs)
_aic = st.builds(sd.AicParams, _times, _times)
_ric = st.builds(lambda r, f: sd.RicParams(*r, *f), _pairs, _pairs)
MODEL_STRATEGIES = {
    "sc": st.just(sd.Sc()),
    "fixed": st.builds(sd.Fixed, _times),
    "bdc": st.builds(sd.Bdc, _bdc),
    "bdcprime": st.builds(sd.BdcPrime, _positive, _positive),
    "wand": _pairs.map(lambda md: sd.WindowAnd(*md)),
    "wor": _pairs.map(lambda md: sd.WindowOr(*md)),
    "aic": st.builds(sd.Aic, _aic),
    "aicprime": st.builds(sd.AicPrime, _aic),
    "ric": st.builds(sd.Ric, _ric),
    "ricprime": st.builds(sd.RicPrime, _ric),
    "baidc": st.builds(sd.Baidc, _bdc, _aic),
    "bridc": st.builds(sd.Bridc, _bdc, _ric),
    "dbridc": st.builds(sd.Dbridc, _bdc),
    "sdbridc": st.builds(sd.SdbridcPrime, _positive),
}


def test_every_delay_model_is_registered_under_a_unique_keyword():
    members = get_args(sd.DelayModel)
    assert len(MODELS) == len(members) == 14
    for cls in members:
        assert MODELS[cls.keyword] is cls
    assert set(MODEL_STRATEGIES) == set(MODELS)


# Delay-model classes that code outside `conditions` may still name in an
# isinstance test: composition is defined only for BDC.  `sample` asks
# every model for its own candidates.
_ALLOWED_MODEL_DISPATCH = {("cli.py", "cmd_compose", "Bdc")}


def test_no_model_dispatch_outside_conditions():
    """Model-specific behaviour lives on the model classes: outside
    `conditions`, an isinstance test against a `DelayModel` member is a
    dispatch that a model hook should replace."""
    model_names = {cls.__name__ for cls in get_args(sd.DelayModel)}
    found = set()
    for path in pathlib.Path(sd.__file__).parent.glob("*.py"):
        if path.name == "conditions.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "isinstance" and len(call.args) == 2):
                    continue
                spec = call.args[1]
                for node in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
                    name = node.attr if isinstance(node, ast.Attribute) else \
                        getattr(node, "id", None)
                    if name in model_names:
                        found.add((path.name, func.name, name))
    assert found <= _ALLOWED_MODEL_DISPATCH, sorted(found - _ALLOWED_MODEL_DISPATCH)


def test_time_fields_are_checked_in_one_place():
    """In `conditions`, only `_Times` coerces and checks time fields, and
    the window delays declare their constants on the one `_Window` body."""
    tree = ast.parse((pathlib.Path(sd.__file__).parent / "conditions.py")
                     .read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    post_inits = {name for name, cls in classes.items() for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"}
    assert post_inits == {"_Times"}
    for name in ("WindowAnd", "WindowOr"):
        assert not [node.name for node in classes[name].body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))], name


def test_no_function_keeps_module_state():
    """No function in `sigdelay` rebinds a module global: a check keeps
    nothing between calls, and a caller passes what it reuses."""
    found = set()
    for path in pathlib.Path(sd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, func.name) for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func) if isinstance(node, ast.Global)}
    assert not found, sorted(found)


# The calls through which `solvers` may build input windows itself: the
# public extremal members of the bounded delay, the switch-window
# witness's one input side on the Fractions, and the witness's permit
# windows from the specs of the side it is given.
_ALLOWED_INPUT_WINDOW_CALLS = {("bdc_bounds", "sandwich"),
                               ("alternating_witness", "_input_side"),
                               ("_witness", "_permit_windows")}
_INPUT_SIDE_CALLS = ("sandwich", "permits", "_permit_windows", "_input_side")


def _called_names(node):
    """The name of every function or method that ``node`` calls."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_solvers_read_input_windows_from_the_input_side():
    """Input windows are built in `conditions`: `solvers` reads them from a
    model's input side instead of building its own, and no model's sampler
    candidates build one beside the prepared side."""
    src = pathlib.Path(sd.__file__).parent
    tree = ast.parse((src / "solvers.py").read_text(encoding="utf-8"))
    found = {(getattr(top, "name", "<module>"), name) for top in tree.body
             for name in _called_names(top) if name in _INPUT_SIDE_CALLS}
    assert found == _ALLOWED_INPUT_WINDOW_CALLS, sorted(found ^ _ALLOWED_INPUT_WINDOW_CALLS)
    tree = ast.parse((src / "conditions.py").read_text(encoding="utf-8"))
    candidates = [(cls.name, func) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for func in cls.body
                  if isinstance(func, ast.FunctionDef) and func.name == "_candidates"]
    assert len(candidates) >= 3
    built = {(cls, name) for cls, func in candidates for name in _called_names(func)
             if name in _INPUT_SIDE_CALLS or (name or "").startswith("window")}
    assert not built, sorted(built)


# the input sides' sandwiches on half-unit times and on mixed denominators
_halves = st.integers(0, 16).map(lambda n: F(n, 2))
_half_signals = st.builds(lambda bit, ts: StepFunction.from_toggles(bit, sorted(ts)),
                          st.integers(0, 1), st.sets(_halves, max_size=6))
_half_bdc = st.builds(lambda mr, dr, mf, df: sd.BdcParams(mr, mr + dr, mf, mf + df),
                      _halves, _halves, _halves, _halves)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_half_signals, _half_bdc), st.tuples(signals, _bdc)))
def test_dbridc_side_is_the_bounded_delays_sandwich_and_its_permits(case):
    # its own windows for the equality judge: the permits, the fall permit
    # window_inf(~u, d_f, m_f) built as ~window_sup(u, d_f, m_f)
    u, p = case
    model = sd.Dbridc(p)
    sandwich, (reader, specs), own = model._input_side(u)
    assert sandwich == sd.Bdc(p).sandwich(u)
    assert (reader, specs) == (u, model._permit_specs())
    assert own == model.permits(u) == (window_inf(u, p.d_r, p.m_r), window_inf(~u, p.d_f, p.m_f))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_half_signals, signals), st.one_of(_halves, _positive).filter(bool))
def test_sdbridc_side_sandwich_holds_the_input_before_zero(u, d):
    before = chi(None, 0)
    assert sd.SdbridcPrime(d)._input_side(u)[0] == (u & before, u | ~before)


@settings(max_examples=300, deadline=None)
@given(st.one_of(*MODEL_STRATEGIES.values()))
def test_hypothesis_model_syntax_round_trip(model):
    text = sd.format_model(model)
    assert text.split()[0] == model.keyword
    assert sd.parse_model(text) == model


def test_errors_name_the_model_by_its_spec():
    model = sd.parse_model("bdc mr=1 dr=2 mf=1/2 df=2")
    with pytest.raises(ValueError, match="'bdc mr=1 dr=2 mf=1/2 df=2' needs an input"):
        sd.check_membership(None, StepFunction.const(0), model)
    bad = sd.parse_model("bdc mr=0 dr=2 mf=0 df=3")
    with pytest.raises(sd.InconsistentModelError,
                       match="CC_BDC fails for 'bdc mr=0 dr=2 mf=0 df=3'"):
        sd.check_membership(StepFunction.const(0), StepFunction.const(0), bad)


_BAD_P = sd.BdcParams(0, 1, 0, 2)  # d_f - m_f = 2 > d_r = 1: CC_BDC fails
_GOOD_P = sd.BdcParams(1, 2, 1, 2)
_U, _X = chi(0, None), chi(3, None)

# every place that refuses an inconsistent model, with the spec it must name
_GATE_SITES = {
    "check_membership": (lambda: sd.check_membership(_U, _X, sd.Bdc(_BAD_P)),
                         "CC_BDC fails for 'bdc mr=0 dr=1 mf=0 df=2'"),
    "Dbridc.events": (lambda: sd.Dbridc(_BAD_P).events(0),
                      "CC_BDC fails for 'dbridc mr=0 dr=1 mf=0 df=2'"),
    "compose_bdc": (lambda: sd.compose_bdc(_GOOD_P, _BAD_P),
                    "CC_BDC fails for 'bdc mr=0 dr=1 mf=0 df=2'"),
    "bdc_deterministic": (lambda: sd.bdc_deterministic(_BAD_P),
                          "CC_BDC fails for 'bdc mr=0 dr=1 mf=0 df=2'"),
    "bdc_symmetric": (lambda: sd.bdc_symmetric(_BAD_P),
                      "CC_BDC fails for 'bdc mr=0 dr=1 mf=0 df=2'"),
    "dbridc_form_report": (lambda: dbridc_form_report(_U, _X, _BAD_P, "a"),
                           "CC_BDC fails for 'dbridc mr=0 dr=1 mf=0 df=2'"),
    "bdc_bounds": (lambda: sd.bdc_bounds(_U, _BAD_P),
                   "CC_BDC fails for 'bdc mr=0 dr=1 mf=0 df=2'"),
    "sample_bridc": (lambda: sd.sample_bridc(_U, _GOOD_P, sd.RicParams(1, 5, 1, 5), _X),
                     "CC_BRIDC fails for 'bridc mr=1 dr=2 mf=1 df=2 mur=1 deltar=5 muf=1 deltaf=5'"),
}


@pytest.mark.parametrize("site", sorted(_GATE_SITES))
def test_inconsistency_errors_name_the_spec(site):
    call, message = _GATE_SITES[site]
    with pytest.raises(sd.InconsistentModelError) as exc:
        call()
    assert str(exc.value) == message


def test_exact_rational_parsing():
    model = sd.parse_model("fixed d=2.5")
    assert model.d == F(5, 2)
    model = sd.parse_model("fixed d=7/4")
    assert model.d == F(7, 4)
