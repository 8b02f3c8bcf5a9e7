"""Solvers, sampler, switch-window propagation and the grid oracle."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

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

from conftest import brute_check, counted_calls, rand_bdc_params, rand_signal


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
    wins = forced_switch_windows(u, p)
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


def test_sample_bridc_builds_the_input_side_once(monkeypatch):
    # every candidate fails until the switch-window witness, the sixth
    sides = counted_calls(monkeypatch, conditions._Model, "_input_side")
    misses = counted_calls(monkeypatch, conditions, "_in_ticks")
    checks = counted_calls(monkeypatch, solvers, "check_membership")
    p = sd.BdcParams(F(3, 2), 2, F(3, 2), 3)
    r = sd.RicParams(F(3, 2), F(3, 2), F(3, 2), F(5, 2))
    u = StepFunction.from_toggles(0, [F(3, 2), F(5, 2), F(7, 2), F(11, 2)])
    x = sample_bridc(u, p, r, chi(1, None))
    assert len(checks) == 6 and len(misses) == 1
    assert len(sides) == 2  # the checks' in ticks, the witness's on the Fractions
    assert brute_check(u, x, sd.Bridc(p, r))


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


@pytest.mark.parametrize("model, max_toggles", [(sd.Bdc(sd.BdcParams(1, 2, 1, 2)), (2, 4, 6)),
                                                (sd.Ric(sd.RicParams(0, 1, F(1, 2), 1)), (1, 2, 3))])
def test_enumeration_builds_the_input_side_once(monkeypatch, model, max_toggles):
    # more candidates, the same windows: the pruning's on the Fractions
    # and the checks' in ticks, each built once per enumeration
    sides = counted_calls(monkeypatch, conditions._Model, "_input_side")
    windows = counted_calls(monkeypatch, stepfn, "window")
    checks = counted_calls(monkeypatch, solvers, "check_membership")
    u = StepFunction.from_toggles(0, [F(1, 2), 2])
    seen = []
    for toggles in max_toggles:
        before = len(sides), len(windows), len(checks)
        enumerate_grid_solutions(u, dataclasses.replace(model),  # no entry left to hit
                                 GridSpec(F(1, 2), 4, toggles))
        seen.append((len(sides) - before[0], len(windows) - before[1], len(checks) - before[2]))
    assert [s for s, _, _ in seen] == [1, 1, 1]
    assert [w for _, w, _ in seen] == [4, 4, 4]
    assert seen[0][2] < seen[1][2] < seen[2][2]


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
