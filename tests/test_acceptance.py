"""Acceptance suite: every criterion at its stated tolerance.

All comparisons are exact rational equality (zero tolerance) unless a
criterion states a runtime bound, which is asserted with a stopwatch.
One summary line per criterion is printed at the end of the run.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

import sigdelay as sd
from sigdelay.cli import main
from sigdelay.circuit import WaveformSet, builtin, format_netlist, simulate
from sigdelay.solvers import (
    GridSpec,
    alternating_witness,
    enumerate_grid_solutions,
    solve_dbridc,
    brute_left_value,
    brute_value,
    brute_window,
)
from sigdelay.stepfn import (
    StepFunction,
    chi,
    window,
    window_inf,
    window_inf_halfopen,
    window_sup,
    window_sup_halfopen,
)
from sigdelay.vcd import export_vcd, import_vcd

from conftest import probe_points, rand_bdc_params, rand_signal, rand_stepfn, record_acceptance
from reference_kernel import dbridc_form_report


def train(initial, pulse, gap, n, start=F(0)):
    toggles = []
    s = start
    for _ in range(n):
        toggles += [s, s + pulse]
        s += pulse + gap
    return StepFunction.from_toggles(initial, toggles)


# ---------------------------------------------------------------------------
# 1. Fixed-delay feedback oscillation
# ---------------------------------------------------------------------------

def test_criterion_1_fdc_feedback():
    started = time.perf_counter()
    n = builtin("not-feedback", m1=sd.Fixed(1), m2=sd.Fixed(1), x0=0)
    w = simulate(n, {}, 10)
    expected = StepFunction.from_toggles(0, [0, 2, 4, 6, 8, 10])
    elapsed = time.perf_counter() - started
    ok = w.signals["x"] == expected and elapsed < 1.0
    record_acceptance(1, "fixed-delay feedback oscillates with period 4", ok,
                      f"{elapsed:.3f}s")
    assert w.signals["x"] == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Open-lookback deterministic feedback
# ---------------------------------------------------------------------------

def test_criterion_2_sdbridc_feedback():
    n = builtin("not-feedback", m1=sd.SdbridcPrime(1), m2=sd.SdbridcPrime(1), x0=0)
    w = simulate(n, {}, 8)
    expected = {
        "x": StepFunction.from_toggles(0, [0, 2, 4, 6, 8]),
        "y": StepFunction.from_toggles(0, [1, 3, 5, 7]),
        "v": StepFunction.from_toggles(0, [2, 4, 6, 8]),
    }
    ok = all(w.signals[k] == v for k, v in expected.items())
    record_acceptance(2, "open-lookback feedback reproduces all three waveforms", ok)
    assert w.signals["x"] == expected["x"]
    assert w.signals["y"] == expected["y"]
    assert w.signals["v"] == expected["v"]


# ---------------------------------------------------------------------------
# 3. Transient oscillation
# ---------------------------------------------------------------------------

def test_criterion_3_transient_oscillation():
    one = StepFunction.const(1)
    w1 = simulate(builtin("transient-oscillator", d=3, dprime=1), {"u": one}, 8)
    want1 = chi(None, 0) ^ chi(1, 2) ^ chi(3, None)
    w2 = simulate(builtin("transient-oscillator", d=2, dprime=1), {"u": one}, 8)
    want2 = chi(None, 0) ^ chi(1, None)
    ok = w1.signals["x"] == want1 and w2.signals["x"] == want2
    record_acceptance(3, "transient oscillator matches both solution branches", ok)
    assert w1.signals["x"] == want1
    assert w2.signals["x"] == want2


# ---------------------------------------------------------------------------
# 4. Delay-line envelope
# ---------------------------------------------------------------------------

def test_criterion_4_delay_line_envelope():
    started = time.perf_counter()
    rng = random.Random(411)
    horizon = F(18)
    trials = 200
    bad = 0
    for _ in range(trials):
        k = rng.randrange(0, 11)
        toggles = sorted(rng.sample([F(i, 4) for i in range(0, 33)], k))
        u = StepFunction.from_toggles(rng.randrange(2), toggles)
        # fixed delays drawn inside the loose per-element model (0 < d <= 1)
        models = [sd.Fixed(F(rng.randrange(1, 5), 4)) for _ in range(6)]
        n = builtin("delay-line-falling", models=models)
        w = simulate(n, {"u": u}, horizon)
        lo = window_inf_halfopen(u, 2).truncate(horizon)
        hi = window_sup_halfopen(u, 6).truncate(horizon)
        wt = w.signals["w"]
        if not (lo <= wt and wt <= hi):
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 10.0
    record_acceptance(4, "delay line keeps the (2, 6) envelope on 200 trials", ok,
                      f"{elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 5. Serial connection as set equality
# ---------------------------------------------------------------------------

def _compose_set_equal(rng, u, p, q, grid):
    """Both inclusions between the composed family and the summed family.

    Applying q to sampled members of p's family must land inside the
    summed family (forward inclusion, checker-judged).  Conversely every
    enumerated member of the summed family must admit an intermediate;
    intermediates quantify over all signals, so their grid is refined
    below the output grid when no on-grid one exists (composition can
    force intermediate switches strictly between output grid points).
    """
    composed_model = sd.Bdc(sd.compose_bdc(p, q))
    direct = enumerate_grid_solutions(u, composed_model, grid)
    on_grid = set(grid.points())
    for _ in range(5):
        x = sd.sample_bdc(u, p, rand_signal(rng, n_max=4, denom=2, span=12))
        y = sd.sample_bdc(x, q, rand_signal(rng, n_max=4, denom=2, span=12))
        if not sd.check_membership(u, y, composed_model).ok:
            return False, "composed sample rejected by the summed model"
        if len(y.bps) <= grid.max_toggles and set(y.bps) <= on_grid:
            if y not in direct:
                return False, "on-grid composed sample missing from direct"
    missing = list(direct)
    refined = grid.step
    for step_div, toggles in ((1, grid.max_toggles), (2, 10), (4, 12)):
        mid_grid = GridSpec(grid.step / step_div, grid.horizon, toggles,
                            max_candidates=2_000_000)
        mids = enumerate_grid_solutions(u, sd.Bdc(p), mid_grid)
        missing = [y for y in missing
                   if not any(sd.check_membership(x, y, sd.Bdc(q)).ok
                              for x in mids)]
        refined = mid_grid.step
        if not missing:
            return True, f"intermediates at step {refined}"
    return False, "direct member lacks an intermediate"


def test_criterion_5_serial_connection():
    started = time.perf_counter()
    rng = random.Random(55)
    grid = GridSpec(F(1, 2), 6, 6, max_candidates=500_000)
    trials = 50
    worst = 0.0
    for i in range(trials):
        t0 = time.perf_counter()
        p = rand_bdc_params(rng, denom=2, top=3)
        # a zero memory in the second stage makes one switch direction of
        # that stage rigid, and the summed family then genuinely exceeds
        # the composed one (see test_solvers.test_composition_gap_with_
        # degenerate_second_stage); the equality is exercised across the
        # family where it holds
        while True:
            q = rand_bdc_params(rng, denom=2, top=3)
            if q.m_r > 0 and q.m_f > 0:
                break
        toggles = sorted(rng.sample([F(i, 2) for i in range(0, 4)],
                                    rng.randrange(0, 4)))
        u = StepFunction.from_toggles(rng.randrange(2), toggles)
        same, why = _compose_set_equal(rng, u, p, q, grid)
        worst = max(worst, time.perf_counter() - t0)
        if not same:
            record_acceptance(5, "serial connection enumerations coincide", False,
                              f"trial {i}: {why}")
            pytest.fail(f"trial {i}: {why} for p={p} q={q} u={u}")
    elapsed = time.perf_counter() - started
    ok = worst < 2.0
    record_acceptance(5, "serial connection enumerations coincide", ok,
                      f"50 trials in {elapsed:.1f}s, worst {worst:.2f}s")
    assert worst < 2.0, f"slowest trial took {worst:.2f}s"


# ---------------------------------------------------------------------------
# 6. Deterministic delay: uniqueness and equivalent forms
# ---------------------------------------------------------------------------

def test_criterion_6_dbridc_uniqueness_and_forms():
    rng = random.Random(66)
    grid = GridSpec(F(1, 2), 6, 6)
    for _ in range(100):
        p = rand_bdc_params(rng, denom=2, top=3)
        toggles = sorted(rng.sample([F(i, 2) for i in range(0, 7)],
                                    rng.randrange(0, 4)))
        u = StepFunction.from_toggles(rng.randrange(2), toggles)
        expected = solve_dbridc(u, p).truncate(grid.horizon)
        got = enumerate_grid_solutions(u, sd.Dbridc(p), grid)
        if got != [expected]:
            record_acceptance(6, "deterministic delay unique; forms agree", False)
            pytest.fail(f"enumeration {got} != [{expected}] for u={u} p={p}")
    agree = True
    for _ in range(500):
        p = rand_bdc_params(rng)
        u, x = rand_signal(rng), rand_signal(rng)
        answers = {dbridc_form_report(u, x, p, f).ok for f in "abef"}
        if len(answers) != 1:
            agree = False
            break
    record_acceptance(6, "deterministic delay unique; forms agree", agree,
                      "100 enumerations, 500 form triples")
    assert agree


# ---------------------------------------------------------------------------
# 7. Consistency conditions as decision procedures
# ---------------------------------------------------------------------------

def test_criterion_7_consistency_decides_existence():
    rng = random.Random(77)
    grid = GridSpec(F(1, 4), 6, 8, max_candidates=500_000)
    for _ in range(100):
        m_r, m_f = F(rng.randrange(0, 4), 2), F(rng.randrange(0, 4), 2)
        d_r = m_r + F(rng.randrange(0, 4), 2)
        d_f = m_f + F(rng.randrange(0, 4), 2)
        p = sd.BdcParams(m_r, d_r, m_f, d_f)
        if sd.cc_bdc(p):
            toggles = sorted(rng.sample([F(i, 2) for i in range(0, 5)],
                                        rng.randrange(0, 3)))
            u = StepFunction.from_toggles(rng.randrange(2), toggles)
            sols = enumerate_grid_solutions(u, sd.Bdc(p), grid, stop_after=1)
            assert sols, f"consistent {p} found no grid member for u={u}"
        else:
            # the separating input from the consistency proof
            if p.d_r - p.m_r > p.d_f:
                u = chi(0, (p.m_r + p.d_r - p.d_f) / 2)
            else:
                u = ~chi(0, (p.m_f + p.d_f - p.d_r) / 2)
            lo = window_inf(u, p.d_r, p.m_r)
            hi = window_sup(u, p.d_f, p.m_f)
            assert not (lo <= hi), f"inconsistent {p} has compatible bounds"
            # no candidate on any grid can thread an inverted sandwich
            pts = grid.points()
            assert not any(
                lo <= StepFunction.from_toggles(b, c) and
                StepFunction.from_toggles(b, c) <= hi
                for b in (0, 1)
                for k in (0, 1, 2)
                for c in itertools.combinations(pts[:8], k))

    # boundary of the absolute-inertia consistency condition
    p = sd.BdcParams(1, 2, 1, 2)
    eps = F(1, 8)
    u = train(0, p.m_r + eps, p.m_f + eps, 8)
    good, bad = sd.AicParams(1, 1), sd.AicParams(F(3, 2), 1)
    assert sd.cc_baidc(p, good) and not sd.cc_baidc(p, bad)
    witness = alternating_witness(u, sd.Baidc(p, good))
    ok = witness is not None and sd.check_membership(u, witness, sd.Baidc(p, good)).ok
    none_found = alternating_witness(u, sd.Baidc(p, bad)) is None
    record_acceptance(7, "consistency conditions decide solvability", ok and none_found,
                      "100 parameter draws + inertia boundary pair")
    assert ok, "consistent inertia should admit a verified pulse-train member"
    assert none_found, "inconsistent inertia must reject the pulse train"


# ---------------------------------------------------------------------------
# 8. Zeno criterion
# ---------------------------------------------------------------------------

def test_criterion_8_zeno():
    r = sd.RicParams(0, 2, 0, 1)
    assert not sd.zeno_free(r)
    u = chi(None, 0)
    accepted = all(
        sd.check_membership(u, chi(1 - eps, 1), sd.Ric(r)).ok
        for eps in (F(1, 2), F(1, 4), F(1, 8)))

    rng = random.Random(88)
    gap_ok = True
    grid = GridSpec(F(1, 4), 3, 4, max_candidates=500_000)
    checked = 0
    for _ in range(48):
        mu_r, mu_f = F(rng.randrange(0, 3), 2), F(rng.randrange(0, 3), 2)
        e_r = mu_r + F(rng.randrange(0, 3), 2)
        e_f = mu_f + F(rng.randrange(0, 3), 2)
        rr = sd.RicParams(mu_r, e_r, mu_f, e_f)
        if not sd.zeno_free(rr):
            continue
        bound = min(e_f - e_r + mu_r, e_r - e_f + mu_f)
        toggles = sorted(rng.sample([F(i, 4) for i in range(0, 9)],
                                    rng.randrange(0, 4)))
        uu = StepFunction.from_toggles(rng.randrange(2), toggles)
        for x in enumerate_grid_solutions(uu, sd.Ric(rr), grid):
            checked += 1
            gaps = [b - a for a, b in zip(x.bps, x.bps[1:])]
            if any(g < bound for g in gaps):
                gap_ok = False
    ok = accepted and gap_ok and checked > 100
    record_acceptance(8, "Zeno witnesses accepted; zeno-free gaps bounded", ok,
                      f"{checked} accepted traces inspected")
    assert accepted
    assert gap_ok
    assert checked > 100


# ---------------------------------------------------------------------------
# 9. Signal-calculus law suite
# ---------------------------------------------------------------------------

def test_criterion_9_law_suite():
    started = time.perf_counter()
    rng = random.Random(99)
    trials = 1000
    for _ in range(trials):
        f = rand_stepfn(rng, n_max=4)
        g = rand_stepfn(rng, n_max=4)
        u = rand_signal(rng, n_max=4)
        d = F(rng.randrange(0, 7), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        c = F(rng.randrange(-4, 5), 2)

        # derivative laws
        assert (~f).derivative() == f.derivative()
        assert (f ^ g).derivative() == f.derivative() ^ g.derivative()
        df, dg = f.derivative(), g.derivative()
        assert (f & g).derivative() == (f & dg) ^ (g & df) ^ (df & dg)
        # iterated limits
        fm = f.left_limit()
        assert fm.left_limit() == fm
        assert fm.right_limit() == f.right_limit()
        assert df.derivative() == df
        assert df.right_derivative() == df
        # translation compatibility
        assert df.shift(c) == f.shift(c).derivative()
        assert window_inf(u, d, m).shift(c) == window_inf(u.shift(c), d, m)
        # window one-sided limits in closed form
        phi, psi = window_inf(u, d, m), window_sup(u, d, m)
        ul = u.left_limit()
        inf_ho = window(u, "inf", -d, -d + m, include_end=False)
        sup_ho = window(u, "sup", -d, -d + m, include_end=False)
        assert phi.left_limit() == ul.shift(d) & inf_ho
        assert psi.left_limit() == ul.shift(d) | sup_ho
        assert phi.rises() == ~ul.shift(d) & phi
        assert psi.falls() == ul.shift(d) & ~psi
        # closure under windows and shifts
        assert phi.is_signal() and psi.is_signal()
        assert u.shift(d).is_signal()
        # open-lookback window identity
        if d > 0:
            quiet = ~window(u.derivative(), "sup", -d, 0,
                            include_start=False, include_end=False)
            assert window_inf_halfopen(u, d) == (ul & quiet)
        # grid-oracle agreement at every probe point
        for t in probe_points([u, phi, psi], [0, d, d - m]):
            assert phi.value(t) == brute_window(
                u.leading, u.bps, "inf", t - d, t - d + m, True, True)
            assert psi.value(t) == brute_window(
                u.leading, u.bps, "sup", t - d, t - d + m, True, True)
            assert ul.value(t) == brute_left_value(u.leading, u.bps, t)
            assert u.value(t) == brute_value(u.leading, u.bps, t)
    elapsed = time.perf_counter() - started
    record_acceptance(9, "signal-calculus law suite (1000 trials each)", True,
                      f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. Round trips
# ---------------------------------------------------------------------------

def test_criterion_10_round_trips(tmp_path):
    rng = random.Random(1010)
    # signal file: parse -> emit is idempotent
    for _ in range(50):
        sigs = {f"s{i}": rand_signal(rng) for i in range(4)}
        text = "\n".join(sd.format_signal_literal(k, v) for k, v in sigs.items())
        emitted = "\n".join(sd.format_signal_literal(k, v)
                            for k, v in sd.parse_signal_file(text).items())
        assert emitted == text

    # every builtin: simulate -> VCD -> import -> conformance
    u = rand_signal(rng, n_max=4)
    v = rand_signal(rng, n_max=4)
    if v.leading != u.leading:
        v = ~v
    cases = [
        ("delay-buffer", {}, {"u": u}),
        ("delay-feedback", {}, {}),
        ("not-gate-wire", {}, {"u": u}),
        ("not-feedback", {"m1": sd.Fixed(1), "m2": sd.Fixed(2), "x0": 0}, {}),
        ("delay-line-falling", {}, {"u": u}),
        ("transient-oscillator", {}, {"u": StepFunction.const(1)}),
        ("c-element", {}, {"u": u, "v": v}),
    ]
    for name, params, inputs in cases:
        n = builtin(name, **params)
        w = simulate(n, inputs, 20)
        back = import_vcd(export_vcd(w))
        assert back.signals == w.signals, name
        assert back.horizon == w.horizon, name
        report = sd.check_trace_conformance(n, {}, back)
        assert report.ok, (name, report)

    # and through the actual command line
    net = tmp_path / "loop.net"
    net.write_text(format_netlist(builtin("not-feedback", x0=0)))
    dump = tmp_path / "loop.vcd"
    assert main(["simulate", "--netlist", str(net), "--until", "10",
                 "--format", "vcd", "--out", str(dump)]) == 0
    again = import_vcd(dump.read_text())
    assert again.signals["x"] == StepFunction.from_toggles(0, [0, 2, 4, 6, 8, 10])
    record_acceptance(10, "signal files idempotent; VCD round-trips conform", True)
