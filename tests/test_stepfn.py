"""Core step-function algebra: frozen examples, laws, probe-oracle agreement."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import stepfn
from sigdelay.stepfn import (
    StepFunction,
    _read_time,
    as_time,
    chi,
    chi_point,
    pulses,
    window,
    window_inf,
    window_inf_halfopen,
    window_sup,
    window_sup_halfopen,
)
from sigdelay.solvers import brute_left_value, brute_value, brute_window

from conftest import counted_calls, probe_points, rand_signal, rand_stepfn


# ---------------------------------------------------------------------------
# Constructors and canonical form
# ---------------------------------------------------------------------------

def test_from_toggles_examples():
    assert StepFunction.from_toggles(0, [0, 2]) == chi(0, 2)
    assert StepFunction.from_toggles(1, []) == StepFunction.const(1)
    assert StepFunction.from_toggles(0, [1, 3, F(9, 2)]) == chi(1, 3) ^ chi(F(9, 2), None)


def test_from_toggles_rejects_unsorted():
    with pytest.raises(ValueError):
        StepFunction.from_toggles(0, [2, 1])
    with pytest.raises(ValueError):
        StepFunction.from_toggles(0, [1, 1])


def test_canonicalization_drops_silent_breakpoints():
    messy = StepFunction(0, [0, 1, 2], [1, 1, 0], [1, 1, 0])
    assert messy == chi(0, 2)
    assert messy.bps == (F(0), F(2))
    # a breakpoint carrying only a point value survives
    spike = StepFunction(0, [1], [1], [0])
    assert spike == chi_point(1)
    assert spike.bps == (F(1),)


def test_canonicalization_is_idempotent(rng):
    for _ in range(100):
        f = rand_stepfn(rng)
        again = StepFunction(f.leading, f.bps, f.at, f.right)
        assert again == f
        assert (again.leading, again.bps, again.at, again.right) \
            == (f.leading, f.bps, f.at, f.right)


def test_equality_is_pointwise(rng):
    for _ in range(200):
        f = rand_stepfn(rng)
        g = rand_stepfn(rng)
        same = all(f.value(t) == g.value(t) for t in probe_points([f, g]))
        assert (f == g) == same


def test_from_toggles_validates_in_the_constructor():
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        StepFunction.from_toggles(0, [2, 1])
    with pytest.raises(ValueError, match="toggle times of 'u' must be strictly increasing"):
        sd.parse_signal_literal("u: 0 @ 2, 1")


def test_float_times_rejected():
    with pytest.raises(TypeError):
        StepFunction.from_toggles(0, [0.5])
    with pytest.raises(TypeError):
        chi(0, 1).shift(0.25)


# ---------------------------------------------------------------------------
# Boolean algebra
# ---------------------------------------------------------------------------

def test_pointwise_examples():
    assert (chi(0, 2) & chi(1, 3)) == chi(1, 2)
    assert ~chi(0, None) == chi(None, 0)


def test_xor_self_is_zero(rng):
    for _ in range(50):
        f = rand_stepfn(rng)
        assert (f ^ f) == StepFunction.const(0)


def test_de_morgan_and_ring_laws(rng):
    for _ in range(200):
        f, g, h = (rand_stepfn(rng) for _ in range(3))
        assert ~(f | g) == (~f & ~g)
        assert ~(f & g) == (~f | ~g)
        assert (f ^ g) == (g ^ f)
        assert ((f ^ g) ^ h) == (f ^ (g ^ h))
        assert (f ^ StepFunction.const(0)) == f
        assert (f & (g | h)) == ((f & g) | (f & h))


def test_order_is_pointwise(rng):
    for _ in range(100):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        expected = all(f.value(t) <= g.value(t) for t in probe_points([f, g]))
        assert (f <= g) == expected


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def test_shift_examples():
    assert chi(0, None).shift(2) == chi(2, None)
    shifted = chi(0, None).shift(-1)
    assert shifted == chi(-1, None)
    assert not shifted.is_signal()


def test_shift_composes(rng):
    for _ in range(50):
        f = rand_stepfn(rng)
        a, b = F(rng.randrange(-6, 6), 2), F(rng.randrange(-6, 6), 2)
        assert f.shift(a).shift(b) == f.shift(a + b)


def test_shift_preserves_signal_for_nonnegative(rng):
    for _ in range(50):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 8), 2)
        assert u.shift(d).is_signal()


# ---------------------------------------------------------------------------
# Limits and derivatives
# ---------------------------------------------------------------------------

def mixed_continuity_function():
    return chi(0, 1, True, True) ^ chi_point(2)


def test_limits_of_mixed_continuity_function():
    f = mixed_continuity_function()
    assert f.left_limit() == chi(0, 1, False, True)
    assert f.right_limit() == chi(0, 1)
    assert f.derivative() == chi_point(0) ^ chi_point(2)
    assert f.right_derivative() == chi_point(1) ^ chi_point(2)
    assert not f.is_signal()


def test_derivative_of_constant():
    for c in (0, 1):
        assert StepFunction.const(c).derivative() == StepFunction.const(0)


def test_iterated_limits(rng):
    for _ in range(200):
        f = rand_stepfn(rng)
        fm, fp = f.left_limit(), f.right_limit()
        assert fm.left_limit() == fm
        assert fm.right_limit() == fp
        assert fp.right_limit() == fp
        assert fp.left_limit() == fm
        assert f.derivative().derivative() == f.derivative()
        assert f.derivative().right_derivative() == f.derivative()


def test_derivative_laws(rng):
    for _ in range(200):
        f, g = rand_stepfn(rng), rand_stepfn(rng)
        assert (~f).derivative() == f.derivative()
        assert (f ^ g).derivative() == f.derivative() ^ g.derivative()
        df, dg = f.derivative(), g.derivative()
        assert (f & g).derivative() == (f & dg) ^ (g & df) ^ (df & dg)


def test_translation_compatibility(rng):
    for _ in range(100):
        f = rand_stepfn(rng)
        d = F(rng.randrange(-8, 8), 2)
        assert f.derivative().shift(d) == f.shift(d).derivative()
        assert f.left_limit().shift(d) == f.shift(d).left_limit()
        assert f.right_derivative().shift(d) == f.shift(d).right_derivative()


def test_semi_derivatives_sum_to_derivatives(rng):
    for _ in range(100):
        f = rand_stepfn(rng)
        assert (f.semi_derivative("01-left") | f.semi_derivative("10-left")) \
            == f.derivative()
        assert (f.semi_derivative("01-right") | f.semi_derivative("10-right")) \
            == f.right_derivative()


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def test_window_examples():
    assert window_inf(chi(0, None), 3, 1) == chi(3, None)
    assert window_inf(chi(0, 5), 2, 1) == chi(2, 6)
    assert window_sup(chi(None, 0), 3, 1) == chi(None, 3)


def test_window_with_zero_memory_is_shift(rng):
    for _ in range(50):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 8), 2)
        assert window_inf(u, d, 0) == u.shift(d)
        assert window_sup(u, d, 0) == u.shift(d)


def test_window_rejects_bad_memory():
    u = chi(0, None)
    with pytest.raises(ValueError):
        window_inf(u, 1, 2)
    with pytest.raises(ValueError):
        window_sup(u, 1, F(-1, 2))


def test_halfopen_window_examples():
    assert window_inf_halfopen(~chi(0, None), 2) == chi(None, 0, hi_closed=True)
    assert window_inf_halfopen(chi(0, None), 2) == chi(2, None)


def test_halfopen_window_rejects_nonpositive():
    with pytest.raises(ValueError):
        window_inf_halfopen(chi(0, None), 0)
    with pytest.raises(ValueError):
        window_sup_halfopen(chi(0, None), -1)


def test_windows_preserve_signals(rng):
    for _ in range(100):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        assert window_inf(u, d, m).is_signal()
        assert window_sup(u, d, m).is_signal()


def test_window_translation_compatibility(rng):
    for _ in range(80):
        u = rand_stepfn(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        c = F(rng.randrange(-6, 7), 2)
        assert window_inf(u, d, m).shift(c) == window_inf(u.shift(c), d, m)
        assert window_sup(u, d, m).shift(c) == window_sup(u.shift(c), d, m)


def test_window_onesided_limit_formulas(rng):
    # left/right limits of the sliding extrema in closed form
    for _ in range(150):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        phi, psi = window_inf(u, d, m), window_sup(u, d, m)
        ul = u.left_limit()
        inf_ho = window(u, "inf", -d, -d + m, include_end=False)
        sup_ho = window(u, "sup", -d, -d + m, include_end=False)
        inf_oh = window(u, "inf", -d, -d + m, include_start=False)
        sup_oh = window(u, "sup", -d, -d + m, include_start=False)
        assert phi.left_limit() == ul.shift(d) & inf_ho
        assert psi.left_limit() == ul.shift(d) | sup_ho
        assert phi.right_limit() == inf_oh & u.right_limit().shift(d - m)
        assert psi.right_limit() == sup_oh | u.right_limit().shift(d - m)


def test_window_semi_derivative_formulas(rng):
    for _ in range(150):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        phi, psi = window_inf(u, d, m), window_sup(u, d, m)
        ul_d = u.left_limit().shift(d)
        inf_ho = window(u, "inf", -d, -d + m, include_end=False)
        sup_ho = window(u, "sup", -d, -d + m, include_end=False)
        assert phi.rises() == ~ul_d & phi
        assert phi.falls() == ul_d & inf_ho & ~u.shift(d - m)
        assert psi.rises() == ~ul_d & ~sup_ho & u.shift(d - m)
        assert psi.falls() == ul_d & ~psi


def test_halfopen_window_via_derivative_quiet_zone(rng):
    # inf over [t-d, t) equals u(t-0) wherever no switch falls in (t-d, t)
    for _ in range(150):
        u = rand_signal(rng)
        d = F(rng.randrange(1, 9), 2)
        quiet = ~window(u.derivative(), "sup", -d, 0,
                        include_start=False, include_end=False)
        assert window_inf_halfopen(u, d) == (u.left_limit() & quiet)
        assert window_inf_halfopen(~u, d) == (~u.left_limit() & quiet)


def test_window_against_brute_force(rng):
    for _ in range(150):
        u = rand_signal(rng)
        d = F(rng.randrange(0, 9), 2)
        m = F(rng.randrange(0, int(d * 2) + 1), 2)
        got_inf, got_sup = window_inf(u, d, m), window_sup(u, d, m)
        pts = probe_points([u, got_inf, got_sup], [0, d, d - m, -d, m - d])
        for t in pts:
            assert got_inf.value(t) == brute_window(
                u.leading, u.bps, "inf", t - d, t - d + m, True, True)
            assert got_sup.value(t) == brute_window(
                u.leading, u.bps, "sup", t - d, t - d + m, True, True)
        if d > 0:
            ho = window_inf_halfopen(u, d)
            for t in probe_points([u, ho], [0, d, -d]):
                assert ho.value(t) == brute_window(
                    u.leading, u.bps, "inf", t - d, t, True, False)


def test_limits_against_brute_force(rng):
    for _ in range(100):
        u = rand_signal(rng)
        lm, rm = u.left_limit(), u.right_limit()
        for t in probe_points([u]):
            assert u.value(t) == brute_value(u.leading, u.bps, t)
            assert lm.value(t) == brute_left_value(u.leading, u.bps, t)
            assert rm.value(t) == brute_value(u.leading, u.bps, t)


# ---------------------------------------------------------------------------
# Support, classification, pulses
# ---------------------------------------------------------------------------

def test_support_examples():
    f = chi(0, 2) ^ chi_point(3)
    assert str(f.support()) == "[0, 2) u [3, 3]"
    assert str(StepFunction.const(0).support()) == "{}"
    assert str(chi(None, 1).support()) == "(-oo, 1)"


def test_support_partition(rng):
    for _ in range(100):
        f = rand_stepfn(rng)
        s, z = f.support(), f.zero_set()
        for t in probe_points([f]):
            assert s.contains(t) == (f.value(t) == 1)
            assert z.contains(t) == (f.value(t) == 0)


def test_is_signal_examples():
    assert not chi(-1, None).is_signal()
    assert not mixed_continuity_function().is_signal()
    assert chi(0, None).is_signal()
    assert StepFunction.const(1).is_signal()


@pytest.mark.parametrize("first, signal", [
    (F(-1, 3), False), (-1, False), (F(-1, 10 ** 30), False),
    (0, True), (F(0), True), (F(1, 10 ** 30), True)])
def test_is_signal_reads_the_sign_of_the_first_breakpoint(first, signal):
    # Fraction and int (tick) breakpoints, down to a hair either side of 0
    assert StepFunction._from_toggles(0, (first, 5)).is_signal() is signal


_LOOKUPS = ("value", "left_value", "right_value")
_POINTS = [-1, 0, 1, 2, 3, 5, 7, 8, F(-1, 2), F(1, 2), F(5, 2), F(7, 3), F(7, 2),
           "5/2", "7/2", "1/3", "-1", "3"]


@pytest.mark.parametrize("in_ticks", [False, True])
def test_point_lookups_keep_an_int_and_agree_with_as_time(monkeypatch, in_ticks):
    # a point value apart from both limits at 2, and breakpoints on halves
    f = mixed_continuity_function() ^ chi(F(5, 2), F(7, 2), False, True)
    g = f._to_ticks(2) if in_ticks else f
    times = counted_calls(monkeypatch, stepfn, "as_time")
    for name in _LOOKUPS:
        for t in _POINTS:
            got = getattr(g, name)(t)
            assert got == getattr(g, name)(as_time(t))
            if in_ticks:  # t ticks of 1/2 are the time t/2 of f
                assert got == getattr(f, name)(as_time(t) / 2)
        del times[:]
        assert [getattr(g, name)(t) for t in _POINTS if type(t) is int]
        assert times == []  # an int is looked up as it is
        with pytest.raises(TypeError):
            getattr(g, name)(0.5)
    assert g(F(1, 2)) == g.value(F(1, 2))


def test_limit_at_infinity(rng):
    for _ in range(50):
        f = rand_stepfn(rng)
        far = (f.bps[-1] + 5) if f.bps else F(0)
        assert f.limit_at_infinity() == f.value(far)


def test_pulses_example():
    report = pulses(chi(1, 3))
    assert len(report) == 1
    p = report[0]
    assert (p.kind, p.start, p.end, p.length) == ("one-pulse", F(1), F(3), F(2))


def test_pulses_alternate(rng):
    for _ in range(50):
        u = rand_signal(rng)
        report = pulses(u)
        assert len(report) == max(0, len(u.bps) - 1)
        for p in report:
            assert p.length == p.end - p.start > 0
            value = u.value(p.start)
            assert p.kind == ("one-pulse" if value else "zero-pulse")
            assert u.left_value(p.start) == 1 - value
            assert u.value(p.end) == 1 - value


def test_truncate(rng):
    for _ in range(50):
        f = rand_stepfn(rng)
        h = F(rng.randrange(-4, 20), 2)
        g = f.truncate(h)
        for t in probe_points([f, g]):
            if t <= h:
                assert g.value(t) == f.value(t)
        assert all(b <= h for b in g.bps)


# ---------------------------------------------------------------------------
# Hypothesis: algebra closure on arbitrary inputs
# ---------------------------------------------------------------------------

times = st.integers(-12, 12).map(lambda n: F(n, 2))


@st.composite
def stepfns(draw):
    bps = sorted(draw(st.sets(times, max_size=4)))
    at = [draw(st.integers(0, 1)) for _ in bps]
    right = [draw(st.integers(0, 1)) for _ in bps]
    return StepFunction(draw(st.integers(0, 1)), bps, at, right)


@settings(max_examples=200, deadline=None)
@given(stepfns(), stepfns())
def test_hypothesis_absorption_laws(f, g):
    assert (f & (f | g)) == f
    assert (f | (f & g)) == f
    assert ~~f == f


@settings(max_examples=200, deadline=None)
@given(stepfns())
def test_hypothesis_limit_projections(f):
    assert f.left_limit().is_right_continuous() or f.left_limit().bps
    assert f.right_limit().is_right_continuous()
    # the left limit is left-continuous: its point values match from the left
    fl = f.left_limit()
    for b in fl.bps:
        assert fl.value(b) == fl.left_value(b)


# ---------------------------------------------------------------------------
# Signal literal format
# ---------------------------------------------------------------------------

def test_parse_signal_literal():
    name, sig = sd.parse_signal_literal("u: 0 @ 0, 5/2")
    assert name == "u"
    assert sig == chi(0, F(5, 2))
    name, sig = sd.parse_signal_literal("v: 1")
    assert (name, sig) == ("v", StepFunction.const(1))


@pytest.mark.parametrize("bad", [
    "u 0 @ 1",          # missing colon
    "u: 2 @ 1",         # bad initial
    "u: 0 @ 2, 1",      # not increasing
    "u: 0 @ 0.1.2",     # bad number
    ": 0 @ 1",          # empty name
])
def test_parse_signal_literal_rejects(bad):
    with pytest.raises(ValueError):
        sd.parse_signal_literal(bad)


@pytest.mark.parametrize("tok, want", [
    ("2", (2, 1)), ("07/014", (7, 14)), ("0.5", (1, 2)), ("1e3", (1000, 1)),
    ("-1", (-1, 1)), ("\u0663", (3, 1)),  # ARABIC-INDIC DIGIT THREE
    ("1/0", "Fraction(1, 0)"), ("", "Invalid literal for Fraction: ''")])
def test_time_token_reader(tok, want):
    """The signal literals and the model specs read a time token one way,
    as ``Fraction(tok)`` does, and keep their messages on a bad one."""
    if isinstance(want, tuple):
        assert _read_time(tok) == want and F(*want) == F(tok)
        if want[0] >= 0:
            assert sd.parse_model(f"fixed d={tok}").d == F(tok)
        return
    with pytest.raises((ValueError, ZeroDivisionError)) as exc:
        F(tok)
    assert str(exc.value) == want
    with pytest.raises(type(exc.value), match=f"^{re.escape(want)}$"):
        _read_time(tok)
    with pytest.raises(ValueError) as err:
        sd.parse_model(f"fixed d={tok}")
    assert str(err.value) == f"bad number {tok!r} for 'd': {want}"
    if tok:  # an empty time is skipped
        with pytest.raises(ValueError) as err:
            sd.parse_signal_literal(f"u: 0 @ {tok}")
        assert str(err.value) == f"bad time {tok!r} in signal 'u': {want}"


def reference_parse(line: str):
    """The parser with every time read by ``Fraction(tok)`` and ordered by
    Fraction comparisons: the oracle of the integer fast path."""
    name, _, rest = line.partition(":")
    name, rest = name.strip(), rest.strip()
    init_txt, _, times_txt = rest.partition("@")
    toggles = []
    for tok in times_txt.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            toggles.append(F(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad time {tok!r} in signal {name!r}: {exc}") from exc
    if any(a >= b for a, b in zip(toggles, toggles[1:])):
        raise ValueError(f"toggle times of {name!r} must be strictly increasing")
    return name, StepFunction.from_toggles(int(init_txt.strip()), toggles)


def outcome(parse, line):
    try:
        name, sig = parse(line)
    except ValueError as exc:
        return str(exc)
    assert all(type(t) is F for t in sig.bps)
    return name, sig


_digits = st.integers(0, 10**6).map(str)
_zeros = st.integers(0, 3).map(lambda n: "0" * n)
time_tokens = st.one_of(
    _digits,                                                   # ints
    st.builds(lambda z, n: z + n, _zeros, _digits),            # leading zeros
    st.builds(lambda p, z, q: f"{p}/{z}{q}", _digits, _zeros,  # p/q, 0/5, 3/0
              st.one_of(st.just("0"), _digits)),
    st.builds(lambda p, q: f"{p}/-{q}", _digits, _digits),     # 1/-2
    st.builds(lambda s, n: s + n, st.sampled_from("+-"), _digits),
    st.sampled_from(["1.5", ".5", "5.", "0.25", "1e3", "2E-1", "1.5e1", "1_000",
                     "1__0", "_1", "1_", "1/1_0", "\u0663", "\u00b2", "\uff13",
                     "1/\u0662", "\u0661/2", "1/2/3", "/2", "1/", "1 / 2", "0x1",
                     "nan", "inf", "-0", "00/07"]),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(time_tokens, max_size=6), st.booleans())
@example(["007", "0/5", "3/0"], False)
@example(["0/5", "3", "1/-2"], False)
@example(["1.5", "1e3", "1_000"], False)
@example(["-1", "+2", "\u0663", "1/\u0662", "\uff13"], True)
@example(["\u00b2"], False)
def test_parser_fast_path_matches_fraction_parsing(tokens, ordered):
    if ordered:  # the valid times in increasing order, to reach the signal
        def value(tok):
            try:
                return F(tok)
            except (ValueError, ZeroDivisionError):
                return None
        tokens = sorted((t for t in tokens if value(t) is not None), key=value)
    line = "u: 0 @ " + ", ".join(tokens)
    assert outcome(sd.parse_signal_literal, line) == outcome(reference_parse, line)


def test_parsing_integer_and_fraction_times_compares_no_fractions(monkeypatch):
    ints = "u: 0 @ " + ", ".join(str(3 * k + 1) for k in range(2000))
    fracs = "u: 1 @ " + ", ".join(f"{2 * k * d + 1}/{d}"  # 2k + 1/d
                                  for k, d in ((k, k % 5 + 1) for k in range(2000)))
    calls = 0
    richcmp = F._richcmp

    def counted(self, other, op):
        nonlocal calls
        calls += 1
        return richcmp(self, other, op)
    monkeypatch.setattr(F, "_richcmp", counted)
    _, u = sd.parse_signal_literal(ints)
    _, x = sd.parse_signal_literal(fracs)
    assert calls == 0
    monkeypatch.undo()
    assert len(u.bps) == 2000 and u.bps[-1] == 5998
    assert x == reference_parse(fracs)[1]


def test_signal_file_errors_name_the_line():
    with pytest.raises(ValueError) as info:
        sd.parse_signal_file("a: 0 @ 1\nb: 0 @ 2, 1\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ValueError) as info:
        sd.parse_signal_file("a: 0\na: 1\n")
    assert "duplicate" in str(info.value)


def test_signal_file_round_trip(rng):
    for _ in range(50):
        sigs = {f"n{i}": rand_signal(rng) for i in range(3)}
        text = "\n".join(sd.format_signal_literal(k, v) for k, v in sigs.items())
        assert sd.parse_signal_file(text) == sigs
        again = "\n".join(sd.format_signal_literal(k, v)
                          for k, v in sd.parse_signal_file(text).items())
        assert again == text
