"""The CLI's waveform writers against the Fraction-based reference
writers, and the one reader of time tokens.

``sigdelay simulate`` writes its waveforms from the simulator's integer
ticks (``simulate(..., _ticks=True)``); ``reference_writers`` formats the
public ``simulate`` result, in Fractions, as the writers did before.
"""

import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import cli
from sigdelay.circuit import WaveformSet, builtin, format_netlist, parse_netlist, simulate
from sigdelay.stepfn import (StepFunction, _decimal, _read_fraction, _to_ticks,
                             as_time, format_signal_literal, format_time)
from sigdelay.vcd import export_vcd, import_vcd

import reference_writers
from conftest import fractions_made

# above the 8,192-bit timebase bound: a time over it makes the simulation run on Fractions
_HUGE = 2 ** 8200 + 1

ORACLE = {"ascii": reference_writers.render_ascii, "vcd": reference_writers.export_vcd,
          "json-report": reference_writers.waveforms_json}

delays = st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3, 7]))
input_times = st.lists(st.builds(F, st.integers(0, 30), st.sampled_from([1, 2, 3, 7])),
                       max_size=8, unique=True).map(sorted)


def delay_model(kind, d):
    return sd.Fixed(d) if kind == "fixed" else sd.SdbridcPrime(d)


def dbridc(s):
    """The C-element's default ``dbridc mr=1 dr=2 mf=1 df=2``, scaled by s."""
    return sd.parse_model(f"dbridc mr={s} dr={2 * s} mf={s} df={2 * s}")


@st.composite
def circuits(draw):
    """(netlist text, input signals) of a worked circuit."""
    name = draw(st.sampled_from(["not-feedback", "c-element", "delay-line-falling"]))
    kinds = st.sampled_from(["fixed", "sdbridc"])
    if name == "not-feedback":
        n = builtin(name, m1=delay_model(draw(kinds), draw(delays)),
                    m2=delay_model(draw(kinds), draw(delays)), x0=draw(st.integers(0, 1)))
        return format_netlist(n), {}
    if name == "c-element":
        n = builtin(name, layer=dbridc(draw(delays)), out=dbridc(draw(delays)))
        lead = draw(st.integers(0, 1))  # u and v start alike, so x's initial value is known
        return format_netlist(n), {"u": StepFunction.from_toggles(lead, draw(input_times)),
                                   "v": StepFunction.from_toggles(lead, draw(input_times))}
    models = [delay_model(draw(kinds), draw(delays)) for _ in range(6)]
    n = builtin(name, models=models)
    return format_netlist(n), {"u": StepFunction.from_toggles(draw(st.integers(0, 1)),
                                                              draw(input_times))}


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def net_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


_ring = "gate NOT x v\ndelay y x fixed d=1/3\ndelay v y fixed d=1/2\ninit x 0\n"


@settings(max_examples=120, deadline=None)
@given(circuit=circuits(),
       until=st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 5, 7, 11])),
       fmt=st.sampled_from(["ascii", "vcd", "json-report"]))
@example(circuit=(_ring, {}), until=F(9, 4), fmt="vcd")  # the 4 is the horizon's alone
@example(circuit=(_ring, {}), until=F(38, 5), fmt="json-report")
@example(circuit=(format_netlist(builtin("delay-line-falling")),
                  {"u": StepFunction.from_toggles(0, [F(1, _HUGE), F(7, 2)])}),
         until=F(10), fmt="vcd")  # above the timebase bound: no ticks
@example(circuit=(format_netlist(builtin("c-element")),
                  {"u": StepFunction.from_toggles(1, [F(1, _HUGE), 3]),
                   "v": StepFunction.from_toggles(1, [F(1, 3)])}),
         until=F(9, 2), fmt="json-report")
def test_simulate_prints_what_the_fraction_writers_write(net_dir, circuit, until, fmt):
    text, inputs = circuit
    path = net_dir / "circuit.net"
    path.write_text(text)
    argv = ["simulate", "--netlist", str(path), "--until", format_time(until),
            "--format", fmt]
    for name, sig in inputs.items():
        argv += ["--input", format_signal_literal(name, sig)]
    n = parse_netlist(text)
    w = simulate(n, inputs, until)
    assert run(argv) == (0, ORACLE[fmt](w), "")

    ticked = simulate(n, inputs, until, _ticks=True)
    assert ticked._in_time() == w
    k = ticked.timebase
    if k is None:  # the timebase is above its bound
        assert ticked == w
    else:
        assert all(type(t) is int for f in ticked.signals.values() for t in f.bps)
        assert ticked.horizon == until * k
        assert export_vcd(ticked) == export_vcd(w)


def test_simulate_makes_no_fraction_per_toggle(tmp_path, monkeypatch):
    path = tmp_path / "ring.net"
    path.write_text(_ring)

    def made(until, fmt):
        argv = ["simulate", "--netlist", str(path), "--until", until, "--format", fmt]
        (code, out, _), count = fractions_made(monkeypatch, lambda: run(argv))
        assert code == 0
        return count, out

    for fmt in ("ascii", "vcd", "json-report"):
        short, out = made("9/4", fmt)
        long, _ = made("600", fmt)
        assert short == long, fmt
    assert out.count('"') > 8  # the short run printed toggles


def test_import_vcd_makes_one_fraction_per_toggle(monkeypatch):
    def made(n):
        w = WaveformSet({"x": StepFunction.from_toggles(0, [F(i, 3) for i in range(n)])}, F(n))
        text = export_vcd(w)
        back, count = fractions_made(monkeypatch, lambda: import_vcd(text))
        assert back == w
        return count

    assert made(400) - made(100) <= 300


@pytest.mark.parametrize("w", [
    WaveformSet({"a": StepFunction.from_toggles(1, [0, F(3, 2), F(8, 3)]),
                 "b": StepFunction.const(0)}, F(4)),
    WaveformSet({"a": StepFunction.from_toggles(0, [0]), "b": StepFunction.const(1)}, F(0)),
    WaveformSet({"b": StepFunction.const(1)}, F(5, 6)),
    WaveformSet({}, F(7, 2)),
])
def test_export_vcd_of_a_ticked_set_is_export_vcd_of_the_set_in_time(w):
    for k in (6, 12, 42):  # multiples of every denominator, so the writers must reduce
        k *= w.horizon.denominator
        ticked = WaveformSet({net: f._to_ticks(k) for net, f in w.signals.items()},
                             _to_ticks(w.horizon, k), k)
        assert type(ticked.horizon) is int and ticked._in_time() == w
        text = export_vcd(ticked)
        assert text == export_vcd(w) == reference_writers.export_vcd(w)
        assert import_vcd(text) == w
        assert cli.waveforms_json(ticked) == reference_writers.waveforms_json(w)
        assert cli.render_ascii(ticked) == reference_writers.render_ascii(w)


@contextlib.contextmanager
def _int_digits(limit):
    """CPython's limit on the digits of an int written as text set to
    ``limit`` (0: none) for the block, where the interpreter has one."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    before = sys.get_int_max_str_digits()
    setter(limit)
    try:
        yield
    finally:
        setter(before)


_WRITERS = [(cli.waveforms_json, reference_writers.waveforms_json),
            (export_vcd, reference_writers.export_vcd),
            (cli.render_ascii, reference_writers.render_ascii)]


@pytest.mark.parametrize("w", [
    WaveformSet({'a"b': StepFunction.from_toggles(0, [F(1, 3), 2]),
                 "a\\b": StepFunction.const(1),
                 "\u00fc": StepFunction.from_toggles(1, [0, F(5, 2)])}, F(3)),
    WaveformSet({}, F(0)),
    WaveformSet({}, F(7, 2)),
    WaveformSet({"b": StepFunction.const(0)}, F(5, 6)),
    WaveformSet({"x": StepFunction.from_toggles(0, [F(1, 10 ** 4300), 1])}, F(10 ** 4300)),
], ids=["escaped-names", "empty-at-0", "empty", "no-toggles", "4301-digits"])
def test_writers_match_the_reference_on_names_empty_sets_and_long_times(w):
    # the last set's denominator and horizon have 4,301 digits, past what
    # str writes under CPython's default limit: the writers take _decimal
    with _int_digits(0):  # the reference writers call str on every int
        expected = [reference(w) for _, reference in _WRITERS]
    k = 6 * math.lcm(w.horizon.denominator,
                     *(b.denominator for f in w.signals.values() for b in f.bps))
    ticked = WaveformSet({net: f._to_ticks(k) for net, f in w.signals.items()},
                         _to_ticks(w.horizon, k), k)
    with _int_digits(4300):
        assert [write(w) for write, _ in _WRITERS] == expected
        assert [write(ticked) for write, _ in _WRITERS] == expected
    assert list(json.loads(expected[0])["nets"]) == list(w.signals)


def test_format_ticks_reduces_like_a_fraction():
    for k in (1, 2, 6, 7, 12, 2 ** 70):
        for t in (0, 1, 2, 3, 5, 6, 12, 35, 2 ** 71 + 6):
            assert format_time(t, k) == format_time(F(t, k))
    assert format_time(F(5, 2), None) == "5/2"


# ---------------------------------------------------------------------------
# Decimal exponents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tok", ["1e4300", "1E-4300", "2.5e+4300", "1e04300", "3e0"])
def test_an_exponent_up_to_4300_is_read(tok):
    assert _read_fraction(tok) == F(tok)
    assert as_time(tok) == F(tok)


@pytest.mark.parametrize("tok", ["1e4301", "1E-4301", "1e+04301", "1e99999", "1e-999999999",
                                 " 1e999999999 "])
def test_an_exponent_beyond_4300_is_refused_naming_the_token(tok):
    for read in (_read_fraction, as_time):
        with pytest.raises(ValueError, match="decimal exponent outside -4300..4300") as exc:
            read(tok)
        assert repr(tok) in str(exc.value)


@pytest.mark.parametrize("argv, token", [
    (["simulate", "--until", "1e999999999"], "1e999999999"),
    (["check", "--model", "fixed d=1", "--state", "x: 0 @ 1", "--until", "1e999999999"],
     "1e999999999"),
    (["check", "--model", "fixed d=1", "--state", "x: 0 @ 1e-999999999"], "1e-999999999"),
    (["check", "--model", "fixed d=1e999999999", "--state", "x: 0"], "1e999999999"),
    (["simulate", "--until", "4", "--input", "u: 0 @ 1e999999999"], "1e999999999"),
    (["sample", "--model", "fixed d=1e4301", "--input", "u: 0 @ 1"], "1e4301"),
])
def test_a_short_token_with_a_huge_exponent_exits_2_at_once(tmp_path, argv, token):
    if argv[0] == "simulate":
        path = tmp_path / "buf.net"
        path.write_text("input u\ndelay x u fixed d=1\n" if "--input" in argv else _ring)
        argv = [*argv, "--netlist", str(path)]
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert repr(token) in err and "decimal exponent outside -4300..4300" in err


def test_a_vcd_horizon_with_a_huge_exponent_is_refused():
    text = export_vcd(WaveformSet({"x": StepFunction.from_toggles(0, [1])}, F(2)))
    bad = text.replace("horizon=2", "horizon=1e999999999")
    with pytest.raises(ValueError, match="^line 1: bad horizon 'horizon=1e999999999'"):
        import_vcd(bad)
    assert import_vcd(text.replace("horizon=2", "horizon=1e4300")).horizon == 10 ** 4300


def test_a_netlist_parameter_with_a_huge_exponent_names_its_line(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("input u\ndelay x u fixed d=1e999999999\n")
    code, out, err = run(["simulate", "--netlist", str(path), "--until", "4",
                          "--input", "u: 0 @ 1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: bad number '1e999999999' for 'd': ")


# ---------------------------------------------------------------------------
# Times past CPython's limit on writing an int as text
# ---------------------------------------------------------------------------

_BIG = "1" + "0" * 4300  # 10**4300: 4,301 digits, one over the limit
_BIG_PLUS_1 = _BIG[:-1] + "1"


def _long_int(text):
    """The int a decimal text stands for, read 1,000 digits at a time."""
    digits = text.lstrip("-")
    n = 0
    for i in range(0, len(digits), 1000):
        n = n * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    return -n if text.startswith("-") else n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9000), st.integers(0, 10 ** 30))
@example(4300, 0)
@example(4299, 10 ** 4299 * 8)  # 4,300 nines: at the limit, written by str
@example(13000, 7)
def test_decimal_writes_an_int_of_any_length(e, n):
    for m in (10 ** e + n, -(10 ** e) - n):
        text = _decimal(m)
        assert _long_int(text) == m and text.lstrip("-")[0] != "0"
        if e < 4000:
            assert text == str(m)


def test_a_check_sample_and_compose_past_the_digit_limit_print_every_digit():
    state = ["check", "--model", "fixed d=1", "--input", "u: 0", "--state", "x: 0 @ 1e4300"]
    assert run(state) == (1, f"violation at t={_BIG}: fixed\n", "")
    code, out, err = run([*state, "--format", "json-report"])
    assert (code, err) == (1, "") and json.loads(out)["violations"][0]["time"] == _BIG
    assert run(["sample", "--model", "fixed d=1", "--input", "u: 0 @ 1e4300"]) \
        == (0, f"x: 0 @ {_BIG_PLUS_1}\n", "")
    assert run(["compose", "--a", "bdc mr=1 dr=1e4300 mf=1 df=1e4300",
                "--b", "bdc mr=1 dr=1 mf=1 df=1"]) \
        == (0, f"mr=2 dr={_BIG_PLUS_1} mf=2 df={_BIG_PLUS_1}\n", "")
    # one digit fewer is written as before
    assert run([*state[:-1], "x: 0 @ 1e4299"]) == (1, f"violation at t={_BIG[:-1]}: fixed\n", "")


@pytest.mark.parametrize("fmt", ["ascii", "vcd", "json-report"])
def test_a_simulation_past_the_digit_limit_prints_every_digit(tmp_path, fmt):
    # a timebase of 10**4300 and a horizon of 10**4300: the VCD's lcm,
    # horizon and stamps, the JSON's times and the ASCII axis all pass the limit
    path = tmp_path / "buf.net"
    path.write_text("input u\ndelay x u fixed d=1\n")
    code, out, err = run(["simulate", "--netlist", str(path), "--input", "u: 0 @ 1e-4300, 1",
                          "--until", "1e4300", "--format", fmt])
    assert (code, err) == (0, "")
    u_times, x_times = [f"1/{_BIG}", "1"], [f"{_BIG_PLUS_1}/{_BIG}", "2"]
    if fmt == "json-report":
        nets = json.loads(out)
        assert nets["horizon"] == _BIG
        assert [nets["nets"][n]["toggles"] for n in "ux"] == [u_times, x_times]
    elif fmt == "vcd":
        assert out.startswith(f"$comment sigdelay scale lcm={_BIG} horizon={_BIG} $end\n")
        stamps = [line for line in out.splitlines() if line.startswith("#")]
        assert stamps == ["#0", "#1", f"#{_BIG}", f"#{_BIG_PLUS_1}", f"#2{_BIG[1:]}"]
    else:
        lanes = out.splitlines()
        assert [lane.split("switches: ")[1] for lane in lanes[:2]] \
            == [", ".join(u_times), ", ".join(x_times)]
        assert lanes[2] == f"  0{_BIG}"  # wider than the lanes: no gap before the label


def test_a_vcd_past_the_digit_limit_is_refused_naming_the_line_and_token(tmp_path):
    path = tmp_path / "buf.net"
    path.write_text("input u\ndelay x u fixed d=1\n")
    code, out, err = run(["simulate", "--netlist", str(path), "--input", "u: 0 @ 1e-4300, 1",
                          "--until", "1e4300", "--format", "vcd"])
    assert (code, err) == (0, "")
    with pytest.raises(ValueError) as exc:
        import_vcd(out)
    assert str(exc.value) == f"line 1: 'lcm={_BIG}' has more than 4300 digits"


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_an_until_past_the_digit_limit_exits_2_naming_the_token(tmp_path, command):
    path = tmp_path / "ring.net"
    path.write_text(_ring)
    until = "1" * 4301
    argv = (["check", "--model", "fixed d=1", "--input", "u: 0", "--state", "x: 0"]
            if command == "check" else ["simulate", "--netlist", str(path)])
    code, out, err = run([*argv, "--until", until])
    assert (code, out) == (2, "")
    assert err == f"error: {until!r} has more than 4300 digits\n"


_RUN = "1" * 4301  # a digit run of 4,301 digits


@pytest.mark.parametrize("argv, prefix", [
    (["--input", "u: 0", "--state", f"x: 0 @ {_RUN}"], f"bad time {_RUN!r} in signal 'x'"),
    (["--input", "u: 0", "--state", f"x: 0 @ 1/{_RUN}"], f"bad time '1/{_RUN}' in signal 'x'"),
    (["--input", f"u: 0 @ {_RUN}", "--state", "x: 0"], f"bad time {_RUN!r} in signal 'u'"),
], ids=["state", "state-ratio", "input"])
def test_a_signal_time_past_the_digit_limit_exits_2_naming_the_token(argv, prefix):
    code, out, err = run(["check", "--model", "fixed d=1", *argv])
    token = prefix.split()[2]
    assert (code, out) == (2, "")
    assert err == f"error: {prefix}: {token} has more than 4300 digits\n"


@pytest.mark.parametrize("number", [_RUN, f"{_RUN}/3", f"3/{_RUN}"],
                         ids=["run", "numerator", "denominator"])
def test_a_model_number_past_the_digit_limit_exits_2_naming_the_token(number):
    code, out, err = run(["check", "--model", f"fixed d={number}", "--input", "u: 0",
                          "--state", "x: 0"])
    assert (code, out) == (2, "")
    assert err == f"error: bad number {number!r} for 'd': {number!r} has more than 4300 digits\n"
