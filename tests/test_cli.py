"""Command-line contract: exit codes, formats, round-trips."""

import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import sigdelay as sd
from sigdelay import cli, solvers
from sigdelay.cli import _random_free, main, report_json
from sigdelay.conditions import MODELS
from sigdelay.circuit import WaveformSet, builtin, format_netlist, simulate
from sigdelay.stepfn import StepFunction, _read_signal_literal, chi, format_time
from sigdelay.vcd import export_vcd, import_vcd

from conftest import brute_check, counted_calls, fractions_made, rand_signal, rand_stepfn


NOT_LOOP = """\
gate NOT x v
delay y x fixed d=1
delay v y fixed d=1
init x 0
output x
"""

ZERO_LOOP = """\
gate NOT x v
delay v x fixed d=0
output x
"""


@pytest.fixture
def netfile(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_simulate_ascii(netfile, capsys):
    code = main(["simulate", "--netlist", netfile("loop.net", NOT_LOOP),
                 "--until", "6", "--format", "ascii"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x" in out and "switches: 0, 2, 4, 6" in out


def test_simulate_zero_loop_exits_2(netfile, capsys):
    code = main(["simulate", "--netlist", netfile("z.net", ZERO_LOOP),
                 "--until", "4"])
    assert code == 2
    assert "zero-lookback cycle" in capsys.readouterr().err


def test_simulate_rejects_waveforms_for_nets_that_are_not_inputs(netfile, capsys):
    net = netfile("loop.net", NOT_LOOP)
    code = main(["simulate", "--netlist", net, "--until", "3",
                 "--input", "x: 0 @ 1", "--input", "v: 1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: waveform for 'x', which is not a primary input; "
        "waveform for 'v', which is not a primary input\n")
    code = main(["simulate", "--netlist", net, "--until", "3", "--input", "q: 0 @ 1"])
    assert code == 2
    assert "'q', which is not a primary input" in capsys.readouterr().err


def test_simulate_event_budget_exits_3(netfile, capsys):
    tight = NOT_LOOP.replace("d=1", "d=1/64")
    code = main(["simulate", "--netlist", netfile("fast.net", tight),
                 "--until", "100", "--event-budget", "50"])
    assert code == 3
    assert "event budget" in capsys.readouterr().err


def test_simulate_failed_self_check_exits_5(netfile, capsys, monkeypatch):
    failing = sd.CheckReport(False, sd.Violation(F(0), True, "gate-equation", "x"))
    monkeypatch.setattr("sigdelay.circuit.check_trace_conformance",
                        lambda *args, **kwargs: failing)
    code = main(["simulate", "--netlist", netfile("loop.net", NOT_LOOP),
                 "--until", "6"])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: internal: ") and "Traceback" not in err


class _DropsFirstSwitch:
    """An element's event form that loses the first output switch it adds."""

    def __init__(self, form):
        self.form, self.pending, self.dropped = form, form.pending, False

    def feed(self, t, bit):
        s = self.form.feed(t, bit)
        if s is None or self.dropped:
            return s
        self.dropped = True
        self.pending.remove(s)
        return None


def _inverts_one_gate(table):
    """``circuit._gate_table`` with the first gate's inversion flipped."""
    def wrong(gates):
        out = table(gates)
        op, ins, invert = out[gates[0].out]
        out[gates[0].out] = (op, ins, not invert)
        return out
    return wrong


@pytest.mark.parametrize("fault", ["delay", "gate"])
@pytest.mark.parametrize("circuit", ["not-feedback", "c-element"])
def test_a_simulation_gone_wrong_fails_its_self_check_and_exits_5(
        netfile, capsys, monkeypatch, fault, circuit):
    # the simulator itself errs, so the self-check, not a stub, must see it
    inputs = {} if circuit == "not-feedback" else {"u": "u: 0 @ 1, 6", "v": "v: 0 @ 1, 6"}
    n = builtin(circuit)
    if fault == "delay":
        monkeypatch.setattr(sd.circuit, "_solve_delay",
                            lambda model, leading: _DropsFirstSwitch(model.events(leading)))
    else:
        monkeypatch.setattr(sd.circuit, "_gate_table", _inverts_one_gate(sd.circuit._gate_table))
    signals = {name: sd.parse_signal_literal(text)[1] for name, text in inputs.items()}
    with pytest.raises(RuntimeError, match="^simulation fails self-check"):
        simulate(n, signals, 12)
    argv = ["simulate", "--netlist", netfile("c.net", format_netlist(n)), "--until", "12"]
    for text in inputs.values():
        argv += ["--input", text]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: simulation fails self-check")


@pytest.mark.parametrize("extra", [
    ["--until", "1/0"],
    ["--until", "-3"],
    ["--until", "6", "--event-budget", "-1"],
])
def test_simulate_rejects_bad_horizon_and_budget(netfile, capsys, extra):
    code = main(["simulate", "--netlist", netfile("loop.net", NOT_LOOP)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


NOT_GATE = """\
input u
gate NOT x u
output x
"""


@pytest.mark.parametrize("budget,first_over", [("0", "1"), ("1", "2")])
def test_event_budget_names_the_first_switch_over_it(netfile, capsys, budget,
                                                     first_over):
    code = main(["simulate", "--netlist", netfile("not.net", NOT_GATE),
                 "--input", "u: 0 @ 1, 2, 3", "--until", "10",
                 "--event-budget", budget])
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: event budget exceeded on net 'x' at t={first_over}\n"


def test_huge_horizon_hits_the_default_budget(netfile, capsys):
    code = main(["simulate", "--netlist", netfile("loop.net", NOT_LOOP),
                 "--until", "1e400"])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: event budget")


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    files = {"ring": NOT_LOOP,
             "sdbridc-ring": NOT_LOOP.replace("fixed d=1", "sdbridc d=1/2"),
             "not-gate": NOT_GATE}
    for name, text in files.items():
        (folder / f"{name}.net").write_text(text)
    return {name: str(folder / f"{name}.net") for name in files}


NOT_A_TIME = ["1/0", "inf", "nan", "-inf"]
horizons = st.one_of(
    st.sampled_from(["1e400", "-3", "0", "1e-400"] + NOT_A_TIME),
    st.integers(10 ** 6, 10 ** 30).map(str),
    st.fractions(0, 12, max_denominator=8).map(str))

simulate_argv = st.tuples(
    st.just("simulate"), st.sampled_from(["ring", "sdbridc-ring", "not-gate"]),
    horizons, st.integers(-2, 50),
    st.sampled_from(["ascii", "vcd", "json-report"]))

check_argv = st.tuples(
    st.just("check"),
    st.sampled_from(["fixed d=1", "sdbridc d=1", "dbridc mr=1 dr=2 mf=1 df=2",
                     "wand m=1 d=2", "aic dr=1 df=1", "sc",
                     "bdc mr=0 dr=0 mf=0 df=3"]),  # the last fails CC_BDC
    horizons)

sample_argv = st.tuples(
    st.just("sample"),
    st.sampled_from(["bdc mr=1 dr=2 mf=1 df=2", "dbridc mr=1 dr=2 mf=1 df=2",
                     "bridc mr=1 dr=2 mf=1 df=2 mur=1 deltar=2 muf=1 deltaf=2"]),
    st.lists(horizons, max_size=2), st.integers(-2, 3))


@settings(max_examples=200, deadline=None)
@given(st.one_of(simulate_argv, check_argv, sample_argv))
@example(case=("sample", "bridc mr=1 dr=2 mf=1 df=2 mur=1 deltar=2 muf=1 deltaf=2",
               ["-3"], 8))  # not a signal: a parameter error, not sampler exhaustion
def test_random_argv_exits_with_a_documented_code(argv_files, case):
    if case[0] == "simulate":
        _, net, until, budget, fmt = case
        argv = ["simulate", "--netlist", argv_files[net], "--until", until,
                "--event-budget", str(budget), "--format", fmt]
        if net == "not-gate":
            argv += ["--input", "u: 0 @ 1, 2, 3"]
        bad = until in NOT_A_TIME or until.startswith("-") or budget < 0
    elif case[0] == "sample":
        _, model, switches, retries = case
        argv = ["sample", "--model", model, "--input", "u: 0 @ " + ", ".join(switches),
                "--retries", str(retries)]
        bad = retries < 0 or any(t in NOT_A_TIME or t.startswith("-") for t in switches)
    else:
        _, model, until = case
        argv = ["check", "--model", model, "--input", "u: 0 @ 1, 5/2",
                "--state", "x: 0 @ 2, 7/2", "--until", until]
        bad = until in NOT_A_TIME
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reads "-inf" as an option
            code = exc.code
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if bad:
        assert code == 2


def test_simulate_vcd_and_json(netfile, tmp_path, capsys):
    net = netfile("loop.net", NOT_LOOP)
    out = tmp_path / "dump.vcd"
    assert main(["simulate", "--netlist", net, "--until", "6",
                 "--format", "vcd", "--out", str(out)]) == 0
    w = import_vcd(out.read_text())
    assert w.signals["x"] == StepFunction.from_toggles(0, [0, 2, 4, 6])
    assert main(["simulate", "--netlist", net, "--until", "6",
                 "--format", "json-report"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nets"]["x"]["toggles"] == ["0", "2", "4", "6"]


def test_simulate_with_inline_input(netfile, capsys):
    text = "input u\ndelay x u fixed d=1/2\noutput x\n"
    code = main(["simulate", "--netlist", netfile("buf.net", text),
                 "--input", "u: 0 @ 0, 5/2", "--until", "4",
                 "--format", "json-report"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nets"]["x"]["toggles"] == ["1/2", "3"]


def test_simulate_init_override(netfile, capsys):
    bare = NOT_LOOP.replace("init x 0\n", "")
    code = main(["simulate", "--netlist", netfile("loop.net", bare),
                 "--init", "x=0", "--until", "2", "--format", "json-report"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nets"]["x"]["initial"] == 0


def test_check_exit_codes(capsys):
    assert main(["check", "--model", "aic dr=1 df=0",
                 "--state", "x: 0 @ 0, 2"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["check", "--model", "aic dr=1 df=0",
                 "--state", "x: 0 @ 1, 2"]) == 1
    assert "violation at t=1" in capsys.readouterr().out
    assert main(["check", "--model", "bdc mr=0 dr=2 mf=0 df=3",
                 "--state", "x: 0 @ 2", "--input", "u: 0 @ 0"]) == 2
    assert "CC_BDC fails" in capsys.readouterr().err


def test_check_json_report(capsys):
    assert main(["check", "--model", "aic dr=1 df=0",
                 "--state", "x: 0 @ 1, 2", "--format", "json-report"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"ok": False,
                    "violations": [{"time": "1", "clause": "rise-hold"}],
                    "parameters": "aic dr=1 df=0"}


def test_check_reads_signal_files(tmp_path, capsys):
    u = tmp_path / "u.sig"
    u.write_text("u: 0 @ 0\n")
    assert main(["check", "--model", "fixed d=2", "--state", "x: 0 @ 2",
                 "--input", str(u)]) == 0


def test_check_horizon_cutoff(capsys):
    # the trace diverges only after the horizon, so up to it the pair conforms
    args = ["check", "--model", "fixed d=1", "--input", "u: 0 @ 0, 4",
            "--state", "x: 0 @ 1"]
    assert main(args) == 1
    assert main(args + ["--until", "4"]) == 0
    capsys.readouterr()
    assert main(args + ["--until", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_check_sc_honours_horizon(capsys):
    # the final values differ from t=5 on, which only a later horizon sees
    args = ["check", "--model", "sc", "--input", "u: 0 @ 5", "--state", "x: 0"]
    assert main(args + ["--until", "1"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(args + ["--until", "5"]) == 1
    assert capsys.readouterr().out == "violation at t=5: final-value\n"


def test_consistent_outputs(capsys):
    assert main(["consistent", "--model",
                 "bridc mr=0 dr=2 mf=0 df=2 mur=0 deltar=2 muf=0 deltaf=2"]) == 0
    assert "clause a" in capsys.readouterr().out
    assert main(["consistent", "--model", "bdc mr=0 dr=2 mf=0 df=2"]) == 0
    assert main(["consistent", "--model", "bdc mr=0 dr=2 mf=0 df=3"]) == 2
    assert main(["consistent", "--model",
                 "baidc mr=1 dr=2 mf=1 df=2 deltar=2 deltaf=1"]) == 2


@pytest.mark.parametrize("argv, answer", [
    (["consistent", "--model", "aic dr=1 df=1"], (0, "consistent by construction\n", "")),
    (["check", "--model", "fixed d=1", "--state", "nonexistentfile"],
     (2, "", "error: --state 'nonexistentfile' is neither a file nor "
             "a 'name: v @ times' literal\n")),
    (["consistent", "--model", "bdc mr=1 dr"], (2, "", "error: expected key=value, got 'dr'\n")),
])
def test_cli_answers_and_refusals_of_its_arguments(tmp_path, monkeypatch, argv, answer):
    monkeypatch.chdir(tmp_path)  # so that no file of that name is found
    assert run(argv) == answer


def test_compose_output(capsys):
    assert main(["compose", "--a", "bdc mr=1 dr=2 mf=1 df=2",
                 "--b", "bdc mr=1 dr=3 mf=2 df=4"]) == 0
    assert capsys.readouterr().out.strip() == "mr=2 dr=5 mf=3 df=6"
    assert main(["compose", "--a", "fixed d=1",
                 "--b", "bdc mr=1 dr=2 mf=1 df=2"]) == 2


_BAD_BDC = "mr=0 dr=1 mf=0 df=2"  # d_f - m_f = 2 > d_r = 1: CC_BDC fails
_BAD_HALVES = "mr=0 dr=1/2 mf=0 df=1"  # the same in halves, so checks run on ticks of 1/2


@pytest.mark.parametrize("command", ["simulate", "sample", "compose", "check"])
def test_inconsistent_model_exits_2_naming_its_spec(netfile, capsys, command):
    argv = {
        "simulate": ["simulate", "--until", "4", "--netlist", netfile(
            "bad.net", NOT_LOOP.replace("delay y x fixed d=1", f"delay y x dbridc {_BAD_BDC}"))],
        "sample": ["sample", "--model", f"bdc {_BAD_BDC}", "--input", "u: 0 @ 1"],
        "compose": ["compose", "--a", "bdc mr=1 dr=2 mf=1 df=2", "--b", f"bdc {_BAD_BDC}"],
        "check": ["check", "--model", f"bdc {_BAD_HALVES}", "--input", "u: 0 @ 1/3",
                  "--state", "x: 0 @ 5/6"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    spec = {"simulate": f"dbridc {_BAD_BDC}",
            "check": f"bdc {_BAD_HALVES}"}.get(command, f"bdc {_BAD_BDC}")
    assert err == f"error: CC_BDC fails for {spec!r}\n"
    assert "BdcParams(" not in err


# ---------------------------------------------------------------------------
# check reads its signals into integer ticks
# ---------------------------------------------------------------------------

def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def library_check(spec, state, input_, until, fmt):
    """What ``check`` must print, from ``check_membership`` on the output of
    ``parse_signal_literal``: (exit code, stdout, stderr)."""
    try:
        model = sd.parse_model(spec)
        x = sd.parse_signal_literal(state)[1]
        u = None if input_ is None else sd.parse_signal_literal(input_)[1]
        report = sd.check_membership(u, x, model,
                                     horizon=None if until is None else sd.as_time(until))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    if fmt == "json-report":
        text = report_json(report, spec)
    elif report.ok:
        text = "ok\n"
    else:
        v = report.first_violation
        when = "t<0" if v.time is None else f"t={format_time(v.time)}"
        edge = "" if v.attained else " (approached, not attained)"
        text = f"violation at {when}{edge}: {v.clause}\n"
    return int(not report.ok), text, ""


CHECK_SPECS = [
    "bdc mr=1/2 dr=3 mf=1/3 df=3", "dbridc mr=1 dr=3/2 mf=1 df=3/2", "sdbridc d=2/3",
    "aic dr=1/7 df=1/3", "sc", "fixed d=3/7", "wand m=1/2 d=2", "wor m=1/3 d=1",
    "ric mur=1/2 deltar=2/3 muf=1/2 deltaf=2/3",
    "bridc mr=1/2 dr=3 mf=1/2 df=3 mur=0 deltar=5/2 muf=0 deltaf=5/2",
    "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2/3",  # fails CC_BRIDC
]


def time_token(t: F, style: str) -> str:
    """t as a reduced p/q, as p/q times two (not reduced), or as a decimal
    when its denominator is 1 or 2."""
    if style == "unreduced":
        return f"{2 * t.numerator}/{2 * t.denominator}"
    if style == "decimal" and t.denominator in (1, 2):
        tenths = t.numerator * 10 // t.denominator
        return f"{tenths // 10}.{tenths % 10}"
    return format_time(t)


signal_readings = st.tuples(
    st.integers(0, 1),
    st.lists(st.tuples(st.builds(F, st.integers(0, 40), st.sampled_from([1, 2, 3, 7, 21])),
                       st.sampled_from(["pq", "unreduced", "decimal"])),
             max_size=10, unique_by=lambda pair: pair[0]).map(sorted))


def signal_text(name, reading):
    bit, times = reading
    if not times:
        return f"{name}: {bit}"
    return f"{name}: {bit} @ " + ", ".join(time_token(t, style) for t, style in times)


# the lcm of the denominators of a time over it is above the 8,192-bit timebase bound
_HUGE = 2 ** 8200 + 1


@pytest.fixture(scope="module")
def signal_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("check")


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(CHECK_SPECS), state=signal_readings,
       input_=st.one_of(st.none(), signal_readings),
       until=st.one_of(st.none(), st.builds(F, st.integers(0, 60), st.sampled_from([1, 2, 5, 7]))),
       fmt=st.sampled_from(["text", "json-report"]), in_files=st.booleans())
@example(spec="bdc mr=1/2 dr=3 mf=1/3 df=3",
         state=(0, [(F(1, _HUGE), "pq"), (F(7, 2), "decimal")]),
         input_=(0, [(F(1, 3), "unreduced")]), until=None, fmt="text", in_files=True)
@example(spec="fixed d=3/7", state=(1, [(F(3, 2), "unreduced"), (F(20, 7), "pq")]),
         input_=(1, [(F(1, 21), "pq")]), until=F(5, 2), fmt="json-report", in_files=False)
@example(spec="sdbridc d=2/3", state=(1, [(F(2), "pq"), (F(6), "pq"), (F(7), "pq"), (F(12), "pq")]),
         input_=(1, []), until=F(38, 7), fmt="text", in_files=False)  # sevenths only in --until
def test_check_agrees_with_the_library_on_fractions(signal_dir, spec, state, input_,
                                                   until, fmt, in_files):
    x_text = signal_text("x", state)
    u_text = None if input_ is None else signal_text("u", input_)
    until_text = None if until is None else format_time(until)
    argv = ["check", "--model", spec, "--format", fmt]
    for flag, text in (("--state", x_text), ("--input", u_text)):
        if text is not None and in_files:
            path = signal_dir / f"{flag[2:]}.sig"
            path.write_text(f"# {flag}\n{text}\n")
            text = str(path)
        if text is not None:
            argv += [flag, text]
    if until_text is not None:
        argv += ["--until", until_text]
    assert run(argv) == library_check(spec, x_text, u_text, until_text, fmt)


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(CHECK_SPECS + ["aicprime dr=2/3 df=1/2", "sc"]),
       state=signal_readings, input_=st.one_of(st.none(), signal_readings),
       until=st.one_of(st.none(), st.builds(F, st.integers(0, 60), st.sampled_from([1, 2, 5, 7]))))
@example(spec="bdc mr=1/2 dr=3 mf=1/3 df=3", state=(0, [(F(7, 2), "pq")]),
         input_=(0, [(F(1, _HUGE), "pq")]), until=None)  # above the timebase bound
def test_check_readings_report_what_the_public_check_reports(spec, state, input_, until):
    # check prepares the input in its ticks and hands it to check_membership;
    # the public route, on Fractions, prepares it itself
    x_text = signal_text("x", state)
    u_text = None if input_ is None else signal_text("u", input_)
    model = sd.parse_model(spec)

    def outcome(check):
        try:
            return check()
        except ValueError as exc:
            return type(exc), str(exc)
    readings = [None if text is None else _read_signal_literal(text)[1]
                for text in (u_text, x_text)]
    signals = [None if text is None else sd.parse_signal_literal(text)[1]
               for text in (u_text, x_text)]
    assert outcome(lambda: cli._check_readings(*readings, model, until)) \
        == outcome(lambda: sd.check_membership(*signals, model, horizon=until))


def test_check_falls_back_to_fractions_above_the_timebase_bound(monkeypatch):
    seen = []

    def spy(u, x, model, horizon=None, **prepared):
        seen.append(type(x.bps[0]))
        return sd.check_membership(u, x, model, horizon=horizon, **prepared)
    monkeypatch.setattr(cli, "check_membership", spy)
    for state in ("x: 0 @ 5/6", f"x: 0 @ 1/{_HUGE}, 5/6"):
        assert run(["check", "--model", "fixed d=1/2", "--input", "u: 0 @ 1/3",
                    "--state", state]) == library_check("fixed d=1/2", state,
                                                        "u: 0 @ 1/3", None, "text")
    assert seen == [int, F]


def test_check_errors_quote_the_times_as_typed(tmp_path):
    two = tmp_path / "two.sig"
    two.write_text("x: 0 @ 1/2\ny: 1\n")
    halves = "bdc mr=1/2 dr=3/2 mf=1/2 df=3/2"
    cases = [
        (["--model", halves, "--state", "x: 0 @ 1/3"],
         f"model {halves!r} needs an input signal"),
        (["--model", halves, "--input", "u: 0 @ 1/3", "--state", "x: 0 @ -1/2, 5/6"],
         "not a signal (right-continuous with switches >= 0): "
         "<0|(-oo,-1/2) 1@-1/2 1|(-1/2,5/6) 0@5/6 0|(5/6,oo)>"),
        (["--model", halves, "--input", "u: 1 @ -2/3", "--state", "x: 0 @ 5/6"],
         "not a signal (right-continuous with switches >= 0): "
         "<1|(-oo,-2/3) 0@-2/3 0|(-2/3,oo)>"),
        (["--model", halves, "--input", "u: 0 @ 1/3", "--state", "x: 0 @ 2/3, 1/2"],
         "toggle times of 'x' must be strictly increasing"),
        (["--model", halves, "--input", "u: 0 @ 1/0", "--state", "x: 0 @ 1/2"],
         "bad time '1/0' in signal 'u': Fraction(1, 0)"),
        (["--model", halves, "--input", "u: 0 @ 1/3", "--state", str(two)],
         f"--state file {str(two)!r} must define exactly one signal"),
    ]
    for args, message in cases:
        assert run(["check", *args]) == (2, "", f"error: {message}\n")


def test_check_makes_no_fraction_per_toggle(monkeypatch):
    def made_by_check(n):
        us = [F(3 * k + 1, 7) for k in range(n)]
        glitch = us[-1] + 10
        xs = [t + F(20, 7) for t in us] + [glitch, glitch + F(1, 7)]
        argv = ["check", "--model", "bdc mr=1 dr=3 mf=1 df=3",
                "--input", sd.format_signal_literal("u", StepFunction.from_toggles(0, us)),
                "--state", sd.format_signal_literal("x", StepFunction.from_toggles(0, xs))]
        answer, made = fractions_made(monkeypatch, lambda: run(argv))
        assert answer == (1, f"violation at t={format_time(glitch)}: upper-bound\n", "")
        return made

    assert made_by_check(2000) <= made_by_check(100)


def test_sample_is_seed_deterministic(tmp_path):
    u = tmp_path / "u.sig"
    u.write_text("u: 0 @ 0, 4\n")
    outs = []
    for name in ("a.sig", "b.sig"):
        out = tmp_path / name
        assert main(["sample", "--model", "bdc mr=1 dr=2 mf=1 df=2",
                     "--input", str(u), "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    name, x = sd.parse_signal_literal(outs[0].strip())
    _, uu = sd.parse_signal_literal("u: 0 @ 0, 4")
    assert sd.check_membership(uu, x, sd.parse_model("bdc mr=1 dr=2 mf=1 df=2")).ok


def test_sample_exhaustion_exits_4(tmp_path, capsys):
    u = tmp_path / "u.sig"
    u.write_text("u: 0 @ 0\n")
    assert main(["sample", "--model",
                 "bridc mr=1 dr=2 mf=1 df=2 mur=1 deltar=2 muf=1 deltaf=2",
                 "--input", str(u), "--retries", "0"]) == 4
    assert "for 'bridc mr=1 dr=2 mf=1 df=2 mur=1 deltar=2" in capsys.readouterr().err


def test_sample_draws_a_bounded_free_signal_for_a_late_switch(capsys):
    free = _random_free(random.Random(1), F(10) ** 5)
    assert free.bps and free.bps[-1] < 128
    spec = "bdc mr=1 dr=2 mf=1 df=2"
    assert main(["sample", "--model", spec, "--input", "u: 0 @ 1e400"]) == 0
    _, x = sd.parse_signal_literal(capsys.readouterr().out.strip())
    assert sd.check_membership(StepFunction.from_toggles(0, [F(10) ** 400]), x,
                               sd.parse_model(spec)).ok


def _rand_spec(rng, keyword):
    """A consistent spec of the model ``keyword``, its parameters half units
    in [0, 4), and the model."""
    while True:
        spec = " ".join([keyword, *(f"{key}={rng.randrange(8)}/2" for key in MODELS[keyword].keys)])
        try:
            model = sd.parse_model(spec)
        except ValueError:  # out of range
            continue
        if model.consistency() is None or model.consistency()[1]:
            return spec, model


SAMPLED = sorted(set(MODELS) - {"bdcprime"})


@pytest.mark.parametrize("keyword", SAMPLED)
def test_sample_writes_a_member_of_every_model(keyword):
    rng = random.Random(20261019 + SAMPLED.index(keyword))
    for _ in range(15):
        spec, model = _rand_spec(rng, keyword)
        u = rand_signal(rng)
        code, out, err = run([
            "sample", "--model", spec, "--input", sd.format_signal_literal("u", u),
            "--seed", str(rng.randrange(1000))])
        assert (code, err) == (0, ""), spec
        _, x = sd.parse_signal_literal(out.strip())
        assert sd.check_membership(u, x, model).ok
        if keyword != "sc":  # which brute_check does not cover
            assert brute_check(u, x, model), (spec, u, x)


@pytest.mark.parametrize("retries", ["8", "0"])
def test_sample_refuses_bdcprime(retries):
    code, out, err = run(["sample", "--model", "bdcprime dr=2 df=2",
                          "--input", "u: 0 @ 1, 4, 6", "--retries", retries])
    assert (code, out) == (2, "")
    assert err == "error: sampling is not supported for 'bdcprime dr=2 df=2'\n"


@pytest.mark.parametrize("keyword", SAMPLED)
def test_sample_retries_0_exits_4(keyword):
    spec, model = _rand_spec(random.Random(keyword), keyword)
    code, out, err = run(["sample", "--model", spec, "--input",
                          "u: 0 @ 1, 4, 6", "--retries", "0"])
    assert (code, out) == (4, "")
    assert err.startswith("error: no verified member found in 0 attempts for "
                          f"{sd.format_model(model)!r}: the attempt budget ran out")


@pytest.mark.parametrize("keyword", ["bdc", "bridc", "dbridc"])
def test_sample_output_is_the_library_sampler(keyword):
    """For bdc, bridc and dbridc the CLI prints what the library's samplers
    give on the same seeded free signal."""
    rng = random.Random(20261020)
    for _ in range(25):
        spec, model = _rand_spec(rng, keyword)
        u, seed = rand_signal(rng, denom=rng.choice((1, 2, 3))), rng.randrange(1000)
        free = _random_free(random.Random(seed), (u.bps[-1] if u.bps else 0) + 8)
        want = {"bdc": lambda: sd.sample_bdc(u, model.p, free),
                "bridc": lambda: sd.sample_bridc(u, model.p, model.r, free),
                "dbridc": lambda: sd.solve_dbridc(u, model.p)}[keyword]()
        code, out, _ = run(["sample", "--model", spec, "--input",
                            sd.format_signal_literal("u", u), "--seed", str(seed)])
        assert (code, out) == (0, sd.format_signal_literal("x", want) + "\n")


# every candidate of this bridc fails on this input, whatever the seed
_WITNESSED = ["--model", "bridc mr=3/2 dr=2 mf=3/2 df=3 mur=3/2 deltar=3/2 muf=3/2 deltaf=5/2",
              "--input", "u: 0 @ 3/2, 5/2, 7/2, 11/2"]


@pytest.mark.parametrize("seed", ["0", "1", "39"])
def test_sample_writes_the_switch_window_witness(monkeypatch, seed):
    witnesses = counted_calls(monkeypatch, solvers, "_witness")
    code, out, err = run(["sample", *_WITNESSED, "--seed", seed])
    assert (code, out, err) == (0, "x: 0 @ 5, 8\n", "")
    assert len(witnesses) >= 1
    assert run(["check", *_WITNESSED, "--state", out.strip()]) == (0, "ok\n", "")


def test_the_witness_sample_scales_only_its_member(monkeypatch):
    # both candidates fail and are judged in the prepared ticks as they
    # are; only the witness's member is scaled back to time
    scaled = counted_calls(monkeypatch, StepFunction, "_to_time")
    assert run(["sample", *_WITNESSED]) == (0, "x: 0 @ 5, 8\n", "")
    assert len(scaled) == 1


def _random_free_by_fraction(rng, span):
    """The free signal as drawn when each draw was compared with Fraction(1, 3)."""
    cells = min(int(span * 2) + 4, cli._FREE_CELLS)
    toggles = [F(k, 2) for k in range(cells) if rng.random() < F(1, 3)]
    return StepFunction._from_toggles(rng.randrange(2), toggles)


def test_free_signal_draws_compare_with_one_third_exactly():
    # the least draw k/2**53 at or above the float 1/3 is at or above 1/3 itself
    k = -(-F(1 / 3) * 2 ** 53 // 1)
    assert F(k, 2 ** 53) >= F(1, 3) > F(k - 1, 2 ** 53)
    rng = random.Random(20261019)
    for _ in range(300):
        seed, span = rng.randrange(10 ** 6), F(rng.randrange(0, 300), rng.choice((1, 2, 7)))
        assert _random_free(random.Random(seed), span) == \
            _random_free_by_fraction(random.Random(seed), span)


def test_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("input u\ngate SPLINE x u\noutput x\n")
    assert main(["simulate", "--netlist", str(bad), "--until", "2"]) == 2
    # gate kinds are validated structurally, netlist text errors carry lines
    bad.write_text("input u\nbogus x u\n")
    assert main(["simulate", "--netlist", str(bad), "--until", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# VCD
# ---------------------------------------------------------------------------

def test_vcd_integer_times():
    w = WaveformSet({"x": chi(2, None)}, F(6))
    text = export_vcd(w)
    assert "#0" in text and "#2" in text
    assert "lcm=1" in text
    assert import_vcd(text).signals == w.signals


def test_vcd_rational_scaling():
    sig = StepFunction.from_toggles(0, [F(1, 2), F(3, 4)])
    w = WaveformSet({"x": sig}, F(2))
    text = export_vcd(w)
    assert "lcm=4" in text
    assert "#2" in text and "#3" in text
    back = import_vcd(text)
    assert back.signals == w.signals and back.horizon == w.horizon


def test_vcd_round_trip_random(rng):
    for _ in range(30):
        sigs = {f"n{i}": rand_signal(rng, denom=4) for i in range(4)}
        horizon = max([F(0)] + [s.bps[-1] for s in sigs.values() if s.bps]) + 1
        w = WaveformSet(sigs, horizon)
        assert import_vcd(export_vcd(w)).signals == sigs


def test_vcd_rejects_non_signals():
    with pytest.raises(ValueError):
        export_vcd(WaveformSet({"x": chi(-1, None)}, F(2)))
    f = chi(0, 1, True, True)  # not right-continuous at 1
    with pytest.raises(ValueError):
        export_vcd(WaveformSet({"x": f}, F(2)))


def test_vcd_switch_at_zero_distinct_from_initial():
    w = WaveformSet({"a": StepFunction.from_toggles(1, [0, 3]),
                     "b": StepFunction.from_toggles(0, [])}, F(4))
    back = import_vcd(export_vcd(w))
    assert back.signals["a"].leading == 1
    assert back.signals["a"].bps == (F(0), F(3))
    assert back.signals["b"] == StepFunction.const(0)


_VCD = ("$comment sigdelay scale lcm={lcm} horizon={horizon} $end\n"
        "$var wire 1 ! x $end\n{var}$enddefinitions $end\n"
        "#0\n$dumpvars\n0!\n$end\n{stamp}\n1!\n#9\n0!\n")


@pytest.mark.parametrize("fields, line", [
    ({"lcm": "0"}, 1), ({"lcm": "-2"}, 1), ({"lcm": "2.5"}, 1), ({"lcm": ""}, 1),
    ({"horizon": "1/0"}, 1), ({"horizon": "abc"}, 1),
    ({"stamp": "#x2"}, 8), ({"stamp": "#-3"}, 8), ({"stamp": "#"}, 8),
    ({"stamp": "#12"}, 10),  # after #12, #9 goes back in time
    ({"horizon": "-3"}, 1), ({"var": '$var wire 1 " x $end\n'}, 3)])  # x twice
def test_vcd_import_names_the_line_of_a_bad_scale_or_timestamp(fields, line):
    text = _VCD.format(**{"lcm": "2", "horizon": "6", "stamp": "#4", "var": "", **fields})
    with pytest.raises(ValueError, match=f"^line {line}: "):
        import_vcd(text)
    good = import_vcd(_VCD.format(lcm="2", horizon="6", stamp="#4", var=""))
    assert good.signals["x"] == StepFunction.from_toggles(0, [2, F(9, 2)])
    assert good.horizon == 6


_DIGITS = "1" + "0" * 4300  # 4,301 digits: more than CPython reads as an int


@pytest.mark.parametrize("fields, msg", [
    ({"var": '$var wire 8 " bus $end\n'}, "^line 3: only scalar wires are supported$"),
    ({"var": "1!\n"}, "^line 3: value change before definitions$"),
    ({"stamp": "#4\n1?"}, "^line 9: unknown identifier '\\?'$"),
    ({"stamp": "#4\nb1 !"}, "^line 9: vector and real values are not supported$"),
    ({"stamp": "#4\nz!"}, "^line 9: unrecognized VCD line 'z!'$"),
    ({"var": '$var wire 1 " y $end\n'}, "^no initial dump for net 'y'$"),
    ({"stamp": "#4\n1!\n0!"}, "^net 'x' makes a zero-width pulse at #4$"),
    ({"lcm": _DIGITS}, f"^line 1: 'lcm={_DIGITS}' has more than 4300 digits$"),
    ({"stamp": f"#{_DIGITS}"}, f"^line 8: '#{_DIGITS}' has more than 4300 digits$"),
], ids=["vector-var", "change-before-definitions", "unknown-id", "vector-value",
        "unrecognized", "no-initial-dump", "zero-width-pulse", "long-lcm", "long-stamp"])
def test_vcd_import_refuses_what_it_cannot_read(fields, msg):
    text = _VCD.format(**{"lcm": "2", "horizon": "6", "stamp": "#4", "var": "", **fields})
    with pytest.raises(ValueError, match=msg):
        import_vcd(text)


def test_vcd_import_without_a_horizon_ends_at_the_last_change():
    text = _VCD.format(lcm="2", horizon="6", stamp="#4", var="").replace(" horizon=6", "")
    assert import_vcd(text).horizon == F(9, 2)
    # a change that repeats the value still counts; no change at all leaves 0
    assert import_vcd(text + "#11\n0!\n").horizon == F(11, 2)
    assert import_vcd(text.split("#4")[0]).horizon == 0


def test_vcd_conformance_round_trip(rng):
    n = builtin("delay-line-falling")
    u = rand_signal(rng)
    w = simulate(n, {"u": u}, 14)
    back = import_vcd(export_vcd(w))
    assert sd.check_trace_conformance(n, {}, back).ok


def _render_ascii_by_scan(w: WaveformSet) -> str:
    """The oracle for ``cli.render_ascii``: every column scans all
    breakpoints and reads an empty column at its midpoint."""
    names = list(w.signals)
    pad = max((len(n) for n in names), default=0)
    h = w.horizon if w.horizon > 0 else F(1)
    dt = F(h, cli._ASCII_WIDTH)
    lines = []
    for name in names:
        sig = w.signals[name]
        cells = []
        for k in range(cli._ASCII_WIDTH):
            lo, hi = k * dt, (k + 1) * dt
            switches = [b for b in sig.bps if lo <= b < hi]
            if switches:
                cells.append("/" if sig.value(switches[-1]) == 1 else "\\")
            else:
                cells.append("^" if sig.value((lo + hi) / 2) == 1 else "_")
        times = ", ".join(format_time(b) for b in sig.bps) or "none"
        lines.append(f"{name.ljust(pad)} {''.join(cells)}  switches: {times}")
    lines.append(f"{' ' * pad} 0{' ' * (cli._ASCII_WIDTH - len(str(h)) - 1)}{h}")
    return "\n".join(lines) + "\n"


def test_render_ascii_matches_the_scan():
    rng = random.Random(64)
    for _ in range(300):
        denom = rng.choice((1, 2, 3, 7, 64))
        h = F(rng.randrange(0, 10 * denom), denom)
        span = int(h * denom) + 2 * denom
        nets = {}
        for name in ("a", "bb", "c")[:rng.randrange(1, 4)]:
            if rng.randrange(2):
                nets[name] = rand_stepfn(rng, n_max=min(12, 2 * span), denom=denom, span=span)
            else:  # a burst of switches inside one column
                t = F(rng.randrange(0, span), denom)
                nets[name] = StepFunction.from_toggles(
                    rng.randrange(2), [t + F(i, 4 * denom * cli._ASCII_WIDTH) for i in range(3)])
        w = WaveformSet(nets, h)
        assert cli.render_ascii(w) == _render_ascii_by_scan(w)
