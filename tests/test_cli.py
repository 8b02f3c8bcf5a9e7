"""Command-line contract: exit codes, formats, round-trips."""

import json
from fractions import Fraction as F

import pytest

import sigdelay as sd
from sigdelay.cli import main
from sigdelay.circuit import WaveformSet, builtin, format_netlist, simulate
from sigdelay.stepfn import StepFunction, chi
from sigdelay.vcd import export_vcd, import_vcd

from conftest import rand_signal


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


def test_simulate_event_budget_exits_3(netfile, capsys):
    tight = NOT_LOOP.replace("d=1", "d=1/64")
    code = main(["simulate", "--netlist", netfile("fast.net", tight),
                 "--until", "100", "--event-budget", "50"])
    assert code == 3
    assert "event budget" in capsys.readouterr().err


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


def test_consistent_outputs(capsys):
    assert main(["consistent", "--model",
                 "bridc mr=0 dr=2 mf=0 df=2 mur=0 deltar=2 muf=0 deltaf=2"]) == 0
    assert "clause a" in capsys.readouterr().out
    assert main(["consistent", "--model", "bdc mr=0 dr=2 mf=0 df=2"]) == 0
    assert main(["consistent", "--model", "bdc mr=0 dr=2 mf=0 df=3"]) == 2
    assert main(["consistent", "--model",
                 "baidc mr=1 dr=2 mf=1 df=2 deltar=2 deltaf=1"]) == 2


def test_compose_output(capsys):
    assert main(["compose", "--a", "bdc mr=1 dr=2 mf=1 df=2",
                 "--b", "bdc mr=1 dr=3 mf=2 df=4"]) == 0
    assert capsys.readouterr().out.strip() == "mr=2 dr=5 mf=3 df=6"
    assert main(["compose", "--a", "fixed d=1",
                 "--b", "bdc mr=1 dr=2 mf=1 df=2"]) == 2


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


def test_vcd_conformance_round_trip(rng):
    n = builtin("delay-line-falling")
    u = rand_signal(rng)
    w = simulate(n, {"u": u}, 14)
    back = import_vcd(export_vcd(w))
    assert sd.check_trace_conformance(n, {}, back).ok
