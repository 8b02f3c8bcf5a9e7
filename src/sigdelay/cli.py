"""Command-line front-end.

Subcommands: simulate, check, consistent, compose, sample.  Exit codes
are a stable contract: 0 ok, 1 trace violation, 2 parameter or
validation error, 3 event-budget abort, 4 sampler exhaustion, 5 internal
error (a failed self-check or invariant; a bug, reported in one line).

Waveform output formats: ascii (one lane per net, switch marks carrying
the direction of the attained value, exact switch times listed), vcd,
and json-report.

``check`` reads its signals into integer numerators and denominators
(``stepfn._read_signal_literal``) and builds them straight in ticks of
their common timebase, so it makes Fractions only for its report; its
input side is built in those ticks by ``conditions._build_input``, as
every prepared input is, and handed to the check.  ``simulate`` parses
its inputs as Fractions and writes its waveforms from the simulator's
integer ticks (``simulate(..., _ticks=True)``): the ASCII, JSON and VCD
writers format each tick against the timebase with one gcd
(``format_time(t, k)``) and make no Fraction per toggle.  The JSON is
``json.dumps(..., indent=2)``'s layout, written directly.
``sample`` parses Fractions and hands any model one route,
``solvers._sample``, which judges the model's own candidates.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from typing import Optional

from .stepfn import (
    StepFunction,
    _lcm_within_bound,
    _read_signal_file,
    _read_signal_literal,
    _signal_of,
    _to_ticks,
    as_time,
    format_signal_literal,
    format_time,
    parse_signal_file,
    parse_signal_literal,
)
from .conditions import (
    Bdc,
    CheckReport,
    DelayModel,
    _build_input,
    _in_ticks,
    check_membership,
    compose_bdc,
    parse_model,
)
from .solvers import SampleRetryError, _sample
from .circuit import (
    EventBudgetError,
    WaveformSet,
    parse_netlist,
    simulate,
)
from .vcd import export_vcd

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARAMETER = 2
EXIT_EVENT_BUDGET = 3
EXIT_SAMPLER = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# ASCII waveforms
# ---------------------------------------------------------------------------

_ASCII_WIDTH = 64  # columns per lane


def render_ascii(w: WaveformSet) -> str:
    """One lane per net: '_' low, '^' high, '/' and '\\' at switches.

    The switch mark leans toward the attained value; exact switch times
    follow each lane, since columns quantize time.
    """
    tb = w.timebase
    pad = max(map(len, w.signals), default=0)
    h = w.horizon or tb or 1  # a horizon of 0 draws one unit
    ends = [Fraction(k * h, _ASCII_WIDTH) for k in range(_ASCII_WIDTH + 1)]
    lines = []
    for name, sig in w.signals.items():
        cells = []
        for k in range(_ASCII_WIDTH):
            j = bisect_left(sig.bps, ends[k + 1])  # the breakpoints before the column's end
            if j and sig.bps[j - 1] >= ends[k]:  # the last switch in the column
                cells.append("/" if sig.at[j - 1] == 1 else "\\")
            else:
                cells.append("^" if (sig.right[j - 1] if j else sig.leading) == 1 else "_")
        times = ", ".join(format_time(b, tb) for b in sig.bps) or "none"
        lines.append(f"{name.ljust(pad)} {''.join(cells)}  switches: {times}")
    label = format_time(h, tb)
    lines.append(f"{' ' * pad} 0{' ' * (_ASCII_WIDTH - len(label) - 1)}{label}")
    return "\n".join(lines) + "\n"


def waveforms_json(w: WaveformSet) -> str:
    """The set's horizon and nets as ``json.dumps(..., indent=2)`` lays
    them out, written directly: only the net names go through
    ``json.dumps``, and each time is the quoted ``format_time``, which
    needs no escaping."""
    k = w.timebase
    nets = []
    for name, sig in w.signals.items():
        toggles = '",\n        "'.join([format_time(t, k) for t in sig.bps])
        toggles = f'[\n        "{toggles}"\n      ]' if sig.bps else "[]"
        nets.append(f'    {json.dumps(name)}: {{\n      "initial": {sig.leading},\n'
                    f'      "toggles": {toggles}\n    }}')
    body = "{\n" + ",\n".join(nets) + "\n  }" if nets else "{}"
    return f'{{\n  "horizon": "{format_time(w.horizon, k)}",\n  "nets": {body}\n}}\n'


def report_json(report: CheckReport, parameters: str) -> str:
    violations = []
    if report.first_violation is not None:
        v = report.first_violation
        entry = {"time": None if v.time is None else format_time(v.time),
                 "clause": v.clause}
        if v.net is not None:
            entry["net"] = v.net
        violations.append(entry)
    return json.dumps({"ok": report.ok, "violations": violations,
                       "parameters": parameters}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _load_signal(arg: str, what: str) -> tuple[str, tuple]:
    """A signal argument is either a file or an inline literal: its name and
    its ``_read_signal_literal`` reading."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            named = _read_signal_file(fh.read())
        if len(named) != 1:
            raise ValueError(f"{what} file {arg!r} must define exactly one signal")
        return next(iter(named.items()))
    if ":" in arg:
        return _read_signal_literal(arg)
    raise ValueError(f"{what} {arg!r} is neither a file nor a 'name: v @ times' literal")


def _check_readings(u, x, model: DelayModel, horizon: Optional[Fraction]) -> CheckReport:
    """``check_membership`` of the ``_read_signal_literal`` readings of x
    and u (None: no input), their signals built straight in integer ticks
    of 1/k, k the lcm of the denominators of their times, the model's
    parameters and the horizon: only the report's time becomes a Fraction.
    The input is prepared here, in those ticks (``_build_input``), and
    handed to the check (``_input``), which then scans no timebase and
    tests the model's consistency once.  Above the timebase bound, and
    where the checker rejects the trace (a missing input, a time below
    0), the signals are Fractions and go through the public check, so
    that its messages quote the times as typed."""
    readings = (x,) if u is None else (x, u)
    dens = set().union(*[reading[2] for reading in readings],
                       [t.denominator for t in model._parameters()])
    if horizon is not None:
        dens.add(horizon.denominator)
    k = _lcm_within_bound(dens)
    if (u is None and model.needs_input) or any(
            nums and nums[0] < 0 for _, nums, _ in readings):
        k = None
    u = None if u is None else _signal_of(u, k)
    if k is None:
        return check_membership(u, _signal_of(x, None), model, horizon=horizon)
    ticked = _in_ticks(model, k)
    return check_membership(u, _signal_of(x, k), ticked, _input=_build_input(
        k, ticked, u, _to_ticks(horizon, k)))


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# most half-unit cells a free signal draws; it holds its value after them
_FREE_CELLS = 256


def _random_free(rng: random.Random, span: Fraction) -> StepFunction:
    """A pseudorandom free signal on a half-unit grid covering the span, or
    its first _FREE_CELLS cells: any free signal yields a member, so its
    cost need not grow with the time of the input's last switch.  A draw
    k/2**53 is below the float 1/3 exactly when it is below 1/3."""
    cells = min(int(span * 2) + 4, _FREE_CELLS)
    toggles = [Fraction(k, 2) for k in range(cells) if rng.random() < 1 / 3]
    return StepFunction._from_toggles(rng.randrange(2), toggles)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    with open(args.netlist, "r", encoding="utf-8") as fh:
        netlist = parse_netlist(fh.read())
    if args.event_budget is not None:
        netlist.event_budget = args.event_budget
    for item in args.init or ():
        net, _, bit = item.partition("=")
        if bit not in ("0", "1"):
            raise ValueError(f"--init takes net=0 or net=1, got {item!r}")
        netlist.inits[net] = int(bit)
    inputs: dict[str, StepFunction] = {}
    if args.inputs:
        with open(args.inputs, "r", encoding="utf-8") as fh:
            inputs.update(parse_signal_file(fh.read()))
    for literal in args.input or ():
        name, sig = parse_signal_literal(literal)
        inputs[name] = sig
    w = simulate(netlist, inputs, as_time(args.until), _ticks=True)
    if args.format == "ascii":
        _write(render_ascii(w), args.out)
    elif args.format == "vcd":
        _write(export_vcd(w), args.out)
    else:
        _write(waveforms_json(w), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    model = parse_model(args.model)
    _, x = _load_signal(args.state, "--state")
    u = None
    if args.input:
        _, u = _load_signal(args.input, "--input")
    horizon = as_time(args.until) if args.until else None
    report = _check_readings(u, x, model, horizon)
    if args.format == "json-report":
        _write(report_json(report, args.model), args.out)
    elif report.ok:
        _write("ok\n", args.out)
    else:
        v = report.first_violation
        when = "t<0" if v.time is None else f"t={format_time(v.time)}"
        edge = "" if v.attained else " (approached, not attained)"
        _write(f"violation at {when}{edge}: {v.clause}\n", args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_consistent(args) -> int:
    cc = parse_model(args.model).consistency()
    if cc is None:  # the model validated its parameters when parsed
        print("consistent by construction")
        return EXIT_OK
    name, ok, clause = cc
    print(f"{name} {'holds' if ok else 'fails'}"
          + (f" (clause {clause})" if clause else ""))
    return EXIT_OK if ok else EXIT_PARAMETER


def cmd_compose(args) -> int:
    first = parse_model(args.a)
    second = parse_model(args.b)
    if not isinstance(first, Bdc) or not isinstance(second, Bdc):
        raise ValueError("compose takes two 'bdc ...' model specs")
    p = compose_bdc(first.p, second.p)
    print(f"mr={format_time(p.m_r)} dr={format_time(p.d_r)} "
          f"mf={format_time(p.m_f)} df={format_time(p.d_f)}")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.retries < 0:
        raise ValueError(f"retries must be >= 0, got {args.retries}")
    model = parse_model(args.model)
    u = _signal_of(_load_signal(args.input, "--input")[1], None)
    span = (u.bps[-1] if u.bps else Fraction(0)) + 8
    x = _sample(u, model, _random_free(random.Random(args.seed), span), args.retries)
    _write(format_signal_literal("x", x) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sigdelay",
        description="Exact delay-condition checking and asynchronous-circuit simulation")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a netlist by event-driven simulation")
    sim.add_argument("--netlist", required=True)
    sim.add_argument("--inputs", help="signal file for the primary inputs")
    sim.add_argument("--input", action="append",
                     help="inline 'name: v @ times' input literal (repeatable)")
    sim.add_argument("--init", action="append",
                     help="net=bit initial-value override (repeatable)")
    sim.add_argument("--until", required=True, help="horizon (exact rational)")
    sim.add_argument("--format", choices=("ascii", "vcd", "json-report"),
                     default="ascii")
    sim.add_argument("--event-budget", type=int, default=None,
                     help="most switches any net may make before exit 3 "
                          "(default 10000)")
    sim.add_argument("--out")
    sim.set_defaults(fn=cmd_simulate)

    chk = sub.add_parser("check", help="judge a trace against a delay model")
    chk.add_argument("--model", required=True)
    chk.add_argument("--state", required=True,
                     help="output signal (file or inline literal)")
    chk.add_argument("--input", help="input signal (file or inline literal)")
    chk.add_argument("--until", help="ignore violations after this time")
    chk.add_argument("--format", choices=("text", "json-report"), default="text")
    chk.add_argument("--out")
    chk.set_defaults(fn=cmd_check)

    con = sub.add_parser("consistent", help="evaluate a model's consistency condition")
    con.add_argument("--model", required=True)
    con.set_defaults(fn=cmd_consistent)

    comp = sub.add_parser("compose", help="serial connection of two bounded delays")
    comp.add_argument("--a", required=True)
    comp.add_argument("--b", required=True)
    comp.set_defaults(fn=cmd_compose)

    samp = sub.add_parser("sample", help="write a verified member of a model")
    samp.add_argument("--model", required=True)
    samp.add_argument("--input", required=True)
    samp.add_argument("--seed", type=int, default=0)
    samp.add_argument("--retries", type=int, default=8)
    samp.add_argument("--out")
    samp.set_defaults(fn=cmd_sample)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EventBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVENT_BUDGET
    except SampleRetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (ValueError, OSError) as exc:  # an inconsistent model or netlist too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except RuntimeError as exc:  # after its subclasses above
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
