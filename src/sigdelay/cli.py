"""Command-line front-end.

Subcommands: simulate, check, consistent, compose, sample.  Exit codes
are a stable contract: 0 ok, 1 trace violation, 2 parameter or
validation error, 3 event-budget abort, 4 sampler exhaustion.

Waveform output formats: ascii (one lane per net, switch marks carrying
the direction of the attained value, exact switch times listed), vcd,
and json-report.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from .stepfn import (
    StepFunction,
    as_time,
    format_signal_literal,
    format_time,
    parse_signal_file,
    parse_signal_literal,
)
from .conditions import (
    Bdc,
    Bridc,
    CheckReport,
    InconsistentModelError,
    check_membership,
    format_model,
    compose_bdc,
    parse_model,
)
from .solvers import SampleRetryError, sample_bdc, sample_bridc
from .circuit import (
    EventBudgetError,
    ValidationError,
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


# ---------------------------------------------------------------------------
# ASCII waveforms
# ---------------------------------------------------------------------------

def render_ascii(w: WaveformSet, width: int = 64) -> str:
    """One lane per net: '_' low, '^' high, '/' and '\\' at switches.

    The switch mark leans toward the attained value; exact switch times
    follow each lane, since columns quantize time.
    """
    names = list(w.signals)
    pad = max((len(n) for n in names), default=0)
    h = w.horizon if w.horizon > 0 else Fraction(1)
    dt = Fraction(h, width)
    lines = []
    for name in names:
        sig = w.signals[name]
        cells = []
        for k in range(width):
            lo, hi = k * dt, (k + 1) * dt
            switches = [b for b in sig.bps if lo <= b < hi]
            if switches:
                cells.append("/" if sig.value(switches[-1]) == 1 else "\\")
            else:
                cells.append("^" if sig.value((lo + hi) / 2) == 1 else "_")
        times = ", ".join(format_time(b) for b in sig.bps) or "none"
        lines.append(f"{name.ljust(pad)} {''.join(cells)}  switches: {times}")
    lines.append(f"{' ' * pad} 0{' ' * (width - len(str(h)) - 1)}{h}")
    return "\n".join(lines) + "\n"


def waveforms_json(w: WaveformSet) -> str:
    nets = {
        name: {"initial": sig.leading,
               "toggles": [format_time(t) for t in sig.bps]}
        for name, sig in w.signals.items()
    }
    return json.dumps({"horizon": format_time(w.horizon), "nets": nets},
                      indent=2) + "\n"


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

def _load_signal(arg: str, what: str) -> tuple[str, StepFunction]:
    """A signal argument is either a file or an inline literal."""
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            named = parse_signal_file(fh.read())
        if len(named) != 1:
            raise ValueError(f"{what} file {arg!r} must define exactly one signal")
        return next(iter(named.items()))
    if ":" in arg:
        return parse_signal_literal(arg)
    raise ValueError(f"{what} {arg!r} is neither a file nor a 'name: v @ times' literal")


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _random_free(rng: random.Random, span: Fraction) -> StepFunction:
    """A pseudorandom free signal on a half-unit grid covering the span."""
    cells = int(span * 2) + 4
    toggles = [Fraction(k, 2) for k in range(cells) if rng.random() < Fraction(1, 3)]
    return StepFunction.from_toggles(rng.randrange(2), toggles)


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
    w = simulate(netlist, inputs, as_time(args.until))
    if args.format == "ascii":
        _write(render_ascii(w), args.out)
    elif args.format == "vcd":
        _write(export_vcd(w), args.out)
    else:
        _write(waveforms_json(w), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    model = parse_model(args.model)
    _, state = _load_signal(args.state, "--state")
    u = None
    if args.input:
        _, u = _load_signal(args.input, "--input")
    horizon = as_time(args.until) if args.until else None
    report = check_membership(u, state, model, horizon=horizon)
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
    model = parse_model(args.model)
    name, u = _load_signal(args.input, "--input")
    rng = random.Random(args.seed)
    span = (u.bps[-1] if u.bps else Fraction(0)) + 8
    if isinstance(model, Bdc):
        x = sample_bdc(u, model.p, _random_free(rng, span))
    elif isinstance(model, Bridc):
        x = sample_bridc(u, model.p, model.r, _random_free(rng, span),
                         retries=args.retries)
    elif model.solve is not None:
        x = model.solve(u)
    else:
        raise ValueError(f"sampling is not supported for {format_model(model)!r}")
    report = check_membership(u, x, model)
    if not report.ok:
        raise SampleRetryError("sampler produced an unverified trace")
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

    sim = sub.add_parser("simulate", help="run a netlist to its waveform fixpoint")
    sim.add_argument("--netlist", required=True)
    sim.add_argument("--inputs", help="signal file for the primary inputs")
    sim.add_argument("--input", action="append",
                     help="inline 'name: v @ times' input literal (repeatable)")
    sim.add_argument("--init", action="append",
                     help="net=bit initial-value override (repeatable)")
    sim.add_argument("--until", required=True, help="horizon (exact rational)")
    sim.add_argument("--format", choices=("ascii", "vcd", "json-report"),
                     default="ascii")
    sim.add_argument("--event-budget", type=int, default=None)
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
    except (InconsistentModelError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except EventBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVENT_BUDGET
    except SampleRetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
