"""Seeded job generators for the three benchmark workloads.

A job is one closed-loop call into sigdelay: a ``cli.main`` argv run
in-process or one public library function.  The seed fixes every input;
the job *slots* (kind, size class, member or violating) are the same for
every seed, so two seeds differ only in the properties listed below and
their run-to-run cost stays comparable.

Input properties the seed varies:

* toggle counts inside each doubling size class;
* time denominators: every gap is a multiple of 1, 1/3 or 1/7, mixed
  within one signal (Fraction gcd cost, VCD lcm scaling);
* pulse widths relative to the delay windows: a share of the pulses is
  shorter than the window, so the inertial models cancel them;
* member versus violating traces (half each on ``check-long``);
* feedback (NOT ring) versus feed-forward (C-element, delay line)
  circuits, with seeded delays, initial values and output formats.

The size measure of a job is the number of toggles of its input and
output signals; the cost exponent is fitted over it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations
from typing import Any, Callable, Optional

import oracle

DENOMS = (1, 3, 7)

# size classes (doubling) of each workload
SIM_RING_HORIZON = (6, 12, 24, 48)     # in units of the mean ring delay
SIM_FIXED_HORIZON = (12, 24, 48, 96)
SIM_FF_TOGGLES = (3, 6, 12, 24)        # input toggles of the C-element and delay line
CHECK_TOGGLES = (64, 128, 256)          # input toggles of one long check
SMALL_TOGGLES = (1, 2, 4, 8)           # input toggles of one short job


@dataclass
class Job:
    """One timed call with the routes that judge its answer.

    ``call`` is the timed work.  ``expect`` is the cheap check every
    execution gets (exit code, construction); ``verify`` is the brute
    route, run once per distinct job outside the timed region.
    """

    name: str
    kind: str
    size_class: Optional[int]
    call: Callable[[], Any]
    expect: Callable[[Any], Optional[str]]
    verify: Callable[[Any], Optional[str]]
    canon: Callable[[Any], str]
    toggles: Callable[[Any], int]
    complete: Optional[Callable[[Any], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    classes: tuple
    jobs: list
    required: tuple  # trace counters the jobs must reach


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def gap(rng: random.Random, lo, hi) -> F:
    """A positive time in [lo, hi] on a seeded denominator grid."""
    q = rng.choice(DENOMS)
    a, b = -(-F(lo) * q // 1), F(hi) * q // 1
    return F(rng.randint(max(int(a), 1), max(int(b), 1)), q)


def train(rng, n, long, short=None, p_short=0.0, quiet_at=None, quiet=0):
    """n increasing toggle times; round(p_short * n) gaps, at seeded places,
    are short (the count is fixed so that seeds differ little in cost).

    With ``quiet_at`` the gap before that toggle is stretched by ``quiet``,
    which leaves one long stable stretch.
    """
    shorts = set(rng.sample(range(n), round(p_short * n))) if short else set()
    t, out = F(0), []
    for i in range(n):
        lo, hi = short if i in shorts else long
        t += gap(rng, lo, hi) + (quiet if i == quiet_at else 0)
        out.append(t)
    return out


def fmt(t: F) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def literal(name, init, toggles) -> str:
    if not toggles:
        return f"{name}: {init}"
    return f"{name}: {init} @ " + ", ".join(fmt(t) for t in toggles)


def repr_of(sig) -> tuple[int, tuple]:
    return sig.leading, sig.toggles()


def run_cli(sd, argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with its output captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sd.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def exit_is(code: int):
    def expect(ans):
        return None if ans[0] == code else f"exit {ans[0]}, expected {code}"
    return expect


def parse_literal_line(line: str) -> tuple[int, list[F]]:
    """(initial, toggles) of a 'name: v @ t1, t2' line, without sigdelay."""
    rest = line.partition(":")[2]
    init, _, times = rest.partition("@")
    return int(init.strip()), [F(t.strip()) for t in times.split(",") if t.strip()]


def nothing(_ans):
    return None


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# sim-circuits
# ---------------------------------------------------------------------------

def waves_from_answer(sd, fmt_name: str, text: str):
    """Net -> (initial, toggles) and horizon from a simulate output."""
    if fmt_name == "vcd":
        w = sd.import_vcd(text)
        if sd.export_vcd(w) != text:
            raise ValueError("VCD does not survive an import/export round trip")
        return {n: repr_of(s) for n, s in w.signals.items()}, w.horizon
    doc = json.loads(text)
    waves = {n: (v["initial"], tuple(F(t) for t in v["toggles"]))
             for n, v in doc["nets"].items()}
    return waves, F(doc["horizon"])


def sim_job(sd, name, kind, k, netlist, inputs, horizon, fmt_name, work):
    net_path = write(os.path.join(work, f"{name}.net"), sd.format_netlist(netlist))
    argv = ["simulate", "--netlist", net_path, "--until", fmt(horizon),
            "--format", fmt_name]
    if inputs:
        sig_path = os.path.join(work, f"{name}.sig")
        write(sig_path, "".join(literal(n, *v) + "\n" for n, v in inputs.items()))
        argv += ["--inputs", sig_path]

    def verify(ans):
        waves, h = waves_from_answer(sd, fmt_name, ans[1])
        if h != horizon:
            return f"horizon {h} != {horizon}"
        for n, v in inputs.items():
            if waves.get(n) != (v[0], tuple(t for t in v[1] if t <= horizon)):
                return f"input {n} was not passed through"
        errors = oracle.circuit_errors(sd, netlist, waves, horizon)
        return "; ".join(errors) or None

    def toggles(ans):
        waves, _ = waves_from_answer(sd, fmt_name, ans[1])
        return sum(len(ts) for _, ts in waves.values())

    return Job(name, kind, k, lambda: run_cli(sd, argv), exit_is(0), verify,
               lambda ans: f"{ans[0]}\n{ans[1]}", toggles)


def sim_circuits(sd, rng: random.Random, work: str) -> Workload:
    jobs = []
    for k in range(4):
        for rep in range(4):
            tag = f"k{k}.{rep}"
            fmt_name = "vcd" if (k + rep) % 4 == 3 else "json-report"
            # feedback: the NOT ring, inertial and transport delays
            d1, d2 = gap(rng, 1, 2), gap(rng, 1, 2)
            ring = sd.builtin("not-feedback", m1=sd.SdbridcPrime(d1),
                              m2=sd.SdbridcPrime(d2), x0=rng.randrange(2))
            jobs.append(sim_job(sd, f"ring-sdbridc.{tag}", "ring-sdbridc", k, ring, {},
                                SIM_RING_HORIZON[k] * (d1 + d2) / 2, fmt_name, work))
            d1, d2 = gap(rng, 1, 2), gap(rng, 1, 2)
            ring = sd.builtin("not-feedback", m1=sd.Fixed(d1), m2=sd.Fixed(d2),
                              x0=rng.randrange(2))
            jobs.append(sim_job(sd, f"ring-fixed.{tag}", "ring-fixed", k, ring, {},
                                SIM_FIXED_HORIZON[k] * (d1 + d2) / 2, fmt_name, work))
            # pulse trains whose widths straddle the windows; the C-element's
            # inputs are one train and its copy lagging by a seeded constant
            n = SIM_FF_TOGGLES[k]
            lead = rng.randrange(2)
            u = train(rng, n, (3, 6), (F(1, 3), 2), 0.3)
            lag = F(rng.randrange(0, 7), 7)
            v = [t + lag for t in u]
            if rng.randrange(2):
                u, v = v, u
            h = max(u[-1], v[-1]) + 6
            jobs.append(sim_job(sd, f"c-element.{tag}", "c-element", k,
                                sd.builtin("c-element"),
                                {"u": (lead, u), "v": (lead, v)}, h, fmt_name, work))
            models = [sd.Fixed(gap(rng, F(1, 3), 1)) if i % 2 else
                      sd.SdbridcPrime(gap(rng, F(1, 3), 1)) for i in range(6)]
            u = train(rng, n, (2, 6), (F(1, 7), 1), 0.3)
            jobs.append(sim_job(sd, f"delay-line.{tag}", "delay-line", k,
                                sd.builtin("delay-line-falling", models=models),
                                {"u": (rng.randrange(2), u)}, u[-1] + 8, fmt_name, work))
    # an oscillation past the event budget ends in exit 3
    ring = sd.builtin("not-feedback", m1=sd.Fixed(1), m2=sd.Fixed(gap(rng, 1, 2)), x0=0)
    path = write(os.path.join(work, "budget.net"), sd.format_netlist(ring))
    argv = ["simulate", "--netlist", path, "--until", "40", "--event-budget", "4",
            "--format", "json-report"]
    jobs.append(Job("ring-budget", "ring-budget", None, lambda: run_cli(sd, argv),
                    exit_is(3), nothing, lambda ans: f"{ans[0]}\n{ans[1]}",
                    lambda ans: 0))
    return Workload("sim-circuits", ("x1", "x2", "x4", "x8"), jobs,
                    ("cli.main.calls", "circuit.simulate.calls", "circuit.delay_evals",
                     "solvers.solve.calls", "stepfn.boolean.calls",
                     "stepfn.interval_probes", "vcd.export.calls"))


# ---------------------------------------------------------------------------
# check-long
# ---------------------------------------------------------------------------

CHECK_MODELS = {
    "bdc": "bdc mr=1 dr=3 mf=1 df=3",
    "bridc": "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2",
    "dbridc": "dbridc mr=1 dr=3 mf=1 df=3",
    "sdbridc": "sdbridc d=2",
    "aic": "aic dr=1 df=1",
}
QUIET = 12  # one stable input stretch, longer than every window


def free_signal(sd, rng, span: F):
    ts = sorted(rng.sample(range(int(span) * 2), int(span) // 2))
    return sd.StepFunction.from_toggles(rng.randrange(2), [F(t, 2) for t in ts])


# Members built from toggle lists by the models' closed forms, without
# sigdelay: the program under test only ever sees the finished traces.

def inertial(u0: int, us: list, d, m) -> list:
    """The dbridc solution for symmetric (m, d): the output takes an input
    run's value d after the run starts, if the run lasts longer than m."""
    x = v = u0
    out = []
    for s, nxt in zip(us, us[1:] + [None]):
        v ^= 1
        if v != x and (nxt is None or nxt - s > m):
            out.append(s + d)
            x = v
    return out


def quiet_follow(u0: int, us: list, d) -> list:
    """The sdbridc solution: the output follows the input once the open
    window (t-d, t) holds no input switch."""
    x = v = u0
    out = []
    for s, nxt in zip(us, us[1:] + [None]):
        v ^= 1
        if v != x and (nxt is None or nxt >= s + d):
            out.append(s + d)
            x = v
    return out


def member_toggles(rng, key, u0, us) -> list:
    """Toggles of a member of CHECK_MODELS[key] for the input (u0, us)."""
    if key == "bdc":     # any transport delay in [dr - mr, dr] = [2, 3]
        d = 2 + F(rng.randrange(0, 7), 7)
        return [t + d for t in us]
    if key == "bridc":   # the transport delay equal to deltar = deltaf
        return [t + 2 for t in us]
    if key == "dbridc":
        return inertial(u0, us, 3, 1)
    return quiet_follow(u0, us, 2)


def long_member(rng, key, n):
    """(input or None, member, start of a stretch where every member is
    constant)."""
    at = n // 2 + rng.randrange(-(n // 4), n // 4 + 1)
    if key == "aic":  # every pulse outlasts the hold time
        ts = train(rng, n, (2, 5), quiet_at=at, quiet=QUIET)
        return None, (rng.randrange(2), tuple(ts)), ts[at - 1]
    ts = train(rng, n, (3, 8), (F(1, 7), 2), 0.25, quiet_at=at, quiet=QUIET)
    u0 = rng.randrange(2)
    return (u0, tuple(ts)), (u0, tuple(member_toggles(rng, key, u0, ts))), ts[at - 1]


def check_long(sd, rng: random.Random, work: str) -> Workload:
    jobs = []
    for k, n in enumerate(CHECK_TOGGLES):
        for key, spec in CHECK_MODELS.items():
            model = sd.parse_model(spec)
            ur, (x0, xs0), stable = long_member(rng, key, n)
            for violating in (False, True):
                xs = xs0
                if violating:
                    # a 1/7 glitch deep inside the stretch where every member is
                    # constant: it breaks the bound, the hold time or the equation
                    g = stable + 4 + F(rng.randrange(0, 42), 7)
                    xs = tuple(sorted(xs + (g, g + F(1, 7))))
                name = f"{key}.n{n}.{'violating' if violating else 'member'}"
                state = write(os.path.join(work, f"{name}.x.sig"), literal("x", x0, xs) + "\n")
                argv = ["check", "--model", spec, "--state", state,
                        "--format", rng.choice(("text", "json-report"))]
                if ur is not None:
                    argv += ["--input", write(os.path.join(work, f"{name}.u.sig"),
                                              literal("u", *ur) + "\n")]
                size = len(xs) + (0 if ur is None else len(ur[1]))
                jobs.append(Job(
                    name, f"check-{key}", k,
                    lambda argv=argv: run_cli(sd, argv),
                    exit_is(1 if violating else 0),
                    lambda ans, ur=ur, xr=(x0, xs), m=model: _verdict_error(sd, ans, ur, xr, m),
                    lambda ans: f"{ans[0]}\n{ans[1]}",
                    lambda ans, size=size: size))
    return Workload("check-long", CHECK_TOGGLES, jobs,
                    ("cli.main.calls", "conditions.check_membership.calls",
                     "stepfn.window.calls", "stepfn.indicator.calls",
                     "stepfn.interval_probes"))


def _verdict_error(sd, ans, ur, xr, model) -> Optional[str]:
    ok = oracle.member(sd, ur, xr, model)
    if ans[0] != (0 if ok else 1):
        return f"exit {ans[0]} but the brute verdict is {'member' if ok else 'violation'}"
    if ans[1].lstrip().startswith("{"):
        if json.loads(ans[1])["ok"] != ok:
            return "json-report verdict disagrees with the brute verdict"
    elif (ans[1] == "ok\n") != ok:
        return "text verdict disagrees with the brute verdict"
    return None


# ---------------------------------------------------------------------------
# small-batch
# ---------------------------------------------------------------------------

ENUM_MODELS = {
    "aic": "aic dr=1 df=1",
    "bdc": "bdc mr=1 dr=2 mf=1 df=2",
    "bridc": "bridc mr=1 dr=2 mf=1 df=2 mur=0 deltar=1 muf=0 deltaf=1",
    "ric": "ric mur=0 deltar=1 muf=0 deltaf=1",
}
SAMPLE_SPEC = "bridc mr=1 dr=3 mf=1 df=3 mur=0 deltar=2 muf=0 deltaf=2"
CLI_CHECK = ("bdc", "sdbridc", "dbridc")  # keys of CHECK_MODELS
CLI_SAMPLE = ("bdc mr=1 dr=2 mf=1 df=2", SAMPLE_SPEC, "dbridc mr=1 dr=2 mf=1 df=2")


def grid_family(points, max_toggles):
    for x0 in (0, 1):
        for j in range(max_toggles + 1):
            for ts in combinations(points, j):
                yield x0, ts


def small_signal(rng, n) -> tuple[int, list[F]]:
    return rng.randrange(2), train(rng, n, (F(1, 2), 3), (F(1, 7), F(1, 2)), 0.3)


def enum_job(sd, rng, key, k, n, rep):
    """Grid enumeration on a grid just wide enough for n input toggles."""
    model = sd.parse_model(ENUM_MODELS[key])
    step = F(1, 2)
    points = [i * step for i in range(n + 2)]
    u0, us = rng.randrange(2), tuple(sorted(rng.sample(points[:-1], n)))
    u = sd.StepFunction.from_toggles(u0, us)
    grid = sd.GridSpec(step, points[-1], min(n, 3))
    ur = (u0, us)

    def verify(sols):
        got = {repr_of(x) for x in sols}
        for xr in got:
            if not oracle.member(sd, ur, xr, model):
                return f"{xr} was accepted but is not a member"
        return None

    def complete(sols):
        got = {repr_of(x) for x in sols}
        want = {(x0, tuple(ts)) for x0, ts in grid_family(points, grid.max_toggles)
                if oracle.member(sd, ur, (x0, ts), model)}
        return None if got == want else f"grid solutions differ from brute: {len(got)} vs {len(want)}"

    return Job(f"enum-{key}.k{k}.{rep}", f"enum-{key}", k,
               lambda: sd.enumerate_grid_solutions(u, model, grid),
               nothing, verify,
               lambda sols: ";".join(f"{x.leading}@{','.join(map(fmt, x.bps))}" for x in sols),
               lambda sols: n + sum(len(x.bps) for x in sols), complete)


def small_batch(sd, rng: random.Random, work: str) -> Workload:
    jobs = []
    bridc = sd.parse_model(SAMPLE_SPEC)
    for k, n in enumerate(SMALL_TOGGLES):
        for key in ENUM_MODELS:
            for rep in range(2):
                jobs.append(enum_job(sd, rng, key, k, n, rep))
        for rep in range(2):
            tag = f"k{k}.{rep}"
            # sampler with a seeded free signal
            u0, us = small_signal(rng, n)
            u = sd.StepFunction.from_toggles(u0, us)
            free = free_signal(sd, rng, us[-1] + 6)
            jobs.append(Job(
                f"sample-bridc.{tag}", "sample-bridc", k,
                lambda u=u, free=free: sd.sample_bridc(u, bridc.p, bridc.r, free),
                nothing,
                lambda x, ur=(u0, tuple(us)): None if oracle.member(sd, ur, repr_of(x), bridc)
                else "sample is not a member",
                lambda x: f"{x.leading}@{','.join(map(fmt, x.bps))}",
                lambda x, n=n: n + len(x.bps)))
            # text round trips through the parsers and formatters
            jobs.append(roundtrip_job(sd, rng, f"roundtrip.{tag}", k, n))
            # the command line on inline literals
            spec = CLI_CHECK[(k + rep) % len(CLI_CHECK)]
            jobs.append(cli_check_job(sd, rng, f"cli-check.{tag}", k, n, spec))
            spec = CLI_SAMPLE[(k + rep) % len(CLI_SAMPLE)]
            jobs.append(cli_sample_job(sd, rng, f"cli-sample.{tag}", k, n, spec))
        for rep in range(2):
            jobs.append(cli_consistent_job(sd, rng, f"cli-consistent.k{k}.{rep}"))
        jobs.append(cli_compose_job(sd, rng, f"cli-compose.k{k}"))
    u0, us = small_signal(rng, 2)
    argv = ["sample", "--model", SAMPLE_SPEC, "--input", literal("u", u0, us),
            "--retries", "0"]
    jobs.append(Job("cli-sample-exhausted", "cli-sample-exhausted", None,
                    lambda: run_cli(sd, argv), exit_is(4), nothing,
                    lambda ans: f"{ans[0]}\n{ans[1]}", lambda ans: 0))
    return Workload("small-batch", SMALL_TOGGLES, jobs,
                    ("cli.main.calls", "solvers.enumerate.candidates",
                     "solvers.sample.attempts", "conditions.parse_model.calls",
                     "conditions.check_membership.calls"))


def roundtrip_job(sd, rng, name, k, n):
    mr, mf = (F(rng.randrange(0, 6), rng.choice(DENOMS)) for _ in range(2))
    vals = {"mr": mr, "dr": mr + 2, "mf": mf, "df": mf + 2}
    canon_spec = "bdc " + " ".join(f"{key}={fmt(v)}" for key, v in vals.items())
    # unreduced spellings make the parsers normalize
    loose_spec = "bdc " + " ".join(f"{key}={v.numerator * 2}/{v.denominator * 2}"
                                   for key, v in vals.items())
    u0, us = small_signal(rng, n)
    canon_sig = literal("s", u0, us)
    loose_sig = f"s: {u0} @ " + ", ".join(
        f"{t.numerator * 3}/{t.denominator * 3}" for t in us)

    def call():
        model = sd.parse_model(loose_spec)
        name_, sig = sd.parse_signal_literal(loose_sig)
        return sd.format_model(model), sd.format_signal_literal(name_, sig)

    def verify(ans):
        return None if ans == (canon_spec, canon_sig) else f"round trip gave {ans}"

    return Job(name, "roundtrip", k, call, nothing, verify,
               lambda ans: "\n".join(ans), lambda ans, n=n: 2 * n)


def cli_check_job(sd, rng, name, k, n, key):
    spec = CHECK_MODELS[key]
    u0, us = small_signal(rng, n)
    xs = tuple(member_toggles(rng, key, u0, us))
    violating = rng.random() < 0.5
    if violating:  # a glitch after the output has settled
        g = us[-1] + 4 + F(rng.randrange(0, 7), 7)
        xs = xs + (g, g + F(1, 7))
    argv = ["check", "--model", spec, "--input", literal("u", u0, us),
            "--state", literal("x", u0, xs)]
    model = sd.parse_model(spec)
    return Job(name, "cli-check", k, lambda: run_cli(sd, argv),
               exit_is(1 if violating else 0),
               lambda ans: _verdict_error(sd, ans, (u0, tuple(us)), (u0, xs), model),
               lambda ans: f"{ans[0]}\n{ans[1]}", lambda ans: len(us) + len(xs))


def cli_sample_job(sd, rng, name, k, n, spec):
    model = sd.parse_model(spec)
    u0, us = small_signal(rng, n)
    argv = ["sample", "--model", spec, "--input", literal("u", u0, us),
            "--seed", str(rng.randrange(1000))]

    def verify(ans):
        if not oracle.member(sd, (u0, tuple(us)), parse_literal_line(ans[1]), model):
            return "sampled trace is not a member"
        return None

    return Job(name, "cli-sample", k, lambda: run_cli(sd, argv), exit_is(0), verify,
               lambda ans: f"{ans[0]}\n{ans[1]}",
               lambda ans: len(us) + len(parse_literal_line(ans[1])[1]))


def cli_consistent_job(sd, rng, name):
    """bdc is consistent iff dr - mr <= df and df - mf <= dr."""
    mr, mf = F(rng.randrange(0, 4)), F(rng.randrange(0, 4), rng.choice(DENOMS))
    dr, df = mr + gap(rng, 1, 3), mf + gap(rng, 1, 3)
    if rng.random() < 0.5:
        df = dr - mr - F(1, 3)  # breaks dr - mr <= df
        mf = min(mf, df)
    ok = dr - mr <= df and df - mf <= dr
    argv = ["consistent", "--model",
            f"bdc mr={fmt(mr)} dr={fmt(dr)} mf={fmt(mf)} df={fmt(df)}"]
    return Job(name, "cli-consistent", None, lambda: run_cli(sd, argv),
               exit_is(0 if ok else 2), nothing,
               lambda ans: f"{ans[0]}\n{ans[1]}", lambda ans: 0)


def cli_compose_job(sd, rng, name):
    """Serial bounded delays: every parameter adds."""
    ps = []
    for _ in range(2):
        m = gap(rng, 0, 2)
        ps.append((m, m + 1, m, m + 1))
    spec = [f"bdc mr={fmt(a)} dr={fmt(b)} mf={fmt(c)} df={fmt(d)}" for a, b, c, d in ps]
    want = "mr={} dr={} mf={} df={}\n".format(*(fmt(a + b) for a, b in zip(*ps)))
    argv = ["compose", "--a", spec[0], "--b", spec[1]]
    return Job(name, "cli-compose", None, lambda: run_cli(sd, argv), exit_is(0),
               lambda ans: None if ans[1] == want else f"composed {ans[1]!r}, want {want!r}",
               lambda ans: f"{ans[0]}\n{ans[1]}", lambda ans: 0)


WORKLOADS = {"sim-circuits": sim_circuits, "check-long": check_long,
             "small-batch": small_batch}
