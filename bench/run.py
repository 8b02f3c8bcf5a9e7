"""Closed-loop benchmark of sigdelay: one process, one thread, one caller.

    python3 bench/run.py --workload sim-circuits --seed 1 --seconds 30 --trace 0

The benchmark generates seeded inputs (``workloads.py``), sets up several
times and reports the median set-up time, then runs passes over the
workload's jobs until ``--seconds`` have elapsed; each job starts only
after the previous one returned.  Every answer is checked: each
execution against its expected exit code and against the first
execution of the same job, each distinct job by the brute route
(``oracle.py``; every job below the largest size class and one seeded job
per kind in it), and, for the default seed, against the answers recorded
in ``answers.json``.  A job over the time cap counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics
(``tracer.py``).  Both print a growth table (median job time and, when
traced, per-layer work for each size class) and write it, with the
spans of the first traced pass, under ``bench/out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Exit codes: 0 with a result printed; 2 when sigdelay's sources are not
next to the benchmark; 3 when a trace hook reached none of the code a
workload must exercise (the interception no longer hooks).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
ANSWERS = os.path.join(BENCH, "answers.json")
DEFAULT_SEED = 1
SETUPS = 5          # set-ups per run; setup_s is their median
JOB_CAP_S = 10.0    # per-job time cap; a slower job counts as failed
REF_EVERY_S = 0.2   # host speed is sampled this often during the loop
REF_WINDOW_S = 1.0  # samples this close to a job measure its host speed
REF_QUIET_S = 0.85e-3  # reference() on a quiet 2-vCPU x86-64 container, CPython 3.11

END_TO_END = {  # name -> unit
    "jobs_per_s": "1/s", "toggles_per_s": "1/s", "job_p50_ms": "ms",
    "job_p95_ms": "ms", "cost_exponent": "1", "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "stepfn.interval_probes": "count",
    "stepfn.indicator.calls": "count", "stepfn.indicator.self_s": "s",
    "stepfn.window.calls": "count", "stepfn.window.self_s": "s",
    "stepfn.boolean.calls": "count", "stepfn.boolean.self_s": "s",
    "stepfn.level_set.self_s": "s", "stepfn.bps_out": "count", "stepfn.self_s": "s",
    "conditions.check_membership.calls": "count",
    "conditions.check_membership.total_s": "s",
    "conditions.check_membership.self_s": "s",
    "conditions.violations": "count", "conditions.parse_model.self_s": "s",
    "solvers.solve.calls": "count", "solvers.solve.total_s": "s",
    "solvers.solve.self_s": "s",
    "solvers.enumerate.candidates": "count", "solvers.enumerate.accepted": "count",
    "solvers.enumerate.accept_ratio": "ratio",
    "solvers.sample.attempts": "count", "solvers.sample.accept_ratio": "ratio",
    "circuit.simulate.calls": "count", "circuit.simulate.total_s": "s",
    "circuit.simulate.self_s": "s",
    "circuit.delay_evals": "count", "circuit.rounds": "ratio",
    "circuit.conformance.total_s": "s", "circuit.validate.total_s": "s",
    "circuit.toggles_out": "count",
    "vcd.export.total_s": "s", "vcd.import.total_s": "s",
    "cli.main.self_s": "s", "cli.render.total_s": "s",
    "trace.overhead_ratio": "ratio",
}


class JobTimeout(BaseException):
    """Raised by the interval timer inside a job that exceeds the cap."""


def _alarm(_signum, _frame):
    raise JobTimeout


def reference() -> int:
    """Fixed pure-Python work: Fraction arithmetic like sigdelay's, but none
    of its code, so that no change to sigdelay moves its time."""
    acc, hits = Fraction(0), 0
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        hits += acc < i
    return hits


class HostSpeed:
    """How much slower than when quiet the host runs, sampled through a run.

    Shared hosts slow a process down by up to 2x for tens of seconds at a
    time.  Every measured time is divided by the slowdown around it, so
    it reads as on the quiet host; the slowdown itself is reported.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False):
        now = perf_counter()
        if force or not self.at or now - self.at[-1] >= REF_EVERY_S:
            reference()
            self.at.append(now)
            self.took.append(perf_counter() - now)

    def slowdown(self, t: float) -> float:
        lo = bisect_left(self.at, t - REF_WINDOW_S)
        hi = bisect_right(self.at, t + REF_WINDOW_S)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return statistics.median(near) / REF_QUIET_S

    def scaled(self, t0: float, dt: float) -> float:
        return dt / self.slowdown(t0 + dt / 2)


def load_sigdelay():
    """A fresh import of sigdelay from the sources next to the benchmark."""
    for name in [m for m in sys.modules if m == "sigdelay" or m.startswith("sigdelay.")]:
        del sys.modules[name]
    sd = importlib.import_module("sigdelay")
    importlib.import_module("sigdelay.cli")
    if not os.path.abspath(sd.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sigdelay was imported from {sd.__file__}, not from {SRC}")
    return sd


def set_up(workload: str, seed: int, work: str):
    """Import, generate inputs, write their files, warm up one job per kind."""
    from workloads import WORKLOADS
    sd = load_sigdelay()
    wl = WORKLOADS[workload](sd, random.Random(f"{workload}/{seed}"), work)
    seen = set()
    for job in wl.jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            job.call()
    return sd, wl


class Runner:
    """Runs jobs in a closed loop and keeps every answer's judgement."""

    def __init__(self, wl, host: HostSpeed, cap: float = JOB_CAP_S):
        self.wl, self.host, self.cap = wl, host, cap
        self.first: dict[int, object] = {}    # job index -> first answer
        self.canon: dict[int, str] = {}
        self.size: dict[int, int] = {}        # job index -> toggles, once gated
        self.errors: dict[int, str] = {}      # job index -> first problem
        # executions: (job index, start, seconds), untraced and traced
        self.runs: list[tuple[int, float, float]] = []
        self.traced: list[tuple[int, float, float]] = []

    def run_pass(self, order, tracer=None, stop_at=math.inf, deadline=math.inf) -> float:
        """One pass over the jobs in the given order; returns its time, on
        the quiet host.

        Past ``stop_at`` the pass ends early; past ``deadline`` the
        remaining jobs count as failed (a run of hung jobs).
        """
        runs = self.runs if tracer is None else self.traced
        first = len(runs)
        for i in order:
            job = self.wl.jobs[i]
            if perf_counter() > stop_at:
                break
            if perf_counter() > deadline:
                self.errors.setdefault(i, "not reached before the deadline")
                continue
            if i in self.errors and self.errors[i].startswith("over the"):
                runs.append((i, perf_counter(), self.cap))  # a capped job is not rerun
                continue
            self.host.sample()
            if tracer is not None:
                tracer.start_job(i)
            err, ans = None, None
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.cap)
            try:
                ans = job.call()
                dt = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            except JobTimeout:
                dt, err = self.cap, f"over the {self.cap:g} s job cap"
            except Exception as exc:  # a crash is a wrong answer, not a benchmark error
                signal.setitimer(signal.ITIMER_REAL, 0)
                dt, err = perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
            if tracer is not None:
                tracer.end_job()
            runs.append((i, t0, dt))
            if err is None:
                err = self.judge(i, ans)
            if err is not None:
                self.errors.setdefault(i, err)
        return sum(self.host.scaled(t0, dt) for _, t0, dt in runs[first:])

    def judge(self, i: int, ans) -> str | None:
        """The cheap checks every execution gets."""
        job = self.wl.jobs[i]
        try:
            err, text = job.expect(ans), job.canon(ans)
        except Exception as exc:  # an unreadable answer is a wrong answer
            return f"answer could not be read: {type(exc).__name__}: {exc}"
        if i not in self.first:
            self.first[i], self.canon[i] = ans, text
        elif text != self.canon[i]:
            return "answer differs from the job's first execution"
        return err

    def gate(self, rng: random.Random, recorded: dict | None):
        """Brute-check distinct answers, compare recorded ones, read sizes."""
        jobs = self.wl.jobs
        top = max(j.size_class for j in jobs if j.size_class is not None)
        by_kind: dict[str, list[int]] = {}
        for i, j in enumerate(jobs):
            if j.size_class == top:
                by_kind.setdefault(j.kind, []).append(i)
        sampled = {rng.choice(ids) for ids in by_kind.values()}
        for i, ans in self.first.items():
            job = jobs[i]
            if job.size_class == top and i not in sampled:
                continue
            try:
                err = job.verify(ans) or (job.complete(ans) if job.complete else None)
            except Exception as exc:  # an unreadable answer is a wrong answer
                err = f"answer could not be checked: {type(exc).__name__}: {exc}"
            if err:
                self.errors.setdefault(i, err)
        if recorded is not None:
            for i, job in enumerate(jobs):
                if i in self.canon and recorded.get(job.name) != digest(self.canon[i]):
                    self.errors.setdefault(i, "answer differs from the recorded answer")
        for i, ans in self.first.items():
            if i not in self.errors:
                try:
                    self.size[i] = jobs[i].toggles(ans)
                except Exception as exc:  # an unreadable answer is a wrong answer
                    self.errors[i] = f"answer could not be read: {type(exc).__name__}: {exc}"

    def attempted(self) -> int:
        return len(self.runs) + len(self.traced)

    def failed(self) -> int:
        return sum(1 for i, _, _ in self.runs + self.traced if i in self.errors)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def typical_times(runner: Runner) -> dict[int, float]:
    """Each job's time on the quiet host: the median over its untraced
    executions of the time scaled by the host's slowdown around it."""
    execs: dict[int, list[float]] = {}
    for i, t0, dt in runner.runs:
        execs.setdefault(i, []).append(runner.host.scaled(t0, dt))
    return {i: statistics.median(v) for i, v in execs.items()}


def growth(runner: Runner, typical):
    """Per (kind, size class): the median job time and median job size."""
    jobs, size = runner.wl.jobs, runner.size
    cells: dict = {}
    for i, t in typical.items():
        j = jobs[i]
        if j.size_class is not None and i in size:
            cells.setdefault((j.kind, j.size_class), []).append((t, size[i]))
    return {key: (statistics.median(d for d, _ in v), statistics.median(s for _, s in v))
                  for key, v in cells.items()}


def _moments(pts):
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts),
            sum((x - mx) ** 2 for x, _ in pts))


def log_points(cells) -> dict:
    """Job kind -> [(log median size, log median seconds)] over size classes."""
    by_kind: dict = {}
    for (kind, _), (t, s) in sorted(cells.items()):
        if t > 0 and s > 0:
            by_kind.setdefault(kind, []).append((math.log(s), math.log(t)))
    return {k: v for k, v in by_kind.items() if len(v) >= 2}


def cost_exponent(cells) -> float:
    """Slope of log median time on log size, fitted within each job kind
    (one slope, a separate intercept per kind)."""
    num = den = 0.0
    for pts in log_points(cells).values():
        a, b = _moments(pts)
        num, den = num + a, den + b
    return num / den if den else float("nan")


def _slope(pts) -> float:
    a, b = _moments(pts)
    return a / b if b else float("nan")


def kind_exponents(cells) -> dict:
    return {k: _slope(pts) for k, pts in log_points(cells).items()}


def layer_exponents(wl, table) -> dict:
    """Per traced layer figure: slope of log(figure per job) on log(median
    job size) over the size classes."""
    jobs_in = {}
    for j in wl.jobs:
        jobs_in[class_label(wl, j)] = jobs_in.get(class_label(wl, j), 0) + 1
    pts: dict = {}
    for label, row in table.items():
        for name, v in row.get("layers", {}).items():
            if label != "none" and v > 0 and row["median_toggles"] > 0:
                pts.setdefault(name, []).append(
                    (math.log(row["median_toggles"]), math.log(v / jobs_in[label])))
    return {name: _slope(p) for name, p in sorted(pts.items()) if len(p) >= 2}


def class_label(wl, job) -> str:
    return "none" if job.size_class is None else str(wl.classes[job.size_class])


def class_table(runner: Runner, typical) -> dict:
    """Per size class: executions, median job ms and median job toggles."""
    wl, size = runner.wl, runner.size
    rows: dict = {}
    for i, t in typical.items():
        rows.setdefault(class_label(wl, wl.jobs[i]), []).append((t, size.get(i, 0)))
    execs: dict = {}
    for i, _, _ in runner.runs:
        label = class_label(wl, wl.jobs[i])
        execs[label] = execs.get(label, 0) + 1
    return {label: {"executions": execs[label],
                    "median_job_ms": statistics.median(d for d, _ in v) * 1e3,
                    "median_toggles": statistics.median(s for _, s in v)}
            for label, v in sorted(rows.items())}


def end_to_end(runner: Runner, typical, cells, setup_times) -> dict:
    """Figures from each job's typical time (see typical_times); rates are
    for one pass over the jobs, where every job runs once, and latency
    percentiles weight each job by its executions."""
    pass_s = sum(typical.values())
    times = sorted(typical[i] for i, _, _ in runner.runs)
    return {
        "jobs_per_s": len(typical) / pass_s,
        "toggles_per_s": sum(runner.size.get(i, 0) for i in typical) / pass_s,
        "job_p50_ms": percentile(times, 0.50) * 1e3,
        "job_p95_ms": percentile(times, 0.95) * 1e3,
        "cost_exponent": cost_exponent(cells),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list, walls_traced, walls_plain) -> tuple[dict, list[str]]:
    """Exact counts from the first traced pass (they must repeat in every
    pass), times as the median over traced passes."""
    from tracer import EXACT
    problems = []
    first = passes[0]
    for k, later in enumerate(passes[1:], start=2):
        for name in EXACT:
            if later.get(name, 0) != first.get(name, 0):
                problems.append(f"{name} reads {later.get(name)} in traced pass {k}, "
                                f"{first.get(name)} in pass 1")
    out = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            out[name] = statistics.median(p.get(name, 0.0) for p in passes)
        elif name in first:
            out[name] = first[name]
    cands, acc = first["solvers.enumerate.candidates"], first["solvers.enumerate.accepted"]
    att, ok = first["solvers.sample.attempts"], first["solvers.sample.accepted"]
    out["solvers.enumerate.accept_ratio"] = acc / cands if cands else 0.0
    out["solvers.sample.accept_ratio"] = ok / att if att else 0.0
    elems = first["circuit.delay_elements"]
    out["circuit.rounds"] = first["circuit.delay_evals"] / elems if elems else 0.0
    # the first untraced pass also fills the allocator's arenas; leave it
    # out of the ratio when later ones exist
    out["trace.overhead_ratio"] = (statistics.median(walls_traced)
                                   / statistics.median(walls_plain[1:] or walls_plain))
    return {name: out[name] for name in PER_LAYER}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim-circuits", "check-long", "small-batch"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-answers", action="store_true",
                    help="store this run's answer digests as the recorded answers")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sigdelay", "__init__.py")):
        print(f"error: no sigdelay sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        return measure(args, work)
    finally:
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)


def measure(args, work: str) -> int:
    host = HostSpeed()
    setups = []
    for _ in range(SETUPS):
        host.sample(force=True)
        t0 = perf_counter()
        sd, wl = set_up(args.workload, args.seed, work)
        setups.append((t0, perf_counter() - t0))
    host.sample(force=True)
    setup_times = [host.scaled(t0, dt) for t0, dt in setups]

    runner = Runner(wl, host)
    order = list(range(len(wl.jobs)))
    random.Random(f"order/{args.seed}").shuffle(order)
    start = perf_counter()
    stop_at = start + args.seconds
    deadline = start + 2 * args.seconds + 30
    passes, walls_plain, walls_traced = [], [], []
    if not args.trace:
        # whole first pass (every job answered once), then until stop_at
        runner.run_pass(order, deadline=deadline)
        while perf_counter() < stop_at:
            runner.run_pass(order, stop_at=stop_at)
    else:
        from tracer import Tracer
        tracer = Tracer(sd)
        job_class = {i: class_label(wl, j) for i, j in enumerate(wl.jobs)}
        # untraced and traced passes alternate; a pair starts only if it
        # fits before stop_at, judged by the previous pair
        pair_s = 0.0
        while not passes or perf_counter() + pair_s <= stop_at:
            t_pair = perf_counter()
            walls_plain.append(runner.run_pass(order, deadline=deadline))
            tracer.reset()
            tracer.install()
            try:
                walls_traced.append(runner.run_pass(order, tracer, deadline=deadline))
            finally:
                tracer.uninstall()
            totals, by_class = tracer.aggregate(job_class)
            if not passes:
                os.makedirs(OUT, exist_ok=True)
                tracer.write_spans(os.path.join(
                    OUT, f"{args.workload}-seed{args.seed}.spans.tsv"))
                first_by_class = by_class
            passes.append(totals)
            pair_s = perf_counter() - t_pair
    elapsed = perf_counter() - start

    recorded = None
    if args.seed == DEFAULT_SEED and not args.record_answers:
        with open(ANSWERS, encoding="utf-8") as fh:
            recorded = json.load(fh)[args.workload]
    runner.gate(random.Random(f"gate/{args.workload}/{args.seed}"), recorded)
    typical = typical_times(runner)
    cells = growth(runner, typical)
    problems = []
    if args.trace:
        unreached = [n for n in wl.required if not passes[0].get(n)]
        if unreached:
            print(f"error: trace hooks reached no {', '.join(unreached)}; "
                  "the interception no longer hooks sigdelay", file=sys.stderr)
            return 3
        metrics, problems = per_layer(passes, walls_traced, walls_plain)
        units = PER_LAYER
    else:
        metrics = end_to_end(runner, typical, cells, setup_times)
        units = END_TO_END

    table = class_table(runner, typical)
    if args.trace:
        for label, row in table.items():
            row["layers"] = first_by_class.get(label, {})
    attempted, failed = runner.attempted(), runner.failed()
    slow = statistics.median(host.took) / REF_QUIET_S
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": elapsed, "attempted": attempted, "failed": failed,
              "host_slowdown": slow,
              "fail_ratio": failed / attempted, "metrics": metrics, "growth": table,
              "kinds": {f"{k}/{wl.classes[c]}": {"median_ms": t * 1e3, "median_toggles": s}
                        for (k, c), (t, s) in sorted(cells.items())},
              "kind_exponents": kind_exponents(cells),
              "layer_exponents": layer_exponents(wl, table) if args.trace else {},
              "failures": {wl.jobs[i].name: e for i, e in sorted(runner.errors.items())},
              "problems": problems}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    if args.record_answers:
        record_answers(wl, runner)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {elapsed:.1f}  executions {attempted}  host slowdown {slow:.3f}")
    for name, e in report["failures"].items():
        print(f"FAILED {name}: {e}")
    for p in problems:
        print(f"PROBLEM {p}")
    print(f"{'size class':>12} {'executions':>10} {'median ms':>10} {'toggles':>8}")
    for label, row in table.items():
        print(f"{label:>12} {row['executions']:>10} {row['median_job_ms']:>10.3f} "
              f"{row['median_toggles']:>8g}")
        layers = row.get("layers", {})
        if layers:  # one traced pass, this class's jobs only
            print(" " * 13 + " ".join(f"{k}={layers[k]:.6g}" for k in sorted(layers)))
    for kind, e in report["kind_exponents"].items():
        print(f"exponent {kind} = {e:.3f}")
    for name, e in report["layer_exponents"].items():
        print(f"layer exponent {name} = {e:.3f}")
    print(f"fail_ratio = {failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, value in metrics.items():
        extra = (f"  (n={len(runner.runs)} executions of {len(runner.first)} jobs)"
                 if name.startswith("job_p") else "")
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def record_answers(wl, runner: Runner):
    data = {}
    if os.path.exists(ANSWERS):
        with open(ANSWERS, encoding="utf-8") as fh:
            data = json.load(fh)
    data[wl.name] = {wl.jobs[i].name: digest(runner.canon[i]) for i in sorted(runner.canon)}
    with open(ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
