"""Per-layer tracing by interception from outside the program.

``Tracer.install`` wraps the public functions of each sigdelay module
(the layers: stepfn, conditions, solvers, circuit, vcd, cli) and the hot
methods of the step-function classes.  ``from .stepfn import window``
binds a second copy of the name in every importing module, so every
module attribute that holds a wrapped function is patched, not only the
defining one; ``uninstall`` restores every binding.

A wrapped call records a span in memory (name, start, end, parent span,
job id).  Tiny hot methods are counted instead: ``Interval.contains``
(interval probes) and the ``StepFunction`` constructor (breakpoints of
every step function built).  A few hooks read results to count
violations, grid candidates, sampler attempts, simulated toggles and
delay evaluations.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("stepfn", "conditions", "solvers", "circuit", "vcd", "cli")

# leaf helpers too small to span (coercion and formatting of one time)
UNWRAPPED = {"as_time", "as_signal", "format_time"}

CLASS_METHODS = {
    "StepFunction": ("__and__", "__or__", "__xor__", "__invert__", "__le__",
                     "support", "zero_set", "shift", "truncate", "left_limit",
                     "right_limit", "derivative", "right_derivative",
                     "semi_derivative", "rises", "falls", "from_toggles", "const"),
    "IntervalSet": ("minkowski", "complement", "clipped_below"),
}

WINDOW = {"window", "window_inf", "window_sup", "window_inf_halfopen",
          "window_sup_halfopen"}
BOOLEAN = {f"StepFunction.{m}" for m in ("__and__", "__or__", "__xor__",
                                          "__invert__", "__le__")}
SOLVE = {"solve_fixed", "solve_dbridc", "solve_sdbridc", "bdc_bounds"}
RENDER = {"render_ascii", "waveforms_json", "report_json"}

# span groups: metric prefix -> predicate on (layer, function name)
GROUPS = {
    "stepfn.indicator": lambda layer, fn: layer == "stepfn" and fn == "indicator",
    "stepfn.window": lambda layer, fn: layer == "stepfn" and fn in WINDOW,
    "stepfn.boolean": lambda layer, fn: layer == "stepfn" and fn in BOOLEAN,
    "stepfn.level_set": lambda layer, fn: fn in ("StepFunction.support",
                                                 "StepFunction.zero_set"),
    "stepfn": lambda layer, fn: layer == "stepfn",
    "conditions.check_membership": lambda layer, fn: fn == "check_membership",
    "conditions.parse_model": lambda layer, fn: fn == "parse_model",
    "solvers.solve": lambda layer, fn: layer == "solvers" and fn in SOLVE,
    "circuit.simulate": lambda layer, fn: layer == "circuit" and fn == "simulate",
    "circuit.conformance": lambda layer, fn: fn == "check_trace_conformance",
    "circuit.validate": lambda layer, fn: layer == "circuit" and fn == "validate",
    "vcd.export": lambda layer, fn: fn == "export_vcd",
    "vcd.import": lambda layer, fn: fn == "import_vcd",
    "cli.main": lambda layer, fn: layer == "cli" and fn not in RENDER,
    "cli.render": lambda layer, fn: layer == "cli" and fn in RENDER,
}

# counters whose values are exact and must repeat between passes
EXACT = ("stepfn.interval_probes", "stepfn.bps_out", "conditions.violations",
         "solvers.enumerate.candidates", "solvers.enumerate.accepted",
         "solvers.sample.attempts", "solvers.sample.accepted",
         "circuit.delay_evals", "circuit.delay_elements", "circuit.toggles_out")


class Tracer:
    """Spans and counters of one traced pass; ``reset`` starts the next."""

    def __init__(self, sd):
        self.sd = sd
        self.patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.s_name, self.s_parent, self.s_job = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self.cur = -1
        self.job = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.probes = self.bps = 0

    def start_job(self, job: int):
        self.job = job
        self.probes = self.bps = 0

    def end_job(self):
        c = self.counts[self.job]
        c["stepfn.interval_probes"] += self.probes
        c["stepfn.bps_out"] += self.bps

    def count(self, name: str, n: int = 1):
        self.counts[self.job][name] += n

    def parent_name(self, parent: int) -> str:
        return self.names[self.s_name[parent]] if parent >= 0 else ""

    def _span(self, name: str, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.s_start)
            parent = tr.cur
            tr.s_name.append(nid)
            tr.s_parent.append(parent)
            tr.s_job.append(tr.job)
            tr.s_start.append(0.0)
            tr.s_end.append(0.0)
            tr.cur = idx
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.s_end[idx] = perf_counter()
                tr.s_start[idx] = t0
                tr.cur = parent
            if post is not None:
                post(out, args, parent)
            return out
        return wrapper

    # -- hooks on results ---------------------------------------------------

    def _on_check(self, report, _args, parent):
        if not report.ok:
            self.count("conditions.violations")
        caller = self.parent_name(parent)
        if caller == "solvers.enumerate_grid_solutions":
            self.count("solvers.enumerate.candidates")
            self.count("solvers.enumerate.accepted", int(report.ok))
        elif caller == "solvers.sample_bridc":
            self.count("solvers.sample.attempts")

    def _on_sample(self, _x, _args, _parent):
        self.count("solvers.sample.accepted")

    def _on_simulate(self, w, args, _parent):
        self.count("circuit.toggles_out", sum(len(s.bps) for s in w.signals.values()))
        self.count("circuit.delay_elements", len(args[0].delays))

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        sd = self.sd
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sigdelay" or name.startswith("sigdelay."))]
        posts = {"check_membership": self._on_check, "sample_bridc": self._on_sample,
                 "simulate": self._on_simulate}
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(sd, layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    wrapped[id(obj)] = self._span(f"{layer}.{name}", obj, posts.get(name))
        tr = self

        def delay_eval(fn):
            def wrapper(*args, **kwargs):
                tr.count("circuit.delay_evals")
                return fn(*args, **kwargs)
            return wrapper
        solve_delay = getattr(sd.circuit, "_solve_delay", None)
        if solve_delay is not None:
            wrapped[id(solve_delay)] = delay_eval(solve_delay)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, name, wrapped[id(obj)])

        for cls_name, methods in CLASS_METHODS.items():
            cls = getattr(sd.stepfn, cls_name)
            for m in methods:
                raw = cls.__dict__[m]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._span(f"stepfn.{cls_name}.{m}", raw.__func__))
                else:
                    new = self._span(f"stepfn.{cls_name}.{m}", raw)
                self._patch(cls, m, new)

        contains = sd.stepfn.Interval.__dict__["contains"]
        init = sd.stepfn.StepFunction.__dict__["__init__"]

        def counted_contains(iv, t):
            tr.probes += 1
            return contains(iv, t)

        def counted_init(sf, *args, **kwargs):
            init(sf, *args, **kwargs)
            tr.bps += len(sf.bps)

        self._patch(sd.stepfn.Interval, "contains", counted_contains)
        self._patch(sd.stepfn.StepFunction, "__init__", counted_init)

    def uninstall(self):
        while self.patches:
            owner, attr, orig = self.patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation --------------------------------------------------------

    def span_times(self):
        """Per span: (duration, self time), self = duration - children."""
        n = len(self.s_start)
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def aggregate(self, job_class) -> tuple[dict, dict]:
        """(pass totals, per size class totals) of every layer metric.

        ``job_class`` maps a job id to its size class label.
        """
        dur, self_t = self.span_times()
        split = [name.split(".", 1) for name in self.names]
        member = {g: [pred(*split[k]) for k in range(len(self.names))]
                  for g, pred in GROUPS.items()}
        total: Counter = Counter()
        by_class: dict = defaultdict(Counter)
        for i in range(len(dur)):
            k, p = self.s_name[i], self.s_parent[i]
            layer = split[k][0]
            row = by_class[job_class.get(self.s_job[i])]
            row[f"{layer}.self_s"] += self_t[i]
            for g, flags in member.items():
                if not flags[k]:
                    continue
                total[f"{g}.calls"] += 1
                total[f"{g}.self_s"] += self_t[i]
                if p < 0 or not flags[self.s_name[p]]:
                    total[f"{g}.total_s"] += dur[i]
        for job, c in self.counts.items():
            total.update(c)
            by_class[job_class.get(job)].update(c)
        for g in GROUPS:
            for key in ("calls", "self_s", "total_s"):
                total.setdefault(f"{g}.{key}", 0)
        for name in EXACT:
            total.setdefault(name, 0)
        return dict(total), {k: dict(v) for k, v in by_class.items()}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.s_start)):
                fh.write(f"{self.names[self.s_name[i]]}\t{self.s_start[i]:.9f}\t"
                         f"{self.s_end[i]:.9f}\t{self.s_parent[i]}\t{self.s_job[i]}\n")
