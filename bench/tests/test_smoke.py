"""Tiny-size smoke test of the benchmark; no timing bounds.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                      encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIM_RING_HORIZON", (2, 4, 8, 16))
    monkeypatch.setattr(workloads, "SIM_FIXED_HORIZON", (2, 4, 8, 16))
    monkeypatch.setattr(workloads, "SIM_FF_TOGGLES", (1, 2, 3, 4))
    monkeypatch.setattr(workloads, "CHECK_TOGGLES", (4, 8, 16))
    monkeypatch.setattr(workloads, "SMALL_TOGGLES", (1, 2))


def test_benchmark_json_matches_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_and_nothing_fails(tiny, capsys, workload, trace):
    seed = run.DEFAULT_SEED + 6  # the recorded answers are for full sizes
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.startswith(f"{name} = ") and line.split()[3] == want[name]
                   for line in lines), name
    assert "fail_ratio = 0 (failed 0 of" in "\n".join(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def answered(workload: str, tmp_path):
    """A workload at tiny sizes with every job answered once."""
    tmp_path.mkdir()
    sd = run.load_sigdelay()
    wl = workloads.WORKLOADS[workload](sd, random.Random(3), str(tmp_path))
    runner = run.Runner(wl, run.HostSpeed())
    runner.run_pass(range(len(wl.jobs)))
    assert runner.errors == {}
    return sd, wl, runner


def first_of(wl, runner, kind):
    return next(i for i, j in enumerate(wl.jobs) if j.kind == kind and j.size_class == 0)


def test_gate_flags_corrupted_answers(tiny, tmp_path):
    corrupted = []
    # a simulated waveform that lost its last toggle
    sd, wl, runner = answered("sim-circuits", tmp_path / "sim")
    i = first_of(wl, runner, "ring-sdbridc")
    code, text = runner.first[i]
    doc = json.loads(text)
    doc["nets"]["x"]["toggles"].pop()
    runner.first[i] = (code, json.dumps(doc))
    runner.gate(random.Random(0), None)
    corrupted.append(runner.errors.get(i))

    # a member trace reported as a violation
    sd, wl, runner = answered("check-long", tmp_path / "check")
    i = next(i for i, j in enumerate(wl.jobs) if j.name.endswith(".member")
             and j.size_class == 0)
    runner.first[i] = (1, "violation at t=0: lower-bound\n")
    runner.gate(random.Random(0), None)
    corrupted.append(runner.errors.get(i))

    # a grid enumeration that lost a solution, and a sample moved off the model
    sd, wl, runner = answered("small-batch", tmp_path / "small")
    i = next(i for i, j in enumerate(wl.jobs) if j.kind.startswith("enum-")
             and len(runner.first[i]) > 0)
    runner.first[i] = runner.first[i][1:]
    k = first_of(wl, runner, "sample-bridc")
    x = runner.first[k]
    runner.first[k] = sd.StepFunction.from_toggles(x.leading, [*x.bps, x.bps[-1] + F(1, 7)]
                                                   if x.bps else [F(1, 7)])
    runner.gate(random.Random(0), None)
    corrupted += [runner.errors.get(i), runner.errors.get(k)]
    assert all(corrupted), corrupted


def test_wrong_exit_code_and_changed_answer_count_as_failures(tiny, tmp_path):
    sd, wl, runner = answered("small-batch", tmp_path / "small")
    i = next(i for i, j in enumerate(wl.jobs) if j.kind == "cli-compose")
    job = wl.jobs[i]
    assert job.expect((2, "")) is not None
    real = job.call
    job.call = lambda: (0, "mr=0 dr=0 mf=0 df=0\n")
    runner.run_pass([i])
    job.call = real
    assert "differs" in runner.errors[i]
    assert runner.failed() == 2  # every execution of a failing job counts


def test_recorded_answers_are_compared(tiny, tmp_path):
    sd, wl, runner = answered("check-long", tmp_path / "check")
    recorded = {wl.jobs[i].name: run.digest(text) for i, text in runner.canon.items()}
    recorded[wl.jobs[0].name] = "0" * 16
    runner.gate(random.Random(0), recorded)
    assert set(runner.errors) == {0}


def test_tracer_restores_every_binding(tiny, capsys):
    assert run.main(["--workload", "check-long", "--seed", "7", "--seconds", "0",
                     "--trace", "1"]) == 0
    sd = sys.modules["sigdelay"]
    for owner in (sd, sd.stepfn, sd.conditions, sd.solvers, sd.circuit, sd.vcd, sd.cli,
                  sd.StepFunction, sd.IntervalSet, sd.Interval):
        for value in vars(owner).values():
            fn = getattr(value, "__func__", value)  # through staticmethod
            code = getattr(fn, "__code__", None)
            assert code is None or not code.co_filename.endswith("tracer.py"), (owner, fn)


def test_trace_fails_when_its_hooks_reach_nothing(tiny, monkeypatch, capsys):
    import tracer
    monkeypatch.setattr(tracer, "LAYERS", ())
    assert run.main(["--workload", "check-long", "--seed", "7", "--seconds", "0",
                     "--trace", "1"]) == 3
    assert "conditions.check_membership.calls" in capsys.readouterr().err
