"""Self-test of the benchmark: exact counters, seeds and the reference checks.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute: it runs one traced pass of every workload twice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

run.load_engine()

EXACT = ("unify.calls", "unify.hit_ratio", "solver.answers", "proof.nodes", "oracle.facts", "oracle.saturate_calls")
NAMES = sorted(workloads.GENERATORS)


def _bench(tmp_path, workload, seed, trace, hashseed):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--spans", str(tmp_path / f"spans-{hashseed}.jsonl")]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counters_repeat_across_processes(tmp_path, workload):
    first = _bench(tmp_path, workload, 7, 1, hashseed=1)
    second = _bench(tmp_path, workload, 7, 1, hashseed=2)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", NAMES)
def test_second_seed_changes_inputs_and_passes(tmp_path, workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert [p.text for p in a.programs] != [p.text for p in b.programs]
    assert (a.query_count, a.answer_count) == (b.query_count, b.answer_count)
    result = _bench(tmp_path, workload, 2, 0, hashseed=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= b.query_count


@pytest.mark.parametrize("workload", NAMES)
def test_wrong_reference_is_caught(workload):
    wl = workloads.build(workload, 3)
    prog = wl.programs[0]
    name = next(n for n, answers in prog.expected.items() if answers)
    prog.expected[name] = prog.expected[name][1:]
    st = run.run_pass(wl, run.Api(), inspect=True)
    assert st.failed == 1 and st.attempted == wl.query_count
    assert any(name in problem for problem in run.cli_crosscheck(wl, st.outputs))


@pytest.mark.parametrize("workload", NAMES)
def test_cli_output_must_match_harness_report(workload):
    wl = workloads.build(workload, 3)
    st = run.run_pass(wl, run.Api(), inspect=True)
    assert st.failed == 0 and run.cli_crosscheck(wl, st.outputs) == []
    prog = wl.programs[0].name
    st.outputs[prog] += "\n"
    assert run.cli_crosscheck(wl, st.outputs) == [f"cli {prog}: standard output differs from the harness's report"]


def test_exceptions_are_counted_not_fatal():
    wl = workloads.build("ladder", 3)
    api = run.Api()
    solve, calls = api.solve, []

    def flaky(kb, q, cfg):
        calls.append(q.name)
        if len(calls) == 2:
            raise RecursionError("maximum recursion depth exceeded")
        return solve(kb, q, cfg)

    api.solve = flaky
    st = run.run_pass(wl, api)
    assert st.attempted == wl.query_count == len(calls)
    assert st.failed == 1 and "RecursionError" in st.errors[0]
