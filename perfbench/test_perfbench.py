"""The benchmark's own test, at smoke size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, Phase, output_problems, tail_latency
from perfbench.tracing import NULL_PROBE, stage_sampling
from perfbench.workloads import WORKLOADS, Cycle, IdentityWorkload

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _digest(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("digest "))


@pytest.fixture(scope="module")
def runs() -> dict:
    """Two same-seed smoke invocations per workload: untraced and traced."""
    return {(name, trace): _run(name, 3, trace) for name in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(runs, workload):
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        proc = runs[workload, trace]
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    table = runs[workload, 0].stdout
    for name, unit in END_TO_END:
        assert any(line.split()[:1] == [name] and unit in line.split() for line in table.splitlines())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_digest(runs, workload):
    assert _digest(runs[workload, 0].stdout) == _digest(runs[workload, 1].stdout)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_a_mislabelled_op_counts_as_failed():
    workload = IdentityWorkload(seed=5, smoke=True)
    workload.prepare()
    workload.ops = workload.ops[:6]
    baseline = workload.run_cycle(NULL_PROBE)
    index = next(
        i for i, op in enumerate(workload.ops)
        if op.label is not None and baseline.decisions[i][0] == op.label
    )
    op = workload.ops[index]
    workload.ops[index] = dataclasses.replace(op, label=not op.label)
    flipped = workload.run_cycle(NULL_PROBE)
    assert flipped.failed == baseline.failed + 1
    assert flipped.errors == baseline.errors + 1
    assert flipped.attempted == baseline.attempted


def test_disagreeing_cycles_fail_the_output_check():
    first, second = Cycle(attempted=1, decisions=[[True]]), Cycle(attempted=1, decisions=[[False]])
    assert output_problems([Phase(cycles=[first, first])]) == []
    assert output_problems([Phase(cycles=[first, second])])


def test_tail_leaves_ten_ops_above_it():
    latencies = [float(i) for i in range(72)]
    percentile, value = tail_latency(latencies)
    assert percentile == 86
    assert sum(x > value for x in latencies) >= 10
    assert tail_latency(latencies[:12]) == (50, 5.0)


def test_draws_are_assigned_to_stages_by_their_sample_counts():
    verdict = dataclasses.make_dataclass("V", ["samples_used", "stage_samples", "stage_timings"])(
        samples_used=10,
        stage_samples={"partition": 4, "learn": 2, "check": 0, "chi2": 4},
        stage_timings={"partition": 1.0, "learn": 1.0, "check": 1.0, "chi2": 1.0},
    )
    # A failed earlier attempt drew 7 units first; only the last 10 count.
    draws = [(7, 9.0), (3, 0.1), (1, 0.2), (2, 0.4), (4, 0.8)]
    assert stage_sampling(verdict, draws) == {
        "partition": 0.1 + 0.2, "learn": 0.4, "check": 0.0, "chi2": 0.8,
    }


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("identity-mid-n", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
