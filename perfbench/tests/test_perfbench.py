"""Tests of the benchmark itself: self-time arithmetic, the result line,
and a small-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
from tracer import self_times

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

SMALL = harness.Sizes(soak_invokes=64, bulk_bytes=4096, bulk_inputs=2)


def test_self_time_subtracts_union_of_same_thread_children_only():
    # 0: A [0, 100] on thread 0
    # 1: B [10, 30] child of A      2: C [20, 50] child of A, overlaps B
    # 3: E [12, 18] child of B      4: D [40, 90] child of A on thread 1
    start = [0, 10, 20, 12, 40]
    end = [100, 30, 50, 18, 90]
    parent = [-1, 0, 0, 1, 0]
    thread = [0, 0, 0, 0, 1]
    got = self_times(start, end, parent, thread)
    # A loses the union of B and C (10..50), not their sum, and nothing for
    # the cross-thread D; B loses only its own child E.
    assert got == [60, 14, 30, 6, 50]


def test_self_time_clips_children_to_the_parent_interval():
    assert self_times([0, 5], [10, 20], [-1, 0], [0, 0]) == [5, 15]


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


def test_host_speed_rescales_only_the_busy_part_of_an_operation():
    speed = harness.HostSpeed()
    speed.times = [0, 10, 20, 30]
    speed.refs = [2 * harness.REFERENCE_NS] * 4  # the host runs at half the reference speed
    speed.steal = [0.0] * 4
    # 100 ns of wall time, 60 of them busy: the 40 waiting stay, the 60 halve.
    assert speed.adjust(5, 100, 60) == 40 + 30
    # CPU time above wall time (both threads busy at once) counts as all busy.
    assert speed.adjust(5, 100, 150) == 50
    # A tenth of wall time stolen from the machine leaves the waiting part.
    speed.steal = [0.0, 1.0, 2.0, 3.0]
    assert speed.adjust(5, 100, 60) == 40 - 10 + 30


@pytest.mark.parametrize("name", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_reports_every_metric_with_its_unit(name, trace, capsys):
    workload = harness.make(name, 5, SMALL, ROOT)
    result = run.run(workload, 0.2, trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        metric: unit for metric, unit, _ in expected
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1]) == result
    if not trace:
        names = {line.split()[1] for line in out if line.startswith("detail ")}
        assert {"setup_s", "error_rate", "peak_rss_mb"} <= names


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_json_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soak", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
