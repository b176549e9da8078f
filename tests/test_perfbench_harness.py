"""The benchmark's four workloads, each run for one short loop at small sizes:
a change to ``src/trctee`` that breaks a workload (a failed check or an
exception in a unit counts as a failed operation) fails here, not only in a
``perfbench/run.py`` run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness.py"


def _load_harness():
    name = "perfbench_harness"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, HARNESS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up while it runs
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", ["soak", "churn", "bulk", "adversary"])
def test_each_workload_runs_a_short_loop_with_no_failed_operation(name):
    harness = _load_harness()
    sizes = harness.Sizes(soak_invokes=8, bulk_bytes=1024, bulk_inputs=2)
    workload = harness.make(name, 0, sizes, str(ROOT))
    m = workload.measurement()
    world = workload.setup(0)
    try:
        workload.loop(world, 0.01, m)
    finally:
        workload.close(world)
    assert m.attempted > 0
    assert m.failed == 0, m.errors
