"""The benchmark in ``perfbench/`` reaches the library through ``load_api``;
every name it loads there must exist, or the benchmark cannot run."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_api_loads(monkeypatch):
    # workloads.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    api = workloads.load_api()
    assert all(callable(entry) for entry in vars(api).values())
