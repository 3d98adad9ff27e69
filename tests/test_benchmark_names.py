"""The names the benchmark harness in perfbench/ reaches for in smcensus.

The harness wraps functions by name (``tracer.TARGETS``) and reads sweep
rows by key (``workloads.check_sweep``).  Both are read here from the
harness's own files, so deleting or renaming one of those names fails
this test, not only a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from smcensus import verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_name_resolves(tracer):
    missing = [(module, name) for module, name, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing


def test_sweep_rows_carry_every_key_the_benchmark_reads(workloads):
    tree = ast.parse(inspect.getsource(workloads.check_sweep))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "r" and isinstance(node.slice, ast.Constant)}
    assert read  # the parse found the row reads
    rows = verify.run_sweep(verify.RunConfig(max_n=4, num_instances=4))
    for row in rows:
        assert read <= set(row), sorted(read - set(row))
    outcome = workloads.check_sweep(rows)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (len(rows), 0, [])
