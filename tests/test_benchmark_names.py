"""The names the benchmark harness in perfbench/ reaches for in smcensus.

The harness wraps functions by name (``tracer.TARGETS``), its counter
hooks read call arguments by position and name (``_arg(args, kwargs, i,
name)``) and attributes of results (``result.samples``), and it reads
sweep rows by key (``workloads.check_sweep``).  All are read here from
the harness's own files, so deleting or renaming one of those names
fails this test, not only a traced benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
import textwrap
import typing
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


def test_each_traced_criterion_span_names_the_criterion_of_its_id(tracer):
    # verify.cNN_s times the function CRITERIA lists for cNN
    spans = {label.removeprefix("verify."): name for module, name, label, _ in tracer.TARGETS
             if module == "smcensus.verify" and isinstance(label, str)
             and label.removeprefix("verify.") in verify.CHECK_IDS}
    assert spans == {c.id: c.function for c in verify.CRITERIA}


def _reads(part):
    """The (index, name) pairs of the `_arg` calls in a tracer hook or label,
    and the attributes it reads off `result`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(part)))
    args = {(node.args[2].value, node.args[3].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg"}
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "result"}
    return args, attrs


def test_every_traced_argument_and_result_field_resolves(tracer):
    read = set()
    for module, name, label, hook in tracer.TARGETS:
        fn = getattr(importlib.import_module(module), name)
        params = list(inspect.signature(fn).parameters)
        for part in (label, hook):
            if not callable(part):
                continue
            args, attrs = _reads(part)
            for index, arg in args:
                assert index < len(params) and params[index] == arg, (name, index, arg)
                read.add((name, arg))
            if attrs:
                result = typing.get_type_hints(fn)["return"]
                fields = {f.name for f in dataclasses.fields(result)}
                assert attrs <= fields, (name, sorted(attrs - fields))
                read.update((name, f"result.{attr}") for attr in attrs)
    assert {("gap_dependence_check", "samples"), ("gap_dependence_check", "result.samples"),
            ("sample_cyclic_gap", "count"), ("sample_line_gap", "count"),
            ("gap_log_series", "K")} <= read  # the parse found the reads


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
