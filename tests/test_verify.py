"""The criterion table, and a negative control for each criterion.

`verify.CRITERIA` is the one list of criteria: CHECK_IDS, the sweep
decision and run_verify_suite's dispatch all derive from it.  A negative
control applies one targeted fault by monkeypatching and requires the
criterion to FAIL through run_verify_suite, the path the CLI takes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from smcensus import counting, posets, verify
from smcensus.counting import OptionCountTable
from smcensus.record import CheckResult
from smcensus.rotations import RotationPoset


def test_check_ids_are_c01_to_c14_in_order():
    assert verify.CHECK_IDS == tuple(f"c{i:02d}" for i in range(1, 15))


def test_each_criterion_has_its_own_name_and_function():
    for field in ("name", "function"):
        values = [getattr(c, field) for c in verify.CRITERIA]
        assert len(set(values)) == len(values), field


def test_the_sweep_readers_are_c01_c02_c03_and_c14():
    assert {c.id for c in verify.CRITERIA if c.reads_sweep} == {"c01", "c02", "c03", "c14"}


def test_a_direct_call_returns_the_timed_record_of_its_id_and_name():
    res = verify.criterion_diamond(verify.RunConfig())
    assert (res.check, res.fields["name"], res.passed) == (
        "c04", "diamond grid downsets equal central binomials", True)
    assert res.elapsed > 0


def test_the_suite_calls_each_criterion_by_its_module_name(monkeypatch):
    # the benchmark tracer wraps verify.criterion_* by name; a criterion
    # stored as a function object would run unwrapped
    stub = CheckResult("c04", False, {"name": "stub", "details": {}})
    monkeypatch.setattr(verify, "criterion_diamond", lambda config: stub)
    [res] = verify.run_verify_suite(verify.RunConfig(), ["c04"])
    assert res is stub


def _chains_unordered(monkeypatch):
    # leq without its below lookup: no two rotations of a chain compare
    monkeypatch.setattr(RotationPoset, "leq", lambda self, i, j: i == j)


def _m_chains_reversed(monkeypatch):
    # an embedding that lists each m-chain top to bottom
    real = posets.embed_in_tangled_grid

    def reversed_chains(rposet):
        grid = real(rposet)
        grid = posets.TangledGrid(grid.poset, tuple(ch[::-1] for ch in grid.m_chains),
                                  grid.w_chains)
        posets.validate_tangled_grid(grid)
        return grid

    monkeypatch.setattr(posets, "embed_in_tangled_grid", reversed_chains)


def _option_counts_inflated(monkeypatch):
    # every option count one too large, capped at the component's card
    counts = OptionCountTable._counts

    def inflated(self, i, sets):
        return np.minimum(counts(self, i, sets) + 1, np.take(self._cards, i)[:, None])

    monkeypatch.setattr(OptionCountTable, "_counts", inflated)


def _one_matching_too_many(monkeypatch):
    real = counting.count_perfect_matchings
    monkeypatch.setattr(counting, "count_perfect_matchings", lambda g: real(g) + 1)


def _ceiling_floor(base: int, n: int) -> int:
    """floor((base / 100)^n), exactly."""
    return base ** n // 100 ** n


def _counts_past_the_ceiling(monkeypatch):
    # every instance's stable-matching count one past floor(3.55^n)
    real = verify.run_sweep
    monkeypatch.setattr(verify, "run_sweep", lambda config: [
        dict(r, brute_count=_ceiling_floor(355, r["n"]) + 1) for r in real(config)])


# check id -> a fault it must fail under.  c01's is `verify --inject-fault`;
# c04, c06 and c08-c13 have theirs beside the code they test
FAULTS = {
    "c02": _chains_unordered,
    "c03": _m_chains_reversed,
    "c05": _option_counts_inflated,
    "c07": _one_matching_too_many,
    "c14": _counts_past_the_ceiling,
}


@pytest.mark.parametrize("check_id", sorted(FAULTS))
def test_criterion_fails_under_its_fault(monkeypatch, check_id):
    FAULTS[check_id](monkeypatch)
    [res] = verify.run_verify_suite(verify.RunConfig(), [check_id])
    assert (res.check, res.passed) == (check_id, False)
    assert res.fields["details"]["failures"]


def test_c07_fails_when_a_complete_graph_falls_short_of_its_bound(monkeypatch):
    # one matching too few passes every random row but breaks the equality
    # K_{n,n} attains, n! = the bound
    real = counting.count_perfect_matchings
    monkeypatch.setattr(counting, "count_perfect_matchings", lambda g: max(real(g) - 1, 0))
    [res] = verify.run_verify_suite(verify.RunConfig(), ["c07"])
    assert not res.passed
    assert [f[:2] for f in res.fields["details"]["failures"]] == [("complete", n)
                                                                 for n in range(1, 5)]


@pytest.mark.parametrize("key, base, max_n", [("brute_count", 355, None),
                                              ("grid_downsets", 1111, 6)],
                         ids=["matchings-3.55", "grid-11.11"])
def test_c14_decides_at_the_floor_of_each_ceiling(key, base, max_n):
    """At every n of the plan (the grid rows stop at n = 6), a count of
    floor(ceiling^n) passes and one more fails."""
    config = verify.RunConfig()
    sweep = verify.run_sweep(config)
    ns = sorted({r["n"] for r in sweep if max_n is None or r["n"] <= max_n})
    assert ns == list(range(1, (max_n or config.max_n) + 1))
    for n in ns:
        for extra, passed in ((0, True), (1, False)):
            count = _ceiling_floor(base, n) + extra
            rows = [dict(r, **{key: count}) if r["n"] == n else r for r in sweep]
            res = verify.criterion_global_sanity(config, rows)
            assert res.passed is passed, (n, count)


def test_verify_holds_no_float_allowance():
    """A criterion decides exactly or by record.SE_RULE standard errors:
    verify.py has no float literal below 1e-6 to act as a tolerance."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    small = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, float) and abs(node.value) < 1e-6]
    assert small == []
