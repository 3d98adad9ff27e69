"""The acceptance suite: one test per criterion, at full configuration.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Criterion c11 is expected to fail: the extended-variant series constant
evaluates to about 0.69397, above the asserted ceiling 0.6331; the test
asserts the ceiling as stated and therefore reports the failure honestly
rather than loosening the check.
"""

import pytest

from smcensus import verify
from smcensus.verify import RunConfig


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.fixture(scope="module")
def sweep(config):
    return verify.run_sweep(config)


def report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"[acceptance] {res.check} {res.fields['name']}: {status} ({res.elapsed:.2f}s)")
    return res


def test_c01_bijection(config, sweep):
    res = report(verify.criterion_bijection(config, sweep))
    assert res.passed, res.fields["details"]


def test_c02_structure(config, sweep):
    res = report(verify.criterion_structure(config, sweep))
    assert res.passed, res.fields["details"]


def test_c03_embedding(config, sweep):
    res = report(verify.criterion_embedding(config, sweep))
    assert res.passed, res.fields["details"]


def test_c04_diamond(config):
    res = report(verify.criterion_diamond(config))
    assert res.passed, res.fields["details"]


def test_c05_table(config):
    res = report(verify.criterion_table(config))
    assert res.passed, res.fields["details"]


def test_c06_family_bounds(config):
    res = report(verify.criterion_family_bounds(config))
    assert res.passed, res.fields["details"]


def test_c07_bregman(config):
    res = report(verify.criterion_bregman(config))
    assert res.passed, res.fields["details"]


def test_c08_distributions(config):
    res = report(verify.criterion_distributions(config))
    assert res.passed, res.fields["details"]


def test_c09_dominance(config):
    res = report(verify.criterion_dominance(config))
    assert res.passed, res.fields["details"]


def test_c10_identities(config):
    res = report(verify.criterion_identities(config))
    assert res.passed, res.fields["details"]


def test_c11_constants(config):
    res = report(verify.criterion_constants(config))
    # Known honest failure: details["extended_series"] encloses ~0.69397,
    # which exceeds the asserted 0.6331 ceiling.  Everything else in the
    # criterion (finite-n scan, plain series, majorants, base comparisons)
    # holds; the README's "Known failing check" section, under "Install
    # and test", gives the analysis.
    assert res.passed, res.fields["details"]


def test_c12_jensen_and_dependence(config):
    res = report(verify.criterion_jensen_and_dependence(config))
    assert res.passed, res.fields["details"]


def test_c13_samplers(config):
    res = report(verify.criterion_samplers(config))
    assert res.passed, res.fields["details"]


def test_c14_global_sanity(config, sweep):
    res = report(verify.criterion_global_sanity(config, sweep))
    assert res.passed, res.fields["details"]
