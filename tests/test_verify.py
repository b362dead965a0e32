"""Tests for the cross-route identity suite."""

import pytest

from hyperell import scan
from hyperell.scan import ResourceCapError, squarefree_mask
from hyperell.verify import run_identity_suite
from support import suite_passed


def names(results):
    return [r.name for r in results]


def test_small_suite_all_pass():
    results = run_identity_suite(3, 1)
    assert suite_passed(results)
    assert "functional_equation" in names(results)
    assert "two_block_center_identity" in names(results)
    assert "point_count_oracle" in names(results)
    assert "ensemble_count" in names(results)
    assert "square_sieve_identity" in names(results)


def test_q5_suite_passes():
    assert suite_passed(run_identity_suite(5, 1))


def test_fault_injection_caught():
    # at g=1 the corrupted middle coefficient is self-paired in the symmetry
    # check and the quadratic's conjugate roots stay on the circle, so the
    # point-count oracle is the check that has to catch it
    results = run_identity_suite(3, 1, inject_fault=True)
    assert not suite_passed(results)
    failed = {r.name for r in results if not r.passed}
    assert "point_count_oracle" in failed

    # at g=2 the same corruption breaks the coefficient symmetry directly
    results = run_identity_suite(3, 2, inject_fault=True)
    assert not suite_passed(results)
    failed = {r.name for r in results if not r.passed}
    assert {"functional_equation", "two_block_center_identity"} <= failed


def test_failing_checks_name_their_first_curve():
    # the fault sits in coefficient 1 of the first curve, codes[0]
    first = int(squarefree_mask(3, 5).nonzero()[0][0])
    results = {r.name: r for r in run_identity_suite(3, 2, inject_fault=True)}
    fe = results["functional_equation"].details
    assert (fe["first_failing_code"], fe["coefficient_index"]) == (first, 1)
    for name in ("two_block_center_identity", "root_modulus"):
        assert not results[name].passed
        assert results[name].details["first_failing_code"] == first
    # a passing check carries neither key, so passing reports keep their bytes
    for r in run_identity_suite(3, 2):
        assert not {"first_failing_code", "coefficient_index"} & set(r.details)


def test_sampled_path_runs():
    # q=5 g=3 exceeds the exhaustive limit: sampled checks only
    results = run_identity_suite(5, 3, sample_size=300, seed=4)
    assert suite_passed(results)
    assert "ensemble_count" not in names(results)


def test_results_carry_details():
    results = run_identity_suite(3, 1)
    for r in results:
        assert isinstance(r.details, dict)
        assert r.name


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        run_identity_suite(4, 1)


@pytest.mark.parametrize("g,sample_size", [(1, 0), (3, -5)])
def test_rejects_sample_size_below_one(g, sample_size):
    # g=1 enumerates its family and draws no sample; the size is refused all the same
    with pytest.raises(ValueError, match="sample_size"):
        run_identity_suite(3, g, sample_size=sample_size)


@pytest.mark.parametrize("value", [2.5, True])
def test_rejects_a_sample_size_or_seed_that_is_no_int(monkeypatch, value):
    monkeypatch.setattr(scan, "sample_codes", lambda *a: pytest.fail("sample_codes called"))
    with pytest.raises(ValueError, match=rf"^sample_size must be an int, got {value!r}$"):
        run_identity_suite(3, 3, sample_size=value)
    with pytest.raises(ValueError, match=rf"^seed must be an int, got {value!r}$"):
        run_identity_suite(3, 3, seed=value)


def test_checks_the_table_budget_before_it_draws(monkeypatch):
    # the batch coefficients reach degree 2g = 10, past the cap at q=3
    for name in ("sample_codes", "squarefree_mask"):
        monkeypatch.setattr(scan, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    with pytest.raises(ResourceCapError, match="prime tables to degree 10 at q=3"):
        run_identity_suite(3, 5)
