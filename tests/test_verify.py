"""Tests for the cross-route identity suite."""

import pytest

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
