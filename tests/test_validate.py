"""The built-in check suite must catch what it claims to catch.

Fault injection: corrupt one ingredient, the matching check must flip to
FAIL while reporting the measured number.  The slow checks (forward oracle,
null run) are exercised through the CLI validate test and the acceptance
gates, not re-run here.
"""

import dataclasses

from convexscat import KGrid, build_basis
from convexscat.validate import (
    CheckResult,
    check_basis_orthonormal,
    check_basis_structure,
    format_report,
)


def _basis():
    return build_basis(KGrid(0.5, 2.0, 12), 3)


def test_checks_pass_on_a_clean_basis():
    bs = _basis()
    for check in (check_basis_orthonormal, check_basis_structure):
        res = check(bs)
        assert res.passed and res.measured < res.threshold


def test_corrupted_derivative_matrix_is_caught():
    bs = _basis()
    bad_D = bs.mat_D.copy()
    bad_D[2, 0] = 1e-3  # a below-diagonal entry that should be ~0
    res = check_basis_structure(dataclasses.replace(bs, mat_D=bad_D))
    assert not res.passed
    assert res.measured >= 1e-3


def test_corrupted_basis_vectors_fail_orthonormality():
    bs = _basis()
    bad_coeff = bs.coeff.copy()
    bad_coeff[1] *= 1.01
    res = check_basis_orthonormal(dataclasses.replace(bs, coeff=bad_coeff))
    assert not res.passed


def test_report_formatting():
    results = [
        CheckResult("alpha", True, 1.2e-9, 1e-8),
        CheckResult("beta", False, 3.4e-2, 1e-5, detail="k=2"),
    ]
    report = format_report(results)
    lines = report.splitlines()
    assert lines[0].startswith("[pass] alpha")
    assert lines[1].startswith("[FAIL] beta") and "(k=2)" in lines[1]
    assert lines[2] == "1/2 checks passed"
    assert "3.400e-02" in lines[1]
