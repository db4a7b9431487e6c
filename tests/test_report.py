"""Tests for the report entries: worst residual and count of points."""

import numpy as np
import pytest

from frobcdv.report import CheckEntry, VerificationReport


def test_add_keeps_the_worst_residual_and_counts_the_points():
    report = VerificationReport()
    assert report.add("per_point", np.array([1e-9, 3e-7, 2e-8]), 1e-6) == CheckEntry(
        "per_point", 3e-7, 1e-6, 3)
    assert report.add("one_point", 0.5, 1e-6) == CheckEntry("one_point", 0.5, 1e-6, 1)
    assert report.add("numpy_scalar", np.float64(2e-7), 1e-6).points_checked == 1
    # N = 4 points with three values of z each, as pencil_curvature's.
    assert report.add("per_point_and_z", np.arange(12.0).reshape(4, 3), 20.0) == CheckEntry(
        "per_point_and_z", 11.0, 20.0, 12)
    assert [e.passed for e in report.entries] == [True, False, True, True]
    assert not report.passed
    assert report["per_point_and_z"].residual == 11.0
    assert all(type(e.residual) is float and type(e.points_checked) is int
               for e in report.entries)


def test_unknown_check_name_raises_key_error():
    with pytest.raises(KeyError):
        VerificationReport()["x"]
