"""Identity-check bookkeeping shared by the CLI runners and cross-validation."""

import math

import pytest

from thermoq.validate import IdentityCheck, relative_error


class TestIdentityCheck:
    def test_keeps_worst_deviation_and_its_params(self):
        check = IdentityCheck("demo", 1e-6)
        for i, dev in enumerate((1e-9, 1e-7, 1e-8)):
            check.update(dev, {"i": i})
        assert check.max_deviation == 1e-7
        assert check.worst_params == {"i": 1}
        assert check.passed

    def test_nan_deviation_fails_and_stays_worst(self):
        check = IdentityCheck("demo", 1e-6)
        check.update(1e-9, {"i": 0})
        check.update(float("nan"), {"i": 1})
        check.update(1e-7, {"i": 2})
        assert math.isnan(check.max_deviation)
        assert check.worst_params == {"i": 1}
        assert not check.passed


def test_relative_error_scales_by_larger_magnitude():
    assert relative_error(1.0, 1.1) == pytest.approx(0.1 / 1.1)
    assert relative_error(0.0, 0.0) == 0.0
