"""Identity checks shared by the CLI runners and cross-validation."""

import dataclasses
import math

import numpy as np
import pytest

import thermoq.closed_form as cf
from thermoq.engine import HeatEngine
from thermoq.models import (
    BathMode,
    build_coupled_oscillators,
    build_dephasing_model,
    fock_measurement,
    pauli_x_measurement,
)
from thermoq import validate
from thermoq.validate import (
    CHECKS,
    CLOSED_FORM_MIN_PROB,
    IdentityCheck,
    check_engine_point,
    cross_validate,
    deph_reference,
    he_reference,
    identity_checks,
    relative_error,
)


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


@pytest.fixture(scope="module")
def engine_points():
    """One small working point per family: (engine, rho0, beta, t, meas, reference)."""
    beta = 2.0
    he = cf.HEParams(1.0, 1.0, 0.1, beta, 0.0)
    he = cf.HEParams(1.0, 1.0, 0.1, beta, cf.he_optimal_time(he))
    ground = np.zeros((15, 15), complex)
    ground[0, 0] = 1.0
    modes = (BathMode(1.0, 0.1), BathMode(1.7, 0.15))
    dp = cf.DephParams(modes, beta, 2.5)
    return {
        "he": (HeatEngine(build_coupled_oscillators(1.0, 1.0, 0.1, 14)), ground, beta,
               he.t, fock_measurement(14), he_reference(he)),
        "deph": (HeatEngine(build_dephasing_model(modes, [12, 9])),
                 np.full((2, 2), 0.5, complex), beta, dp.t, pauli_x_measurement(),
                 deph_reference(dp)),
    }


def run_point(point, reference):
    engine, rho0, beta, t, meas, _ = point
    checks = identity_checks("fisher", "closed_form", "avg_heat", "saturation")
    result = check_engine_point(checks, engine, rho0, beta, t, meas, reference, {})
    return checks, result


@pytest.mark.parametrize("family", ["he", "deph"])
def test_exact_reference_passes_every_check(engine_points, family):
    point = engine_points[family]
    checks, (_, _, _, excluded) = run_point(point, point[-1])
    assert all(c.passed for c in checks.values())
    # the exchange point has outcomes below the closed-form cutoff
    assert (excluded > 0) == (family == "he")
    assert excluded < 1e-6 * len(point[4].labels)
    # the dephasing reference defines the average heat; the exchange one does not
    assert (checks["avg_heat"].max_deviation > 0) == (family == "deph")


PERTURBATIONS = {
    "P_l": ("he", "closed_form",
            lambda ref: {"probability": lambda l: ref.probability(l) * (1 + 1e-4)}),
    "H_cor": ("he", "closed_form",
              lambda ref: {"heat_terms": lambda l: (ref.heat_terms(l)[0],
                                                    ref.heat_terms(l)[1] + 1e-4)}),
    "fisher": ("deph", "closed_form", lambda ref: {"fisher": ref.fisher * (1 + 1e-4)}),
    "bound": ("he", "saturation", lambda ref: {"bound": ref.bound * (1 + 1e-3)}),
    "Q": ("deph", "avg_heat", lambda ref: {"avg_heat": ref.avg_heat + 1e-6}),
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_perturbed_reference_fails_its_check(engine_points, name):
    family, check_id, change = PERTURBATIONS[name]
    point = engine_points[family]
    reference = dataclasses.replace(point[-1], **change(point[-1]))
    checks, _ = run_point(point, reference)
    assert [i for i, c in checks.items() if not c.passed] == [check_id]


def test_default_cross_validate_passes():
    # the defaults of `thermoq cross-validate`
    report = cross_validate(0, 5)
    assert report.passed, [c.as_dict() for c in report.checks if not c.passed]
    assert len(report.checks) == len(CHECKS)


def test_cross_validate_reports_excluded_mass(monkeypatch):
    excluded = []
    real = validate.check_engine_point

    def check_engine_point(*args, **kwargs):
        result = real(*args, **kwargs)
        excluded.append(result[3])
        return result

    monkeypatch.setattr(validate, "check_engine_point", check_engine_point)
    report = cross_validate(3, 1).as_dict()
    assert len(excluded) == 2  # the heat-exchange and the dephasing draw
    assert report["closed_form_min_probability"] == CLOSED_FORM_MIN_PROB
    assert report["closed_form_excluded_probability_max"] == max(excluded) > 0
