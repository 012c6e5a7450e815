"""Identity checks shared by the CLI runners and cross-validation."""

import dataclasses
import math

import numpy as np
import pytest

import thermoq.closed_form as cf
from thermoq import engine
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
    deph_point,
    draw_deph_instance,
    draw_he_instance,
    draw_mean_force_instance,
    he_point,
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
    """One small engine point per family: (engine, meas, working point)."""
    beta = 2.0
    he = cf.HEParams(1.0, 1.0, 0.1, beta, 0.0)
    he = dataclasses.replace(he, t=cf.he_optimal_time(he))
    modes = (BathMode(1.0, 0.1), BathMode(1.7, 0.15))
    return {
        "he": (HeatEngine(build_coupled_oscillators(1.0, 1.0, 0.1, 14)), fock_measurement(14),
               he_point(he, 14)),
        "deph": (HeatEngine(build_dephasing_model(modes, [12, 9])), pauli_x_measurement(),
                 deph_point(cf.DephParams(modes, beta, 2.5))),
    }


def run_point(point, working_point):
    engine, meas, _ = point
    checks = identity_checks("fisher", "closed_form", "avg_heat", "saturation")
    result = check_engine_point(checks, engine, meas, working_point, {})
    return checks, result


@pytest.mark.parametrize("family", ["he", "deph"])
def test_exact_reference_passes_every_check(engine_points, family):
    point = engine_points[family]
    checks, (_, _, _, excluded) = run_point(point, point[-1])
    assert all(c.passed for c in checks.values())
    # the exchange point has outcomes below the closed-form cutoff
    assert (excluded > 0) == (family == "he")
    assert excluded < 1e-6 * len(point[1].labels)


@pytest.mark.parametrize("family", ["he", "deph"])
def test_a_point_forms_its_derived_quantities_once(engine_points, monkeypatch, family):
    # the thermal occupation, and with it n (exchange) or Gamma, Q and C
    # (dephasing), is formed once per parameter object, at construction, however
    # many closed forms and outcomes read it
    real = cf._nbar
    calls = []
    monkeypatch.setattr(cf, "_nbar", lambda *a: calls.append(a) or real(*a))
    point = engine_points[family][-1]
    if family == "he":
        working_point = he_point(cf.HEParams(1.0, 1.0, 0.1, point.beta, point.t), 14)
    else:
        working_point = deph_point(cf.DephParams(
            (BathMode(1.0, 0.1), BathMode(1.7, 0.15)), point.beta, point.t))
    checks, _ = run_point(engine_points[family], working_point)
    assert all(c.passed for c in checks.values())
    assert len(calls) == 1


PERTURBATIONS = {
    "P_l": ("he", "closed_form",
            lambda ref: {"probability": lambda l: ref.probability(l) * (1 + 1e-4)}),
    "H_cor": ("he", "closed_form",
              lambda ref: {"heat_terms": lambda l: (ref.heat_terms(l)[0],
                                                    ref.heat_terms(l)[1] + 1e-4)}),
    "fisher": ("deph", "closed_form", lambda ref: {"fisher": ref.fisher * (1 + 1e-4)}),
    "bound": ("he", "saturation", lambda ref: {"bound": ref.bound * (1 + 1e-3)}),
    "Q": ("deph", "avg_heat", lambda ref: {"avg_heat": ref.avg_heat + 1e-6}),
    "omega_0 n": ("he", "avg_heat", lambda ref: {"avg_heat": ref.avg_heat + 1e-6}),
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_perturbed_reference_fails_its_check(engine_points, name):
    family, check_id, change = PERTURBATIONS[name]
    point = engine_points[family]
    checks, _ = run_point(point, dataclasses.replace(point[-1], **change(point[-1])))
    assert [i for i, c in checks.items() if not c.passed] == [check_id]


def test_closed_form_suppressed_outcome_fails_closed_form(engine_points):
    # an outcome the engine keeps but the closed form suppresses (a truncated
    # revival) has no closed-form heat: closed_form fails at that point
    def heat_terms(label):
        raise cf.SuppressedOutcomeError(f"outcome {label} suppressed")

    point = engine_points["deph"]
    checks, (_, _, closed_form_dev, _) = run_point(
        point, dataclasses.replace(point[-1], heat_terms=heat_terms))
    assert closed_form_dev == math.inf
    assert [i for i, c in checks.items() if not c.passed] == ["closed_form"]


@pytest.mark.parametrize("check_id, route", [("score", "score_direct_all"),
                                             ("two_point", "two_point_trajectory_heat_all")])
def test_outcome_missing_from_the_record_fails_its_check(engine_points, monkeypatch,
                                                         check_id, route):
    # a route may keep an outcome the heat decomposition left below the floor
    # (near a revival the two-point P_- reads 1.00003e-12 where the kernel's is
    # 9.99991e-13), or leave out one the record keeps: either way that route's
    # check fails there and names the outcome
    eng, meas, point = engine_points["deph"]
    real = getattr(eng, route)
    for change, label in ((lambda values: {**values, 7: 0.0}, 7),
                          (lambda values: {k: v for k, v in values.items() if k != -1}, -1)):
        monkeypatch.setattr(eng, route, lambda *args: change(real(*args)))
        checks = identity_checks("fisher", "closed_form", "avg_heat", "saturation", "score",
                                 "two_point")
        check_engine_point(checks, eng, meas, point, {"beta": point.beta})
        assert [i for i, c in checks.items() if not c.passed] == [check_id]
        assert checks[check_id].max_deviation == math.inf
        assert checks[check_id].worst_params == {"beta": point.beta, "label": label}


def test_biased_initial_sample_energy_fails_score(monkeypatch):
    # Tr[H_B chi0], biased by 1e-7 relative plus 1e-7 absolute on both table
    # routes, shifts every heat-decomposition score by one constant; P_l, the
    # heats and F move too little for any other check, so only the direct
    # score, the derivative of ln P_l, sees it
    for tables in (engine._BranchTables, engine._ModeTables):
        def traces(self, beta, _real=tables.traces):
            probs, start, end, e_b_0, e_b_t = _real(self, beta)
            return probs, start, end, e_b_0 * (1 + 1e-7) + 1e-7, e_b_t

        monkeypatch.setattr(tables, "traces", traces)
    checks, _ = cross_validate(1, 5)
    assert [c.name for c in checks if not c.passed] == [CHECKS["score"][0]]


def test_default_cross_validate_passes():
    # the defaults of `thermoq cross-validate`
    checks, summary = cross_validate(0, 5)
    assert all(c.passed for c in checks), [c.as_dict() for c in checks if not c.passed]
    # every check but the scaling slope, which no draw makes
    assert [c.name for c in checks] == [name for i, (name, _) in CHECKS.items()
                                        if i != "scaling_slope"]
    assert (summary["seed"], summary["draws"]) == (0, 5)


def test_cross_validate_draws_each_round_in_family_order(monkeypatch):
    # perfbench/generate.py's predict_draw sizes the cross-validate workload by
    # calling the three draw functions in this order on default_rng(seed)
    received = []
    for name in ("check_engine_point", "check_mean_force_point"):
        real = getattr(validate, name)
        monkeypatch.setattr(validate, name,
                            lambda *args, _real=real: received.append(args[-1]) or _real(*args))
    cross_validate(3, 3)
    rng = np.random.default_rng(3)
    expected = [draw(rng)[0] for _ in range(3)
                for draw in (draw_he_instance, draw_deph_instance, draw_mean_force_instance)]
    assert [p.pop("family") for p in received] == ["heat-exchange", "dephasing",
                                                   "mean-force"] * 3
    assert received == expected


def test_cross_validate_reports_excluded_mass(monkeypatch):
    excluded, below_floor = [], []
    real = validate.check_engine_point

    def check_engine_point(*args, **kwargs):
        result = real(*args, **kwargs)
        excluded.append(result[3])
        below_floor.append(result[0].excluded_probability)
        return result

    monkeypatch.setattr(validate, "check_engine_point", check_engine_point)
    report = validate.verification(*cross_validate(3, 1))
    assert len(excluded) == 2  # the heat-exchange and the dephasing draw
    assert report["closed_form_min_probability"] == CLOSED_FORM_MIN_PROB
    assert report["closed_form_excluded_probability_max"] == max(excluded) > 0
    assert report["prob_floor_excluded_probability_max"] == max(below_floor)


def test_cross_validate_folds_in_the_mean_force_floor(monkeypatch):
    # a mean-force draw that drops an outcome below its floor, here
    # engine.PROB_FLOOR = 0.5 while the mean-force point alone runs, raises the
    # report's prob_floor_excluded_probability_max above every engine draw's
    real_mean_force = validate.check_mean_force_point
    dropped = []

    def check_mean_force_point(checks, model, beta, params):
        with monkeypatch.context() as m:
            m.setattr(engine, "PROB_FLOOR", 0.5)
            result = real_mean_force(checks, model, beta, params)
        dropped.append(result[0].excluded_probability)
        return result

    monkeypatch.setattr(validate, "check_mean_force_point", check_mean_force_point)
    _, report = cross_validate(3, 1)
    assert dropped[0] > 0.05
    assert report["prob_floor_excluded_probability_max"] == dropped[0]
