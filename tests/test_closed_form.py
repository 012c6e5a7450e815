"""Closed forms for both thermometer families and the scaling pipelines."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from thermoq.closed_form import (
    DephParams,
    HEParams,
    ScalingFitError,
    SuppressedOutcomeError,
    deph_fisher,
    deph_heat_terms,
    deph_precision_bound,
    deph_probability,
    deph_scaling_points,
    he_fisher,
    he_heat_terms,
    he_optimal_time,
    he_outcome_probability,
    he_precision_bound,
    he_scaling_points,
    scaling_fit,
)
from thermoq.engine import HeatEngine
from thermoq.linalg import truncation_level
from thermoq.models import (
    BathMode,
    SpectralDensity,
    build_coupled_oscillators,
    build_dephasing_model,
    fock_measurement,
    pauli_x_measurement,
)
from thermoq.validate import deph_point, he_point


class TestExchangeClosedForms:
    def test_mean_excitation_full_swap(self):
        p = HEParams(1.0, 1.0, 0.1, 1.0, he_optimal_time(HEParams(1.0, 1.0, 0.1, 1.0, 0.0)))
        nbar_b = 1.0 / math.expm1(1.0)
        assert p.n == pytest.approx(nbar_b, rel=1e-12)

    def test_detuning_suppresses_transfer(self):
        t = 1.3
        resonant = HEParams(1.0, 1.0, 0.1, 1.0, t).n
        detuned = HEParams(1.6, 1.0, 0.1, 1.0, t).n
        assert detuned < resonant

    def test_probabilities_are_geometric_and_normalized(self):
        p = HEParams(1.2, 1.0, 0.2, 1.0, 2.0)
        n = p.n
        probs = [he_outcome_probability(p, l) for l in range(200)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert probs[1] / probs[0] == pytest.approx(n / (1.0 + n), rel=1e-12)

    def test_score_mean_and_variance(self):
        p = HEParams(1.1, 1.0, 0.15, 1.2, 1.8)
        n = p.n
        scores = []
        probs = []
        avg = sum(he_outcome_probability(p, l) * he_heat_terms(p, l)[0]
                  for l in range(120))
        for l in range(120):
            h_tra, h_cor = he_heat_terms(p, l)
            probs.append(he_outcome_probability(p, l))
            scores.append((h_tra - avg) + h_cor)
        mean = sum(pr * s for pr, s in zip(probs, scores))
        var = sum(pr * s**2 for pr, s in zip(probs, scores))
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(he_fisher(p), rel=1e-10)

    def test_matches_brute_force(self):
        omega_0, g, beta, t = 1.0, 0.15, 1.1, 2.2
        n_max = truncation_level(beta, omega_0, 1e-10) + 4
        p = HEParams(omega_0 + 0.1, omega_0, g, beta, t)
        point = he_point(p, n_max)
        eng = HeatEngine(build_coupled_oscillators(p.omega_a, omega_0, g, n_max))
        record = eng.heat_decomposition(point.rho0, beta, t, fock_measurement(n_max))
        for o in record.outcomes:
            if o.probability < 1e-6:
                continue
            h_tra, h_cor = point.heat_terms(o.label)
            assert o.probability == pytest.approx(point.probability(o.label), rel=1e-6)
            assert o.h_tra == pytest.approx(h_tra, abs=1e-6)
            assert o.h_cor == pytest.approx(h_cor, abs=1e-6)
        assert record.fisher_heat == pytest.approx(point.fisher, rel=1e-6)

    def test_bound_saturates_cramer_rao(self):
        p = HEParams(1.0, 1.0, 0.1, 1.0, 3.0)
        assert he_precision_bound(p) * p.beta * math.sqrt(he_fisher(p)) == \
            pytest.approx(1.0, rel=1e-12)

    def test_score_prefactor_enhances_precision(self):
        # (1+nbar_b)/(1+nbar(t)) >= 1, equality only at the full swap
        p_partial = HEParams(1.0, 1.0, 0.1, 1.0, 1.0)
        n = p_partial.n
        nbar_b = p_partial.nbar_b
        assert (1.0 + nbar_b) / (1.0 + n) >= 1.0
        p_full = HEParams(1.0, 1.0, 0.1, 1.0,
                          he_optimal_time(HEParams(1.0, 1.0, 0.1, 1.0, 0.0)))
        n_full = p_full.n
        assert (1.0 + nbar_b) / (1.0 + n_full) == pytest.approx(1.0, rel=1e-12)

    def test_optimal_time_maximizes_transfer(self):
        p0 = HEParams(1.3, 1.0, 0.2, 1.0, 0.0)
        t_opt = he_optimal_time(p0)
        best = HEParams(1.3, 1.0, 0.2, 1.0, t_opt).n
        for t in (0.7 * t_opt, 1.3 * t_opt):
            assert HEParams(1.3, 1.0, 0.2, 1.0, t).n <= best

    def test_no_optimal_time_without_coupling_or_detuning(self):
        with pytest.raises(ValueError, match="no half-swap time"):
            he_optimal_time(HEParams(1.0, 1.0, 0.0, 1.0, 0.0))

    def test_derived_fields(self):
        p = HEParams(1.3, 1.0, 0.2, 1.1, 2.0)
        assert p.rabi == pytest.approx(math.hypot(0.15, 0.2), rel=1e-15)
        assert p.nbar_b == pytest.approx(1.0 / math.expm1(1.1), rel=1e-15)
        assert p.n == pytest.approx(
            p.nbar_b * (0.2 / p.rabi) ** 2 * math.sin(2.0 * p.rabi) ** 2, rel=1e-15)

    @pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
    def test_replace_forms_the_derived_fields_anew(self, t):
        # dataclasses.replace runs __post_init__ again, so n follows the new t
        p = dataclasses.replace(HEParams(1.2, 1.0, 0.15, 1.3, 5.0), t=t)
        fresh = HEParams(1.2, 1.0, 0.15, 1.3, t)
        assert (p.rabi, p.nbar_b, p.n) == (fresh.rabi, fresh.nbar_b, fresh.n)
        assert p == fresh


class TestDephasingClosedForms:
    def worked_point(self):
        return DephParams((BathMode(1.0, 0.1),), 1.0, math.pi)

    def test_worked_numbers(self):
        p = self.worked_point()
        assert p.gamma == pytest.approx(0.173116, abs=1e-6)
        assert p.Q == pytest.approx(-0.040000, abs=1e-10)
        assert p.C == pytest.approx(-0.073654, abs=1e-6)
        assert deph_precision_bound(p) == pytest.approx(4.3665, abs=1e-3)

    def test_per_mode_arrays_are_formed_once_and_read_only(self):
        w = np.array([1.0, 1.7])
        p = DephParams((BathMode(1.0, 0.1), BathMode(1.7, 0.12)), 1.2, 2.1)
        assert p.omegas is p.omegas
        np.testing.assert_array_equal(p.omegas, w)
        np.testing.assert_array_equal(p.couplings, [0.1, 0.12])
        np.testing.assert_allclose(p.nbars, 1.0 / np.expm1(1.2 * w), rtol=1e-15)
        np.testing.assert_array_equal(p.one_minus_cos, 1.0 - np.cos(2.1 * w))
        for array in (p.omegas, p.couplings, p.nbars, p.one_minus_cos):
            assert not array.flags.writeable

    def test_params_compare_and_hash_by_their_inputs(self):
        modes = (BathMode(1.0, 0.1), BathMode(1.7, 0.12))
        p, q = DephParams(modes, 1.2, 2.1), DephParams(list(modes), 1.2, 2.1)
        assert p == q and hash(p) == hash(q)
        assert len({p, q, DephParams(modes, 1.2, 2.2)}) == 2
        assert dataclasses.replace(p, t=2.2) == DephParams(modes, 1.2, 2.2)

    @pytest.mark.parametrize("g", [1e200, -1e155, math.inf])
    def test_a_coupling_whose_square_passes_the_float_range_is_named(self, g):
        # g = 1e200 once squared into a RuntimeWarning and NaN closed forms
        modes = (BathMode(1.0, 0.1), BathMode(2.0, g))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"mode 1 coupling g = .*: g\^2 passes"):
                DephParams(modes, 1.0, 1.0)

    def test_gamma_derivative_is_twice_C(self):
        p = self.worked_point()
        h = 1e-6
        dgamma = (DephParams(p.modes, p.beta + h, p.t).gamma
                  - DephParams(p.modes, p.beta - h, p.t).gamma) / (2.0 * h)
        assert dgamma == pytest.approx(2.0 * p.C, rel=1e-6)

    def test_average_trajectory_heat_equals_Q(self):
        p = DephParams((BathMode(1.0, 0.1), BathMode(1.7, 0.12)), 1.2, 2.1)
        avg = sum(deph_probability(p, l) * deph_heat_terms(p, l)[0] for l in (1, -1))
        assert avg == pytest.approx(p.Q, abs=1e-12)

    def test_fisher_equals_two_outcome_sum(self):
        p = self.worked_point()
        c = p.C
        vis = math.exp(-p.gamma)
        total = sum(deph_probability(p, l) * (l * vis * c / deph_probability(p, l)) ** 2
                    for l in (1, -1))
        assert total == pytest.approx(deph_fisher(p), rel=1e-12)

    def test_zero_time_is_trivial(self):
        p = DephParams((BathMode(1.0, 0.1),), 1.0, 0.0)
        assert deph_probability(p, 1) == pytest.approx(1.0)
        assert deph_heat_terms(p, 1) == pytest.approx((0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 2.0 * math.pi])
    def test_revival_has_zero_information(self, t):
        # cos(2 pi) rounds to 1, so Gamma = C = 0 and F is the 0/0 limit 0
        p = DephParams((BathMode(1.0, 0.1),), 1.0, t)
        assert p.gamma == p.C == 0.0
        assert deph_fisher(p) == 0.0
        assert deph_precision_bound(p) == math.inf

    def test_overflowing_decoherence_has_zero_information(self):
        # e^{2 Gamma} overflows a float past Gamma = 354.9: F is its limit 0
        p = DephParams((BathMode(1.0, 5.0),), 1.0, math.pi)
        assert p.gamma > 354.9 and p.C != 0.0
        assert deph_fisher(p) == 0.0
        assert deph_precision_bound(p) == math.inf

    def test_revival_suppresses_outcome_minus_one(self):
        # P_- = 0 has no conditional heat; callers that catch ValueError still do
        p = DephParams((BathMode(1.0, 0.3),), 1.0, 2.0 * math.pi)
        with pytest.raises(SuppressedOutcomeError, match="outcome -1 suppressed"):
            deph_heat_terms(p, -1)
        assert issubclass(SuppressedOutcomeError, ValueError)

    def test_matches_brute_force(self):
        modes = [BathMode(1.0, 0.1), BathMode(1.6, 0.15)]
        beta, t = 1.0, 1.9
        point = deph_point(DephParams(tuple(modes), beta, t))
        cutoffs = [truncation_level(beta, m.omega, 1e-8) + 3 for m in modes]
        eng = HeatEngine(build_dephasing_model(modes, cutoffs))
        record = eng.heat_decomposition(point.rho0, beta, t, pauli_x_measurement())
        for o in record.outcomes:
            h_tra, h_cor = point.heat_terms(o.label)
            assert o.probability == pytest.approx(point.probability(o.label), rel=1e-6)
            assert o.h_tra == pytest.approx(h_tra, abs=1e-6)
            assert o.h_cor == pytest.approx(h_cor, abs=1e-6)
        assert record.fisher_heat == pytest.approx(point.fisher, rel=1e-6)


@pytest.mark.parametrize("build", [
    lambda beta: HEParams(1.0, 1.0, 0.1, beta, 1.0),
    lambda beta: DephParams((BathMode(1.0, 0.1),), beta, 1.0),
], ids=["exchange", "dephasing"])
@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_params_reject_non_positive_beta(build, beta):
    with pytest.raises(ValueError, match="beta must be positive"):
        build(beta)


class TestScaling:
    def test_exact_power_law_recovered(self):
        betas = np.linspace(2.0, 9.0, 6)
        points = [(b, 0.7 * b**2) for b in betas]
        slope, intercept, r2 = scaling_fit(points)
        assert slope == pytest.approx(2.0, abs=1e-10)
        assert intercept == pytest.approx(math.log(0.7), abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    # four equal betas once fitted a slope under polyfit's RankWarning, with r^2 = 1,
    # and an infinite bound gave a NaN slope under numpy's "invalid value" warning
    @pytest.mark.parametrize("points, beta", [
        ([(1.0, 1.0), (2.0, 2.0)], None),
        ([(5.0, 1.0)] * 4, None),
        ([(1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 1.0)], 2.0),
        ([(1.0, 1.0), (2.0, 2.0), (3.0, math.inf), (4.0, math.inf)], 3.0),
        ([(1.0, 1.0), (2.0, 2.0), (3.0, math.nan), (4.0, 4.0)], 3.0),
        ([(1.0, 1.0), (2.0, 2.0), (3.0, 0.0), (4.0, 4.0)], 3.0),
        ([(-1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)], -1.0),
    ], ids=["short", "equal-betas", "negative", "inf", "nan", "zero", "negative-beta"])
    def test_rejects_a_sweep_with_no_fit(self, points, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingFitError) as info:
                scaling_fit(points)
        assert isinstance(info.value, ValueError) and info.value.beta == beta
        if beta is not None:
            assert f"at beta = {beta}" in str(info.value)

    def test_exchange_pipeline_slope(self):
        j = SpectralDensity(alpha=1.0, s=1.0, omega_c=1.0)
        betas = np.logspace(np.log10(5.0), np.log10(50.0), 8)
        slope, _, r2 = scaling_fit(he_scaling_points(j, betas))
        assert slope == pytest.approx(1.0, abs=0.1)
        assert r2 > 0.99

    def test_dephasing_pipeline_slope(self):
        j = SpectralDensity(alpha=1.0, s=1.0, omega_c=5.0)
        betas = np.logspace(np.log10(5.0), np.log10(50.0), 8)
        slope, _, r2 = scaling_fit(deph_scaling_points(j, betas))
        assert slope == pytest.approx(2.0, abs=0.1)
        assert r2 > 0.99

    def test_dephasing_points_are_inf_once_a_coupling_is(self):
        # J near omega = 200 is e^{860}: that midpoint mode's coupling is inf, and
        # DephParams would form inf * 0 from it at n = 0
        j = SpectralDensity(alpha=1.0, s=200.0, omega_c=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = deph_scaling_points(j, [1.0, 2.0], k_modes=50, omega_max=2000.0)
        assert points == [(1.0, math.inf), (2.0, math.inf)]
