"""Acceptance gate: one test per release criterion.

Criteria 1-3 share one batch of random instances (20 per model family) so
the runtime cap applies to the batch as a whole; the remaining criteria
pin worked numbers, closed-form grids, scaling exponents, steady-state
identities, and a deliberate-fault (mutation) check. Every identity the
runners and cross-validation check is judged here by the same definition,
``validate.check_engine_point`` and the ``TOL_*`` tolerances.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import thermoq.closed_form as cf
from thermoq.engine import HeatEngine
from thermoq.linalg import truncation_level
from thermoq.mean_force import (
    energy_operator,
    internal_energy_deviation,
    reduced_gibbs_operator,
    temperature_energy_ur_check,
)
from thermoq.models import (
    BathMode,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    fock_measurement,
    pauli_x_measurement,
)
from thermoq.validate import (
    TOL_AVG_HEAT,
    TOL_FISHER,
    check_engine_point,
    deph_point,
    engine_draws,
    he_point,
    identity_checks,
    relative_error,
)

from dense_reference import dense_traces, initial_state, partial_trace_matrix, propagator

SEED = 20250823
DRAWS = 20
ENGINE_CHECKS = ("score", "two_point", "fisher", "closed_form", "avg_heat", "saturation")


@pytest.fixture(scope="module")
def random_instance_batch():
    """Every engine check over 20 random draws per family, and the batch's time;
    criteria 1-3 gate the score, Fisher and two-point checks."""
    rng = np.random.default_rng(SEED)
    checks = identity_checks(*ENGINE_CHECKS)
    start = time.time()
    for _ in range(DRAWS):
        for params, model, meas, point in engine_draws(rng):
            check_engine_point(checks, HeatEngine(model), meas, point, params)
    return checks, time.time() - start


def test_criterion_01_score_identity(random_instance_batch):
    checks, elapsed = random_instance_batch
    assert checks["score"].passed, checks["score"].as_dict()
    assert elapsed < 120.0


def test_criterion_02_fisher_agreement(random_instance_batch):
    checks, _ = random_instance_batch
    assert checks["fisher"].passed, checks["fisher"].as_dict()


def test_criterion_03_two_point_agreement(random_instance_batch):
    checks, _ = random_instance_batch
    assert checks["two_point"].passed, checks["two_point"].as_dict()


def test_criterion_04_exchange_closed_form_grid():
    # Cutoffs sized per temperature; comparison restricted to outcomes with
    # P_l >= 1e-4 (covering all but ~1e-4 of the mass). Conditioning on l
    # transfers amplifies the truncated bath tail by a binomial factor, so
    # rarer outcomes would need cutoffs beyond desk-scale memory. That is why
    # this grid keeps its own comparison: the shared 'closed_form' check, which
    # compares every outcome down to CLOSED_FORM_MIN_PROB = 1e-6, reads 1.7e-5
    # at beta = 0.5, n_max = 46, delta = 2g, t = t_opt, from truncation alone.
    omega_0, g = 1.0, 0.1
    n_max_for = {0.5: 46, 1.0: 27, 2.0: 16}
    for beta in (0.5, 1.0, 2.0):
        n_max = n_max_for[beta]
        for ratio in (0.0, 0.5, 2.0):
            delta = ratio * g
            model = build_coupled_oscillators(omega_0 + 2 * delta, omega_0, g, n_max)
            eng = HeatEngine(model)
            meas = fock_measurement(n_max)
            he = cf.HEParams(omega_0 + 2 * delta, omega_0, g, beta, 0.0)
            t_opt = cf.he_optimal_time(he)
            for t in (t_opt, t_opt / 3.0):
                point = he_point(dataclasses.replace(he, t=t), n_max)
                record = eng.heat_decomposition(point.rho0, beta, t, meas)
                for o in record.outcomes:
                    if o.probability < 1e-4:
                        continue
                    p_cf = point.probability(o.label)
                    h_tra_cf, h_cor_cf = point.heat_terms(o.label)
                    scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
                    assert abs(o.probability - p_cf) / p_cf <= 1e-6
                    assert abs(o.h_tra - h_tra_cf) / scale <= 1e-6
                    assert abs(o.h_cor - h_cor_cf) / scale <= 1e-6
                bound_bf = 1.0 / (beta * math.sqrt(record.fisher_heat))
                assert abs(bound_bf - point.bound) / point.bound <= 1e-6


def test_criterion_05_exchange_worked_number():
    p0 = cf.HEParams(1.0, 1.0, 0.1, 1.0, 0.0)
    p = cf.HEParams(1.0, 1.0, 0.1, 1.0, cf.he_optimal_time(p0))
    expected = (math.e - 1.0) / math.sqrt(math.e)
    assert abs(cf.he_precision_bound(p) - expected) <= 1e-5
    assert expected == pytest.approx(1.042190, abs=1e-5)


def engine_checks_at(model, point):
    """Every engine check at one dephasing working point."""
    checks = identity_checks(*ENGINE_CHECKS)
    check_engine_point(checks, HeatEngine(model), pauli_x_measurement(), point,
                       {"beta": point.beta, "t": point.t})
    return checks


def test_criterion_06_dephasing_worked_numbers():
    mode = BathMode(1.0, 0.1)
    beta, t = 1.0, math.pi
    p = cf.DephParams((mode,), beta, t)
    point = deph_point(p)
    assert p.gamma == pytest.approx(0.173116, abs=1e-6)
    assert p.Q == pytest.approx(-0.040000, abs=1e-10)
    assert p.C == pytest.approx(-0.073654, abs=1e-6)
    assert cf.deph_precision_bound(p) == pytest.approx(4.3665, abs=1e-3)

    # cross-check against brute-force evolution of the sparse model's dense H
    n_max = truncation_level(beta, mode.omega, 1e-10) + 3
    sparse = build_spin_boson_model(0.0, [mode], n_max, coupling_axis="z")
    u = propagator(sparse, t)
    chi_t = u @ initial_state(sparse, point.rho0, beta) @ u.conj().T
    rho_probe = partial_trace_matrix(chi_t, sparse.space.factor_dims, [0])
    gamma_bf = -math.log(2.0 * abs(rho_probe[0, 1]))
    assert gamma_bf == pytest.approx(p.gamma, abs=1e-6)

    # the engine's P_l, heats and Fisher information match these closed forms
    # ('closed_form'), so its bound is the worked 4.3665 ('saturation')
    checks = engine_checks_at(build_dephasing_model([mode], n_max), point)
    assert all(c.passed for c in checks.values()), [c.as_dict() for c in checks.values()]


def test_criterion_07_dephasing_average_heat():
    for modes, beta, t in [
        ([BathMode(1.0, 0.1)], 1.0, math.pi),
        ([BathMode(1.0, 0.1), BathMode(1.7, 0.12)], 1.2, 2.1),
    ]:
        p = cf.DephParams(tuple(modes), beta, t)
        closed_avg = sum(cf.deph_probability(p, l) * cf.deph_heat_terms(p, l)[0]
                         for l in (1, -1))
        assert abs(closed_avg - p.Q) <= TOL_AVG_HEAT

        cutoffs = [truncation_level(beta, m.omega, 1e-10) + 3 for m in modes]
        checks = engine_checks_at(build_dephasing_model(modes, cutoffs), deph_point(p))
        assert all(c.passed for c in checks.values()), [c.as_dict() for c in checks.values()]


def test_criterion_08_scaling_exponents():
    betas = np.logspace(np.log10(5.0), np.log10(50.0), 8)
    start = time.time()
    j_he = cf.SpectralDensity(alpha=1.0, s=1.0, omega_c=1.0)
    slope_he, _, _ = cf.scaling_fit(cf.he_scaling_points(j_he, betas))
    j_deph = cf.SpectralDensity(alpha=1.0, s=1.0, omega_c=5.0)
    slope_deph, _, _ = cf.scaling_fit(cf.deph_scaling_points(j_deph, betas))
    elapsed = time.time() - start
    assert abs(slope_he - 1.0) <= 0.1    # (1+s)/2 for s = 1
    assert abs(slope_deph - 2.0) <= 0.1  # 1+s for s = 1
    assert elapsed < 60.0


def test_criterion_09_mean_force_identities():
    beta = 1.0
    modes = [BathMode(0.8, 0.15), BathMode(1.3, 0.15)]
    cutoffs = [truncation_level(beta, m.omega, 1e-8) + 2 for m in modes]
    model = build_spin_boson_model(1.0, modes, cutoffs, coupling_axis="xz")

    result = internal_energy_deviation(model, beta)

    # (a) reduced-Gibbs reconstruction
    h_star = result.h_star
    w, v = np.linalg.eigh(h_star)
    boltz = np.exp(-beta * w)
    rho_rebuilt = (v * (boltz / boltz.sum())) @ v.conj().T
    a = reduced_gibbs_operator(model, beta)
    rho_s = a / np.trace(a).real
    assert np.abs(rho_rebuilt - rho_s).max() <= 1e-10

    # (b) symmetrized-derivative (Sylvester) residual
    e_star = energy_operator(model, beta)
    h = 1e-4 * beta

    def central(step):
        return (reduced_gibbs_operator(model, beta + step)
                - reduced_gibbs_operator(model, beta - step)) / (2.0 * step)

    d = -(4.0 * central(h / 2.0) - central(h)) / 3.0
    residual = np.abs(0.5 * (e_star @ a + a @ e_star) - d).max()
    assert residual <= 1e-8 * np.abs(d).max()

    # (c) dual computation of the internal-energy deviation
    assert result.dual_residual <= 1e-6

    # (d) Fisher of the energy-operator eigenbasis equals the variance
    delta_u, fisher, product = temperature_energy_ur_check(result)
    assert abs(fisher - delta_u**2) / delta_u**2 <= 1e-5
    assert abs(product - 1.0) <= 1e-5


def test_criterion_10_weak_coupling_collapse():
    beta = 1.0
    norms = []
    for g in (0.1, 0.05, 0.025, 0.0):
        modes = [BathMode(0.8, g), BathMode(1.3, g)]
        model = build_spin_boson_model(1.0, modes, 5, coupling_axis="x")
        e_star = energy_operator(model, beta)
        norms.append(np.abs(e_star - model.h_s_local).max())
    assert norms[0] > norms[1] > norms[2]
    assert norms[3] <= 1e-6


def test_criterion_11_mutation_sensitivity():
    """Deliberately corrupted heat terms must break the Fisher cross-check."""
    n_max, beta, t = 14, 1.2, 2.5
    model = build_coupled_oscillators(1.1, 1.0, 0.15, n_max)
    eng = HeatEngine(model)
    rho0 = he_point(cf.HEParams(1.1, 1.0, 0.15, beta, t), n_max).rho0
    meas = fock_measurement(n_max)

    # the point is truncated ('closed_form' reads 4.3e-4 here), so it is judged by
    # the Fisher tolerance alone, not by check_engine_point
    record = eng.heat_decomposition(rho0, beta, t, meas)
    fd = eng.fisher_finite_difference(rho0, beta, t, meas)
    assert relative_error(fd, record.fisher_heat) <= TOL_FISHER

    # mutation 1: flipped correlation-heat sign
    fisher_flip = sum(
        o.probability * ((o.h_tra - record.h_avg) - o.h_cor) ** 2
        for o in record.outcomes)
    assert relative_error(fd, fisher_flip) > TOL_FISHER

    # mutation 2: conditional energies without the 1/P_l normalization, built
    # from the dense reference's raw traces Tr[Pi_l U H_B chi0 U^dag] and
    # Tr[Pi_l chi_t H_B]
    rows, _, e_b_t = dense_traces(model, rho0, beta, t, meas)
    traces_by_label = dict(zip(meas.labels, rows))
    fisher_nop = 0.0
    for o in record.outcomes:
        _, e_start, e_end = traces_by_label[o.label]
        score = ((e_start - e_end) - record.h_avg) + (e_end - e_b_t)
        fisher_nop += o.probability * score**2
    fisher_nop = float(fisher_nop)
    assert relative_error(fd, fisher_nop) > TOL_FISHER
