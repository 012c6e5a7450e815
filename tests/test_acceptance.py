"""Acceptance gate: one test per release criterion.

Criteria 1-3 share one batch of random instances (20 per model family) so
the runtime cap applies to the batch as a whole; the remaining criteria
pin worked numbers, closed-form grids, scaling exponents, steady-state
identities, and a deliberate-fault (mutation) check.
"""

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
    mean_force_hamiltonian,
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
from thermoq.validate import draw_deph_instance, draw_he_instance

from dense_reference import dense_traces, initial_state, partial_trace_matrix, propagator

SEED = 20250823
DRAWS = 20


@pytest.fixture(scope="module")
def random_instance_batch():
    """Score / two-point / Fisher deviations over 20 random draws per family."""
    rng = np.random.default_rng(SEED)
    devs = {"score": 0.0, "two_point": 0.0, "fisher": 0.0}
    start = time.time()
    for _ in range(DRAWS):
        for family in ("he", "deph"):
            if family == "he":
                params, model = draw_he_instance(rng)
                d_s = model.system_dim
                rho0 = np.zeros((d_s, d_s), dtype=complex)
                rho0[0, 0] = 1.0
                meas = fock_measurement(d_s - 1)
            else:
                params, model = draw_deph_instance(rng)
                rho0 = np.full((2, 2), 0.5, dtype=complex)
                meas = pauli_x_measurement()
            beta, t = params["beta"], params["t"]
            eng = HeatEngine(model)
            record = eng.heat_decomposition(rho0, beta, t, meas)
            by_label = {o.label: o for o in record.outcomes}

            direct = eng.score_direct_all(rho0, beta, t, meas)
            for label, score in direct.items():
                devs["score"] = max(devs["score"],
                                    abs(score - by_label[label].score))
            heats = eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
            for label, h_tra in heats.items():
                devs["two_point"] = max(devs["two_point"],
                                        abs(h_tra - by_label[label].h_tra))
            fd = eng.fisher_finite_difference(rho0, beta, t, meas)
            devs["fisher"] = max(
                devs["fisher"],
                abs(fd - record.fisher_heat) / max(record.fisher_heat, 1e-12))
    devs["elapsed"] = time.time() - start
    return devs


def test_criterion_01_score_identity(random_instance_batch):
    assert random_instance_batch["score"] <= 1e-8
    assert random_instance_batch["elapsed"] < 120.0


def test_criterion_02_fisher_agreement(random_instance_batch):
    assert random_instance_batch["fisher"] <= 1e-5


def test_criterion_03_two_point_agreement(random_instance_batch):
    assert random_instance_batch["two_point"] <= 1e-8


def test_criterion_04_exchange_closed_form_grid():
    # Cutoffs sized per temperature; comparison restricted to outcomes with
    # P_l >= 1e-4 (covering all but ~1e-4 of the mass). Conditioning on l
    # transfers amplifies the truncated bath tail by a binomial factor, so
    # rarer outcomes would need cutoffs beyond desk-scale memory.
    omega_0, g = 1.0, 0.1
    n_max_for = {0.5: 46, 1.0: 27, 2.0: 16}
    for beta in (0.5, 1.0, 2.0):
        n_max = n_max_for[beta]
        for ratio in (0.0, 0.5, 2.0):
            delta = ratio * g
            model = build_coupled_oscillators(omega_0 + 2 * delta, omega_0, g, n_max)
            eng = HeatEngine(model)
            rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
            rho0[0, 0] = 1.0
            meas = fock_measurement(n_max)
            t_opt = cf.he_optimal_time(
                cf.HEParams(omega_0 + 2 * delta, omega_0, g, beta, 0.0))
            for t in (t_opt, t_opt / 3.0):
                p = cf.HEParams(omega_0 + 2 * delta, omega_0, g, beta, t)
                record = eng.heat_decomposition(rho0, beta, t, meas)
                for o in record.outcomes:
                    if o.probability < 1e-4:
                        continue
                    p_cf = cf.he_outcome_probability(p, o.label)
                    h_tra_cf, h_cor_cf = cf.he_heat_terms(p, o.label)
                    scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
                    assert abs(o.probability - p_cf) / p_cf <= 1e-6
                    assert abs(o.h_tra - h_tra_cf) / scale <= 1e-6
                    assert abs(o.h_cor - h_cor_cf) / scale <= 1e-6
                bound_bf = 1.0 / (beta * math.sqrt(record.fisher_heat))
                bound_cf = cf.he_precision_bound(p)
                assert abs(bound_bf - bound_cf) / bound_cf <= 1e-6


def test_criterion_05_exchange_worked_number():
    p0 = cf.HEParams(1.0, 1.0, 0.1, 1.0, 0.0)
    p = cf.HEParams(1.0, 1.0, 0.1, 1.0, cf.he_optimal_time(p0))
    expected = (math.e - 1.0) / math.sqrt(math.e)
    assert abs(cf.he_precision_bound(p) - expected) <= 1e-5
    assert expected == pytest.approx(1.042190, abs=1e-5)


def test_criterion_06_dephasing_worked_numbers():
    mode = BathMode(1.0, 0.1)
    beta, t = 1.0, math.pi
    p = cf.DephParams((mode,), beta, t)
    assert cf.deph_gamma(p) == pytest.approx(0.173116, abs=1e-6)
    assert cf.deph_Q(p) == pytest.approx(-0.040000, abs=1e-10)
    assert cf.deph_C(p) == pytest.approx(-0.073654, abs=1e-6)
    assert cf.deph_precision_bound(p) == pytest.approx(4.3665, abs=1e-3)

    # cross-check against brute-force evolution
    n_max = truncation_level(beta, mode.omega, 1e-10) + 3
    model = build_dephasing_model([mode], n_max)
    eng = HeatEngine(model)
    plus = np.full((2, 2), 0.5, dtype=complex)
    u = propagator(model, t)
    chi_t = u @ initial_state(model, plus, beta) @ u.conj().T
    rho_probe = partial_trace_matrix(chi_t, model.space.factor_dims, [0])
    gamma_bf = -math.log(2.0 * abs(rho_probe[0, 1]))
    assert gamma_bf == pytest.approx(cf.deph_gamma(p), abs=1e-6)

    record = eng.heat_decomposition(plus, beta, t, pauli_x_measurement())
    for o in record.outcomes:
        h_tra_cf, h_cor_cf = cf.deph_heat_terms(p, o.label)
        assert o.probability == pytest.approx(cf.deph_probability(p, o.label),
                                              rel=1e-6)
        assert o.h_tra == pytest.approx(h_tra_cf, abs=1e-6)
        assert o.h_cor == pytest.approx(h_cor_cf, abs=1e-6)
    bound_bf = 1.0 / (beta * math.sqrt(record.fisher_heat))
    assert bound_bf == pytest.approx(4.3665, abs=1e-3)


def test_criterion_07_dephasing_average_heat():
    for modes, beta, t in [
        ([BathMode(1.0, 0.1)], 1.0, math.pi),
        ([BathMode(1.0, 0.1), BathMode(1.7, 0.12)], 1.2, 2.1),
    ]:
        p = cf.DephParams(tuple(modes), beta, t)
        closed_avg = sum(cf.deph_probability(p, l) * cf.deph_heat_terms(p, l)[0]
                         for l in (1, -1))
        assert abs(closed_avg - cf.deph_Q(p)) <= 1e-8

        cutoffs = [truncation_level(beta, m.omega, 1e-10) + 3 for m in modes]
        eng = HeatEngine(build_dephasing_model(modes, cutoffs))
        plus = np.full((2, 2), 0.5, dtype=complex)
        record = eng.heat_decomposition(plus, beta, t, pauli_x_measurement())
        brute_avg = sum(o.probability * o.h_tra for o in record.outcomes)
        assert abs(brute_avg - cf.deph_Q(p)) <= 1e-8


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

    # (a) reduced-Gibbs reconstruction
    h_star = mean_force_hamiltonian(model, beta).matrix
    w, v = np.linalg.eigh(h_star)
    boltz = np.exp(-beta * w)
    rho_rebuilt = (v * (boltz / boltz.sum())) @ v.conj().T
    a = reduced_gibbs_operator(model, beta)
    rho_s = a / np.trace(a).real
    assert np.abs(rho_rebuilt - rho_s).max() <= 1e-10

    # (b) symmetrized-derivative (Sylvester) residual
    e_star = energy_operator(model, beta).matrix
    h = 1e-4 * beta

    def central(step):
        return (reduced_gibbs_operator(model, beta + step)
                - reduced_gibbs_operator(model, beta - step)) / (2.0 * step)

    d = -(4.0 * central(h / 2.0) - central(h)) / 3.0
    residual = np.abs(0.5 * (e_star @ a + a @ e_star) - d).max()
    assert residual <= 1e-8 * np.abs(d).max()

    # (c) dual computation of the internal-energy deviation
    result = internal_energy_deviation(model, beta)
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
        e_star = energy_operator(model, beta).matrix
        norms.append(np.abs(e_star - model.h_s_local).max())
    assert norms[0] > norms[1] > norms[2]
    assert norms[3] <= 1e-6


def test_criterion_11_mutation_sensitivity():
    """Deliberately corrupted heat terms must break the Fisher cross-check."""
    n_max, beta, t = 14, 1.2, 2.5
    model = build_coupled_oscillators(1.1, 1.0, 0.15, n_max)
    eng = HeatEngine(model)
    rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho0[0, 0] = 1.0
    meas = fock_measurement(n_max)

    record = eng.heat_decomposition(rho0, beta, t, meas)
    fd = eng.fisher_finite_difference(rho0, beta, t, meas)
    healthy = abs(fd - record.fisher_heat) / max(record.fisher_heat, 1e-12)
    assert healthy <= 1e-5

    # mutation 1: flipped correlation-heat sign
    fisher_flip = sum(
        o.probability * ((o.h_tra - record.h_avg) - o.h_cor) ** 2
        for o in record.outcomes)
    assert abs(fd - fisher_flip) / max(fisher_flip, 1e-12) > 1e-5

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
    assert abs(fd - fisher_nop) / max(fisher_nop, 1e-12) > 1e-5
