"""Charge sectors: every blocked route against the dense, sector-blind reference."""

import numpy as np
import pytest
from scipy.linalg import expm

from thermoq.engine import HeatEngine, _probe_eigenpairs
from thermoq.mean_force import internal_energy, internal_energy_deviation, reduced_gibbs_operator
from thermoq.models import (
    SIGMA_X,
    BathMode,
    SectorCouplingError,
    _compose,
    _multimode_bath,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    eigenbasis_measurement,
    fock_measurement,
)

from dense_reference import dense_fisher_fd, dense_heat_decomposition, propagator


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_measurement(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return eigenbasis_measurement(a + a.conj().T, 1e-8)


def _random_modes(rng, k):
    return [BathMode(float(w), float(g))
            for w, g in zip(rng.uniform(0.8, 1.6, k), rng.uniform(0.1, 0.35, k))]


def _instance(charge, seed):
    """(model, rho0, measurement, beta, t, number of sectors) of one random draw."""
    rng = np.random.default_rng(seed)
    beta, t = rng.uniform(0.8, 1.5), rng.uniform(0.5, 3.0)
    if charge == "exchange":
        n_max = int(rng.integers(5, 9))
        model = build_coupled_oscillators(rng.uniform(0.9, 1.4), rng.uniform(0.9, 1.2),
                                          rng.uniform(0.05, 0.3), n_max)
        # a full-rank rho0 and a non-diagonal measurement reach every sector
        meas = (fock_measurement(n_max) if seed % 2 else
                _random_measurement(rng, n_max + 1))
        return model, _random_density(rng, n_max + 1), meas, beta, t, 2 * n_max + 1
    axis = {"dephasing": "z", "parity": "x", "none": "xz"}[charge]
    cutoffs = [int(n) for n in rng.integers(3, 6, size=2)]
    omega_q = 0.0 if charge == "dephasing" else rng.uniform(0.5, 1.5)
    model = build_spin_boson_model(omega_q, _random_modes(rng, 2), cutoffs, coupling_axis=axis)
    sectors = {"z": 2, "x": 2, "xz": 1}[axis]
    return model, _random_density(rng, 2), _random_measurement(rng, 2), beta, t, sectors


CASES = [(charge, seed) for charge in ("exchange", "dephasing", "parity", "none")
         for seed in (1, 2)]


@pytest.mark.parametrize("charge, seed", CASES)
def test_blocked_engine_matches_dense(charge, seed):
    model, rho0, meas, beta, t, sectors = _instance(charge, seed)
    assert len(model.spectrum) == sectors
    eng = HeatEngine(model)
    record = eng.heat_decomposition(rho0, beta, t, meas)
    ref = dense_heat_decomposition(model, rho0, beta, t, meas)
    assert [o.label for o in record.outcomes] == [o.label for o in ref.outcomes]
    for o, r in zip(record.outcomes, ref.outcomes):
        assert abs(o.probability - r.probability) <= 1e-11
        assert abs(o.h_tra - r.h_tra) <= 1e-10
        assert abs(o.h_cor - r.h_cor) <= 1e-10
    assert record.fisher_heat == pytest.approx(ref.fisher_heat, rel=1e-10)
    fd = eng.fisher_finite_difference(rho0, beta, t, meas)
    assert fd == pytest.approx(dense_fisher_fd(model, rho0, beta, t, meas), rel=1e-8)
    assert np.abs(eng.propagator(t) - propagator(model, t)).max() <= 1e-12
    _assert_two_point_matches(eng, ref, rho0, beta, t, meas)


def _assert_two_point_matches(eng, ref, rho0, beta, t, meas):
    heats = eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
    assert list(heats) == [r.label for r in ref.outcomes]
    for r in ref.outcomes:
        assert abs(heats[r.label] - r.h_tra) <= 1e-9


def test_two_point_route_drops_null_space_of_rho0():
    # a rank-2 mixture on an exchange probe: the zero eigenvalues of rho0 are
    # dropped, and what is left still matches the dense route
    model, _, meas, beta, t, _ = _instance("exchange", 2)
    rng = np.random.default_rng(5)
    d_s = model.system_dim
    psi, _ = np.linalg.qr(rng.normal(size=(d_s, 2)) + 1j * rng.normal(size=(d_s, 2)))
    rho0 = psi @ np.diag([0.9, 0.1]) @ psi.conj().T
    assert len(_probe_eigenpairs(rho0, d_s)[0]) == 2
    ref = dense_heat_decomposition(model, rho0, beta, t, meas)
    _assert_two_point_matches(HeatEngine(model), ref, rho0, beta, t, meas)


@pytest.mark.parametrize("axis", ["z", "x", "xz"])
def test_blocked_mean_force_matches_dense(axis):
    model, *_ = _instance({"z": "dephasing", "x": "parity", "xz": "none"}[axis], 3)
    beta = 1.1
    h = model.hamiltonian.toarray()
    d_s, d_b = model.system_dim, model.bath_dim
    # Tr_B e^{-beta H} / Z_B from the dense exponential of the whole of H
    gibbs = expm(-beta * h).reshape(d_s, d_b, d_s, d_b)
    z_b = np.trace(expm(-beta * model.h_b_local))
    assert np.allclose(reduced_gibbs_operator(model, beta),
                       np.einsum("sbtb->st", gibbs) / z_b, rtol=1e-10, atol=1e-13)
    e_total = np.trace(h @ expm(-beta * h)) / np.trace(expm(-beta * h))
    e_bath = (np.trace(model.h_b_local @ expm(-beta * model.h_b_local)) / z_b)
    assert internal_energy(model, beta) == pytest.approx(e_total - e_bath, rel=1e-10)
    assert internal_energy_deviation(model, beta).dual_residual <= 1e-10


@pytest.mark.parametrize("build, labels", [
    (lambda: build_coupled_oscillators(1.2, 1.0, 0.2, 4), 9),
    (lambda: build_dephasing_model(_random_modes(np.random.default_rng(0), 2), [3, 2]), 2),
    (lambda: build_spin_boson_model(1.0, _random_modes(np.random.default_rng(0), 2), [3, 2],
                                    coupling_axis="x"), 2),
], ids=["exchange", "dephasing", "parity"])
def test_each_sector_carries_one_charge(build, labels):
    model = build()
    assert len(model.spectrum) == labels
    for index, _, _ in model.spectrum:
        assert len(set(model.charge[index])) == 1
    h = model.hamiltonian.tocoo()
    assert np.array_equal(model.charge[h.row], model.charge[h.col])


def test_model_without_charge_has_one_sector():
    model = build_spin_boson_model(1.0, _random_modes(np.random.default_rng(0), 2), [3, 2],
                                   coupling_axis="xz")
    assert model.charge is None
    (index, w, v), = model.spectrum
    assert np.array_equal(index, np.arange(model.space.total_dim))
    assert np.allclose((v * w) @ v.T, model.hamiltonian.toarray(), atol=1e-12)


def test_wrong_charge_is_a_named_error():
    # the sigma_x coupling flips sigma_z, so sigma_z is no charge of it
    model = build_spin_boson_model(1.0, [BathMode(1.0, 0.2)], 3, coupling_axis="x")
    _, _, coupling = _multimode_bath([BathMode(1.0, 0.2)], [3])
    sigma_z = np.repeat([1, -1], model.bath_dim)
    with pytest.raises(SectorCouplingError, match="couples"):
        _compose(model.space, model.h_s_local, model.h_b_local,
                 np.kron(SIGMA_X, coupling.toarray()), charge=sigma_z)
