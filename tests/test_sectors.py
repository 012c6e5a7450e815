"""Charge sectors: every blocked route against the dense, sector-blind reference."""

import numpy as np
import pytest
from scipy.linalg import expm

from thermoq.engine import HeatEngine, _probe_eigenpairs
from thermoq.linalg import InvalidOperatorError, gibbs_weights
from thermoq.mean_force import (
    energy_operator,
    internal_energy,
    internal_energy_deviation,
    reduced_gibbs_operator,
)
from thermoq.models import (
    SIGMA_X,
    SIGMA_Z,
    BathMode,
    SectorCouplingError,
    _compose,
    _multimode_bath,
    build_coupled_oscillators,
    build_spin_boson_model,
    eigenbasis_measurement,
    fock_measurement,
)

from dense_reference import (
    bath_hamiltonian,
    dense_hamiltonian,
    dense_fisher_fd,
    dense_heat_decomposition,
)


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
    if charge == "degenerate":
        # two modes of one frequency: the Fock-basis sample energies repeat and
        # are not in ascending order
        omega = rng.uniform(0.8, 1.6)
        modes = [BathMode(omega, float(g)) for g in rng.uniform(0.1, 0.35, 2)]
        model = build_spin_boson_model(0.0, modes + _random_modes(rng, 1), [3, 2, 2],
                                       coupling_axis="z")
        eps = model.bath_energies
        assert len(np.unique(eps)) < len(eps) and np.any(np.diff(eps) < 0)
        return model, _random_density(rng, 2), _random_measurement(rng, 2), beta, t, 2
    axis = {"dephasing": "z", "sigma-z": "z", "parity": "x", "none": "xz"}[charge]
    cutoffs = [int(n) for n in rng.integers(3, 6, size=2)]
    omega_q = 0.0 if charge == "dephasing" else rng.uniform(0.5, 1.5)
    model = build_spin_boson_model(omega_q, _random_modes(rng, 2), cutoffs, coupling_axis=axis)
    sectors = {"z": 2, "x": 2, "xz": 1}[axis]
    return model, _random_density(rng, 2), _random_measurement(rng, 2), beta, t, sectors


CASES = [(charge, seed) for charge in ("exchange", "dephasing", "sigma-z", "parity", "none")
         for seed in (1, 2)] + [("degenerate", 1)]


@pytest.mark.parametrize("charge, seed", CASES)
def test_blocked_engine_matches_dense(charge, seed):
    model, rho0, meas, beta, t, sectors = _instance(charge, seed)
    assert len(model.spectrum) == sectors
    _assert_engine_matches_dense(model, rho0, beta, t, meas)


def _assert_engine_matches_dense(model, rho0, beta, t, meas):
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
    _assert_two_point_matches(eng, ref, rho0, beta, t, meas)


def _assert_two_point_matches(eng, ref, rho0, beta, t, meas):
    heats = eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
    assert list(heats) == [r.label for r in ref.outcomes]
    for r in ref.outcomes:
        assert abs(heats[r.label] - r.h_tra) <= 1e-9


def _exchange_probe_state(name, d, rng):
    """The vacuum, |1><1|, or a rank-2 mixture of two superpositions of |1> and |3>."""
    rho0 = np.zeros((d, d), dtype=complex)
    if name == "vacuum":
        rho0[0, 0] = 1.0
    elif name == "one":
        rho0[1, 1] = 1.0
    else:
        rho0[np.ix_([1, 3], [1, 3])] = _random_density(rng, 2)
    return rho0


@pytest.mark.parametrize("measurement", ["fock", "random"])
@pytest.mark.parametrize("state", ["vacuum", "one", "mixture-1-3"])
def test_partial_support_rho0_matches_dense(state, measurement):
    # rho0 on a few probe levels reaches only some sectors: from |n> the branches
    # |n, j> reach the sector N = n + j alone, and from the mixture each branch
    # reaches two, whose amplitudes share the final sample levels
    rng = np.random.default_rng(11)
    n_max = 7
    model = build_coupled_oscillators(1.2, 1.0, 0.25, n_max)
    rho0 = _exchange_probe_state(state, n_max + 1, rng)
    meas = (fock_measurement(n_max) if measurement == "fock" else
            _random_measurement(rng, n_max + 1))
    rank = 2 if state == "mixture-1-3" else 1
    assert len(_probe_eigenpairs(rho0, meas, n_max + 1)[0]) == rank
    _assert_engine_matches_dense(model, rho0, 1.1, 2.3, meas)


def test_vacuum_build_propagates_exactly_the_sectors_it_reaches():
    # from the vacuum the branches |0, j> reach the sectors N = j <= n_max, 28 of
    # the 55 at n_max = 27: NaN eigenvectors in any other sector leave the
    # tables as they are, and in any of those 28 they reach the tables
    n_max = 27
    model = build_coupled_oscillators(1.1, 1.0, 0.2, n_max)
    sectors = len(model.sector_indices)
    assert sectors == 55
    rho0 = _exchange_probe_state("vacuum", n_max + 1, None)
    meas = fock_measurement(n_max)
    eigenpairs = model.sector_eigenpairs

    def tables(poisoned):
        def poison(b):
            index, lam, v = eigenpairs(b)
            return index, lam, np.full_like(v, np.nan) if b == poisoned else v

        vars(model)["sector_eigenpairs"] = poison
        built = HeatEngine(model)._tables_for(rho0, 1.0, 2.0, meas)
        return np.concatenate([built.prob.ravel(), built.energy.ravel(), built.bath_energy])

    clean = tables(None)
    assert np.all(np.isfinite(clean))
    propagated = [b for b in range(sectors) if not np.array_equal(tables(b), clean)]
    assert [model.charge[model.sector_indices[b][0]] for b in propagated] == list(range(n_max + 1))


def _diagonalized_charges(model):
    """The charges of the sectors ``model.sector_eigenpairs`` is asked for, in call order."""
    charges = []
    eigenpairs = model.sector_eigenpairs

    def record(b):
        charges.append(int(model.charge[model.sector_indices[b][0]]))
        return eigenpairs(b)

    vars(model)["sector_eigenpairs"] = record
    return charges


@pytest.mark.parametrize("route", ["tables", "two-point"])
def test_vacuum_routes_diagonalize_only_the_sectors_they_reach(route):
    # each route keeps its own exact-zero test on phi: from the vacuum neither
    # asks for a sector with N > n_max, and each diagonalizes the N <= n_max ones once
    n_max = 27
    model = build_coupled_oscillators(1.1, 1.0, 0.2, n_max)
    charges = _diagonalized_charges(model)
    eng = HeatEngine(model)
    rho0, meas = _exchange_probe_state("vacuum", n_max + 1, None), fock_measurement(n_max)
    if route == "tables":
        eng.heat_decomposition(rho0, 1.0, 2.0, meas)
    else:
        eng.two_point_trajectory_heat_all(rho0, 1.0, 2.0, meas)
    assert sorted(charges) == list(range(n_max + 1))
    assert model.sectors_diagonalized == n_max + 1 and len(model.sector_indices) == 55


def _every_level_start(case):
    """(model, rho0, measurement, beta, t) whose start states lie on every probe level."""
    if case == "exchange-thermal":
        n_max = 7
        model = build_coupled_oscillators(1.2, 1.0, 0.25, n_max)
        rho0 = np.diag(gibbs_weights(1.2 * np.arange(n_max + 1.0), 0.7)).astype(complex)
        return model, rho0, fock_measurement(n_max), 1.1, 2.3
    rng = np.random.default_rng(4)
    model = build_spin_boson_model(1.0, _random_modes(rng, 2), [4, 3], coupling_axis="x")
    return model, np.full((2, 2), 0.5, dtype=complex), _random_measurement(rng, 2), 1.1, 2.3


@pytest.mark.parametrize("route", ["tables", "two-point"])
@pytest.mark.parametrize("case", ["exchange-thermal", "parity-plus"])
def test_a_start_on_every_probe_level_diagonalizes_every_sector(case, route):
    # a full-rank thermal rho0 on the exchange pair, or |+> on the parity model,
    # has a start state in every sector: each route diagonalizes all of them and
    # still matches the dense reference at the unchanged bounds
    model, rho0, meas, beta, t = _every_level_start(case)
    eng = HeatEngine(model)
    if route == "tables":
        eng.heat_decomposition(rho0, beta, t, meas)
    else:
        eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
    assert model.sectors_diagonalized == len(model.sector_indices) > 1
    _assert_engine_matches_dense(model, rho0, beta, t, meas)


def test_engine_then_probe_tables_run_one_eigh_per_sector(monkeypatch):
    # the engine diagonalizes the 7 sectors the vacuum reaches, mean force's
    # probe_tables the other 6: one eigh per sector between them
    n_max = 6
    model = build_coupled_oscillators(1.1, 1.0, 0.2, n_max)
    rho0, meas = _exchange_probe_state("vacuum", n_max + 1, None), fock_measurement(n_max)
    dims = []
    real_eigh = np.linalg.eigh

    def eigh(matrix, *args, **kwargs):
        dims.append(np.shape(matrix)[0])
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    eng = HeatEngine(model)
    eng.heat_decomposition(rho0, 1.0, 2.0, meas)
    eng.two_point_trajectory_heat_all(rho0, 1.0, 2.0, meas)
    # one more eigh: rho0's own, of the probe's size, which the engine keeps for
    # both calls
    assert sorted(dims) == sorted([n_max + 1] + list(range(1, n_max + 2)))
    dims.clear()
    model.probe_tables  # noqa: B018
    assert sorted(dims) == list(range(1, n_max + 1))


def test_two_point_route_drops_null_space_of_rho0():
    # a rank-2 mixture on an exchange probe: the zero eigenvalues of rho0 are
    # dropped, and what is left still matches the dense route
    model, _, meas, beta, t, _ = _instance("exchange", 2)
    rng = np.random.default_rng(5)
    d_s = model.system_dim
    psi, _ = np.linalg.qr(rng.normal(size=(d_s, 2)) + 1j * rng.normal(size=(d_s, 2)))
    rho0 = psi @ np.diag([0.9, 0.1]) @ psi.conj().T
    assert len(_probe_eigenpairs(rho0, meas, d_s)[0]) == 2
    ref = dense_heat_decomposition(model, rho0, beta, t, meas)
    _assert_two_point_matches(HeatEngine(model), ref, rho0, beta, t, meas)


@pytest.mark.parametrize("charge", ["dephasing", "sigma-z", "degenerate"])
def test_spectrum_matches_dense_sector_eigh(charge):
    # the degenerate draw has two modes of one frequency, so its sector spectra repeat
    model, *_ = _instance(charge, 1)
    h = dense_hamiltonian(model)
    for index, w, v in model.spectrum:
        block = h[np.ix_(index, index)]
        assert np.abs(w - np.linalg.eigvalsh(block)).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(len(index))).max() <= 1e-12
        assert np.abs((v * w) @ v.T - block).max() <= 1e-12


@pytest.mark.parametrize("charge", ["dephasing", "sigma-z", "exchange", "parity", "none"])
def test_one_eigh_per_sector(charge, monkeypatch):
    model, *_ = _instance(charge, 1)
    dims = []
    real_eigh = np.linalg.eigh

    def eigh(matrix, *args, **kwargs):
        dims.append(np.shape(matrix)[0])
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    HeatEngine(model)
    model.spectrum  # noqa: B018
    assert sorted(dims) == sorted(len(index) for index, _, _ in model.spectrum)


@pytest.mark.parametrize("axis", ["z", "x", "xz"])
def test_blocked_mean_force_matches_dense(axis):
    model, *_ = _instance({"z": "dephasing", "x": "parity", "xz": "none"}[axis], 3)
    beta = 1.1
    h = dense_hamiltonian(model)
    d_s, d_b = model.system_dim, model.bath_dim
    boltz = expm(-beta * h)

    def bath_trace(m):
        return np.einsum("sbtb->st", m.reshape(d_s, d_b, d_s, d_b))

    # Tr_B e^{-beta H} / Z_B from the dense exponential of the whole of H
    h_b = bath_hamiltonian(model)
    z_b = np.trace(expm(-beta * h_b))
    a = reduced_gibbs_operator(model, beta)
    assert np.allclose(a, bath_trace(boltz) / z_b, rtol=1e-10, atol=1e-13)
    e_total = np.trace(h @ boltz) / np.trace(boltz)
    e_bath = np.trace(h_b @ expm(-beta * h_b)) / z_b
    assert internal_energy(model, beta) == pytest.approx(e_total - e_bath, rel=1e-10)
    # dA/d(-beta) = Tr_B[(H - <H_B>_B) e^{-beta H}] / Z_B, recovered from E* through
    # the anticommutator it solves
    e_star = energy_operator(model, beta)
    d_dense = bath_trace((h - e_bath * np.eye(len(h))) @ boltz) / z_b
    assert np.allclose(0.5 * (e_star @ a + a @ e_star), d_dense, rtol=1e-10, atol=1e-13)

    result = internal_energy_deviation(model, beta)
    assert result.dual_residual <= 1e-10
    # each trace-route deviation (1/P_l) Tr[Pi_l H chi_s] - Tr[H chi_s], from the
    # model's tables (G for P_l, K for Tr_B[H chi_s]) and from the dense chi
    chi = boltz / np.trace(boltz)
    chi_s, h_chi_s = bath_trace(chi), bath_trace(h @ chi)
    w, g, k = model.probe_tables
    gibbs = gibbs_weights(w, beta)
    h_chi_tab = k @ gibbs
    spread = np.ptp(np.linalg.eigvalsh(result.e_star))
    meas = eigenbasis_measurement(result.e_star, 1e-8 * max(spread, 1.0))
    assert len(result.delta_u) == len(meas.labels)
    for (eps, p, dev), label, proj in zip(result.delta_u, meas.labels, meas.projectors):
        p_dense = np.trace(proj @ chi_s).real
        dev_dense = np.trace(proj @ h_chi_s).real / p_dense - np.trace(h_chi_s).real
        p_tab = np.einsum("st,tsn->n", proj.real, g) @ gibbs
        dev_trace = np.trace(proj @ h_chi_tab).real / p_tab - np.trace(h_chi_tab)
        assert eps == label
        assert p == pytest.approx(p_dense, rel=1e-10)
        for value in (dev_trace, dev):
            assert abs(value - dev_dense) <= 1e-10 * max(1.0, abs(dev_dense))


@pytest.mark.parametrize("build, labels", [
    (lambda: build_coupled_oscillators(1.2, 1.0, 0.2, 4), 9),
    (lambda: build_spin_boson_model(0.0, _random_modes(np.random.default_rng(0), 2), [3, 2],
                                    coupling_axis="z"), 2),
    (lambda: build_spin_boson_model(1.0, _random_modes(np.random.default_rng(0), 2), [3, 2],
                                    coupling_axis="x"), 2),
], ids=["exchange", "dephasing", "parity"])
def test_each_sector_carries_one_charge(build, labels):
    model = build()
    assert len(model.spectrum) == labels
    for index, _, _ in model.spectrum:
        assert len(set(model.charge[index])) == 1
    rows, cols = np.nonzero(dense_hamiltonian(model))
    assert np.array_equal(model.charge[rows], model.charge[cols])


def test_model_without_charge_has_one_sector():
    model = build_spin_boson_model(1.0, _random_modes(np.random.default_rng(0), 2), [3, 2],
                                   coupling_axis="xz")
    assert model.charge is None
    (index, w, v), = model.spectrum
    assert np.array_equal(index, np.arange(model.space.total_dim))
    assert np.allclose((v * w) @ v.T, dense_hamiltonian(model), atol=1e-12)


def test_wrong_charge_is_a_named_error():
    # the sigma_x coupling flips sigma_z, so sigma_z is no charge of it
    model = build_spin_boson_model(1.0, [BathMode(1.0, 0.2)], 3, coupling_axis="x")
    _, _, h_i = _multimode_bath([BathMode(1.0, 0.2)], [3], SIGMA_X)
    sigma_z = np.repeat([1, -1], model.bath_dim)
    with pytest.raises(SectorCouplingError, match="couples"):
        _compose(model.space, model.h_s_local, model.bath_energies, h_i, charge=sigma_z)


@pytest.mark.parametrize("extra, deviation", [
    ((0, 1, 1e-3), "1.000e-03"),  # H stores the mirror entry (1, 0) with another value
    ((0, 2, 2e-3), "2.000e-03"),  # H stores neither (0, 2) nor its mirror (2, 0)
], ids=["unequal-mirror", "missing-mirror"])
def test_non_hermitian_interaction_is_a_named_error(extra, deviation):
    model = build_spin_boson_model(1.0, [BathMode(1.0, 0.2)], 3, coupling_axis="xz")
    _, _, (rows, cols, values) = _multimode_bath([BathMode(1.0, 0.2)], [3],
                                                 (SIGMA_X + SIGMA_Z) / np.sqrt(2))
    r, c, v = extra
    h_i = np.append(rows, r), np.append(cols, c), np.append(values, v)
    with pytest.raises(InvalidOperatorError, match=f"max deviation {deviation}"):
        _compose(model.space, model.h_s_local, model.bath_energies, h_i)
