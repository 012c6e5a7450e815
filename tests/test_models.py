"""Model builders, bath discretization, and measurement bases."""

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

from thermoq.linalg import InvalidOperatorError
from thermoq.models import (
    SIGMA_Z,
    BathMode,
    ProjectiveMeasurement,
    SpectralDensity,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    destroy,
    discretize_spectral_density,
    eigenbasis_measurement,
    fock_measurement,
    number_op,
    pauli_x_measurement,
)


class TestBosonicOperators:
    def test_commutator_away_from_cutoff(self):
        a = destroy(6)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[:6, :6], np.eye(6), atol=1e-14)

    def test_number_from_ladder(self):
        a = destroy(6)
        assert np.allclose(a.conj().T @ a, number_op(6), atol=1e-14)


class TestBathTypes:
    def test_mode_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            BathMode(0.0, 0.1)

    def test_spectral_density_ohmic_value(self):
        j = SpectralDensity(alpha=2.0, s=1.0, omega_c=3.0)
        assert j(1.5) == pytest.approx(2.0 * 1.5 * np.exp(-0.5), rel=1e-12)

    def test_spectral_density_validation(self):
        with pytest.raises(ValueError):
            SpectralDensity(alpha=-1.0, s=1.0, omega_c=1.0)


class TestProjectiveMeasurement:
    def test_rejects_incomplete_set(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidOperatorError):
            ProjectiveMeasurement((p0,), (0,))

    def test_rejects_non_orthogonal(self):
        p = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(InvalidOperatorError):
            ProjectiveMeasurement((p, p), (0, 1))

    def test_rejects_non_idempotent(self):
        m = 0.5 * np.eye(2, dtype=complex)
        with pytest.raises(InvalidOperatorError):
            ProjectiveMeasurement((m, m), (0, 1))

    @pytest.mark.parametrize("diags, message", [
        ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], "not orthogonal"),
        ([[1.0, 0.5], [0.0, 0.5]], "not idempotent"),
        ([[1.0, 1j], [0.0, 1.0 - 1j]], "not Hermitian"),
    ], ids=["overlap", "half-entry", "imaginary-entry"])
    def test_diagonal_sets_keep_every_check(self, diags, message):
        projs = tuple(np.diag(np.array(d, dtype=complex)) for d in diags)
        with pytest.raises(InvalidOperatorError, match=message):
            ProjectiveMeasurement(projs, tuple(range(len(projs))))

    def test_rejects_mixed_sizes(self):
        with pytest.raises(InvalidOperatorError, match="one size"):
            ProjectiveMeasurement((np.eye(2), np.zeros((3, 3))), (0, 1))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            fock = fock_measurement(2)
            ProjectiveMeasurement(fock.projectors, (0, 1))


class TestModelBuilders:
    def test_coupled_oscillators_conserve_total_number(self):
        model = build_coupled_oscillators(1.2, 1.0, 0.2, 5)
        d = 6
        n_tot = np.kron(number_op(5), np.eye(d)) + np.kron(np.eye(d), number_op(5))
        h = model.hamiltonian.toarray()
        assert np.abs(h @ n_tot - n_tot @ h).max() < 1e-12

    def test_hamiltonian_split_adds_up(self):
        omega_a, omega_0, g, n_max = 1.3, 1.0, 0.1, 3
        model = build_coupled_oscillators(omega_a, omega_0, g, n_max)
        eye = np.eye(n_max + 1)
        h_s = np.kron(model.h_s_local, eye)
        h_b = np.kron(eye, model.h_b_local)
        a = destroy(n_max)
        h_i = g * (np.kron(a.T, a) + np.kron(a, a.T))
        assert np.allclose(model.h_s_local, omega_a * number_op(n_max), atol=1e-14)
        assert np.allclose(model.h_b_local, omega_0 * number_op(n_max), atol=1e-14)
        assert np.allclose(model.hamiltonian.toarray() - h_s - h_b, h_i, atol=1e-14)

    def test_dephasing_interaction_commutes_with_sigma_z(self):
        model = build_dephasing_model([BathMode(1.0, 0.1), BathMode(1.5, 0.2)], 3)
        sz = np.kron(SIGMA_Z, np.eye(model.bath_dim))
        h = model.hamiltonian.toarray()
        assert np.abs(h @ sz - sz @ h).max() < 1e-12

    def test_dephasing_per_mode_cutoffs(self):
        model = build_dephasing_model([BathMode(1.0, 0.1), BathMode(2.0, 0.1)], [2, 4])
        assert model.space.factor_dims == (2, 3, 5)

    def test_spin_boson_transverse_does_not_commute(self):
        model = build_spin_boson_model(1.0, [BathMode(1.0, 0.2)], 3,
                                       coupling_axis="x")
        hs = np.kron(model.h_s_local, np.eye(model.bath_dim))
        h = model.hamiltonian.toarray()
        assert np.abs(hs @ h - h @ hs).max() > 1e-3

    def test_spin_boson_rejects_unknown_axis(self):
        with pytest.raises(KeyError):
            build_spin_boson_model(1.0, [BathMode(1.0, 0.1)], 2, coupling_axis="y")

    @pytest.mark.parametrize("build", [
        lambda: build_coupled_oscillators(1.2, 1.0, 0.2, 4),
        lambda: build_dephasing_model([BathMode(1.0, 0.1), BathMode(1.5, 0.2)], [2, 3]),
        lambda: build_spin_boson_model(1.0, [BathMode(0.9, 0.1), BathMode(1.4, 0.1)], 3,
                                       coupling_axis="xz"),
    ], ids=["exchange", "dephasing", "spin-boson"])
    def test_real_float64_hamiltonian_and_cached_spectra(self, build):
        model = build()
        h = model.hamiltonian
        assert sparse.issparse(h) and h.format == "csr" and h.dtype == np.float64
        assert not any(a.flags.writeable for a in (h.data, h.indices, h.indptr))
        parts = (model.h_s_local, model.h_b_local)
        assert all(m.dtype == np.float64 and not m.flags.writeable for m in parts)
        assert model.spectrum is model.spectrum
        dense = h.toarray()
        rebuilt = np.zeros_like(dense)
        for index, w, v in model.spectrum:
            assert v.dtype == np.float64 and not v.flags.writeable
            rebuilt[np.ix_(index, index)] = (v * w) @ v.T
        covered = np.sort(np.concatenate([index for index, _, _ in model.spectrum]))
        assert np.array_equal(covered, np.arange(model.space.total_dim))
        assert np.allclose(rebuilt, dense, atol=1e-12)
        wb, vb = model.bath_spectrum
        assert model.bath_spectrum is model.bath_spectrum
        assert np.allclose((vb * wb) @ vb.T, model.h_b_local, atol=1e-12)

    def test_builders_reject_empty_modes(self):
        with pytest.raises(ValueError):
            build_dephasing_model([], 3)


class TestDiscretization:
    def test_coupling_sum_converges_to_integral(self):
        j = SpectralDensity(alpha=0.8, s=1.0, omega_c=1.0)
        modes = discretize_spectral_density(j, 400, 10.0)
        total = sum(m.g**2 for m in modes)
        exact = quad(j, 0.0, 10.0)[0]
        assert total == pytest.approx(exact, rel=1e-4)

    def test_midpoint_grid(self):
        j = SpectralDensity(alpha=1.0, s=1.0, omega_c=1.0)
        modes = discretize_spectral_density(j, 4, 2.0)
        assert [m.omega for m in modes] == pytest.approx([0.25, 0.75, 1.25, 1.75])


class TestMeasurements:
    def test_fock_measurement_complete(self):
        meas = fock_measurement(4)
        assert sum(meas.projectors).trace().real == pytest.approx(5.0)
        assert meas.labels == (0, 1, 2, 3, 4)

    def test_pauli_x_projects_onto_coherences(self):
        meas = pauli_x_measurement()
        plus = meas.projectors[meas.labels.index(1)]
        assert plus[0, 1].real == pytest.approx(0.5)

    def test_eigenbasis_measurement_clusters_degeneracy(self):
        op = np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0]).astype(complex)
        meas = eigenbasis_measurement(op, degeneracy_tol=1e-9)
        assert len(meas.projectors) == 3
        ranks = sorted(int(round(p.trace().real)) for p in meas.projectors)
        assert ranks == [1, 1, 2]

    def test_eigenbasis_measurement_diagonalizes(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        m = (m + m.T).astype(complex)
        meas = eigenbasis_measurement(m, degeneracy_tol=1e-10)
        rebuilt = sum(lab * p for lab, p in zip(meas.labels, meas.projectors))
        assert np.allclose(rebuilt, m, atol=1e-10)
