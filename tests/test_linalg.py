"""Spaces, the cache rule, the Hermitian eigendecomposition and truncation
levels, plus the full-space helpers (Hermitian function calculus, embedding,
partial trace, thermal states) that live in the tests' dense reference route."""

import math
import threading

import numpy as np
import pytest

from thermoq.linalg import (
    HilbertSpace,
    InvalidOperatorError,
    cached,
    gibbs_rows,
    gibbs_weights,
    hermitian_eig,
    truncation_level,
)

from dense_reference import (
    DomainError,
    embed_factor,
    hermitian_func,
    partial_trace_matrix,
    thermal_state,
)

RNG = np.random.default_rng(11)


def random_hermitian(d):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def random_density(d):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    m = m @ m.conj().T
    return m / np.trace(m)


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        assert HilbertSpace((2, 3, 4)).total_dim == 24

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            HilbertSpace((2, 0))
        with pytest.raises(ValueError):
            HilbertSpace(())


class TestCached:
    def test_threads_that_both_miss_return_the_first_stored(self):
        # each compute waits until both threads have missed the key, so both
        # compute and both try to store: a cache that overwrites on a miss
        # (cache[key] = compute()) hands the threads two different objects
        cache, both_missed, read = {}, threading.Barrier(2), [None, None]

        def compute():
            both_missed.wait(timeout=10)
            return object()

        def reader(i):
            read[i] = cached(cache, "key", compute)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert read[0] is read[1] is cache["key"]


class TestOperatorTypes:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidOperatorError, match="not Hermitian"):
            hermitian_eig(RNG.normal(size=(3, 3)) + 1j * np.eye(3))

    def test_rejects_wrong_shape(self):
        for shape in [(2, 3), (3,), (2, 2, 2)]:
            with pytest.raises(InvalidOperatorError, match="square"):
                hermitian_eig(np.zeros(shape))


class TestHermitianFunctions:
    def test_eig_reconstructs(self):
        m = random_hermitian(6)
        w, v = hermitian_eig(m)
        assert np.allclose((v * w) @ v.conj().T, m, atol=1e-12)

    def test_exp_matches_diagonal(self):
        m = np.diag([0.0, 1.0, -2.0]).astype(complex)
        out = hermitian_func(m, np.exp)
        assert np.allclose(out, np.diag(np.exp([0.0, 1.0, -2.0])), atol=1e-14)

    def test_log_of_exp_roundtrip(self):
        m = random_hermitian(5)
        assert np.allclose(hermitian_func(hermitian_func(m, np.exp), np.log), m,
                           atol=1e-10)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
    def test_domain_error_on_log_of_singular(self):
        with pytest.raises(DomainError):
            hermitian_func(np.diag([1.0, 0.0]).astype(complex), np.log)


class TestTensorOps:
    def test_embed_factor_matches_kron(self):
        sp = HilbertSpace((2, 3, 2))
        local = random_hermitian(3)
        expected = np.kron(np.kron(np.eye(2), local), np.eye(2))
        assert np.allclose(embed_factor(local, sp, 1), expected)

    def test_embed_factor_rejects_bad_shape(self):
        with pytest.raises(InvalidOperatorError):
            embed_factor(np.eye(2), HilbertSpace((2, 3)), 1)

    def test_embedded_factors_commute(self):
        sp = HilbertSpace((2, 3))
        a = embed_factor(random_hermitian(2), sp, 0)
        b = embed_factor(random_hermitian(3), sp, 1)
        assert np.allclose(a @ b, b @ a, atol=1e-12)


class TestPartialTrace:
    def test_product_state_factors(self):
        rho_a, rho_b = random_density(2), random_density(3)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace_matrix(rho, (2, 3), [0]), rho_a, atol=1e-12)
        assert np.allclose(partial_trace_matrix(rho, (2, 3), [1]), rho_b, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace_matrix(rho, (2, 2), [0]), 0.5 * np.eye(2),
                           atol=1e-12)

    def test_three_factor_middle_kept(self):
        parts = [random_density(d) for d in (2, 3, 2)]
        full = np.kron(np.kron(parts[0], parts[1]), parts[2])
        out = partial_trace_matrix(full, (2, 3, 2), [1])
        assert np.allclose(out, parts[1], atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density(12)
        out = partial_trace_matrix(rho, (3, 4), [0])
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace_matrix(np.eye(4), (2, 2), [])


class TestThermalState:
    def test_qubit_populations(self):
        beta, omega = 1.3, 0.7
        rho = thermal_state(np.diag([0.0, omega]), beta)
        z = 1.0 + math.exp(-beta * omega)
        assert rho[0, 0].real == pytest.approx(1.0 / z, abs=1e-14)
        assert rho[1, 1].real == pytest.approx(math.exp(-beta * omega) / z, abs=1e-14)

    def test_large_beta_is_overflow_safe(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rho = thermal_state(h, 1e5)
        assert np.all(np.isfinite(rho))
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_basis_independence(self):
        m = random_hermitian(5)
        w, v = hermitian_eig(m)
        rho = thermal_state(m, 0.8)
        expected = (v * gibbs_weights(w, 0.8)) @ v.conj().T
        assert np.allclose(rho, expected, atol=1e-12)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            thermal_state(np.eye(2, dtype=complex), 0.0)


class TestGibbsRows:
    def test_one_normalized_row_per_beta(self):
        # two levels a gap 0.7 apart: the upper weight is 1 / (1 + e^{0.7 beta})
        betas = np.array([0.1, 1.0, 4.0])
        rows = gibbs_rows(np.array([2.0, 2.7]), betas)
        assert rows.shape == (3, 2)
        assert np.allclose(rows[:, 1], 1.0 / (1.0 + np.exp(0.7 * betas)), rtol=1e-14)
        assert np.allclose(rows.sum(axis=1), 1.0, rtol=1e-15)

    def test_large_beta_is_overflow_safe(self):
        rows = gibbs_rows(np.array([1e3, 1e3 + 1.0]), [1.0, 1e5])
        assert np.all(np.isfinite(rows)) and rows[1, 0] == 1.0

    def test_each_row_is_the_single_beta_formula_to_the_bit(self):
        w = np.random.default_rng(3).uniform(0, 5, 97)
        rows = gibbs_rows(w, [0.5, 1.3])
        for beta, row in zip([0.5, 1.3], rows):
            ref = np.exp(-beta * (w - w.min()))
            assert np.array_equal(row, ref / ref.sum())
            assert np.array_equal(gibbs_weights(w, beta), row)


class TestTruncationLevel:
    def test_defining_property(self):
        for beta, omega, tail in [(1.0, 1.0, 1e-10), (0.5, 1.3, 1e-8),
                                  (2.0, 0.3, 1e-12)]:
            n = truncation_level(beta, omega, tail)
            q = math.exp(-beta * omega)
            assert q ** (n + 1) < tail
            assert n == 0 or q**n >= tail

    def test_unit_case(self):
        # q = e^{-1}: discarded weight q^{n+1} first dips below 1e-10 at n = 23
        assert truncation_level(1.0, 1.0, 1e-10) == 23

    def test_monotone_in_temperature(self):
        assert truncation_level(0.5, 1.0, 1e-10) > truncation_level(2.0, 1.0, 1e-10)

    def test_rejects_bad_inputs(self):
        for beta in (0.0, math.nan):
            with pytest.raises(ValueError, match="must be positive"):
                truncation_level(beta, 1.0, 1e-10)
        with pytest.raises(ValueError):
            truncation_level(1.0, 1.0, 1.5)
