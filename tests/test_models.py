"""Model builders, bath discretization, and measurement bases."""

import decimal
import math
import re
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal
from functools import partial, reduce

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad

from thermoq import models
from thermoq.closed_form import DephParams, HEParams
from thermoq.linalg import InvalidOperatorError
from thermoq.models import (
    COMPLETENESS_ATOL,
    SIGMA_X,
    SIGMA_Z,
    BathMode,
    ModeProductModel,
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

from dense_reference import dense_hamiltonian


def _random_hermitian(d, seed):
    re, im = np.random.default_rng(seed).normal(size=(2, d, d))
    return (re + re.T) + 1j * (im - im.T)


def _assert_canonical_blocks(model):
    """H's held sector blocks are read-only, float64 with no exact zero, each
    sector's entries strictly ascending row-major; the sectors' states partition
    the basis, and each entry joins two states of one charge."""
    d = model.space.total_dim
    labels = np.zeros(d, dtype=int) if model.charge is None else model.charge
    for index, rows, cols, values in model.sectors:
        assert not any(a.flags.writeable for a in (index, rows, cols, values))
        assert values.dtype == np.float64 and np.all(values != 0)
        n = len(index)
        assert np.all((0 <= rows) & (rows < n) & (0 <= cols) & (cols < n))
        assert np.all(np.diff(rows * n + cols) > 0)
        assert np.array_equal(labels[index[rows]], labels[index[cols]])
    covered = np.sort(np.concatenate(model.sector_indices))
    assert np.array_equal(covered, np.arange(d))


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

    # each of these was accepted once, a NaN or inf giving NaN downstream and a
    # k_modes of 2.5 building 3 modes at the spacing of 2.5
    @pytest.mark.parametrize("build, message", [
        (lambda: BathMode(math.nan, 0.1), "mode frequency must lie in"),
        (lambda: BathMode(math.inf, 0.1), "mode frequency must lie in"),
        (lambda: BathMode(1.0, math.nan), "mode coupling g is NaN"),
        (lambda: SpectralDensity(math.nan, 1.0, 1.0), "require finite alpha"),
        (lambda: SpectralDensity(1.0, math.nan, 1.0), "require finite alpha"),
        (lambda: SpectralDensity(1.0, 1.0, math.inf), "require finite alpha"),
        (lambda: SpectralDensity(1.0, 1.0, 1.0).integral(math.nan), "upper limit"),
        (lambda: SpectralDensity(1.0, 1.0, 1.0).integral(-1.0), "upper limit"),
        (lambda: HEParams(math.nan, 1.0, 0.1, 1.0, 1.0), "require positive frequencies"),
        (lambda: HEParams(1.0, 1.0, 0.1, 1.0, math.nan), "require positive frequencies"),
        (lambda: HEParams(1.0, 1.0, 0.1, 1.0, math.inf), "require positive frequencies"),
        (lambda: DephParams((BathMode(1.0, 0.1),), 1.0, math.nan), "require finite t"),
        (lambda: DephParams((BathMode(1.0, 0.1), BathMode(1.0, 1e200)), 1.0, 1.0),
         "mode 1 coupling g = 1e"),
        (lambda: discretize_spectral_density(SpectralDensity(1.0, 1.0, 1.0), 2.5, 10.0),
         "k_modes 2.5 is not an integer"),
        (lambda: discretize_spectral_density(SpectralDensity(1.0, 1.0, 1.0), 10, math.nan),
         "omega_max must lie in"),
    ], ids=["mode-omega-nan", "mode-omega-inf", "mode-g-nan", "j-alpha-nan", "j-s-nan",
            "j-omega_c-inf", "j-integral-nan", "j-integral-negative", "he-omega_a-nan",
            "he-t-nan", "he-t-inf", "deph-t-nan", "deph-g-squared-overflow", "k_modes-fraction",
            "omega_max-nan"])
    def test_public_constructors_reject_a_value_out_of_range(self, build, message):
        with pytest.raises(ValueError, match=message) as info:
            build()
        assert type(info.value) is ValueError


def _lower_gamma_series(a, z):
    """gamma(a, z) from its power series in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, z = Decimal(a), Decimal(z)
        term = total = 1 / a
        n = a
        while term > total * Decimal("1e-45"):
            n += 1
            term *= z / n
            total += term
        return float(total * (a * z.ln() - z).exp())


def _lower_gamma_integer(n, z):
    """gamma(n+1, z) = n! (1 - e^{-z} sum_{k<=n} z^k/k!), in 60-digit decimal
    arithmetic, which keeps the difference exact to a float where it cancels."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(z)
        terms = [Decimal(1)]
        for k in range(1, n + 1):
            terms.append(terms[-1] * z / k)
        return float(math.factorial(n) * (1 - (-z).exp() * sum(terms)))


def _spectral_density_decimal(alpha, s, omega_c, omega):
    """exp(ln alpha + ln wc + s ln x - x), x = omega/wc, in 40-digit decimal
    arithmetic: in floats the rounding of s ln x alone reaches 1.9e-13 relative
    at s = 200."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(omega) / Decimal(omega_c)
        return float((Decimal(alpha).ln() + Decimal(omega_c).ln() + Decimal(s) * x.ln()
                      - x).exp())


class TestSpectralDensity:
    @pytest.mark.parametrize("alpha, omega_c", [(0.7, 5.0), (2.0, 0.3), (1.0, 1.0)])
    @pytest.mark.parametrize("s", [0.0, 1.0, 3.5, 200.0])
    def test_matches_the_logarithmic_form(self, s, alpha, omega_c):
        # x from 1e-3 to 700: at s = 200, J passes the float range between
        # x = 43 and x = 555, and the power w^s alone from x = 35 on
        omegas = omega_c * np.geomspace(1e-3, 700.0, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = SpectralDensity(alpha, s, omega_c)(omegas)
        exact = np.array([_spectral_density_decimal(alpha, s, omega_c, w) for w in omegas])
        finite = exact < np.inf
        assert np.array_equal(np.isinf(values), ~finite)
        normal = finite & (exact >= np.finfo(float).tiny)
        assert values[normal] == pytest.approx(exact[normal], rel=1e-13, abs=0)

    def test_a_value_near_the_float_maximum_is_finite(self):
        # x^200 e^{-x} at x = 43.2 is e^{709.97}, past the float range, while J at
        # alpha = 0.5 is e^{709.27}, within it
        assert _spectral_density_decimal(1.0, 200.0, 1.0, 43.2) == math.inf
        assert SpectralDensity(0.5, 200.0, 1.0)(43.2) == pytest.approx(
            _spectral_density_decimal(0.5, 200.0, 1.0, 43.2), rel=1e-13)

    def test_large_s_at_the_last_mode(self):
        # the last midpoint mode of 50 up to omega_max = 2000 at s = 200, wc = 1,
        # where J = e^{-462}: the power 1980^200 alone overflows, and times
        # e^{-1980} = 0 it read NaN
        assert SpectralDensity(1.0, 200.0, 1.0)(1980.0) == pytest.approx(
            _spectral_density_decimal(1.0, 200.0, 1.0, 1980.0), rel=1e-13)


class TestSpectralDensityIntegral:
    BETAS = np.logspace(np.log10(0.05), np.log10(50.0), 25)

    @pytest.mark.parametrize("omega_c", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0, 3.0])
    def test_matches_quad(self, s, omega_c):
        # the upper limits of the scaling-he sweeps, omega_0 = 1/beta
        j = SpectralDensity(0.7, s, omega_c)
        closed = [j.integral(1.0 / beta) for beta in self.BETAS]
        assert closed == pytest.approx([quad(j, 0.0, 1.0 / beta)[0] for beta in self.BETAS],
                                       rel=1e-13, abs=0)

    @pytest.mark.parametrize("omega_c", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_fractional_s_matches_the_series_in_extended_precision(self, s, omega_c):
        # J' is singular at 0 here: on this grid quad is off by up to 3.4e-12
        # (s = 0.25) and 2.2e-11 (s = 0.5) relative, against mpmath at 40 digits,
        # while the closed form is within 7.1e-16 of the 50-digit series
        j = SpectralDensity(0.7, s, omega_c)
        closed = [j.integral(1.0 / beta) for beta in self.BETAS]
        series = [0.7 * omega_c**2 * _lower_gamma_series(s + 1.0, 1.0 / (beta * omega_c))
                  for beta in self.BETAS]
        assert closed == pytest.approx(series, rel=1e-14, abs=0)
        assert closed == pytest.approx([quad(j, 0.0, 1.0 / beta)[0] for beta in self.BETAS],
                                       rel=5e-11, abs=0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_integer_s_matches_the_finite_sum(self, n):
        # z from 1e-6 to 1e5: both sides of the series / continued-fraction split at
        # z = n + 2, past z = 745, where z^a e^{-z} underflows and the series alone
        # would read 0, and past z = 1.8e4, where quad misses the integral by a
        # factor near 1
        zs = [10.0 ** (e / 4) for e in range(-24, 21)] + [n + 2.0, 746.0, 5e3, 5e4]
        j = SpectralDensity(1.0, float(n), 1.0)
        assert [j.integral(z) for z in zs] == pytest.approx(
            [_lower_gamma_integer(n, z) for z in zs], rel=1e-14, abs=0)

    def test_limits_of_the_range(self):
        j = SpectralDensity(0.5, 2.0, 3.0)
        assert j.integral(0.0) == 0.0
        assert j.integral(math.inf) == pytest.approx(0.5 * 3.0**2 * math.gamma(3.0), rel=1e-15)
        # the integral to 1000 is about 200! ~ 7.9e374: inf, not an OverflowError,
        # while an alpha small enough brings the same gamma function back in range
        assert SpectralDensity(1.0, 200.0, 1.0).integral(1000.0) == math.inf
        assert SpectralDensity(1e-300, 160.0, 1.0).integral(1e9) == pytest.approx(
            1e-300 * math.gamma(161.0), rel=1e-13)
        # gamma(501, 0.2) ~ 0.2^501 / 501 underflows to 0
        assert SpectralDensity(1.0, 500.0, 1.0).integral(0.2) == 0.0


class TestProjectiveMeasurement:
    def test_rejects_non_square_basis(self):
        with pytest.raises(InvalidOperatorError, match="square"):
            ProjectiveMeasurement(np.eye(3)[:, :2], (0, 1), (0, 1))

    def test_rejects_incomplete_set(self):
        # rank-deficient: the projectors would not sum to the identity
        with pytest.raises(InvalidOperatorError, match="orthonormal"):
            ProjectiveMeasurement(np.diag([1.0, 0.0]), (0, 1), (0, 1))

    def test_rejects_non_orthogonal(self):
        overlap = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2)])
        with pytest.raises(InvalidOperatorError, match="orthonormal"):
            ProjectiveMeasurement(overlap, (0, 1), (0, 1))

    def test_rejects_non_idempotent(self):
        # an unnormalised column: |e><e| with <e|e> = 1.21 is not a projector
        with pytest.raises(InvalidOperatorError, match="orthonormal"):
            ProjectiveMeasurement(np.diag([1.0, 1.1]), (0, 1), (0, 1))

    def test_label_count_must_match(self):
        fock = fock_measurement(2)
        with pytest.raises(ValueError, match="labels"):
            ProjectiveMeasurement(fock.basis, np.arange(3), (0, 1))

    @pytest.mark.parametrize("labels, repeated", [((5, 5, 7), "5"), ((1, 2, 1.0), "1.0")],
                             ids=["equal", "equal-value"])
    def test_rejects_repeated_labels(self, labels, repeated):
        # every route reports its outcomes by label, so two outcomes of one
        # label would be told apart by some routes and merged by others
        with pytest.raises(ValueError,
                           match=f"outcome labels must be distinct: {repeated} repeats"):
            ProjectiveMeasurement(np.eye(3), [0, 1, 2], labels)

    @pytest.mark.parametrize("outcome", [(0, 1, -1), (0, 1, 3)], ids=["negative", "past-end"])
    def test_outcome_index_out_of_range(self, outcome):
        with pytest.raises(ValueError, match="labels"):
            ProjectiveMeasurement(np.eye(3), outcome, (0, 1, 2))

    @pytest.mark.parametrize("outcome", [(0, 1), (0, 1, 2, 2), (0.0, 1.0, 2.0)],
                             ids=["too-few", "too-many", "not-integer"])
    def test_one_integer_outcome_per_column(self, outcome):
        with pytest.raises(ValueError, match="one integer outcome per basis column"):
            ProjectiveMeasurement(np.eye(3), outcome, (0, 1, 2))

    @pytest.mark.parametrize("meas", [
        fock_measurement(5),
        pauli_x_measurement(),
        eigenbasis_measurement(np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0]), degeneracy_tol=1e-9),
    ], ids=["fock", "pauli-x", "degenerate-eigenbasis"])
    def test_derived_projectors_form_a_complete_orthogonal_set(self, meas):
        projs = meas.projectors
        eye = np.eye(meas.system_dim)
        assert projs.shape == (len(meas.labels), *eye.shape)
        assert np.abs(projs - projs.conj().transpose(0, 2, 1)).max() <= COMPLETENESS_ATOL
        products = np.einsum("aij,bjk->abik", projs, projs)
        expected = np.einsum("ab,aik->abik", np.eye(len(projs)), projs)
        assert np.abs(products - expected).max() <= COMPLETENESS_ATOL
        assert np.abs(projs.sum(axis=0) - eye).max() <= COMPLETENESS_ATOL

    def test_fock_projectors_are_exact(self):
        meas = fock_measurement(5)
        for proj, row in zip(meas.projectors, np.eye(6)):
            assert np.array_equal(proj, np.diag(row))

    def test_stored_arrays_are_read_only_copies(self):
        basis = np.eye(2)
        meas = ProjectiveMeasurement(basis, np.arange(2), (0, 1))
        assert basis.flags.writeable
        for array in (meas.basis, meas.readout, meas.projectors):
            assert not array.flags.writeable

    @pytest.mark.parametrize("meas", [
        fock_measurement(5),
        pauli_x_measurement(),
        eigenbasis_measurement(np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0]), degeneracy_tol=1e-9),
        ProjectiveMeasurement(np.eye(4), (2, 0, 2, 1), ("a", "b", "c", "empty")),
    ], ids=["fock", "pauli-x", "degenerate-eigenbasis", "grouped-with-empty"])
    def test_readout_is_the_one_outcome_map(self, meas):
        # readout[l, m] = 1 exactly when column m belongs to outcome l: one 1 per
        # column, and the constructor keeps no outcome index beside it
        readout = meas.readout
        assert readout.dtype == np.float64
        assert readout.shape == (len(meas.labels), meas.system_dim)
        assert np.isin(readout, (0.0, 1.0)).all()
        assert np.array_equal(readout.sum(axis=0), np.ones(meas.system_dim))
        assert not hasattr(meas, "outcome")

    def test_readout_of_a_grouped_measurement(self):
        meas = ProjectiveMeasurement(np.eye(4), (2, 0, 2, 1), ("a", "b", "c", "empty"))
        assert np.array_equal(meas.readout, [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0],
                                             [0, 0, 0, 0]])
        assert np.array_equal(meas.projectors[3], np.zeros((4, 4)))

    @pytest.mark.parametrize("meas", [
        fock_measurement(5),
        pauli_x_measurement(),
        eigenbasis_measurement(_random_hermitian(6, 3), degeneracy_tol=1e-9),
        ProjectiveMeasurement(np.linalg.qr(_random_hermitian(6, 4))[0], (2, 0, 2, 1, 0, 2),
                              ("a", "b", "c", "empty")),
    ], ids=["fock", "pauli-x", "complex-eigenbasis", "grouped-with-empty"])
    def test_projectors_are_the_effects_of_the_readout(self, meas):
        # B diag(E_l) B^dag by one contraction: a 0/1 readout adds only exact
        # zeros, so an outcome of one column gets its rank-one product to the bit
        # and an empty one the zero projector
        for proj, row in zip(meas.projectors, meas.readout):
            vecs = meas.basis[:, row == 1]
            expected = vecs @ vecs.conj().T
            if row.sum() <= 1:
                assert np.array_equal(proj, expected)
            else:
                assert np.abs(proj - expected).max() <= 4 * np.finfo(float).eps

    def test_projectors_are_derived_on_first_read(self):
        # the CI hot point's 97 outcomes: the (97, 97, 97) complex stack alone
        # is 14 MB, and no branch-kernel route reads it
        tracemalloc.start()
        try:
            meas = fock_measurement(96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "projectors" not in vars(meas)
        assert meas.projectors is meas.projectors
        assert meas.projectors.shape == (97, 97, 97)


def _mode_parts(modes, cutoffs):
    """Dense sum_k omega_k n_k and sum_k g_k (b_k + b_k^dag) over the modes."""
    eyes = [np.eye(n + 1) for n in cutoffs]

    def on_mode(k, op):
        return reduce(np.kron, [op if j == k else e for j, e in enumerate(eyes)])

    terms = [(m.omega * on_mode(k, number_op(n)), m.g * on_mode(k, destroy(n) + destroy(n).T))
             for k, (m, n) in enumerate(zip(modes, cutoffs))]
    return sum(h for h, _ in terms), sum(x for _, x in terms)


def _exchange_parts():
    omega_a, omega_0, g, n_max = 1.3, 1.0, 0.1, 3
    a = destroy(n_max)
    return (build_coupled_oscillators(omega_a, omega_0, g, n_max), omega_a * number_op(n_max),
            omega_0 * number_op(n_max), g * (np.kron(a.T, a) + np.kron(a, a.T)))


def _qubit_parts(omega_q, pauli, build, modes=(BathMode(1.0, 0.1), BathMode(1.5, 0.2)),
                 cutoffs=(2, 3)):
    """(model, H_S, H_B, H_I) of a qubit on the modes, the parts built by hand."""
    h_b, coupling = _mode_parts(modes, cutoffs)
    return (build(list(modes), list(cutoffs)), np.diag([0.0, omega_q]), h_b,
            np.kron(pauli, coupling))


class TestModelBuilders:
    def test_coupled_oscillators_conserve_total_number(self):
        model = build_coupled_oscillators(1.2, 1.0, 0.2, 5)
        d = 6
        n_tot = np.kron(number_op(5), np.eye(d)) + np.kron(np.eye(d), number_op(5))
        h = dense_hamiltonian(model)
        assert np.abs(h @ n_tot - n_tot @ h).max() < 1e-12

    @pytest.mark.parametrize("parts", [
        _exchange_parts,
        partial(_qubit_parts, 0.0, SIGMA_Z, partial(build_spin_boson_model, 0.0,
                                                     coupling_axis="z")),
        partial(_qubit_parts, 1.0, (SIGMA_X + SIGMA_Z) / np.sqrt(2),
                partial(build_spin_boson_model, 1.0, coupling_axis="xz")),
        partial(_qubit_parts, 1.0, SIGMA_X, partial(build_spin_boson_model, 1.0,
                                                     coupling_axis="x")),
        partial(_qubit_parts, 0.8, SIGMA_Z,
                partial(build_spin_boson_model, 0.8, coupling_axis="z"),
                modes=(BathMode(1.0, 0.1), BathMode(1.5, 0.2), BathMode(0.7, 0.15)),
                cutoffs=(3, 1, 2)),
    ], ids=["exchange", "dephasing", "spin-boson", "spin-boson-x", "three-mode"])
    def test_hamiltonian_split_adds_up(self, parts):
        # H_B is diagonal in the Fock product basis: the model's energies are
        # its diagonal, and H_S (x) 1 + 1 (x) diag(E_B) + H_I rebuilds H
        model, h_s, h_b, h_i = parts()
        d_s, d_b = len(h_s), len(h_b)
        assert np.allclose(model.h_s_local, h_s, atol=1e-14)
        assert np.allclose(np.diag(model.bath_energies), h_b, atol=1e-14)
        rebuilt = (np.kron(model.h_s_local, np.eye(d_b))
                   + np.kron(np.eye(d_s), np.diag(model.bath_energies)) + h_i)
        assert np.allclose(dense_hamiltonian(model), rebuilt, atol=1e-14)

    def test_dephasing_interaction_commutes_with_sigma_z(self):
        model = build_spin_boson_model(0.0, [BathMode(1.0, 0.1), BathMode(1.5, 0.2)], 3,
                                       coupling_axis="z")
        sz = np.kron(SIGMA_Z, np.eye(model.bath_dim))
        h = dense_hamiltonian(model)
        assert np.abs(h @ sz - sz @ h).max() < 1e-12

    def test_dephasing_per_mode_cutoffs(self):
        model = build_dephasing_model([BathMode(1.0, 0.1), BathMode(2.0, 0.1)], [2, 4])
        assert model.space.factor_dims == (2, 3, 5)

    def test_spin_boson_transverse_does_not_commute(self):
        model = build_spin_boson_model(1.0, [BathMode(1.0, 0.2)], 3,
                                       coupling_axis="x")
        hs = np.kron(model.h_s_local, np.eye(model.bath_dim))
        h = dense_hamiltonian(model)
        assert np.abs(hs @ h - h @ hs).max() > 1e-3

    @pytest.mark.parametrize("axis", ["y", "X", None])
    def test_spin_boson_rejects_unknown_axis(self, axis):
        with pytest.raises(ValueError, match=f"coupling_axis must be 'x', 'z' or 'xz', "
                                             f"got {re.escape(repr(axis))}"):
            build_spin_boson_model(1.0, [BathMode(1.0, 0.1)], 2, coupling_axis=axis)

    @pytest.mark.parametrize("build", [
        lambda: build_coupled_oscillators(1.2, 1.0, 0.2, 4),
        lambda: build_spin_boson_model(0.0, [BathMode(1.0, 0.1), BathMode(1.5, 0.2)], [2, 3],
                                       coupling_axis="z"),
        lambda: build_spin_boson_model(1.0, [BathMode(0.9, 0.1), BathMode(1.4, 0.1)], 3,
                                       coupling_axis="xz"),
    ], ids=["exchange", "dephasing", "spin-boson"])
    def test_real_float64_hamiltonian_and_cached_spectra(self, build):
        model = build()
        _assert_canonical_blocks(model)
        parts = (model.h_s_local, model.bath_energies)
        assert all(m.dtype == np.float64 and not m.flags.writeable for m in parts)
        assert model.bath_energies.shape == (model.bath_dim,)
        assert model.spectrum is model.spectrum
        dense = dense_hamiltonian(model)
        rebuilt = np.zeros_like(dense)
        for index, w, v in model.spectrum:
            assert v.dtype == np.float64 and not v.flags.writeable
            rebuilt[np.ix_(index, index)] = (v * w) @ v.T
        covered = np.sort(np.concatenate([index for index, _, _ in model.spectrum]))
        assert np.array_equal(covered, np.arange(model.space.total_dim))
        assert np.allclose(rebuilt, dense, atol=1e-12)

    def test_threads_sharing_a_model_store_each_sector_once(self):
        # eight threads diagonalize one model's sectors, half of them backwards,
        # switching every microsecond: every thread gets the one stored tuple of
        # each sector, and the model counts each sector once
        model = build_coupled_oscillators(1.2, 1.0, 0.2, 12)
        sectors = range(len(model.sector_indices))
        seen = [{} for _ in range(8)]

        def diagonalize(out, order):
            for b in order:
                out[b] = model.sector_eigenpairs(b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=diagonalize,
                                        args=(out, sectors[::1 if n % 2 else -1]))
                       for n, out in enumerate(seen)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for b in sectors:
            assert all(out[b] is seen[0][b] for out in seen)
        assert model.sectors_diagonalized == len(sectors) and model.eigh_s > 0
        assert all(pairs is seen[0][b] for b, pairs in enumerate(model.spectrum))

    @pytest.mark.parametrize("build", [
        lambda: build_coupled_oscillators(1.2, 1.0, 0.2, 4),
        lambda: build_spin_boson_model(0.0, [BathMode(1.0, 0.1), BathMode(1.5, 0.2)], [2, 3],
                                       coupling_axis="z"),
        lambda: build_spin_boson_model(1.0, [BathMode(0.9, 0.1)], 3, coupling_axis="x"),
        lambda: build_spin_boson_model(1.0, [BathMode(0.9, 0.1)], 3, coupling_axis="z"),
        lambda: build_spin_boson_model(1.0, [BathMode(0.9, 0.1), BathMode(1.4, 0.1)], 3,
                                       coupling_axis="xz"),
    ], ids=["exchange", "dephasing", "spin-boson-x", "spin-boson-z", "spin-boson-xz"])
    def test_sector_blocks_equal_scipy_csr_array_of_the_same_entries(self, build, monkeypatch):
        # the numpy assembly stores, bit for bit, what one csr_array constructor
        # with sum_duplicates and eliminate_zeros stores, once the blocks' entries
        # are mapped to their global positions
        calls = []
        compose = models._compose
        monkeypatch.setattr(models, "_compose",
                            lambda *args, **kwargs: calls.append(args) or compose(*args, **kwargs))
        model = build()
        (space, h_s_local, bath_energies, h_i, *_), = calls
        d = space.total_dim
        diagonal = np.arange(d)
        rows, cols, values = models._concat_entries(
            (diagonal, diagonal, np.tile(bath_energies, len(h_s_local))),
            models._kron_entries((len(h_s_local), len(bath_energies)), (h_s_local, None)), h_i)
        ref = sparse.csr_array((values, (rows.astype(np.int32), cols.astype(np.int32))),
                               shape=(d, d))
        ref.sum_duplicates()
        ref.eliminate_zeros()
        ref = ref.tocoo()  # the same entries, in the same order
        held_rows, held_cols, held_values = (
            np.concatenate(parts) for parts in zip(*((index[r], index[c], v)
                                                     for index, r, c, v in model.sectors)))
        order = np.lexsort((held_cols, held_rows))
        assert np.array_equal(held_rows[order], ref.row)
        assert np.array_equal(held_cols[order], ref.col)
        assert held_values.dtype == ref.data.dtype
        assert held_values[order].tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("axis", ["x", "z", "xz"])
    def test_block_times_v_equals_the_csr_and_the_dense_product(self, axis):
        # cutoffs 13: blocks of 196 ('x', 'z') and 392 ('xz') states, each product
        # over several blocks of rows, and diagonals with rows that store nothing
        model = build_spin_boson_model(1.0, [BathMode(0.9, 0.1), BathMode(1.4, 0.15)], 13,
                                       coupling_axis=axis)
        assert len(model.sectors) == (1 if axis == "xz" else 2)
        for (index, rows, cols, values), (_, _, v) in zip(model.sectors, model.spectrum):
            n = len(index)
            hv = models._block_times(rows, cols, values, v)
            csr = sparse.csr_array((values, (rows, cols)), shape=(n, n)) @ v
            dense = np.zeros((n, n))
            dense[rows, cols] = values
            dense = dense @ v
            assert np.abs(hv - csr).max() <= 1e-14 * np.abs(csr).max()
            assert np.abs(hv - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_builders_reject_empty_modes(self):
        with pytest.raises(ValueError):
            build_dephasing_model([], 3)

    @pytest.mark.parametrize("cutoff", [3.7, True, "3"])
    @pytest.mark.parametrize("build", [
        partial(build_coupled_oscillators, 1.0, 1.0, 0.1),
        partial(build_dephasing_model, [BathMode(1.0, 0.1)]),
        lambda n: build_spin_boson_model(1.0, [BathMode(1.0, 0.1)], n, coupling_axis="xz"),
    ], ids=["exchange", "dephasing", "spin-boson"])
    def test_builders_reject_a_cutoff_that_is_not_an_integer(self, build, cutoff):
        # int() once truncated 3.7 to 3 and read "3" as 3, and True built n_max = 1
        with pytest.raises(ValueError, match=re.escape(f"cutoff {cutoff!r} is not an integer")):
            build(cutoff)


class TestDeclaredDephasingModel:
    MODES = [BathMode(1.0, 0.1), BathMode(1.5, 0.2), BathMode(0.7, 0.15), BathMode(2.0, 0.1)]

    def test_builds_no_sparse_matrix_and_no_sample_space_array(self):
        # that no module of thermoq imports scipy is checked in test_imports.py
        model = build_dephasing_model(self.MODES, 2)
        assert isinstance(model, ModeProductModel) and model.bath_dim == 81
        assert not hasattr(model, "sectors")
        # one group of cutoff 2: the four modes' eigenpairs stacked per probe level
        (modes, energies, values, vectors), = model.groups
        assert modes.tolist() == [0, 1, 2, 3]
        assert (energies.shape, values.shape, vectors.shape) == ((4, 3), (2, 4, 3), (2, 4, 3, 3))
        assert not any(a.flags.writeable for a in model.groups[0])
        assert model.space.factor_dims == (2, 3, 3, 3, 3) and model.system_dim == 2

    def test_holds_the_declared_factors_eigenpairs(self):
        # cutoffs out of ascending order: the groups follow the cutoff, each its
        # modes' positions in mode order
        modes, cutoffs = self.MODES[:3], [4, 3, 4]
        model = build_dephasing_model(modes, cutoffs)
        assert [group[0].tolist() for group in model.groups] == [[1], [0, 2]]
        assert model.space.factor_dims == (2, 5, 4, 5)
        for positions, energies, values, vectors in model.groups:
            for g, k in enumerate(positions):
                mode, n = modes[k], cutoffs[k]
                assert np.array_equal(energies[g], mode.omega * np.arange(n + 1))
                for lam, v, s in zip(values[:, g], vectors[:, g], (1, -1)):
                    factor = mode.omega * number_op(n) + s * mode.g * (destroy(n) + destroy(n).T)
                    assert np.abs((v * lam) @ v.T - factor).max() <= 1e-14

    @staticmethod
    def _malformed(group, defect):
        """One group of a two-group model, changed by ``defect``."""
        modes, energies, values, vectors = group
        return {
            "level-missing-a-mode": (modes, energies, values[:, :0], vectors[:, :0]),
            "energies-of-another-dimension": (modes, energies[:, :-1], values, vectors),
            "eigenvectors-of-the-wrong-shape": (modes, energies, values, vectors[..., :-1]),
            "eigenvectors-not-orthonormal": (modes, energies, values, 1.001 * vectors),
            "eigenvectors-complex": (modes, energies, values, 1j * vectors),
            "one-probe-level-only": (modes, energies, values[:1], vectors[:1]),
        }[defect]

    @pytest.mark.parametrize("defect, message", [
        pytest.param("level-missing-a-mode", "one eigenpair per mode",
                     id="level-missing-a-mode"),
        pytest.param("energies-of-another-dimension", "one eigenpair per mode",
                     id="energies-of-another-dimension"),
        pytest.param("eigenvectors-of-the-wrong-shape",
                     r"eigenvectors of shape \(2, 1, 5, 4\), not",
                     id="eigenvectors-of-the-wrong-shape"),
        pytest.param("eigenvectors-not-orthonormal",
                     r"not orthonormal: max \|V\^T V - 1\| = 2\.0",
                     id="eigenvectors-not-orthonormal"),
        pytest.param("eigenvectors-complex", "eigenvectors must be real",
                     id="eigenvectors-complex"),
        pytest.param("one-probe-level-only", "the same number of probe levels",
                     id="one-probe-level-only"),
    ])
    def test_rejects_levels_that_do_not_match_the_modes(self, defect, message):
        # a V of the wrong shape once failed in the engine's propagators with a bare
        # broadcast error, and a non-orthonormal V only as a ProbabilityRangeError
        model = build_dephasing_model(self.MODES[:2], [3, 4])
        with pytest.raises(ValueError, match=message) as info:
            ModeProductModel([model.groups[0], self._malformed(model.groups[1], defect)])
        assert type(info.value) is ValueError

    def test_rejects_a_mode_in_no_group_or_in_two(self):
        model = build_dephasing_model(self.MODES[:2], [3, 4])
        with pytest.raises(ValueError, match="exactly one group"):
            ModeProductModel(model.groups[1:])  # mode 1 alone: no mode 0
        with pytest.raises(ValueError, match="exactly one group"):
            ModeProductModel([model.groups[0], model.groups[0]])


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
