"""Heat decomposition of the Fisher score: identities on small models."""

import math

import numpy as np
import pytest

from thermoq.engine import HeatEngine, ProbabilityRangeError, precision_bound
from thermoq.models import (
    BathMode,
    build_coupled_oscillators,
    build_dephasing_model,
    eigenbasis_measurement,
    fock_measurement,
    pauli_x_measurement,
)

from dense_reference import (
    dense_fisher_fd,
    dense_heat_decomposition,
    dense_score_direct_all,
    initial_state,
    thermal_state,
)


@pytest.fixture(scope="module")
def he_setup():
    n_max = 14
    model = build_coupled_oscillators(1.1, 1.0, 0.15, n_max)
    rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho0[0, 0] = 1.0
    return HeatEngine(model), rho0, fock_measurement(n_max), 1.2, 2.5


@pytest.fixture(scope="module")
def deph_setup():
    model = build_dephasing_model([BathMode(1.0, 0.1), BathMode(1.6, 0.15)], 9)
    plus = np.full((2, 2), 0.5, dtype=complex)
    return HeatEngine(model), plus, pauli_x_measurement(), 1.0, 1.7


class TestStatesAndEvolution:
    def test_propagator_is_unitary(self, he_setup):
        eng = he_setup[0]
        u = eng.propagator(0.8)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    def test_evolution_preserves_trace_and_energy(self, he_setup):
        eng, rho0, _, beta, t = he_setup
        chi0 = initial_state(eng.model, rho0, beta)
        u = eng.propagator(t)
        chi_t = u @ chi0 @ u.conj().T
        assert np.trace(chi_t).real == pytest.approx(1.0, abs=1e-12)
        h = eng.model.hamiltonian.toarray()
        assert np.trace(h @ chi_t).real == pytest.approx(np.trace(h @ chi0).real,
                                                         abs=1e-10)


class TestProbabilities:
    def test_sum_to_one(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        probs = eng.outcome_probabilities_at(rho0, beta, t, meas)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


class TestHeatDecomposition:
    def test_zero_time_heats_vanish(self, he_setup):
        eng, rho0, meas, beta, _ = he_setup
        record = eng.heat_decomposition(rho0, beta, 0.0, meas)
        assert len(record.outcomes) == 1
        o = record.outcomes[0]
        assert o.label == 0 and o.probability == pytest.approx(1.0, abs=1e-12)
        assert abs(o.h_tra) < 1e-10 and abs(o.h_cor) < 1e-10

    def test_average_heat_is_mean_trajectory_heat(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        avg = sum(o.probability * o.h_tra for o in record.outcomes)
        assert avg == pytest.approx(record.h_avg, abs=1e-10)

    def test_scores_have_zero_mean(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        assert sum(o.probability * o.score for o in record.outcomes) == \
            pytest.approx(0.0, abs=1e-10)

    def test_score_identity(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        direct = eng.score_direct_all(rho0, beta, t, meas)
        for o in record.outcomes:
            assert direct[o.label] == pytest.approx(o.score, abs=1e-10)

    def test_score_identity_dephasing(self, deph_setup):
        eng, plus, meas, beta, t = deph_setup
        record = eng.heat_decomposition(plus, beta, t, meas)
        direct = eng.score_direct_all(plus, beta, t, meas)
        for o in record.outcomes:
            assert direct[o.label] == pytest.approx(o.score, abs=1e-10)

    def test_suppressed_outcome_is_omitted(self, he_setup):
        eng, rho0, meas, beta, _ = he_setup
        # at t = 0 the probe is still in its ground state; l = 7 cannot occur
        scores = eng.score_direct_all(rho0, beta, 0.0, meas)
        assert 7 not in scores and list(scores) == [0]


class TestTwoPointRoute:
    def test_matches_projected_energy_route(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        heats = eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
        for o in record.outcomes:
            assert heats[o.label] == pytest.approx(o.h_tra, abs=1e-9)

    def test_matches_on_dephasing_model(self, deph_setup):
        eng, plus, meas, beta, t = deph_setup
        record = eng.heat_decomposition(plus, beta, t, meas)
        heats = eng.two_point_trajectory_heat_all(plus, beta, t, meas)
        for o in record.outcomes:
            assert heats[o.label] == pytest.approx(o.h_tra, abs=1e-9)


class TestFisher:
    def test_three_way_agreement(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        fd = eng.fisher_finite_difference(rho0, beta, t, meas)
        assert fd == pytest.approx(record.fisher_heat, rel=1e-6)

    def test_fd_step_validation(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        with pytest.raises(ValueError):
            eng.fisher_finite_difference(rho0, beta, t, meas, h=beta)

    def test_decoupled_probe_has_zero_information(self):
        # g = 0: no sample energy reaches the probe, so nothing is learned
        n_max, beta = 10, 1.0
        model = build_coupled_oscillators(1.0, 1.0, 0.0, n_max)
        rho0 = thermal_state(model.h_s_local, beta)
        eng = HeatEngine(model)
        record = eng.heat_decomposition(rho0, beta, 2.0, fock_measurement(n_max))
        assert record.fisher_heat < 1e-15
        assert all(abs(o.h_tra) < 1e-10 and abs(o.h_cor) < 1e-10
                   for o in record.outcomes)


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_probe_measurement(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return eigenbasis_measurement(a + a.conj().T, 1e-8)


def _branch_cases():
    """(model, rho0, meas, beta, t, prob_floor) per case; Fisher values 4e-4..0.1,
    so finite-difference roundoff (about 1e-12 / sqrt(F) relative) stays far
    below the 1e-8 bound."""
    rng = np.random.default_rng(7)
    he = build_coupled_oscillators(1.1, 1.0, 0.15, 10)
    deph = build_dephasing_model([BathMode(1.0, 0.3), BathMode(1.6, 0.35)], 6)
    ground = np.zeros((11, 11), dtype=complex)
    ground[0, 0] = 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    return {
        "he-pure": (he, ground, fock_measurement(10), 1.2, 2.5, 1e-12),
        "he-mixed-full-rank": (he, _random_density(rng, 11), fock_measurement(10),
                               1.2, 2.5, 1e-12),
        "he-nondiagonal-measurement": (he, ground, _random_probe_measurement(rng, 11),
                                       1.2, 2.5, 1e-12),
        "he-zero-time": (he, ground, fock_measurement(10), 1.2, 0.0, 1e-12),
        # outcomes l >= 5 fall below this floor at t = 2.5
        "he-below-floor": (he, ground, fock_measurement(10), 1.2, 2.5, 1e-6),
        "deph-pure": (deph, plus, pauli_x_measurement(), 1.0, 1.7, 1e-12),
        "deph-mixed-nondiagonal": (deph, _random_density(rng, 2),
                                   _random_probe_measurement(rng, 2), 1.0, 1.7, 1e-12),
    }


BRANCH_CASES = _branch_cases()


class TestBranchKernel:
    """The engine's branch kernel against the dense embedded-projector route."""

    @pytest.fixture(params=sorted(BRANCH_CASES), scope="class")
    def case(self, request):
        model, rho0, meas, beta, t, floor = BRANCH_CASES[request.param]
        eng = HeatEngine(model, prob_floor=floor)
        return eng, (model, rho0, beta, t, meas), floor

    def test_heat_terms_match_dense(self, case):
        eng, args, floor = case
        record = eng.heat_decomposition(*args[1:])
        ref = dense_heat_decomposition(*args, prob_floor=floor)
        assert [o.label for o in record.outcomes] == [o.label for o in ref.outcomes]
        for o, r in zip(record.outcomes, ref.outcomes):
            assert abs(o.probability - r.probability) <= 1e-11
            assert abs(o.h_tra - r.h_tra) <= 1e-11
            assert abs(o.h_cor - r.h_cor) <= 1e-11
            assert abs(o.score - r.score) <= 1e-11
        assert record.h_avg == pytest.approx(ref.h_avg, abs=1e-11)
        assert record.excluded_probability == pytest.approx(ref.excluded_probability,
                                                            abs=1e-11)
        assert record.fisher_heat == pytest.approx(ref.fisher_heat, rel=1e-12, abs=1e-15)

    def test_direct_scores_match_dense(self, case):
        eng, args, floor = case
        scores = eng.score_direct_all(*args[1:])
        ref = dense_score_direct_all(*args, prob_floor=floor)
        assert scores.keys() == ref.keys()
        for label, score in scores.items():
            assert abs(score - ref[label]) <= 1e-11

    def test_finite_difference_fisher_matches_dense(self, case):
        eng, args, floor = case
        fd = eng.fisher_finite_difference(*args[1:])
        assert fd == pytest.approx(dense_fisher_fd(*args, prob_floor=floor),
                                   rel=1e-8, abs=1e-15)

    def test_floor_cases_exclude_outcomes(self):
        for name in ("he-zero-time", "he-below-floor"):
            model, rho0, meas, beta, t, floor = BRANCH_CASES[name]
            probs = HeatEngine(model).outcome_probabilities_at(rho0, beta, t, meas)
            assert np.any(probs < floor) and np.any(probs >= floor)
            # no probability within roundoff of the floor, so the kept set is sharp
            assert np.all(np.abs(probs - floor) > 1e-6 * floor)

    def test_table_cache_follows_its_arguments(self):
        model, rho0, meas, beta, t, _ = BRANCH_CASES["he-pure"]
        eng = HeatEngine(model)
        rho = rho0.copy()
        calls = [(rho, t, meas), (rho, 0.7 * t, meas),
                 (rho, 0.7 * t, _random_probe_measurement(np.random.default_rng(1), 11))]
        for r, tt, m in calls:
            got = eng.outcome_probabilities_at(r, beta, tt, m)
            assert np.array_equal(got, HeatEngine(model).outcome_probabilities_at(r, beta, tt, m))
        rho[:2, :2] = 0.5  # edited in place: same object, new state
        got = eng.outcome_probabilities_at(rho, beta, t, meas)
        assert np.array_equal(got, HeatEngine(model).outcome_probabilities_at(rho, beta, t, meas))

    def test_engine_holds_no_full_space_matrix(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        eng.heat_decomposition(rho0, beta, t, meas)
        model = eng.model
        d = model.space.total_dim

        def full_space_arrays(obj):
            held = [a for v in vars(obj).values()
                    for a in (v if isinstance(v, tuple) else (v,))]
            return [a for a in held if isinstance(a, np.ndarray) and a.size >= d * d]

        assert full_space_arrays(eng) == []
        # the model holds H as a sparse matrix and its spectrum as sector blocks:
        # no dense full-space array at all
        assert full_space_arrays(model) == []
        assert model.hamiltonian.nnz < 4 * d
        assert sum(v.size for _, _, v in model.spectrum) < d * d / 10


class TestProbabilityRange:
    """A raw rho0 that is not positive semidefinite is a named error, not a clip."""

    @pytest.fixture
    def non_psd(self, deph_setup):
        eng, _, meas, beta, t = deph_setup
        rho0 = np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex)  # eigenvalues 1.4, -0.4
        return eng, rho0, meas, beta, t

    def test_kernel_routes_raise(self, non_psd):
        eng, rho0, meas, beta, t = non_psd
        for route in (eng.heat_decomposition, eng.score_direct_all,
                      eng.fisher_finite_difference, eng.outcome_probabilities_at):
            with pytest.raises(ProbabilityRangeError):
                route(rho0, beta, t, meas)

    def test_two_point_route_raises(self, non_psd):
        eng, rho0, meas, beta, t = non_psd
        with pytest.raises(ProbabilityRangeError):
            eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
        # callers that caught the old plain ValueError still catch it
        assert issubclass(ProbabilityRangeError, ValueError)


class TestPrecisionBound:
    def test_inverse_square_root(self):
        assert precision_bound(4.0) == pytest.approx(0.5)
        assert precision_bound(4.0, n_measurements=4) == pytest.approx(0.25)

    def test_zero_information_gives_infinite_bound(self):
        assert precision_bound(0.0) == math.inf

    def test_rejects_zero_measurements(self):
        with pytest.raises(ValueError):
            precision_bound(1.0, n_measurements=0)
