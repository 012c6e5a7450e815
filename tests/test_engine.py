"""Heat decomposition of the Fisher score: identities on small models."""

import gc
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import block_diag

from thermoq import engine
from thermoq.closed_form import DephParams, HEParams, he_optimal_time
from thermoq.engine import (
    HeatEngine,
    InvalidProbeStateError,
    ProbabilityRangeError,
    _checked_probabilities,
    log_scores,
    precision_bound,
)
from thermoq.linalg import HERMITICITY_RTOL, truncation_level
from thermoq.models import (
    BathMode,
    SpectralDensity,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    discretize_spectral_density,
    eigenbasis_measurement,
    fock_measurement,
    pauli_x_measurement,
)
from thermoq.validate import (
    CUTOFFS,
    TOL_CLOSED_FORM,
    TOL_FISHER,
    TOL_SCORE,
    TOL_TWO_POINT,
    auto_cutoff,
    check_engine_point,
    deph_point,
    draw_deph_instance,
    he_point,
    identity_checks,
)

from dense_reference import (
    dense_fisher_fd,
    dense_hamiltonian,
    dense_heat_decomposition,
    dense_score_direct_all,
    initial_state,
    propagator,
    thermal_state,
)


def kernel_probabilities(eng, rho0, beta, t, meas):
    """P_l of every outcome at beta, those below the floor included: the P_l
    kernel of the engine's tables of (rho0, t, meas)."""
    return eng._tables_for(rho0, beta, t, meas).probabilities([beta])[0]


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


@pytest.fixture(scope="module")
def hot_exchange():
    # the CI hot point: automatic n_max = 96 at beta = 0.25, d = 9409; a dense
    # d x d propagator alone would take 1.4 GB here
    n_max, beta = 96, 0.25
    model = build_coupled_oscillators(1.0, 1.0, 0.1, n_max)
    assert model.space.total_dim == 9409
    t = he_optimal_time(HEParams(1.0, 1.0, 0.1, beta, 0.0))
    rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho0[0, 0] = 1.0
    return HeatEngine(model), rho0, beta, t, fock_measurement(n_max)


class TestStatesAndEvolution:
    def test_propagator_is_unitary(self, he_setup):
        u = propagator(he_setup[0].model, 0.8)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)

    def test_evolution_preserves_trace_and_energy(self, he_setup):
        eng, rho0, _, beta, t = he_setup
        chi0 = initial_state(eng.model, rho0, beta)
        u = propagator(eng.model, t)
        chi_t = u @ chi0 @ u.conj().T
        assert np.trace(chi_t).real == pytest.approx(1.0, abs=1e-12)
        h = dense_hamiltonian(eng.model)
        assert np.trace(h @ chi_t).real == pytest.approx(np.trace(h @ chi0).real,
                                                         abs=1e-10)


class TestProbabilities:
    def test_sum_to_one(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        probs = kernel_probabilities(eng, rho0, beta, t, meas)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        record = eng.heat_decomposition(rho0, beta, t, meas)
        assert record.probabilities.sum() + record.excluded_probability == pytest.approx(
            1.0, abs=1e-10)


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

    def test_matches_and_stays_small_at_the_hot_exchange_point(self, hot_exchange):
        eng, rho0, beta, t, meas = hot_exchange
        record = eng.heat_decomposition(rho0, beta, t, meas)
        tracemalloc.start()
        try:
            heats = eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(heats) == [o.label for o in record.outcomes]
        for o in record.outcomes:
            assert abs(heats[o.label] - o.h_tra) <= TOL_TWO_POINT
        assert peak <= 100 * 2**20


class TestFisher:
    def test_three_way_agreement(self, he_setup):
        eng, rho0, meas, beta, t = he_setup
        record = eng.heat_decomposition(rho0, beta, t, meas)
        fd = eng.fisher_finite_difference(rho0, beta, t, meas)
        assert fd == pytest.approx(record.fisher_heat, rel=1e-6)

    def test_stencil_keeps_the_outcomes_of_the_heat_decomposition(self, monkeypatch):
        # a floor between P_1(beta + h) and P_1(beta) on he-pure: the stencil keeps
        # outcome 1 by P_1(beta), as the heat decomposition does, where a rule on
        # every stencil point dropped it and put F off by 0.94 relative
        model, rho0, meas, beta, t, _ = BRANCH_CASES["he-pure"]
        eng = HeatEngine(model)
        p1 = [kernel_probabilities(eng, rho0, b, t, meas)[1] for b in (1.0001 * beta, beta)]
        assert p1[0] < p1[1]
        floor = (p1[0] + p1[1]) / 2
        monkeypatch.setattr(engine, "PROB_FLOOR", floor)
        record = eng.heat_decomposition(rho0, beta, t, meas)
        assert [o.label for o in record.outcomes] == [0, 1]
        assert list(eng.score_direct_all(rho0, beta, t, meas)) == [0, 1]
        fd = eng.fisher_finite_difference(rho0, beta, t, meas)
        assert fd == pytest.approx(record.fisher_heat, rel=TOL_FISHER)
        dense = dense_fisher_fd(model, rho0, beta, t, meas, prob_floor=floor)
        assert dense == pytest.approx(record.fisher_heat, rel=TOL_FISHER)

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
    """(model, rho0, meas, beta, t, floor) per case; Fisher values 4e-4..0.1,
    so finite-difference roundoff (about 1e-12 / sqrt(F) relative) stays far
    below the 1e-8 bound. The dephasing cases run the sparse sigma_z model, a
    ``CompositeModel`` like every model the branch kernel takes."""
    rng = np.random.default_rng(7)
    he = build_coupled_oscillators(1.1, 1.0, 0.15, 10)
    deph = DEPH
    ground = np.zeros((11, 11), dtype=complex)
    ground[0, 0] = 1.0
    return {
        "he-pure": (he, ground, fock_measurement(10), 1.2, 2.5, 1e-12),
        "he-mixed-full-rank": (he, _random_density(rng, 11), fock_measurement(10),
                               1.2, 2.5, 1e-12),
        "he-nondiagonal-measurement": (he, ground, _random_probe_measurement(rng, 11),
                                       1.2, 2.5, 1e-12),
        "he-zero-time": (he, ground, fock_measurement(10), 1.2, 0.0, 1e-12),
        # outcomes l >= 5 fall below this floor at t = 2.5
        "he-below-floor": (he, ground, fock_measurement(10), 1.2, 2.5, 1e-6),
        "deph-pure": (deph, PLUS, pauli_x_measurement(), 1.0, 1.7, 1e-12),
        "deph-mixed-nondiagonal": (deph, _random_density(rng, 2),
                                   _random_probe_measurement(rng, 2), 1.0, 1.7, 1e-12),
    }


def _mode_cases():
    """(model, rho0, meas, beta, t, floor, engine model) per case: the dense
    reference reads the sparse sigma_z model, and the engine runs on the same
    model as a ``ModeProductModel``. The draws are ``draw_deph_instance``'s with
    a coarser thermal tail than its automatic cutoffs (``_coarse_draw``: cutoffs
    4..8, d <= 432) to keep the dense reference small; both routes read the same
    truncated model, so the comparison does not depend on it."""
    rng = np.random.default_rng(11)
    cases = {  # the branch kernel's dephasing cases, on the mode-product route
        name: (DEPH, *BRANCH_CASES[name][1:], DEPH_DECLARED)
        for name in ("deph-pure", "deph-mixed-nondiagonal")}
    cases |= {
        "deph-zero-time": (DEPH, _random_density(rng, 2), _random_probe_measurement(rng, 2),
                           1.0, 0.0, 1e-12, DEPH_DECLARED),
        # P_- = 3.8e-5 at t = 0.01
        "deph-below-floor": (DEPH, PLUS, pauli_x_measurement(), 1.0, 0.01, 1e-4,
                             DEPH_DECLARED),
    }
    for seed in (1, 6, 7, 8, 11):
        params, model = _coarse_draw(seed)
        cases[f"draw-{seed}-{len(params['modes'])}-modes"] = (
            _sparse_twin(params), PLUS, pauli_x_measurement(), params["beta"], params["t"],
            1e-12, model)
    return cases


def _coarse_draw(seed):
    """The ``draw_deph_instance`` draw of ``seed`` with each mode's cutoff at the
    thermal tail 1e-4 plus the dephasing margin, and its dephasing model."""
    params, _ = draw_deph_instance(np.random.default_rng(seed))
    margin = CUTOFFS["dephasing"][1]
    params["cutoffs"] = [truncation_level(params["beta"], omega, 1e-4) + margin
                         for omega, _ in params["modes"]]
    modes = [BathMode(*m) for m in params["modes"]]
    return params, build_dephasing_model(modes, params["cutoffs"])


def _sparse_twin(params):
    """The sparse sigma_z spin-boson model of a ``draw_deph_instance`` draw: the
    dephasing model with its H."""
    return build_spin_boson_model(0.0, [BathMode(*m) for m in params["modes"]],
                                  params["cutoffs"], coupling_axis="z")


DEPH_MODES = [BathMode(1.0, 0.3), BathMode(1.6, 0.35)]
DEPH = build_spin_boson_model(0.0, DEPH_MODES, 6, coupling_axis="z")
DEPH_DECLARED = build_dephasing_model(DEPH_MODES, 6)
PLUS = np.full((2, 2), 0.5, dtype=complex)
BRANCH_CASES = _branch_cases()
MODE_CASES = _mode_cases()


def _at_floor(case, monkeypatch):
    """The case's (engine, dense arguments, floor), its floor substituted for
    ``engine.PROB_FLOOR``, which every engine route reads."""
    monkeypatch.setattr(engine, "PROB_FLOOR", case[2])
    return case


class _MatchesDense:
    """The engine's tables against the dense embedded-projector route, at the
    same tolerances and the same probability floor on both routes; subclasses
    supply the ``case`` fixture."""

    def test_heat_terms_match_dense(self, case, monkeypatch):
        eng, args, floor = _at_floor(case, monkeypatch)
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

    def test_direct_scores_match_dense(self, case, monkeypatch):
        # the direct score is a finite-difference derivative of ln P_l (1.02e-11
        # off on he-pure), held to the tolerance of the run's 'score' check; the
        # exact score keeps its 1e-11 through test_heat_terms_match_dense
        eng, args, floor = _at_floor(case, monkeypatch)
        scores = eng.score_direct_all(*args[1:])
        ref = dense_score_direct_all(*args, prob_floor=floor)
        assert scores.keys() == ref.keys()
        for label, score in scores.items():
            assert abs(score - ref[label]) <= TOL_SCORE

    def test_finite_difference_fisher_matches_dense(self, case, monkeypatch):
        # against the dense heat variance, not the dense finite difference: the
        # dense route forms a rare outcome's P_l from O(1) entries anew at each
        # beta, so at F ~ 3e-6 (draw-7) its own finite difference is off by 1.5e-8
        eng, args, floor = _at_floor(case, monkeypatch)
        fd = eng.fisher_finite_difference(*args[1:])
        ref = dense_heat_decomposition(*args, prob_floor=floor).fisher_heat
        assert fd == pytest.approx(ref, rel=1e-8, abs=1e-15)

    def test_two_point_matches_dense(self, case, monkeypatch):
        eng, args, floor = _at_floor(case, monkeypatch)
        heats = eng.two_point_trajectory_heat_all(*args[1:])
        ref = dense_heat_decomposition(*args, prob_floor=floor)
        assert list(heats) == [o.label for o in ref.outcomes]
        for o in ref.outcomes:
            assert abs(heats[o.label] - o.h_tra) <= 1e-11


def _engine_case(cases, name):
    model, rho0, meas, beta, t, floor, *engine_model = cases[name]
    eng = HeatEngine(*engine_model or (model,))
    return eng, (model, rho0, beta, t, meas), floor


class TestModeProduct(_MatchesDense):
    """The mode-product route of sigma_z-coupled models against the dense route."""

    @pytest.fixture(params=sorted(MODE_CASES), scope="class")
    def case(self, request):
        eng, args, floor = _engine_case(MODE_CASES, request.param)
        assert eng.route == "mode-product"
        return eng, args, floor

    def test_rare_outcome_keeps_the_finite_difference_smooth(self):
        # P_- = 3.1e-7 at t = 1e-3: the probabilities are built as 1 + (prod chi - 1),
        # so their rounding does not swamp the beta-derivative (8e-11 here; the
        # plain product of the chi_k gives 1e-7 to 7e-6 at such points)
        eng = HeatEngine(DEPH_DECLARED)
        record = eng.heat_decomposition(PLUS, 1.3, 1e-3, pauli_x_measurement())
        assert record.probabilities[1] < 1e-6
        fd = eng.fisher_finite_difference(PLUS, 1.3, 1e-3, pauli_x_measurement())
        assert fd == pytest.approx(record.fisher_heat, rel=1e-8, abs=0)

    def test_cases_cover_one_to_three_modes_and_the_floor(self):
        assert {len(m.space.factor_dims) - 1 for m, *_ in MODE_CASES.values()} == {1, 2, 3}
        model, rho0, meas, beta, t, floor, _ = MODE_CASES["deph-below-floor"]
        probs = kernel_probabilities(HeatEngine(model), rho0, beta, t, meas)
        assert np.any(probs < floor) and np.any(probs >= floor)
        assert np.all(np.abs(probs - floor) > 1e-6 * floor)

    @pytest.fixture(scope="class")
    def hot_dephasing_engine(self):
        # the CI hot point: automatic cutoffs 45/37 at beta = 0.45, d = 3496
        model = build_dephasing_model([BathMode(1.2, 0.1), BathMode(1.5, 0.15)], [45, 37])
        assert model.space.total_dim == 3496
        return HeatEngine(model)

    def test_heat_decomposition_memory_at_the_hot_dephasing_point(self, hot_dephasing_engine):
        # the branch kernel's K x d amplitudes alone took 93 MiB here
        eng = hot_dephasing_engine
        tracemalloc.start()
        try:
            eng.heat_decomposition(PLUS, 0.45, math.pi, pauli_x_measurement())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_two_point_memory_at_the_hot_dephasing_point(self, hot_dephasing_engine):
        # the two-point sum over the sector eigenvectors of spectrum took 293 MB here
        eng = hot_dephasing_engine
        args = (PLUS, 0.45, math.pi, pauli_x_measurement())
        tracemalloc.start()
        try:
            heats = eng.two_point_trajectory_heat_all(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        for o in eng.heat_decomposition(*args).outcomes:
            assert abs(heats[o.label] - o.h_tra) <= TOL_TWO_POINT

    @pytest.mark.parametrize("route", ["mode-product", "branch-kernel"])
    def test_threads_sharing_an_engine_read_one_stored_entry(self, route):
        # eight threads evaluate one engine's points at three times, half of them
        # in reverse order, switching every microsecond: each cache stores an
        # entry once (rho0's eigenpairs, the tables, the stencil, and on the mode
        # route the propagators), every thread reads the first stored, and the
        # results are a fresh engine's. The exchange pair is built here, so its
        # sectors are first diagonalized by the threads too
        if route == "mode-product":
            model, rho0, meas = DEPH_DECLARED, PLUS, pauli_x_measurement()
        else:
            model, meas = build_coupled_oscillators(1.1, 1.0, 0.15, 6), fock_measurement(6)
            rho0 = np.zeros((7, 7), dtype=complex)
            rho0[0, 0] = 1.0
        eng = HeatEngine(model)
        assert eng.route == route
        points = [(beta, t) for t in (0.5, 1.7, 3.0) for beta in (0.8, 1.3)]
        seen = [{} for _ in range(8)]

        def evaluate(out, order):
            for beta, t in order:
                entries = (*eng._probe(rho0, beta, meas)[1:], eng._tables_for(rho0, beta, t, meas),
                           eng._stencil(rho0, beta, t, meas))
                if route == "mode-product":
                    entries += (eng._mode_propagators(t),)
                out[beta, t] = (entries, eng.heat_decomposition(rho0, beta, t, meas).fisher_heat,
                                eng.two_point_trajectory_heat_all(rho0, beta, t, meas))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate,
                                        args=(out, points[::1 if n % 2 else -1]))
                       for n, out in enumerate(seen)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (beta, t), (first, fisher, heats) in seen[0].items():
            for out in seen:
                entries = out[beta, t][0]
                assert len(entries) == len(first) and all(a is b for a, b in zip(entries, first))
            ref = HeatEngine(model)
            assert fisher == ref.heat_decomposition(rho0, beta, t, meas).fisher_heat
            assert heats == ref.two_point_trajectory_heat_all(rho0, beta, t, meas)

    def test_two_thousand_mode_sample_of_the_scaling_run(self):
        # configs/scaling_deph.json's sample at its coldest beta: 2000 modes with
        # the dephasing runner's automatic cutoffs (sum_k n_k = 6082). Its sample
        # space has a 1209-digit dimension, so allocating any array of that size
        # would raise; the point runs on per-mode arrays alone
        j = SpectralDensity(alpha=1.0, s=1.0, omega_c=5.0)
        modes = discretize_spectral_density(j, 2000, 10.0 * j.omega_c)
        beta, t = 50.0, 1.0 / (10.0 * j.omega_c)
        model = build_dephasing_model(
            modes, [auto_cutoff("dephasing", beta, m.omega) for m in modes])
        assert len(str(model.bath_dim)) == 1209
        checks = identity_checks("fisher", "closed_form", "avg_heat", "saturation")
        check_engine_point(checks, HeatEngine(model), pauli_x_measurement(),
                           deph_point(DephParams(tuple(modes), beta, t)), {})
        assert checks["closed_form"].max_deviation <= TOL_CLOSED_FORM
        assert checks["fisher"].max_deviation <= TOL_FISHER
        assert all(c.passed for c in checks.values())


class TestRouteSelection:
    @pytest.mark.parametrize("build, route", [
        (lambda: DEPH_DECLARED, "mode-product"),
        (lambda: build_spin_boson_model(0.7, [BathMode(1.0, 0.2)], 4, coupling_axis="z"),
         "branch-kernel"),
        (lambda: build_coupled_oscillators(1.1, 1.0, 0.15, 6), "branch-kernel"),
        (lambda: build_spin_boson_model(0.7, [BathMode(1.0, 0.2)], 4, coupling_axis="x"),
         "branch-kernel"),
        (lambda: build_spin_boson_model(0.7, [BathMode(1.0, 0.2)], 4, coupling_axis="xz"),
         "branch-kernel"),
    ], ids=["dephasing", "sigma-z", "exchange", "x", "xz"])
    def test_route_follows_the_model_type(self, build, route):
        assert HeatEngine(build()).route == route

    def test_branch_kernel_never_derives_the_projectors(self):
        # the (L, d_s, d_s) stack is derived on first read; the branch kernel
        # reads the basis and the outcome of each column instead
        n_max = 8
        eng = HeatEngine(build_coupled_oscillators(1.1, 1.0, 0.15, n_max))
        rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        rho0[0, 0] = 1.0
        meas = fock_measurement(n_max)
        assert eng.route == "branch-kernel"
        eng.heat_decomposition(rho0, 1.2, 2.5, meas)
        eng.score_direct_all(rho0, 1.2, 2.5, meas)
        eng.fisher_finite_difference(rho0, 1.2, 2.5, meas)
        eng.two_point_trajectory_heat_all(rho0, 1.2, 2.5, meas)
        assert "projectors" not in vars(meas)

    @pytest.mark.parametrize("cases, name", [(BRANCH_CASES, "he-pure"), (MODE_CASES, "deph-pure")],
                             ids=["exchange", "dephasing"])
    def test_engine_is_freed_without_the_cycle_collector(self, cases, name):
        # an engine that stored its route's bound methods referenced itself, so
        # each one waited for the cycle collector: 4 MB more peak RSS in a sweep
        gc.disable()
        try:
            eng, (_, *args), _ = _engine_case(cases, name)
            for route in ("heat_decomposition", "fisher_finite_difference",
                          "score_direct_all", "two_point_trajectory_heat_all"):
                getattr(eng, route)(*args)
            freed = weakref.ref(eng)
            del eng
            assert freed() is None
        finally:
            gc.enable()


PARITY_DRAWS = [(seed, *draw_deph_instance(np.random.default_rng(seed))) for seed in range(20)]
# the draws with d <= 800, on which the branch kernel takes about 0.2 s in all
SMALL_PARITY_DRAWS = [draw for draw in PARITY_DRAWS if draw[2].space.total_dim <= 800]


def _many_mode_draw(seed, omegas, gs, cutoffs):
    """A hand-built draw past the random draws' three modes, in their frequency
    range: (seed, params, model) as in ``PARITY_DRAWS``."""
    params = dict(modes=list(zip(omegas, gs)), beta=1.2, t=1.7, cutoffs=cutoffs)
    return seed, params, build_dephasing_model([BathMode(*m) for m in params["modes"]], cutoffs)


# five modes at d = 216 and six at d = 1458: the products of the other modes'
# chi in the energy sums (``_ModeTables.traces``) round differently from one
# product of all but one mode only from three modes on. Five modes of
# interleaved cutoffs at d = 1800: the route takes them group by group (cutoffs
# 2, 3, 4), out of mode order
MANY_MODE_DRAWS = [
    _many_mode_draw(20, [3.0, 3.4, 3.8, 4.2, 4.6], [0.2, 0.15, 0.1, 0.18, 0.12], [2, 2, 2, 1, 1]),
    _many_mode_draw(21, [3.0, 3.3, 3.6, 3.9, 4.2, 4.5], [0.12, 0.2, 0.08, 0.15, 0.1, 0.18], 2),
    _many_mode_draw(22, [2.0, 2.5, 3.0, 3.5, 4.0], [0.2, 0.1, 0.15, 0.12, 0.18], [4, 2, 4, 3, 2]),
]


class TestDephasingModelAgainstItsH:
    """``build_dephasing_model`` forms no H, so its mode eigenpairs are tied to
    the sparse sigma_z build of the same draw here: they add up to its H, and
    the mode-product route on them agrees with the branch kernel on it."""

    def test_draws_cover_one_to_three_modes(self):
        assert {len(params["modes"]) for _, params, _ in PARITY_DRAWS} == {1, 2, 3}
        assert [seed for seed, *_ in SMALL_PARITY_DRAWS] == [1, 6, 9, 11, 12, 14, 16, 19]

    @pytest.mark.parametrize("seed, params, model", PARITY_DRAWS,
                             ids=[f"draw-{seed}" for seed, *_ in PARITY_DRAWS])
    def test_mode_factors_add_up_to_the_sparse_h(self, seed, params, model):
        # per probe level, the Kronecker sum of each mode's V diag(lambda) V^T
        twin = _sparse_twin(params)
        factors = {}  # (probe level q, mode k) -> V diag(lambda) V^T
        for modes, _, values, vectors in model.groups:
            for q, g in itertools.product(range(len(values)), range(len(modes))):
                factors[q, modes[g]] = (vectors[q, g] * values[q, g]) @ vectors[q, g].T
        blocks = []
        for q in range(model.system_dim):
            block = np.zeros((1, 1))
            for k in range(len(params["modes"])):
                factor = factors[q, k]
                block = np.kron(block, np.eye(len(factor))) + np.kron(np.eye(len(block)), factor)
            blocks.append(block)
        scale = 1.0 + max(np.abs(values).max(initial=0.0) for *_, values in twin.sectors)
        assert (np.abs(block_diag(*blocks) - dense_hamiltonian(twin)).max()
                <= HERMITICITY_RTOL * scale)

    @pytest.mark.parametrize("seed, params, model", SMALL_PARITY_DRAWS + MANY_MODE_DRAWS,
                             ids=[f"draw-{seed}" for seed, *_ in SMALL_PARITY_DRAWS]
                             + ["five-modes", "six-modes", "interleaved-cutoffs"])
    def test_engine_agrees_with_the_branch_kernel_on_the_sparse_h(self, seed, params, model):
        rng = np.random.default_rng(seed)
        eng, ref = HeatEngine(model), HeatEngine(_sparse_twin(params))
        assert (eng.route, ref.route) == ("mode-product", "branch-kernel")
        for args in ((PLUS, params["beta"], params["t"], pauli_x_measurement()),
                     (_random_density(rng, 2), params["beta"], params["t"],
                      _random_probe_measurement(rng, 2))):
            record, ref_record = eng.heat_decomposition(*args), ref.heat_decomposition(*args)
            assert [o.label for o in record.outcomes] == [o.label for o in ref_record.outcomes]
            for o, r in zip(record.outcomes, ref_record.outcomes):
                assert np.allclose([o.probability, o.h_tra, o.h_cor, o.score],
                                   [r.probability, r.h_tra, r.h_cor, r.score], rtol=0, atol=1e-11)
            # the direct score is a finite difference of ln P_l, held to TOL_SCORE
            for route, tol in ((HeatEngine.score_direct_all, TOL_SCORE),
                               (HeatEngine.two_point_trajectory_heat_all, 1e-11)):
                got, expected = route(eng, *args), route(ref, *args)
                assert got.keys() == expected.keys()
                assert all(abs(got[label] - expected[label]) <= tol for label in got)
            assert abs(eng.fisher_finite_difference(*args)
                       - ref.fisher_finite_difference(*args)) <= 1e-11


class TestBranchKernel(_MatchesDense):
    """The branch kernel against the dense embedded-projector route."""

    @pytest.fixture(params=sorted(BRANCH_CASES), scope="class")
    def case(self, request):
        eng, args, floor = _engine_case(BRANCH_CASES, request.param)
        assert eng.route == "branch-kernel"
        return eng, args, floor

    def test_floor_cases_exclude_outcomes(self):
        for name in ("he-zero-time", "he-below-floor"):
            model, rho0, meas, beta, t, floor = BRANCH_CASES[name]
            probs = kernel_probabilities(HeatEngine(model), rho0, beta, t, meas)
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
            got = kernel_probabilities(eng, r, beta, tt, m)
            assert np.array_equal(got, kernel_probabilities(HeatEngine(model), r, beta, tt, m))
        rho[:2, :2] = 0.5  # edited in place: same object, new state
        got = kernel_probabilities(eng, rho, beta, t, meas)
        assert np.array_equal(got, kernel_probabilities(HeatEngine(model), rho, beta, t, meas))

    def test_table_build_stays_small_at_the_hot_exchange_point(self, hot_exchange):
        # the vacuum reaches 97 of the 193 sectors, and only those are propagated:
        # one build peaked at 3.7 MiB here, and at 34.8 MB when it held a K x d
        # amplitude array; the bound leaves about 2x headroom
        eng, rho0, beta, t, meas = hot_exchange
        eng = HeatEngine(eng.model)  # no tables cached
        tracemalloc.start()
        try:
            eng._tables_for(rho0, beta, t, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_sweep_builds_the_tables_once_per_time(self, monkeypatch):
        # a beta-outer, t-inner sweep at fixed n_max shares one engine, which
        # keeps the tables of both times across the betas
        from thermoq.cli import _read_config, _run_heat_exchange

        builds = []
        real_build = HeatEngine._branch_tables

        def build(self, w, phi, t, meas):
            builds.append(t)
            return real_build(self, w, phi, t, meas)

        monkeypatch.setattr(HeatEngine, "_branch_tables", build)
        rows, checks, _ = _run_heat_exchange(_read_config({
            "experiment": "heat-exchange", "model": {"omega_0": 1.0, "g": 0.1},
            "sweep": {"beta": [1.1, 1.4], "t": [3.0, 5.0]}, "numerics": {"n_max": 27}}))
        assert len(rows) == 4 and all(c.passed for c in checks)
        assert builds == [3.0, 5.0]

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
        # the model holds H and its spectrum as sector blocks: no dense
        # full-space array at all
        assert full_space_arrays(model) == []
        assert sum(len(values) for *_, values in model.sectors) < 4 * d
        assert sum(v.size for _, _, v in model.spectrum) < d * d / 10


class TestProbabilityKernel:
    """Each table route's one P_l kernel, ``probabilities(betas) -> (B, L)``,
    against the P_l that ``traces`` reports at each beta, and the
    finite-difference route reading that kernel alone."""

    @staticmethod
    def _rows_and_traces(eng, rho0, beta, t, meas):
        tables = eng._tables_for(rho0, beta, t, meas)
        h = 1e-4 * beta
        betas = beta + np.array([h, -h, h / 2, -h / 2, 0.0, -0.5 * beta, beta])
        return tables.probabilities(betas), np.array([tables.traces(b)[0] for b in betas])

    @pytest.mark.parametrize("route, case", [("branch-kernel", n) for n in sorted(BRANCH_CASES)]
                             + [("mode-product", n) for n in sorted(MODE_CASES)])
    def test_each_row_is_the_probability_at_its_beta(self, route, case):
        eng, (_, rho0, beta, t, meas), _ = _engine_case(
            BRANCH_CASES if route == "branch-kernel" else MODE_CASES, case)
        assert eng.route == route
        rows, ref = self._rows_and_traces(eng, rho0, beta, t, meas)
        assert rows.shape == (7, len(meas.labels))
        # each row is formed from its own beta alone: equal to the last bit
        assert np.array_equal(rows, ref)

    @pytest.mark.parametrize("route", ["branch-kernel", "mode-product"])
    def test_record_probabilities_are_the_stencil_centre_row(self, route):
        # one P_l whichever betas a call evaluates: the record's (``traces``, one
        # beta) and the five-beta stencil's centre row agree bit for bit and keep
        # the same outcomes, so no outcome within roundoff of the floor is kept
        # by the heat decomposition and dropped by the direct score
        if route == "branch-kernel":
            eng = HeatEngine(build_coupled_oscillators(1.0, 1.0, 0.1, 27))
            rho0 = np.zeros((28, 28), dtype=complex)
            rho0[0, 0] = 1.0
            meas = fock_measurement(27)
        else:
            eng = HeatEngine(build_dephasing_model([BathMode(1.0, 0.1), BathMode(1.4, 0.15)], 22))
            rho0, meas = PLUS, pauli_x_measurement()
        assert eng.route == route
        rng = np.random.default_rng(5)
        for beta, t in rng.uniform((0.3, 0.5), (3.0, 30.0), size=(20, 2)):
            record = eng.heat_decomposition(rho0, beta, t, meas)
            p, _, kept, _ = log_scores(eng._tables_for(rho0, beta, t, meas).probabilities, beta)
            assert [o.label for o in record.outcomes] == list(np.array(meas.labels)[kept])
            assert record.probabilities.tobytes() == p[kept].tobytes()

    @staticmethod
    def _extended_precision_probabilities(tables, betas):
        """(B, L): P_l of mode tables in extended precision and in another order
        than the kernel's: prod_k chi_k - 1 expanded as the sum over nonempty
        mode sets S of prod_{k in S} (-y_k), y_k = 1 - chi_k from the tables'
        1 - M_k, so no term lies near 1 and nothing cancels."""
        weight = tables.weight[:-1].astype(np.clongdouble)
        pairs = tables.weight.shape[1]
        modes = [(diagonals[:pairs], eps)  # 1 - M_k
                 for group, energies in zip(tables.diagonals, tables.energies)
                 for diagonals, eps in zip(group, energies)]
        rows = []
        for beta in betas:
            y = []
            for defect, eps in modes:
                eps = eps.astype(np.longdouble)
                p = np.exp(-np.longdouble(beta) * (eps - eps.min()))
                y.append(defect.astype(np.clongdouble) @ (p / p.sum()))
            x = sum(np.prod([-y[k] for k in s], axis=0)
                    for n in range(1, len(y) + 1)
                    for s in itertools.combinations(range(len(y)), n))
            rows.append((weight.sum(axis=1) + weight @ x).real)
        return np.array(rows)

    def test_outcome_near_the_floor_keeps_its_relative_precision(self):
        # P_- = 1.0e-10 at t = 1.8e-5: the kernel accumulates prod_k chi_k - 1
        # from the small 1 - chi_k, so each row keeps the relative precision of
        # an extended-precision reference that never forms chi_k near 1
        eng = HeatEngine(DEPH_DECLARED)
        beta, t, meas = 1.3, 1.8e-5, pauli_x_measurement()
        tables = eng._tables_for(PLUS, beta, t, meas)
        betas = beta + np.array([1e-4, -1e-4, 5e-5, -5e-5, 0.0, -0.5, 1.0]) * beta
        rows, ref = tables.probabilities(betas), self._extended_precision_probabilities(
            tables, betas)
        assert np.all((ref[:, 1] > 5e-11) & (ref[:, 1] < 2e-10))
        assert np.all(np.abs(rows - ref) <= 1e-15 * np.abs(ref))

    @staticmethod
    def _count_table_calls(eng, rho0, beta, t, meas, monkeypatch):
        """Counts of the calls of the kernel and of ``traces`` on the tables' type."""
        tables_type = type(eng._tables_for(rho0, beta, t, meas))
        calls = {"probabilities": 0, "traces": 0}
        for name in calls:
            real = getattr(tables_type, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(tables_type, name, counted)
        return calls

    @pytest.mark.parametrize("setup", ["he_setup", "deph_setup"])
    def test_finite_difference_is_one_kernel_call_and_no_traces(self, request, setup,
                                                                monkeypatch):
        eng, rho0, meas, beta, t = request.getfixturevalue(setup)
        eng = HeatEngine(eng.model)  # no stencil kept
        calls = self._count_table_calls(eng, rho0, beta, t, meas, monkeypatch)
        fd = eng.fisher_finite_difference(rho0, beta, t, meas)
        assert calls == {"probabilities": 1, "traces": 0}
        assert fd > 0

    @pytest.mark.parametrize("setup, point", [
        ("he_setup", lambda: he_point(HEParams(1.1, 1.0, 0.15, 1.2, 2.5), 14)),
        ("deph_setup", lambda: deph_point(DephParams(
            (BathMode(1.0, 0.1), BathMode(1.6, 0.15)), 1.0, 1.7))),
    ], ids=["exchange", "dephasing"])
    def test_checked_point_evaluates_one_stencil(self, request, setup, point, monkeypatch):
        # the direct score and the finite difference of one checked point read the
        # stencil the engine keeps per (tables, beta): one kernel call, where each
        # evaluated its own
        eng, rho0, meas, beta, t = request.getfixturevalue(setup)
        eng = HeatEngine(eng.model)
        calls = self._count_table_calls(eng, rho0, beta, t, meas, monkeypatch)
        checks = identity_checks("fisher", "closed_form", "avg_heat", "saturation", "score")
        check_engine_point(checks, eng, meas, point(), {})
        assert calls == {"probabilities": 1, "traces": 1}
        # the closed forms see the coarse cutoffs; the routes agree
        assert checks["fisher"].passed and checks["score"].passed

    @pytest.mark.parametrize("setup", ["he_setup", "deph_setup"])
    def test_only_the_heat_decomposition_forms_the_traces(self, request, setup,
                                                          monkeypatch):
        # the engine keeps no traces between calls: each heat decomposition forms
        # them once, and the direct score and the finite difference never do
        eng, rho0, meas, beta, t = request.getfixturevalue(setup)
        calls = self._count_table_calls(eng, rho0, beta, t, meas, monkeypatch)
        for n in (1, 2):
            eng.heat_decomposition(rho0, beta, t, meas)
            assert calls["traces"] == n
        eng.score_direct_all(rho0, beta, t, meas)
        eng.fisher_finite_difference(rho0, beta, t, meas)
        assert calls["traces"] == 2


class TestNonPositiveBeta:
    """beta <= 0 is a named error on every route of both engine routes."""

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    @pytest.mark.parametrize("route", ["heat_decomposition", "score_direct_all",
                                       "fisher_finite_difference",
                                       "two_point_trajectory_heat_all"])
    @pytest.mark.parametrize("setup", ["he_setup", "deph_setup"])
    def test_every_route_raises(self, request, setup, route, beta):
        eng, rho0, meas, _, t = request.getfixturevalue(setup)
        with pytest.raises(ValueError, match="beta must be positive"):
            getattr(eng, route)(rho0, beta, t, meas)


class TestInputSize:
    """A measurement or a rho0 of the wrong size is a plain ``ValueError`` on
    every route of both engine routes."""

    @pytest.mark.parametrize("wrong, message", [
        ("meas", "measurement does not match the system factor"),
        ("rho0", "rho0 does not match the system factor"),
    ])
    @pytest.mark.parametrize("route", ["heat_decomposition", "score_direct_all",
                                       "fisher_finite_difference",
                                       "two_point_trajectory_heat_all"])
    @pytest.mark.parametrize("setup", ["he_setup", "deph_setup"])
    def test_every_route_raises(self, request, setup, route, wrong, message):
        eng, rho0, meas, beta, t = request.getfixturevalue(setup)
        # one probe level too many: a Fock measurement, or rho0 padded with zeros
        if wrong == "meas":
            meas = fock_measurement(meas.system_dim)
        else:
            rho0 = np.pad(rho0, (0, 1))
        with pytest.raises(ValueError, match=message) as info:
            getattr(eng, route)(rho0, beta, t, meas)
        assert type(info.value) is ValueError


class TestProbabilityRange:
    """A raw rho0 that is not a density matrix is a named error, not a clip,
    also where its outcome probabilities stay inside [0, 1]."""

    @pytest.fixture(params=[
        [[0.5, 0.9], [0.9, 0.5]],  # eigenvalues 1.4, -0.4
        np.diag([1.1, -0.1]),      # P = [0.5, 0.5], inside [0, 1]
        np.diag([2.0, 0.0]),       # trace 2: P = [1, 1]
        np.diag([0.3, 0.3]),       # trace 0.6: P = [0.3, 0.3]
    ], ids=["eigenvalue-0.4", "eigenvalue-0.1", "trace-2", "trace-0.6"])
    def invalid_rho0(self, request, deph_setup):
        eng, _, meas, beta, t = deph_setup
        return eng, np.asarray(request.param, dtype=complex), meas, beta, t

    def test_kernel_routes_raise(self, invalid_rho0):
        eng, rho0, meas, beta, t = invalid_rho0
        for route in (eng.heat_decomposition, eng.score_direct_all,
                      eng.fisher_finite_difference):
            with pytest.raises(InvalidProbeStateError, match="not a density matrix"):
                route(rho0, beta, t, meas)

    def test_two_point_route_raises(self, invalid_rho0):
        eng, rho0, meas, beta, t = invalid_rho0
        with pytest.raises(InvalidProbeStateError, match="not a density matrix"):
            eng.two_point_trajectory_heat_all(rho0, beta, t, meas)
        # callers that caught the old plain ValueError still catch both errors
        assert issubclass(InvalidProbeStateError, ValueError)
        assert issubclass(ProbabilityRangeError, ValueError)

    def test_computed_probabilities_are_range_checked(self):
        # roundoff past [0, 1] is clipped; beyond PROB_RANGE_ATOL it is an error
        assert np.array_equal(_checked_probabilities(np.array([-1e-13, 1.0 + 1e-13])),
                              [0.0, 1.0])
        with pytest.raises(ProbabilityRangeError, match="outside"):
            _checked_probabilities(np.array([0.5, 1.1]))


class TestPrecisionBound:
    def test_inverse_square_root(self):
        assert precision_bound(4.0) == pytest.approx(0.5)

    def test_zero_information_gives_infinite_bound(self):
        assert precision_bound(0.0) == math.inf
