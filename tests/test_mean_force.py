"""Steady-state machinery: mean-force Hamiltonian, energy operator, energy UR."""

import math
from functools import cached_property

import numpy as np
import pytest

from thermoq.linalg import gibbs_rows
from thermoq.mean_force import (
    DegenerateVarianceError,
    NonPositiveReducedStateError,
    PartitionOverflowError,
    energy_operator,
    internal_energy,
    internal_energy_deviation,
    reduced_gibbs_operator,
    temperature_energy_ur_check,
)
from thermoq.models import (
    BathMode,
    CompositeModel,
    build_dephasing_model,
    build_spin_boson_model,
    eigenbasis_measurement,
)
from thermoq.validate import check_mean_force_point, identity_checks

QUBIT_OMEGA = 1.0
MODES = [BathMode(0.8, 0.15), BathMode(1.3, 0.15)]
BETA = 1.0


def richardson(f, x, h):
    """d f/dx by central differences, one Richardson step (test-side reference)."""

    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def h_star(model, beta):
    """The mean-force Hamiltonian H*_S that ``internal_energy_deviation`` stores."""
    return internal_energy_deviation(model, beta).h_star


def z_star(model, beta):
    """The effective partition function Z*_S that ``internal_energy_deviation`` stores."""
    return internal_energy_deviation(model, beta).z_star


def make_model(g_scale=1.0, axis="xz", n_max=5):
    modes = [BathMode(m.omega, g_scale * m.g) for m in MODES]
    return build_spin_boson_model(QUBIT_OMEGA, modes, n_max, coupling_axis=axis)


@pytest.fixture(scope="module")
def coupled_model():
    return make_model()


@pytest.fixture(scope="module")
def free_model():
    return make_model(g_scale=0.0)


class TestMeanForceHamiltonian:
    def test_matrices_are_read_only(self, coupled_model):
        result = internal_energy_deviation(coupled_model, BETA)
        for op in (energy_operator(coupled_model, BETA), result.h_star, result.e_star):
            assert op.shape == (2, 2)
            with pytest.raises(ValueError):
                op[0, 0] = 2.0

    def test_free_case_reduces_to_system_hamiltonian(self, free_model):
        diff = h_star(free_model, BETA) - free_model.h_s_local
        # equal up to an additive constant (here exactly zero)
        assert np.abs(diff - diff[0, 0] * np.eye(2)).max() < 1e-10
        assert abs(diff[0, 0]) < 1e-10

    def test_reconstructs_reduced_thermal_state(self, coupled_model):
        w, v = np.linalg.eigh(h_star(coupled_model, BETA))
        boltz = np.exp(-BETA * w)
        rho_rebuilt = (v * (boltz / boltz.sum())) @ v.conj().T
        a = reduced_gibbs_operator(coupled_model, BETA)
        rho_s = a / np.trace(a).real
        assert np.abs(rho_rebuilt - rho_s).max() < 1e-10

    def test_genuinely_beta_dependent_at_strong_coupling(self, coupled_model):
        h1 = h_star(coupled_model, BETA)
        h2 = h_star(coupled_model, 2.0 * BETA)
        assert np.abs(h1 - h2).max() > 1e-4

    def test_z_star_is_partition_ratio(self, free_model):
        # H_I = 0: Z*_S is the bare system partition function
        expected = 1.0 + math.exp(-BETA * QUBIT_OMEGA)
        assert z_star(free_model, BETA) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_beta(self, coupled_model, beta):
        for route in (reduced_gibbs_operator, internal_energy_deviation):
            with pytest.raises(ValueError, match="beta must be positive"):
                route(coupled_model, beta)


class TestEnergyOperator:
    def test_free_case_equals_system_hamiltonian(self, free_model):
        e_star = energy_operator(free_model, BETA)
        assert np.abs(e_star - free_model.h_s_local).max() < 1e-6

    def test_expectation_equals_internal_energy(self, coupled_model):
        e_star = energy_operator(coupled_model, BETA)
        a = reduced_gibbs_operator(coupled_model, BETA)
        rho_s = a / np.trace(a).real
        u = internal_energy(coupled_model, BETA)
        assert np.trace(e_star @ rho_s).real == pytest.approx(u, abs=1e-6)

    def test_derivative_relation_residual(self, coupled_model):
        # recompute the anticommutator relation the solve is based on
        e_star = energy_operator(coupled_model, BETA)
        h = 1e-4 * BETA

        def a_of(b):
            return reduced_gibbs_operator(coupled_model, b)

        def central(step):
            return (a_of(BETA + step) - a_of(BETA - step)) / (2.0 * step)

        d = -(4.0 * central(h / 2.0) - central(h)) / 3.0
        a = a_of(BETA)
        residual = np.abs(0.5 * (e_star @ a + a @ e_star) - d).max()
        assert residual <= 1e-8 * np.abs(d).max()

    def test_alternative_definition_same_mean_different_operator(self, coupled_model):
        e_star = energy_operator(coupled_model, BETA)
        # alternative definition d/d(beta) [beta H*_S]
        e_alt = richardson(
            lambda b: b * h_star(coupled_model, b), BETA, 1e-4 * BETA)
        e_alt = 0.5 * (e_alt + e_alt.conj().T)
        a = reduced_gibbs_operator(coupled_model, BETA)
        rho_s = a / np.trace(a).real
        mean = np.trace(e_star @ rho_s).real
        mean_alt = np.trace(e_alt @ rho_s).real
        assert mean_alt == pytest.approx(mean, abs=1e-6)
        assert np.abs(e_star - e_alt).max() > 1e-5

    def test_exact_derivatives_match_richardson(self, coupled_model):
        h = 1e-4 * BETA
        # dA/d(-beta), recovered from E* through the anticommutator it solves
        e_star = energy_operator(coupled_model, BETA)
        a = reduced_gibbs_operator(coupled_model, BETA)
        d_exact = 0.5 * (e_star @ a + a @ e_star)
        d_ref = -richardson(lambda b: reduced_gibbs_operator(coupled_model, b), BETA, h)
        assert np.abs(d_exact - d_ref).max() <= 1e-9 * np.abs(d_ref).max()
        # U_S = -d ln Z*_S / d(beta)
        u_ref = -richardson(lambda b: math.log(z_star(coupled_model, b)), BETA, h)
        assert internal_energy(coupled_model, BETA) == pytest.approx(u_ref, rel=1e-9)


class TestInternalEnergy:
    def test_free_qubit_value(self, free_model):
        expected = QUBIT_OMEGA / (math.exp(BETA * QUBIT_OMEGA) + 1.0)
        assert internal_energy(free_model, BETA) == pytest.approx(expected, abs=1e-8)

    def test_low_temperature_limit_is_ground_energy(self, free_model):
        assert internal_energy(free_model, 50.0) == pytest.approx(0.0, abs=1e-8)


def _assert_fails_both_checks(model, beta):
    """Both checks fail with inf at the point, and every number it returns is NaN."""
    checks = identity_checks("mean_force", "ur_product")
    result, delta_u, product = check_mean_force_point(checks, model, beta, {"beta": beta})
    for check in checks.values():
        assert (check.max_deviation, check.worst_params) == (math.inf, {"beta": beta})
    assert all(map(math.isnan, (result.u_s, result.fisher, delta_u, product)))


class TestInternalEnergyDeviation:
    def test_dual_computation_agrees(self, coupled_model):
        result = internal_energy_deviation(coupled_model, BETA)
        assert result.dual_residual <= 1e-6

    def test_probabilities_and_mean_deviation(self, coupled_model):
        result = internal_energy_deviation(coupled_model, BETA)
        total_p = sum(p for _, p, _ in result.delta_u)
        mean_dev = sum(p * d for _, p, d in result.delta_u)
        assert total_p == pytest.approx(1.0, abs=1e-10)
        assert mean_dev == pytest.approx(0.0, abs=1e-8)

    def test_nan_deviation_fails_the_check(self, coupled_model, monkeypatch):
        from thermoq import mean_force

        monkeypatch.setattr(mean_force, "internal_energy", lambda *a, **k: math.nan)
        checks = identity_checks("mean_force", "ur_product")
        result, _, _ = check_mean_force_point(checks, coupled_model, BETA, {"beta": BETA})
        assert math.isnan(result.dual_residual)
        assert not checks["mean_force"].passed
        assert checks["mean_force"].worst_params == {"beta": BETA}

    def test_a_point_too_cold_for_z_over_z_b_fails_both_checks(self):
        # Z / Z_B = e^{-beta (w_0 - w_B0)} times a shifted ratio; the factor
        # overflows a float at beta = 1e5, and the point computes nothing
        model = build_spin_boson_model(1.0, [BathMode(1.0, 0.1)], 2, coupling_axis="xz")
        with pytest.raises(PartitionOverflowError, match="beta = 100000.0"):
            reduced_gibbs_operator(model, 1e5)
        _assert_fails_both_checks(model, 1e5)

    @pytest.mark.parametrize("beta, message", [(700.0, "Sylvester denominators underflow"),
                                               (800.0, "eigenvalue 0.000e")])
    def test_a_cold_sigma_z_point_fails_both_checks(self, beta, message):
        # sigma_z keeps the reduced Gibbs operator diagonal, and e^{-beta omega_q}
        # underflows: first in the Sylvester denominators, then as the entry itself
        model = build_spin_boson_model(1.0, [BathMode(1.0, 0.1)], 2, coupling_axis="z")
        with pytest.raises(NonPositiveReducedStateError, match=message):
            internal_energy_deviation(model, beta)
        _assert_fails_both_checks(model, beta)

    def test_trace_route_reads_h_not_the_eigenvalues(self):
        # shift the ground eigenvalue of the cached spectrum: the spectral route
        # follows it, the trace route applies the stored H, so the check fails
        model = make_model(n_max=4)
        (index, w, v), = model.spectrum
        shifted = w.copy()
        shifted[np.argmin(w)] += 0.1
        vars(model)["spectrum"] = ((index, shifted, v),)
        checks = identity_checks("mean_force", "ur_product")
        result, _, _ = check_mean_force_point(checks, model, BETA, {"beta": BETA})
        assert result.dual_residual > 1e-3
        assert not checks["mean_force"].passed
        assert checks["mean_force"].max_deviation == result.dual_residual

    def test_rows_and_fisher_keep_the_same_outcomes_at_a_straddled_floor(self, monkeypatch):
        # P_l(beta) alone, (1, n) x (n, L), and as the last stencil row,
        # (5, n) x (n, L), may differ in the last bits; a floor between the two
        # once kept an outcome in the deviation rows that the Fisher sum dropped
        from thermoq import engine

        model = make_model(n_max=3)
        w, g, _ = model.probe_tables
        for beta in np.linspace(0.5, 3.0, 26):
            e_star = internal_energy_deviation(model, beta).e_star
            spread = np.ptp(np.linalg.eigvalsh(e_star))
            meas = eigenbasis_measurement(e_star, 1e-8 * max(spread, 1.0))
            occupation = np.einsum("lst,tsn->ln", meas.projectors.real, g)
            h = 1e-4 * beta
            alone = gibbs_rows(w, [beta])[0] @ occupation.T
            stencil = (gibbs_rows(w, beta + np.array([h, -h, h / 2, -h / 2, 0.0]))
                       @ occupation.T)[4]
            if np.any(alone != stencil):
                break
        else:
            pytest.skip("the two evaluations agree bitwise on this BLAS")
        li = int(np.argmax(alone != stencil))
        lo, hi = sorted((alone[li], stencil[li]))
        floor = np.nextafter(lo, hi)
        assert lo < floor < hi
        monkeypatch.setattr(engine, "PROB_FLOOR", floor)
        result = internal_energy_deviation(model, beta)
        kept = meas.labels[li] in [e for e, _, _ in result.delta_u]
        # the same point at a floor clearly on the side the rows took
        monkeypatch.setattr(engine, "PROB_FLOOR", lo if kept else np.nextafter(hi, 1.0))
        ref = internal_energy_deviation(model, beta)
        assert result.delta_u == ref.delta_u
        assert result.fisher == ref.fisher
        assert result.excluded_probability == ref.excluded_probability

    def test_free_case_deviations_are_spectral(self, free_model):
        result = internal_energy_deviation(free_model, BETA)
        u = internal_energy(free_model, BETA)
        devs = sorted(d for _, _, d in result.delta_u)
        assert devs == pytest.approx([0.0 - u, QUBIT_OMEGA - u], abs=1e-6)


def ur_check(model, beta=BETA):
    return temperature_energy_ur_check(internal_energy_deviation(model, beta))


class TestTemperatureEnergyUR:
    def test_free_qubit_variance(self, free_model):
        delta_u, fisher, product = ur_check(free_model)
        x = math.exp(BETA * QUBIT_OMEGA)
        expected_var = QUBIT_OMEGA**2 * x / (x + 1.0) ** 2
        assert delta_u**2 == pytest.approx(expected_var, rel=1e-6)
        assert product == pytest.approx(1.0, abs=1e-5)

    def test_fisher_equals_energy_variance(self, coupled_model):
        delta_u, fisher, product = ur_check(coupled_model)
        assert fisher == pytest.approx(delta_u**2, rel=1e-5)
        assert product == pytest.approx(1.0, abs=1e-5)

    def test_degenerate_variance_raises(self):
        # zero splitting and no coupling: every outcome has the same energy
        model = build_spin_boson_model(0.0, [BathMode(1.0, 0.0)], 2)
        with pytest.raises(DegenerateVarianceError):
            ur_check(model)

    def test_fisher_is_stored_on_the_result(self, coupled_model):
        result = internal_energy_deviation(coupled_model, BETA)
        _, fisher, _ = temperature_energy_ur_check(result)
        assert fisher == result.fisher > 0


class TestWeakCouplingCollapse:
    def test_energy_operator_collapses_to_system_hamiltonian(self):
        norms = []
        for scale in (1.0, 0.5, 0.25):
            model = make_model(g_scale=scale, axis="x")
            e_star = energy_operator(model, BETA)
            norms.append(np.abs(e_star - model.h_s_local).max())
        assert norms[0] > norms[1] > norms[2]
        model0 = make_model(g_scale=0.0, axis="x")
        e0 = energy_operator(model0, BETA)
        assert np.abs(e0 - model0.h_s_local).max() <= 1e-6


@pytest.mark.parametrize("route", [reduced_gibbs_operator, energy_operator, internal_energy,
                                   internal_energy_deviation])
def test_needs_a_model_with_its_hamiltonian(route):
    # the dephasing model keeps per-mode factors, not H; its spin-boson twin has H
    with pytest.raises(TypeError, match=r"build_spin_boson_model\(0.0, modes, n, 'z'\)"):
        route(build_dephasing_model([BathMode(1.0, 0.1)], 4), 1.0)


class TestOneComputationPerPoint:
    """Each mean-force point runs one deviation; each model one full-Hamiltonian eigh
    and one build of its probe tables, however many betas read them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from thermoq import cli, mean_force, validate

        calls = {"eigh_dims": [], "deviations": 0, "table_dims": []}
        real_eigh = np.linalg.eigh
        real_deviation = mean_force.internal_energy_deviation
        real_tables = CompositeModel.probe_tables.func

        def eigh(matrix, *args, **kwargs):
            calls["eigh_dims"].append(np.shape(matrix)[0])
            return real_eigh(matrix, *args, **kwargs)

        def deviation(*args, **kwargs):
            calls["deviations"] += 1
            return real_deviation(*args, **kwargs)

        def tables(model):
            calls["table_dims"].append(model.space.total_dim)
            return real_tables(model)

        counted = cached_property(tables)
        counted.__set_name__(CompositeModel, "probe_tables")
        monkeypatch.setattr(CompositeModel, "probe_tables", counted)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for module in (mean_force, cli, validate):
            monkeypatch.setattr(module, "internal_energy_deviation", deviation)
        return calls

    def test_cli_runner(self, calls):
        from thermoq.cli import _read_config, _run_mean_force

        rows, checks, _ = _run_mean_force(_read_config({
            "experiment": "mean-force",
            "model": {"omega_q": 1.0, "modes": [[0.9, 0.1], [1.4, 0.1]]},
            "sweep": {"beta": [1.0, 1.2]},
            "numerics": {"n_max": 4},
        }))
        assert len(rows) == 2 and all(c.passed for c in checks)
        # numerics.n_max fixes the cutoffs, so both betas share one model
        assert calls["eigh_dims"].count(2 * 5 * 5) == 1
        assert calls["table_dims"] == [2 * 5 * 5]
        assert calls["deviations"] == 2

    def test_engine_and_deviations_share_one_spectrum(self, calls):
        from thermoq import mean_force
        from thermoq.engine import HeatEngine

        model = make_model(n_max=4)
        HeatEngine(model)
        for beta in (BETA, 1.3 * BETA):
            mean_force.internal_energy_deviation(model, beta)
        assert calls["eigh_dims"].count(model.space.total_dim) == 1
        assert calls["table_dims"] == [model.space.total_dim]
        assert calls["deviations"] == 2

    def test_cross_validate(self, calls, monkeypatch):
        from thermoq import validate

        # only the mean-force draw is under test; skip the engine families
        monkeypatch.setattr(validate, "engine_draws", lambda rng: ())
        dims = []
        real_build = validate.build_spin_boson_model

        def build(*args, **kwargs):
            model = real_build(*args, **kwargs)
            dims.append(model.space.total_dim)
            return model

        monkeypatch.setattr(validate, "build_spin_boson_model", build)
        checks, summary = validate.cross_validate(seed=2, draws=2)
        assert all(c.passed for c in checks) and summary["draws"] == 2
        assert len(dims) == 2
        assert sum(calls["eigh_dims"].count(d) for d in set(dims)) == 2
        assert calls["table_dims"] == dims
        assert calls["deviations"] == 2

    def test_one_reduced_gibbs_operator_and_one_probe_eigh_per_point(self, calls, monkeypatch):
        from thermoq import mean_force

        model = make_model(n_max=4)
        model.probe_tables  # noqa: B018  (the model's one full eigh, before counting)
        gibbs = []
        real_gibbs = mean_force.reduced_gibbs_operator

        def reduced_gibbs(*args, **kwargs):
            gibbs.append(args)
            return real_gibbs(*args, **kwargs)

        monkeypatch.setattr(mean_force, "reduced_gibbs_operator", reduced_gibbs)
        calls["eigh_dims"].clear()
        betas = (BETA, 1.3 * BETA, 0.7 * BETA)
        for beta in betas:
            mean_force.internal_energy_deviation(model, beta)
        assert len(gibbs) == len(betas)
        # one eigh of A per point; the E*-eigenbasis measurement adds its own
        assert calls["eigh_dims"].count(model.system_dim) == 2 * len(betas)
