"""Steady-state machinery: mean-force Hamiltonian, energy operator, energy UR."""

import math

import numpy as np
import pytest

from thermoq.mean_force import (
    DegenerateVarianceError,
    energy_operator,
    internal_energy,
    internal_energy_deviation,
    mean_force_hamiltonian,
    reduced_gibbs_operator,
    temperature_energy_ur_check,
    z_star,
)
from thermoq.models import BathMode, build_spin_boson_model

QUBIT_OMEGA = 1.0
MODES = [BathMode(0.8, 0.15), BathMode(1.3, 0.15)]
BETA = 1.0


def richardson(f, x, h):
    """d f/dx by central differences, one Richardson step (test-side reference)."""

    def central(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


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
    def test_free_case_reduces_to_system_hamiltonian(self, free_model):
        h_star = mean_force_hamiltonian(free_model, BETA).matrix
        diff = h_star - free_model.h_s_local
        # equal up to an additive constant (here exactly zero)
        assert np.abs(diff - diff[0, 0] * np.eye(2)).max() < 1e-10
        assert abs(diff[0, 0]) < 1e-10

    def test_reconstructs_reduced_thermal_state(self, coupled_model):
        h_star = mean_force_hamiltonian(coupled_model, BETA).matrix
        w, v = np.linalg.eigh(h_star)
        boltz = np.exp(-BETA * w)
        rho_rebuilt = (v * (boltz / boltz.sum())) @ v.conj().T
        a = reduced_gibbs_operator(coupled_model, BETA)
        rho_s = a / np.trace(a).real
        assert np.abs(rho_rebuilt - rho_s).max() < 1e-10

    def test_genuinely_beta_dependent_at_strong_coupling(self, coupled_model):
        h1 = mean_force_hamiltonian(coupled_model, BETA).matrix
        h2 = mean_force_hamiltonian(coupled_model, 2.0 * BETA).matrix
        assert np.abs(h1 - h2).max() > 1e-4

    def test_z_star_is_partition_ratio(self, free_model):
        # H_I = 0: Z*_S is the bare system partition function
        expected = 1.0 + math.exp(-BETA * QUBIT_OMEGA)
        assert z_star(free_model, BETA) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_beta(self, coupled_model):
        with pytest.raises(ValueError):
            reduced_gibbs_operator(coupled_model, 0.0)


class TestEnergyOperator:
    def test_free_case_equals_system_hamiltonian(self, free_model):
        e_star = energy_operator(free_model, BETA).matrix
        assert np.abs(e_star - free_model.h_s_local).max() < 1e-6

    def test_expectation_equals_internal_energy(self, coupled_model):
        e_star = energy_operator(coupled_model, BETA).matrix
        a = reduced_gibbs_operator(coupled_model, BETA)
        rho_s = a / np.trace(a).real
        u = internal_energy(coupled_model, BETA)
        assert np.trace(e_star @ rho_s).real == pytest.approx(u, abs=1e-6)

    def test_derivative_relation_residual(self, coupled_model):
        # recompute the anticommutator relation the solve is based on
        e_star = energy_operator(coupled_model, BETA).matrix
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
        e_star = energy_operator(coupled_model, BETA).matrix
        # alternative definition d/d(beta) [beta H*_S]
        e_alt = richardson(
            lambda b: b * mean_force_hamiltonian(coupled_model, b).matrix, BETA, 1e-4 * BETA)
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
        e_star = energy_operator(coupled_model, BETA).matrix
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

    def test_nan_deviation_raises(self, coupled_model, monkeypatch):
        from thermoq import mean_force

        monkeypatch.setattr(mean_force, "internal_energy", lambda *a, **k: math.nan)
        with pytest.raises(mean_force.IdentityViolationError):
            internal_energy_deviation(coupled_model, BETA)

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

    def test_rejects_bad_finite_difference_step(self, coupled_model):
        for h in (0.0, -1e-4, BETA):
            with pytest.raises(ValueError):
                internal_energy_deviation(coupled_model, BETA, h_step=h)


class TestWeakCouplingCollapse:
    def test_energy_operator_collapses_to_system_hamiltonian(self):
        norms = []
        for scale in (1.0, 0.5, 0.25):
            model = make_model(g_scale=scale, axis="x")
            e_star = energy_operator(model, BETA).matrix
            norms.append(np.abs(e_star - model.h_s_local).max())
        assert norms[0] > norms[1] > norms[2]
        model0 = make_model(g_scale=0.0, axis="x")
        e0 = energy_operator(model0, BETA).matrix
        assert np.abs(e0 - model0.h_s_local).max() <= 1e-6


class TestOneComputationPerPoint:
    """Each mean-force point runs one full-Hamiltonian eigh and one deviation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from thermoq import cli, mean_force, validate

        calls = {"eigh_dims": [], "deviations": 0}
        real_eigh = np.linalg.eigh
        real_deviation = mean_force.internal_energy_deviation

        def eigh(matrix, *args, **kwargs):
            calls["eigh_dims"].append(np.shape(matrix)[0])
            return real_eigh(matrix, *args, **kwargs)

        def deviation(*args, **kwargs):
            calls["deviations"] += 1
            return real_deviation(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for module in (mean_force, cli, validate):
            monkeypatch.setattr(module, "internal_energy_deviation", deviation)
        return calls

    def test_cli_runner(self, calls):
        from thermoq.cli import _run_mean_force

        rows, checks, _ = _run_mean_force({
            "experiment": "mean-force",
            "model": {"omega_q": 1.0, "modes": [[0.9, 0.1], [1.4, 0.1]]},
            "sweep": {"beta": [1.0, 1.2]},
            "numerics": {"n_max": 4},
        })
        assert len(rows) == 2 and all(c.passed for c in checks)
        assert calls["eigh_dims"].count(2 * 5 * 5) == 2
        assert calls["deviations"] == 2

    def test_engine_and_deviations_share_one_spectrum(self, calls):
        from thermoq import mean_force
        from thermoq.engine import HeatEngine

        model = make_model(n_max=4)
        HeatEngine(model)
        for beta in (BETA, 1.3 * BETA):
            mean_force.internal_energy_deviation(model, beta)
        assert calls["eigh_dims"].count(model.space.total_dim) == 1
        assert calls["deviations"] == 2

    def test_cross_validate(self, calls, monkeypatch):
        from thermoq import validate

        # only the mean-force draw is under test; skip the engine families
        monkeypatch.setattr(validate, "_engine_draw", lambda *args: 0.0)
        dims = []
        real_build = validate.build_spin_boson_model

        def build(*args, **kwargs):
            model = real_build(*args, **kwargs)
            dims.append(model.space.total_dim)
            return model

        monkeypatch.setattr(validate, "build_spin_boson_model", build)
        report = validate.cross_validate(seed=2, draws=2)
        assert report.passed
        assert len(dims) == 2
        assert sum(calls["eigh_dims"].count(d) for d in set(dims)) == 2
        assert calls["deviations"] == 2
