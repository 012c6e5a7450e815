"""Randomized cross-validation of all identity chains.

Draws small random instances of each thermometer family, then checks, per
draw, that every independent route to the same quantity agrees: direct
score vs heat decomposition, projected-energy trajectory heat vs the
two-point double sum, heat-variance Fisher vs its finite-difference
definition, engine numbers vs closed forms, and the two computations of
the steady-state internal-energy deviation.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from .engine import HeatEngine, precision_bound
from .linalg import truncation_level
from .mean_force import internal_energy_deviation, temperature_energy_ur_check
from .models import (
    BathMode,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    fock_measurement,
    pauli_x_measurement,
)

TOL_SCORE = 1e-8          # score identity, absolute, per outcome
TOL_TWO_POINT = 1e-8      # two-point vs projected trajectory heat, absolute
TOL_FISHER = 1e-5         # finite-difference vs heat-variance Fisher, relative
TOL_CLOSED_FORM = 1e-6    # brute force vs closed forms, relative
TOL_MEAN_FORCE = 1e-6     # dual internal-energy deviation, mixed
TOL_UR_PRODUCT = 1e-5     # Cramer-Rao product at saturation


@dataclass
class IdentityCheck:
    """Worst observed deviation for one identity across all draws."""

    name: str
    tolerance: float
    max_deviation: float = 0.0
    worst_params: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.max_deviation <= self.tolerance

    def update(self, deviation, params):
        """Keep the worst deviation; a NaN one is the worst and fails the check."""
        # once max_deviation is NaN no comparison with it is true, so it stays
        if math.isnan(deviation) or deviation > self.max_deviation:
            self.max_deviation = float(deviation)
            self.worst_params = dict(params)


@dataclass
class ValidationReport:
    seed: int
    draws: int
    checks: list
    elapsed_seconds: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "seed": self.seed,
            "draws": self.draws,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed_seconds,
            "checks": [
                {
                    "name": c.name,
                    "tolerance": c.tolerance,
                    "max_deviation": c.max_deviation,
                    "passed": c.passed,
                    "worst_params": c.worst_params,
                }
                for c in self.checks
            ],
        }


def relative_error(a, b):
    """|a - b| relative to the larger magnitude (floored at 1e-12)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def draw_he_instance(rng, tail=1e-10, n_max_cap=30):
    """Random coupled-oscillator working point with a safe Fock cutoff."""
    omega_0 = rng.uniform(0.9, 1.4)
    delta = rng.uniform(0.0, 0.25)
    g = rng.uniform(0.05, 0.3)
    beta = rng.uniform(1.0, 1.4)
    t = rng.uniform(0.5, 5.0)
    n_max = min(truncation_level(beta, omega_0, tail) + 4, n_max_cap)
    params = dict(omega_a=omega_0 + 2 * delta, omega_0=omega_0, g=g, beta=beta,
                  t=t, n_max=n_max)
    model = build_coupled_oscillators(params["omega_a"], omega_0, g, n_max)
    return params, model


def draw_deph_instance(rng, tail=1e-10, n_max_cap=15):
    """Random dephasing working point; occupation kept low enough that the
    per-mode cutoff cap does not bite."""
    k = int(rng.integers(1, 4))
    # higher frequency floor for more modes keeps occupations (and the
    # needed cutoffs) low enough that the total dimension stays tractable
    floor = {1: 1.2, 2: 1.2, 3: 3.0}[k]
    cap = {1: n_max_cap, 2: 12, 3: 7}[k]
    omegas = rng.uniform(floor, floor + 1.2, size=k)
    gs = rng.uniform(0.05, 0.2, size=k)
    beta = rng.uniform(1.0, 1.5)
    t = rng.uniform(0.5, 4.0)
    modes = [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]
    cutoffs = [min(truncation_level(beta, m.omega, tail) + 3, cap) for m in modes]
    params = dict(modes=[(m.omega, m.g) for m in modes], beta=beta, t=t, cutoffs=cutoffs)
    model = build_dephasing_model(modes, cutoffs)
    return params, model


def draw_mean_force_instance(rng, tail=1e-8):
    """Random qubit + two-mode model with a symmetry-breaking coupling."""
    omega_q = rng.uniform(0.7, 1.3)
    omegas = rng.uniform(0.8, 1.5, size=2)
    gs = rng.uniform(0.05, 0.2, size=2)
    beta = rng.uniform(1.0, 1.4)
    modes = [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]
    cutoffs = [truncation_level(beta, m.omega, tail) + 2 for m in modes]
    params = dict(omega_q=omega_q, modes=[(m.omega, m.g) for m in modes],
                  beta=beta, cutoffs=cutoffs)
    model = build_spin_boson_model(omega_q, modes, cutoffs, coupling_axis="xz")
    return params, model


def _check_instance(checks, params, model, rho0, beta, t, meas, closed):
    """Run the score/two-point/Fisher/closed-form chain on one instance."""
    eng = HeatEngine(model)
    record = eng.heat_decomposition(rho0, beta, t, meas)
    by_label = {o.label: o for o in record.outcomes}

    direct = eng.score_direct_all(rho0, beta, t, meas)
    for label, score in direct.items():
        checks["score"].update(abs(score - by_label[label].score), params)

    chi0 = eng.initial_state_matrix(rho0, beta)
    two_point = eng.two_point_trajectory_heat_all(chi0, t, meas)
    for label, h_tra in two_point.items():
        checks["two_point"].update(abs(h_tra - by_label[label].h_tra), params)

    fisher_fd = eng.fisher_finite_difference(rho0, beta, t, meas)
    checks["fisher"].update(relative_error(fisher_fd, record.fisher_heat), params)

    if closed is not None:
        for label, o in by_label.items():
            # the conditional heats divide traces by P, so below ~1e-6 the
            # absolute trace roundoff swamps the comparison; skip the deep
            # geometric tail (its contribution to any average is negligible)
            if o.probability < 1e-6:
                continue
            p_cf, h_tra_cf, h_cor_cf = closed(label)
            checks["closed_form"].update(relative_error(o.probability, p_cf), params)
            # the heats can be identically zero; compare at the outcome-energy scale
            scale = max(abs(h_cor_cf), abs(h_tra_cf), 1.0)
            checks["closed_form"].update(abs(o.h_tra - h_tra_cf) / scale, params)
            checks["closed_form"].update(abs(o.h_cor - h_cor_cf) / scale, params)
    return record


def cross_validate(seed, draws, progress=None):
    """Run all identity checks on ``draws`` random instances per family."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    checks = {
        "score": IdentityCheck("score-identity (direct vs heat decomposition)", TOL_SCORE),
        "two_point": IdentityCheck("two-point vs projected trajectory heat", TOL_TWO_POINT),
        "fisher": IdentityCheck("Fisher: finite-difference vs heat variance", TOL_FISHER),
        "closed_form": IdentityCheck("closed forms vs brute force", TOL_CLOSED_FORM),
        "mean_force": IdentityCheck("internal-energy deviation, dual computation", TOL_MEAN_FORCE),
        "ur_product": IdentityCheck("temperature-energy UR product at saturation", TOL_UR_PRODUCT),
    }
    start = time.time()
    for i in range(draws):
        if progress:
            progress(i, draws)

        params, model = draw_he_instance(rng)
        he = cf.HEParams(params["omega_a"], params["omega_0"], params["g"],
                         params["beta"], params["t"])
        d_s = model.system_dim
        rho0 = np.zeros((d_s, d_s), complex)
        rho0[0, 0] = 1.0

        def he_closed(label, he=he):
            h_tra, h_cor = cf.he_heat_terms(he, label)
            return cf.he_outcome_probability(he, label), h_tra, h_cor

        _check_instance(checks, {"family": "heat-exchange", **params}, model,
                        rho0, params["beta"], params["t"], fock_measurement(d_s - 1),
                        he_closed)

        params, model = draw_deph_instance(rng)
        dp = cf.DephParams(tuple(BathMode(w, g) for w, g in params["modes"]),
                           params["beta"], params["t"])
        plus = np.full((2, 2), 0.5, complex)

        def deph_closed(label, dp=dp):
            h_tra, h_cor = cf.deph_heat_terms(dp, label)
            return cf.deph_probability(dp, label), h_tra, h_cor

        _check_instance(checks, {"family": "dephasing", **params}, model,
                        plus, params["beta"], params["t"], pauli_x_measurement(),
                        deph_closed)

        params, model = draw_mean_force_instance(rng)
        mf_params = {"family": "mean-force", **params}
        result = internal_energy_deviation(model, params["beta"])
        checks["mean_force"].update(result.dual_residual, mf_params)
        _, _, product = temperature_energy_ur_check(result)
        checks["ur_product"].update(abs(product - 1.0), mf_params)

    return ValidationReport(seed=seed, draws=draws, checks=list(checks.values()),
                            elapsed_seconds=time.time() - start)
