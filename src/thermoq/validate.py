"""Identity checks, shared by the CLI runners and randomized cross-validation.

Each check is defined once here: its name and tolerance (``CHECKS``), the
closed-form reference of each thermometer family, and the comparisons made
at one engine point or one mean-force point. ``cross_validate`` runs them,
plus the direct-score and two-point routes, on random instances of each family.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import closed_form as cf
from .engine import PROB_FLOOR, HeatEngine
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
TOL_AVG_HEAT = 1e-8       # average trajectory heat vs its closed form, absolute
TOL_MEAN_FORCE = 1e-6     # dual internal-energy deviation, mixed
TOL_UR_PRODUCT = 1e-5     # Cramer-Rao product at saturation

# Per-outcome closed-form comparisons skip outcomes with P_l below this. The
# conditional heats divide traces by P_l, so below it the absolute trace
# roundoff, and the truncated bath tail that conditioning amplifies, swamp
# the comparison. The skipped mass is reported with each run.
CLOSED_FORM_MIN_PROB = 1e-6

# check id -> (name, tolerance)
CHECKS = {
    "score": ("score-identity (direct vs heat decomposition)", TOL_SCORE),
    "two_point": ("two-point vs projected trajectory heat", TOL_TWO_POINT),
    "fisher": ("Fisher: finite-difference vs heat variance", TOL_FISHER),
    "closed_form": ("closed forms vs brute force", TOL_CLOSED_FORM),
    "avg_heat": ("average trajectory heat equals Q", TOL_AVG_HEAT),
    "saturation": ("bound saturation: bound*beta*sqrt(F) = 1", TOL_UR_PRODUCT),
    "mean_force": ("internal-energy deviation, dual computation", TOL_MEAN_FORCE),
    "ur_product": ("temperature-energy UR product at saturation", TOL_UR_PRODUCT),
}


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

    def as_dict(self):
        return {"name": self.name, "tolerance": self.tolerance,
                "max_deviation": self.max_deviation, "passed": self.passed,
                "worst_params": self.worst_params}


def identity_checks(*ids):
    """Fresh checks for the given ids of ``CHECKS``, keyed by id."""
    return {i: IdentityCheck(*CHECKS[i]) for i in ids}


@dataclass
class ValidationReport:
    seed: int
    draws: int
    checks: list
    elapsed_seconds: float = 0.0
    closed_form_excluded_probability_max: float = 0.0  # max over draws (check_engine_point)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"seed": self.seed, "draws": self.draws, "passed": self.passed,
                "elapsed_seconds": self.elapsed_seconds,
                "closed_form_min_probability": CLOSED_FORM_MIN_PROB,
                "closed_form_excluded_probability_max":
                    self.closed_form_excluded_probability_max,
                "checks": [c.as_dict() for c in self.checks]}


def relative_error(a, b):
    """|a - b| relative to the larger magnitude (floored at 1e-12)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# -- closed-form references ------------------------------------------------


@dataclass(frozen=True)
class ClosedFormReference:
    """Closed forms of one working point: the targets of ``check_engine_point``."""

    probability: object       # outcome label -> P_l
    heat_terms: object        # outcome label -> (H_tra, H_cor)
    fisher: float
    bound: float              # relative precision bound
    avg_heat: float = None    # average trajectory heat, where the family has one
    columns: dict = field(default_factory=dict)  # extra output columns


def he_reference(he):
    """Closed-form reference of an excitation-exchange working point (``cf.HEParams``)."""
    return ClosedFormReference(partial(cf.he_outcome_probability, he),
                               partial(cf.he_heat_terms, he),
                               cf.he_fisher(he), cf.he_precision_bound(he))


def deph_reference(dp):
    """Closed-form reference of a dephasing working point (``cf.DephParams``)."""
    q = cf.deph_Q(dp)
    return ClosedFormReference(partial(cf.deph_probability, dp),
                               partial(cf.deph_heat_terms, dp),
                               cf.deph_fisher(dp), cf.deph_precision_bound(dp), avg_heat=q,
                               columns={"gamma": cf.deph_gamma(dp), "Q": q, "C": cf.deph_C(dp)})


# -- point checks ----------------------------------------------------------


def check_engine_point(checks, engine, rho0, beta, t, meas, reference, params, h=None):
    """Heat decomposition of one point, checked against the other routes.

    Updates ``checks``: 'fisher' (finite difference vs heat variance),
    'closed_form' (P_l, H_tra, H_cor where P_l >= CLOSED_FORM_MIN_PROB, and
    the Fisher information), 'saturation' (closed-form bound vs
    finite-difference Fisher) and, where the reference has one, 'avg_heat'.
    Returns (record, finite-difference Fisher information, worst closed-form
    deviation, probability mass of the outcomes below the cutoff).
    """
    record = engine.heat_decomposition(rho0, beta, t, meas)
    fisher_fd = engine.fisher_finite_difference(rho0, beta, t, meas, h=h)
    checks["fisher"].update(relative_error(fisher_fd, record.fisher_heat), params)

    devs = [relative_error(record.fisher_heat, reference.fisher)]
    excluded = 0.0
    for o in record.outcomes:
        if o.probability < CLOSED_FORM_MIN_PROB:
            excluded += o.probability
            continue
        h_tra_cf, h_cor_cf = reference.heat_terms(o.label)
        # the heats can be identically zero; compare at the outcome-energy scale
        scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
        devs += [relative_error(o.probability, reference.probability(o.label)),
                 abs(o.h_tra - h_tra_cf) / scale, abs(o.h_cor - h_cor_cf) / scale]
    closed_form_dev = float(np.max(devs))  # NaN propagates
    checks["closed_form"].update(closed_form_dev, params)

    sat = reference.bound * beta * math.sqrt(fisher_fd) if fisher_fd > 0 else math.inf
    checks["saturation"].update(abs(sat - 1.0), params)
    if reference.avg_heat is not None:
        avg_h_tra = sum(o.probability * o.h_tra for o in record.outcomes)
        checks["avg_heat"].update(abs(avg_h_tra - reference.avg_heat), params)
    return record, fisher_fd, closed_form_dev, excluded


def check_mean_force_point(checks, model, beta, params, h_step=None, prob_floor=PROB_FLOOR):
    """Steady-state deviation of one mean-force point and its UR product.

    Updates the 'mean_force' (dual residual) and 'ur_product' checks;
    returns (result, Delta U, UR product).
    """
    result = internal_energy_deviation(model, beta, h_step=h_step, prob_floor=prob_floor)
    delta_u, _, product = temperature_energy_ur_check(result)
    checks["mean_force"].update(result.dual_residual, params)
    checks["ur_product"].update(abs(product - 1.0), params)
    return result, delta_u, product


# -- randomized cross-validation -------------------------------------------


def draw_he_instance(rng, tail=1e-10):
    """Random coupled-oscillator working point with a safe Fock cutoff."""
    omega_0 = rng.uniform(0.9, 1.4)
    delta = rng.uniform(0.0, 0.25)
    g = rng.uniform(0.05, 0.3)
    beta = rng.uniform(1.0, 1.4)
    t = rng.uniform(0.5, 5.0)
    n_max = truncation_level(beta, omega_0, tail) + 4
    params = dict(omega_a=omega_0 + 2 * delta, omega_0=omega_0, g=g, beta=beta,
                  t=t, n_max=n_max)
    model = build_coupled_oscillators(params["omega_a"], omega_0, g, n_max)
    return params, model


def draw_deph_instance(rng, tail=1e-10):
    """Random dephasing working point; each mode's cutoff discards at most ``tail``."""
    k = int(rng.integers(1, 4))
    # higher frequency floor for more modes keeps occupations (and the
    # needed cutoffs) low enough that the total dimension stays tractable
    floor = {1: 1.2, 2: 1.2, 3: 3.0}[k]
    omegas = rng.uniform(floor, floor + 1.2, size=k)
    gs = rng.uniform(0.05, 0.2, size=k)
    beta = rng.uniform(1.0, 1.5)
    t = rng.uniform(0.5, 4.0)
    modes = [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]
    cutoffs = [truncation_level(beta, m.omega, tail) + 3 for m in modes]
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


def _engine_draw(checks, params, model, rho0, meas, reference):
    """Every engine check on one drawn instance, plus the score and two-point routes;
    returns the outcome mass the closed-form comparison left out."""
    beta, t = params["beta"], params["t"]
    eng = HeatEngine(model)
    record, _, _, excluded = check_engine_point(checks, eng, rho0, beta, t, meas,
                                                reference, params)
    by_label = {o.label: o for o in record.outcomes}

    for label, score in eng.score_direct_all(rho0, beta, t, meas).items():
        checks["score"].update(abs(score - by_label[label].score), params)

    for label, h_tra in eng.two_point_trajectory_heat_all(rho0, beta, t, meas).items():
        checks["two_point"].update(abs(h_tra - by_label[label].h_tra), params)
    return excluded


def cross_validate(seed, draws, progress=None):
    """Run all identity checks on ``draws`` random instances per family."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    checks = identity_checks(*CHECKS)
    excluded = []
    start = time.time()
    for i in range(draws):
        if progress:
            progress(i, draws)

        params, model = draw_he_instance(rng)
        he = cf.HEParams(params["omega_a"], params["omega_0"], params["g"],
                         params["beta"], params["t"])
        d_s = model.system_dim
        ground = np.zeros((d_s, d_s), complex)
        ground[0, 0] = 1.0
        excluded.append(_engine_draw(checks, {"family": "heat-exchange", **params}, model,
                                     ground, fock_measurement(d_s - 1), he_reference(he)))

        params, model = draw_deph_instance(rng)
        dp = cf.DephParams(tuple(BathMode(w, g) for w, g in params["modes"]),
                           params["beta"], params["t"])
        excluded.append(_engine_draw(checks, {"family": "dephasing", **params}, model,
                                     np.full((2, 2), 0.5, complex), pauli_x_measurement(),
                                     deph_reference(dp)))

        params, model = draw_mean_force_instance(rng)
        check_mean_force_point(checks, model, params["beta"], {"family": "mean-force", **params})

    return ValidationReport(seed=seed, draws=draws, checks=list(checks.values()),
                            elapsed_seconds=time.time() - start,
                            closed_form_excluded_probability_max=max(excluded))
