"""Identity checks, shared by the CLI runners and randomized cross-validation.

Each check is defined once here: its name and tolerance (``CHECKS``), each
thermometer's ``WorkingPoint`` (start state, beta, t and closed forms), the
comparisons made at one engine point or one mean-force point, and each family's
automatic Fock cutoff (``CUTOFFS``). No run configuration sets a tolerance, the
finite-difference step (``engine.log_scores``), the probability floor
(``engine.PROB_FLOOR``) or a cutoff's tail or margin.
``cross_validate`` runs all but the scaling slope on random instances of each
family; ``verification`` is the one report that runs and cross-validation write.
"""

import math
import resource
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import closed_form as cf
from .engine import HeatEngine
from .linalg import truncation_level
from .mean_force import (
    DegenerateVarianceError,
    MeanForceResult,
    NonPositiveReducedStateError,
    PartitionOverflowError,
    internal_energy_deviation,
    temperature_energy_ur_check,
)
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
TOL_SCALING_SLOPE = 0.1   # fitted low-temperature log-log slope vs its exponent, absolute

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
    "scaling_slope": ("scaling slope vs expected exponent", TOL_SCALING_SLOPE),
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


def verification(checks, summary):
    """The verification report of a list of checks and a run's summary, and the
    process's ``peak_rss_mb`` so far."""
    return {"passed": all(c.passed for c in checks),
            "checks": [c.as_dict() for c in checks], **summary, "peak_rss_mb": _peak_rss_mb()}


def _peak_rss_mb():
    """The process's peak resident set size so far, in MiB: ``ru_maxrss``, which
    Linux counts in KiB and macOS in bytes. A process that makes several calls
    reads the peak of all of them so far, not of the last one."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def relative_error(a, b):
    """|a - b| relative to the larger magnitude (floored at 1e-12)."""
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


# -- working points --------------------------------------------------------


@dataclass(frozen=True)
class WorkingPoint:
    """One thermometer point: the probe's start state, beta and t, and the
    closed forms ``check_engine_point`` compares the engine's heats with."""

    rho0: np.ndarray          # probe start state
    beta: float
    t: float
    probability: object       # outcome label -> P_l
    heat_terms: object        # outcome label -> (H_tra, H_cor)
    fisher: float
    bound: float              # relative precision bound
    avg_heat: float           # average trajectory heat
    columns: dict = field(default_factory=dict)  # extra output columns


def he_point(he, n_max):
    """Excitation-exchange working point (``cf.HEParams``): the probe starts in
    the vacuum of its n_max + 1 levels and is read by Fock counting."""
    vacuum = np.zeros((n_max + 1, n_max + 1), complex)
    vacuum[0, 0] = 1.0
    # H_tra = l omega_0 and <l> = n, so <H_tra> = omega_0 n
    return WorkingPoint(vacuum, he.beta, he.t, partial(cf.he_outcome_probability, he),
                        partial(cf.he_heat_terms, he), cf.he_fisher(he),
                        cf.he_precision_bound(he), he.omega_0 * cf.he_mean_excitation(he))


def deph_point(dp):
    """Dephasing working point (``cf.DephParams``): the qubit starts in |+> and
    is read by sigma_x."""
    return WorkingPoint(np.full((2, 2), 0.5, complex), dp.beta, dp.t,
                        partial(cf.deph_probability, dp), partial(cf.deph_heat_terms, dp),
                        cf.deph_fisher(dp), cf.deph_precision_bound(dp), avg_heat=dp.Q,
                        columns={"gamma": dp.gamma, "Q": dp.Q, "C": dp.C})


# -- point checks ----------------------------------------------------------


def check_engine_point(checks, engine, meas, point, params):
    """Heat decomposition of one ``WorkingPoint``, checked against the other routes.

    Updates ``checks``: 'fisher' (finite difference vs heat variance),
    'closed_form' (P_l, H_tra, H_cor where P_l >= CLOSED_FORM_MIN_PROB, and
    the Fisher information), 'saturation' (closed-form bound vs
    finite-difference Fisher), 'avg_heat' (the outcome-averaged trajectory
    heat vs the point's), and where their ids are in ``checks`` 'score'
    (the finite-difference d ln P_l / d(-beta) of ``score_direct_all`` vs the
    decomposition's score) and 'two_point' (two-point vs projected trajectory
    heat), each per outcome. An outcome with nothing to compare fails its
    check with deviation inf: 'closed_form' for one the closed form
    suppresses (``cf.SuppressedOutcomeError``), 'score' or 'two_point' for
    one that route or the heat decomposition left out (below its floor),
    named as 'label' in ``worst_params``. Returns (record, finite-difference
    Fisher information, worst closed-form deviation, probability mass of the
    outcomes below the cutoff).
    """
    rho0, beta, t = point.rho0, point.beta, point.t
    record = engine.heat_decomposition(rho0, beta, t, meas)
    fisher_fd = engine.fisher_finite_difference(rho0, beta, t, meas)
    checks["fisher"].update(relative_error(fisher_fd, record.fisher_heat), params)

    devs = [relative_error(record.fisher_heat, point.fisher)]
    excluded = 0.0
    for o in record.outcomes:
        if o.probability < CLOSED_FORM_MIN_PROB:
            excluded += o.probability
            continue
        try:
            h_tra_cf, h_cor_cf = point.heat_terms(o.label)
        except cf.SuppressedOutcomeError:
            # the engine sees an outcome the closed form gives no probability
            devs.append(math.inf)
            continue
        # the heats can be identically zero; compare at the outcome-energy scale
        scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
        devs += [relative_error(o.probability, point.probability(o.label)),
                 abs(o.h_tra - h_tra_cf) / scale, abs(o.h_cor - h_cor_cf) / scale]
    closed_form_dev = float(np.max(devs))  # NaN propagates
    checks["closed_form"].update(closed_form_dev, params)

    sat = point.bound * beta * math.sqrt(fisher_fd) if fisher_fd > 0 else math.inf
    checks["saturation"].update(abs(sat - 1.0), params)
    avg_h_tra = sum(o.probability * o.h_tra for o in record.outcomes)
    checks["avg_heat"].update(abs(avg_h_tra - point.avg_heat), params)

    by_label = {o.label: o for o in record.outcomes}
    for check_id, route, field_name in (
            ("score", engine.score_direct_all, "score"),
            ("two_point", engine.two_point_trajectory_heat_all, "h_tra")):
        if check_id not in checks:
            continue
        values = route(rho0, beta, t, meas)
        for label in dict.fromkeys([*values, *by_label]):
            o, value = by_label.get(label), values.get(label)
            if o is None or value is None:  # an outcome one side left below its floor
                checks[check_id].update(math.inf, {**params, "label": label})
            else:
                checks[check_id].update(abs(value - getattr(o, field_name)), params)
    return record, fisher_fd, closed_form_dev, excluded


def check_mean_force_point(checks, model, beta, params):
    """Steady-state deviation of one mean-force point and its UR product.

    Updates the 'mean_force' (dual residual) and 'ur_product' checks;
    returns (result, Delta U, UR product). A point whose energy variance
    vanishes has no UR product: it fails 'ur_product' with deviation inf,
    and its Delta U and product are NaN. A point too cold for Z / Z_B to be a
    float (``PartitionOverflowError``), or for the reduced Gibbs operator to
    stay positive in floats (``NonPositiveReducedStateError``), has neither:
    it fails both checks with deviation inf, and every number of its result
    is NaN.
    """
    try:
        result = internal_energy_deviation(model, beta)
    except (PartitionOverflowError, NonPositiveReducedStateError):
        for check_id in ("mean_force", "ur_product"):
            checks[check_id].update(math.inf, params)
        nan = math.nan
        return MeanForceResult(None, None, nan, nan, (), nan, nan, nan, nan), nan, nan
    checks["mean_force"].update(result.dual_residual, params)
    try:
        delta_u, _, product = temperature_energy_ur_check(result)
    except DegenerateVarianceError:
        checks["ur_product"].update(math.inf, params)
        return result, math.nan, math.nan
    checks["ur_product"].update(abs(product - 1.0), params)
    return result, delta_u, product


def check_scaling(checks, points, expected):
    """Log-log fit of a scaling sweep's (beta, bound) points: updates the
    'scaling_slope' check with |slope - expected| and returns (slope, intercept, r^2).
    A sweep with no fit (``cf.ScalingFitError``: a bound that is not finite, say)
    fails it with deviation inf at the 'beta' at fault, and its fit is NaN."""
    try:
        slope, intercept, r2 = cf.scaling_fit(points)
    except cf.ScalingFitError as exc:
        checks["scaling_slope"].update(math.inf, {"beta": exc.beta})
        return math.nan, math.nan, math.nan
    checks["scaling_slope"].update(abs(slope - expected), {"slope": slope, "expected": expected})
    return slope, intercept, r2


# -- randomized cross-validation -------------------------------------------

# family -> (thermal tail, margin) of the automatic Fock cutoff of one mode
CUTOFFS = {"heat-exchange": (1e-10, 4), "dephasing": (1e-10, 3), "mean-force": (1e-8, 2)}


def auto_cutoff(family, beta, omega):
    """Automatic Fock cutoff of one mode, shared by the CLI runners and the draws
    below: ``truncation_level`` at the family's tail plus its margin."""
    tail, margin = CUTOFFS[family]
    return truncation_level(beta, omega, tail) + margin


# cross_validate draws these in this order on one RNG; perfbench's predict_draw relies on it
def draw_he_instance(rng):
    """Random coupled-oscillator working point with a safe Fock cutoff."""
    omega_0 = rng.uniform(0.9, 1.4)
    delta = rng.uniform(0.0, 0.25)
    g = rng.uniform(0.05, 0.3)
    beta = rng.uniform(1.0, 1.4)
    t = rng.uniform(0.5, 5.0)
    n_max = auto_cutoff("heat-exchange", beta, omega_0)
    params = dict(omega_a=omega_0 + 2 * delta, omega_0=omega_0, g=g, beta=beta,
                  t=t, n_max=n_max)
    model = build_coupled_oscillators(params["omega_a"], omega_0, g, n_max)
    return params, model


def draw_deph_instance(rng):
    """Random dephasing working point with the automatic cutoff of each mode."""
    k = int(rng.integers(1, 4))
    # higher frequency floor for more modes keeps occupations (and the
    # needed cutoffs) low enough that the total dimension stays tractable
    floor = {1: 1.2, 2: 1.2, 3: 3.0}[k]
    omegas = rng.uniform(floor, floor + 1.2, size=k)
    gs = rng.uniform(0.05, 0.2, size=k)
    beta = rng.uniform(1.0, 1.5)
    t = rng.uniform(0.5, 4.0)
    modes = [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]
    cutoffs = [auto_cutoff("dephasing", beta, m.omega) for m in modes]
    params = dict(modes=[(m.omega, m.g) for m in modes], beta=beta, t=t, cutoffs=cutoffs)
    model = build_dephasing_model(modes, cutoffs)
    return params, model


def draw_mean_force_instance(rng):
    """Random qubit + two-mode model with a symmetry-breaking coupling."""
    omega_q = rng.uniform(0.7, 1.3)
    omegas = rng.uniform(0.8, 1.5, size=2)
    gs = rng.uniform(0.05, 0.2, size=2)
    beta = rng.uniform(1.0, 1.4)
    modes = [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]
    cutoffs = [auto_cutoff("mean-force", beta, m.omega) for m in modes]
    params = dict(omega_q=omega_q, modes=[(m.omega, m.g) for m in modes],
                  beta=beta, cutoffs=cutoffs)
    model = build_spin_boson_model(omega_q, modes, cutoffs, coupling_axis="xz")
    return params, model


def engine_draws(rng):
    """One round's heat-exchange draw, then its dephasing draw, each as (params
    naming the family, model, measurement, ``WorkingPoint``)."""
    params, model = draw_he_instance(rng)
    he = cf.HEParams(params["omega_a"], params["omega_0"], params["g"], params["beta"],
                     params["t"])
    yield ({"family": "heat-exchange", **params}, model, fock_measurement(params["n_max"]),
           he_point(he, params["n_max"]))
    params, model = draw_deph_instance(rng)
    dp = cf.DephParams(tuple(BathMode(w, g) for w, g in params["modes"]), params["beta"],
                       params["t"])
    yield {"family": "dephasing", **params}, model, pauli_x_measurement(), deph_point(dp)


def cross_validate(seed, draws, progress=None):
    """Run every check but the scaling slope, which no draw fits, on ``draws``
    random instances per family; returns (checks, summary), as a runner does."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    checks = identity_checks(*(i for i in CHECKS if i != "scaling_slope"))
    excluded = []
    routes = {}
    start = time.perf_counter()
    for i in range(draws):
        if progress:
            progress(i, draws)

        for params, model, meas, point in engine_draws(rng):
            engine = HeatEngine(model)
            routes.setdefault(params["family"], set()).add(engine.route)
            record, _, _, point_excluded = check_engine_point(checks, engine, meas, point, params)
            excluded.append((point_excluded, record.excluded_probability))

        params, model = draw_mean_force_instance(rng)
        result, _, _ = check_mean_force_point(checks, model, params["beta"],
                                              {"family": "mean-force", **params})
        # no closed-form comparison here; only the mass below the floor counts
        excluded.append((0.0, result.excluded_probability))

    closed_form_excluded, floor_excluded = np.max(excluded, axis=0)
    return list(checks.values()), {
        "seed": seed, "draws": draws, "elapsed_seconds": time.perf_counter() - start,
        "closed_form_min_probability": CLOSED_FORM_MIN_PROB,
        "closed_form_excluded_probability_max": float(closed_form_excluded),
        "prob_floor_excluded_probability_max": float(floor_excluded),
        "engine_routes": {f: sorted(r) for f, r in routes.items()}}
