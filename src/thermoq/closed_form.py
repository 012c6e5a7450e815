"""Analytic results for both thermometer families, plus scaling-law fits.

These formulas are the cross-validation targets for the numerical engine:
geometric outcome law and heat terms for the excitation-exchange pair,
decoherence factor and heat terms for the dephasing probe, the associated
precision bounds, and the low-temperature scaling pipelines.

Every closed form follows one pattern: a working point's parameter object
(``HEParams``, ``DephParams``) forms its derived quantities once, in
``__post_init__``, as fields, and the closed forms only read those fields.
``dataclasses.replace`` runs ``__post_init__`` again, so the fields follow a
changed parameter.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import _require_positive_beta
from .linalg import read_only
from .models import SpectralDensity, discretize_spectral_density


def _nbar(beta, omega):
    """Thermal occupation 1/(e^{beta omega} - 1), elementwise over omega, 0 where
    beta omega > 700 (overflow-safe)."""
    x = beta * np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(x > 700, 0.0, 1.0 / np.expm1(np.minimum(x, 700)))


def _set_fields(obj, **values):
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class HEParams:
    """Coupled-oscillator thermometer working point.

    Computed once, at construction, and read by every closed form: ``rabi``,
    the effective oscillation frequency E = sqrt(delta^2 + g^2) with detuning
    delta = (omega_a - omega_0)/2; ``nbar_b``, the sample's thermal occupation
    at omega_0; and ``n``, the mean thermometer excitation
    n(t) = nbar_b g^2/E^2 sin^2(E t) (0 where E = 0).
    """

    omega_a: float
    omega_0: float
    g: float
    beta: float
    t: float
    rabi: float = field(init=False)
    nbar_b: float = field(init=False)
    n: float = field(init=False)

    def __post_init__(self):
        _require_positive_beta(self.beta)
        if not (0 < self.omega_a < math.inf and 0 < self.omega_0 < math.inf
                and 0 <= self.t < math.inf):
            raise ValueError(f"require positive frequencies and t >= 0, each finite, got "
                             f"omega_a = {self.omega_a!r}, omega_0 = {self.omega_0!r}, "
                             f"t = {self.t!r}")
        if math.isnan(self.g):
            raise ValueError("the coupling g is NaN")
        rabi = math.hypot((self.omega_a - self.omega_0) / 2.0, self.g)
        nbar_b = float(_nbar(self.beta, self.omega_0))
        n = 0.0 if rabi == 0.0 else nbar_b * (self.g / rabi) ** 2 * math.sin(rabi * self.t) ** 2
        _set_fields(self, rabi=rabi, nbar_b=nbar_b, n=n)


def he_outcome_probability(p: HEParams, l):
    """Geometric outcome law P_l = n^l / (1+n)^{l+1}."""
    if l < 0:
        raise ValueError("outcome l must be nonnegative")
    if p.n == 0.0:
        return 1.0 if l == 0 else 0.0
    return p.n**l / (1.0 + p.n) ** (l + 1)


def he_heat_terms(p: HEParams, l):
    """(trajectory heat, correlation heat) for outcome l.

    H_tra = l omega_0; H_cor = (nbar_b - n)/(1 + n) * (l - n) omega_0.
    """
    return l * p.omega_0, (p.nbar_b - p.n) / (1.0 + p.n) * (l - p.n) * p.omega_0


def he_fisher(p: HEParams):
    """Closed-form Fisher information omega_0^2 (1+nbar_b)^2 n/(1+n)."""
    return p.omega_0**2 * (1.0 + p.nbar_b) ** 2 * p.n / (1.0 + p.n)


def he_precision_bound(p: HEParams):
    """Relative bound Delta beta/beta = sqrt((1+n)/n) / (beta omega_0 (1+nbar_b))."""
    if p.n <= 0.0:
        return math.inf
    return math.sqrt((1.0 + p.n) / p.n) / (p.beta * p.omega_0 * (1.0 + p.nbar_b))


def he_optimal_time(p: HEParams):
    """Evolution time pi / (2 E), the first to maximize the excitation swap."""
    if p.rabi == 0.0:
        raise ValueError("no half-swap time without coupling or detuning (g = delta = 0)")
    return 0.5 * math.pi / p.rabi


@dataclass(frozen=True)
class DephParams:
    """Dephasing thermometer working point over explicit modes.

    Computed once, at construction, and read by every closed form: the
    per-mode read-only arrays ``omegas`` w_k, ``couplings`` g_k, ``nbars``
    n_k (the thermal occupations) and ``one_minus_cos`` 1 - cos w_k t, which
    take no part in ``==`` or ``hash``; ``gamma``, the decoherence exponent
    4 sum_k g_k^2/w_k^2 (2n_k+1)(1-cos w_k t); ``Q``, the average heat
    -2 sum_k g_k^2/w_k (1-cos w_k t); and ``C``, the thermal-fluctuation weight
    -4 sum_k g_k^2/w_k n_k(1+n_k)(1-cos w_k t). A coupling whose square passes
    the float range is a ``ValueError`` naming its mode.
    """

    modes: tuple
    beta: float
    t: float
    omegas: np.ndarray = field(init=False, repr=False, compare=False)
    couplings: np.ndarray = field(init=False, repr=False, compare=False)
    nbars: np.ndarray = field(init=False, repr=False, compare=False)
    one_minus_cos: np.ndarray = field(init=False, repr=False, compare=False)
    gamma: float = field(init=False)
    Q: float = field(init=False)
    C: float = field(init=False)

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("at least one mode required")
        _require_positive_beta(self.beta)
        if not 0 <= self.t < math.inf:
            raise ValueError(f"require finite t >= 0, got {self.t!r}")
        w = np.array([m.omega for m in modes])
        g = np.array([m.g for m in modes])
        for k, g_k in enumerate(g.tolist()):
            if math.isinf(g_k * g_k):
                raise ValueError(f"mode {k} coupling g = {g_k!r}: g^2 passes the float range")
        nk, one_minus_cos = _nbar(self.beta, w), 1.0 - np.cos(w * self.t)
        g2 = g**2
        _set_fields(self, modes=modes, omegas=w, couplings=g, nbars=nk,
                    one_minus_cos=one_minus_cos,
                    gamma=float(4.0 * np.sum(g2 / w**2 * (2.0 * nk + 1.0) * one_minus_cos)),
                    Q=float(-2.0 * np.sum(g2 / w * one_minus_cos)),
                    C=float(-4.0 * np.sum(g2 / w * nk * (1.0 + nk) * one_minus_cos)))
        read_only((w, g, nk, one_minus_cos))


class SuppressedOutcomeError(ValueError):
    """An outcome's closed-form probability is below ``engine.PROB_FLOOR``, the
    floor every engine route keeps outcomes by (read at each call), so it has
    no conditional heat."""


def deph_probability(p: DephParams, l):
    """P_l = (1 + l e^{-Gamma})/2 for the x-basis outcome l = +/-1."""
    if l not in (1, -1):
        raise ValueError("dephasing outcome label must be +1 or -1")
    return 0.5 * (1.0 + l * math.exp(-p.gamma))


def deph_heat_terms(p: DephParams, l):
    """(trajectory heat, correlation heat) for x-basis outcome l = +/-1."""
    q, c = p.Q, p.C
    visibility = math.exp(-p.gamma)
    p_l = 0.5 * (1.0 + l * visibility)
    if p_l < engine.PROB_FLOOR:
        raise SuppressedOutcomeError(f"outcome {l} suppressed: probability {p_l:.3e}")
    ratio = l * visibility / p_l
    return q - ratio * q, ratio * (q + c)


def _expm1_2gamma(p: DephParams):
    """e^{2 Gamma} - 1, inf once it overflows a float (Gamma > 354.9)."""
    try:
        return math.expm1(2.0 * p.gamma)
    except OverflowError:
        return math.inf


def deph_fisher(p: DephParams):
    """Two-outcome Fisher information 4 C^2 / (e^{2 Gamma} - 1); 0 where C = 0, the
    limit at a revival of every mode (Gamma = C = 0), and its limit 0 where
    e^{2 Gamma} overflows."""
    if p.C == 0.0:
        return 0.0
    return 4.0 * p.C**2 / _expm1_2gamma(p)


def deph_precision_bound(p: DephParams):
    """Relative bound sqrt(e^{2 Gamma} - 1) / (2 beta |C|); inf where C = 0 or
    e^{2 Gamma} overflows."""
    if p.C == 0.0:
        return math.inf
    return math.sqrt(_expm1_2gamma(p)) / (2.0 * p.beta * abs(p.C))


# -- scaling experiments ---------------------------------------------------


class ScalingFitError(ValueError):
    """A beta sweep admits no log-log fit; ``beta``: the point at fault, if one is."""

    def __init__(self, message, beta=None):
        super().__init__(message)
        self.beta = beta


def scaling_fit(points):
    """Least-squares log-log fit of bound vs beta: (slope, intercept, r^2); a
    ``ScalingFitError`` for fewer than 4 distinct betas, or at the first point whose
    beta is not positive or whose bound is not positive and finite."""
    pts = [(float(b), float(v)) for b, v in points]
    if len({b for b, _ in pts}) < 4:
        raise ScalingFitError(f"a scaling fit needs at least 4 distinct betas: {pts}")
    for b, v in pts:
        if not (b > 0 and 0 < v < math.inf):
            raise ScalingFitError(f"a scaling fit needs positive betas and positive finite "
                                  f"bounds, got bound {v!r} at beta = {b!r}", beta=b)
    x = np.log([b for b, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def he_scaling_points(j: SpectralDensity, betas, delta_ratio=0.1, time_factor=0.3):
    """Single-mode-approximation bound over a beta sweep.

    Per beta: sample frequency omega_0 = 1/beta, effective coupling
    g^2 = integral of J up to omega_0 (``SpectralDensity.integral``),
    detuning = delta_ratio * g. The evolution time is held fixed across the
    sweep (short compared with every Rabi period, time_factor/E at the
    smallest beta) so the bound tracks the shrinking coupling. The points
    keep the order of betas.
    """
    params = []
    for beta in map(float, betas):
        omega_0 = 1.0 / beta
        g = math.sqrt(j.integral(omega_0))
        params.append((beta, omega_0, g, delta_ratio * g))
    _, _, g_0, delta_0 = min(params)  # the smallest beta's
    if not 0.0 < g_0 < math.inf:
        # the integral of J underflows to 0 (then at every beta) or overflows a float
        # at the smallest beta: with no finite coupling there is no Rabi period to
        # fix t by, and no bound is finite
        return [(beta, math.inf) for beta, *_ in params]
    t = time_factor / math.hypot(delta_0, g_0)
    return [
        (beta, he_precision_bound(HEParams(omega_0 + 2 * delta, omega_0, g, beta, t)))
        for beta, omega_0, g, delta in params
    ]


def deph_scaling_points(j: SpectralDensity, betas, t=None, k_modes=2000, omega_max=None):
    """Dephasing bound over a beta sweep at fixed evolution time.

    Default t = 1/(10 omega_c); modes come from the midpoint discretization
    of J up to omega_max (default 10 omega_c).
    """
    if t is None:
        t = 1.0 / (10.0 * j.omega_c)
    if omega_max is None:
        omega_max = 10.0 * j.omega_c
    modes = tuple(discretize_spectral_density(j, k_modes, omega_max))
    if any(math.isinf(m.g * m.g) for m in modes):
        # J overflows a float at some mode: that mode's coupling, or its square,
        # is infinite, and no bound is finite
        return [(float(beta), math.inf) for beta in betas]
    return [
        (float(beta), deph_precision_bound(DephParams(modes, float(beta), t)))
        for beta in betas
    ]
