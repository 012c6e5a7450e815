"""Analytic results for both thermometer families, plus scaling-law fits.

These formulas are the cross-validation targets for the numerical engine:
geometric outcome law and heat terms for the excitation-exchange pair,
decoherence factor and heat terms for the dephasing probe, the associated
precision bounds, and the low-temperature scaling pipelines.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import _require_positive_beta
from .models import SpectralDensity, discretize_spectral_density


def _nbar(beta, omega):
    """Thermal occupation 1/(e^{beta omega} - 1), overflow-safe."""
    x = beta * omega
    if x > 700:
        return 0.0
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class HEParams:
    """Coupled-oscillator thermometer working point."""

    omega_a: float
    omega_0: float
    g: float
    beta: float
    t: float

    def __post_init__(self):
        _require_positive_beta(self.beta)
        if not (self.omega_a > 0 and self.omega_0 > 0 and self.t >= 0):
            raise ValueError(f"require positive frequencies and t >= 0, got omega_a = "
                             f"{self.omega_a!r}, omega_0 = {self.omega_0!r}, t = {self.t!r}")
        if math.isnan(self.g):
            raise ValueError("the coupling g is NaN")

    @property
    def detuning(self):
        return (self.omega_a - self.omega_0) / 2.0

    @property
    def rabi(self):
        """Effective oscillation frequency sqrt(detuning^2 + g^2)."""
        return math.hypot(self.detuning, self.g)

    @property
    def nbar_b(self):
        return _nbar(self.beta, self.omega_0)


def he_mean_excitation(p: HEParams):
    """Mean thermometer excitation n(t) = nbar_b g^2/E^2 sin^2(E t)."""
    e = p.rabi
    if e == 0.0:
        return 0.0
    return p.nbar_b * (p.g / e) ** 2 * math.sin(e * p.t) ** 2


def he_outcome_probability(p: HEParams, l):
    """Geometric outcome law P_l = n^l / (1+n)^{l+1}."""
    if l < 0:
        raise ValueError("outcome l must be nonnegative")
    n = he_mean_excitation(p)
    if n == 0.0:
        return 1.0 if l == 0 else 0.0
    return n**l / (1.0 + n) ** (l + 1)


def he_heat_terms(p: HEParams, l):
    """(trajectory heat, correlation heat) for outcome l.

    H_tra = l omega_0; H_cor = (nbar_b - n)/(1 + n) * (l - n) omega_0.
    """
    n = he_mean_excitation(p)
    h_tra = l * p.omega_0
    h_cor = (p.nbar_b - n) / (1.0 + n) * (l - n) * p.omega_0
    return h_tra, h_cor


def he_fisher(p: HEParams):
    """Closed-form Fisher information omega_0^2 (1+nbar_b)^2 n/(1+n)."""
    n = he_mean_excitation(p)
    return p.omega_0**2 * (1.0 + p.nbar_b) ** 2 * n / (1.0 + n)


def he_precision_bound(p: HEParams):
    """Relative bound Delta beta/beta = sqrt((1+n)/n) / (beta omega_0 (1+nbar_b))."""
    n = he_mean_excitation(p)
    if n <= 0.0:
        return math.inf
    return math.sqrt((1.0 + n) / n) / (p.beta * p.omega_0 * (1.0 + p.nbar_b))


def he_optimal_time(p: HEParams):
    """Evolution time pi / (2 E), the first to maximize the excitation swap."""
    if p.rabi == 0.0:
        raise ValueError("no half-swap time without coupling or detuning (g = delta = 0)")
    return 0.5 * math.pi / p.rabi


@dataclass(frozen=True)
class DephParams:
    """Dephasing thermometer working point over explicit modes.

    Computed once, at construction, and read by every closed form:
    ``gamma``, the decoherence exponent 4 sum_k g_k^2/w_k^2 (2n_k+1)(1-cos w_k t);
    ``Q``, the average heat -2 sum_k g_k^2/w_k (1-cos w_k t); and ``C``, the
    thermal-fluctuation weight -4 sum_k g_k^2/w_k n_k(1+n_k)(1-cos w_k t).
    """

    modes: tuple
    beta: float
    t: float
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
        object.__setattr__(self, "modes", modes)
        g2, w, nk, one_minus_cos = self.couplings**2, self.omegas, self.nbars, _one_minus_cos(self)
        for name, value in (
                ("gamma", 4.0 * np.sum(g2 / w**2 * (2.0 * nk + 1.0) * one_minus_cos)),
                ("Q", -2.0 * np.sum(g2 / w * one_minus_cos)),
                ("C", -4.0 * np.sum(g2 / w * nk * (1.0 + nk) * one_minus_cos))):
            object.__setattr__(self, name, float(value))

    @property
    def omegas(self):
        return np.array([m.omega for m in self.modes])

    @property
    def couplings(self):
        return np.array([m.g for m in self.modes])

    @property
    def nbars(self):
        x = self.beta * self.omegas
        with np.errstate(over="ignore"):
            return np.where(x > 700, 0.0, 1.0 / np.expm1(np.minimum(x, 700)))


def _one_minus_cos(p: DephParams):
    return 1.0 - np.cos(p.omegas * p.t)


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
    if not all(math.isfinite(m.g) for m in modes):
        # J overflows a float at some mode: that mode's coupling is infinite, and
        # no bound is finite
        return [(float(beta), math.inf) for beta in betas]
    return [
        (float(beta), deph_precision_bound(DephParams(modes, float(beta), t)))
        for beta in betas
    ]
