"""Steady-state limit: mean-force Hamiltonian, energy operator, energy UR.

When the full system thermalizes (chi = e^{-beta H}/Z) the reduced probe
state is an effective Gibbs state of the mean-force Hamiltonian. The
energy operator is defined through a symmetrized derivative relation and
solved as a Sylvester equation in the eigenbasis of the reduced Gibbs
operator; measuring in its eigenbasis turns the heat-fluctuation bound
into the familiar temperature-energy uncertainty relation.

Every quantity of a point comes from the model's cached eigendecompositions
of H = sum_n w_n |n><n| and of H_B (``CompositeModel.spectrum`` and
``bath_spectrum``). The reduced Gibbs operator and its exact beta-derivative
are the same contraction of the eigenvectors over the sample index, weighted
by e^{-beta w_n} and by (w_n - <H_B>) e^{-beta w_n}; the internal energy is
<H>_beta - <H_B>_B from the two spectra; and the outcome probabilities of the
E*-eigenbasis measurement at any beta are one matrix-vector product with a
beta-independent table of eigenvector occupations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import _checked_probabilities, _trace_prod, log_score_fisher, precision_bound
from .linalg import HermitianOperator, gibbs_weights
from .models import eigenbasis_measurement


class NonPositiveReducedStateError(ValueError):
    """Reduced Gibbs operator lost positivity (numerical)."""


class IdentityViolationError(AssertionError):
    """The two internal-energy-deviation computations disagree."""


class DegenerateVarianceError(ValueError):
    """Internal-energy variance vanishes; the UR product is undefined."""


@dataclass(frozen=True)
class MeanForceResult:
    """Mean-force summary for one (model, beta) point.

    delta_u lists (energy eigenvalue, probability, deviation) per outcome
    cluster of the energy operator's eigenbasis measurement; fisher is the
    finite-difference Fisher information of that measurement on the
    reduced thermal state.
    """

    h_star: HermitianOperator
    e_star: HermitianOperator
    u_s: float
    z_star: float
    delta_u: tuple
    delta_u_sq: float
    dual_residual: float
    fisher: float


def _system_operator(model, m):
    """The Hermitian part of m as an operator on the probe factor."""
    return HermitianOperator(model.space.subspace([0]), 0.5 * (m + m.conj().T))


def _bath_trace(model, beta, spectral_weight=None):
    """Tr_B[f(H) e^{-beta H}] / Z_B on the system factor, f(w_n) = spectral_weight.

    Both exponentials are shifted by their ground energies before
    exponentiating; the shifts recombine in the ratio. The sample trace is
    contracted directly from the eigenvectors, so no full-space matrix is
    formed.
    """
    w, v = model.spectrum
    bath_eig = model.bath_spectrum[0]
    w0, wb0 = w.min(), bath_eig.min()
    weights = np.exp(-beta * (w - w0))
    if spectral_weight is not None:
        weights = weights * spectral_weight
    vt = v.reshape(model.system_dim, model.bath_dim, len(w))
    traced = np.einsum("sbn,n,tbn->st", vt, weights, vt.conj())
    z_b_shifted = np.sum(np.exp(-beta * (bath_eig - wb0)))
    return traced * (math.exp(-beta * (w0 - wb0)) / z_b_shifted)


def reduced_gibbs_operator(model, beta):
    """A = Tr_B[e^{-beta H}] / Z_B as a matrix on the system factor."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _bath_trace(model, beta)


def _log_gibbs(model, a, beta):
    """H* = -(1/beta) log A for a positive reduced Gibbs operator A."""
    wa, va = np.linalg.eigh(a)
    if wa.min() <= 0:
        raise NonPositiveReducedStateError(f"reduced Gibbs operator has eigenvalue {wa.min():.3e}")
    return _system_operator(model, -(va * (np.log(wa) / beta)) @ va.conj().T)


def mean_force_hamiltonian(model, beta):
    """H*_S = -(1/beta) log(Tr_B e^{-beta H} / Z_B)."""
    return _log_gibbs(model, reduced_gibbs_operator(model, beta), beta)


def z_star(model, beta):
    """Effective partition function Z*_S = Z / Z_B = tr of the reduced Gibbs operator."""
    return float(np.trace(reduced_gibbs_operator(model, beta)).real)


def internal_energy(model, beta):
    """U_S = -d/d(beta) ln Z*_S = <H>_beta - <H_B>_{gamma_B}, from the two spectra."""
    w, wb = model.spectrum[0], model.bath_spectrum[0]
    return float(gibbs_weights(w, beta) @ w - gibbs_weights(wb, beta) @ wb)


def energy_operator(model, beta):
    """E*_S from d/d(-beta) e^{-beta H*} = (E* A + A E*)/2 with A = e^{-beta H*}.

    A = Tr_B[e^{-beta H}]/Z_B depends on beta through both factors, so
    D = dA/d(-beta) = Tr_B[H e^{-beta H}]/Z_B - A <H_B>_B, which is A's
    sample contraction with weights (w_n - <H_B>_B). The anticommutator
    equation is solved entrywise in A's eigenbasis.
    """
    a = reduced_gibbs_operator(model, beta)
    bath_eig = model.bath_spectrum[0]
    e_bath = gibbs_weights(bath_eig, beta) @ bath_eig
    d = _bath_trace(model, beta, model.spectrum[0] - e_bath)
    wa, va = np.linalg.eigh(a)
    denom = wa[:, None] + wa[None, :]
    if denom.min() < 1e-300:
        raise NonPositiveReducedStateError("Sylvester denominators underflow")
    d_tilde = va.conj().T @ d @ va
    e_tilde = 2.0 * d_tilde / denom
    return _system_operator(model, va @ e_tilde @ va.conj().T)


def internal_energy_deviation(model, beta, degeneracy_tol=None, h_step=None,
                              agreement_tol=1e-6, prob_floor=1e-12):
    """Internal-energy deviations two ways, with a built-in identity check.

    Spectrally: deviation = (energy eigenvalue) - U_S in the eigenbasis of
    E*_S. Via the full Hamiltonian: (1/P_l) Tr[Pi_l H chi_s] - Tr[H chi_s]
    with chi_s = e^{-beta H}/Z; here H multiplies the Gibbs-weighted
    eigenvectors as a matrix and Pi_l acts on their probe index, so this
    route shares no derivative with the spectral one. Disagreement beyond
    agreement_tol raises.

    The result also carries the Fisher information of the E*-eigenbasis
    measurement, by finite differences of ln P_l(beta) with step h_step
    (``engine.log_score_fisher``). The model's one eigendecomposition of H
    serves every quantity.
    """
    w, v = model.spectrum
    a = reduced_gibbs_operator(model, beta)
    h_star = _log_gibbs(model, a, beta)
    e_star = energy_operator(model, beta)
    u_s = internal_energy(model, beta)

    spread = np.ptp(np.linalg.eigvalsh(e_star.matrix))
    if degeneracy_tol is None:
        degeneracy_tol = 1e-8 * max(spread, 1.0)
    meas = eigenbasis_measurement(e_star, degeneracy_tol)

    vt = v.reshape(model.system_dim, model.bath_dim, len(w))
    projs = np.stack(meas.projectors)
    # occupation[l, n] = <n|Pi_l (x) 1|n>, so P_l(b) = occupation @ gibbs(b)
    occupation = np.einsum("sbn,lst,tbn->ln", vt.conj(), projs, vt, optimize=True).real

    def probabilities(b):
        return _checked_probabilities(occupation @ gibbs_weights(w, b))

    probs = probabilities(beta)
    fisher = log_score_fisher(probabilities, beta, h_step, prob_floor)

    # Tr_B[H chi_s] from H applied to the Gibbs-weighted eigenvectors
    h_chi = (model.hamiltonian @ (v * gibbs_weights(w, beta))).reshape(vt.shape)
    h_chi_s = np.einsum("tbn,sbn->ts", h_chi, vt.conj())
    e_total = np.trace(h_chi_s).real

    rows = []
    residual = 0.0
    for eps_l, proj, p in zip(meas.labels, meas.projectors, probs):
        if p < prob_floor:
            continue
        dev_spectral = eps_l - u_s
        dev_trace = _trace_prod(proj, h_chi_s).real / p - e_total
        mismatch = abs(dev_spectral - dev_trace) / max(1.0, abs(dev_trace))
        residual = max(residual, mismatch)
        if not mismatch <= agreement_tol:  # NaN fails too
            raise IdentityViolationError(
                f"deviation mismatch at eps={eps_l:.6g}: "
                f"spectral {dev_spectral:.9g} vs trace {dev_trace:.9g}"
            )
        rows.append((float(eps_l), float(p), float(dev_spectral)))

    delta_u_sq = sum(p * d**2 for _, p, d in rows)
    return MeanForceResult(
        h_star=h_star,
        e_star=e_star,
        u_s=u_s,
        z_star=float(np.trace(a).real),
        delta_u=tuple(rows),
        delta_u_sq=float(delta_u_sq),
        dual_residual=float(residual),
        fisher=fisher,
    )


def temperature_energy_ur_check(result):
    """(Delta U, Fisher, UR product) of one mean-force point.

    Delta U is the spread of the E*-eigenbasis energy on the reduced thermal
    state and Fisher the classical Fisher information of the same
    measurement, both from ``internal_energy_deviation``; the product is
    the Cramer-Rao product Delta beta * Delta U, 1 at saturation.
    """
    if result.delta_u_sq <= 1e-24:
        raise DegenerateVarianceError("internal-energy variance vanishes")
    delta_u = math.sqrt(result.delta_u_sq)
    return delta_u, result.fisher, precision_bound(result.fisher) * delta_u
