"""Steady-state limit: mean-force Hamiltonian, energy operator, energy UR.

When the full system thermalizes (chi = e^{-beta H}/Z) the reduced probe
state is an effective Gibbs state of the mean-force Hamiltonian. The
energy operator is defined through a symmetrized derivative relation and
solved as a Sylvester equation in the eigenbasis of the reduced Gibbs
operator; measuring in its eigenbasis turns the heat-fluctuation bound
into the familiar temperature-energy uncertainty relation.

Every quantity of a point is a contraction over the eigenvectors v_n of H
with a beta-dependent weight vector, so it reads two beta-independent
tables the model builds once (``CompositeModel.probe_tables``):
G[s, t, n] = Tr_B |v_n><v_n| and K[t, s, n] = Tr_B H|v_n><v_n|. With the
energies w_n of H and the diagonal of H_B (``bath_energies``):

- the reduced Gibbs operator A(beta) is G . e^{-beta w}, scaled by 1/Z_B;
- its exact derivative D = dA/d(-beta) is G . ((w - <H_B>_B) e^{-beta w}),
  scaled the same way;
- the internal energy is <H>_beta - <H_B>_B, from the energies alone;
- the outcome probabilities of the E*-eigenbasis measurement at any beta
  are occupation . gibbs(beta), with occupation[l, n] = sum_st
  Pi_l[s, t] G[t, s, n];
- Tr_B[H chi_s] is K . gibbs(beta).

So a point costs O(d_s^2 d) arithmetic once the model's spectrum and
tables exist. K carries H's stored sector blocks applied to the
eigenvectors, not the eigenvalues w_n: the trace route of
``internal_energy_deviation`` reads K and the spectral route reads w, so
their agreement checks the spectrum against H instead of comparing it with
itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _checked_probabilities,
    _require_positive_beta,
    log_scores,
    precision_bound,
)
from .linalg import gibbs_rows, gibbs_weights, read_only
from .models import CompositeModel, eigenbasis_measurement


class NonPositiveReducedStateError(ValueError):
    """Reduced Gibbs operator lost positivity (numerical)."""


class DegenerateVarianceError(ValueError):
    """Internal-energy variance vanishes; the UR product is undefined."""


class PartitionOverflowError(ValueError):
    """Z*_S = Z / Z_B exceeds the float range at the beta it names (a cold point)."""


@dataclass(frozen=True)
class MeanForceResult:
    """Mean-force summary for one (model, beta) point.

    delta_u lists (energy eigenvalue, probability, deviation) per outcome
    cluster of the energy operator's eigenbasis measurement, leaving out the
    outcomes below ``engine.PROB_FLOOR``, whose summed probability is
    excluded_probability; fisher is the finite-difference Fisher information
    of that measurement on the reduced thermal state, over the same outcomes:
    the probabilities, the kept set and the scores come from one
    ``engine.log_scores`` stencil.
    """

    h_star: np.ndarray  # H*_S = -(1/beta) log A, A = Tr_B[e^{-beta H}]/Z_B; read-only
    e_star: np.ndarray  # read-only, on the probe factor
    u_s: float
    z_star: float       # Z*_S = Tr A = Z / Z_B
    delta_u: tuple
    delta_u_sq: float
    dual_residual: float
    fisher: float
    excluded_probability: float  # mass of the outcomes below PROB_FLOOR


def _hermitian_part(m):
    """The Hermitian part of m, read-only."""
    return read_only((0.5 * (m + m.conj().T),))[0]


def _probe_tables(model):
    """The model's ``probe_tables``; a ``TypeError`` unless it is a ``CompositeModel``."""
    if not isinstance(model, CompositeModel):
        raise TypeError(f"mean force needs a CompositeModel, got {type(model).__name__}; "
                        "build_spin_boson_model(0.0, modes, n, 'z') is the dephasing "
                        "model with its H")
    return model.probe_tables


def _bath_trace(model, beta, energy_shift=None):
    """Tr_B[f(H) e^{-beta H}] / Z_B on the system factor; f = 1, or f(w) = w - energy_shift.

    One contraction of the table G[s, t, n] = Tr_B |v_n><v_n| with the
    weights f(w_n) e^{-beta w_n}. Both exponentials are shifted by their
    ground energies before exponentiating; the shifts recombine in the ratio,
    whose factor e^{-beta (w_0 - w_B0)} raises ``PartitionOverflowError``
    where it overflows.
    """
    w, g, _ = _probe_tables(model)
    w0, wb0 = w.min(), model.bath_energies.min()
    weights = np.exp(-beta * (w - w0))
    if energy_shift is not None:
        weights = weights * (w - energy_shift)
    z_b_shifted = np.sum(np.exp(-beta * (model.bath_energies - wb0)))
    try:
        ground_ratio = math.exp(-beta * (w0 - wb0))
    except OverflowError:
        raise PartitionOverflowError(f"Z / Z_B overflows a float at beta = {beta!r}") from None
    return (g @ weights) * (ground_ratio / z_b_shifted)


def reduced_gibbs_operator(model, beta):
    """A = Tr_B[e^{-beta H}] / Z_B as a matrix on the system factor."""
    _require_positive_beta(beta)
    return _bath_trace(model, beta)


def _gibbs_eigenpairs(model, beta):
    """(A, eigenvalues of A, eigenvectors of A) for the reduced Gibbs operator A,
    checked positive: one ``reduced_gibbs_operator`` and one eigh."""
    a = reduced_gibbs_operator(model, beta)
    wa, va = np.linalg.eigh(a)
    if wa.min() <= 0:
        raise NonPositiveReducedStateError(f"reduced Gibbs operator has eigenvalue {wa.min():.3e}")
    return a, wa, va


def internal_energy(model, beta):
    """U_S = -d/d(beta) ln Z*_S = <H>_beta - <H_B>_{gamma_B}, from the energies of H and H_B."""
    w, wb = _probe_tables(model)[0], model.bath_energies
    return float(gibbs_weights(w, beta) @ w - gibbs_weights(wb, beta) @ wb)


def energy_operator(model, beta, gibbs=None):
    """E*_S from d/d(-beta) e^{-beta H*} = (E* A + A E*)/2 with A = e^{-beta H*}.

    A = Tr_B[e^{-beta H}]/Z_B depends on beta through both factors, so
    D = dA/d(-beta) = Tr_B[H e^{-beta H}]/Z_B - A <H_B>_B, which is A's
    sample contraction with weights (w_n - <H_B>_B). The anticommutator
    equation is solved entrywise in A's eigenbasis. ``gibbs`` is A with its
    eigenpairs at this beta (``_gibbs_eigenpairs``) where the caller has them.
    """
    _, wa, va = _gibbs_eigenpairs(model, beta) if gibbs is None else gibbs
    e_bath = gibbs_weights(model.bath_energies, beta) @ model.bath_energies
    d = _bath_trace(model, beta, energy_shift=e_bath)
    denom = wa[:, None] + wa[None, :]
    if denom.min() < 1e-300:
        raise NonPositiveReducedStateError("Sylvester denominators underflow")
    d_tilde = va.conj().T @ d @ va
    e_tilde = 2.0 * d_tilde / denom
    return _hermitian_part(va @ e_tilde @ va.conj().T)


def internal_energy_deviation(model, beta):
    """Internal-energy deviations two ways, and the worst mismatch between them.

    Spectrally: deviation = (energy eigenvalue) - U_S in the eigenbasis of
    E*_S. Via the full Hamiltonian: (1/P_l) Tr[Pi_l H chi_s] - Tr[H chi_s]
    with chi_s = e^{-beta H}/Z, where Tr_B[H chi_s] = K . gibbs(beta) reads
    the model's table K[t, s, n] = Tr_B H|v_n><v_n| of H's stored blocks
    applied to the eigenvectors, and P_l = occupation . gibbs(beta) the table
    G. So this route shares no derivative with the spectral one, and it reads
    H where the spectral route reads the eigenvalues. The largest mismatch,
    relative to max(1, |trace deviation|) and NaN if any is NaN, is stored as
    ``dual_residual``; ``validate.check_mean_force_point`` judges it.

    E*_S eigenvalues within 1e-8 max(spread, 1) form one outcome. The result
    also carries the Fisher information of that measurement, by finite
    differences of ln P_l(beta). One ``engine.log_scores`` call gives P_l(beta),
    the outcomes kept (P_l >= ``engine.PROB_FLOOR``) and that Fisher information,
    the sum over them: the deviations sum over the same outcomes, and the summed
    probability of the others is stored as ``excluded_probability``. Every
    quantity reads the model's ``probe_tables``, built once per model.
    """
    gibbs = _gibbs_eigenpairs(model, beta)  # A and its eigenpairs, once per point
    a, wa, va = gibbs
    h_star = _hermitian_part(-(va * (np.log(wa) / beta)) @ va.conj().T)  # -(1/beta) log A
    e_star = energy_operator(model, beta, gibbs)
    u_s = internal_energy(model, beta)

    spread = np.ptp(np.linalg.eigvalsh(e_star))
    meas = eigenbasis_measurement(e_star, 1e-8 * max(spread, 1.0))

    w, g, k = _probe_tables(model)
    # occupation[l, n] = <n|Pi_l (x) 1|n>, so P_l(b) = occupation @ gibbs(b), and the
    # whole finite-difference stencil is one gibbs_rows(w, betas) @ occupation.T; G is
    # real and symmetric in (s, t), so only the real part of each Pi_l contributes
    occupation = np.einsum("lst,tsn->ln", meas.projectors.real, g)
    h_chi_s = k @ gibbs_weights(w, beta)  # Tr_B[H chi_s]

    def probabilities(betas):
        return _checked_probabilities(gibbs_rows(w, betas) @ occupation.T)

    # P_l, its kept set and F from one stencil: the deviation rows keep exactly
    # the outcomes the Fisher information sums over
    probs, scores, kept, fisher = log_scores(probabilities, beta)
    e_total = np.trace(h_chi_s).real

    rows, mismatches = [], []
    excluded = 0.0
    for eps_l, proj, p, keep in zip(meas.labels, meas.projectors, probs, kept):
        if not keep:
            excluded += p
            continue
        dev_spectral = eps_l - u_s
        dev_trace = np.einsum("ij,ji->", proj, h_chi_s).real / p - e_total  # Tr[Pi_l H chi_s]
        mismatches.append(abs(dev_spectral - dev_trace) / max(1.0, abs(dev_trace)))
        rows.append((float(eps_l), float(p), float(dev_spectral)))

    delta_u_sq = sum(p * d**2 for _, p, d in rows)
    return MeanForceResult(
        h_star=h_star,
        e_star=e_star,
        u_s=u_s,
        z_star=float(np.trace(a).real),
        delta_u=tuple(rows),
        delta_u_sq=float(delta_u_sq),
        dual_residual=float(np.max(mismatches, initial=0.0)),  # NaN propagates
        fisher=fisher,
        excluded_probability=float(excluded),
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
