"""Dense full-space reference route for the engine's branch kernel.

Builds chi0 = kron(rho0, gamma_B) on the full space, evolves it as
U chi0 U^dag with a propagator from the Hermitian function calculus below
applied to the whole dense H (no symmetry sectors),
and embeds one d x d projector per outcome with ``embed_factor``. That is
O(d^3) work and L full-space projectors per point, so it lives here, as the
independent route the engine's results are tested against, and not in the
library. Nothing here calls ``HeatEngine``. The helpers it needs (Hermitian
function calculus, thermal states, factor embedding, partial trace) live
here too, since no library route uses them.
"""

import math

import numpy as np

from thermoq.engine import PROB_FLOOR, HeatRecord, OutcomeHeat
from thermoq.linalg import InvalidOperatorError, gibbs_weights, hermitian_eig


class DomainError(ValueError):
    """Scalar function undefined on an eigenvalue."""


def hermitian_func(op, f):
    """Apply a scalar function to a Hermitian matrix: V f(Lambda) V^dag.

    ``f`` maps real eigenvalues to real or complex values; it may be
    numpy-vectorized or a plain scalar function.
    """
    w, v = hermitian_eig(op)
    try:
        fw = np.asarray(f(w), dtype=complex)
        if fw.shape != w.shape:
            raise TypeError
    except (TypeError, ValueError):
        fw = np.array([f(x) for x in w], dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise DomainError("scalar function undefined on an eigenvalue")
    return (v * fw) @ v.conj().T


def thermal_state(h, beta):
    """Gibbs state e^{-beta H}/Z of a Hermitian matrix."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    w, v = hermitian_eig(h)
    return (v * gibbs_weights(w, beta)) @ v.conj().T


def embed_factor(local_op, space, factor_index):
    """Embed a local operator at one factor of ``space``, identity elsewhere."""
    dims = space.factor_dims
    if not 0 <= factor_index < len(dims):
        raise IndexError(f"factor index {factor_index} out of range")
    local = np.asarray(local_op)
    d = dims[factor_index]
    if local.shape != (d, d):
        raise InvalidOperatorError(
            f"local operator shape {local.shape} does not match factor dim {d}"
        )
    out = np.eye(1, dtype=local.dtype)
    for i, dim in enumerate(dims):
        out = np.kron(out, local if i == factor_index else np.eye(dim))
    return out


def partial_trace_matrix(matrix, dims, keep):
    """Partial trace of a matrix on factors ``dims`` over the factors not in ``keep``."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise IndexError("keep index out of range")
    n = len(dims)
    dims = tuple(dims)
    m = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    # Trace out dropped factors one at a time, from the highest index down
    # so earlier axis numbers stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        m = np.trace(m, axis1=ax, axis2=ax + m.ndim // 2)
    d = math.prod(dims[k] for k in keep)
    return m.reshape(d, d)


def _tr(a, b):
    return np.einsum("ij,ji->", a, b).real


def embedded_projectors(model, meas):
    return [embed_factor(p, model.space, 0) for p in meas.projectors]


def dense_hamiltonian(model):
    """H of a ``CompositeModel`` as a dense float64 matrix, each sector's block
    placed at its states' global positions."""
    d = model.space.total_dim
    dense = np.zeros((d, d))
    for index, rows, cols, values in model.sectors:
        dense[index[rows], index[cols]] = values
    return dense


def propagator(model, t):
    """U = e^{-iHt} from a complex eigendecomposition of the whole of H,
    ignoring the model's charge sectors."""
    h = dense_hamiltonian(model).astype(complex)
    return hermitian_func(h, lambda w: np.exp(-1j * w * t))


def bath_hamiltonian(model):
    """H_B as a dense matrix on the sample factors, from the model's Fock-basis energies."""
    return np.diag(model.bath_energies)


def initial_state(model, rho0, beta):
    return np.kron(np.asarray(rho0, complex), thermal_state(bath_hamiltonian(model), beta))


def dense_traces(model, rho0, beta, t, meas):
    """Per-outcome rows (P_l, Tr[Pi_l U H_B chi0 U^dag], Tr[Pi_l chi_t H_B]),
    unclipped, with Tr[H_B chi0] and Tr[H_B chi_t]."""
    chi0 = initial_state(model, rho0, beta)
    u = propagator(model, t)
    chi_t = u @ chi0 @ u.conj().T
    h_b = np.kron(np.eye(model.system_dim), bath_hamiltonian(model))
    k0 = u @ (h_b @ chi0) @ u.conj().T
    chi_t_hb = chi_t @ h_b
    rows = np.array([(_tr(p, chi_t), _tr(p, k0), _tr(p, chi_t_hb))
                     for p in embedded_projectors(model, meas)])
    return rows, _tr(h_b, chi0), _tr(h_b, chi_t)


def dense_heat_decomposition(model, rho0, beta, t, meas, prob_floor=PROB_FLOOR):
    rows, e_b_0, e_b_t = dense_traces(model, rho0, beta, t, meas)
    h_avg = e_b_0 - e_b_t
    outcomes = []
    excluded = 0.0
    for label, (p, start, end) in zip(meas.labels, rows):
        p = min(max(p, 0.0), 1.0)
        if p < prob_floor:
            excluded += p
            continue
        h_tra = start / p - end / p
        h_cor = end / p - e_b_t
        outcomes.append(OutcomeHeat(label, p, h_tra, h_cor, (h_tra - h_avg) + h_cor))
    fisher = sum(o.probability * o.score**2 for o in outcomes)
    return HeatRecord(tuple(outcomes), h_avg, fisher, excluded)


def dense_score_direct_all(model, rho0, beta, t, meas, prob_floor=PROB_FLOOR):
    rows, e_b_0, _ = dense_traces(model, rho0, beta, t, meas)
    return {label: start / p - e_b_0
            for label, (p, start, _) in zip(meas.labels, rows) if p >= prob_floor}


def dense_fisher_fd(model, rho0, beta, t, meas, h=None, prob_floor=PROB_FLOOR):
    """Richardson-extrapolated central differences of ln P_l in -beta over the
    outcomes with P_l(beta) >= prob_floor, the heat decomposition's outcomes;
    each of the five stencil points evolves the full state (ten d^3 matmuls)."""
    if h is None:
        h = 1e-4 * beta
    u = propagator(model, t)
    projs = embedded_projectors(model, meas)

    def probs_at(b):
        chi_t = u @ initial_state(model, rho0, b) @ u.conj().T
        return np.clip([_tr(p, chi_t) for p in projs], 0.0, 1.0)

    p0 = probs_at(beta)
    ok = p0 >= prob_floor

    def log_scores(step):
        lo, hi = probs_at(beta + step)[ok], probs_at(beta - step)[ok]
        return (np.log(hi) - np.log(lo)) / (2.0 * step)

    scores = (4.0 * log_scores(h / 2.0) - log_scores(h)) / 3.0
    return float(np.sum(p0[ok] * scores ** 2))
