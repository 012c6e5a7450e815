"""Evolution, measurement, and the heat decomposition of the Fisher score.

For a thermometer prepared in rho0 and a sample in the Gibbs state at
inverse temperature beta, the score of the outcome distribution with
respect to -beta equals a heat fluctuation: the centered trajectory heat
(two-point sample-energy loss along the thermometer's trajectory) plus
the correlation heat (sample-energy shift caused by projecting the
thermometer). The Fisher information is the variance of that fluctuation,
and this module computes it three independent ways: from the heat terms,
from a two-point double sum over sample eigenprojectors, and from a
finite-difference derivative of the outcome probabilities.

The heat terms, the direct score and the finite-difference Fisher
information share one branch kernel. The initial state
chi0 = rho0 (x) gamma_B(beta) = sum_{r,j} w_r p_j(beta) |phi_r, v_j><phi_r, v_j|
has rank at most K = rank(rho0) * d_b, so only its K branch amplitudes
A_k = U |phi_r, v_j> are evolved, and beta enters only through the weights
c_k = w_r p_j(beta). U is block-diagonal in the model's charge sectors, so
each branch is evolved sector by sector, A[I_b] = V_b e^{-i lambda_b t}
V_b^T x[I_b], skipping the branches with no weight in the sector. Per
(rho0, t, measurement) the kernel builds two L x K tables,
<A_k|Pi_l (x) 1|A_k> and <A_k|Pi_l (x) H_B|A_k>; every outcome probability
and conditional energy, at any beta of a finite-difference stencil, is then
a matrix-vector product. The evolution costs O(sum_b |I_b|^2 K) per
(rho0, t) over the sectors I_b (one sector of size d for a model with no
charge), against O(d^3) plus L embedded d x d projectors for the dense
route the tests keep as reference.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .linalg import (
    DensityMatrix,
    gibbs_weights,
    hermitian_eig,
    partial_trace_matrix,
)

PROB_FLOOR = 1e-12
# Outcome probabilities may leave [0, 1] by this much through roundoff;
# beyond it the input state is not a density matrix.
PROB_RANGE_ATOL = 1e-12


def _trace_prod(a, b):
    """Tr[a b] without forming the product."""
    return np.einsum("ij,ji->", a, b)


def _real_matmul(v, z):
    """v @ z for real v and complex z, as one real product over z's real and
    imaginary parts."""
    z = np.ascontiguousarray(z)
    return (v @ z.view(np.float64)).view(np.complex128)


class SuppressedOutcomeError(ValueError):
    """Outcome probability below the floor; 1/P_l terms are unreliable."""


class NonThermalSampleError(ValueError):
    """Initial sample state is not diagonal in the sample energy basis."""


class ProbabilityRangeError(ValueError):
    """Outcome probability outside [0, 1] beyond roundoff (e.g. non-PSD rho0)."""


def _checked_probabilities(probs):
    """Clip roundoff into [0, 1]; raise if any value lies further out."""
    lo, hi = probs.min(), probs.max()
    if lo < -PROB_RANGE_ATOL or hi > 1.0 + PROB_RANGE_ATOL:
        raise ProbabilityRangeError(
            f"outcome probabilities span [{lo:.3e}, {hi:.3e}], outside [0, 1]"
        )
    return np.clip(probs, 0.0, 1.0)


def _require_system_dim(meas, d_s):
    if meas.system_dim != d_s:
        raise ValueError("measurement does not match the system factor")


def _system_probabilities(chi_t, dims, meas):
    """Checked Tr[Pi_l Tr_B chi_t] for a measurement on factor 0."""
    _require_system_dim(meas, dims[0])
    rho_s = partial_trace_matrix(chi_t, dims, [0])
    return _checked_probabilities(
        np.array([_trace_prod(p, rho_s).real for p in meas.projectors]))


@dataclass(frozen=True)
class OutcomeHeat:
    """Per-outcome heat bookkeeping for one measurement result."""

    label: object
    probability: float
    h_tra: float
    h_cor: float
    score: float


@dataclass(frozen=True)
class HeatRecord:
    """Full heat decomposition of one (model, rho0, beta, t, measurement) point."""

    outcomes: tuple
    h_avg: float
    fisher_heat: float
    excluded_probability: float

    @property
    def probabilities(self):
        return np.array([o.probability for o in self.outcomes])


@dataclass(frozen=True)
class _BranchTables:
    """Beta-independent tables of one (rho0, t, measurement); k = r * d_b + j."""

    prob: np.ndarray         # (L, K): <A_k|Pi_l (x) 1|A_k>
    energy: np.ndarray       # (L, K): <A_k|Pi_l (x) H_B|A_k>
    bath_energy: np.ndarray  # (K,):   <A_k|1 (x) H_B|A_k>
    rho_w: np.ndarray        # (R,):   nonzero eigenvalues w_r of rho0


class HeatEngine:
    """Repeated evaluation of one model's working points.

    Reads the per-sector eigenpairs (I_b, lambda_b, V_b) of the full
    Hamiltonian and (eps_j, v_j) of the sample Hamiltonian from the model's
    cached ``spectrum`` and ``bath_spectrum``, and holds no d x d array of
    its own. ``heat_decomposition``, ``score_direct_all``,
    ``outcome_probabilities_at`` and ``fisher_finite_difference`` evolve
    only the branch amplitudes of rho0 (x) gamma_B (see the module
    docstring): two |I_b| x |I_b| x K matrix products per sector with
    K = rank(rho0) * d_b, O(sum_b |I_b|^2 K) per (rho0, t), and no
    propagator, full-space state or embedded projector.

    All methods are pure given their arguments. Instances hold the tables
    of the last (rho0, t, measurement), swapped in as one tuple, and read
    the model's immutable spectra, so sharing across threads is safe.
    """

    def __init__(self, model, prob_floor=PROB_FLOOR):
        self.model = model
        self.prob_floor = prob_floor
        # the eigendecompositions are paid for here, not by the first point
        model.spectrum, model.bath_spectrum  # noqa: B018
        self._h_b = sparse.csr_array(model.h_b_local)
        # (meas, (rho0 bytes, t), tables) of the last kernel call: the heat,
        # direct-score and finite-difference routes of one point share it
        self._last_tables = None

    # -- state preparation ------------------------------------------------

    def sample_thermal_matrix(self, beta):
        eps, v_b = self.model.bath_spectrum
        return (v_b * gibbs_weights(eps, beta)) @ v_b.conj().T

    def initial_state_matrix(self, rho0, beta):
        rho0 = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0, complex)
        return np.kron(rho0, self.sample_thermal_matrix(beta))

    def propagator(self, t):
        """Dense U = e^{-iHt}, assembled from the sector blocks."""
        d = self.model.space.total_dim
        u = np.zeros((d, d), dtype=complex)
        for index, lam, v in self.model.spectrum:
            u[np.ix_(index, index)] = (v * np.exp(-1j * lam * t)) @ v.T
        return u

    def evolve_matrix(self, chi0, t):
        u = self.propagator(t)
        return u @ chi0 @ u.conj().T

    # -- measurement ------------------------------------------------------

    def probabilities(self, chi_t, meas):
        return _system_probabilities(chi_t, self.model.space.factor_dims, meas)

    # -- branch kernel ----------------------------------------------------

    def _branch_tables(self, rho0, t, meas):
        key = (np.asarray(getattr(rho0, "matrix", rho0), complex).tobytes(), float(t))
        last = self._last_tables
        if last is not None and last[0] is meas and last[1] == key:
            return last[2]
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        _require_system_dim(meas, d_s)
        w, phi = hermitian_eig(rho0)
        if w.shape != (d_s,):
            raise ValueError("rho0 does not match the system factor")
        # drop eigenvalues at eigh's roundoff scale: exact zeros of a pure
        # or low-rank rho0 would otherwise cost d_b columns each
        keep = np.abs(w) > d_s * np.finfo(float).eps * np.abs(w).max()
        w, phi = w[keep], phi[:, keep]
        # per sector: A[I_b] = V_b (e^{-i lambda_b t} * (V_b^T x[I_b])), only
        # over the branches x_k = |phi_r, v_j> with weight in the sector
        x = np.kron(phi, self.model.bath_spectrum[1])
        amp = np.zeros(x.shape, dtype=complex)
        for index, lam, v in self.model.spectrum:
            x_b = x[index]
            live = np.flatnonzero(np.any(x_b != 0, axis=0))
            if live.size == 0:
                continue
            y = _real_matmul(v.T, x_b[:, live])
            y *= np.exp(-1j * lam * t)[:, None]
            amp[np.ix_(index, live)] = _real_matmul(v, y)
        amp = np.ascontiguousarray(amp.T).reshape(-1, d_s, d_b)
        amp_h = amp.conj().transpose(0, 2, 1)
        # branch-reduced probe operators A_k A_k^dag and A_k H_B A_k^dag; both
        # Hermitian, so Tr[Pi_l M_k] = sum_{ts} Pi_l[t, s] conj(M_k[t, s])
        rho_k = amp @ amp_h
        hb_amp = (self._h_b @ amp.reshape(-1, d_b).T).T.reshape(amp.shape)
        en_k = hb_amp @ amp_h
        projs = np.stack(meas.projectors).reshape(len(meas.projectors), -1)
        tables = _BranchTables(
            prob=(projs @ rho_k.reshape(len(amp), -1).conj().T).real,
            energy=(projs @ en_k.reshape(len(amp), -1).conj().T).real,
            bath_energy=np.trace(en_k, axis1=1, axis2=2).real,
            rho_w=w,
        )
        self._last_tables = (meas, key, tables)
        return tables

    def _branch_weights(self, tables, beta):
        return np.kron(tables.rho_w, gibbs_weights(self.model.bath_spectrum[0], beta))

    def _probabilities(self, tables, beta):
        return _checked_probabilities(tables.prob @ self._branch_weights(tables, beta))

    def _conditional_energies(self, tables, beta):
        """(P_l, Tr[Pi_l U H_B chi0 U^dag], Tr[Pi_l chi_t H_B], Tr[H_B chi0], Tr[H_B chi_t])."""
        c = self._branch_weights(tables, beta)
        probs = _checked_probabilities(tables.prob @ c)
        # H_B |phi_r, v_j> = eps_j |phi_r, v_j>
        c_eps = c * np.tile(self.model.bath_spectrum[0], len(tables.rho_w))
        return (probs, tables.prob @ c_eps, tables.energy @ c,
                c_eps.sum(), tables.bath_energy @ c)

    # -- heat decomposition (projected-energy route) ----------------------

    def heat_decomposition(self, rho0, beta, t, meas):
        """Per-outcome trajectory/correlation heat, score, and Fisher information."""
        if beta <= 0:
            raise ValueError("beta must be positive")
        tables = self._branch_tables(rho0, t, meas)
        probs, start, end, e_b_0, e_b_t = self._conditional_energies(tables, beta)
        h_avg = e_b_0 - e_b_t

        outcomes = []
        excluded = 0.0
        for li, label in enumerate(meas.labels):
            p = float(probs[li])
            if p < self.prob_floor:
                excluded += p
                continue
            e_start = start[li] / p
            e_end = end[li] / p
            h_tra = e_start - e_end
            h_cor = e_end - e_b_t
            score = (h_tra - h_avg) + h_cor
            outcomes.append(OutcomeHeat(label, p, h_tra, h_cor, score))

        fisher = sum(o.probability * o.score**2 for o in outcomes)
        return HeatRecord(tuple(outcomes), h_avg, fisher, excluded)

    def score_direct_all(self, rho0, beta, t, meas):
        """Scores for every non-suppressed outcome, as a label -> score dict.

        Uses the conditioned-minus-unconditioned initial sample energy,
        Tr[M_l H_B chi(0) M_l^dag] - Tr[H_B chi(0)], not the heat terms.
        """
        tables = self._branch_tables(rho0, t, meas)
        probs, start, _, e_b_0, _ = self._conditional_energies(tables, beta)
        return {
            label: start[li] / probs[li] - e_b_0
            for li, label in enumerate(meas.labels)
            if probs[li] >= self.prob_floor
        }

    def score_direct(self, rho0, beta, t, meas, label):
        """Score from the conditioned-minus-unconditioned initial sample energy."""
        scores = self.score_direct_all(rho0, beta, t, meas)
        if label not in scores:
            raise SuppressedOutcomeError(f"outcome {label!r} is suppressed")
        return scores[label]

    # -- two-point measurement route --------------------------------------

    def _sample_frame(self, matrix):
        """(1 (x) V_B)^dag M (1 (x) V_B), as a (d_s, d_b, d_s, d_b) array."""
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        blocks = matrix.reshape(d_s, d_b, d_s, d_b)
        vb = self.model.bath_spectrum[1]
        return np.einsum("ai,satb,bj->sitj", vb.conj(), blocks, vb, optimize=True)

    def two_point_trajectory_heat_all(self, chi0, t, meas):
        """Trajectory heat from the explicit double sum over sample eigenstates.

        Works in the frame where the sample Hamiltonian is diagonal; chi0
        must carry no coherence between distinct sample energy eigenstates
        (a thermal sample state qualifies). Returns a label -> heat dict
        over the non-suppressed outcomes. Uses the dense propagator, not the
        branch kernel, so it stays an independent check of the heat terms.
        """
        chi0 = chi0.matrix if isinstance(chi0, DensityMatrix) else np.asarray(chi0, complex)
        d_s = self.model.system_dim
        d_b = self.model.bath_dim
        blocks = self._sample_frame(chi0)
        diag = np.einsum("sitj,ij->sitj", blocks, np.eye(d_b))
        dev = np.abs(blocks - diag).max()
        if dev > 1e-10 * (1.0 + np.abs(chi0).max()):
            raise NonThermalSampleError(
                f"initial state has sample-energy coherence {dev:.3e}"
            )
        u_rot = self._sample_frame(self.propagator(t)).reshape(d_s * d_b, d_s * d_b)

        projs = np.stack(meas.projectors)
        eps = self.model.bath_spectrum[0]
        cols = np.arange(d_s) * d_b
        total = np.zeros(len(projs))
        energy_sum = np.zeros(len(projs))
        for j in range(d_b):
            r_j = blocks[:, j, :, j]
            weight = np.trace(r_j).real
            if weight < 1e-300:
                continue
            w_r, v_r = np.linalg.eigh(r_j)
            keep = w_r > 1e-16 * max(weight, 1.0)
            if not np.any(keep):
                continue
            amp = u_rot[:, cols + j] @ (v_r[:, keep] * np.sqrt(w_r[keep]))
            m = amp.T.reshape(-1, d_s, d_b)
            # q[l, i] = sum over branches r of <psi_r|(Pi_l x |i><i|)|psi_r>
            q = np.einsum("rsi,lst,rti->li", m.conj(), projs, m, optimize=True).real
            q = np.clip(q, 0.0, None)
            q_sum = q.sum(axis=1)
            total += q_sum
            energy_sum += eps[j] * q_sum - q @ eps
        return {
            label: energy_sum[li] / total[li]
            for li, label in enumerate(meas.labels)
            if total[li] >= self.prob_floor
        }

    # -- finite-difference route ------------------------------------------

    def outcome_probabilities_at(self, rho0, beta, t, meas):
        return self._probabilities(self._branch_tables(rho0, t, meas), beta)

    def fisher_finite_difference(self, rho0, beta, t, meas, h=None):
        """Classical Fisher information from d ln P_l / d(-beta) (``log_score_fisher``).

        beta acts only through the thermal sample input. The branch tables
        are beta-independent, so the five stencil points cost one
        matrix-vector product each.
        """
        tables = self._branch_tables(rho0, t, meas)
        return log_score_fisher(lambda b: self._probabilities(tables, b), beta, h,
                                self.prob_floor)


def log_score_fisher(prob_at, beta, h=None, prob_floor=PROB_FLOOR):
    """Classical Fisher information sum_l P_l (d ln P_l / d(-beta))^2.

    prob_at(b) returns the outcome probabilities at inverse temperature b.
    Central differences of ln P_l, Richardson-extrapolated over steps h
    and h/2 (default h = 1e-4 beta; h must lie in (0, beta/10]). Outcomes
    whose probability dips below prob_floor at any stencil point are
    excluded.
    """
    if h is None:
        h = 1e-4 * beta
    if not 0 < h <= beta / 10:
        raise ValueError("finite-difference step must lie in (0, beta/10]")

    def log_scores(step):
        lo, hi = prob_at(beta + step), prob_at(beta - step)
        ok = (lo > prob_floor) & (hi > prob_floor)
        val = np.zeros(len(lo))
        val[ok] = (np.log(hi[ok]) - np.log(lo[ok])) / (2.0 * step)
        return val, ok

    l_h, ok_h = log_scores(h)
    l_h2, ok_h2 = log_scores(h / 2.0)
    scores = (4.0 * l_h2 - l_h) / 3.0
    p0 = prob_at(beta)
    ok = ok_h & ok_h2 & (p0 > prob_floor)
    return float(np.sum(p0[ok] * scores[ok] ** 2))


# -- module-level operations that add checks of their own -----------------


def evolve_total(model, chi0, t):
    """Unitary evolution of the full state under the model Hamiltonian."""
    if chi0.space.factor_dims != model.space.factor_dims:
        raise ValueError("state space does not match model space")
    out = HeatEngine(model).evolve_matrix(chi0.matrix, t)
    return DensityMatrix(model.space, out)


def outcome_probabilities(chi_t, meas):
    """(label, probability) pairs for a projective measurement on factor 0."""
    probs = _system_probabilities(chi_t.matrix, chi_t.space.factor_dims, meas)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {total!r}")
    return [(label, float(p)) for label, p in zip(meas.labels, probs)]


def conditional_bath_state(model, chi0, t, label, meas, prob_floor=PROB_FLOOR):
    """Post-measurement sample state (P_l, Tr_S[Pi_l chi(t) Pi_l]/P_l)."""
    d_s, d_b = model.system_dim, model.bath_dim
    _require_system_dim(meas, d_s)
    chi_t = HeatEngine(model, prob_floor).evolve_matrix(chi0.matrix, t)
    proj = meas.projectors[meas.labels.index(label)]
    # Pi_l on both probe indices, then the trace over the probe
    sandwich = np.einsum("as,sbtc,ta->bc", proj, chi_t.reshape(d_s, d_b, d_s, d_b), proj,
                         optimize=True)
    p = np.trace(sandwich).real
    if p < prob_floor:
        raise SuppressedOutcomeError(f"outcome {label!r} has probability {p:.3e}")
    keep = range(1, model.space.num_factors)
    return p, DensityMatrix(model.space.subspace(keep), sandwich / p)


def precision_bound(fisher, n_measurements=1):
    """Cramer-Rao bound on the inverse-temperature error, 1/sqrt(N F)."""
    if n_measurements < 1:
        raise ValueError("n_measurements must be at least 1")
    if fisher <= 0:
        return math.inf
    return 1.0 / math.sqrt(n_measurements * fisher)
