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
information share one branch kernel. With H_B |j> = eps_j |j> on Fock states,
chi0 = rho0 (x) gamma_B(beta) = sum_{r,j} w_r p_j(beta) |phi_r, j><phi_r, j|
has rank at most K = rank(rho0) * d_b, so only its K branch amplitudes
A_k = U |phi_r, j> are evolved, and beta enters only through the weights
c_k = w_r p_j(beta). U is block-diagonal in the model's charge sectors, and
each sector's block of H is a Kronecker sum of factors (one factor, the
dense block, unless the builder declared more), so per sector the kernel
forms U_b = (x)_f V_f e^{-i lambda_f t} V_f^T from the factors' eigenpairs
and reads the amplitudes off its columns: A_{r,j}[I_b] = sum over the
states (s, j) of I_b of phi_r[s] U_b[:, pos(s, j)]. Per (rho0, t,
measurement) it builds two L x K tables, <A_k|Pi_l (x) 1|A_k> and
<A_k|Pi_l (x) H_B|A_k>; every outcome probability and conditional energy,
at any beta of a finite-difference stencil, is then a matrix-vector
product. Per (rho0, t) the propagators cost sum_f m_f^3 per sector of
m = prod_f m_f states plus m^2 for their Kronecker product, and the
amplitudes O(sum_b |I_b|^2 rank(rho0)) (one sector of size d for a model
with no charge), against O(d^3) plus L embedded d x d projectors for the
dense route the tests keep as reference. The two-point route evolves the
same branches with the dense U, assembled from the sectors' dense
eigenvectors, and reads the outcomes in a basis of the projectors' ranges
(see ``HeatEngine.two_point_trajectory_heat_all`` for what it shares with
the kernel).
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import gibbs_weights, hermitian_eig

PROB_FLOOR = 1e-12
# Outcome probabilities may leave [0, 1] by this much through roundoff;
# beyond it the input state is not a density matrix.
PROB_RANGE_ATOL = 1e-12
RHO0_ATOL = 1e-12  # roundoff allowed in rho0's eigenvalues (below 0) and trace


def _trace_prod(a, b):
    """Tr[a b] without forming the product."""
    return np.einsum("ij,ji->", a, b)


def _real_matmul(v, z):
    """v @ z for real v and complex z, as one real product over z's real and
    imaginary parts."""
    z = np.ascontiguousarray(z)
    return (v @ z.view(np.float64)).view(np.complex128)


def _occurrence_rank(keys):
    """For each position, the number of earlier positions holding the same key."""
    n = np.arange(len(keys))
    order = np.argsort(keys, kind="stable")
    run_starts = np.r_[True, np.diff(keys[order]) != 0]
    rank = np.empty_like(n)
    rank[order] = n - np.maximum.accumulate(np.where(run_starts, n, 0))
    return rank


class ProbabilityRangeError(ValueError):
    """Outcome probability outside [0, 1] beyond roundoff."""


class InvalidProbeStateError(ValueError):
    """rho0 is not a density matrix: a negative eigenvalue or a trace off 1."""


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


def _probe_eigenpairs(rho0, d_s):
    """(w_r, phi_r) of rho0, checked to be a density matrix within RHO0_ATOL,
    without the eigenvalues at eigh's roundoff scale: exact zeros of a pure
    or low-rank rho0 would otherwise cost d_b branches each."""
    w, phi = hermitian_eig(rho0)
    if w.shape != (d_s,):
        raise ValueError("rho0 does not match the system factor")
    if w.min() < -RHO0_ATOL or abs(w.sum() - 1.0) > RHO0_ATOL:
        raise InvalidProbeStateError(f"rho0 is not a density matrix: lowest eigenvalue "
                                     f"{w.min():.3e}, trace {w.sum():.12g}")
    keep = np.abs(w) > d_s * np.finfo(float).eps * np.abs(w).max()
    return w[keep], phi[:, keep]


def _range_basis(meas):
    """(E, owner): the columns of E are an orthonormal basis of the probe made
    of bases of the projectors' ranges; column m lies in the range of
    projector owner[m]."""
    vecs, owner = [], []
    for li, proj in enumerate(meas.projectors):
        w, v = np.linalg.eigh(proj)
        vecs.append(v[:, w > 0.5])
        owner += [li] * vecs[-1].shape[1]
    return np.hstack(vecs), np.array(owner)


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

    Reads the per-factor eigenpairs (lambda_f, V_f) of each charge sector
    I_b from the model's cached ``factor_spectrum`` and the sample energies
    eps_j from ``bath_energies``, and holds no d x d array of its own.
    ``heat_decomposition``, ``score_direct_all``, ``outcome_probabilities_at``
    and ``fisher_finite_difference`` evolve only the branch amplitudes of
    rho0 (x) gamma_B (see the module docstring): per sector, one real
    m_f x m_f x 2 m_f product per factor, a Kronecker product of the factor
    propagators, and a gather of |I_b|^2 rank(rho0) entries of it, with
    K = rank(rho0) * d_b branches; no full-space propagator, state or
    embedded projector. ``two_point_trajectory_heat_all`` takes the same
    (rho0, beta, t, meas) but evolves with the dense propagator, so it
    stays an independent check of the kernel.

    All methods are pure given their arguments. Instances hold the tables
    of the last (rho0, t, measurement), swapped in as one tuple, and read
    the model's immutable arrays, so sharing across threads is safe.
    """

    def __init__(self, model, prob_floor=PROB_FLOOR):
        self.model = model
        self.prob_floor = prob_floor
        d_b = model.bath_dim
        sector_of = np.empty(model.space.total_dim, dtype=int)
        # the eigendecomposition is paid for here, not by the first point
        for b, (index, _) in enumerate(model.factor_spectrum):
            sector_of[index] = b
        # how many states of the same sector before this one share its sample level j
        rank = _occurrence_rank(sector_of * d_b + np.arange(len(sector_of)) % d_b)
        # per sector: its states, their probe and sample levels (s, j), and its
        # positions split into groups in which no j repeats: all of them at
        # once when no sector holds a sample level twice
        self._sectors = tuple(
            (index, factors, *np.divmod(index, d_b),
             [np.flatnonzero(rank[index] == k) for k in range(rank[index].max() + 1)]
             if rank.any() else [slice(None)])
            for index, factors in model.factor_spectrum)
        # (meas, (rho0 bytes, t), tables) of the last kernel call: the heat,
        # direct-score and finite-difference routes of one point share it
        self._last_tables = None

    # -- branch kernel ----------------------------------------------------

    def _branch_tables(self, rho0, t, meas):
        key = (np.asarray(rho0, complex).tobytes(), float(t))
        last = self._last_tables
        if last is not None and last[0] is meas and last[1] == key:
            return last[2]
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        _require_system_dim(meas, d_s)
        w, phi = _probe_eigenpairs(rho0, d_s)
        branches = np.arange(len(w))[:, None, None]
        # amp[r, j] = U |phi_r, j> over the full space. U_b is symmetric (its
        # V_f are real), so its column for the state (s, j) of sector b is
        # its row: amp[r, j][I_b] = sum over (s, j) in I_b of phi[s, r] U_b[pos(s, j)]
        amp = np.zeros((len(w), d_b, self.model.space.total_dim), dtype=complex)
        for index, factors, s, j, groups in self._sectors:
            u = reduce(np.kron, [_real_matmul(v, np.exp(-1j * lam * t)[:, None] * v.T)
                                 for lam, v in factors])
            for k, cols in enumerate(groups):
                part = phi[s[cols]].T[:, :, None] * u[cols]
                target = branches, j[cols][:, None], index
                amp[target] = amp[target] + part if k else part
        amp = amp.reshape(-1, d_s, d_b)
        amp_h = amp.conj().transpose(0, 2, 1)
        # branch-reduced probe operators A_k A_k^dag and A_k H_B A_k^dag; both
        # Hermitian, so Tr[Pi_l M_k] = sum_{ts} Pi_l[t, s] conj(M_k[t, s])
        rho_k = amp @ amp_h
        amp *= self.model.bath_energies
        en_k = amp @ amp_h
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
        return np.kron(tables.rho_w, gibbs_weights(self.model.bath_energies, beta))

    def _probabilities(self, tables, beta):
        return _checked_probabilities(tables.prob @ self._branch_weights(tables, beta))

    def _conditional_energies(self, tables, beta):
        """(P_l, Tr[Pi_l U H_B chi0 U^dag], Tr[Pi_l chi_t H_B], Tr[H_B chi0], Tr[H_B chi_t])."""
        c = self._branch_weights(tables, beta)
        probs = _checked_probabilities(tables.prob @ c)
        # H_B |phi_r, j> = eps_j |phi_r, j>
        c_eps = c * np.tile(self.model.bath_energies, len(tables.rho_w))
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

    # -- two-point measurement route --------------------------------------

    def propagator(self, t):
        """Dense U = e^{-iHt}, assembled from the sector blocks of ``spectrum``.

        Each block is V_b e^{-i lambda_b t} V_b^T with the sector's dense
        eigenvectors V_b (the Kronecker products of its factors'
        eigenvectors), as one real product per block. The branch kernel
        never forms V_b for a sector of several factors: it multiplies the
        factors' own propagators.
        """
        d = self.model.space.total_dim
        u = np.zeros((d, d), dtype=complex)
        for index, lam, v in self.model.spectrum:
            u[np.ix_(index, index)] = _real_matmul(v, np.exp(-1j * lam * t)[:, None] * v.T)
        return u

    def two_point_trajectory_heat_all(self, rho0, beta, t, meas):
        """Trajectory heat from the explicit double sum over sample eigenstates.

        H_tra(l) = sum_{i,j} p_j P(l, i | j) (eps_j - eps_i) / P_l: the sample
        starts in the Fock state j with Gibbs weight p_j(beta) and is found in
        the Fock state i at time t, so the branches are |phi_r, j> over the
        eigenpairs (w_r, phi_r) of rho0. The dense ``propagator``, not the
        branch kernel, evolves them, and the outcomes are read in a basis of
        the projectors' ranges, not through branch-reduced probe operators.
        With the kernel it shares the factor eigenpairs (``factor_spectrum``,
        from which ``spectrum`` is built), rho0's eigenpairs
        (``_probe_eigenpairs``), the Gibbs weights and ``_real_matmul``; so it
        checks the kernel's propagation, reduction and heat bookkeeping, not
        the eigendecomposition. Returns a label -> heat dict over the
        non-suppressed outcomes.
        """
        if beta <= 0:
            raise ValueError("beta must be positive")
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        _require_system_dim(meas, d_s)
        w, phi = _probe_eigenpairs(rho0, d_s)
        eps = self.model.bath_energies
        # branch k = r * d_b + j: weight w_r p_j, initial sample energy eps_j,
        # amp[s, i, k] = <s, i|U|phi_r, j>
        c = np.kron(w, gibbs_weights(eps, beta))
        c_eps = c * np.tile(eps, len(w))
        amp = self.propagator(t).reshape(-1, d_s, d_b)
        amp = np.einsum("ntj,tr->nrj", amp, phi, optimize=True).reshape(d_s, -1)
        # outcome l and final sample level i in branch k: q[l, i, k] is the sum
        # of |<e_m, v_i|amp_k>|^2 over an orthonormal basis e_m of Pi_l's range
        basis, owner = _range_basis(meas)
        hits = np.abs(basis.conj().T @ amp) ** 2
        q = ((owner == np.arange(len(meas.labels))[:, None]) @ hits).reshape(-1, d_b, len(c))
        q_c = q @ c
        total = _checked_probabilities(q_c.sum(axis=1))
        energy_sum = (q @ c_eps).sum(axis=1) - q_c @ eps
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


def precision_bound(fisher, n_measurements=1):
    """Cramer-Rao bound on the inverse-temperature error, 1/sqrt(N F)."""
    if n_measurements < 1:
        raise ValueError("n_measurements must be at least 1")
    if fisher <= 0:
        return math.inf
    return 1.0 / math.sqrt(n_measurements * fisher)
