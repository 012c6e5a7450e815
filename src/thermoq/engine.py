"""Evolution, measurement, and the heat decomposition of the Fisher score.

For a thermometer prepared in rho0 and a sample in the Gibbs state at
inverse temperature beta, the score of the outcome distribution with
respect to -beta equals a heat fluctuation: the centered trajectory heat
(two-point sample-energy loss along the thermometer's trajectory) plus
the correlation heat (sample-energy shift caused by projecting the
thermometer). The Fisher information is the variance of that fluctuation.
This module computes each outcome's score, and so the Fisher information,
two independent ways: as the heat terms, read from conditional sample
energies (``heat_decomposition``), and as the log-derivative
d ln P_l / d(-beta) of the outcome probabilities by finite differences
(``score_direct_all``, ``fisher_finite_difference``). The trajectory heat
has a third route, a two-point double sum over sample eigenstates
(``two_point_trajectory_heat_all``).

The heat terms, the direct score and the finite-difference Fisher
information read beta-independent tables of one (rho0, t, measurement);
every outcome probability and conditional energy is then a short
contraction with the thermal weights. Each route's tables define P_l in one
place, ``probabilities``, which takes a vector of betas, returns a (B, L)
array and range-checks what it forms (roundoff clipped into [0, 1],
``ProbabilityRangeError`` beyond it). It forms each row from its own beta
alone, with matrix-vector products, so P_l(beta) is the same to the last bit
whatever other betas a call evaluates: ``traces``, the conditional energies
the heat terms read at one beta, takes its P_l from the same arithmetic, and
the direct score and the finite-difference Fisher information read one
five-point stencil (``log_scores``), one call of it that the engine keeps per
(tables, beta) (``HeatEngine._stencil``), and form no conditional energy, so
they keep exactly the outcomes the heat decomposition keeps. Every route
first checks beta > 0 and the size of the measurement and of rho0
(``ValueError``), and that rho0 is a density matrix
(``InvalidProbeStateError``); the engine checks the last three and
diagonalizes rho0 once per (rho0, measurement). Two routes build the
tables, and the engine picks one from the model's type, with no option
(``HeatEngine.route``), once, when the engine is made: ``'mode-product'``
exactly when the model is a ``ModeProductModel``, ``'branch-kernel'`` for
every ``CompositeModel``.

Mode-product route, for ``ModeProductModel`` (``build_dephasing_model``,
which holds no H). The probe has no energy of its own. Each probe level q
dresses the whole sample, one Kronecker factor per sample mode, and the
sample energies are a Kronecker sum of per-mode energies eps_k. So the
sector of q evolves as U_q = (x)_k u_{k,q}, every mode alike, with
u_{k,q} = V e^{-i lambda t} V^T from the mode's eigenpairs in
``ModeProductModel.groups``, and gamma_B(beta) is the product of per-mode
weights p_k(beta). Every trace the heat decomposition needs is then a
contraction of rho0[q, q'] Pi_l[q', q] with

- prod_k chi_k^{qq'}, chi_k^{qq'} = p_k . M_k^{qq'}, for P_l, where
  M_k^{qq'}[j] = (u_{k,q'}^dag u_{k,q})[j, j];
- sum_k (p_k eps_k . M_k^{qq'}) prod_{k' != k} chi_{k'}^{qq'} for the initial
  sample energy, and the same with p_k . N_k^{qq'},
  N_k^{qq'}[j] = (u_{k,q'}^dag eps_k u_{k,q})[j, j], for the final one.

This is the exact pure-dephasing solution (Breuer and Petruccione, The
Theory of Open Quantum Systems, sec. 4.2), computed mode by mode. The model
holds its modes in groups of one cutoff, and every step runs on a group's
stack of modes at once: the engine forms each group's (Q, G, n, n) stack of
propagators once per t, shared by the tables and the two-point route, and
the tables hold per group one (G, 3 Q^2, n) stack of the diagonals 1 - M_k,
eps_k M_k and N_k, so per beta one product with the stacked Gibbs weights
gives 1 - chi_k and both energy terms of every mode in the group. The modes
run group by group, each group in mode order. The energy sums take prod_{k' !=
k} chi_{k'} as the product of the chi before k and after it, two cumulative
products and never a division, since chi can vanish. P_l is Tr[Pi_l rho0]
plus the contraction with prod_k chi_k - 1, accumulated mode by mode, one
sequential pass of x - y_k - x y_k over the small y_k = 1 - chi_k, so a rare
outcome's probability keeps its relative precision from one beta of a
finite-difference stencil to the next. With Q probe levels, per (rho0, t)
it costs one real n x n x 2n product per mode and probe level for the
propagators, batched per group, and O(Q^2 sum_k n_k^2) for the tables; per
beta one product per group, O(Q^2 sum_k n_k), and the pass over the modes,
a few array operations of Q^2 entries each per mode (per stencil beta for
P_l). At 2000 modes in 9 to 27 groups the pass is most of a point's cost. No
array has the size of the full space, of the sample or of its branches.

Branch kernel, for every ``CompositeModel``. With H_B |j> = eps_j |j> on Fock
states, chi0 = rho0 (x) gamma_B(beta) = sum_{r,j} w_r p_j(beta)
|phi_r, j><phi_r, j| has rank at most K = rank(rho0) * d_b, so only its K
branch amplitudes A_k = U |phi_r, j> are evolved, and beta enters only
through the weights c_k = w_r p_j(beta). U is block-diagonal in the model's
charge sectors, and branch (r, j) starts on the states (s, j) with
phi_r[s] != 0: a sector holding none of them is skipped, by an exact-zero
test on phi (a property of the input, not a tolerance). Each reached sector b
forms only what its branches need, A_b = ((X_b V_b) e^{-i lambda_b t}) V_b^T
from its eigenpairs (``CompositeModel.sector_eigenpairs``), with
X_b[(r, j), (s, j)] = phi_r[s] the start amplitudes on its states, and never
U_b itself. ``HeatEngine(model)`` only sorts the sectors' states into
zero-padded stacks, one per size class, so that many small sectors cost one
round of array calls; a sector's dense eigh, |I_b|^3, is paid by the first
table build or two-point call that reaches it, and a sector no start state
reaches is never diagonalized. The amplitudes stay on the reached
states. The tables are <A_k|Pi_l (x) 1|A_k> and <A_k|Pi_l (x) H_B|A_k>, each
L x K, read in the measurement's basis B per row (k, i), the amplitudes of
branch k on the final sample level i, and mapped to the outcomes by the
measurement's readout matrix E (``ProjectiveMeasurement.readout``, L x d_s):
a row on one probe level s adds |a|^2 <s|Pi_l|s> = |a|^2 sum_m E[l, m]
|B[s, m]|^2 to outcome l (summed per (k, s), then one (K, d_s) x (d_s, L)
product with |B|^2 E^T), and a row on several (a branch that reaches two
sectors, or a sector holding one sample level twice) adds E |B^dag a|^2,
each weighted by 1 and by eps_i. P_l at beta is the weights
w_r p_j(beta) times the first table. Per (rho0, t) it costs
two real K_b x |I_b| x |I_b| products per reached sector, K_b the branches
starting in sector b (and that sector's eigh, once per model), and per beta
three L x K matrix-vector products. It holds the amplitudes of the reached
states only: no K x d array unless the branches fill the space (a model with
no charge, or a rho0 of full rank on the exchange pair). From the vacuum of
the exchange pair, branch |0, j> reaches the sector N = j alone, so about
n^2 / 2 amplitudes, not n^4, and n + 1 of the 2n + 1 sectors are diagonalized.
The dense route the tests keep as reference costs O(d^3) plus L embedded
d x d projectors.

The two-point route (``HeatEngine.two_point_trajectory_heat_all``) computes
the trajectory heat from its definition instead, as the double sum over
initial and final sample eigenstates, with a branch of its own for each
table route (its docstring states both). Neither branch reads the tables,
so the route stays an independent check of both. No route forms a
full-space propagator, state or embedded projector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import cached, gibbs_rows, gibbs_weights, hermitian_eig, read_only
from .models import ModeProductModel

# Every route keeps exactly the outcomes with P_l >= PROB_FLOOR; mean_force (through
# log_scores) and closed_form read it from this module at each call, and no run
# config sets it.
PROB_FLOOR = 1e-12
# Outcome probabilities may leave [0, 1] by this much through roundoff;
# beyond it the input state is not a density matrix.
PROB_RANGE_ATOL = 1e-12
RHO0_ATOL = 1e-12  # roundoff allowed in rho0's eigenvalues (below 0) and trace


def _require_positive_beta(beta):
    if not beta > 0:
        raise ValueError("beta must be positive")


def _propagator(lam, v, t):
    """V e^{-i lam t} V^T for real column eigenvectors V with eigenvalues lam, or
    for each of a stack of them, lam (..., n) and V (..., n, n), as one real
    product of V with the real and imaginary parts of e^{-i lam t} V^T."""
    z = np.ascontiguousarray(np.exp(-1j * lam * t)[..., None] * np.swapaxes(v, -1, -2))
    return (v @ z.view(np.float64)).view(np.complex128)


def _leave_one_out(chi):
    """(prod_k chi_k, prod_{k' != k} chi_k' for each k) over the modes k, the first
    axis of chi: each the product of the chi before k and of the chi after it,
    from two cumulative products, never a division, since chi can vanish."""
    ones = np.ones_like(chi[:1])
    before = np.cumprod(np.concatenate([ones, chi[:-1]]), axis=0)
    after = np.cumprod(np.concatenate([ones, chi[:0:-1]]), axis=0)[::-1]
    return before[-1] * chi[-1], before * after


# Every sector of up to this many states shares one zero-padded stack; a larger
# one shares its stack with the sectors of its size range (2^(c-1), 2^c].
STACK_SIDE = 32


def _sector_stacks(indices, d):
    """The sectors of a model, their states ``indices``, by size class, each class
    zero-padded to its largest sector: (sectors, states), the class's sector
    positions and the states of each as (G, n) rows, the padding numbered state d."""
    sizes = np.array([len(index) for index in indices])
    size_class = np.ceil(np.log2(np.maximum(sizes, STACK_SIDE)))
    stacks = []
    for c in sorted(set(size_class)):
        sectors = np.flatnonzero(size_class == c)
        states = np.full((len(sectors), sizes[sectors].max()), d)
        for g, b in enumerate(sectors):
            states[g, :len(indices[b])] = indices[b]
        stacks.append((sectors, states))
    return tuple(stacks)


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


def _probe_eigenpairs(rho0, meas, d_s):
    """(w_r, phi_r) of rho0, once meas and rho0 are checked to act on the probe
    factor of dimension d_s and rho0 to be a density matrix within RHO0_ATOL,
    without the eigenvalues at eigh's roundoff scale: exact zeros of a pure
    or low-rank rho0 would otherwise cost d_b branches each."""
    if meas.system_dim != d_s:
        raise ValueError("measurement does not match the system factor")
    w, phi = hermitian_eig(rho0)
    if w.shape != (d_s,):
        raise ValueError("rho0 does not match the system factor")
    if w.min() < -RHO0_ATOL or abs(w.sum() - 1.0) > RHO0_ATOL:
        raise InvalidProbeStateError(f"rho0 is not a density matrix: lowest eigenvalue "
                                     f"{w.min():.3e}, trace {w.sum():.12g}")
    keep = np.abs(w) > d_s * np.finfo(float).eps * np.abs(w).max()
    return w[keep], phi[:, keep]


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


@dataclass(frozen=True, eq=False)
class _BranchTables:
    """Beta-independent tables of one (rho0, t, measurement) on the branch
    kernel; k = r * d_b + j."""

    prob: np.ndarray         # (L, K): <A_k|Pi_l (x) 1|A_k>
    energy: np.ndarray       # (L, K): <A_k|Pi_l (x) H_B|A_k>
    bath_energy: np.ndarray  # (K,):   <A_k|1 (x) H_B|A_k>
    rho_w: np.ndarray        # (R,):   nonzero eigenvalues w_r of rho0
    eps: np.ndarray          # (d_b,): sample energies eps_j

    def _weights(self, betas):
        """(B, K): the branch weights c_k = w_r p_j(beta) at each beta."""
        p = gibbs_rows(self.eps, betas)
        return (self.rho_w[:, None] * p[:, None, :]).reshape(len(p), -1)

    def probabilities(self, betas):
        """(B, L): P_l at each beta (``_probabilities``)."""
        return self._probabilities(self._weights(betas))

    def _probabilities(self, c):
        """(B, L): P_l from the branch weights c, (B, K), range-checked
        (``_checked_probabilities``): per beta one product of its weights with the
        table of Pi_l (x) 1, so a row does not depend on the other betas."""
        return _checked_probabilities(np.array([c_b @ self.prob.T for c_b in c]))

    def traces(self, beta):
        """(P_l, Tr[Pi_l U H_B chi0 U^dag], Tr[Pi_l chi_t H_B], Tr[H_B chi0], Tr[H_B chi_t])."""
        c = self._weights([beta])
        # H_B |phi_r, j> = eps_j |phi_r, j>
        c_eps = c[0] * np.tile(self.eps, len(self.rho_w))
        return (self._probabilities(c)[0], self.prob @ c_eps, self.energy @ c[0],
                c_eps.sum(), self.bath_energy @ c[0])


@dataclass(frozen=True, eq=False)
class _ModeTables:
    """Beta-independent tables of one (rho0, t, measurement) on the mode-product
    route, per group of the model's modes; the modes k run group by group, each
    group in its order, and a pair of probe levels (q, q') is the flat index
    q * Q + q'."""

    weight: np.ndarray       # (L + 1, Q * Q): rho0[q, q'] Pi_l[q', q]; last row Pi = 1
    # per group, (G, 3 * Q * Q, n): per mode the diagonals 1 - M_k^{qq'},
    # eps_k M_k^{qq'} and N_k^{qq'}, Q * Q rows each
    diagonals: tuple
    energies: tuple          # per group, (G, n): eps_k

    def _contract(self, betas):
        """(K, B, 3, Q * Q): per mode and beta y_k = 1 - chi_k = p_k . (1 - M_k),
        p_k eps_k . M_k and p_k . N_k, one (G, 3 * Q * Q, n) x (G, n, 1) product
        per group and beta, so a row does not depend on the other betas; the
        Gibbs weights p_k are cast to complex once, as each product would cast
        them."""
        terms = []
        for d, eps in zip(self.diagonals, self.energies):
            p = gibbs_rows(eps, betas).astype(complex)[..., None]
            terms.append(np.stack([d @ p_b for p_b in p], axis=1))
        return np.concatenate(terms).reshape(-1, len(betas), 3, self.weight.shape[1])

    def probabilities(self, betas):
        """(B, L): P_l at each beta (``_contract``, ``_probabilities``)."""
        # each mode's (B, Q * Q) rows contiguous, as ``traces``' one row is
        return self._probabilities(np.ascontiguousarray(self._contract(betas)[:, :, 0]))

    def _probabilities(self, y):
        """(B, L): P_l = Tr[Pi_l rho0] plus the contraction with prod_k chi_k - 1,
        from y_k = 1 - chi_k, a (K, B, Q * Q) array, range-checked
        (``_checked_probabilities``); one (L, Q * Q) x (Q * Q,) product per beta."""
        # x = prod_k chi_k - 1, accumulated mode by mode as x - y_k - x y_k: where the
        # product is near 1 no O(1) terms cancel, so the rounding of a rare
        # outcome's probability stays relative to it from one beta to the next
        x = np.zeros_like(y[0])
        for y_k in y:
            x = x - y_k - x * y_k
        rows = self.weight[:-1]
        return _checked_probabilities((rows.sum(axis=1) + np.array([rows @ x_b for x_b in x])).real)

    def traces(self, beta):
        """(P_l, Tr[Pi_l U H_B chi0 U^dag], Tr[Pi_l chi_t H_B], Tr[H_B chi0], Tr[H_B chi_t])."""
        terms = self._contract([beta])
        # the energy sums: sum_k f_k prod_{k' != k} chi_k' for f = p eps . M and p . N
        _, others = _leave_one_out(1.0 - terms[:, 0, 0])
        rows = (self.weight @ np.einsum("kfq,kq->qf", terms[:, 0, 1:], others)).real
        return (self._probabilities(terms[:, :, 0])[0], rows[:-1, 0], rows[:-1, 1],
                rows[-1, 0], rows[-1, 1])


class HeatEngine:
    """Repeated evaluation of one model's working points.

    ``route`` names the route this engine took, ``'mode-product'`` or
    ``'branch-kernel'``, chosen from the model alone; the module docstring
    states each route and its cost.

    All methods are pure given their arguments. An instance keeps what it
    has computed in one dict, so a sweep that comes back to a (rho0, t) at
    another beta builds nothing. Its entries, by key (a measurement and a
    tables object hash by identity):

    - (meas, rho0 shape, rho0 bytes): rho0's eigenpairs (``_probe``), which
      every route reads;
    - that key and t: the tables (``_tables_for``), two L x K float tables on
      the branch kernel (about 150 KB at the d = 9409 heat-exchange point,
      L = K = 97), O(Q^2 sum_k n_k) numbers on the mode-product route;
    - (tables, beta, ``PROB_FLOOR``): the five-point stencil (``_stencil``:
      P_l, scores and kept set at 5 L numbers, and F), which the direct score
      and the finite-difference Fisher information of one point both read;
    - t, on the mode-product route: each mode group's propagators
      (``_mode_propagators``), Q sum_k n_k^2 complex numbers, which the
      tables and the two-point route read.

    Each is stored by ``linalg.cached``, with its arrays read-only; the
    model's arrays are immutable and its per-sector eigenpairs are stored
    the same way, so an engine may be shared across threads. Nothing is ever
    removed: an engine grows with the distinct (rho0, t, measurement, beta)
    it is asked for.
    """

    def __init__(self, model):
        self.model = model
        # the route, picked here once, as the class's functions: a bound method
        # stored here would reference the engine, which would then wait for the
        # cycle collector. No eigendecomposition: each sector is diagonalized when
        # a table build or a two-point call first reaches it (``sector_eigenpairs``)
        cls = type(self)
        if isinstance(model, ModeProductModel):
            self.route = "mode-product"
            self._build, self._double_sum = cls._mode_tables, cls._mode_two_point
        else:
            self.route = "branch-kernel"
            self._build, self._double_sum = cls._branch_tables, cls._sector_two_point
            self._stacks = _sector_stacks(model.sector_indices, model.space.total_dim)
        # every entry this engine keeps, under the keys the class docstring lists
        self._cache = {}

    def _probe(self, rho0, beta, meas):
        """(key, w, phi): the cache key of (rho0, meas) and rho0's eigenpairs
        (``_probe_eigenpairs``, read-only), once beta is checked positive; each
        (rho0, meas) is checked and diagonalized once per engine."""
        _require_positive_beta(beta)
        rho0 = np.asarray(rho0, complex)
        key = (meas, rho0.shape, rho0.tobytes())
        return key, *cached(self._cache, key, lambda: read_only(
            _probe_eigenpairs(rho0, meas, self.model.system_dim)))

    def _tables_for(self, rho0, beta, t, meas):
        """The tables of (rho0, t, meas), once beta is checked positive."""
        key, w, phi = self._probe(rho0, beta, meas)
        return cached(self._cache, (*key, float(t)), lambda: self._build(self, w, phi, t, meas))

    def _stencil(self, rho0, beta, t, meas):
        """``log_scores`` of the tables' ``probabilities`` at beta, its arrays
        read-only, evaluated once per (tables, beta), so the direct score and the
        finite-difference Fisher information of one point read one stencil; the
        key holds the floor, which ``log_scores`` reads at each call."""
        tables = self._tables_for(rho0, beta, t, meas)

        def evaluate():
            *arrays, fisher = log_scores(tables.probabilities, beta)
            return (*read_only(arrays), fisher)

        return cached(self._cache, (tables, float(beta), PROB_FLOOR), evaluate)

    # -- mode-product route -----------------------------------------------

    def _mode_propagators(self, t):
        """Per group of the model's modes, the (Q, G, n, n) stack u[q, g] = u_{k,q} =
        V e^{-i lambda t} V^T of its modes, read-only: formed once per t, and read by
        the tables and the two-point route."""
        t = float(t)
        return cached(self._cache, t, lambda: read_only(
            _propagator(lam, v, t) for _, _, lam, v in self.model.groups))

    def _mode_tables(self, w, phi, t, meas):
        groups = self.model.groups
        d_s = self.model.system_dim
        # rho0 without the eigenvalues _probe_eigenpairs drops
        rho = (phi * w) @ phi.conj().T
        projs = np.concatenate([meas.projectors, np.eye(d_s)[None]])
        weight = (rho * projs.transpose(0, 2, 1)).reshape(len(projs), -1)
        diagonals = []
        for (_, eps, _, _), u in zip(groups, self._mode_propagators(t)):
            # u[q, g] = u_{k,q} of the group's mode g, symmetric since V is real; each
            # chi_k is the effect of mode k alone, near 1 where it is weak
            u_h = u.conj()
            m = np.einsum("qgij,pgij->gqpj", u, u_h).reshape(len(eps), d_s * d_s, -1)
            n = np.einsum("qgij,pgij->gqpj", u * eps[:, :, None], u_h).reshape(m.shape)
            diagonals.append(np.concatenate([1.0 - m, m * eps[:, None], n], axis=1))
        return _ModeTables(weight, tuple(diagonals), tuple(eps for _, eps, _, _ in groups))

    # -- branch kernel ----------------------------------------------------

    def _branch_tables(self, w, phi, t, meas):
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        n_r = len(w)
        # the probe levels some phi_r is nonzero on; the padding state's level d_s
        # is none of them
        starts = np.append(np.any(phi != 0, axis=1), False)
        branch, state, amp = [], [], []
        for sectors, states in self._stacks:
            s, j = np.divmod(states, d_b)
            reached = starts[s].any(axis=1)  # the sectors holding a start state
            if not reached.any():
                continue
            states, s, j = (x[reached] for x in (states, s, j))
            # only the reached sectors are diagonalized; the padding has eigenvalue 0
            lam = np.zeros(states.shape)
            v = np.zeros((*states.shape, states.shape[1]))
            for lam_g, v_g, b in zip(lam, v, sectors[reached]):
                _, lam_b, v_b = self.model.sector_eigenpairs(b)
                lam_g[:len(lam_b)] = lam_b
                v_g[:len(v_b), :len(v_b)] = v_b
            # the rows of sector g: a branch (r, j) for each distinct sample level j
            # of its start states, X_b^T[(s, j), (j, r)] = phi_r[s]
            g, a = np.nonzero(starts[s])
            keys, key_of = np.unique(g * d_b + j[g, a], return_inverse=True)
            local = np.arange(len(keys)) - np.searchsorted(keys, keys // d_b * d_b)
            x_t = np.zeros((*states.shape, local.max() + 1, n_r), dtype=complex)
            x_t[g, a, local[key_of]] = phi[s[g, a]]
            branch_of = np.full((len(states), *x_t.shape[2:]), -1)  # branch k of each column
            branch_of[keys // d_b, local] = np.arange(n_r) * d_b + (keys % d_b)[:, None]
            branch_of = branch_of.reshape(len(states), -1)
            # A_b^T = V_b e^{-i lam_b t} V_b^T X_b^T, V_b real: each product takes the
            # real and imaginary parts of the complex factor as one real matrix
            x_t = x_t.reshape(*states.shape, -1).view(np.float64)
            z = (v.transpose(0, 2, 1) @ x_t).view(np.complex128)
            z *= np.exp(-1j * lam * t)[:, :, None]
            a_t = (v @ z.view(np.float64)).view(np.complex128)
            g, a, c = np.nonzero((s < d_s)[:, :, None] & (branch_of >= 0)[:, None, :])
            branch.append(branch_of[g, c])
            state.append(states[g, a])
            amp.append(a_t[g, a, c])
        k, amp = np.concatenate(branch), np.concatenate(amp)
        s, i = np.divmod(np.concatenate(state), d_b)
        eps = self.model.bath_energies
        n_k, n_l = n_r * d_b, len(meas.labels)
        # row (k, i) holds the amplitudes of branch k on the sample level i. A row on
        # one probe level s reads |<e_m, i|A_k>|^2 = |a|^2 |B[s, m]|^2, so it adds
        # |a|^2 <s|Pi_l|s> to outcome l, summed per (k, s) first
        row = k * d_b + i
        count = np.bincount(row, minlength=n_k * d_b)
        one = count[row] == 1
        at = k[one] * d_s + s[one]
        weight = np.abs(amp[one]) ** 2
        diagonal = np.abs(meas.basis) ** 2 @ meas.readout.T
        prob = np.bincount(at, weight, n_k * d_s).reshape(n_k, d_s) @ diagonal
        energy = np.bincount(at, weight * eps[i[one]], n_k * d_s).reshape(n_k, d_s) @ diagonal
        # a row on several probe levels is read in the measurement's basis; mapped by
        # the readout, its hits add to (k, l) weighted by 1 and by eps_i
        spread = np.flatnonzero(count > 1)
        y = np.zeros((len(spread), d_s), dtype=complex)
        y[np.cumsum(count > 1)[row[~one]] - 1, s[~one]] = amp[~one]
        hits = np.abs(y @ meas.basis.conj()) ** 2 @ meas.readout.T
        at = ((spread // d_b * n_l)[:, None] + np.arange(n_l)).ravel()
        prob += np.bincount(at, hits.ravel(), n_k * n_l).reshape(n_k, n_l)
        energy += np.bincount(at, (hits * eps[spread % d_b, None]).ravel(),
                              n_k * n_l).reshape(n_k, n_l)
        return _BranchTables(
            prob=prob.T,
            energy=energy.T,
            bath_energy=energy.sum(axis=1),
            rho_w=w,
            eps=eps,
        )

    # -- heat decomposition (projected-energy route) ----------------------

    def heat_decomposition(self, rho0, beta, t, meas):
        """Per-outcome trajectory/correlation heat, score, and Fisher information."""
        probs, start, end, e_b_0, e_b_t = self._tables_for(rho0, beta, t, meas).traces(beta)
        h_avg = e_b_0 - e_b_t

        outcomes = []
        excluded = 0.0
        for li, label in enumerate(meas.labels):
            p = float(probs[li])
            if p < PROB_FLOOR:
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
        """d ln P_l / d(-beta) of every outcome ``log_scores`` keeps, as a
        label -> score dict.

        The derivative of the tables' ``probabilities``, the stencil of
        ``fisher_finite_difference``, which the engine keeps per (tables,
        beta), so a point that asks for both evaluates it once. It forms no
        conditional energy: so it is independent of the heat decomposition's
        score (H_tra - h_avg) + H_cor, which reads the traces, and agrees with
        it to the stencil's error, about 1e-11 on the checked points.
        """
        _, scores, kept, _ = self._stencil(rho0, beta, t, meas)
        return {label: float(scores[li]) for li, label in enumerate(meas.labels) if kept[li]}

    # -- two-point measurement route --------------------------------------

    def two_point_trajectory_heat_all(self, rho0, beta, t, meas):
        """Trajectory heat from the explicit double sum over sample eigenstates.

        H_tra(l) = sum_{i,j} p_j P(l, i | j) (eps_j - eps_i) / P_l: the sample
        starts in the Fock state j with Gibbs weight p_j(beta) and is found in
        the Fock state i at time t. Returns a label -> heat dict over the
        non-suppressed outcomes. The double sum takes the engine's route:

        - mode-product: U restricted to probe level q is (x)_k u_{k,q}, with
          u_{k,q} = V e^{-i lambda t} V^T from ``ModeProductModel.groups``, and
          both p_j and eps_j - eps_i split over the modes. So
          P_l = Re sum_{qq'} W_l prod_k C_k and
          P_l H_tra(l) = Re sum_{qq'} W_l sum_k D_k prod_{k' != k} C_{k'},
          with W_l[q, q'] = rho0[q, q'] Pi_l[q', q] and, from
          T_k^{qq'}[i, j] = u_{k,q}[i, j] conj(u_{k,q'}[i, j]),
          C_k = sum_{ij} p_k[j] T_k[i, j] and
          D_k = sum_{ij} p_k[j] (eps_k[j] - eps_k[i]) T_k[i, j], formed for a
          group of modes at once. It costs O(Q^2 sum_k n_k^2) past the mode
          propagators, which it reads from the engine's per-t stacks.
        - branch kernel: the branches are |phi_r, j> over the eigenpairs
          (w_r, phi_r) of rho0. Each charge sector b holding a start state
          (a state (s, j) with some phi_r[s] != 0, its own exact-zero test on
          phi) evolves them with U_b = V_b e^{-i lambda_b t} V_b^T from
          ``sector_eigenpairs``: branch (r, j_m) gains phi_r[s_m] U_b[:, m]
          for every state m = (s_m, j_m) of the sector, so no matrix outgrows
          a sector, and the amplitudes take O(K d) memory with
          K = rank(rho0) * d_b. Any other sector would add exact zeros, so it
          is skipped and never diagonalized. The outcomes are read in the
          measurement's basis, mapped to the outcomes by its ``readout``.

        Neither branch reads the tables: not the kernel's start-state
        propagation or its readout, nor the mode route's M_k/N_k diagonals.
        With the other routes they share the eigenpairs and per-mode energies
        (``ModeProductModel.groups`` or ``sector_eigenpairs``), rho0's
        eigenpairs (``_probe_eigenpairs``, kept per engine), the Gibbs weights
        and the propagators (``_propagator``; on the mode-product route the
        same per-t stacks as the tables); so they check the reduction and heat
        bookkeeping, not the eigendecomposition or the propagators.
        """
        _, w, phi = self._probe(rho0, beta, meas)
        total, energy_sum = self._double_sum(self, w, phi, beta, t, meas)
        total = _checked_probabilities(total)
        return {
            label: energy_sum[li] / total[li]
            for li, label in enumerate(meas.labels)
            if total[li] >= PROB_FLOOR
        }

    def _mode_two_point(self, w, phi, beta, t, meas):
        """(P_l, P_l H_tra(l)) from per-mode double sums."""
        d_s = self.model.system_dim
        rho = (phi * w) @ phi.conj().T
        weight = (rho * meas.projectors.transpose(0, 2, 1)).reshape(len(meas.labels), -1)
        c, d = [], []
        for (_, eps, _, _), u in zip(self.model.groups, self._mode_propagators(t)):
            # p_k[j] T_k^{qq'}[i, j] of the group's mode g, pair (q, q') at the flat
            # index q * Q + q'
            pt = np.einsum("qgij,pgij,gj->gqpij", u, u.conj(), gibbs_weights(eps, beta))
            pt = pt.reshape(len(eps), d_s * d_s, *u.shape[2:])
            gap = eps[:, None, None, :] - eps[:, None, :, None]  # eps_j - eps_i
            c.append(pt.sum(axis=(2, 3)))
            d.append((pt * gap).sum(axis=(2, 3)))
        prob, others = _leave_one_out(np.concatenate(c))
        energy = np.einsum("kq,kq->q", np.concatenate(d), others)
        return (weight @ prob).real, (weight @ energy).real

    def _sector_two_point(self, w, phi, beta, t, meas):
        """(P_l, P_l H_tra(l)) from the branches evolved sector by sector."""
        d_s, d_b = self.model.system_dim, self.model.bath_dim
        eps = self.model.bath_energies
        # branch k = r * d_b + j: weight w_r p_j, initial sample energy eps_j,
        # amp[s, i, k] = <s, i|U|phi_r, j>
        c = np.kron(w, gibbs_weights(eps, beta))
        c_eps = c * np.tile(eps, len(w))
        amp = np.zeros((self.model.space.total_dim, len(w), d_b), dtype=complex)
        for b, index in enumerate(self.model.sector_indices):
            s, j = np.divmod(index, d_b)
            if not np.any(phi[s]):
                continue  # no start state: the sector's amplitudes are exact zeros
            _, lam, v = self.model.sector_eigenpairs(b)
            u = _propagator(lam, v, t)
            # the sector state m = (s_m, j_m) feeds branch (r, j_m) with phi_r[s_m] U_b[:, m];
            # several states of a sector may share j_m, so the adds accumulate
            np.add.at(amp, (index[:, None], slice(None), j), u[:, :, None] * phi[s])
        amp = amp.reshape(d_s, -1)
        # outcome l and final sample level i in branch k: q[l, i, k] sums
        # |<e_m, v_i|amp_k>|^2 over the basis vectors e_m, weighted by the readout E[l, m]
        hits = np.abs(meas.basis.conj().T @ amp) ** 2
        q = (meas.readout @ hits).reshape(-1, d_b, len(c))
        q_c = q @ c
        return q_c.sum(axis=1), (q @ c_eps).sum(axis=1) - q_c @ eps

    # -- finite-difference route ------------------------------------------

    def fisher_finite_difference(self, rho0, beta, t, meas):
        """Classical Fisher information from d ln P_l / d(-beta) (``log_scores``).

        beta acts only through the thermal sample input, so the tables are
        beta-independent and the whole five-point stencil is one call of their
        ``probabilities(betas) -> (len(betas), L)``: per beta, its K weights
        times the L x K table on the branch kernel, one product per mode group
        on the mode-product route. No conditional energy is formed. The
        engine keeps the stencil per (tables, beta) (``_stencil``), which
        ``score_direct_all`` reads too.
        """
        return self._stencil(rho0, beta, t, meas)[3]


def log_scores(prob_at, beta):
    """(P_l, d ln P_l / d(-beta), kept) of every outcome, three length-L arrays, and
    the classical Fisher information F = sum_l P_l (d ln P_l / d(-beta))^2 over kept.

    prob_at(betas) returns the outcome probabilities at each inverse
    temperature of the 1-D array betas, as a (len(betas), L) array; it is
    called once, for the whole stencil [beta + h, beta - h, beta + h/2,
    beta - h/2, beta] with h = 1e-4 beta. Central differences of ln P_l,
    Richardson-extrapolated over steps h and h/2. It keeps the outcomes the
    heat decomposition keeps, those with P_l(beta) >= PROB_FLOOR; the score
    of any other outcome is 0.
    """
    h = 1e-4 * beta
    p = prob_at(beta + np.array([h, -h, h / 2.0, -h / 2.0, 0.0]))
    kept = p[4] >= PROB_FLOOR
    lo, hi, lo2, hi2 = np.log(p[:4, kept])
    l_h, l_h2 = (hi - lo) / (2.0 * h), (hi2 - lo2) / h  # steps h and h/2
    scores = np.zeros(len(kept))
    scores[kept] = (4.0 * l_h2 - l_h) / 3.0
    return p[4], scores, kept, float(np.sum(p[4][kept] * scores[kept] ** 2))


def precision_bound(fisher):
    """Cramer-Rao bound on the inverse-temperature error of one measurement, 1/sqrt(F)."""
    if fisher <= 0:
        return math.inf
    return 1.0 / math.sqrt(fisher)
