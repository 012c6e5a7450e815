"""Concrete thermometer models, bath discretization, and measurement bases.

Two model families are provided: a pair of linearly coupled oscillators
exchanging excitations (factor 0 = thermometer oscillator, factor 1 =
sample oscillator), and a two-level probe dephasing against a set of
bosonic modes (factor 0 = qubit, factors 1.. = modes). A spin-boson
variant with a transverse coupling is included for the steady-state
machinery, where a non-commuting interaction is the interesting case.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .linalg import HERMITICITY_RTOL, HilbertSpace, InvalidOperatorError, hermitian_eig

COMPLETENESS_ATOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def destroy(n_max):
    """Truncated bosonic annihilation operator on n_max+1 Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)


def number_op(n_max):
    return np.diag(np.arange(n_max + 1.0))


@dataclass(frozen=True)
class BathMode:
    """A single sample mode: frequency omega > 0, real coupling g."""

    omega: float
    g: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("mode frequency must be positive")


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic-family spectral density J(w) = alpha w^s wc^{1-s} e^{-w/wc}."""

    alpha: float
    s: float
    omega_c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.s < 0 or self.omega_c <= 0:
            raise ValueError("require alpha > 0, s >= 0, omega_c > 0")

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        return self.alpha * w**self.s * self.omega_c ** (1.0 - self.s) * np.exp(-w / self.omega_c)


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete set of orthogonal projectors on the system factor."""

    projectors: tuple
    labels: tuple

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        if len(projs) != len(self.labels):
            raise ValueError("one label per projector required")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise InvalidOperatorError("projectors must be square and of one size")
        for hermitian, idempotent, overlap in _projector_deviations(projs):
            if hermitian > COMPLETENESS_ATOL:
                raise InvalidOperatorError("projector is not Hermitian")
            if idempotent > COMPLETENESS_ATOL:
                raise InvalidOperatorError("projector is not idempotent")
            if overlap > COMPLETENESS_ATOL:
                raise InvalidOperatorError("projectors are not orthogonal")
        if np.abs(sum(projs) - np.eye(d)).max() > COMPLETENESS_ATOL:
            raise InvalidOperatorError("projectors do not sum to identity")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def system_dim(self):
        return self.projectors[0].shape[0]


def _projector_deviations(projs):
    """Per projector P_a, in order: max |P_a - P_a^dag|, max |P_a^2 - P_a| and
    max |P_a P_b| over the earlier b. When every P_a is diagonal,
    P_a P_b = diag(d_a * d_b), so elementwise products of the diagonals
    replace the O(L^2) matrix products."""
    d = projs[0].shape[0]
    off = ~np.eye(d, dtype=bool)
    if not any(p[off].any() for p in projs):
        diags = np.array([np.diagonal(p) for p in projs])
        for a, da in enumerate(diags):
            yield (np.abs(da - da.conj()).max(), np.abs(da * da - da).max(),
                   np.abs(diags[:a] * da).max(initial=0.0))
        return
    for a, p in enumerate(projs):
        yield (np.abs(p - p.conj().T).max(), np.abs(p @ p - p).max(),
               max((np.abs(p @ q).max() for q in projs[:a]), default=0.0))


class SectorCouplingError(ValueError):
    """The Hamiltonian has an entry between two different charge labels."""


@dataclass(frozen=True, eq=False)
class CompositeModel:
    """Thermometer + sample Hamiltonian H = H_S (x) 1 + 1 (x) H_B + H_I.

    ``hamiltonian`` is H on the full space, stored once as a read-only
    float64 CSR matrix; h_s_local is H_S on factor 0, dense. Every builder's
    H_B = sum_k omega_k n_k is diagonal in the sample's Fock product basis;
    ``bath_energies`` is that diagonal, read-only float64, in basis order.
    ``charge`` labels each basis state with the conserved charge its builder
    declared (None: no charge), and H has no entry between two different
    labels. ``spectrum`` (eigenpairs of H, one block per charge sector) is
    computed on first use and cached; every route reads it.
    """

    space: HilbertSpace
    hamiltonian: sparse.csr_array
    h_s_local: np.ndarray
    bath_energies: np.ndarray
    charge: np.ndarray = None

    @cached_property
    def spectrum(self):
        """One (index, eigenvalues ascending, column eigenvectors) block per sector.

        ``index`` lists the basis states carrying one charge label; the
        block's eigenvectors are columns over those states only. A model with
        no charge has one block covering every index. Costs one dense eigh
        per sector, sum_b |I_b|^3 in place of d^3.
        """
        d = self.space.total_dim
        labels = np.zeros(d, dtype=int) if self.charge is None else self.charge
        _, sector_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
        order = np.argsort(sector_of, kind="stable")
        local = np.empty(d, dtype=int)  # position of each state within its sector
        local[order] = np.arange(d) - np.repeat(np.cumsum(counts) - counts, counts)
        # group the stored entries of H by sector; none couples two sectors
        h = self.hamiltonian.tocoo()
        entry_sector = sector_of[h.row]
        by_sector = np.argsort(entry_sector, kind="stable")
        entry_bounds = np.cumsum(np.bincount(entry_sector, minlength=len(counts)))
        blocks = []
        for index, entries in zip(np.split(order, np.cumsum(counts)[:-1]),
                                  np.split(by_sector, entry_bounds[:-1])):
            dense = np.zeros((len(index), len(index)))
            dense[local[h.row[entries]], local[h.col[entries]]] = h.data[entries]
            blocks.append(_read_only((index, *np.linalg.eigh(dense))))
        return tuple(blocks)

    @property
    def system_dim(self):
        return self.space.factor_dims[0]

    @property
    def bath_dim(self):
        return self.space.total_dim // self.system_dim


def _read_only(arrays):
    for a in arrays:
        a.setflags(write=False)
    return tuple(arrays)


def _compose(space, h_s_local, bath_energies, h_i, charge=None):
    """H = H_S (x) 1 + 1 (x) diag(bath_energies) + H_I as read-only CSR, checked
    Hermitian and block-diagonal in ``charge``: both checks are O(nnz)."""
    bath_energies = np.array(bath_energies, dtype=float)
    # kronsum(B, A) = A (x) 1 + 1 (x) B
    h = sparse.csr_array(sparse.kronsum(sparse.diags_array(bath_energies), h_s_local) + h_i)
    h.sum_duplicates()
    h.eliminate_zeros()
    scale = 1.0 + abs(h).max()
    dev = abs(h - h.T.conj()).max()
    if dev > HERMITICITY_RTOL * scale:
        raise InvalidOperatorError(
            f"matrix is not Hermitian: max deviation {dev:.3e} at scale {scale:.3e}")
    if charge is not None:
        charge = np.asarray(charge)
        rows, cols = h.nonzero()
        bad = np.flatnonzero(charge[rows] != charge[cols])
        if bad.size:
            r, c = rows[bad[0]], cols[bad[0]]
            raise SectorCouplingError(
                f"H couples state {r} (charge {charge[r]}) to state {c} "
                f"(charge {charge[c]}) in {bad.size} entries")
        charge = _read_only((charge,))[0]
    _read_only((h.data, h.indices, h.indptr))
    return CompositeModel(space, h, *_read_only((np.array(h_s_local), bath_energies)), charge)


def build_coupled_oscillators(omega_a, omega_0, g, n_max):
    """Two oscillators with excitation-exchange coupling g(a^dag b + b^dag a).

    Conserved charge: the total excitation number n_a + n_b.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = n_max + 1
    space = HilbertSpace((d, d))
    a = sparse.csr_array(destroy(n_max))
    h_s_local = omega_a * number_op(n_max)
    h_i = g * (sparse.kron(a.T, a) + sparse.kron(a, a.T))
    n = np.arange(d)
    return _compose(space, h_s_local, omega_0 * n, h_i, charge=np.add.outer(n, n).ravel())


def _bath_cutoffs(modes, n_max):
    if np.isscalar(n_max):
        cutoffs = [int(n_max)] * len(modes)
    else:
        cutoffs = [int(n) for n in n_max]
        if len(cutoffs) != len(modes):
            raise ValueError("one cutoff per mode required")
    if any(n < 1 for n in cutoffs):
        raise ValueError("mode cutoffs must be at least 1")
    return cutoffs


def _multimode_bath(modes, cutoffs):
    """Diagonal bath energies, total excitation numbers and the sparse coupling
    sum_k g_k (b_k^dag + b_k), each over the product basis of the modes."""
    energy, number = np.zeros(1), np.zeros(1, dtype=int)
    coupling = sparse.csr_array((1, 1))
    for mode, n in zip(modes, cutoffs):
        levels = np.arange(n + 1)
        energy = np.add.outer(energy, mode.omega * levels).ravel()
        number = np.add.outer(number, levels).ravel()
        x = sparse.csr_array(destroy(n) + destroy(n).T)
        coupling = (sparse.kron(coupling, sparse.eye_array(n + 1))
                    + sparse.kron(sparse.eye_array(coupling.shape[0]), mode.g * x))
    return energy, number, coupling


def build_dephasing_model(modes, n_max):
    """Qubit dephasing against bosonic modes: H_S = 0, H_I = sigma_z (x) sum_k g_k(b_k^dag + b_k).

    The spin-boson model with omega_q = 0 and coupling_axis 'z'.
    """
    return build_spin_boson_model(0.0, modes, n_max, coupling_axis="z")


def build_spin_boson_model(omega_q, modes, n_max, coupling_axis="x"):
    """Qubit with splitting omega_q coupled to bosonic modes.

    coupling_axis 'x' gives a transverse (non-commuting) interaction
    sigma_x (x) sum_k g_k(b_k^dag + b_k); 'z' reproduces pure dephasing
    with a nonzero system Hamiltonian; 'xz' mixes both, breaking the
    parity symmetry that would otherwise keep the mean-force Hamiltonian
    diagonal.

    Conserved charge: sigma_z of the probe for 'z'; the parity
    sigma_z (x) (-1)^{sum_k n_k} for 'x'; none for 'xz'.
    """
    if not modes:
        raise ValueError("at least one bath mode required")
    cutoffs = _bath_cutoffs(modes, n_max)
    energy, number, coupling = _multimode_bath(modes, cutoffs)
    space = HilbertSpace((2, *(n + 1 for n in cutoffs)))
    h_s_local = np.diag([0.0, omega_q])
    pauli = {"x": SIGMA_X, "z": SIGMA_Z, "xz": (SIGMA_X + SIGMA_Z) / np.sqrt(2)}[coupling_axis]
    sigma_z = np.diag(SIGMA_Z).astype(int)
    charge = {"x": np.kron(sigma_z, (-1) ** number),
              "z": np.repeat(sigma_z, len(number)), "xz": None}[coupling_axis]
    h_i = sparse.kron(pauli, coupling)
    return _compose(space, h_s_local, energy, h_i, charge)


def discretize_spectral_density(j, k_modes, omega_max):
    """Midpoint-rule discretization of J into k_modes bath modes.

    g_k^2 = J(omega_k) * delta_omega with omega_k on the midpoint grid, so
    sum_k g_k^2 converges to the integral of J at O(delta_omega^2).
    """
    if k_modes < 1:
        raise ValueError("k_modes must be at least 1")
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    d_omega = omega_max / k_modes
    omegas = (np.arange(k_modes) + 0.5) * d_omega
    gs = np.sqrt(j(omegas) * d_omega)
    return [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]


def fock_measurement(n_max):
    """Number-basis projectors |l><l| for l = 0..n_max."""
    d = n_max + 1
    return ProjectiveMeasurement(tuple(np.diag(row) for row in np.eye(d)), tuple(range(d)))


def pauli_x_measurement():
    """Projectors onto (|0> +/- |1>)/sqrt(2), labelled +1 and -1."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return ProjectiveMeasurement((plus, minus), (1, -1))


def eigenbasis_measurement(op, degeneracy_tol):
    """Eigenprojectors of a Hermitian operator, degenerate clusters merged.

    Eigenvalues closer than degeneracy_tol to their neighbor are grouped
    into one projector; the label is the cluster-mean eigenvalue.
    """
    w, v = hermitian_eig(op)
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] <= degeneracy_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    projs, labels = [], []
    for idx in clusters:
        vecs = v[:, idx]
        projs.append(vecs @ vecs.conj().T)
        labels.append(float(np.mean(w[idx])))
    return ProjectiveMeasurement(tuple(projs), tuple(labels))
