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

from .linalg import (
    HilbertSpace,
    InvalidOperatorError,
    _check_hermitian,
    embed_factor,
    hermitian_eig,
)

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
        for i, p in enumerate(projs):
            if np.abs(p - p.conj().T).max() > COMPLETENESS_ATOL:
                raise InvalidOperatorError("projector is not Hermitian")
            if np.abs(p @ p - p).max() > COMPLETENESS_ATOL:
                raise InvalidOperatorError("projector is not idempotent")
            for q in projs[:i]:
                if np.abs(p @ q).max() > COMPLETENESS_ATOL:
                    raise InvalidOperatorError("projectors are not orthogonal")
        if np.abs(sum(projs) - np.eye(d)).max() > COMPLETENESS_ATOL:
            raise InvalidOperatorError("projectors do not sum to identity")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def system_dim(self):
        return self.projectors[0].shape[0]


@dataclass(frozen=True, eq=False)
class CompositeModel:
    """Thermometer + sample Hamiltonian H = H_S (x) 1 + 1 (x) H_B + H_I.

    ``hamiltonian`` is H on the full space, stored once, read-only, float64
    from every builder; h_s_local and h_b_local are H_S on factor 0 and H_B
    on the sample factors. ``spectrum`` and ``bath_spectrum`` (eigenpairs of
    H and H_B) are computed on first use and cached; every route reads them.
    """

    space: HilbertSpace
    hamiltonian: np.ndarray
    h_s_local: np.ndarray
    h_b_local: np.ndarray

    @cached_property
    def spectrum(self):
        """(eigenvalues ascending, column eigenvectors) of the full Hamiltonian."""
        return _read_only(np.linalg.eigh(self.hamiltonian))

    @cached_property
    def bath_spectrum(self):
        """(eigenvalues ascending, column eigenvectors) of the sample Hamiltonian."""
        return _read_only(np.linalg.eigh(self.h_b_local))

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


def _compose(space, h_s_local, h_b_local, h_i):
    d_s = space.factor_dims[0]
    d_b = space.total_dim // d_s
    h = np.kron(h_s_local, np.eye(d_b)) + np.kron(np.eye(d_s), h_b_local) + h_i
    _check_hermitian(h)
    return CompositeModel(space, *_read_only((h, np.array(h_s_local), np.array(h_b_local))))


def build_coupled_oscillators(omega_a, omega_0, g, n_max):
    """Two oscillators with excitation-exchange coupling g(a^dag b + b^dag a)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = n_max + 1
    space = HilbertSpace((d, d))
    a = destroy(n_max)
    h_s_local = omega_a * number_op(n_max)
    h_b_local = omega_0 * number_op(n_max)
    h_i = g * (np.kron(a.conj().T, a) + np.kron(a, a.conj().T))
    return _compose(space, h_s_local, h_b_local, h_i)


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
    """Bath Hamiltonian and per-mode displacement operators on the bath space."""
    dims = [n + 1 for n in cutoffs]
    d_b = int(np.prod(dims))
    h_b = np.zeros((d_b, d_b))
    coupling = np.zeros((d_b, d_b))
    bath_space = HilbertSpace(tuple(dims))
    for k, (mode, n) in enumerate(zip(modes, cutoffs)):
        num_k = embed_factor(number_op(n), bath_space, k)
        b_k = embed_factor(destroy(n), bath_space, k)
        h_b += mode.omega * num_k
        coupling += mode.g * (b_k + b_k.conj().T)
    return dims, h_b, coupling


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
    """
    if not modes:
        raise ValueError("at least one bath mode required")
    cutoffs = _bath_cutoffs(modes, n_max)
    dims, h_b_local, coupling = _multimode_bath(modes, cutoffs)
    space = HilbertSpace((2, *dims))
    h_s_local = np.diag([0.0, omega_q])
    pauli = {"x": SIGMA_X, "z": SIGMA_Z, "xz": (SIGMA_X + SIGMA_Z) / np.sqrt(2)}[coupling_axis]
    h_i = np.kron(pauli, coupling)
    return _compose(space, h_s_local, h_b_local, h_i)


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
