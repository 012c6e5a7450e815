"""Spaces, Hermitian operators and thermal weights for truncated tensor products.

Plain numpy on dense probe- and block-sized matrices; the full-space
Hamiltonian is sparse and lives on the model (see ``models``). Units:
hbar = k_B = 1, beta is an inverse energy.
"""

import math
from dataclasses import dataclass

import numpy as np

# Tolerance fixed here so type invariants and tests agree.
HERMITICITY_RTOL = 1e-12


class InvalidOperatorError(ValueError):
    """Matrix fails the Hermiticity (or shape) invariant."""


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of finite-dimensional factors.

    Factor 0 is by convention the thermometer (system); the remaining
    factors are the sample modes.
    """

    factor_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive integers")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self):
        return math.prod(self.factor_dims)

    def subspace(self, indices):
        """Space formed by the listed factors, in ascending order."""
        idx = sorted(set(indices))
        return HilbertSpace(tuple(self.factor_dims[i] for i in idx))


def _check_hermitian(matrix):
    scale = 1.0 + np.abs(matrix).max(initial=0.0)
    dev = np.abs(matrix - matrix.conj().T).max(initial=0.0)
    if dev > HERMITICITY_RTOL * scale:
        raise InvalidOperatorError(
            f"matrix is not Hermitian: max deviation {dev:.3e} at scale {scale:.3e}"
        )


def _as_square(matrix, dim):
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidOperatorError(f"expected a {dim}x{dim} matrix, got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Hermitian matrix attached to a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, self.space.total_dim)
        _check_hermitian(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hermitian_eig(op):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, unitary matrix of column eigenvectors).
    """
    if isinstance(op, HermitianOperator):
        return np.linalg.eigh(op.matrix)
    m = np.asarray(op, dtype=complex)
    _check_hermitian(m)
    return np.linalg.eigh(m)


def gibbs_weights(eigenvalues, beta):
    """Normalized Boltzmann weights, overflow-safe via ground-state shift."""
    w = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    return w / w.sum()


def truncation_level(beta, omega, tail):
    """Smallest Fock cutoff N with thermal weight above N below ``tail``.

    For a single bosonic mode at inverse temperature beta the normalized
    occupation probabilities are geometric, p_n = (1-q) q^n with
    q = e^{-beta omega}, so the discarded weight is q^{N+1}.
    """
    if beta <= 0 or omega <= 0 or tail <= 0:
        raise ValueError("beta, omega, tail must be positive")
    if tail >= 1:
        raise ValueError("tail must be below 1")
    q = math.exp(-beta * omega)
    n = 0
    while q ** (n + 1) >= tail:
        n += 1
        if n > 100_000:
            raise ValueError("truncation level exceeds 100000; check parameters")
    return n
