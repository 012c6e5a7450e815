"""Dense complex-matrix kernels over truncated tensor-product Hilbert spaces.

Everything here is plain numpy on dense matrices. Target dimensions are
desk scale (<= ~1000), so eigendecomposition-based matrix functions are
used throughout; no sparse formats, no series expansions. Units: hbar =
k_B = 1, beta is an inverse energy.
"""

import math
from dataclasses import dataclass

import numpy as np

# Tolerances fixed here so type invariants and tests agree.
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
EIGVAL_FLOOR = -1e-10


class InvalidOperatorError(ValueError):
    """Matrix fails the Hermiticity (or shape) invariant."""


class InvalidStateError(ValueError):
    """Matrix fails a density-matrix invariant (trace, positivity)."""


class DomainError(ValueError):
    """Scalar function undefined on an eigenvalue."""


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

    @property
    def num_factors(self):
        return len(self.factor_dims)

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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite matrix attached to a HilbertSpace."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, self.space.total_dim)
        _check_hermitian(m)
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidStateError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        lo = np.linalg.eigvalsh(m)[0]
        if lo < EIGVAL_FLOOR:
            raise InvalidStateError(f"minimum eigenvalue {lo:.3e} below {EIGVAL_FLOOR}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _matrix_of(op, dtype=complex):
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        return op.matrix
    return np.asarray(op, dtype=dtype)


def hermitian_eig(op):
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, unitary matrix of column eigenvectors).
    """
    m = _matrix_of(op)
    if not isinstance(op, (HermitianOperator, DensityMatrix)):
        _check_hermitian(m)
    return np.linalg.eigh(m)


def hermitian_func(op, f):
    """Apply a scalar function to a Hermitian operator: V f(Lambda) V^dag.

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


def tensor_product(a, b):
    """Kronecker product of two matrices (dims multiply)."""
    return np.kron(_matrix_of(a), _matrix_of(b))


def embed_factor(local_op, space, factor_index):
    """Embed a local operator at one factor, identity elsewhere.

    Returns the full-space matrix in the dtype of ``local_op``, not validated
    as Hermitian, so it can also embed non-Hermitian locals.
    """
    dims = space.factor_dims
    if not 0 <= factor_index < len(dims):
        raise IndexError(f"factor index {factor_index} out of range")
    local = _matrix_of(local_op, dtype=None)
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
    """Partial trace of a raw matrix over the factors not in ``keep``."""
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


def partial_trace(rho, keep):
    """Partial trace of a DensityMatrix, keeping the listed factors."""
    dims = rho.space.factor_dims
    reduced = partial_trace_matrix(rho.matrix, dims, keep)
    return DensityMatrix(rho.space.subspace(keep), reduced)


def gibbs_weights(eigenvalues, beta):
    """Normalized Boltzmann weights, overflow-safe via ground-state shift."""
    w = np.exp(-beta * (eigenvalues - eigenvalues.min()))
    return w / w.sum()


def thermal_state(h_b, beta):
    """Gibbs state e^{-beta H}/Z of a Hermitian operator."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    w, v = hermitian_eig(h_b)
    p = gibbs_weights(w, beta)
    m = (v * p) @ v.conj().T
    space = h_b.space if isinstance(h_b, HermitianOperator) else HilbertSpace((len(w),))
    return DensityMatrix(space, m)


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
