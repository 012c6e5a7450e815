"""Spaces, Hermitian eigendecomposition and thermal weights for truncated tensor products.

Plain numpy on dense probe- and block-sized matrices; the full-space
Hamiltonian is sparse and lives on the model (see ``models``). Units:
hbar = k_B = 1, beta is an inverse energy. ``cached`` and ``read_only`` are
the rule every engine and model cache stores by.
"""

import math
from dataclasses import dataclass

import numpy as np

# Tolerance fixed here so type invariants and tests agree.
HERMITICITY_RTOL = 1e-12


class InvalidOperatorError(ValueError):
    """Matrix fails the Hermiticity (or shape) invariant."""


def read_only(values):
    """``values`` as a tuple, each array in it marked read-only."""
    values = tuple(values)
    for a in values:
        a.setflags(write=False)
    return values


def cached(cache, key, compute):
    """``cache[key]``, stored from ``compute()`` by the first call that misses it.

    The one rule of every cache in thermoq: an entry is never changed once
    stored (``dict.setdefault``), so two threads that miss one key at once each
    compute it, and both return the first stored. With its arrays read-only
    (``read_only``), an entry is the same immutable value to every thread that
    shares the cache. No cache is ever emptied.
    """
    value = cache.get(key)
    if value is None:
        value = cache.setdefault(key, compute())
    return value


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


def hermitian_eig(matrix):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary matrix of column eigenvectors).
    Raises InvalidOperatorError unless the matrix is square and Hermitian
    within HERMITICITY_RTOL.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidOperatorError(f"expected a square matrix, got shape {m.shape}")
    scale = 1.0 + np.abs(m).max(initial=0.0)
    dev = np.abs(m - m.conj().T).max(initial=0.0)
    if dev > HERMITICITY_RTOL * scale:
        raise InvalidOperatorError(
            f"matrix is not Hermitian: max deviation {dev:.3e} at scale {scale:.3e}"
        )
    return np.linalg.eigh(m)


def gibbs_rows(eigenvalues, betas):
    """Normalized Boltzmann weights at each of ``betas``, one row per beta:
    a (len(betas), *eigenvalues.shape) array, overflow-safe via ground-state
    shift. A stack of spectra, eigenvalues (..., n), is normalized per spectrum."""
    w = np.exp(-np.multiply.outer(betas, eigenvalues - eigenvalues.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def gibbs_weights(eigenvalues, beta):
    """Normalized Boltzmann weights at one beta: the row of ``gibbs_rows``."""
    return gibbs_rows(eigenvalues, [beta])[0]


def truncation_level(beta, omega, tail):
    """Smallest Fock cutoff N with thermal weight above N below ``tail``.

    For a single bosonic mode at inverse temperature beta the normalized
    occupation probabilities are geometric, p_n = (1-q) q^n with
    q = e^{-beta omega}, so the discarded weight is q^{N+1}.
    """
    if not (beta > 0 and omega > 0 and tail > 0):
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
