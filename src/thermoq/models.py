"""Concrete thermometer models, bath discretization, and measurement bases.

Two model families are provided: a pair of linearly coupled oscillators
exchanging excitations (factor 0 = thermometer oscillator, factor 1 =
sample oscillator), and a two-level probe dephasing against a set of
bosonic modes (factor 0 = qubit, factors 1.. = modes). A spin-boson
variant with a transverse coupling is included for the steady-state
machinery, where a non-commuting interaction is the interesting case.

Every builder but ``build_dephasing_model`` returns a ``CompositeModel``,
which stores H once, as its sparse blocks on the charge sectors (each block
its nonzero entries), assembled, checked and multiplied with numpy alone. The
dephasing model is a ``ModeProductModel``: its modes grouped by cutoff, per
group and probe level the stacked eigenpairs of the modes' factors, and no H,
so its size grows with the sum of the squared mode cutoffs, not their product.
A ``SpectralDensity`` integrates itself in closed form, with ``math`` alone, so
no module of thermoq imports SciPy.
"""

import itertools
import math
import numbers
import time
from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property

import numpy as np

from .linalg import (HERMITICITY_RTOL, HilbertSpace, InvalidOperatorError, cached,
                     hermitian_eig, read_only)

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
    """A single sample mode: frequency omega in (0, inf), real coupling g, not NaN."""

    omega: float
    g: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"mode frequency must lie in (0, inf), got {self.omega!r}")
        if math.isnan(self.g):
            raise ValueError("mode coupling g is NaN")


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic-family spectral density J(w) = alpha w^s wc^{1-s} e^{-w/wc}."""

    alpha: float
    s: float
    omega_c: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 <= self.s < math.inf
                and 0 < self.omega_c < math.inf):
            raise ValueError(f"require finite alpha > 0, s >= 0 and omega_c > 0, got "
                             f"alpha = {self.alpha!r}, s = {self.s!r}, omega_c = {self.omega_c!r}")

    def __call__(self, omega):
        """J at each omega, alpha wc x^s e^{-x} with x = omega/wc. From s = 1 on it is
        formed as (x e^{-x/s} (alpha wc)^{1/s})^s, as ``_lower_gamma`` forms z^a e^{-z},
        so it is inf only where J passes the float range and never forms inf * 0."""
        x = np.asarray(omega, dtype=float) / self.omega_c
        scale = self.alpha * self.omega_c
        if self.s < 1:  # x^s e^{-x} <= 1
            return scale * (x**self.s * np.exp(-x))
        with np.errstate(over="ignore"):
            return (x * np.exp(-x / self.s) * scale ** (1.0 / self.s)) ** self.s

    def integral(self, upper):
        """The integral of J from 0 to ``upper`` in [0, inf], in closed form:
        alpha wc^2 gamma(s+1, upper/wc), gamma the lower incomplete gamma function;
        inf where it overflows a float."""
        if not upper >= 0:
            raise ValueError(f"the upper limit must lie in [0, inf], got {upper!r}")
        # Python floats, so that an overflow in ** or math raises OverflowError, not
        # a numpy warning
        alpha, s, omega_c = float(self.alpha), float(self.s), float(self.omega_c)
        try:
            return alpha * omega_c**2 * _lower_gamma(s + 1.0, float(upper) / omega_c)
        except OverflowError:
            return math.inf


def _lower_gamma(a, z):
    """gamma(a, z), the integral of u^{a-1} e^{-u} from 0 to z, for a >= 1, z >= 0.

    Below z = a + 1 it sums the series z^a e^{-z} sum_n z^n / (a (a+1) ... (a+n))
    (DLMF 8.7) until a term is below one ulp of the sum. From there on it is
    Gamma(a) - Gamma(a, z), with Gamma(a, z) from Legendre's continued fraction
    (DLMF 8.9) by Lentz's method; the series alone would read 0 once z^a e^{-z}
    underflows, past z = 745 at a = 1. The split depends on the arguments only.
    z^a e^{-z} is formed as (z e^{-z/a})^a, which overflows only within a factor
    of about a of where gamma(a, z) does. A result past the float range raises
    ``OverflowError``.
    """
    if z < a + 1.0:
        power = (z * math.exp(-z / a)) ** a
        term = total = 1.0 / a
        n = a
        while term > math.ulp(total):
            n += 1.0
            term *= z / n
            total += term
        return power * total
    gamma_a = math.gamma(a)
    if z == math.inf:
        return gamma_a
    # Gamma(a, z) = z^a e^{-z} / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))), with
    # b_k = z + 2k + 1 - a and a_k = k (a - k); in this range every partial
    # denominator stays positive
    b = z + 1.0 - a
    c, d = math.inf, 1.0 / b
    fraction = d
    for k in itertools.count(1):
        b += 2.0
        a_k = k * (a - k)
        d = 1.0 / (b + a_k * d)
        c = b + a_k / c
        step = c * d
        fraction *= step
        if abs(step - 1.0) <= math.ulp(1.0):
            return gamma_a - (z * math.exp(-z / a)) ** a * fraction


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Projective measurement on the system factor: an orthonormal basis and its
    readout matrix.

    Column m of the square matrix ``basis`` belongs to the outcome
    ``labels[outcome[m]]``; the labels are distinct, since every route reports
    its outcomes by label. The map is stored once, as ``readout``, the
    read-only (L, M) float64 matrix with readout[l, m] = 1 when column m
    belongs to outcome l and 0 otherwise; ``outcome`` is not kept. The branch
    kernel and its two-point route read ``readout``; the mode-product route
    and mean force read ``projectors``, where ``projectors[l]`` is the effect
    sum_m readout[l, m] |e_m><e_m| = B diag(readout[l]) B^dag, derived on
    first read by one contraction as a read-only (L, d_s, d_s) array (the
    zero projector for an empty row). A unitary basis makes the projectors
    Hermitian, idempotent, mutually orthogonal and complete, so that one
    invariant, max |B^dag B - 1| <= COMPLETENESS_ATOL, is checked.
    """

    basis: np.ndarray
    outcome: InitVar[np.ndarray]
    labels: tuple
    readout: np.ndarray = field(init=False)

    def __post_init__(self, outcome):
        basis = np.array(self.basis, dtype=complex)
        outcome = np.array(outcome)
        labels = tuple(self.labels)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise InvalidOperatorError("basis must be a square matrix")
        if outcome.shape != (len(basis),) or not np.issubdtype(outcome.dtype, np.integer):
            raise ValueError("one integer outcome per basis column required")
        if outcome.min() < 0 or outcome.max() >= len(labels):
            raise ValueError(f"outcome indices span [{outcome.min()}, {outcome.max()}], "
                             f"not within the {len(labels)} labels")
        if len(set(labels)) < len(labels):
            repeated = next(label for n, label in enumerate(labels) if label in labels[:n])
            raise ValueError(f"outcome labels must be distinct: {repeated!r} repeats")
        dev = np.abs(basis.conj().T @ basis - np.eye(len(basis))).max()
        if dev > COMPLETENESS_ATOL:
            raise InvalidOperatorError(
                f"basis is not orthonormal: max |B^dag B - 1| = {dev:.3e}")
        readout = (outcome == np.arange(len(labels))[:, None]).astype(float)
        read_only((basis, readout))
        for name, value in (("basis", basis), ("labels", labels), ("readout", readout)):
            object.__setattr__(self, name, value)

    @cached_property
    def projectors(self):
        projectors = np.einsum("im,lm,jm->lij", self.basis, self.readout, self.basis.conj())
        return read_only((projectors,))[0]

    @property
    def system_dim(self):
        return len(self.basis)


@dataclass(frozen=True, eq=False)
class ModeProductModel:
    """A probe whose every level q dresses each sample mode k on its own.

    H is block-diagonal in the probe levels, and its block on level q is the
    Kronecker sum over the modes of one factor per mode, on that mode's Fock
    levels; H_B = sum_k eps_k is diagonal in the Fock product basis. The model
    holds what the engine's mode-product route reads, and nothing else: its
    modes in ``groups``, each group the modes of one dimension n stacked as
    (modes, energies, values, vectors). ``modes`` (G,) are the group's mode
    positions k in the model's mode order, ``energies`` (G, n) each mode's eps_k
    on its Fock levels, and ``values`` (Q, G, n) and ``vectors`` (Q, G, n, n)
    per probe level q the eigenpairs (lambda, V) of each mode's factor, V real
    with the eigenvectors as columns; every array is read-only. Every mode
    position is in exactly one group. The construction checks the shapes and
    that each V is orthonormal, max |V^T V - 1| <= COMPLETENESS_ATOL, and raises
    ``ValueError`` otherwise. The probe has no energy of its own, so
    ``system_dim`` is the number of levels Q. It holds no H, no charge and no
    array of the sample space's size, so a model of thousands of modes is
    built from one batched ``eigh`` per group. ``HeatEngine`` takes its
    mode-product route exactly on this type.
    """

    groups: tuple

    def __post_init__(self):
        groups = []
        for modes, *arrays in self.groups:
            if np.iscomplexobj(arrays[-1]):
                raise ValueError("eigenvectors must be real")
            modes = np.array(modes)
            energies, values, vectors = (np.array(a, dtype=float) for a in arrays)
            if (modes.ndim != 1 or not np.issubdtype(modes.dtype, np.integer)
                    or energies.shape[:1] != modes.shape or energies.ndim != 2):
                raise ValueError("each group needs one row of energies per mode position")
            if values.ndim != 3 or values.shape[1:] != energies.shape:
                raise ValueError(f"levels must hold one eigenpair per mode of dimension "
                                 f"{energies.shape[1]} for each probe level")
            if vectors.shape != (*values.shape, values.shape[2]):
                raise ValueError(f"eigenvectors of shape {vectors.shape}, not "
                                 f"{(*values.shape, values.shape[2])}: one square V per eigenpair")
            dev = np.abs(np.swapaxes(vectors, -1, -2) @ vectors
                         - np.eye(values.shape[2])).max(initial=0.0)
            if dev > COMPLETENESS_ATOL:
                raise ValueError(f"eigenvectors are not orthonormal: max |V^T V - 1| = {dev:.3e}")
            groups.append(read_only((modes, energies, values, vectors)))
        if len({len(values) for _, _, values, _ in groups}) != 1:
            raise ValueError("groups must be at least one, each with eigenpairs for the same "
                             "number of probe levels")
        positions = np.sort(np.concatenate([modes for modes, *_ in groups]))
        if not np.array_equal(positions, np.arange(len(positions))):
            raise ValueError("each mode position 0..K-1 must be in exactly one group")
        object.__setattr__(self, "groups", tuple(groups))

    @property
    def system_dim(self):
        return len(self.groups[0][2])

    @property
    def bath_dim(self):
        return math.prod(energies.shape[1] ** len(modes) for modes, energies, *_ in self.groups)

    @cached_property
    def space(self):
        dims = np.zeros(sum(len(modes) for modes, *_ in self.groups), dtype=int)
        for modes, energies, *_ in self.groups:
            dims[modes] = energies.shape[1]
        return HilbertSpace((self.system_dim, *dims.tolist()))


class SectorCouplingError(ValueError):
    """The Hamiltonian has an entry between two different charge labels."""


@dataclass(frozen=True, eq=False)
class CompositeModel:
    """Thermometer + sample Hamiltonian H = H_S (x) 1 + 1 (x) H_B + H_I.

    ``sectors`` is H, stored once as its blocks on the charge sectors: per
    sector, in ascending charge order, (index, rows, cols, values), the
    sector's basis states in basis order and H's nonzero entries among them
    (float64 values; rows and columns are positions within the sector, in
    ascending row-major order), every array read-only. ``charge`` labels each
    basis state with the conserved charge its builder declared (None: no
    charge, and one sector of every state), and H has no entry between two
    different labels. h_s_local is H_S on factor 0, dense. Every builder's
    H_B = sum_k omega_k n_k is diagonal in the sample's Fock product basis;
    ``bath_energies`` is that diagonal, read-only float64, in basis order.
    Each sector's eigenpairs, ``sector_eigenpairs(b)`` (one dense ``eigh`` of
    its block), are computed on first use and cached, so a route pays only
    for the sectors it reads, and the engine and the mean-force routes of one
    model share one ``eigh`` per sector. ``spectrum`` (every sector's
    eigenpairs) and ``probe_tables`` (the eigenvectors of H reduced to the
    probe factor, for the mean-force routes) are cached the same way.
    ``sectors_diagonalized`` and ``eigh_s`` count the sectors diagonalized so
    far and the seconds their ``eigh``s took.
    """

    space: HilbertSpace
    sectors: tuple
    h_s_local: np.ndarray
    bath_energies: np.ndarray
    charge: np.ndarray

    def __post_init__(self):
        # sector position -> (eigenpairs, eigh seconds) of each sector diagonalized
        # so far, stored by ``linalg.cached``
        object.__setattr__(self, "_diagonalized", {})

    @cached_property
    def sector_indices(self):
        """Per sector, in ascending charge order, its basis states in basis order,
        read-only; a model with no charge has one sector covering every index."""
        return tuple(index for index, _, _, _ in self.sectors)

    def sector_eigenpairs(self, b):
        """(index, eigenvalues, column eigenvectors) of sector b, read-only.

        ``index`` is ``sector_indices[b]``, and the eigenvectors are columns over
        those states only, in ascending eigenvalue order. The first call runs
        one dense eigh of H's block, |I_b|^3, and caches it; later calls return
        the same arrays. Its readers are the engine's branch kernel and its
        two-point scatter, each for the sectors holding a start state, and
        ``spectrum``.
        """
        def diagonalize():
            start = time.perf_counter()
            index, rows, cols, values = self.sectors[b]
            dense = np.zeros((len(index), len(index)))
            dense[rows, cols] = values
            return read_only((index, *np.linalg.eigh(dense))), time.perf_counter() - start

        return cached(self._diagonalized, b, diagonalize)[0]

    @property
    def sectors_diagonalized(self):
        """How many sectors ``sector_eigenpairs`` has diagonalized so far."""
        return len(self._diagonalized)

    @property
    def eigh_s(self):
        """Seconds spent in the sectors' eighs so far, each sector counted once."""
        return sum(seconds for _, seconds in self._diagonalized.values())

    @cached_property
    def spectrum(self):
        """Every sector's ``sector_eigenpairs``, as a tuple in sector order.

        Costs one dense eigh of H's block per sector not yet diagonalized:
        sum_b |I_b|^3 on a fresh model. Its reader is ``probe_tables`` (the
        mean-force routes), which needs every sector.
        """
        return tuple(self.sector_eigenpairs(b) for b in range(len(self.sectors)))

    @cached_property
    def probe_tables(self):
        """(w, G, K): the eigenvectors v_n of H reduced to the probe factor.

        w lists the eigenvalues of H in ``spectrum`` order; G[s, t, n] =
        Tr_B |v_n><v_n| and K[t, s, n] = Tr_B H|v_n><v_n|, each (d_s, d_s, d)
        and read-only. K applies each stored block of H to its sector's
        eigenvectors, not their eigenvalues: it equals w_n G[t, s, n] only as
        far as the spectrum solves H, so a route reading K checks the spectrum
        against H. Costs one block-times-V product (``_block_times``) and d_s^2
        sums over the sample index per sector, once per model; a sector short
        of the whole space has V and H V embedded in it, a d x n_b copy each.
        """
        d, d_s = self.space.total_dim, self.system_dim
        w, g, k = [], [], []
        for (index, rows, cols, entries), (_, values, v) in zip(self.sectors, self.spectrum):
            hv = _block_times(rows, cols, entries, v)
            if len(index) < d:
                hv, v = _embedded(d, index, hv), _embedded(d, index, v)
            hv = hv.reshape(d_s, self.bath_dim, -1)
            full = v.reshape(d_s, self.bath_dim, -1)
            w.append(values)
            g.append(np.einsum("sbn,tbn->stn", full, full))
            k.append(np.einsum("tbn,sbn->tsn", hv, full))
        return read_only((np.concatenate(w), np.concatenate(g, axis=2),
                          np.concatenate(k, axis=2)))

    @property
    def system_dim(self):
        return self.space.factor_dims[0]

    @property
    def bath_dim(self):
        return self.space.total_dim // self.system_dim


def _block_times(rows, cols, entries, v):
    """B @ v for the block B storing ``entries`` at (rows, cols), in ascending
    row-major order, and a dense v: the sums of SciPy's CSR product, bit for bit.

    That product adds each row's products to a zeroed row in ascending column
    order. Here the entries are grouped by diagonal, offset c - r, and the
    diagonals are added in ascending offset order, so each row sums the same
    products in the same order; on a row where a diagonal stores no entry it
    adds 0 * v, which changes no sum. The rows go in blocks of about 256 KiB,
    which stay in cache across the diagonals. Costs 2 D n_b^2 flops for D
    diagonals: the two-mode spin-boson blocks have 5 ('z'), 9 ('x') or 13 ('xz').
    """
    n = len(v)
    offsets, diagonal_of = np.unique(cols - rows, return_inverse=True)
    diagonals = np.zeros((len(offsets), n))
    diagonals[diagonal_of, rows] = entries
    out = np.zeros_like(v)
    step = max(1, 2**15 // v.shape[1])
    products = np.empty((step, v.shape[1]), dtype=v.dtype)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        for offset, diagonal in zip(offsets.tolist(), diagonals):
            # the block's rows r whose column r + offset is in range
            lo, hi = max(r0, -offset), min(r1, n - offset)
            if lo < hi:
                np.multiply(diagonal[lo:hi, None], v[lo + offset:hi + offset],
                            out=products[:hi - lo])
                out[lo:hi] += products[:hi - lo]
    return out


def _embedded(d, index, a):
    """The rows of ``a`` at positions ``index`` of a zeroed (d, ...) array."""
    full = np.zeros((d, *a.shape[1:]), dtype=a.dtype)
    full[index] = a
    return full


def _kron_entries(dims, ops):
    """(rows, cols, values) of the nonzero entries of ops[0] (x) ops[1] (x) ...

    ops[f] is a dense operator on factor f, of dimension dims[f], or None for
    that factor's identity. Rows and columns index the product basis in
    Kronecker order. Each value is the product of one entry per factor taken
    left to right, as a chain of Kronecker products forms it.
    """
    rows = cols = np.zeros(1, dtype=np.intp)
    values = np.ones(1)
    for n, op in zip(dims, ops):
        if op is None:
            r = c = np.arange(n)
            v = np.ones(n)
        else:
            r, c = np.nonzero(op)
            v = op[r, c]
        rows = np.add.outer(rows * n, r).ravel()
        cols = np.add.outer(cols * n, c).ravel()
        values = np.multiply.outer(values, v).ravel()
    return rows, cols, values


def _concat_entries(*parts):
    """The (rows, cols, values) entries of several operators, one list after another."""
    return tuple(np.concatenate(p) for p in zip(*parts))


def _sector_blocks(d, charge, rows, cols, values):
    """Per charge sector, in ascending label order (one sector of all d states where
    charge is None): (index, rows, cols, values), the sector's basis states in
    basis order and H's entries (rows, cols, values) among them, rows and columns
    as positions within the sector, every array read-only. H's entries come in
    ascending row-major order, and within a sector they stay in it; H must couple
    no two sectors."""
    labels = np.zeros(d, dtype=int) if charge is None else charge
    _, sector_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(sector_of, kind="stable")
    local = np.empty(d, dtype=int)
    local[order] = np.arange(d) - np.repeat(np.cumsum(counts) - counts, counts)
    entry_sector = sector_of[rows]
    by_sector = np.argsort(entry_sector, kind="stable")
    # the entries sorted by sector once; each sector is then a slice of each array
    order, rows, cols, values = read_only(
        (order, local[rows[by_sector]], local[cols[by_sector]], values[by_sector]))
    states = np.cumsum(counts).tolist()
    entries = np.cumsum(np.bincount(entry_sector, minlength=len(counts))).tolist()
    return tuple((order[s0:s1], rows[e0:e1], cols[e0:e1], values[e0:e1])
                 for s0, s1, e0, e1 in zip([0] + states[:-1], states,
                                           [0] + entries[:-1], entries))


def _hermiticity_deviation(keys, mirror, data):
    """max |H - H^T| for the real matrix H that stores ``data`` at the ascending
    ``keys``, ``mirror`` the key of each entry's transposed position: each entry
    less the one stored at its mirror, 0 where H stores none there."""
    at = np.minimum(np.searchsorted(keys, mirror), len(keys) - 1)
    mirrored = np.where(keys[at] == mirror, data[at], 0.0)
    return np.abs(data - mirrored).max(initial=0.0)


def _compose(space, h_s_local, bath_energies, h_i, charge=None):
    """The model of H = H_S (x) 1 + 1 (x) diag(bath_energies) + H_I, with H_I given
    as (rows, cols, values) entries (duplicates add up), H held as its blocks on
    the sectors of ``charge`` (``_sector_blocks``). H is checked Hermitian, in
    O(nnz log nnz), and block-diagonal in ``charge``, in O(nnz)."""
    bath_energies = np.array(bath_energies, dtype=float)
    h_s_local = np.array(h_s_local, dtype=float)
    d = space.total_dim
    diagonal = np.arange(d)
    rows, cols, values = _concat_entries(
        (diagonal, diagonal, np.tile(bath_energies, len(h_s_local))),
        _kron_entries((len(h_s_local), len(bath_energies)), (h_s_local, None)), h_i)
    # at most two entries coincide, E_B and H_S's diagonal (H_I has no diagonal
    # entry, and its terms and H_S (x) 1 share no position), so the order in
    # which duplicates add up cannot change a bit of H
    keys, entry_key = np.unique(rows * d + cols, return_inverse=True)
    data = np.bincount(entry_key, weights=values)
    stored = data != 0
    keys, data = keys[stored], data[stored]
    rows, cols = np.divmod(keys, d)
    scale = 1.0 + np.abs(data).max(initial=0.0)
    dev = _hermiticity_deviation(keys, cols * d + rows, data)
    if dev > HERMITICITY_RTOL * scale:
        raise InvalidOperatorError(
            f"matrix is not Hermitian: max deviation {dev:.3e} at scale {scale:.3e}")
    if charge is not None:
        charge = np.asarray(charge)
        bad = np.flatnonzero(charge[rows] != charge[cols])
        if bad.size:
            r, c = rows[bad[0]], cols[bad[0]]
            raise SectorCouplingError(
                f"H couples state {r} (charge {charge[r]}) to state {c} "
                f"(charge {charge[c]}) in {bad.size} entries")
        charge = read_only((charge,))[0]
    return CompositeModel(space, _sector_blocks(d, charge, rows, cols, data),
                          *read_only((h_s_local, bath_energies)), charge)


def build_coupled_oscillators(omega_a, omega_0, g, n_max):
    """Two oscillators with excitation-exchange coupling g(a^dag b + b^dag a).

    Conserved charge: the total excitation number n_a + n_b.
    """
    n_max = _checked_count(n_max, "n_max")
    d = n_max + 1
    space = HilbertSpace((d, d))
    a = destroy(n_max)
    h_s_local = omega_a * number_op(n_max)
    # the two terms share no entry; g scales their sum, as g * (a^T (x) a + a (x) a^T)
    rows, cols, values = _concat_entries(_kron_entries((d, d), (a.T, a)),
                                         _kron_entries((d, d), (a, a.T)))
    n = np.arange(d)
    return _compose(space, h_s_local, omega_0 * n, (rows, cols, g * values),
                    charge=np.add.outer(n, n).ravel())


def _checked_count(n, name, kind="cutoff"):
    """The count n (a Fock cutoff by default) as an int: an integer (numpy's too, a
    bool not) of at least 1, else a ValueError; ``kind`` is what the not-an-integer
    message calls n, and ``name`` what the at-least-1 message calls it."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{kind} {n!r} is not an integer")
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    return int(n)


def _bath_cutoffs(modes, n_max):
    cutoffs = [n_max] * len(modes) if np.isscalar(n_max) else list(n_max)
    if len(cutoffs) != len(modes):
        raise ValueError("one cutoff per mode required")
    return [_checked_count(n, "mode cutoffs") for n in cutoffs]


def _multimode_bath(modes, cutoffs, probe_op):
    """Diagonal bath energies and total excitation numbers over the product basis
    of the modes, and the (rows, cols, values) entries of the coupling
    probe_op (x) sum_k g_k (b_k^dag + b_k) over the probe and the modes."""
    dims = (len(probe_op), *(n + 1 for n in cutoffs))
    energy, number = np.zeros(1), np.zeros(1, dtype=int)
    terms = []
    for k, (mode, n) in enumerate(zip(modes, cutoffs)):
        levels = np.arange(n + 1)
        energy = np.add.outer(energy, mode.omega * levels).ravel()
        number = np.add.outer(number, levels).ravel()
        ops = [probe_op] + [None] * len(modes)
        ops[k + 1] = mode.g * (destroy(n) + destroy(n).T)
        terms.append(_kron_entries(dims, ops))
    return energy, number, _concat_entries(*terms)


def build_dephasing_model(modes, n_max):
    """Qubit dephasing against bosonic modes: H_S = 0, H_I = sigma_z (x) sum_k g_k(b_k^dag + b_k).

    The spin-boson model with omega_q = 0 and coupling_axis 'z', built as a
    ``ModeProductModel``: H's block on the probe level of sigma_z = s is the
    Kronecker sum over the modes of omega_k n_k + s g_k (b_k^dag + b_k), and
    eps_k = omega_k n. The modes are grouped by their cutoff, in ascending
    cutoff order, each group in mode order, and each group's sigma_z = +1
    factors F are diagonalized by one batched ``eigh``. The sigma_z = -1 factor
    is P F P with the parity P = diag((-1)^n), since P (b^dag + b) P =
    -(b^dag + b), so its eigenpairs are the same eigenvalues and P V, exact sign
    flips of the +1 eigenvectors. It forms no H and no array of the sample
    space's size; ``build_spin_boson_model(0.0, modes, n_max, 'z')`` is the same
    model with its sparse H.
    """
    if not modes:
        raise ValueError("at least one bath mode required")
    cutoffs = np.array(_bath_cutoffs(modes, n_max))
    omega = np.array([m.omega for m in modes])
    g = np.array([m.g for m in modes])
    groups = []
    for n in np.unique(cutoffs).tolist():
        at = np.flatnonzero(cutoffs == n)
        lam, v = np.linalg.eigh(omega[at, None, None] * number_op(n)
                                + g[at, None, None] * (destroy(n) + destroy(n).T))
        parity = (-1.0) ** np.arange(n + 1)
        # probe levels in the order of SIGMA_Z's diagonal: sigma_z = +1, then -1
        groups.append((at, omega[at, None] * np.arange(n + 1), np.stack([lam, lam]),
                       np.stack([v, parity[:, None] * v])))
    return ModeProductModel(groups)


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
    if coupling_axis not in ("x", "z", "xz"):
        raise ValueError(f"coupling_axis must be 'x', 'z' or 'xz', got {coupling_axis!r}")
    if not modes:
        raise ValueError("at least one bath mode required")
    cutoffs = _bath_cutoffs(modes, n_max)
    pauli = {"x": SIGMA_X, "z": SIGMA_Z, "xz": (SIGMA_X + SIGMA_Z) / np.sqrt(2)}[coupling_axis]
    energy, number, h_i = _multimode_bath(modes, cutoffs, pauli)
    space = HilbertSpace((2, *(n + 1 for n in cutoffs)))
    h_s_local = np.diag([0.0, omega_q])
    sigma_z = np.diag(SIGMA_Z).astype(int)
    charge = {"x": np.kron(sigma_z, (-1) ** number),
              "z": np.repeat(sigma_z, len(number)), "xz": None}[coupling_axis]
    return _compose(space, h_s_local, energy, h_i, charge)


def discretize_spectral_density(j, k_modes, omega_max):
    """Midpoint-rule discretization of J into k_modes bath modes.

    g_k^2 = J(omega_k) * delta_omega with omega_k on the midpoint grid, so
    sum_k g_k^2 converges to the integral of J at O(delta_omega^2).
    """
    k_modes = _checked_count(k_modes, "k_modes", kind="k_modes")
    if not 0 < omega_max < math.inf:
        raise ValueError(f"omega_max must lie in (0, inf), got {omega_max!r}")
    d_omega = omega_max / k_modes
    omegas = (np.arange(k_modes) + 0.5) * d_omega
    gs = np.sqrt(j(omegas) * d_omega)
    return [BathMode(float(w), float(g)) for w, g in zip(omegas, gs)]


def fock_measurement(n_max):
    """Number-basis projectors |l><l| for l = 0..n_max."""
    d = n_max + 1
    return ProjectiveMeasurement(np.eye(d), np.arange(d), tuple(range(d)))


@cache
def pauli_x_measurement():
    """Projectors onto (|0> +/- |1>)/sqrt(2), labelled +1 and -1: one measurement
    per process, built and checked on the first call, which every caller can
    share since a measurement is immutable."""
    return ProjectiveMeasurement(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), (0, 1), (1, -1))


def eigenbasis_measurement(op, degeneracy_tol):
    """Eigenprojectors of a Hermitian matrix, degenerate clusters merged.

    Eigenvalues closer than degeneracy_tol to their neighbor are grouped
    into one outcome; the label is the cluster-mean eigenvalue.
    """
    w, v = hermitian_eig(op)
    cluster = np.concatenate(([0], np.cumsum(np.diff(w) > degeneracy_tol)))
    labels = tuple(float(np.mean(w[cluster == c])) for c in range(cluster[-1] + 1))
    return ProjectiveMeasurement(v, cluster, labels)
