"""Exact diagonalization in a truncated Fock x symmetric-atom basis.

The basis is |nu> x |n1 n2 n3> with nu <= nu_max photons and (n1, n2, n3)
running over the totally symmetric N-atom occupations. Indexing is nu-major,
then lexicographic in (n2, n3), matching `model.symmetric_occupations`.
Everything here is the ground truth the variational formulas are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import eigsh
from scipy.special import gammainc

from .errors import CutoffNotConverged, TailTooLarge
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    excitation_weights,
    symmetric_occupations,
)

# Sector size above which the lowest eigenpair comes from Lanczos instead of
# a dense solve.
DENSE_CUTOFF = 4000

# Acceptable truncated weight of a coherent field state above the cutoff.
TAIL_FLOOR = 1e-14


def suggested_nu_max(alpha: complex) -> int:
    """Cutoff heuristic: mean + 10 standard deviations + margin."""
    x = abs(alpha) ** 2
    return math.ceil(x + 10.0 * math.sqrt(x + 1.0) + 20.0)


class TruncatedSpace:
    """Truncated product basis with deterministic indexing."""

    def __init__(self, n_atoms: int, nu_max: int, max_dimension: int = 500_000):
        if n_atoms < 1:
            raise ValueError("n_atoms must be positive")
        if nu_max < 0:
            raise ValueError("nu_max must be nonnegative")
        self.n_atoms = n_atoms
        self.nu_max = nu_max
        self.occupations = symmetric_occupations(n_atoms)
        dim = (nu_max + 1) * len(self.occupations)
        if dim > max_dimension:
            raise ValueError(
                f"basis dimension {dim} exceeds the configured limit {max_dimension}"
            )
        self._atomic_index = {
            (n2, n3): k for k, (_, n2, n3) in enumerate(self.occupations)
        }

    @property
    def atomic_dimension(self) -> int:
        return len(self.occupations)

    @property
    def dimension(self) -> int:
        return (self.nu_max + 1) * self.atomic_dimension

    def index(self, nu: int, n2: int, n3: int) -> int:
        return nu * self.atomic_dimension + self._atomic_index[(n2, n3)]

    def labels(self):
        """(nu, n1, n2, n3) for every basis vector, in index order."""
        for nu in range(self.nu_max + 1):
            for n1, n2, n3 in self.occupations:
                yield (nu, n1, n2, n3)

    def shrunk(self, nu_max: int) -> "TruncatedSpace":
        return TruncatedSpace(self.n_atoms, nu_max)


def atomic_transition(space: TruncatedSpace, i: int, j: int) -> sparse.csr_matrix:
    """Collective A_ij = b_i' b_j on the atomic factor alone."""
    dim = space.atomic_dimension
    rows, cols, data = [], [], []
    for col, occ in enumerate(space.occupations):
        n = list(occ)
        if n[j - 1] == 0:
            continue
        n[j - 1] -= 1
        amp = math.sqrt((n[j - 1] + 1) * (n[i - 1] + 1))
        n[i - 1] += 1
        rows.append(space._atomic_index[(n[1], n[2])])
        cols.append(col)
        data.append(amp)
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def field_annihilation(space: TruncatedSpace) -> sparse.csr_matrix:
    d = space.nu_max + 1
    diag = np.sqrt(np.arange(1, d))
    return sparse.diags(diag, offsets=1).tocsr()


def _lift_atomic(space: TruncatedSpace, op: sparse.csr_matrix) -> sparse.csr_matrix:
    """1 x op, assembled directly: one copy of op per photon number.

    In the nu-major basis this is block diagonal, so the CSR arrays are
    those of op repeated with shifted offsets (same matrix as sparse.kron).
    """
    copies = np.arange(space.nu_max + 1)[:, None]
    dim = op.shape[0]
    indptr = np.append((op.indptr[:-1] + op.nnz * copies).ravel(), op.nnz * len(copies))
    indices = (op.indices + dim * copies).ravel()
    data = np.tile(op.data, len(copies))
    size = dim * len(copies)
    return sparse.csr_matrix((data, indices, indptr), shape=(size, size))


def _lift_field(space: TruncatedSpace, op: sparse.spmatrix) -> sparse.csr_matrix:
    return sparse.kron(op, sparse.identity(space.atomic_dimension), format="csr")


def transition(space: TruncatedSpace, i: int, j: int) -> sparse.csr_matrix:
    """A_ij on the full truncated space."""
    return _lift_atomic(space, atomic_transition(space, i, j))


def annihilation(space: TruncatedSpace) -> sparse.csr_matrix:
    """a on the full truncated space."""
    return _lift_field(space, field_annihilation(space))


def photon_number(space: TruncatedSpace) -> sparse.csr_matrix:
    d = space.nu_max + 1
    return _lift_field(space, sparse.diags(np.arange(d, dtype=float)).tocsr())


def m_diagonal(space: TruncatedSpace, config: AtomicConfiguration) -> np.ndarray:
    """Eigenvalues of M = a'a + lambda2 A_22 + lambda3 A_33 along the basis."""
    l2, l3 = excitation_weights(config)
    return np.array([nu + l2 * n2 + l3 * n3 for nu, _, n2, n3 in space.labels()])


def m_operator(space: TruncatedSpace, config: AtomicConfiguration) -> sparse.csr_matrix:
    return sparse.diags(m_diagonal(space, config).astype(float)).tocsr()


def parity_operator(
    space: TruncatedSpace, config: AtomicConfiguration
) -> sparse.csr_matrix:
    signs = 1.0 - 2.0 * (m_diagonal(space, config) % 2)
    return sparse.diags(signs).tocsr()


def parity_sectors(
    space: TruncatedSpace, config: AtomicConfiguration
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the even and odd exp(i pi M) eigenspaces."""
    m = m_diagonal(space, config)
    return np.flatnonzero(m % 2 == 0), np.flatnonzero(m % 2 == 1)


def counter_rotating_part(params: ModelParams, space: TruncatedSpace) -> sparse.csr_matrix:
    """-(1/sqrt(N)) sum mu_ij (A_ij a + A_ji a')."""
    a_f = field_annihilation(space)
    h = sparse.csr_matrix((space.dimension, space.dimension))
    for i, j in params.config.allowed_pairs:
        mu = params.coupling(i, j)
        if mu == 0.0:
            continue
        a_ij = atomic_transition(space, i, j)
        h = h + (-mu / math.sqrt(params.n_atoms)) * (
            sparse.kron(a_f, a_ij, format="csr")
            + sparse.kron(a_f.T, a_ij.T, format="csr")
        )
    return h.tocsr()


def build_hamiltonian(params: ModelParams, space: TruncatedSpace) -> sparse.csr_matrix:
    """Hamiltonian matrix (real symmetric) on the truncated space."""
    if params.n_atoms != space.n_atoms:
        raise ValueError("atom-number mismatch between params and space")
    h = params.omega * photon_number(space)
    for i, w in zip((1, 2, 3), params.level_energies):
        if w != 0.0:
            h = h + w * transition(space, i, i)
    a_f = field_annihilation(space)
    root_n = math.sqrt(params.n_atoms)
    for i, j in params.config.allowed_pairs:
        mu = params.coupling(i, j)
        if mu == 0.0:
            continue
        a_ij = atomic_transition(space, i, j)
        if params.rwa:
            inter = sparse.kron(a_f.T, a_ij, format="csr")
            inter = inter + inter.T
        else:
            inter = sparse.kron(a_f + a_f.T, a_ij + a_ij.T, format="csr")
        h = h - (mu / root_n) * inter
    return h.tocsr()


@dataclass
class StateVector:
    """A (possibly unnormalized) vector on a truncated space."""

    space: TruncatedSpace
    data: np.ndarray

    def norm_squared(self) -> float:
        return float(np.vdot(self.data, self.data).real)

    def expectation(self, op: sparse.spmatrix) -> complex:
        val = complex(np.vdot(self.data, op.dot(self.data)))
        return val / self.norm_squared()

    def photon_distribution(self) -> np.ndarray:
        psi = self.data.reshape(self.space.nu_max + 1, self.space.atomic_dimension)
        weights = np.sum(np.abs(psi) ** 2, axis=1)
        return weights / weights.sum()

    def atomic_density_matrix(self) -> np.ndarray:
        """Field traced out; basis = space.occupations."""
        psi = self.data.reshape(self.space.nu_max + 1, self.space.atomic_dimension)
        rho = psi.T @ psi.conj()
        return rho / np.trace(rho).real


def build_sacs_vector(
    point: CoherentPoint,
    branch: ParityBranch,
    config: AtomicConfiguration,
    space: TruncatedSpace,
    check_tail: bool = True,
) -> StateVector:
    """Parity-adapted coherent state expanded in the truncated basis.

    Raises TailTooLarge when the coherent field component leaves more than
    TAIL_FLOOR of its weight above nu_max.
    """
    if check_tail:
        tail = float(gammainc(space.nu_max + 1, abs(point.alpha) ** 2))
        if tail > TAIL_FLOOR:
            raise TailTooLarge(
                f"weight {tail:.3e} above nu_max={space.nu_max} for |alpha|^2="
                f"{abs(point.alpha) ** 2:.3f}"
            )
    l2, l3 = excitation_weights(config)
    n_fact = math.factorial(space.n_atoms)
    atom_amp = np.empty(space.atomic_dimension, dtype=complex)
    atom_sign = np.empty(space.atomic_dimension, dtype=int)
    for k, (n1, n2, n3) in enumerate(space.occupations):
        coeff = math.sqrt(
            n_fact / (math.factorial(n1) * math.factorial(n2) * math.factorial(n3))
        )
        atom_amp[k] = coeff * point.gamma2**n2 * point.gamma3**n3
        atom_sign[k] = (-1) ** (l2 * n2 + l3 * n3)

    field_amp = np.empty(space.nu_max + 1, dtype=complex)
    field_amp[0] = 1.0
    for nu in range(1, space.nu_max + 1):
        field_amp[nu] = field_amp[nu - 1] * point.alpha / math.sqrt(nu)
    field_sign = 1 - 2 * (np.arange(space.nu_max + 1) % 2)

    combo = 1.0 + branch.sign * np.outer(field_sign, atom_sign)
    psi = np.outer(field_amp, atom_amp) * combo
    return StateVector(space=space, data=psi.ravel())


def _lowest_eigenpair(h_sub: sparse.csr_matrix) -> tuple[float, np.ndarray]:
    dim = h_sub.shape[0]
    if dim <= DENSE_CUTOFF:
        vals, vecs = scipy.linalg.eigh(h_sub.toarray(), subset_by_index=(0, 0))
        return float(vals[0]), vecs[:, 0]
    vals, vecs = eigsh(h_sub, k=1, which="SA")
    return float(vals[0]), vecs[:, 0]


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if pivot == 0:
        return vec
    return vec * (abs(pivot) / pivot)


@dataclass
class SectorGround:
    energy: float
    state: StateVector
    sector: ParityBranch


@dataclass
class GroundStateResult:
    even: SectorGround
    odd: SectorGround
    nu_max: int
    certificate: dict

    @property
    def global_ground(self) -> SectorGround:
        return self.even if self.even.energy <= self.odd.energy else self.odd


def _sector_energy_and_state(
    h: sparse.csr_matrix, indices: np.ndarray, space: TruncatedSpace
) -> tuple[float, StateVector]:
    sub = h[np.ix_(indices, indices)].tocsr()
    energy, vec = _lowest_eigenpair(sub)
    full = np.zeros(space.dimension, dtype=complex)
    full[indices] = _fix_phase(vec)
    return energy, StateVector(space=space, data=full)


def ground_states(
    params: ModelParams,
    space: TruncatedSpace,
    certify: bool = True,
    delta: float = 1e-10,
) -> GroundStateResult:
    """Per-parity-sector ground states with a cutoff-convergence certificate.

    The certificate compares each sector energy against the same computation
    at nu_max - 10 and requires agreement within ``delta``.
    """
    h = build_hamiltonian(params, space)
    even_idx, odd_idx = parity_sectors(space, params.config)
    e_even, v_even = _sector_energy_and_state(h, even_idx, space)
    e_odd, v_odd = _sector_energy_and_state(h, odd_idx, space)

    certificate = {"delta": None, "nu_max": space.nu_max, "certified": False}
    if certify:
        if space.nu_max < 11:
            raise CutoffNotConverged("nu_max too small to certify", delta=None)
        small = space.shrunk(space.nu_max - 10)
        h_small = build_hamiltonian(params, small)
        even_s, odd_s = parity_sectors(small, params.config)
        deltas = []
        for idx, e_ref in ((even_s, e_even), (odd_s, e_odd)):
            sub = h_small[np.ix_(idx, idx)].tocsr()
            e_small, _ = _lowest_eigenpair(sub)
            deltas.append(abs(e_small - e_ref))
        worst = max(deltas)
        certificate.update(delta=worst, certified=worst < delta)
        if worst >= delta:
            raise CutoffNotConverged(
                f"|E(nu_max) - E(nu_max - 10)| = {worst:.3e} >= {delta:.1e}",
                delta=worst,
            )
    return GroundStateResult(
        even=SectorGround(e_even, v_even, ParityBranch.EVEN),
        odd=SectorGround(e_odd, v_odd, ParityBranch.ODD),
        nu_max=space.nu_max,
        certificate=certificate,
    )


def converged_ground_states(
    params: ModelParams,
    nu_max_start: int = 40,
    delta: float = 1e-10,
    nu_max_limit: int = 5120,
) -> GroundStateResult:
    """Double the cutoff from ``nu_max_start`` until the certificate holds."""
    nu_max = nu_max_start
    last_exc = None
    while nu_max <= nu_max_limit:
        space = TruncatedSpace(params.n_atoms, nu_max)
        try:
            return ground_states(params, space, certify=True, delta=delta)
        except CutoffNotConverged as exc:
            last_exc = exc
            nu_max *= 2
    raise CutoffNotConverged(
        f"no converged cutoff found up to nu_max={nu_max_limit}",
        delta=getattr(last_exc, "delta", None),
    )


def sector_spectrum(
    params: ModelParams,
    space: TruncatedSpace,
    branch: ParityBranch,
    k: int = 6,
) -> np.ndarray:
    """Lowest k eigenvalues of one parity sector."""
    h = build_hamiltonian(params, space)
    even_idx, odd_idx = parity_sectors(space, params.config)
    idx = even_idx if branch is ParityBranch.EVEN else odd_idx
    sub = h[np.ix_(idx, idx)].tocsr()
    k = min(k, sub.shape[0])
    if sub.shape[0] <= DENSE_CUTOFF:
        vals = scipy.linalg.eigh(sub.toarray(), eigvals_only=True, subset_by_index=(0, k - 1))
        return np.asarray(vals)
    vals, _ = eigsh(sub, k=k, which="SA")
    return np.sort(vals)


def excitation_rotation_deviation(
    params: ModelParams, space: TruncatedSpace, theta: float
) -> float:
    """Deviation of exp(i theta M) H_R exp(-i theta M) from its two-term form.

    The counter-rotating part H_R transforms as cos(2 theta) H_R +
    (i/2) sin(2 theta) [M, H_R]; returns the max-abs entry difference over
    the block with nu <= nu_max - 2 on both sides (interior of the cutoff).
    """
    h_r = counter_rotating_part(params, space).tocsc()
    m = m_diagonal(space, params.config).astype(float)
    phase = np.exp(1j * theta * m)
    left = sparse.diags(phase) @ h_r @ sparse.diags(phase.conjugate())
    comm = sparse.diags(m) @ h_r - h_r @ sparse.diags(m)
    right = math.cos(2.0 * theta) * h_r + 0.5j * math.sin(2.0 * theta) * comm
    interior = np.flatnonzero(
        np.array([nu <= space.nu_max - 2 for nu, *_ in space.labels()])
    )
    diff = (left - right).tocsr()[np.ix_(interior, interior)]
    if diff.nnz == 0:
        return 0.0
    return float(np.max(np.abs(diff.data)))
