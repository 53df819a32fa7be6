"""Exact diagonalization in a truncated Fock x symmetric-atom basis.

The basis is |nu> x |n1 n2 n3> with nu <= nu_max photons and (n1, n2, n3)
running over the totally symmetric N-atom occupations. Indexing is nu-major,
then lexicographic in (n2, n3), matching `model.symmetric_occupations`.
Everything here is the ground truth the variational formulas are tested
against. Each operator is one CSR construction from index arrays (the A_ij
entries cached read-only per (N, i, j, dark level)), with the stored arrays
of its Kronecker-product form bit for bit.

Where the frame makes the two levels of a coupled pair degenerate (V with
omega2 = omega3, Lambda with omega1 = omega2), only their bright combination
couples, the dark one's number is conserved, and the ground-state solve runs
on the block without dark atoms (see `dark_level`).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.linalg.blas import dsbmv
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import surface
from .errors import CutoffNotConverged, NonConvergence, TailTooLarge
from .model import (
    MAX_DIMENSION,
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    OneBodyExpectations,
    ParityBranch,
    StateObservables,
    excitation_weights,
    mandel_q,
    symmetric_occupations,
)

# Size of a block above which its lowest eigenpairs come from a banded
# Cholesky factor or Lanczos instead of a dense solve.
DENSE_CUTOFF = 256

# Widest band that is factored (`_banded_ground`, `_banded_spectrum`; it
# holds (w + 1) n floats); a block wider than this or than nu_max / 2,
# where Lanczos was measured faster, goes to Lanczos.
BANDED_WIDTH = 128

# Steps the banded ground solver may take on one block before it gives up.
_BANDED_STEPS = 100

# Acceptable truncated weight of a coherent field state above the cutoff.
TAIL_FLOOR = 1e-14

# Certificate tolerance on delta (see `ground_states`), or the solver floor if larger.
CERTIFICATE_DELTA = 1e-10


def _pin_openblas() -> None:
    """Set every OpenBLAS loaded into this process to one thread.

    The exact path makes many small LAPACK, BLAS and ARPACK calls, which
    threads slow down (README) and whose threaded reductions round
    differently at each thread count. numpy's ILP64 and scipy's LP64
    OpenBLAS are separate pools, so both are set. Without /proc, or with
    another BLAS, nothing is done.
    """
    try:
        with open("/proc/self/maps") as maps:
            # The sixth field is the path, which may hold spaces.
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a library deleted since it was loaded
            continue
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_pin_openblas()


# Per scheme: the coupled pair (p, q) whose degeneracy makes a dark state,
# and the level r that both couple to.
_COUPLED_PAIRS = {
    AtomicConfiguration.V: (2, 3, 1),
    AtomicConfiguration.LAMBDA: (1, 2, 3),
}


def suggested_nu_max(alpha: complex) -> int:
    """Cutoff heuristic: mean + 10 standard deviations + margin."""
    x = abs(alpha) ** 2
    return math.ceil(x + 10.0 * math.sqrt(x + 1.0) + 20.0)


def dark_level(params: ModelParams) -> int | None:
    """Level q of a degenerate coupled pair (p, q), else None.

    With omega_p = omega_q, H sees the pair only through the bright state
    b = (mu_pr |p> + mu_qr |q>) / mu, mu = hypot(mu_pr, mu_qr). The
    orthogonal dark state d is uncoupled, so its number n_d commutes with H,
    with or without the RWA, and both sector ground states lie in the
    n_d = 0 block (README). Rotated so that b is level p, that block is the
    space whose level q stays empty.
    """
    pair = _COUPLED_PAIRS.get(params.config)
    if pair is None:
        return None
    p, q, _ = pair
    energies = params.level_energies
    return q if energies[p - 1] == energies[q - 1] else None


def _bright_rotation(params: ModelParams) -> tuple[ModelParams, int, int, tuple[float, float]]:
    """(rotated params, p, q, shares) of a frame with a dark level.

    The rotated parameters carry mu on the pair (p, r) and 0 on (q, r), so
    level p is b; `shares` split <n_b> into <n_p> and <n_q>.
    """
    p, q, r = _COUPLED_PAIRS[params.config]
    mu_p, mu_q = params.coupling(p, r), params.coupling(q, r)
    mu = math.hypot(mu_p, mu_q)
    if mu > 0.0:
        shares = ((mu_p / mu) ** 2, (mu_q / mu) ** 2)
    else:
        # Every split is a ground state; the full basis, ordered by n2 first,
        # meets the one that leaves level 2 empty first.
        shares = (float(p != 2), float(q != 2))
    names = {level: f"mu{min(level, r)}{max(level, r)}" for level in (p, q)}
    rotated = replace(params, **{names[p]: mu, names[q]: 0.0})
    return rotated, p, q, shares


def _occupations(n_atoms: int, dark_level: int | None) -> list[tuple[int, int, int]]:
    """Symmetric occupations in the (n2, n3) order; none in `dark_level` (2 or 3)."""
    if dark_level is None:
        return symmetric_occupations(n_atoms)
    if dark_level == 3:
        return [(n_atoms - k, k, 0) for k in range(n_atoms + 1)]
    return [(n_atoms - k, 0, k) for k in range(n_atoms + 1)]


class TruncatedSpace:
    """Truncated product basis with deterministic indexing.

    With a `dark_level` the space is the block whose occupations leave that
    level empty: the bright block of a frame with that dark level (see
    `dark_level`).
    """

    def __init__(self, n_atoms: int, nu_max: int, dark_level: int | None = None):
        if n_atoms < 1:
            raise ValueError("n_atoms must be positive")
        if nu_max < 0:
            raise ValueError("nu_max must be nonnegative")
        if dark_level not in (None, 2, 3):
            raise ValueError(f"a dark level is 2 or 3, got {dark_level}")
        self.n_atoms = n_atoms
        self.nu_max = nu_max
        self.dark_level = dark_level
        self.occupations = _occupations(n_atoms, dark_level)
        if self.dimension > MAX_DIMENSION:
            raise ValueError(
                f"basis dimension {self.dimension} exceeds the limit {MAX_DIMENSION}"
            )

    @property
    def atomic_dimension(self) -> int:
        return len(self.occupations)

    @property
    def dimension(self) -> int:
        return (self.nu_max + 1) * self.atomic_dimension


@functools.cache
def _atomic_entries(
    n_atoms: int, i: int, j: int, dark_level: int | None = None
) -> tuple[np.ndarray, ...]:
    """Read-only (rows, cols, amplitudes) of A_ij, sorted by (row, col).

    Column k is occupation k of the space; its entry moves one atom from
    level j to i, with amplitude sqrt(n_j (n_i + 1)) (n_i on the diagonal),
    into the row of the moved occupation. Rows are ranked through the key
    n2 (N + 1) + n3, which increases along the (n2, n3) order; a move into
    the dark level leaves the space and has no entry.
    """
    occ = np.array(_occupations(n_atoms, dark_level))
    keys = occ[:, 1] * (n_atoms + 1) + occ[:, 2]
    cols = np.flatnonzero(occ[:, j - 1])
    moved = occ[cols] + np.eye(3, dtype=int)[i - 1] - np.eye(3, dtype=int)[j - 1]
    moved_keys = moved[:, 1] * (n_atoms + 1) + moved[:, 2]
    rows = np.searchsorted(keys, moved_keys)
    inside = keys[np.minimum(rows, keys.size - 1)] == moved_keys
    rows, cols, moved = rows[inside], cols[inside], moved[inside]
    amps = np.sqrt(occ[cols, j - 1] * moved[:, i - 1])
    order = np.lexsort((cols, rows))
    entries = rows[order], cols[order], amps[order]
    for array in entries:
        array.flags.writeable = False
    return entries


def _csr(size: int, blocks) -> sparse.csr_matrix:
    """Square CSR matrix owning copies of (rows, cols, values) blocks.

    No row repeats within a block (each is a diagonal or a one-to-one map of
    basis states), so a block scatters straight into the next free slot of
    each of its rows; the columns of each row are then sorted in place. No
    (row, col) repeats across blocks either, so this is the canonical form.
    """
    blocks = list(blocks)
    indptr = np.zeros(size + 1, dtype=np.int32)
    for rows, _, _ in blocks:
        indptr[1:] += np.bincount(rows, minlength=size).astype(np.int32)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    free = indptr[:-1].copy()
    for rows, cols, values in blocks:
        slots = free[rows]
        indices[slots] = cols
        data[slots] = values
        free[rows] += 1
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    matrix.sort_indices()
    return matrix


def transition(space: TruncatedSpace, i: int, j: int) -> sparse.csr_matrix:
    """A_ij on the full truncated space: 1 x A_ij, one copy of the atomic entries per nu."""
    rows, cols, amps = _atomic_entries(space.n_atoms, i, j, space.dark_level)
    shifts = space.atomic_dimension * np.arange(space.nu_max + 1)[:, None]
    values = np.tile(amps, space.nu_max + 1)
    return _csr(space.dimension, [((shifts + rows).ravel(), (shifts + cols).ravel(), values)])


def annihilation(space: TruncatedSpace) -> sparse.csr_matrix:
    """a on the full truncated space: a x 1, sqrt(nu) from (nu, k) to (nu - 1, k)."""
    rows = np.arange(space.dimension - space.atomic_dimension)
    roots = np.repeat(np.sqrt(np.arange(1.0, space.nu_max + 1)), space.atomic_dimension)
    return _csr(space.dimension, [(rows, rows + space.atomic_dimension, roots)])


def _diagonal(values: np.ndarray):
    """(rows, cols, values) block of the nonzero entries of a diagonal, for `_csr`."""
    index = np.flatnonzero(values)
    return index, index, values[index]


def photon_number(space: TruncatedSpace) -> sparse.csr_matrix:
    nus = np.repeat(np.arange(space.nu_max + 1, dtype=float), space.atomic_dimension)
    return _csr(space.dimension, [_diagonal(nus)])


def m_diagonal(space: TruncatedSpace, config: AtomicConfiguration) -> np.ndarray:
    """Eigenvalues of M = a'a + lambda2 A_22 + lambda3 A_33 along the basis."""
    l2, l3 = excitation_weights(config)
    _, n2, n3 = np.array(space.occupations).T
    return (np.arange(space.nu_max + 1)[:, None] + (l2 * n2 + l3 * n3)).ravel()


def m_operator(space: TruncatedSpace, config: AtomicConfiguration) -> sparse.csr_matrix:
    return _csr(space.dimension, [_diagonal(m_diagonal(space, config).astype(float))])


def parity_operator(
    space: TruncatedSpace, config: AtomicConfiguration
) -> sparse.csr_matrix:
    signs = 1.0 - 2.0 * (m_diagonal(space, config) % 2)
    return _csr(space.dimension, [_diagonal(signs)])


def parity_sectors(
    space: TruncatedSpace, config: AtomicConfiguration
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the even and odd exp(i pi M) eigenspaces."""
    m = m_diagonal(space, config)
    return np.flatnonzero(m % 2 == 0), np.flatnonzero(m % 2 == 1)


def _coupling_entries(params: ModelParams, space: TruncatedSpace, steps: tuple[int, ...]):
    """Entries of -(mu_ij/sqrt N) a^s x A_ij and of its transpose, per allowed pair.

    A photon step s of +1 stands for a', -1 for a. Each value is
    -(mu_ij/sqrt N) * (sqrt(nu) amp), bracket first as sparse.kron forms it.
    """
    dim = space.atomic_dimension
    lower = dim * np.arange(space.nu_max)[:, None]
    root = np.sqrt(np.arange(1.0, space.nu_max + 1))[:, None]
    for i, j in params.config.allowed_pairs:
        mu = params.coupling(i, j)
        if mu == 0.0:
            continue
        rows, cols, amps = _atomic_entries(space.n_atoms, i, j, space.dark_level)
        values = (-(mu / math.sqrt(params.n_atoms)) * (root * amps)).ravel()
        for step in steps:
            # a' raises nu on the row side of the block, a on the column side.
            r = (lower + dim * (step > 0) + rows).ravel()
            c = (lower + dim * (step < 0) + cols).ravel()
            yield r, c, values
            yield c, r, values


def counter_rotating_part(params: ModelParams, space: TruncatedSpace) -> sparse.csr_matrix:
    """-(1/sqrt(N)) sum mu_ij (A_ij a + A_ji a')."""
    return _csr(space.dimension, _coupling_entries(params, space, (-1,)))


def build_hamiltonian(params: ModelParams, space: TruncatedSpace) -> sparse.csr_matrix:
    """Hamiltonian matrix (real symmetric) on the truncated space.

    Diagonal: Omega nu, then each nonzero omega_i n_i; no stored zeros.
    Couplings: a' A_ij (and a A_ij without the RWA) with their transposes.
    """
    if params.n_atoms != space.n_atoms:
        raise ValueError("atom-number mismatch between params and space")
    diag = params.omega * photon_number(space).diagonal()
    for i, w in zip((1, 2, 3), params.level_energies):
        if w != 0.0:
            diag = diag + w * transition(space, i, i).diagonal()
    couplings = _coupling_entries(params, space, (1,) if params.rwa else (1, -1))
    return _csr(space.dimension, [_diagonal(diag), *couplings])


@dataclass
class StateVector:
    """A (possibly unnormalized) vector on a truncated space."""

    space: TruncatedSpace
    data: np.ndarray

    def norm_squared(self) -> float:
        return float(np.vdot(self.data, self.data).real)

    def expectation(self, *ops: sparse.spmatrix) -> complex:
        """<v|ops[0] ops[1] ... |v> / <v|v>, applying the operators right to left."""
        image = self.data
        for op in reversed(ops):
            image = op.dot(image)
        return complex(np.vdot(self.data, image)) / self.norm_squared()

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
) -> StateVector:
    """Parity-adapted coherent state expanded in the truncated basis.

    Raises TailTooLarge when the coherent field component leaves more than
    TAIL_FLOOR of its weight above nu_max.
    """
    from scipy.special import gammainc  # its one user; exact solves never load it
    tail = float(gammainc(space.nu_max + 1, abs(point.alpha) ** 2))
    if tail > TAIL_FLOOR:
        raise TailTooLarge(
            f"weight {tail:.3e} above nu_max={space.nu_max} for |alpha|^2="
            f"{abs(point.alpha) ** 2:.3f}"
        )
    n_fact = math.factorial(space.n_atoms)
    atom_amp = np.empty(space.atomic_dimension, dtype=complex)
    for k, (n1, n2, n3) in enumerate(space.occupations):
        coeff = math.sqrt(
            n_fact / (math.factorial(n1) * math.factorial(n2) * math.factorial(n3))
        )
        atom_amp[k] = coeff * point.gamma2**n2 * point.gamma3**n3

    field_amp = np.empty(space.nu_max + 1, dtype=complex)
    field_amp[0] = 1.0
    for nu in range(1, space.nu_max + 1):
        field_amp[nu] = field_amp[nu - 1] * point.alpha / math.sqrt(nu)

    # The image under exp(i pi M) carries the parity of each basis state.
    signs = 1 - 2 * (m_diagonal(space, config) % 2)
    combo = 1.0 + branch.sign * signs.reshape(space.nu_max + 1, space.atomic_dimension)
    psi = np.outer(field_amp, atom_amp) * combo
    return StateVector(space=space, data=psi.ravel())


@dataclass
class SectorGround:
    energy: float
    state: StateVector
    sector: ParityBranch


def ground_observables(ground: SectorGround, params: ModelParams) -> StateObservables:
    """Observables of an exact sector ground state (totals, not per atom).

    On a bright block the populations of b split back over its pair; the
    other observables are those of the block state, since the rotation is a
    one-body unitary on the atoms and the block embeds isometrically.
    """
    vec = ground.state
    space = vec.space
    m, norm = m_operator(space, params.config).diagonal(), vec.norm_squared()
    m_mean = np.vdot(vec.data, m * vec.data).real / norm
    m_var = float(np.sum(np.abs(vec.data) ** 2 * (m - m_mean) ** 2)) / norm  # two-pass
    rho = vec.atomic_density_matrix()
    pops = np.array(space.occupations).T @ np.diag(rho).real
    if space.dark_level is not None:
        _, p, q, (share_p, share_q) = _bright_rotation(params)
        n_bright = pops[p - 1]
        pops[p - 1], pops[q - 1] = share_p * n_bright, share_q * n_bright
    a11, a22, a33 = pops
    dist = vec.photon_distribution()
    nus = np.arange(dist.size)
    dist_mean = float(nus @ dist)
    one = OneBodyExpectations(a11, a22, a33, dist_mean)
    entropy = 1.0 - float(np.sum(np.abs(rho) ** 2))
    dist_var = float(np.sum(dist * (nus - dist_mean) ** 2))
    return StateObservables(
        ground.energy, one, dist_var, m_mean, m_var, mandel_q(m_mean, m_var), entropy
    )


@dataclass
class GroundStateResult:
    """Both sector ground states at one cutoff, its delta and floor (see `ground_states`)."""

    even: SectorGround
    odd: SectorGround
    nu_max: int
    delta: float
    floor: float

    @property
    def global_ground(self) -> SectorGround:
        return self.even if self.even.energy <= self.odd.energy else self.odd


def _solver_floor(n: int, row_sum: float) -> float:
    """tau = sqrt(n) eps G of an n-state block of H, G the largest Gershgorin row sum of H."""
    return math.sqrt(n) * float(np.finfo(float).eps) * row_sum


def _banded_ground(band: np.ndarray, shift: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified lowest eigenpair ([E], x as a column) of a block in lower band storage.

    Inverse iteration from the fixed positive start vector, shifted first to
    `shift`, the Gershgorin bound less tau (the solver floor of H's largest
    row sum), then to the Rayleigh quotient E less max(|Hx - Ex|, tau); a
    shift that does not factor is bisected towards the last that did. As
    H - sI factors iff no eigenvalue lies at or below s, a factor at E - tau
    certifies E once |Hx - Ex| <= tau, connected block or not. Raises
    NonConvergence after _BANDED_STEPS steps. Overwrites the band.
    """
    n, width = band.shape[1], band.shape[0] - 1
    flat = band.ravel(order="K")  # a view: the band is contiguous
    stored = np.flatnonzero(flat)
    entries = flat[stored]

    def shifted(shift):  # the band refilled with H - shift I
        band.fill(0.0)
        flat[stored] = entries
        band[0] -= shift
        return band

    lower, residual, x = shift, math.inf, np.random.default_rng(0).uniform(0.5, 1.5, n)
    for _ in range(_BANDED_STEPS):
        at = max(shift, lower)  # a shift at or below the last factored one is raised to it
        try:
            factor = scipy.linalg.cholesky_banded(
                shifted(at), overwrite_ab=True, lower=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            residual, shift = math.inf, 0.5 * (lower + shift)
            continue
        lower = at
        if residual <= tau:
            return np.array([energy]), x[:, None]
        x = scipy.linalg.cho_solve_banded((factor, True), x, check_finite=False)
        x /= np.linalg.norm(x)
        hx = dsbmv(width, 1.0, shifted(0.0), x, lower=1)
        energy = float(x @ hx)
        residual = float(np.linalg.norm(hx - energy * x))
        shift = energy - max(residual, tau)
    raise NonConvergence(f"no certified ground of a {n}-state block in {_BANDED_STEPS} steps")


def _banded_spectrum(band: np.ndarray, shift: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs, ascending, of a block in lower band storage (overwritten).

    Lanczos from the fixed start vector on (H - shift I)^-1, applied by one
    banded Cholesky factor; its eigenvalue theta is shift + 1/theta of H.
    Below every eigenvalue H - shift I is positive definite, so a
    factorization that fails (LinAlgError) failed on rounding.
    """
    n = band.shape[1]
    band[0] -= shift
    factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    solve = functools.partial(scipy.linalg.cho_solve_banded, (factor, True), check_finite=False)
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    thetas, vecs = eigsh(LinearOperator((n, n), solve, dtype=float), k=k, which="LA", v0=v0)
    return shift + 1.0 / thetas[::-1], vecs[:, ::-1]


def _lowest_eigenpairs(params: ModelParams, space: TruncatedSpace, k: int):
    """(H, G, (even, odd)): per sector the lowest k (eigenvalue, indices, eigenvector on them).

    H is built once and cut into blocks by a label it conserves: for k = 1,
    M under the RWA (the vacuum is a block of its own), else M mod 2; for
    k > 1 the connected component (H stores no zeros), so that a reducible
    spectrum keeps every degenerate copy. A block lies in the sector of its
    first member. Blocks are visited in label order; one whose Gershgorin
    bound (least diag - (sum |row| - |diag|) of its rows) less tau, the
    solver floor of its size and G, H's largest sum |row|, lies above the
    k-th value its sector has so far cannot enter the lowest k and is
    skipped uncut. A one-state block is read off the diagonal; one of at
    most DENSE_CUTOFF states, or k >= 1/16 of it, is solved dense; a larger
    one of bandwidth at most BANDED_WIDTH and nu_max / 2 from its band
    shifted to that bound less tau, by `_banded_ground` for k = 1 and
    `_banded_spectrum` for k > 1; a wider one by Lanczos from a fixed start
    vector with unequal positive entries (a uniform one misses states odd
    under a level exchange); a solve that fails raises NonConvergence with
    the block size. Each sector is merged by a stable sort on the
    eigenvalue. On a bright block H is that of the rotated parameters.
    """
    if space.dark_level is not None:
        if space.dark_level != dark_level(params):
            raise ValueError("the space is not the bright block of these parameters")
        params = _bright_rotation(params)[0]
    h = build_hamiltonian(params, space)
    parity = np.zeros(space.dimension, dtype=int)
    parity[parity_sectors(space, params.config)[1]] = 1
    if k > 1:
        labels = connected_components(h, directed=False)[1]
    else:
        labels = m_diagonal(space, params.config) if params.rwa else parity
    members = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    firsts = np.cumsum(sizes) - sizes
    place = np.empty(space.dimension, dtype=h.indices.dtype)  # index within the block
    place[members] = np.arange(space.dimension) - np.repeat(firsts, sizes)
    sums = np.zeros(h.nnz + 1)  # |entries| and a 0 that an empty last row starts at
    np.abs(h.data, out=sums[:-1])
    sums = np.add.reduceat(sums, h.indptr[:-1]) * (np.diff(h.indptr) > 0)
    diagonal, largest = h.diagonal(), float(np.max(sums, initial=0.0))
    bounds = np.minimum.reduceat((diagonal + np.abs(diagonal) - sums)[members], firsts)
    del sums, diagonal
    sectors = ([], [])
    for part, bound in zip(np.split(members, np.cumsum(sizes)[:-1]), bounds):
        n, sector = part.size, sectors[parity[part[0]]]
        lowest = bound - (tau := _solver_floor(n, largest))  # at or below every eigenvalue
        if len(sector) == k and lowest > sector[-1][0]:
            continue
        # H keeps the label, so a member row has all its entries in the block:
        # cut in index order, they are the block's canonical CSR arrays.
        starts = h.indptr[part]
        counts = h.indptr[part + 1] - starts
        ends = np.cumsum(counts, dtype=counts.dtype)
        take = np.arange(ends[-1], dtype=ends.dtype) + np.repeat(starts - ends + counts, counts)
        cols, data = place[h.indices[take]], h.data[take]
        rows = np.repeat(np.arange(n, dtype=cols.dtype), counts)
        try:
            if n == 1:
                vals, vecs = np.array([data.sum()]), np.ones((1, 1))
            elif n <= DENSE_CUTOFF or 16 * k >= n:
                dense = np.zeros((n, n))
                dense[rows, cols] = data
                vals, vecs = scipy.linalg.eigh(dense, subset_by_index=(0, min(k, n) - 1))
            elif np.max(rows - cols) <= min(BANDED_WIDTH, space.nu_max // 2):
                below = rows >= cols
                offsets = rows[below] - cols[below]
                band = np.zeros((offsets.max() + 1, n), order="F")
                band[offsets, cols[below]] = data[below]
                del take, rows, cols, data, below, offsets  # not alive beside the solve's
                if k == 1:
                    vals, vecs = _banded_ground(band, lowest, tau)
                else:
                    vals, vecs = _banded_spectrum(band, lowest, k)
                del band  # not alive beside the next block's
            else:
                v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
                block = sparse.csr_matrix((data, cols, np.append(0, ends)), shape=(n, n))
                vals, vecs = eigsh(block, k=k, which="SA", v0=v0)
        except (np.linalg.LinAlgError, ArpackNoConvergence) as exc:
            raise NonConvergence(f"no eigenpairs of a {n}-state block: {exc}") from exc
        sector.extend((val, part, vec) for val, vec in zip(vals, vecs.T))
        sector.sort(key=lambda entry: entry[0])  # stable: equal values keep block order
        del sector[k:]
    return h, largest, sectors


def ground_states(params: ModelParams, space: TruncatedSpace) -> GroundStateResult:
    """Per-parity-sector ground states and their cutoff delta.

    The space is the full one or the bright block of the parameters' frame
    (`TruncatedSpace(n, nu_max, dark_level(params))`); the states live on it.
    The delta of a sector compares its energy E with the Rayleigh quotient
    x.Hx / x.x, where H is the block that holds the sector ground and x
    the ground vector with every state of nu > nu_max - 10 set to zero; the
    result carries the larger |x.Hx / x.x - E| of the two sectors. Where x
    is zero, as at every cutoff below 10, the delta is infinite. Only
    `converged_ground_states` judges it. The quotient is at least the
    lowest eigenvalue of the nu <= nu_max - 10 states of that block, and so
    of the whole nu_max - 10 sector: this delta is never below the distance
    from E to either. floor: the smaller ground block's solver floor tau.
    """
    leading = (space.nu_max - 9) * space.atomic_dimension
    grounds, deltas = [], []
    h, largest, sectors = _lowest_eigenpairs(params, space, 1)
    for branch, ((energy, part, vec),) in zip(ParityBranch, sectors):
        pivot = vec[np.argmax(np.abs(vec))]  # the phase makes the largest entry positive
        data = np.zeros(space.dimension, dtype=complex)
        data[part] = vec * (abs(pivot) / pivot)
        grounds.append(SectorGround(float(energy), StateVector(space, data), branch))
        x = np.where(part < leading, vec, 0.0)
        norm = x @ x
        image = h @ np.bincount(part, x, space.dimension)  # H keeps the block: its product
        deltas.append(abs(x @ image[part] / norm - energy) if norm else math.inf)
    floor = _solver_floor(min(sector[0][1].size for sector in sectors), largest)
    return GroundStateResult(*grounds, space.nu_max, float(max(deltas)), floor)


def converged_ground_states(params: ModelParams) -> GroundStateResult:
    """Double the cutoff from the coherent estimate until delta < max(CERTIFICATE_DELTA, floor).

    The solve runs on the bright block where the frame has a dark level,
    else on the full space. The first cutoff is suggested_nu_max at the
    minimum of the coherent surface (its best candidate if the minimizer did
    not converge: the estimate is only a starting guess, the certificate
    decides). Returns the first result of `ground_states` whose delta passes.
    Raises CutoffNotConverged once the basis of the next cutoff would pass
    MAX_DIMENSION, with the delta of the last attempt (None if there was
    none).
    """
    try:
        crit = surface.minimize_surface(params)
    except NonConvergence as exc:
        crit = exc.best
    dark = dark_level(params)
    nu_max, delta = suggested_nu_max(crit.rho), None
    while True:
        try:
            space = TruncatedSpace(params.n_atoms, nu_max, dark)
        except ValueError as exc:
            raise CutoffNotConverged(
                f"no converged cutoff below the basis limit at nu_max={nu_max}: {exc}",
                delta=delta,
            ) from exc
        result = ground_states(params, space)
        if result.delta < max(CERTIFICATE_DELTA, result.floor):
            return result
        nu_max, delta = 2 * nu_max, result.delta


def sector_spectrum(
    params: ModelParams, space: TruncatedSpace, k: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues of the even and of the odd sector, from one H build."""
    _, _, sectors = _lowest_eigenpairs(params, space, k)
    return tuple(np.array([entry[0] for entry in sector]) for sector in sectors)


def excitation_rotation_deviation(
    params: ModelParams, space: TruncatedSpace, theta: float
) -> float:
    """Deviation of exp(i theta M) H_R exp(-i theta M) from its two-term form.

    The counter-rotating part H_R transforms as cos(2 theta) H_R +
    (i/2) sin(2 theta) [M, H_R] because each of its entries changes M by
    s = +-2. M is diagonal, so an entry h_rc with s = M_r - M_c is multiplied
    by exp(i theta s) on the left and by cos(2 theta) + (i/2) sin(2 theta) s
    on the right; returns the max-abs difference over every stored entry.
    """
    h_r = counter_rotating_part(params, space)
    m = m_diagonal(space, params.config)
    s = np.repeat(m, np.diff(h_r.indptr)) - m[h_r.indices]
    two_term = math.cos(2.0 * theta) + 0.5j * math.sin(2.0 * theta) * s
    return float(np.max(np.abs(h_r.data * (np.exp(1j * theta * s) - two_term)), initial=0.0))
