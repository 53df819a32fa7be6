"""Parity-adapted (symmetry-adapted) coherent states and their expectations.

A SACS superposes a coherent point with its image under the excitation
parity exp(i pi M):

    |alpha; gamma}_+- = |alpha; gamma} +- |-alpha; gamma~}

where gamma~ flips the sign of amplitudes with odd excitation weight. All
closed-form expectations here are exact; they reduce to ratios of a few
scalars, which we evaluate in units of exp(|alpha|^2) (gamma*.gamma)^N so
that large field amplitudes never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import DegenerateState, IndeterminateQ
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    OneBodyExpectations,
    ParityBranch,
    StateObservables,
    atomic_parity_flip,
    excitation_weights,
    mandel_q,
    symmetric_occupations,
)
from .surface import ORIGIN_RADIUS

# Norm-squared (in reduced units) below which a SACS is treated as the zero
# vector; the odd branch at the origin is the canonical case.
_DEGENERACY_FLOOR = 1e-300


@dataclass(frozen=True)
class SacsPoint:
    """A parity-adapted coherent state: point, branch, scheme, atom number."""

    point: CoherentPoint
    branch: ParityBranch
    config: AtomicConfiguration
    n_atoms: int

    def __post_init__(self):
        if not isinstance(self.n_atoms, int) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")

    def norm_squared(self) -> float:
        """Actual (unreduced) norm of the unnormalized superposition."""
        frame = _Frame(self)
        return frame.kernel_reduced() * math.exp(abs(self.point.alpha) ** 2) * frame.g**self.n_atoms


class _Frame:
    """Scalar ingredients shared by every SACS expectation at one point.

    g  = gamma*.gamma,  gt = gamma*.gamma~  (both real, gt may be negative),
    s  = exp(-2 |alpha|^2),  t = gt/g,  u_k = s t^(N-k).
    """

    __slots__ = ("sp", "n", "sigma", "lam", "g", "gt", "t", "s", "alpha_sq", "_log_t")

    def __init__(self, sp: SacsPoint):
        self.sp = sp
        self.n = sp.n_atoms
        self.sigma = sp.branch.sign
        l2, l3 = excitation_weights(sp.config)
        self.lam = (0, l2, l3)
        p = sp.point
        a2, a3 = abs(p.gamma2) ** 2, abs(p.gamma3) ** 2
        self.g = 1.0 + a2 + a3
        # gt - g without cancellation: only odd-weight levels contribute.
        delta = ((-1) ** l2 - 1) * a2 + ((-1) ** l3 - 1) * a3
        self.gt = self.g + delta
        self.t = self.gt / self.g
        self.alpha_sq = abs(p.alpha) ** 2
        self.s = math.exp(-2.0 * self.alpha_sq)
        self._log_t = math.log1p(delta / self.g) if self.t > 0.0 else None

    def u(self, k: int) -> float:
        expo = self.n - k
        if expo < 0:
            # Only ever multiplied by an (N-1)-type coefficient that is zero.
            return 0.0
        return self.s * self.t**expo

    def one_plus(self, sign: int, k: int) -> float:
        """1 + sign * u_k, accurate when u_k -> 1 cancels against sign = -1."""
        if sign < 0 and self._log_t is not None:
            log_u = -2.0 * self.alpha_sq + (self.n - k) * self._log_t
            return -math.expm1(log_u)
        return 1.0 + sign * self.u(k)

    def kernel_reduced(self) -> float:
        return 2.0 * self.one_plus(self.sigma, 0)

    def kernel_checked(self) -> float:
        kr = self.kernel_reduced()
        if kr <= _DEGENERACY_FLOOR:
            raise DegenerateState(
                f"{self.sp.branch.name.lower()} SACS has zero norm at this point"
            )
        return kr

    def gamma(self, i: int) -> complex:
        return self.sp.point.gammas[i - 1]

    def parity(self, i: int) -> int:
        return (-1) ** self.lam[i - 1]


def kernel(
    bra: CoherentPoint,
    ket: CoherentPoint,
    branch: ParityBranch,
    config: AtomicConfiguration,
    n_atoms: int,
) -> complex:
    """Overlap {bra|ket} of two SACS on the same branch (unnormalized states)."""
    ket_flip = atomic_parity_flip(config, ket)
    dot = sum(b.conjugate() * k for b, k in zip(bra.gammas, ket.gammas))
    dot_flip = sum(b.conjugate() * k for b, k in zip(bra.gammas, ket_flip.gammas))
    ov = bra.alpha.conjugate() * ket.alpha
    return 2.0 * (
        np.exp(ov) * dot**n_atoms
        + branch.sign * np.exp(-ov) * dot_flip**n_atoms
    )


def kernel_reduced(sp: SacsPoint) -> float:
    """Norm squared divided by exp(|alpha|^2) (gamma*.gamma)^N."""
    return _Frame(sp).kernel_reduced()


def expect_one_body(sp: SacsPoint) -> OneBodyExpectations:
    """Normalized <A_11>, <A_22>, <A_33>, <a'a>."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    pops = []
    for i in (1, 2, 3):
        num = (
            2.0
            * f.n
            * abs(f.gamma(i)) ** 2
            / f.g
            * f.one_plus(f.sigma * f.parity(i), 1)
        )
        pops.append(num / kr)
    n_phot = 2.0 * f.alpha_sq * f.one_plus(-f.sigma, 0) / kr
    return OneBodyExpectations(pops[0], pops[1], pops[2], n_phot)


def expect_a(sp: SacsPoint, i: int, j: int) -> complex:
    """Normalized <A_ij> for any index pair (diagonal included)."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    pi, pj = f.parity(i), f.parity(j)
    num = (
        f.n
        * f.gamma(i).conjugate()
        * f.gamma(j)
        / f.g
        * ((1.0 + pi * pj) + f.sigma * f.u(1) * (pi + pj))
    )
    return num / kr


def expect_a_product(sp: SacsPoint, i: int, j: int, k: int, l: int) -> complex:
    """Normalized <A_ij A_kl>."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    pi, pj, pk, pl = (f.parity(x) for x in (i, j, k, l))
    num = 0.0 + 0.0j
    if j == k:
        num += (
            f.n
            * f.gamma(i).conjugate()
            * f.gamma(l)
            / f.g
            * ((1.0 + pi * pl) + f.sigma * f.u(1) * (pi + pl))
        )
    if f.n > 1:
        num += (
            f.n
            * (f.n - 1)
            * f.gamma(i).conjugate()
            * f.gamma(j)
            * f.gamma(k).conjugate()
            * f.gamma(l)
            / f.g**2
            * ((1.0 + pi * pj * pk * pl) + f.sigma * f.u(2) * (pj * pl + pi * pk))
        )
    return num / kr


def expect_photon_moments(sp: SacsPoint) -> tuple[float, float]:
    """Normalized <a'a> and <(a'a)^2>."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    first = 2.0 * f.alpha_sq * f.one_plus(-f.sigma, 0) / kr
    second = (
        2.0
        * f.alpha_sq
        * ((f.alpha_sq + 1.0) + f.sigma * f.u(0) * (f.alpha_sq - 1.0))
        / kr
    )
    return first, second


def expect_population_squares(sp: SacsPoint) -> tuple[float, float, float]:
    """Normalized <A_ii^2> for i = 1, 2, 3."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    out = []
    for i in (1, 2, 3):
        ai = abs(f.gamma(i)) ** 2
        pi = f.parity(i)
        diag = 1.0 / f.g + (f.n - 1) * ai / f.g**2
        cross = pi * f.u(1) / f.g + (f.n - 1) * ai * f.u(2) / f.g**2
        out.append(2.0 * f.n * ai * (diag + f.sigma * cross) / kr)
    return tuple(out)


def expect_photon_population_product(sp: SacsPoint, i: int) -> float:
    """Normalized <a'a A_ii>."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    ai = abs(f.gamma(i)) ** 2
    return (
        2.0
        * f.n
        * f.alpha_sq
        * ai
        / f.g
        * f.one_plus(-f.sigma * f.parity(i), 1)
        / kr
    )


class InteractionPair(NamedTuple):
    a_ij_a: complex       # <A_ij a>
    dipole: float         # <(A_ij + A_ji)(a + a')>


def _dipole_reduced(f: _Frame, i: int, j: int) -> float:
    alpha = f.sp.point.alpha
    gi, gj = f.gamma(i), f.gamma(j)
    pi, pj = f.parity(i), f.parity(j)
    cross_sym = gi.conjugate() * gj + gj.conjugate() * gi
    cross_asym = gi.conjugate() * gj - gj.conjugate() * gi
    # The parity-reflected field amplitude flips a + a', so the interference
    # piece picks up alpha - alpha* rather than alpha + alpha*.
    val = (1.0 - pi * pj) * 2.0 * alpha.real * cross_sym + f.sigma * f.u(1) * (
        pi - pj
    ) * (alpha - alpha.conjugate()) * cross_asym
    return (f.n * val / f.g).real


def _rwa_pair_reduced(f: _Frame, i: int, j: int) -> float:
    alpha = f.sp.point.alpha
    gi, gj = f.gamma(i), f.gamma(j)
    pi, pj = f.parity(i), f.parity(j)
    core = alpha.conjugate() * gi.conjugate() * gj + alpha * gj.conjugate() * gi
    val = core * ((1.0 - pi * pj) + f.sigma * f.u(1) * (pj - pi))
    return (f.n * val / f.g).real


def expect_interaction(sp: SacsPoint) -> dict[tuple[int, int], InteractionPair]:
    """<A_ij a> and <(A_ij + A_ji)(a + a')> over the scheme's allowed pairs."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    out = {}
    for i, j in sp.config.allowed_pairs:
        pi, pj = f.parity(i), f.parity(j)
        a_ij_a = (
            f.n
            * sp.point.alpha
            * f.gamma(i).conjugate()
            * f.gamma(j)
            / f.g
            * ((1.0 - pi * pj) + f.sigma * f.u(1) * (pi - pj))
        )
        out[(i, j)] = InteractionPair(
            a_ij_a=a_ij_a / kr, dipole=_dipole_reduced(f, i, j) / kr
        )
    return out


@dataclass(frozen=True)
class MMoments:
    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    @property
    def q_mandel(self) -> float:
        q = mandel_q(self.mean, self.variance)
        if q is None:
            raise IndeterminateQ("<M> = 0, Q undefined")
        return q


def expect_m_moments(sp: SacsPoint) -> MMoments:
    """Moments of the total excitation M = a'a + lambda2 A_22 + lambda3 A_33."""
    f = _Frame(sp)
    kr = f.kernel_checked()
    l = f.lam
    pops_w = sum(l[i - 1] * abs(f.gamma(i)) ** 2 for i in (2, 3)) / f.g
    pops_wt = (
        sum(f.parity(i) * l[i - 1] * abs(f.gamma(i)) ** 2 for i in (2, 3)) / f.g
    )
    mean = (
        2.0 * (f.alpha_sq + f.n * pops_w)
        + 2.0 * f.sigma * (-f.alpha_sq * f.u(0) + f.n * f.u(1) * pops_wt)
    ) / kr

    _, n2 = expect_photon_moments(sp)
    second = n2
    pop_sq = expect_population_squares(sp)
    for i in (2, 3):
        w = l[i - 1]
        if w == 0:
            continue
        second += w**2 * pop_sq[i - 1]
        second += 2.0 * w * expect_photon_population_product(sp, i)
    if l[1] and l[2]:
        second += (
            2.0 * l[1] * l[2] * expect_a_product(sp, 2, 2, 3, 3).real
        )
    return MMoments(mean=mean, second_moment=second)


def sacs_energy(params: ModelParams, sp: SacsPoint) -> float:
    """Normalized Hamiltonian expectation in the SACS.

    Assembled from the one-body and interaction expectations with the
    Hamiltonian's own weights (interaction enters with -mu_ij/sqrt(N)).
    """
    if params.config is not sp.config:
        raise ValueError("configuration mismatch between params and state")
    if params.n_atoms != sp.n_atoms:
        raise ValueError("atom-number mismatch between params and state")
    f = _Frame(sp)
    kr = f.kernel_checked()
    num = 2.0 * params.omega * f.alpha_sq * f.one_plus(-f.sigma, 0)
    for i, w in zip((1, 2, 3), params.level_energies):
        num += (
            2.0
            * w
            * f.n
            * abs(f.gamma(i)) ** 2
            / f.g
            * f.one_plus(f.sigma * f.parity(i), 1)
        )
    root_n = math.sqrt(f.n)
    for i, j in params.config.allowed_pairs:
        pair = (
            _rwa_pair_reduced(f, i, j) if params.rwa else _dipole_reduced(f, i, j)
        )
        num -= params.coupling(i, j) / root_n * pair
    return num / kr


@dataclass(frozen=True)
class AtomicDensityMatrix:
    """Matter reduced density matrix over symmetric occupations."""

    matrix: np.ndarray
    occupations: list

    def purity(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))


def reduced_density_matrix(sp: SacsPoint) -> AtomicDensityMatrix:
    """Trace the field out of the normalized SACS projector.

    Basis: symmetric occupations (n1, n2, n3), lexicographic in (n2, n3),
    matching the exact-diagonalization layout.
    """
    f = _Frame(sp)
    kr = f.kernel_checked()
    occs = symmetric_occupations(sp.n_atoms)
    l2, l3 = excitation_weights(sp.config)
    n_fact = math.factorial(sp.n_atoms)
    g2, g3 = sp.point.gamma2, sp.point.gamma3

    amps = np.empty(len(occs), dtype=complex)
    signs = np.empty(len(occs), dtype=int)
    root_norm = f.g ** (sp.n_atoms / 2.0)
    for idx, (n1, n2, n3) in enumerate(occs):
        coeff = math.sqrt(
            n_fact / (math.factorial(n1) * math.factorial(n2) * math.factorial(n3))
        )
        amps[idx] = coeff * g2**n2 * g3**n3 / root_norm
        signs[idx] = (-1) ** (l2 * n2 + l3 * n3)

    same_parity = signs[:, None] == signs[None, :]
    weights = 2.0 * (1.0 + f.sigma * signs * f.s)
    rho = (weights * amps)[:, None] * amps.conjugate()[None, :] * same_parity / kr
    return AtomicDensityMatrix(matrix=rho, occupations=occs)


def linear_entropy(sp: SacsPoint) -> float:
    """1 - tr(rho^2) of the matter reduced density matrix."""
    return 1.0 - reduced_density_matrix(sp).purity()


def _at_origin(point: CoherentPoint) -> bool:
    # Within this radius the closed forms lose ~1e-16/eps^2 to cancellation,
    # while the epsilon -> 0 limit is off by ~eps^2.
    return max(abs(point.alpha), abs(point.gamma2), abs(point.gamma3)) <= ORIGIN_RADIUS


def _origin_limit(params: ModelParams, branch: ParityBranch) -> StateObservables:
    """The epsilon -> 0 limit of the lowest SACS of a branch at the origin.

    Even: the vacuum. Odd: the ground state of the one-excitation block,
    one photon or one atom in a level of excitation weight 1, so M = 1.
    Counter-rotating terms change M by 2, so the RWA leaves the block as is.
    """
    n, w1 = params.n_atoms, params.omega1
    if branch is ParityBranch.EVEN:
        vacuum = OneBodyExpectations(float(n), 0.0, 0.0, 0.0)
        return StateObservables(n * w1, vacuum, 0.0, 0.0, 0.0, 1.0, 0.0)
    levels = [j for j, w in zip((2, 3), excitation_weights(params.config)) if w == 1]
    block = np.diag([params.omega] + [params.level_energies[j - 1] - w1 for j in levels])
    block[0, 1:] = block[1:, 0] = [-params.coupling(1, j) for j in levels]
    values, vectors = np.linalg.eigh(block)
    p = np.zeros(3)  # weights of the photon and of levels 2 and 3
    p[[0] + [j - 1 for j in levels]] = vectors[:, 0] ** 2
    one = OneBodyExpectations(n - p[1] - p[2], p[1], p[2], p[0])
    entropy = 1.0 - p[0] ** 2 - (1.0 - p[0]) ** 2
    return StateObservables(n * w1 + values[0], one, p[0] * (1.0 - p[0]), 1.0, 0.0, -1.0, entropy)


def branch_observables(
    params: ModelParams, point: CoherentPoint, branch: ParityBranch
) -> StateObservables:
    """The SACS of ``branch`` at a surface minimum; its limit at the origin."""
    if _at_origin(point):
        return _origin_limit(params, branch)
    sp = SacsPoint(point, branch, params.config, params.n_atoms)
    first, second = expect_photon_moments(sp)
    mom = expect_m_moments(sp)
    return StateObservables(
        sacs_energy(params, sp), expect_one_body(sp), second - first**2,
        mom.mean, mom.variance, mandel_q(mom.mean, mom.variance), linear_entropy(sp),
    )


def poisson_distribution(mean: float, nus) -> np.ndarray:
    """Poisson probabilities of the photon numbers ``nus`` (delta_0 at mean 0)."""
    return np.exp(xlogy(nus, mean) - gammaln(np.asarray(nus) + 1.0) - mean)


def photon_distribution(
    params: ModelParams, point: CoherentPoint, branch: ParityBranch, nus
) -> np.ndarray:
    """P(nu) of the SACS of ``branch`` at a surface minimum; the limit at the origin.

    Poisson(|alpha|^2) (1 + sigma (-1)^nu t^N) / (1 + sigma s t^N).
    """
    nus = np.asarray(nus)
    if _at_origin(point):
        p1 = _origin_limit(params, branch).one_body.n_photons
        return np.select([nus == 0, nus == 1], [1.0 - p1, p1])
    f = _Frame(SacsPoint(point, branch, params.config, params.n_atoms))
    # t^N - 1 without cancellation, so 1 - t^N stays accurate near t = 1.
    tn_minus_one = math.expm1(f.n * f._log_t) if f._log_t is not None else f.t**f.n - 1.0
    numerator = np.where(f.sigma * (-1) ** nus > 0, 2.0 + tn_minus_one, -tn_minus_one)
    return poisson_distribution(f.alpha_sq, nus) * numerator / (0.5 * f.kernel_checked())
