"""Parity-adapted (symmetry-adapted) coherent states and their expectations.

A SACS superposes a coherent point with its image under the excitation
parity exp(i pi M):

    |alpha; gamma}_+- = |alpha; gamma} +- |-alpha; gamma~}

where gamma~ flips the sign of amplitudes with odd excitation weight. All
closed-form expectations here are exact; they reduce to ratios of a few
scalars, which we evaluate in units of exp(|alpha|^2) (gamma*.gamma)^N so
that large field amplitudes never overflow.

Every expectation follows one parity rule. A term that changes the branch
(odd under exp(i pi M)) has expectation 0. Any other term with k atomic
operators has reduced expectation 2 direct (1 + sigma pi u_k), where direct
is its value in the coherent point and pi the parity of its cross part;
`SacsPoint._term` evaluates it, guarding 1 - u_k against cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateState, IndeterminateQ, TricavityError
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    OneBodyExpectations,
    ParityBranch,
    StateObservables,
    excitation_weights,
    mandel_q,
)
from .surface import ORIGIN_RADIUS

# Norm-squared (in reduced units) below which a SACS is treated as the zero
# vector; the odd branch at the origin is the canonical case.
_DEGENERACY_FLOOR = 1e-300


@dataclass(frozen=True)
class SacsPoint:
    """A parity-adapted coherent state: point, branch, scheme, atom number.

    Construction also derives, once, the scalars every expectation reads:
    sigma (the branch sign), lam = (0, lambda2, lambda3), g = gamma*.gamma,
    t = gt/g with gt = gamma*.gamma~ (real, possibly negative),
    alpha_sq = |alpha|^2, s = exp(-2 |alpha|^2) and log_t = log t (None
    unless t > 0), so that u_k = s t^(N-k); then kernel = 2 (1 + sigma u_0),
    the norm squared over exp(|alpha|^2) g^N.
    """

    point: CoherentPoint
    branch: ParityBranch
    config: AtomicConfiguration
    n_atoms: int

    def __post_init__(self):
        if not isinstance(self.n_atoms, int) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")
        l2, l3 = excitation_weights(self.config)
        a2, a3 = abs(self.point.gamma2) ** 2, abs(self.point.gamma3) ** 2
        g = 1.0 + a2 + a3
        # gt - g without cancellation: only odd-weight levels contribute.
        delta = ((-1) ** l2 - 1) * a2 + ((-1) ** l3 - 1) * a3
        t = (g + delta) / g
        alpha_sq = abs(self.point.alpha) ** 2
        # Set past the frozen guard; derived from the fields, so never compared.
        vars(self).update(
            sigma=self.branch.sign, lam=(0, l2, l3), g=g, t=t, alpha_sq=alpha_sq,
            s=math.exp(-2.0 * alpha_sq), log_t=math.log1p(delta / g) if t > 0.0 else None,
        )
        vars(self)["kernel"] = self._term(1.0, 1, 0)

    def norm_squared(self) -> float:
        """Actual (unreduced) norm of the unnormalized superposition."""
        return self.kernel * math.exp(self.alpha_sq) * self.g**self.n_atoms

    def _one_plus(self, sign: int, k: int) -> float:
        """1 + sign * u_k (k <= N), accurate when u_k -> 1 cancels against sign = -1."""
        if sign < 0 and self.log_t is not None:
            log_u = -2.0 * self.alpha_sq + (self.n_atoms - k) * self.log_t
            return -math.expm1(log_u)
        return 1.0 + sign * self.s * self.t ** (self.n_atoms - k)

    def _term(self, direct, parity: int, k: int):
        """Reduced expectation of a term that keeps the branch: 2 direct (1 + sigma parity u_k).

        ``direct`` is its value in the coherent point, ``parity`` that of its
        cross part (the field and every gamma_i it carries), ``k`` the number
        of atomic operators in it.
        """
        return 2.0 * direct * self._one_plus(self.sigma * parity, k)

    def _kernel_checked(self) -> float:
        if self.kernel <= _DEGENERACY_FLOOR:
            raise DegenerateState(f"{self.branch.name.lower()} SACS has zero norm at this point")
        return self.kernel

    def _gamma(self, i: int) -> complex:
        return self.point.gammas[i - 1]

    def _parity(self, i: int) -> int:
        return (-1) ** self.lam[i - 1]


# Reduced numerators: the expectation times the reduced norm. A term that
# changes the branch (odd under the excitation parity) has expectation 0.


def _photons(sp: SacsPoint) -> float:
    return sp._term(sp.alpha_sq, -1, 0)


def _a(sp: SacsPoint, i: int, j: int) -> complex:
    """<A_ij> reduced; it keeps the branch iff p_i = p_j."""
    if sp._parity(i) != sp._parity(j):
        return 0j
    return sp._term(sp.n_atoms * sp._gamma(i).conjugate() * sp._gamma(j) / sp.g, sp._parity(i), 1)


def _a_product(sp: SacsPoint, i: int, j: int, k: int, l: int) -> complex:
    # A_ij A_kl = delta_jk A_il + the two-body part over distinct atoms.
    num = _a(sp, i, l) if j == k else 0j
    n, pi, pk = sp.n_atoms, sp._parity(i), sp._parity(k)
    if n > 1 and pi * sp._parity(j) * pk * sp._parity(l) == 1:
        direct = (
            n
            * (n - 1)
            * sp._gamma(i).conjugate()
            * sp._gamma(j)
            * sp._gamma(k).conjugate()
            * sp._gamma(l)
            / sp.g**2
        )
        num += sp._term(direct, pi * pk, 2)
    return num


def _a_field(sp: SacsPoint, i: int, j: int) -> complex:
    """<A_ij a> reduced, (i, j) an allowed pair either way: p_i != p_j, so it keeps the branch."""
    direct = sp.n_atoms * sp.point.alpha * sp._gamma(i).conjugate() * sp._gamma(j) / sp.g
    return sp._term(direct, sp._parity(i), 1)


def expect_one_body(sp: SacsPoint) -> OneBodyExpectations:
    """Normalized <A_11>, <A_22>, <A_33>, <a'a>."""
    kr = sp._kernel_checked()
    a11, a22, a33 = (_a(sp, i, i).real / kr for i in (1, 2, 3))
    return OneBodyExpectations(a11, a22, a33, _photons(sp) / kr)


def expect_a(sp: SacsPoint, i: int, j: int) -> complex:
    """Normalized <A_ij> for any index pair (diagonal included)."""
    return _a(sp, i, j) / sp._kernel_checked()


def expect_a_product(sp: SacsPoint, i: int, j: int, k: int, l: int) -> complex:
    """Normalized <A_ij A_kl>."""
    return _a_product(sp, i, j, k, l) / sp._kernel_checked()


def expect_photon_moments(sp: SacsPoint) -> tuple[float, float]:
    """Normalized <a'a> and <(a'a)^2> = <a'^2 a^2> + <a'a>."""
    kr = sp._kernel_checked()
    first = _photons(sp)
    try:
        second = (sp._term(sp.alpha_sq**2, 1, 0) + first) / kr
    except OverflowError:
        second = math.inf
    if not math.isfinite(second):
        raise TricavityError(
            f"the SACS photon moments overflow floats at |alpha|^2 = {sp.alpha_sq:.6e}"
        )
    return first / kr, second


def expect_photon_population_product(sp: SacsPoint, i: int) -> float:
    """Normalized <a'a A_ii>."""
    direct = sp.alpha_sq * sp.n_atoms * abs(sp._gamma(i)) ** 2 / sp.g
    return sp._term(direct, -sp._parity(i), 1) / sp._kernel_checked()


class InteractionPair(NamedTuple):
    a_ij_a: complex       # <A_ij a>
    dipole: float         # <(A_ij + A_ji)(a + a')>


def expect_interaction(sp: SacsPoint) -> dict[tuple[int, int], InteractionPair]:
    """<A_ij a> and <(A_ij + A_ji)(a + a')> over the scheme's allowed pairs.

    <A_ij a'> is the conjugate of <A_ji a>, so the dipole is
    2 Re(<A_ij a> + <A_ji a>).
    """
    kr = sp._kernel_checked()
    out = {}
    for i, j in sp.config.allowed_pairs:
        a_ij_a = _a_field(sp, i, j)
        dipole = 2.0 * (a_ij_a + _a_field(sp, j, i)).real
        out[(i, j)] = InteractionPair(a_ij_a=a_ij_a / kr, dipole=dipole / kr)
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
    return _m_moments(sp, *expect_photon_moments(sp))


def _m_moments(sp: SacsPoint, mean: float, second: float) -> MMoments:
    """`expect_m_moments` from the photon moments <a'a>, <(a'a)^2> already evaluated."""
    _, l2, l3 = sp.lam
    for i, w in ((2, l2), (3, l3)):
        if w == 0:
            continue
        mean += w * expect_a(sp, i, i).real
        second += w**2 * expect_a_product(sp, i, i, i, i).real
        second += 2.0 * w * expect_photon_population_product(sp, i)
    if l2 and l3:
        second += 2.0 * l2 * l3 * expect_a_product(sp, 2, 2, 3, 3).real
    return MMoments(mean=mean, second_moment=second)


def sacs_energy(params: ModelParams, sp: SacsPoint) -> float:
    """Normalized Hamiltonian expectation in the SACS.

    Assembled from the one-body and interaction terms with the Hamiltonian's
    own weights (interaction enters with -mu_ij/sqrt(N)). The rotating pair
    A_ij a' + A_ji a has expectation 2 Re<A_ji a>; the full Hamiltonian adds
    the counter-rotating 2 Re<A_ij a>.
    """
    if params.config is not sp.config:
        raise ValueError("configuration mismatch between params and state")
    if params.n_atoms != sp.n_atoms:
        raise ValueError("atom-number mismatch between params and state")
    kr = sp._kernel_checked()
    num = params.omega * _photons(sp)
    for i, w in zip((1, 2, 3), params.level_energies):
        num += w * _a(sp, i, i).real
    root_n = math.sqrt(sp.n_atoms)
    for i, j in params.config.allowed_pairs:
        pair = _a_field(sp, j, i) if params.rwa else _a_field(sp, j, i) + _a_field(sp, i, j)
        num -= params.coupling(i, j) / root_n * 2.0 * pair.real
    return num / kr


def _tn_minus_one(sp: SacsPoint) -> float:
    # t^N - 1 without cancellation, so 1 - t^N stays accurate near t = 1.
    return math.expm1(sp.n_atoms * sp.log_t) if sp.log_t is not None else sp.t**sp.n_atoms - 1.0


def linear_entropy(sp: SacsPoint) -> float:
    """1 - tr(rho^2) of the matter reduced density matrix, in closed form.

    Tracing the field out leaves the atomic product state split by the
    parity of its excitation weight: the even half, of norm (1 + t^N)/2,
    carries 1 + sigma s and the odd half, of norm (1 - t^N)/2, 1 - sigma s.
    With A = (1 + sigma s)(1 + t^N), B = (1 - sigma s)(1 - t^N) and the
    kernel K = A + B, 1 - tr(rho^2) = 2AB/K^2.
    """
    tn_minus_one = _tn_minus_one(sp)
    a = sp._one_plus(sp.sigma, sp.n_atoms) * (2.0 + tn_minus_one)
    b = sp._one_plus(-sp.sigma, sp.n_atoms) * -tn_minus_one
    return 2.0 * a * b / sp._kernel_checked() ** 2


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
    mom = _m_moments(sp, first, second)
    return StateObservables(
        sacs_energy(params, sp), expect_one_body(sp), second - first**2,
        mom.mean, mom.variance, mandel_q(mom.mean, mom.variance), linear_entropy(sp),
    )


def poisson_distribution(mean: float, nus) -> np.ndarray:
    """Poisson probabilities of the photon numbers ``nus`` (delta_0 at mean 0)."""
    from scipy.special import gammaln, xlogy  # only photon tables pay its import
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
    sp = SacsPoint(point, branch, params.config, params.n_atoms)
    tn_minus_one = _tn_minus_one(sp)
    numerator = np.where(sp.sigma * (-1) ** nus > 0, 2.0 + tn_minus_one, -tn_minus_one)
    return poisson_distribution(sp.alpha_sq, nus) * numerator / (0.5 * sp._kernel_checked())
