"""Closed-form results for the V scheme at double resonance.

Double resonance means omega2 = omega3 (degenerate excited doublet) with the
two couplings split as (mu12, mu13) = mu (cos theta, sin theta). The normal/
collective transition sits at mu^2 = Omega (omega3 - omega1) / 4 for the
full Hamiltonian; in the RWA every formula below applies with mu -> mu/2 (the
coherent surface of the RWA at coupling mu coincides with the full one at
mu/2), which puts the RWA boundary at twice the coupling.

Functions marked "printed form" evaluate fixed-scaling (Omega = omega2 =
omega3 = 1, omega1 = 0) closed expressions that are useful for comparison
but are not all consistent with direct evaluation; see `checks` for the
informational comparisons. The command line uses only `mu_critical` and
`fit_gaussian`; `photon_dist_v` (the paper's printed distribution) and
`limit_observables` remain only as printed-form references for `checks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonConvergence
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    Regime,
    couplings_from_magnitude,
)
from . import sacs as sacs_mod
from . import surface as surface_mod


class Approximation(Enum):
    COHERENT = "coherent"
    SACS_EVEN = "sacs-even"
    SACS_ODD = "sacs-odd"

    @property
    def branch(self) -> ParityBranch:
        if self is Approximation.SACS_EVEN:
            return ParityBranch.EVEN
        if self is Approximation.SACS_ODD:
            return ParityBranch.ODD
        raise ValueError(f"{self.value} has no parity branch")


@dataclass(frozen=True)
class VParams:
    """V-scheme double-resonance parameters with a polar coupling split."""

    mu: float
    theta: float = math.pi / 4
    omega: float = 1.0
    omega3: float = 1.0
    omega1: float = 0.0
    n_atoms: int = 2
    rwa: bool = False

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("coupling magnitude must be nonnegative")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if self.omega <= 0 or self.omega3 <= self.omega1:
            raise ValueError("frequencies must satisfy omega > 0, omega3 > omega1")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")

    @property
    def mu_eff(self) -> float:
        """Coupling entering the closed forms; halved under the RWA."""
        return 0.5 * self.mu if self.rwa else self.mu

    def to_model_params(self) -> ModelParams:
        return ModelParams(
            omega=self.omega,
            omega1=self.omega1,
            omega2=self.omega3,
            omega3=self.omega3,
            n_atoms=self.n_atoms,
            config=AtomicConfiguration.V,
            rwa=self.rwa,
            **couplings_from_magnitude(AtomicConfiguration.V, self.mu, self.theta),
        )

    @property
    def boundary_mu_sq(self) -> float:
        """Squared effective coupling at the boundary, Omega (omega3 - omega1) / 4."""
        return self.omega * (self.omega3 - self.omega1) / 4.0

    def regime(self) -> Regime:
        return Regime.COLLECTIVE if self.mu_eff**2 > self.boundary_mu_sq else Regime.NORMAL


def mu_critical(omega: float = 1.0, gap: float = 1.0, rwa: bool = False) -> float:
    """Coupling magnitude at the boundary; ``gap`` is omega3 - omega1."""
    mu = math.sqrt(omega * gap) / 2.0
    return 2.0 * mu if rwa else mu


def nu_bar(vp: VParams) -> float:
    """Photon mean of the coherent minimum (zero in the normal regime)."""
    if vp.regime() is Regime.NORMAL:
        return 0.0
    mu_sq = vp.mu_eff**2
    quarter = vp.boundary_mu_sq
    return vp.n_atoms * (mu_sq - quarter) * (mu_sq + quarter) / (vp.omega**2 * mu_sq)


def critical_point_v(vp: VParams) -> tuple[float, float, float]:
    """Radii (rho, rho2, rho3) of the surface minimum; zeros when normal."""
    if vp.regime() is Regime.NORMAL:
        return (0.0, 0.0, 0.0)
    mu_sq = vp.mu_eff**2
    quarter = vp.boundary_mu_sq
    shared = math.sqrt((mu_sq - quarter) / (mu_sq * (mu_sq + quarter)))
    mu12 = vp.mu_eff * math.cos(vp.theta)
    mu13 = vp.mu_eff * math.sin(vp.theta)
    rho2 = mu12 * shared
    rho3 = mu13 * shared
    rho = (
        2.0
        * math.sqrt(vp.n_atoms)
        * (mu12 * rho2 + mu13 * rho3)
        / (vp.omega * (1.0 + rho2**2 + rho3**2))
    )
    return (rho, rho2, rho3)


def critical_coherent_point(vp: VParams) -> CoherentPoint:
    rho, rho2, rho3 = critical_point_v(vp)
    return CoherentPoint(alpha=complex(rho), gamma2=complex(rho2), gamma3=complex(rho3))


def e_min_v(vp: VParams) -> float:
    """Coherent ground-surface energy per atom (gap omega3 - omega1, offset omega1)."""
    if vp.regime() is Regime.NORMAL:
        return vp.omega1
    mu_sq = vp.mu_eff**2
    quarter = vp.boundary_mu_sq
    return vp.omega1 - (mu_sq - quarter) ** 2 / (vp.omega * mu_sq)


def _require_printed_scaling(vp: VParams, what: str) -> None:
    if not (vp.omega == 1.0 and vp.omega3 == 1.0 and vp.omega1 == 0.0):
        raise ValueError(f"{what} is printed for Omega = omega2 = omega3 = 1, omega1 = 0")


def sacs_energy_v(vp: VParams, branch: ParityBranch) -> float:
    """Printed-form SACS energy per atom (fixed scaling, full Hamiltonian).

    Informational: the printed branch assignment disagrees with direct
    evaluation of the adapted states (see `checks.info_printed_energy`).
    """
    _require_printed_scaling(vp, "the SACS energy closed form")
    if vp.rwa:
        raise ValueError("the printed SACS energy applies to the full Hamiltonian")
    mu = vp.mu_eff
    n = vp.n_atoms
    if vp.regime() is Regime.NORMAL:
        return 0.0 if branch is ParityBranch.EVEN else 1.0 / (2.0 * n)
    sign = 1.0 if branch is ParityBranch.EVEN else -1.0
    f = 2.0 * (mu**2 - 1.0 / (16.0 * mu**2))
    # X = (2 mu exp(mu^2 - 1/(16 mu^2)))^(2N) can overflow; work with 1/X.
    log_x = 2.0 * n * (math.log(2.0 * mu) + mu**2 - 1.0 / (16.0 * mu**2))
    inv_x = math.exp(-log_x)
    correction = sign * f * inv_x / (inv_x + sign)
    return e_min_v(vp) + correction


def photon_dist_v(vp: VParams, approx: Approximation, nu_values) -> np.ndarray:
    """Photon-number distribution of the chosen approximation at the minimum.

    Exact for the variational states (it is the distribution of the state
    itself, so it applies under the RWA too via mu -> mu/2).
    """
    _require_printed_scaling(vp, "the photon distribution closed form")
    scalar_input = np.ndim(nu_values) == 0
    nu_arr = np.atleast_1d(np.asarray(nu_values, dtype=int))
    if np.any(nu_arr < 0):
        raise ValueError("photon numbers must be nonnegative")
    nb = nu_bar(vp)
    if vp.regime() is Regime.NORMAL:
        out = np.zeros(nu_arr.shape)
        if approx in (Approximation.COHERENT, Approximation.SACS_EVEN):
            out[nu_arr == 0] = 1.0
        else:
            out[nu_arr == 0] = 0.5
            out[nu_arr == 1] = 0.5
        return float(out[0]) if scalar_input else out

    pois = sacs_mod.poisson_distribution(nb, nu_arr)
    if approx is Approximation.COHERENT:
        return float(pois[0]) if scalar_input else pois
    sign = 1.0 if approx is Approximation.SACS_EVEN else -1.0
    # q = (2 mu)^(-2N) = ((gamma*.gamma~)/(gamma*.gamma))^N at the minimum.
    q = (2.0 * vp.mu_eff) ** (-2 * vp.n_atoms)
    parity = 1.0 - 2.0 * (nu_arr % 2)
    out = pois * (1.0 + sign * parity * q) / (1.0 + sign * q * math.exp(-2.0 * nb))
    return float(out[0]) if scalar_input else out


def mandel_q_m(vp: VParams, approx: Approximation) -> float | None:
    """Q = Var(M)/<M> - 1 for the approximation at the V minimum.

    Normal regime: the parity branches take their limiting values +1 (even)
    and -1 (odd); the coherent state is the vacuum, <M> = 0, so None.
    """
    params = vp.to_model_params()
    point = critical_coherent_point(vp)
    if approx is Approximation.COHERENT:
        return surface_mod.coherent_expectations(params, point).q_m
    return sacs_mod.branch_observables(params, point, approx.branch).q_m


def linear_entropy_v(vp: VParams, approx: Approximation) -> float:
    """Printed-form matter linear entropy (fixed scaling), kept verbatim.

    (1 - A)(1 - B) / (2 (1 +- C)^2) with A = exp(4 nu_bar) = 1/s^2 and
    B = (2 mu)^(4N) = t^(-2N). With C's exponent N(8 mu^4 - 1)/(4 mu^2) read
    as N(16 mu^4 - 1)/(8 mu^2), C = (2 mu)^(2N) exp(2 nu_bar) = 1/(s t^N), it
    would equal `sacs.linear_entropy` exactly; as printed it does not, and
    `checks` reports the comparison. A coherent product state gives 0.
    """
    if approx is Approximation.COHERENT:
        return 0.0
    _require_printed_scaling(vp, "the linear-entropy closed form")
    mu = vp.mu_eff
    n = vp.n_atoms
    if mu == 0.0:
        return 0.5  # verbatim limit of the printed expression
    sign = 1.0 if approx is Approximation.SACS_EVEN else -1.0
    log_a = n * (16.0 * mu**4 - 1.0) / (4.0 * mu**2)
    log_b = 4.0 * n * math.log(2.0 * mu)
    log_c = 2.0 * n * math.log(2.0 * mu) + n * (8.0 * mu**4 - 1.0) / (4.0 * mu**2)
    if log_a <= 0.0:
        a, b, c = math.exp(log_a), math.exp(log_b), math.exp(log_c)
        return (1.0 - a) * (1.0 - b) / (2.0 * (1.0 + sign * c) ** 2)
    # Collective side: rescale by AB/C^2 = exp(N/(4 mu^2)) to avoid overflow.
    lead = math.exp(n / (4.0 * mu**2))
    return (
        0.5
        * lead
        * (-math.expm1(-log_a))
        * (-math.expm1(-log_b))
        / (1.0 + sign * math.exp(-log_c)) ** 2
    )


def fit_gaussian(nu_values, probabilities) -> tuple[float, float]:
    """Least-squares normal-curve fit of a photon-number table.

    Returns (mean, sigma). The fit peak sits slightly below the true mean
    for the Poisson-skewed collective distributions; that offset is real,
    not a solver artifact.
    """
    from scipy.optimize import curve_fit  # only `photon-dist --fit` pays its import
    nus = np.asarray(nu_values, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if nus.shape != probs.shape or nus.size < 4:
        raise ValueError("need matching nu/probability tables with >= 4 rows")
    mean0 = float(nus @ probs) / max(float(probs.sum()), 1e-300)
    sigma0 = math.sqrt(max(float(nus**2 @ probs) - mean0**2, 0.25))

    def gauss(x, amp, mean, sigma):
        return amp * np.exp(-0.5 * ((x - mean) / sigma) ** 2)

    try:
        popt, _ = curve_fit(gauss, nus, probs, p0=(float(probs.max()), mean0, sigma0))
    except RuntimeError as exc:
        raise NonConvergence(f"normal-curve fit failed: {exc}") from None
    return float(popt[1]), abs(float(popt[2]))


def limit_observables(vp: VParams, approx: Approximation) -> dict:
    """Normal-regime values of the sweep observables (closed-form limits).

    Energies are per atom; populations and photon numbers are per atom; M
    moments are totals. The odd branch carries the epsilon-limit state
    (single excitation shared between field and matter along the critical
    direction), whose energy the printed closed form fixes at 1/(2N), below
    the actual limit (1 - mu)/N of `sacs.branch_observables` at the origin.
    """
    if vp.regime() is not Regime.NORMAL:
        raise ValueError("limit observables apply to the normal regime only")
    n = vp.n_atoms
    base = {
        "energy": vp.omega1,
        "photons": 0.0,
        "a11": 1.0,
        "a22": 0.0,
        "a33": 0.0,
        "m_mean": 0.0,
        "m_var": 0.0,
        "q_m": None,
        "entropy": 0.0,
        "photon_mean": 0.0,
        "photon_std": 0.0,
    }
    if approx is Approximation.COHERENT:
        return base
    if approx is Approximation.SACS_EVEN:
        base["energy"] = vp.omega1
        base["q_m"] = 1.0
        return base
    half = 0.5
    return {
        "energy": vp.omega1 + 1.0 / (2.0 * n),
        "photons": half / n,
        "a11": 1.0 - half / n,
        "a22": half * math.cos(vp.theta) ** 2 / n,
        "a33": half * math.sin(vp.theta) ** 2 / n,
        "m_mean": 1.0,
        "m_var": 0.0,
        "q_m": -1.0,
        "entropy": 0.5,
        "photon_mean": half,
        "photon_std": half,
    }
