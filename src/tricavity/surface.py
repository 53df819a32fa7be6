"""Coherent-state energy surfaces, their minima, and product-state statistics.

The variational trial state is a Weyl-Heisenberg coherent state for the field
times a totally symmetric U(3) coherent state for the atoms. All expectation
values below are exact on that manifold; the surface is the normalized
Hamiltonian expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import IndeterminateQ, NoTransitionFound, NonConvergence
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    excitation_weights,
)


def coherent_one_body(point: CoherentPoint, n_atoms: int, i: int, j: int) -> complex:
    """<A_ij> in the normalized atomic coherent state (levels 1-based)."""
    g = point.gammas
    return n_atoms * g[i - 1].conjugate() * g[j - 1] / point.atomic_norm_squared()


def coherent_two_body(
    point: CoherentPoint, n_atoms: int, i: int, j: int, k: int, l: int
) -> complex:
    """<A_ij A_kl> in the normalized atomic coherent state."""
    g = point.gammas
    norm = point.atomic_norm_squared()
    val = (
        n_atoms
        * (n_atoms - 1)
        * g[i - 1].conjugate()
        * g[j - 1]
        * g[k - 1].conjugate()
        * g[l - 1]
        / norm**2
    )
    if j == k:
        val += n_atoms * g[i - 1].conjugate() * g[l - 1] / norm
    return val


def energy_full(params: ModelParams, point: CoherentPoint) -> float:
    """Energy surface of the full Hamiltonian at a coherent point (total, not per atom)."""
    n = params.n_atoms
    norm = point.atomic_norm_squared()
    g = point.gammas
    diag = sum(
        w * abs(gi) ** 2 for w, gi in zip(params.level_energies, g)
    )
    two_re_alpha = 2.0 * point.alpha.real
    inter = 0.0
    for i, j in ((1, 2), (1, 3), (2, 3)):
        inter += params.coupling(i, j) * 2.0 * (g[i - 1].conjugate() * g[j - 1]).real
    return (
        params.omega * abs(point.alpha) ** 2
        + (n * diag - math.sqrt(n) * inter * two_re_alpha) / norm
    )


def energy_rwa(params: ModelParams, point: CoherentPoint) -> float:
    """Energy surface with the counter-rotating interaction dropped."""
    n = params.n_atoms
    norm = point.atomic_norm_squared()
    g = point.gammas
    diag = sum(w * abs(gi) ** 2 for w, gi in zip(params.level_energies, g))
    inter = 0.0
    for i, j in ((1, 2), (1, 3), (2, 3)):
        # <A_ij a' + A_ji a> = N (gi* gj alpha* + gj* gi alpha) / norm
        inter += (
            params.coupling(i, j)
            * 2.0
            * (g[i - 1].conjugate() * g[j - 1] * point.alpha.conjugate()).real
        )
    return (
        params.omega * abs(point.alpha) ** 2
        + (n * diag - math.sqrt(n) * inter) / norm
    )


def energy(params: ModelParams, point: CoherentPoint) -> float:
    return energy_rwa(params, point) if params.rwa else energy_full(params, point)


def energy_full_polar(
    params: ModelParams,
    rho: float,
    phi: float,
    rho2: float,
    phi2: float,
    rho3: float,
    phi3: float,
) -> float:
    """Full surface in polar coordinates alpha = rho e^{i phi}, gamma_k = rho_k e^{i phi_k}."""
    n = params.n_atoms
    norm = 1.0 + rho2**2 + rho3**2
    w1, w2, w3 = params.level_energies
    diag = w1 + w2 * rho2**2 + w3 * rho3**2
    inter = (
        params.mu12 * rho2 * math.cos(phi2)
        + params.mu13 * rho3 * math.cos(phi3)
        + params.mu23 * rho2 * rho3 * math.cos(phi2 - phi3)
    )
    return (
        params.omega * rho**2
        + (n * diag - 4.0 * math.sqrt(n) * inter * rho * math.cos(phi)) / norm
    )


def energy_rwa_polar(
    params: ModelParams,
    rho: float,
    phi: float,
    rho2: float,
    phi2: float,
    rho3: float,
    phi3: float,
) -> float:
    n = params.n_atoms
    norm = 1.0 + rho2**2 + rho3**2
    w1, w2, w3 = params.level_energies
    diag = w1 + w2 * rho2**2 + w3 * rho3**2
    inter = (
        params.mu12 * rho2 * math.cos(phi2 - phi)
        + params.mu13 * rho3 * math.cos(phi3 - phi)
        + params.mu23 * rho2 * rho3 * math.cos(phi3 - phi2 - phi)
    )
    return params.omega * rho**2 + (n * diag - 2.0 * math.sqrt(n) * inter * rho) / norm


def _radial_terms(params: ModelParams, rho2, rho3):
    """Norm n, level term d and interaction I of the reduced surface; broadcasts."""
    w1, w2, w3 = params.level_energies
    norm = 1.0 + rho2**2 + rho3**2
    diag = w1 + w2 * rho2**2 + w3 * rho3**2
    inter = params.mu12 * rho2 + params.mu13 * rho3 + params.mu23 * rho2 * rho3
    return norm, diag, inter


def _interaction_factor(params: ModelParams) -> float:
    return 2.0 if params.rwa else 4.0


def reduced_radial_energy(
    params: ModelParams, rho: float, rho2: float, rho3: float
) -> float:
    """Surface after angle elimination.

    For nonnegative couplings the optimal phases are zero (full Hamiltonian)
    or equal up to an arbitrary overall phase (RWA); the two cases differ
    only in the interaction prefactor (4 vs 2).
    """
    n = params.n_atoms
    norm, diag, inter = _radial_terms(params, rho2, rho3)
    factor = _interaction_factor(params)
    return (
        params.omega * rho**2
        + (n * diag - factor * math.sqrt(n) * inter * rho) / norm
    )


@dataclass(frozen=True)
class CriticalPoint:
    """A minimum of the reduced radial surface (phases fixed at zero)."""

    rho: float
    rho2: float
    rho3: float
    energy: float
    hessian_positive: bool

    def as_point(self) -> CoherentPoint:
        return CoherentPoint(
            alpha=complex(self.rho), gamma2=complex(self.rho2), gamma3=complex(self.rho3)
        )


def _field_scale(params: ModelParams) -> float:
    return _interaction_factor(params) * math.sqrt(params.n_atoms) / (2.0 * params.omega)


def _field_radius(params: ModelParams, rho2, rho3):
    """rho* = f sqrt(N) I / (2 Omega n), the field radius minimizing the surface."""
    norm, _, inter = _radial_terms(params, rho2, rho3)
    return _field_scale(params) * inter / norm


def _profile(params: ModelParams, rho2, rho3):
    """Reduced surface at rho = rho*, N d/n - Omega rho*^2; broadcasts.

    The surface is quadratic in rho, so eliminating it in closed form leaves
    a function of the atomic radii alone.
    """
    norm, diag, _ = _radial_terms(params, rho2, rho3)
    return params.n_atoms * diag / norm - params.omega * _field_radius(params, rho2, rho3) ** 2


def _profile_derivatives(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the profile at x = (rho2, rho3).

    Both d/n and rho* are ratios X = u/n with n = 1 + |x|^2, for which
    X_k = (u_k - 2 x_k X)/n and X_kl = (u_kl - 2 d_kl X - 2 x_k X_l - 2 x_l X_k)/n.
    """
    x = np.asarray(x, dtype=float)
    norm, diag, inter = _radial_terms(params, x[0], x[1])

    def ratio(u, du, ddu):
        val = u / norm
        grad = (du - 2.0 * x * val) / norm
        cross = np.outer(x, grad)
        return val, grad, (ddu - 2.0 * val * np.eye(2) - 2.0 * (cross + cross.T)) / norm

    w = np.array(params.level_energies[1:])
    _, d_grad, d_hess = ratio(diag, 2.0 * w * x, 2.0 * np.diag(w))
    k, mu23 = _field_scale(params), params.mu23
    r, r_grad, r_hess = ratio(
        k * inter,
        k * np.array([params.mu12 + mu23 * x[1], params.mu13 + mu23 * x[0]]),
        k * np.array([[0.0, mu23], [mu23, 0.0]]),
    )
    n, omega = params.n_atoms, params.omega
    grad = n * d_grad - 2.0 * omega * r * r_grad
    hess = n * d_hess - 2.0 * omega * (np.outer(r_grad, r_grad) + r * r_hess)
    return grad, hess


def _lattice_minima(values: np.ndarray) -> np.ndarray:
    """Indices of the lattice sites no higher than any of their neighbours."""
    rows, cols = values.shape
    padded = np.pad(values, 1, constant_values=np.inf)
    shifted = [padded[i : i + rows, j : j + cols] for i in range(3) for j in range(3)]
    return np.argwhere(values <= np.min(shifted, axis=0))


def _newton_finish(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Newton steps on the analytic gradient while it keeps shrinking.

    L-BFGS-B stops ~1e-8 short in the coordinates; two or three Newton
    steps reach the stationary point to rounding.
    """
    grad, hess = _profile_derivatives(params, x)
    for _ in range(4):
        if np.linalg.eigvalsh(hess)[0] <= 0.0:
            break
        trial = np.maximum(x - np.linalg.solve(hess, grad), 0.0)
        trial_grad, trial_hess = _profile_derivatives(params, trial)
        if not np.linalg.norm(trial_grad) < np.linalg.norm(grad):
            break
        x, grad, hess = trial, trial_grad, trial_hess
    return x


def minimize_surface(params: ModelParams) -> CriticalPoint:
    """Global minimum of the reduced radial surface over nonnegative radii.

    The field radius is solved in closed form (`_field_radius`), which
    leaves the 2-D profile over (rho2, rho3). Every discrete local minimum
    of a 64x64 lattice over [0, R]^2 starts an L-BFGS-B polish with the
    analytic gradient, finished by Newton steps. One more start comes from
    a line search along the softest eigendirection of the origin Hessian:
    just past a phase boundary the minimum sits at a radius far below the
    lattice spacing. Ties are broken lexicographically.
    """
    mu_max = max(params.mu12, params.mu13, params.mu23)
    bound = max(4.0, 4.0 * math.sqrt(params.n_atoms) * mu_max / params.omega)
    axis = np.linspace(0.0, bound, 64)
    lattice = _profile(params, axis[:, None], axis[None, :])
    starts = [axis[site] for site in _lattice_minima(lattice)]

    _, origin_hessian = _profile_derivatives(params, np.zeros(2))
    # Entrywise-nonnegative direction of slowest ascent from the origin.
    soft = np.abs(np.linalg.eigh(origin_hessian)[1][:, 0])
    line = minimize_scalar(
        lambda t: _profile(params, *(t * soft)),
        bounds=(0.0, bound),
        method="bounded",
        options={"xatol": 1e-12},
    )
    starts.append(line.x * soft)

    def objective(x):
        return _profile(params, *x), _profile_derivatives(params, x)[0]

    best = None
    converged_any = False
    for x0 in starts:
        res = minimize(objective, x0, method="L-BFGS-B", jac=True, bounds=[(0.0, None)] * 2)
        converged_any = converged_any or res.success
        r2, r3 = _newton_finish(params, res.x)
        key = (_profile(params, r2, r3), _field_radius(params, r2, r3), r2, r3)
        if best is None or key < best:
            best = key

    _, r, r2, r3 = best
    e_best = reduced_radial_energy(params, r, r2, r3)
    # d^2E/drho^2 = 2 Omega > 0, so the profile Hessian is the Schur
    # complement of the full one and decides its sign.
    _, hess = _profile_derivatives(params, np.array([r2, r3]))
    tol = 1e-8 * max(1.0, abs(e_best))
    positive = bool(np.linalg.eigvalsh(hess).min() > tol)
    point = CriticalPoint(
        rho=r, rho2=r2, rho3=r3, energy=e_best, hessian_positive=positive
    )
    if not converged_any:
        raise NonConvergence("no gradient polish converged", best=point)
    return point


@dataclass(frozen=True)
class ObservableReport:
    """Product-state statistics at a coherent point (totals, not per atom)."""

    energy: float
    n_photons: float
    var_photons: float
    populations: tuple[float, float, float]
    var_populations: tuple[float, float, float]
    m_mean: float
    m_var: float

    @property
    def q_mandel(self) -> float:
        """Var(M)/<M> - 1."""
        if self.m_mean == 0.0:
            raise IndeterminateQ("<M> = 0, Q undefined")
        return self.m_var / self.m_mean - 1.0


def coherent_expectations(params: ModelParams, point: CoherentPoint) -> ObservableReport:
    """Statistics of the normalized product trial state.

    The atomic populations are multinomial over p_k = |gamma_k|^2 / norm and
    the photon number is Poissonian with mean |alpha|^2, which fixes all the
    variances below.
    """
    n = params.n_atoms
    norm = point.atomic_norm_squared()
    probs = [abs(gi) ** 2 / norm for gi in point.gammas]
    pops = tuple(n * p for p in probs)
    var_pops = tuple(n * p * (1.0 - p) for p in probs)
    nbar = abs(point.alpha) ** 2
    l2, l3 = excitation_weights(params.config)
    m_mean = nbar + l2 * pops[1] + l3 * pops[2]
    m_var = (
        nbar
        + l2**2 * var_pops[1]
        + l3**2 * var_pops[2]
        - 2.0 * l2 * l3 * n * probs[1] * probs[2]
    )
    return ObservableReport(
        energy=energy(params, point),
        n_photons=nbar,
        var_photons=nbar,
        populations=pops,
        var_populations=var_pops,
        m_mean=m_mean,
        m_var=m_var,
    )


def boundary_coupling(
    make_params,
    mu_lo: float,
    mu_hi: float,
    coupling_tol: float = 1e-6,
    rho_threshold: float = 1e-6,
) -> float:
    """Bisect the coupling magnitude where the minimizing field turns on.

    ``make_params(mu)`` must return the ModelParams at coupling magnitude
    ``mu``. The transition indicator is the minimizer's field radius
    exceeding ``rho_threshold``; the returned magnitude is accurate to
    ``coupling_tol``.
    """
    if not mu_lo < mu_hi:
        raise ValueError("need mu_lo < mu_hi")

    def collective(mu: float) -> bool:
        return minimize_surface(make_params(mu)).rho > rho_threshold

    if collective(mu_lo):
        raise NoTransitionFound(
            f"already collective at the lower end mu={mu_lo:g}"
        )
    if not collective(mu_hi):
        raise NoTransitionFound(
            f"still normal at the upper end mu={mu_hi:g}"
        )
    lo, hi = mu_lo, mu_hi
    while hi - lo > coupling_tol:
        mid = 0.5 * (lo + hi)
        if collective(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
