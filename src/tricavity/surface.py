"""Coherent-state energy surfaces, their minima, and product-state statistics.

The variational trial state is a Weyl-Heisenberg coherent state for the field
times a totally symmetric U(3) coherent state for the atoms. All expectation
values below are exact on that manifold; the surface is the normalized
Hamiltonian expectation: `energy` in complex amplitudes, `energy_polar` in
polar ones, each reading ``params.rwa`` only in its interaction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NoTransitionFound, NonConvergence, TricavityError
from .model import (
    CoherentPoint,
    ModelParams,
    OneBodyExpectations,
    StateObservables,
    excitation_weights,
    mandel_q,
)

# Amplitudes up to this radius count as the origin: the boundary bisection
# calls a surface minimum normal while its field radius stays within it, and
# `sacs` evaluates the parity branches there as their epsilon -> 0 limit.
ORIGIN_RADIUS = 1e-6


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


def energy(params: ModelParams, point: CoherentPoint) -> float:
    """Energy surface at a coherent point (total, not per atom).

    Under the RWA <A_ij a' + A_ji a> = N (gi* gj alpha* + c.c.) / norm; the
    counter-rotating terms of the full Hamiltonian turn alpha* into 2 Re alpha.
    """
    n = params.n_atoms
    norm = point.atomic_norm_squared()
    g = point.gammas
    diag = sum(w * abs(gi) ** 2 for w, gi in zip(params.level_energies, g))
    inter = 0.0
    for i, j in ((1, 2), (1, 3), (2, 3)):
        pair = g[i - 1].conjugate() * g[j - 1]
        if params.rwa:
            pair *= point.alpha.conjugate()
        inter += params.coupling(i, j) * 2.0 * pair.real
    coupling = math.sqrt(n) * inter
    if not params.rwa:
        coupling *= 2.0 * point.alpha.real
    return params.omega * abs(point.alpha) ** 2 + (n * diag - coupling) / norm


def energy_polar(
    params: ModelParams,
    rho: float,
    phi: float,
    rho2: float,
    phi2: float,
    rho3: float,
    phi3: float,
) -> float:
    """`energy` in polar coordinates alpha = rho e^{i phi}, gamma_k = rho_k e^{i phi_k}.

    Written independently of `energy`, so that each checks the other. Under
    the RWA the field phase shifts the atomic ones; without it cos(phi) multiplies.
    """
    n = params.n_atoms
    norm = 1.0 + rho2**2 + rho3**2
    w1, w2, w3 = params.level_energies
    diag = w1 + w2 * rho2**2 + w3 * rho3**2
    shift = phi if params.rwa else 0.0
    inter = (
        params.mu12 * rho2 * math.cos(phi2 - shift)
        + params.mu13 * rho3 * math.cos(phi3 - shift)
        + params.mu23 * rho2 * rho3 * math.cos(phi3 - phi2 - shift)
    )
    coupling = _interaction_factor(params) * math.sqrt(n) * inter * rho
    if not params.rwa:
        coupling *= math.cos(phi)
    return params.omega * rho**2 + (n * diag - coupling) / norm


def _radial_terms(params: ModelParams, rho2, rho3):
    """Norm n, level term d and interaction I of the reduced surface; broadcasts."""
    w1, w2, w3 = params.level_energies
    norm = 1.0 + rho2**2 + rho3**2
    diag = w1 + w2 * rho2**2 + w3 * rho3**2
    inter = params.mu12 * rho2 + params.mu13 * rho3 + params.mu23 * rho2 * rho3
    return norm, diag, inter


def _interaction_factor(params: ModelParams) -> float:
    return 2.0 if params.rwa else 4.0


def reduced_radial_energy(params: ModelParams, rho: float, rho2: float, rho3: float) -> float:
    """Surface after angle elimination: `energy_polar` with every phase at zero.

    For nonnegative couplings the optimal phases are zero (full Hamiltonian)
    or equal up to an arbitrary overall phase (RWA).
    """
    return energy_polar(params, rho, 0.0, rho2, 0.0, rho3, 0.0)


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


def _profile_derivatives(params: ModelParams, x):
    """Analytic gradient and Hessian of the profile at x = (rho2, rho3), in floats.

    Both d/n and rho* are ratios X = u/n with n = 1 + |x|^2, for which
    X_k = (u_k - 2 x_k X)/n and X_kl = (u_kl - 2 d_kl X - 2 x_k X_l - 2 x_l X_k)/n.
    Returns ((g2, g3), ((h22, h23), (h23, h33))).
    """
    x2, x3 = float(x[0]), float(x[1])
    norm, diag, inter = _radial_terms(params, x2, x3)

    def ratio(u, u2, u3, u22, u23, u33):
        val = u / norm
        g2, g3 = (u2 - 2.0 * x2 * val) / norm, (u3 - 2.0 * x3 * val) / norm
        h22, h33 = u22 - 2.0 * val - 4.0 * x2 * g2, u33 - 2.0 * val - 4.0 * x3 * g3
        return val, g2, g3, h22 / norm, (u23 - 2.0 * (x2 * g3 + x3 * g2)) / norm, h33 / norm

    _, w2, w3 = params.level_energies
    _, d2, d3, d22, d23, d33 = ratio(diag, 2.0 * w2 * x2, 2.0 * w3 * x3, 2.0 * w2, 0.0, 2.0 * w3)
    k, mu23 = _field_scale(params), params.mu23
    r, r2, r3, r22, r23, r33 = ratio(
        k * inter, k * (params.mu12 + mu23 * x3), k * (params.mu13 + mu23 * x2), 0.0, k * mu23, 0.0
    )
    n, two_omega = params.n_atoms, 2.0 * params.omega
    h23 = n * d23 - two_omega * (r2 * r3 + r * r23)
    return (
        (n * d2 - two_omega * r * r2, n * d3 - two_omega * r * r3),
        ((n * d22 - two_omega * (r2 * r2 + r * r22), h23),
         (h23, n * d33 - two_omega * (r3 * r3 + r * r33))),
    )


def _lattice_minima(values: np.ndarray) -> np.ndarray:
    """Indices of the lattice sites no higher than any of their neighbours."""
    rows, cols = values.shape
    padded = np.pad(values, 1, constant_values=np.inf)
    shifted = [padded[i : i + rows, j : j + cols] for i in range(3) for j in range(3)]
    return np.argwhere(values <= np.min(shifted, axis=0))


def _soft_line_start(params: ModelParams, bound: float) -> tuple[float, float]:
    """Closed-form profile minimum on x = t s, t in [0, bound], s the nonnegative
    direction of slowest ascent from the origin. There the profile is
    N(w1 + A t^2)/(1 + t^2) - Omega k^2 t^2 (B + C t)^2/(1 + t^2)^2 with
    A = w2 s2^2 + w3 s3^2, B = mu12 s2 + mu13 s3, C = mu23 s2 s3; its slope is
    2t/(1 + t^2)^3 times N(A - w1)(1 + t^2) - Omega k^2 (B + C t)(B + 2C t - B t^2),
    so the minimum is at t = 0, t = bound or a real root of that cubic between."""
    (a, b), (_, c) = _profile_derivatives(params, (0.0, 0.0))[1]
    angle = 0.5 * math.atan2(2.0 * b, a - c)  # the stiffest axis; s is normal to it
    s2, s3 = abs(math.sin(angle)), abs(math.cos(angle))
    w1, w2, w3 = params.level_energies
    lift = params.n_atoms * (w2 * s2**2 + w3 * s3**2 - w1)
    pull = params.omega * _field_scale(params) ** 2
    b, c = params.mu12 * s2 + params.mu13 * s3, params.mu23 * s2 * s3
    roots = np.roots([pull * b * c, lift - pull * (2.0 * c * c - b * b), -3.0 * pull * b * c,
                      lift - pull * b * b])
    real = roots.real[np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots.real))]
    ts = np.concatenate(([0.0, bound], real[(real > 0.0) & (real < bound)]))
    t = ts[np.argmin(_profile(params, ts * s2, ts * s3))]
    return t * s2, t * s3


Polish = NamedTuple("Polish", [("x", tuple[float, float]), ("success", bool)])


def minimize(params: ModelParams, x0) -> Polish:
    """Projected Newton polish of the profile over x >= 0, from x0.

    A coordinate at 0 whose gradient is >= 0 stays fixed. On the free ones
    the step is Newton's where their Hessian is positive definite, steepest
    descent elsewhere, halved until the trial lowers the profile or, within
    its rounding, shrinks the projected gradient: the last steps to the
    stationary point meet a profile flat to rounding. It stops when no step
    is accepted; success is a projected gradient below 1e-5, as in L-BFGS-B.
    """
    def state(x):
        (g2, g3), hess = _profile_derivatives(params, x)
        grad = (0.0 if x[0] == 0.0 and g2 >= 0.0 else g2, 0.0 if x[1] == 0.0 and g3 >= 0.0 else g3)
        return _profile(params, *x), max(map(abs, grad)), x, grad, hess

    moved = state((max(float(x0[0]), 0.0), max(float(x0[1]), 0.0)))
    for _ in range(100):  # from a lattice start a handful of steps suffice
        value, slope, x, (g2, g3), ((a, b), (_, c)) = moved
        if g2 == 0.0 and x[0] == 0.0:  # fixed coordinates drop out of the Newton system
            a, b = 1.0, 0.0
        if g3 == 0.0 and x[1] == 0.0:
            b, c = 0.0, 1.0
        det = a * c - b * b
        step = (-g2, -g3)  # steepest descent unless the free Hessian is positive definite
        if a > 0.0 and det > 0.0:
            step = ((b * g3 - c * g2) / det, (b * g2 - a * g3) / det)
        noise, scale = 1e-14 * max(1.0, abs(value)), 1.0
        while (trial := (max(x[0] + scale * step[0], 0.0), max(x[1] + scale * step[1], 0.0))) != x:
            new_value, new_slope, *_ = moved = state(trial)
            if new_value < value - noise or (new_value <= value + noise and new_slope < slope):
                break
            scale *= 0.5
        else:
            return Polish(x, slope < 1e-5)
    return Polish(moved[2], moved[1] < 1e-5)


@lru_cache(maxsize=1)
def minimize_surface(params: ModelParams) -> CriticalPoint:
    """Global minimum of the reduced radial surface over nonnegative radii.

    With the field radius in closed form (`_field_radius`) the profile is a
    function of (rho2, rho3). Each local minimum of a 64x64 lattice over
    [0, R]^2, and the closed-form minimum along the soft direction at the
    origin (`_soft_line_start`; just past a phase boundary the minimum is far
    inside one lattice cell), starts a projected-Newton polish (`minimize`).
    The lowest wins, ties broken lexicographically. One entry is cached (the
    exact solve seeds its cutoff from it); NonConvergence is never cached.
    A lattice that overflows floats raises TricavityError, not NonConvergence.
    """
    bound = max(4.0, 4.0 * max(params.mu12, params.mu13, params.mu23) / params.omega)
    with np.errstate(all="ignore"):  # an overflow is reported once, below
        axis = np.linspace(0.0, bound, 64)
        lattice = _profile(params, axis[:, None], axis[None, :])
    if not np.isfinite(lattice).all():
        raise TricavityError(f"the coherent surface overflows floats on [0, {bound:.6g}]^2")
    starts = [*(axis[site] for site in _lattice_minima(lattice)), _soft_line_start(params, bound)]
    polishes = [minimize(params, x0) for x0 in starts]
    _, r, r2, r3 = min((_profile(params, *x), _field_radius(params, *x), *x) for x, _ in polishes)
    e_best = reduced_radial_energy(params, r, r2, r3)
    # d^2E/drho^2 = 2 Omega > 0: the profile Hessian, a Schur complement, decides the sign.
    (a, b), (_, c) = _profile_derivatives(params, (r2, r3))[1]
    positive = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b) > 1e-8 * max(1.0, abs(e_best))
    point = CriticalPoint(rho=r, rho2=r2, rho3=r3, energy=e_best, hessian_positive=positive)
    if not any(p.success for p in polishes):
        raise NonConvergence("no gradient polish converged", best=point)
    return point


def coherent_expectations(params: ModelParams, point: CoherentPoint) -> StateObservables:
    """Statistics of the normalized product trial state.

    The atomic populations are multinomial over p_k = |gamma_k|^2 / norm and
    the photon number is Poissonian with mean |alpha|^2, which fixes all the
    variances below. A product state leaves the matter pure: entropy 0.
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
    return StateObservables(
        energy(params, point), OneBodyExpectations(*pops, nbar), nbar,
        m_mean, m_var, mandel_q(m_mean, m_var), 0.0,
    )


def boundary_coupling(
    make_params,
    mu_lo: float,
    mu_hi: float,
    coupling_tol: float = 1e-6,
) -> float:
    """Bisect the coupling magnitude where the minimizing field turns on.

    ``make_params(mu)`` must return the ModelParams at coupling magnitude
    ``mu``. The transition indicator is the minimizer's field radius
    exceeding ORIGIN_RADIUS; the returned magnitude is accurate to
    ``coupling_tol``.
    """
    if not mu_lo < mu_hi:
        raise ValueError("need mu_lo < mu_hi")
    if not coupling_tol > 0:
        raise ValueError("coupling_tol must be positive")

    def collective(mu: float) -> bool:
        return minimize_surface(make_params(mu)).rho > ORIGIN_RADIUS

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
        if mid in (lo, hi):
            break  # adjacent floats: the bracket cannot shrink further
        if collective(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
