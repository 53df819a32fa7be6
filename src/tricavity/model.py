"""Model definitions: N three-level atoms coupled to a single field mode.

The matter sector is described by collective U(3) generators A_ij (built from
the totally symmetric irrep, i.e. indistinguishable atoms), the field by one
boson mode. Three level schemes are supported, labelled by which dipole
transition is forbidden:

* ``XI`` (ladder): 1-3 forbidden, transitions 1-2 and 2-3 active.
* ``LAMBDA``: 1-2 forbidden, transitions 1-3 and 2-3 active.
* ``V``: 2-3 forbidden, transitions 1-2 and 1-3 active.

Each scheme has a conserved total excitation M = a'a + lambda2 A_22 +
lambda3 A_33 in the rotating-wave approximation; without it, exp(i pi M)
(excitation parity) still commutes with the full Hamiltonian.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class AtomicConfiguration(Enum):
    XI = "xi"
    LAMBDA = "lambda"
    V = "v"

    @property
    def forbidden_pair(self) -> tuple[int, int]:
        return _FORBIDDEN[self]

    @property
    def allowed_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return tuple(p for p in ((1, 2), (1, 3), (2, 3)) if p != _FORBIDDEN[self])


_FORBIDDEN = {
    AtomicConfiguration.XI: (1, 3),
    AtomicConfiguration.LAMBDA: (1, 2),
    AtomicConfiguration.V: (2, 3),
}

# (lambda2, lambda3): weights of the excited-level populations in M.
_EXCITATION_WEIGHTS = {
    AtomicConfiguration.XI: (1, 2),
    AtomicConfiguration.LAMBDA: (0, 1),
    AtomicConfiguration.V: (1, 1),
}

# Size limit of an exact basis (it ends the cutoff schedule) and of a photon table.
MAX_DIMENSION = 500_000


def excitation_weights(config: AtomicConfiguration) -> tuple[int, int]:
    """Weights (lambda2, lambda3) of A_22 and A_33 in the conserved excitation M."""
    return _EXCITATION_WEIGHTS[config]


class ParityBranch(Enum):
    """Excitation-parity sector: eigenvalue of exp(i pi M)."""

    EVEN = 1
    ODD = -1

    @property
    def sign(self) -> int:
        return self.value


class Regime(Enum):
    NORMAL = "normal"
    COLLECTIVE = "collective"


@dataclass(frozen=True)
class ModelParams:
    """Hamiltonian parameters.

    H = Omega a'a + sum_i omega_i A_ii
        - (1/sqrt(N)) sum_{i<j} mu_ij (a' + a)(A_ij + A_ji)

    with the forbidden pair's mu fixed to zero. With ``rwa=True`` the
    counter-rotating part is dropped, leaving
    -(1/sqrt(N)) sum_{i<j} mu_ij (A_ij a' + A_ji a).

    Level energies must be ordered omega1 <= omega2 <= omega3 and couplings
    must be nonnegative (the zero-phase angle analysis relies on this).
    """

    omega: float
    omega1: float
    omega2: float
    omega3: float
    mu12: float
    mu13: float
    mu23: float
    n_atoms: int
    config: AtomicConfiguration = AtomicConfiguration.V
    rwa: bool = False

    def __post_init__(self):
        values = (self.omega, *self.level_energies, self.mu12, self.mu13, self.mu23)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"frequencies and couplings must be finite, got {values}")
        if self.omega <= 0:
            raise ValueError(f"field frequency must be positive, got {self.omega}")
        if not (self.omega1 <= self.omega2 <= self.omega3):
            raise ValueError(
                "level energies must satisfy omega1 <= omega2 <= omega3, got "
                f"({self.omega1}, {self.omega2}, {self.omega3})"
            )
        if min(self.mu12, self.mu13, self.mu23) < 0:
            raise ValueError("couplings must be nonnegative")
        i, j = self.config.forbidden_pair
        if self.coupling(i, j) != 0.0:
            raise ValueError(
                f"mu{i}{j} must vanish in the {self.config.value} configuration"
            )
        if not isinstance(self.n_atoms, int) or self.n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {self.n_atoms}")

    @property
    def level_energies(self) -> tuple[float, float, float]:
        return (self.omega1, self.omega2, self.omega3)

    def coupling(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return {(1, 2): self.mu12, (1, 3): self.mu13, (2, 3): self.mu23}[(i, j)]


def couplings_from_magnitude(
    config: AtomicConfiguration, mu: float, theta: float
) -> dict[str, float]:
    """Split a coupling magnitude over the two allowed transitions.

    The allowed pair (p, q) gets (mu cos(theta), mu sin(theta)); the forbidden
    one is zero. Returns keyword arguments for ModelParams.
    """
    (p1, q1), (p2, q2) = config.allowed_pairs
    out = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0}
    out[f"mu{p1}{q1}"] = mu * math.cos(theta)
    out[f"mu{p2}{q2}"] = mu * math.sin(theta)
    return out


@dataclass(frozen=True)
class CoherentPoint:
    """A point on the product coherent-state manifold.

    alpha is the field amplitude; (gamma2, gamma3) are the atomic amplitudes
    relative to gamma1 = 1 (projective coordinates of the totally symmetric
    U(3) coherent state).
    """

    alpha: complex
    gamma2: complex
    gamma3: complex

    def polar(self) -> tuple[float, float, float, float, float, float]:
        """(rho, phi, rho2, phi2, rho3, phi3); phases of zero amplitudes are 0."""
        return (
            abs(self.alpha),
            cmath.phase(self.alpha),
            abs(self.gamma2),
            cmath.phase(self.gamma2),
            abs(self.gamma3),
            cmath.phase(self.gamma3),
        )

    @property
    def gammas(self) -> tuple[complex, complex, complex]:
        return (1.0 + 0j, complex(self.gamma2), complex(self.gamma3))

    def atomic_norm_squared(self) -> float:
        # gamma* . gamma with gamma1 = 1
        return 1.0 + abs(self.gamma2) ** 2 + abs(self.gamma3) ** 2


def symmetric_occupations(n_atoms: int) -> list[tuple[int, int, int]]:
    """Occupations (n1, n2, n3) of the symmetric N-atom irrep.

    Ordered lexicographically in (n2, n3); n1 = N - n2 - n3. This ordering is
    shared by the exact-diagonalization basis and reduced density matrices.
    """
    out = []
    for n2 in range(n_atoms + 1):
        for n3 in range(n_atoms + 1 - n2):
            out.append((n_atoms - n2 - n3, n2, n3))
    return out


class OneBodyExpectations(NamedTuple):
    a11: float
    a22: float
    a33: float
    n_photons: float


class StateObservables(NamedTuple):
    """Observables of one state; totals, not per atom."""

    energy: float
    one_body: OneBodyExpectations
    photon_var: float
    m_mean: float
    m_var: float
    q_m: float | None  # None where <M> = 0
    entropy: float


def mandel_q(m_mean: float, m_var: float) -> float | None:
    """Q = Var(M)/<M> - 1 of the total excitation; None exactly when <M> = 0."""
    return None if m_mean == 0.0 else m_var / m_mean - 1.0
