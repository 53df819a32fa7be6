"""Variational and exact treatments of three-level atoms in a single-mode cavity."""

from .errors import (
    CutoffNotConverged,
    DegenerateState,
    IndeterminateQ,
    NonConvergence,
    NoTransitionFound,
    TailTooLarge,
    TricavityError,
)
from .model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    Regime,
    StateObservables,
    couplings_from_magnitude,
    excitation_weights,
    symmetric_occupations,
)
from .sacs import SacsPoint
from .surface import (
    CriticalPoint,
    boundary_coupling,
    coherent_expectations,
    energy,
    energy_polar,
    minimize_surface,
    reduced_radial_energy,
)
from .vconfig import Approximation, VParams

__version__ = "0.1.0"

__all__ = [
    "AtomicConfiguration",
    "Approximation",
    "CoherentPoint",
    "CriticalPoint",
    "CutoffNotConverged",
    "DegenerateState",
    "IndeterminateQ",
    "ModelParams",
    "NoTransitionFound",
    "NonConvergence",
    "ParityBranch",
    "Regime",
    "SacsPoint",
    "StateObservables",
    "TailTooLarge",
    "TricavityError",
    "VParams",
    "boundary_coupling",
    "coherent_expectations",
    "couplings_from_magnitude",
    "energy",
    "energy_polar",
    "excitation_weights",
    "minimize_surface",
    "reduced_radial_energy",
    "symmetric_occupations",
]
