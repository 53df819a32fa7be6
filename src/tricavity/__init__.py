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
    atomic_parity_flip,
    couplings_from_magnitude,
    excitation_weights,
    parity_partner,
    regime_v,
    rwa_coupling_map,
    symmetric_occupations,
)
from .sacs import SacsPoint
from .surface import (
    CriticalPoint,
    ObservableReport,
    boundary_coupling,
    coherent_expectations,
    energy,
    energy_full,
    energy_full_polar,
    energy_rwa,
    energy_rwa_polar,
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
    "ObservableReport",
    "ParityBranch",
    "Regime",
    "SacsPoint",
    "TailTooLarge",
    "TricavityError",
    "VParams",
    "atomic_parity_flip",
    "boundary_coupling",
    "coherent_expectations",
    "couplings_from_magnitude",
    "energy",
    "energy_full",
    "energy_full_polar",
    "energy_rwa",
    "energy_rwa_polar",
    "excitation_weights",
    "minimize_surface",
    "parity_partner",
    "reduced_radial_energy",
    "regime_v",
    "rwa_coupling_map",
    "symmetric_occupations",
]
