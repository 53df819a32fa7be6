"""Random-case generators and solver stand-ins shared by the test modules.

``CONFIGS``, ``random_params`` and ``random_point`` come from the validation
registry, so the tests and ``tricavity validate`` draw from one copy.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

from tricavity.checks import CONFIGS, random_params, random_point  # noqa: F401
from tricavity.sacs import SacsPoint


def random_sacs_point(rng, config, n_atoms, branch, scale: float = 1.2) -> SacsPoint:
    """A parity-adapted point resampled away from the degenerate kernel."""
    while True:
        sp = SacsPoint(
            point=random_point(rng, scale),
            branch=branch,
            config=config,
            n_atoms=n_atoms,
        )
        if abs(sp.kernel) > 1e-8:
            return sp


def arpack_gives_up_or_lapack_fails(a, *args, **kwargs):
    """Stand-in for `eigsh` (sparse or LinearOperator input) or `scipy.linalg.eigh`
    that fails as each does."""
    if sparse.issparse(a) or isinstance(a, LinearOperator):
        raise ArpackNoConvergence(
            "No convergence (0 iterations, 0/1 eigenvectors converged)",
            np.empty(0), np.empty((a.shape[0], 0)),
        )
    raise np.linalg.LinAlgError("LAPACK gave up")
