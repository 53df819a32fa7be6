"""Random-case generators shared by the test modules.

``CONFIGS``, ``random_params`` and ``random_point`` come from the validation
registry, so the tests and ``tricavity validate`` draw from one copy.
"""

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
