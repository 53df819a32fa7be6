"""Parity branches at the origin of the surface, and the SACS photon distribution.

In the normal regime the surface minimum is the origin, where the odd SACS
has zero norm; its columns are the epsilon -> 0 limit, the ground state of
the one-excitation block. These tests hold that limit to the closed forms
near the origin and to the exact sector grounds, in every scheme and frame.
"""

import itertools
import math

import numpy as np

from tricavity import cli, fock, sacs, surface
from tricavity.model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    couplings_from_magnitude,
)

# (omega, omega1, omega2, omega3)
FRAMES = (
    (1.0, 0.0, 1.0, 1.0),
    (2.0, 0.0, 1.0, 1.0),
    (1.0, 0.2, 1.1, 1.4),
    (0.8, 0.1, 1.3, 1.3),
)
SCHEMES = tuple(AtomicConfiguration)


def make_params(config, frame, mu, n_atoms, rwa=False, theta=0.7) -> ModelParams:
    omega, w1, w2, w3 = frame
    return ModelParams(
        omega=omega,
        omega1=w1,
        omega2=w2,
        omega3=w3,
        n_atoms=n_atoms,
        config=config,
        rwa=rwa,
        **couplings_from_magnitude(config, mu, theta),
    )


def approach_point(params: ModelParams, eps: float) -> CoherentPoint:
    """A point at distance ~eps from the origin along the odd limit state."""
    origin = CoherentPoint(0j, 0j, 0j)
    one = sacs.branch_observables(params, origin, ParityBranch.ODD).one_body
    root_n = math.sqrt(params.n_atoms)
    return CoherentPoint(
        alpha=complex(eps * math.sqrt(one.n_photons)),
        gamma2=complex(eps * math.sqrt(one.a22) / root_n),
        gamma3=complex(eps * math.sqrt(one.a33) / root_n),
    )


def test_normal_regime_energies_bound_exact_sector_grounds():
    # A SACS is a trial state of its parity sector, so its energy can never
    # lie below the exact sector ground.
    worst = -math.inf
    for config, rwa, frame, n_atoms, mu in itertools.product(
        SCHEMES, (False, True), FRAMES, (1, 2, 4), (0.1, 0.3)
    ):
        params = make_params(config, frame, mu, n_atoms, rwa)
        crit = surface.minimize_surface(params)
        assert crit.rho == 0.0, (config, rwa, frame, n_atoms, mu)
        exact = fock.converged_ground_states(params)
        for branch, sector in ((ParityBranch.EVEN, exact.even), (ParityBranch.ODD, exact.odd)):
            energy = cli._sacs_columns(params, crit, branch)["energy"]
            assert energy is not None, (config, rwa, frame, n_atoms, mu, branch)
            gap = sector.energy - n_atoms * energy
            worst = max(worst, gap)
            assert gap <= 1e-12, (config, rwa, frame, n_atoms, mu, branch, gap)
    assert worst > -1e-12  # under the RWA the limits are the exact grounds


def test_odd_limit_matches_closed_forms_near_origin():
    for config, rwa, frame, n_atoms in itertools.product(
        SCHEMES, (False, True), FRAMES, (1, 3)
    ):
        params = make_params(config, frame, 0.3, n_atoms, rwa)
        origin = CoherentPoint(0j, 0j, 0j)
        limit = sacs.branch_observables(params, origin, ParityBranch.ODD)
        sp = sacs.SacsPoint(approach_point(params, 1e-5), ParityBranch.ODD, config, n_atoms)
        assert abs(sacs.sacs_energy(params, sp) - limit.energy) < 1e-6
        one = sacs.expect_one_body(sp)
        for closed, lim in zip(one, limit.one_body):
            assert abs(closed - lim) < 1e-6
        assert abs(sacs.linear_entropy(sp) - limit.entropy) < 1e-6


def test_limits_carry_the_excitation_statistics():
    origin = CoherentPoint(0j, 0j, 0j)
    for config, frame in itertools.product(SCHEMES, FRAMES):
        params = make_params(config, frame, 0.3, 2)
        even = sacs.branch_observables(params, origin, ParityBranch.EVEN)
        odd = sacs.branch_observables(params, origin, ParityBranch.ODD)
        assert even.energy == 2 * frame[1]
        assert (even.q_m, odd.q_m) == (1.0, -1.0)
        assert (odd.m_mean, odd.m_var) == (1.0, 0.0)
        assert abs(sum(odd.one_body[:3]) - 2.0) < 1e-14
        # Schemes with one weight-1 level have no weight in the other.
        if config is AtomicConfiguration.XI:
            assert odd.one_body.a33 == 0.0
        if config is AtomicConfiguration.LAMBDA:
            assert odd.one_body.a22 == 0.0


def test_photon_distribution_matches_fock_vector():
    shifted = (1.2, 0.2, 1.1, 1.4)
    for config, rwa, n_atoms in itertools.product(SCHEMES, (False, True), (1, 3)):
        params = make_params(config, shifted, 2.5, n_atoms, rwa)
        point = surface.minimize_surface(params).as_point()
        assert abs(point.alpha) > 0.5
        space = fock.TruncatedSpace(n_atoms, fock.suggested_nu_max(point.alpha))
        nus = np.arange(space.nu_max + 1)
        for branch in ParityBranch:
            oracle = fock.build_sacs_vector(point, branch, config, space).photon_distribution()
            closed = sacs.photon_distribution(params, point, branch, nus)
            assert np.max(np.abs(closed - oracle)) < 1e-12


def test_photon_distribution_at_origin_is_the_limit():
    origin = CoherentPoint(0j, 0j, 0j)
    params = make_params(AtomicConfiguration.V, FRAMES[0], 0.3, 2)
    nus = np.arange(5)
    even = sacs.photon_distribution(params, origin, ParityBranch.EVEN, nus)
    odd = sacs.photon_distribution(params, origin, ParityBranch.ODD, nus)
    assert even.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert np.allclose(odd, [0.5, 0.5, 0.0, 0.0, 0.0], atol=1e-15)
    assert sacs.poisson_distribution(0.0, nus).tolist() == even.tolist()


def test_boundary_point_takes_the_limit():
    # At mu_c the minimizer stops ~1e-8 from the origin, where the closed
    # forms have lost most of their digits to cancellation.
    params = make_params(AtomicConfiguration.V, FRAMES[0], 0.5, 2, theta=math.pi / 4)
    crit = surface.minimize_surface(params)
    assert crit.rho < 1e-6
    even = cli._sacs_columns(params, crit, ParityBranch.EVEN)
    odd = cli._sacs_columns(params, crit, ParityBranch.ODD)
    assert even["q_m"] == 1.0
    assert abs(odd["entropy"] - 0.5) < 1e-12
    assert abs(odd["energy"] - 0.25) < 1e-12
