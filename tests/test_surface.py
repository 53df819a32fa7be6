"""Product-state energy surface, its minimization and its observables."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from tricavity import fock, surface
from tricavity.errors import NoTransitionFound, NonConvergence
from tricavity.model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    Regime,
)
from tricavity.surface import (
    _field_radius,
    _profile,
    _profile_derivatives,
    _soft_line_start,
    boundary_coupling,
    coherent_expectations,
    energy,
    energy_polar,
    minimize_surface,
    reduced_radial_energy,
)
from tricavity.vconfig import VParams, critical_point_v, e_min_v

from helpers import CONFIGS, random_params, random_point


class TestEnergyForms:
    def test_origin_energy_is_ground_level(self):
        rng = np.random.default_rng(101)
        origin = CoherentPoint(0j, 0j, 0j)
        for config in CONFIGS:
            p = random_params(rng, config, 3)
            assert abs(energy(p, origin) - 3 * p.omega1) < 1e-14

    def test_polar_matches_complex(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 5)), rwa=bool(rng.integers(2)))
            rho = rng.uniform(0.0, 1.5, size=3)
            phi = rng.uniform(-math.pi, math.pi, size=3)
            pt = CoherentPoint(*(r * cmath.exp(1j * t) for r, t in zip(rho, phi)))
            via_polar = energy_polar(p, rho[0], phi[0], rho[1], phi[1], rho[2], phi[2])
            assert abs(energy(p, pt) - via_polar) < 1e-10 * max(1.0, abs(via_polar))

    def test_rwa_on_real_points_halves_couplings(self):
        # On phase-free points the counter-rotating terms duplicate the
        # co-rotating ones, so the RWA surface at doubled couplings matches.
        rng = np.random.default_rng(107)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 4)))
            q = replace(p, mu12=2.0 * p.mu12, mu13=2.0 * p.mu13, mu23=2.0 * p.mu23, rwa=True)
            vals = rng.uniform(0.0, 1.5, size=3)
            pt = CoherentPoint(complex(vals[0]), complex(vals[1]), complex(vals[2]))
            assert abs(energy(p, pt) - energy(q, pt)) < 1e-12

    def test_zero_phases_never_raise_energy(self):
        rng = np.random.default_rng(109)
        for _ in range(60):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 4)))
            rho = rng.uniform(0.0, 1.5, size=3)
            phi = rng.uniform(-math.pi, math.pi, size=3)
            phased = energy_polar(p, rho[0], phi[0], rho[1], phi[1], rho[2], phi[2])
            flat = energy_polar(p, rho[0], 0.0, rho[1], 0.0, rho[2], 0.0)
            assert flat <= phased + 1e-12

    def test_reduced_radial_matches_full_on_axis(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 4)))
            rho = rng.uniform(0.0, 2.0, size=3)
            direct = energy_polar(p, rho[0], 0.0, rho[1], 0.0, rho[2], 0.0)
            assert abs(reduced_radial_energy(p, *rho) - direct) < 1e-12

    def test_profile_is_surface_at_optimal_field_radius(self):
        rng = np.random.default_rng(149)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 5)), rwa=bool(rng.integers(2)))
            x = rng.uniform(0.0, 2.0, size=2)
            rho = _field_radius(p, *x)
            value = _profile(p, *x)
            assert abs(value - reduced_radial_energy(p, rho, *x)) < 1e-12
            for shift in (-1e-3, 1e-3):
                assert value < reduced_radial_energy(p, rho + shift, *x)
            grad, hess = map(np.array, _profile_derivatives(p, x))
            h = 1e-5
            for k, step in enumerate(np.eye(2) * h):
                slope = (_profile(p, *(x + step)) - _profile(p, *(x - step))) / (2 * h)
                assert abs(grad[k] - slope) < 1e-6 * max(1.0, abs(slope))
                bend = np.subtract(
                    _profile_derivatives(p, x + step)[0], _profile_derivatives(p, x - step)[0]
                )
                assert np.allclose(hess[k], bend / (2 * h), rtol=1e-6, atol=1e-6)


class TestMinimization:
    def test_normal_regime_stays_at_origin(self):
        p = VParams(mu=0.3).to_model_params()
        crit = minimize_surface(p)
        assert crit.rho < 1e-6
        assert abs(crit.energy) < 1e-12
        assert crit.hessian_positive

    def test_no_converged_polish_raises_with_the_best_candidate(self, monkeypatch):
        p = VParams(mu=1.1, theta=0.6, n_atoms=3).to_model_params()
        point = minimize_surface(p)
        polish = surface.minimize
        monkeypatch.setattr(surface, "minimize", lambda *args: polish(*args)._replace(success=False))
        minimize_surface.cache_clear()
        with pytest.raises(NonConvergence, match="no gradient polish converged") as info:
            minimize_surface(p)
        assert info.value.best == point

    def test_collective_minimum_matches_closed_form(self):
        pairs = [(1.0, math.pi / 4), (0.51, math.pi / 4), (0.6, 0.3), (1.0, 0.2), (1.5, 1.2), (2.2, 0.7)]
        # Every collective point of the default sweep grid, where a polish
        # that stops on the value alone falls ~1e-9 short of the minimum.
        pairs += [
            (float(mu), math.pi / 4)
            for mu in np.linspace(0.0, 2.0, 201)
            if VParams(mu=float(mu)).regime() is Regime.COLLECTIVE
        ]
        for mu, theta in pairs:
            vp = VParams(mu=mu, theta=theta)
            crit = minimize_surface(vp.to_model_params())
            rho, rho2, rho3 = critical_point_v(vp)
            assert abs(crit.rho - rho) < 1e-12, (mu, theta)
            assert abs(crit.rho2 - rho2) < 1e-12, (mu, theta)
            assert abs(crit.rho3 - rho3) < 1e-12, (mu, theta)
            assert abs(crit.energy - vp.n_atoms * e_min_v(vp)) < 1e-12, (mu, theta)
            assert crit.hessian_positive, (mu, theta)

    def test_soft_line_start_is_the_line_minimum(self):
        # The closed-form start lies on the softest eigendirection of the
        # origin Hessian and is no higher than a dense scan of that ray.
        rng = np.random.default_rng(151)
        for _ in range(60):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 7)), rwa=bool(rng.integers(2)))
            soft = np.abs(np.linalg.eigh(np.array(_profile_derivatives(p, (0.0, 0.0))[1]))[1][:, 0])
            bound = float(rng.uniform(1.0, 8.0))
            start = np.array(_soft_line_start(p, bound))
            t = float(np.linalg.norm(start))
            assert 0.0 <= t <= bound and np.allclose(start, t * soft, atol=1e-9 * max(1.0, t))
            ts = np.linspace(0.0, bound, 20001)
            scan = _profile(p, ts * soft[0], ts * soft[1])
            assert _profile(p, *start) <= scan.min() + 1e-12 * max(1.0, abs(scan.min()))

    def test_shifted_ground_level_minimum(self):
        # omega1 = 0.6 lowers the V-scheme boundary to sqrt(omega3 - omega1)/2,
        # so mu = 0.4 is already collective.
        vp = VParams(mu=0.4, omega1=0.6, n_atoms=2)
        crit = minimize_surface(vp.to_model_params())
        assert abs(crit.rho - 0.441588) < 1e-6
        assert abs(crit.energy - 1.155) < 1e-12
        assert crit.energy < vp.n_atoms * vp.omega1
        assert crit.hessian_positive

    def test_shallow_first_order_minimum_is_found(self):
        # The origin is locally stable and the collective well is so shallow
        # that every lattice site in it lies above the origin; only a polish
        # from the well's own lattice local minimum finds it.
        p = ModelParams(
            omega=1.0,
            omega1=0.0,
            omega2=1.0,
            omega3=1.0,
            mu12=0.99,
            mu13=0.0,
            mu23=1.1434038103712716,
            n_atoms=2,
            config=AtomicConfiguration.XI,
            rwa=True,
        )
        crit = minimize_surface(p)
        assert abs(crit.energy - (-1.6778e-4)) < 1e-8
        assert crit.rho > 0.5

    def test_minimum_beats_random_probes(self):
        rng = np.random.default_rng(127)
        for config in CONFIGS:
            p = random_params(rng, config, 2)
            crit = minimize_surface(p)
            for _ in range(25):
                assert crit.energy <= energy(p, random_point(rng, 2.0)) + 1e-9

    def test_as_point_round_trip(self):
        vp = VParams(mu=1.3)
        crit = minimize_surface(vp.to_model_params())
        pt = crit.as_point()
        assert abs(energy(vp.to_model_params(), pt) - crit.energy) < 1e-12


class TestObservables:
    def test_populations_sum_to_atom_number(self):
        rng = np.random.default_rng(131)
        for _ in range(30):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            p = random_params(rng, config, n)
            rep = coherent_expectations(p, random_point(rng))
            assert abs(sum(rep.one_body[:3]) - n) < 1e-12

    def test_photon_statistics_are_poissonian(self):
        rng = np.random.default_rng(137)
        for _ in range(30):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 5)))
            pt = random_point(rng)
            rep = coherent_expectations(p, pt)
            assert abs(rep.one_body.n_photons - abs(pt.alpha) ** 2) < 1e-12
            assert abs(rep.photon_var - rep.one_body.n_photons) < 1e-12

    def test_energy_agrees_with_report(self):
        rng = np.random.default_rng(139)
        for _ in range(30):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 5)))
            pt = random_point(rng)
            assert abs(coherent_expectations(p, pt).energy - energy(p, pt)) < 1e-10

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_fock_oracle(self, config, rwa):
        # The even plus the odd parity-adapted vector is the product state
        # itself; random_params shifts the frame (omega1 > 0, generic levels).
        rng = np.random.default_rng(149)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            p = random_params(rng, config, n, rwa=rwa)
            pt = random_point(rng, scale=1.0)
            space = fock.TruncatedSpace(n, fock.suggested_nu_max(pt.alpha))
            even, odd = (fock.build_sacs_vector(pt, b, config, space) for b in ParityBranch)
            vec = fock.StateVector(space, even.data + odd.data)
            nop = fock.photon_number(space)
            mop = fock.m_operator(space, config)
            n_photons = vec.expectation(nop).real
            m_mean = vec.expectation(mop).real
            oracle = {
                "energy": vec.expectation(fock.build_hamiltonian(p, space)).real,
                "a11": vec.expectation(fock.transition(space, 1, 1)).real,
                "a22": vec.expectation(fock.transition(space, 2, 2)).real,
                "a33": vec.expectation(fock.transition(space, 3, 3)).real,
                "n_photons": n_photons,
                "photon_var": vec.expectation(nop @ nop).real - n_photons**2,
                "m_mean": m_mean,
                "m_var": vec.expectation(mop @ mop).real - m_mean**2,
                "entropy": 1.0 - float(np.sum(np.abs(vec.atomic_density_matrix()) ** 2)),
            }
            rep = coherent_expectations(p, pt)
            closed = {**rep._asdict(), **rep.one_body._asdict()}
            for key, value in oracle.items():
                assert abs(closed[key] - value) < 1e-10 * max(1.0, abs(value)), key


class TestBoundaryBisection:
    def test_locates_known_boundary(self):
        def make(mu):
            return VParams(mu=mu).to_model_params()

        found = boundary_coupling(make, 0.05, 3.0, coupling_tol=1e-4)
        assert abs(found - 0.5) < 5e-4

    def test_shifted_ground_level_boundary(self):
        def make(mu):
            return VParams(mu=mu, omega1=0.6, n_atoms=2).to_model_params()

        found = boundary_coupling(make, 0.05, 3.0)
        assert abs(found - math.sqrt(1.0 - 0.6) / 2.0) < 1e-5

    def test_raises_when_bracket_misses(self):
        def make(mu):
            return VParams(mu=mu).to_model_params()

        with pytest.raises(NoTransitionFound, match="already collective"):
            boundary_coupling(make, 0.8, 3.0, coupling_tol=1e-3)
        with pytest.raises(NoTransitionFound, match="still normal"):
            boundary_coupling(make, 0.05, 0.4, coupling_tol=1e-3)

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError):
            boundary_coupling(lambda mu: VParams(mu=mu).to_model_params(), 2.0, 1.0)

    def test_tolerance_is_positive_and_bounded_by_float_spacing(self):
        def make(mu):
            return VParams(mu=mu).to_model_params()

        for tol in (0.0, -1e-6):
            with pytest.raises(ValueError):
                boundary_coupling(make, 0.1, 1.0, coupling_tol=tol)
        # Below the float spacing the bisection stops at adjacent floats.
        found = boundary_coupling(make, 0.1, 1.0, coupling_tol=1e-300)
        assert abs(found - 0.5) < 1e-9
