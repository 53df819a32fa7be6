"""Truncated-space diagonalization and its use as an expectation oracle."""

import math

import numpy as np
import pytest
from scipy import sparse

from tricavity import fock, sacs
from tricavity.errors import TailTooLarge
from tricavity.model import AtomicConfiguration, ParityBranch
from tricavity.vconfig import VParams

from helpers import CONFIGS, random_params, random_sacs_point

BRANCHES = (ParityBranch.EVEN, ParityBranch.ODD)


class TestSpace:
    def test_dimensions(self):
        for n, nu_max in ((1, 5), (2, 8), (4, 3)):
            space = fock.TruncatedSpace(n, nu_max)
            atomic = (n + 1) * (n + 2) // 2
            assert space.atomic_dimension == atomic
            assert space.dimension == atomic * (nu_max + 1)
            assert len(list(space.labels())) == space.dimension

    def test_operator_algebra(self):
        space = fock.TruncatedSpace(2, 12)
        a = fock.annihilation(space)
        n_op = fock.photon_number(space)
        # a'a reproduces the number operator away from the cutoff edge.
        diff = (a.conj().T @ a - n_op).toarray()
        assert np.abs(diff).max() < 1e-12
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                aij = fock.transition(space, i, j)
                aji = fock.transition(space, j, i)
                assert (abs(aij - aji.conj().T)).max() < 1e-12

    def test_transition_equals_kronecker_lift(self):
        # The direct block-diagonal assembly must be the Kronecker product
        # 1 x A_ij exactly, down to the stored CSR arrays.
        for n, nu_max in ((1, 0), (2, 7), (4, 3)):
            space = fock.TruncatedSpace(n, nu_max)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    reference = sparse.kron(
                        sparse.identity(nu_max + 1),
                        fock.atomic_transition(space, i, j),
                        format="csr",
                    )
                    lifted = fock.transition(space, i, j)
                    assert lifted.shape == reference.shape
                    assert np.array_equal(lifted.indptr, reference.indptr)
                    assert np.array_equal(lifted.indices, reference.indices)
                    assert np.array_equal(lifted.data, reference.data)

    def test_casimir_matrix_identities(self):
        for n in (1, 2, 3):
            space = fock.TruncatedSpace(n, 4)
            dim = space.dimension
            linear = sum(fock.transition(space, k, k) for k in (1, 2, 3))
            assert (abs(linear - n * sparse.identity(dim))).max() < 1e-12
            quad = sum(
                fock.transition(space, k, j) @ fock.transition(space, j, k)
                for k in (1, 2, 3)
                for j in (1, 2, 3)
            )
            assert (abs(quad - (n**2 + 2 * n) * sparse.identity(dim))).max() < 1e-12


class TestHamiltonianStructure:
    def test_hermitian_and_parity_commuting(self):
        rng = np.random.default_rng(307)
        for _ in range(10):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 4)), rwa=bool(rng.integers(2)))
            space = fock.TruncatedSpace(p.n_atoms, 10)
            h = fock.build_hamiltonian(p, space)
            assert (abs(h - h.conj().T)).max() < 1e-12
            pi = fock.parity_operator(space, config)
            assert (abs(h @ pi - pi @ h)).max() < 1e-10

    def test_rwa_conserves_excitation(self):
        rng = np.random.default_rng(311)
        for _ in range(10):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            p = random_params(rng, config, int(rng.integers(1, 4)), rwa=True)
            space = fock.TruncatedSpace(p.n_atoms, 10)
            h = fock.build_hamiltonian(p, space)
            m = fock.m_operator(space, config)
            assert (abs(h @ m - m @ h)).max() < 1e-10

    def test_sector_spectrum_matches_ground_states(self):
        vp = VParams(mu=1.0)
        p = vp.to_model_params()
        space = fock.TruncatedSpace(p.n_atoms, 40)
        result = fock.ground_states(p, space, certify=False)
        for branch in BRANCHES:
            vals = fock.sector_spectrum(p, space, branch, k=2)
            ground = result.even if branch is ParityBranch.EVEN else result.odd
            assert abs(vals[0] - ground.energy) < 1e-10
            assert vals[1] > vals[0]

    def test_excitation_rotation_identity(self):
        rng = np.random.default_rng(313)
        for config in CONFIGS:
            p = random_params(rng, config, 2)
            space = fock.TruncatedSpace(2, 18)
            for theta in (0.0, math.pi / 7, math.pi):
                assert fock.excitation_rotation_deviation(p, space, theta) < 1e-12


class TestGroundStates:
    def test_certificate_and_convergence(self):
        vp = VParams(mu=1.0)
        result = fock.converged_ground_states(vp.to_model_params())
        assert result.certificate["certified"]
        assert result.certificate["delta"] < 1e-10
        assert result.even.energy < result.odd.energy
        assert result.global_ground.sector is ParityBranch.EVEN

    def test_conserving_normal_ground_is_vacuum(self):
        # Without counter-rotating terms the zero-excitation sector holds
        # only the vacuum, so below the transition the ground energy is 0.
        vp = VParams(mu=0.2, rwa=True)
        result = fock.converged_ground_states(vp.to_model_params())
        assert abs(result.even.energy) < 1e-12
        dist = result.even.state.photon_distribution()
        assert abs(dist[0] - 1.0) < 1e-12

    def test_full_normal_ground_sits_below_vacuum(self):
        # Virtual two-quantum excitations push the exact energy below the
        # product-state value 0 even where the variational minimum is normal.
        vp = VParams(mu=0.2)
        result = fock.converged_ground_states(vp.to_model_params())
        assert -0.5 < result.even.energy < -1e-6

    def test_parity_of_sector_states(self):
        vp = VParams(mu=1.3)
        p = vp.to_model_params()
        space = fock.TruncatedSpace(p.n_atoms, 60)
        result = fock.ground_states(p, space, certify=False)
        pi = fock.parity_operator(space, p.config)
        for branch, ground in ((ParityBranch.EVEN, result.even), (ParityBranch.ODD, result.odd)):
            val = ground.state.expectation(pi)
            assert abs(val - branch.sign) < 1e-10


class TestSacsVectorOracle:
    def test_tail_guard_rejects_small_cutoff(self):
        rng = np.random.default_rng(331)
        sp = random_sacs_point(rng, AtomicConfiguration.V, 2, ParityBranch.EVEN, scale=3.0)
        space = fock.TruncatedSpace(2, 4)
        with pytest.raises(TailTooLarge):
            fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)

    def test_closed_forms_match_vector_expectations(self):
        rng = np.random.default_rng(337)
        for _ in range(24):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 4))
            branch = BRANCHES[rng.integers(2)]
            sp = random_sacs_point(rng, config, n, branch)
            space = fock.TruncatedSpace(n, 40)
            vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)

            norm_dev = abs(vec.norm_squared() - sp.norm_squared())
            assert norm_dev < 1e-10 * max(1.0, sp.norm_squared())

            one = sacs.expect_one_body(sp)
            for i, closed in zip((1, 2, 3), (one.a11, one.a22, one.a33)):
                oracle = vec.expectation(fock.transition(space, i, i)).real
                assert abs(closed - oracle) < 1e-10 * max(1.0, abs(oracle))

            n_mean, n_sq = sacs.expect_photon_moments(sp)
            n_op = fock.photon_number(space)
            assert abs(n_mean - vec.expectation(n_op).real) < 1e-10 * max(1.0, n_mean)
            assert abs(n_sq - vec.expectation(n_op @ n_op).real) < 1e-10 * max(1.0, n_sq)

            mom = sacs.expect_m_moments(sp)
            m_op = fock.m_operator(space, config)
            m_mean = vec.expectation(m_op).real
            m_sq = vec.expectation(m_op @ m_op).real
            assert abs(mom.mean - m_mean) < 1e-10 * max(1.0, abs(m_mean))
            assert abs(mom.second_moment - m_sq) < 1e-10 * max(1.0, abs(m_sq))

            for i, j in ((1, 2), (1, 3), (2, 3)):
                closed = sacs.expect_a(sp, i, j)
                oracle = vec.expectation(fock.transition(space, i, j))
                assert abs(closed - oracle) < 1e-10 * max(1.0, abs(oracle))

    def test_energy_matches_hamiltonian_expectation(self):
        rng = np.random.default_rng(347)
        for _ in range(12):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 4))
            p = random_params(rng, config, n, rwa=bool(rng.integers(2)))
            sp = random_sacs_point(rng, config, n, BRANCHES[rng.integers(2)])
            space = fock.TruncatedSpace(n, 44)
            vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)
            h = fock.build_hamiltonian(p, space)
            closed = sacs.sacs_energy(p, sp)
            oracle = vec.expectation(h).real
            assert abs(closed - oracle) < 1e-10 * max(1.0, abs(oracle))

    def test_reduced_density_matrix_matches_partial_trace(self):
        rng = np.random.default_rng(353)
        for _ in range(12):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 4))
            sp = random_sacs_point(rng, config, n, BRANCHES[rng.integers(2)])
            space = fock.TruncatedSpace(n, 40)
            vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)
            closed = sacs.reduced_density_matrix(sp).matrix
            oracle = vec.atomic_density_matrix()
            assert np.abs(closed - oracle).max() < 1e-10
