"""Closed-form expectation values on parity-adapted coherent states."""

import math

import numpy as np
import pytest

from tricavity import fock, sacs
from tricavity.errors import DegenerateState, IndeterminateQ
from tricavity.model import (
    AtomicConfiguration,
    CoherentPoint,
    ParityBranch,
    excitation_weights,
)
from tricavity.sacs import (
    SacsPoint,
    expect_a,
    expect_a_product,
    expect_m_moments,
    expect_one_body,
    expect_photon_moments,
    linear_entropy,
    sacs_energy,
)
from tricavity.surface import energy

from helpers import CONFIGS, random_params, random_point, random_sacs_point

BRANCHES = (ParityBranch.EVEN, ParityBranch.ODD)


def test_rejects_a_bad_atom_number_and_a_mismatched_state():
    point = CoherentPoint(alpha=0.5, gamma2=0.3, gamma3=0.2)
    with pytest.raises(ValueError, match="n_atoms must be a positive integer"):
        SacsPoint(point, ParityBranch.EVEN, AtomicConfiguration.V, 0)
    sp = SacsPoint(point, ParityBranch.EVEN, AtomicConfiguration.V, 2)
    rng = np.random.default_rng(5)
    assert math.isfinite(sacs_energy(random_params(rng, AtomicConfiguration.V, 2), sp))
    with pytest.raises(ValueError, match="configuration mismatch"):
        sacs_energy(random_params(rng, AtomicConfiguration.XI, 2), sp)
    with pytest.raises(ValueError, match="atom-number mismatch"):
        sacs_energy(random_params(rng, AtomicConfiguration.V, 3), sp)


class TestKernelAndNorm:
    def test_norm_is_positive(self):
        rng = np.random.default_rng(211)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            branch = BRANCHES[rng.integers(2)]
            sp = random_sacs_point(rng, config, int(rng.integers(1, 7)), branch)
            assert sp.norm_squared() > 0.0

    def test_even_and_odd_norms_split_product_norm(self):
        # The two projections carry the full product-state norm between them:
        # N+ + N- = 4 |<c|c>| after normalizing the product state to 1.
        rng = np.random.default_rng(223)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            pt = random_point(rng)
            norms = []
            for branch in BRANCHES:
                sp = SacsPoint(point=pt, branch=branch, config=config, n_atoms=n)
                g = (1 + abs(pt.gamma2) ** 2 + abs(pt.gamma3) ** 2) ** n
                norms.append(sp.norm_squared() / (g * math.exp(abs(pt.alpha) ** 2)))
            assert abs(norms[0] + norms[1] - 4.0) < 1e-10


class TestOneBody:
    def test_populations_sum_to_atom_number(self):
        rng = np.random.default_rng(227)
        for _ in range(60):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 7))
            sp = random_sacs_point(rng, config, n, BRANCHES[rng.integers(2)])
            one = expect_one_body(sp)
            assert abs(one.a11 + one.a22 + one.a33 - n) < 1e-10 * n

    def test_second_casimir_sum(self):
        rng = np.random.default_rng(229)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            sp = random_sacs_point(rng, config, n, BRANCHES[rng.integers(2)])
            total = sum(
                expect_a_product(sp, k, j, j, k) for k in (1, 2, 3) for j in (1, 2, 3)
            )
            assert abs(total - (n**2 + 2 * n)) < 1e-9 * (n**2 + 2 * n)

    def test_diagonal_transition_matches_population(self):
        rng = np.random.default_rng(233)
        for _ in range(30):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            sp = random_sacs_point(rng, config, int(rng.integers(1, 5)), BRANCHES[rng.integers(2)])
            one = expect_one_body(sp)
            for i, pop in zip((1, 2, 3), (one.a11, one.a22, one.a33)):
                val = expect_a(sp, i, i)
                assert abs(val.imag) < 1e-12
                assert abs(val.real - pop) < 1e-10

    def test_diagonal_transition_near_origin(self):
        # The odd SACS near the origin, where 1 - u_1 cancels (V, N = 2).
        # Along this direction the populations tend to (3/2, 1/4, 1/4) with
        # corrections of order eps^2, and <A_ii> and the one-body record must
        # both get there.
        for eps in (1e-5, 1e-6):
            point = CoherentPoint(
                alpha=complex(eps * math.sqrt(2.0)),
                gamma2=complex(eps / math.sqrt(2.0)),
                gamma3=complex(eps / math.sqrt(2.0)),
            )
            sp = SacsPoint(point, ParityBranch.ODD, AtomicConfiguration.V, 2)
            one = expect_one_body(sp)
            for i, pop, limit in zip((1, 2, 3), (one.a11, one.a22, one.a33), (1.5, 0.25, 0.25)):
                val = expect_a(sp, i, i).real
                assert abs(val - pop) < 1e-12
                assert abs(val - limit) < 1e-8


class TestSymmetries:
    def test_observables_invariant_under_parity_partner(self):
        # The adapted state is an eigenstate of the parity map, so replacing
        # the reference point by its image must not move any expectation.
        rng = np.random.default_rng(239)
        for _ in range(30):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            branch = BRANCHES[rng.integers(2)]
            sp = random_sacs_point(rng, config, n, branch)
            l2, l3 = excitation_weights(config)
            p = sp.point
            partner = CoherentPoint(-p.alpha, (-1) ** l2 * p.gamma2, (-1) ** l3 * p.gamma3)
            mirrored = SacsPoint(point=partner, branch=branch, config=config, n_atoms=n)
            a, b = expect_one_body(sp), expect_one_body(mirrored)
            assert np.allclose(a, b, rtol=0, atol=1e-10)
            na, _ = expect_photon_moments(sp)
            nb, _ = expect_photon_moments(mirrored)
            assert abs(na - nb) < 1e-10

    def test_energy_decomposes_into_branches(self):
        # <H> on the product state is the norm-weighted mean of the two
        # branch energies, which therefore bracket it.
        rng = np.random.default_rng(241)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            p = random_params(rng, config, n, rwa=bool(rng.integers(2)))
            pt = random_point(rng)
            weights, energies = [], []
            for branch in BRANCHES:
                sp = SacsPoint(point=pt, branch=branch, config=config, n_atoms=n)
                g = (1 + abs(pt.gamma2) ** 2 + abs(pt.gamma3) ** 2) ** n
                weights.append(sp.norm_squared() / (g * math.exp(abs(pt.alpha) ** 2)))
                energies.append(sacs_energy(p, sp))
            e_coh = energy(p, pt)
            mixed = (weights[0] * energies[0] + weights[1] * energies[1]) / 4.0
            scale = max(1.0, abs(e_coh))
            assert abs(mixed - e_coh) < 1e-10 * scale
            assert min(energies) <= e_coh + 1e-10 * scale
            assert e_coh <= max(energies) + 1e-10 * scale


class TestMomentsAndEntropy:
    def test_m_variance_nonnegative(self):
        rng = np.random.default_rng(251)
        for _ in range(60):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            sp = random_sacs_point(rng, config, int(rng.integers(1, 7)), BRANCHES[rng.integers(2)])
            mom = expect_m_moments(sp)
            assert mom.variance > -1e-10

    def test_q_mandel_indeterminate_at_zero_mean(self):
        sp = SacsPoint(
            point=CoherentPoint(0j, 0j, 0j),
            branch=ParityBranch.EVEN,
            config=CONFIGS[2],
            n_atoms=2,
        )
        with pytest.raises(IndeterminateQ):
            expect_m_moments(sp).q_mandel

    def test_degenerate_odd_vacuum_raises(self):
        sp = SacsPoint(
            point=CoherentPoint(0j, 0j, 0j),
            branch=ParityBranch.ODD,
            config=CONFIGS[2],
            n_atoms=2,
        )
        with pytest.raises(DegenerateState):
            expect_one_body(sp)

    @pytest.mark.parametrize("scale", (1.2, 0.05))
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_linear_entropy_matches_the_oracle_partial_trace(self, config, branch, n, scale):
        rng = np.random.default_rng(263)
        for _ in range(4):
            sp = random_sacs_point(rng, config, n, branch, scale)
            space = fock.TruncatedSpace(n, fock.suggested_nu_max(sp.point.alpha))
            rho = fock.build_sacs_vector(sp.point, branch, config, space).atomic_density_matrix()
            assert abs(linear_entropy(sp) - (1.0 - float(np.sum(np.abs(rho) ** 2)))) < 1e-10

    def test_kernel_reduced_is_real_symmetric_in_branch(self):
        # k+- (branch-dependent reduced kernel) obeys k+ + k- = 4 by the
        # same norm split used above, at the reduced (prefactor-free) level.
        rng = np.random.default_rng(269)
        for _ in range(40):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 6))
            pt = random_point(rng)
            total = sum(
                SacsPoint(point=pt, branch=b, config=config, n_atoms=n).kernel
                for b in BRANCHES
            )
            assert abs(total - 4.0) < 1e-10


def test_branch_observables_derives_the_weights_once(monkeypatch):
    # The state derives its scalars when it is built; no closed form that
    # branch_observables evaluates on it derives them again.
    weights, calls = sacs.excitation_weights, []

    def counted(config):
        calls.append(config)
        return weights(config)

    monkeypatch.setattr(sacs, "excitation_weights", counted)
    config = AtomicConfiguration.XI  # weights 1 and 2: every M-moment term runs
    params = random_params(np.random.default_rng(271), config, 3)
    point = CoherentPoint(0.8 + 0.3j, 0.5 - 0.2j, 0.4 + 0.1j)
    sacs.branch_observables(params, point, ParityBranch.ODD)
    assert calls == [config]


def test_branch_observables_derives_the_kernel_once(monkeypatch):
    # The reduced kernel is a scalar of the state: built with it, read after.
    term, kernels = sacs.SacsPoint._term, []

    def counted(self, direct, parity, k):
        if (direct, parity, k) == (1.0, 1, 0):
            kernels.append(self)
        return term(self, direct, parity, k)

    monkeypatch.setattr(sacs.SacsPoint, "_term", counted)
    params = random_params(np.random.default_rng(271), AtomicConfiguration.XI, 3)
    point = CoherentPoint(0.8 + 0.3j, 0.5 - 0.2j, 0.4 + 0.1j)
    sacs.branch_observables(params, point, ParityBranch.ODD)
    assert len(kernels) == 1


def test_branch_observables_evaluates_the_photon_moments_once(monkeypatch):
    # The M moments start from the photon moments branch_observables has
    # already evaluated, instead of evaluating them again.
    moments, calls = sacs.expect_photon_moments, []

    def counted(sp):
        calls.append(sp)
        return moments(sp)

    monkeypatch.setattr(sacs, "expect_photon_moments", counted)
    params = random_params(np.random.default_rng(271), AtomicConfiguration.XI, 3)
    point = CoherentPoint(0.8 + 0.3j, 0.5 - 0.2j, 0.4 + 0.1j)
    sacs.branch_observables(params, point, ParityBranch.ODD)
    assert len(calls) == 1
