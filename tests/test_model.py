"""Parameter containers, coupling schemes and manifold symmetries."""

import cmath
import math

import numpy as np
import pytest

from tricavity.model import (
    AtomicConfiguration,
    CoherentPoint,
    ModelParams,
    ParityBranch,
    Regime,
    couplings_from_magnitude,
    excitation_weights,
    symmetric_occupations,
)

from tricavity.vconfig import VParams

from helpers import CONFIGS


def make_v_params(mu: float, n_atoms: int = 2, rwa: bool = False) -> ModelParams:
    theta = math.pi / 4
    return ModelParams(
        omega=1.0,
        omega1=0.0,
        omega2=1.0,
        omega3=1.0,
        n_atoms=n_atoms,
        config=AtomicConfiguration.V,
        rwa=rwa,
        **couplings_from_magnitude(AtomicConfiguration.V, mu, theta),
    )


class TestModelParams:
    def test_rejects_nonpositive_field_frequency(self):
        with pytest.raises(ValueError, match="field frequency"):
            ModelParams(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, 2)

    def test_rejects_unordered_level_energies(self):
        with pytest.raises(ValueError, match="omega1 <= omega2"):
            ModelParams(1.0, 0.5, 0.2, 1.0, 0.5, 0.5, 0.0, 2)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelParams(1.0, 0.0, 1.0, 1.0, -0.5, 0.5, 0.0, 2)

    def test_rejects_forbidden_pair_coupling(self):
        for config in CONFIGS:
            i, j = config.forbidden_pair
            couplings = {"mu12": 0.1, "mu13": 0.1, "mu23": 0.1}
            with pytest.raises(ValueError, match=f"mu{i}{j}"):
                ModelParams(1.0, 0.0, 1.0, 1.0, n_atoms=2, config=config, **couplings)

    def test_rejects_bad_atom_count(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(ValueError, match="n_atoms"):
                ModelParams(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, bad)

    def test_coupling_lookup_is_symmetric(self):
        p = make_v_params(1.0)
        assert p.coupling(1, 2) == p.coupling(2, 1) == p.mu12
        assert p.coupling(3, 1) == p.mu13
        assert p.coupling(2, 3) == 0.0


class TestConfigurations:
    def test_forbidden_pairs(self):
        assert AtomicConfiguration.XI.forbidden_pair == (1, 3)
        assert AtomicConfiguration.LAMBDA.forbidden_pair == (1, 2)
        assert AtomicConfiguration.V.forbidden_pair == (2, 3)

    def test_allowed_pairs_exclude_forbidden(self):
        for config in CONFIGS:
            pairs = config.allowed_pairs
            assert len(pairs) == 2
            assert config.forbidden_pair not in pairs

    def test_excitation_weights(self):
        assert excitation_weights(AtomicConfiguration.XI) == (1, 2)
        assert excitation_weights(AtomicConfiguration.LAMBDA) == (0, 1)
        assert excitation_weights(AtomicConfiguration.V) == (1, 1)

    def test_allowed_pairs_change_excitation_by_one(self):
        # Every allowed transition moves M by exactly one quantum, so the
        # counter-rotating terms all carry a two-quantum mismatch, and the
        # field term <A_ij a> of `sacs` always keeps the parity branch.
        for config in CONFIGS:
            l2, l3 = excitation_weights(config)
            weights = {1: 0, 2: l2, 3: l3}
            for i, j in config.allowed_pairs:
                assert abs(weights[j] - weights[i]) == 1

    def test_parity_branch_signs(self):
        assert ParityBranch.EVEN.sign == 1
        assert ParityBranch.ODD.sign == -1


class TestCouplingSplit:
    def test_magnitude_recovered(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            mu = rng.uniform(0.1, 3.0)
            theta = rng.uniform(0.0, math.pi / 2)
            c = couplings_from_magnitude(config, mu, theta)
            total = math.hypot(*(c[f"mu{i}{j}"] for i, j in config.allowed_pairs))
            assert abs(total - mu) < 1e-12
            i, j = config.forbidden_pair
            assert c[f"mu{i}{j}"] == 0.0

    def test_v_angle_convention(self):
        c = couplings_from_magnitude(AtomicConfiguration.V, 2.0, math.pi / 6)
        assert abs(c["mu12"] - 2.0 * math.cos(math.pi / 6)) < 1e-15
        assert abs(c["mu13"] - 2.0 * math.sin(math.pi / 6)) < 1e-15


class TestCoherentPoint:
    def test_polar_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = rng.uniform(0.0, 2.0, size=3)
            phi = rng.uniform(-math.pi, math.pi, size=3)
            pt = CoherentPoint(*(r * cmath.exp(1j * t) for r, t in zip(rho, phi)))
            polar = pt.polar()
            assert np.max(np.abs(np.array(polar[0::2]) - rho)) < 1e-12
            assert np.max(np.abs(np.array(polar[1::2]) - phi)) < 1e-12


class TestRegimeAndRwa:
    def test_regime_threshold(self):
        assert VParams(mu=0.49).regime() is Regime.NORMAL
        assert VParams(mu=0.5).regime() is Regime.NORMAL
        assert VParams(mu=0.51).regime() is Regime.COLLECTIVE
        assert VParams(mu=0.99, rwa=True).regime() is Regime.NORMAL
        assert VParams(mu=1.01, rwa=True).regime() is Regime.COLLECTIVE


class TestSymmetricOccupations:
    def test_count_and_order(self):
        for n in (1, 2, 3, 5):
            occ = symmetric_occupations(n)
            assert len(occ) == (n + 1) * (n + 2) // 2
            assert all(sum(o) == n and min(o) >= 0 for o in occ)
            keys = [(n2, n3) for _, n2, n3 in occ]
            assert keys == sorted(keys)
