"""The oracle-equivalence check: its amplitude-matrix route, its teeth, its cost.

The entropy check against the partial-trace oracle and the rotation-identity
check have teeth too.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import sparse

from tricavity import checks, fock, sacs, vconfig
from tricavity.model import AtomicConfiguration

from helpers import CONFIGS

LEVELS = (1, 2, 3)


def _close(value, reference) -> bool:
    return abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


class TestDirectExpectations:
    @pytest.mark.parametrize("nu_max", [0, 1, 15])
    @pytest.mark.parametrize("n_atoms", [1, 2, 4])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name.lower())
    def test_matches_sparse_operators_on_random_vectors(self, config, n_atoms, nu_max):
        rng = np.random.default_rng(1000 * n_atoms + nu_max)
        space = fock.TruncatedSpace(n_atoms, nu_max)
        data = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        vec = fock.StateVector(space, data)
        every_pair = list(itertools.product(LEVELS, LEVELS))
        prods = [p + q for p in every_pair for q in every_pair]
        direct = checks._direct_expectations(vec, checks._atomic_tables(n_atoms), config, prods)

        ops = {(i, j): fock.transition(space, i, j) for i in LEVELS for j in LEVELS}
        ann = fock.annihilation(space)
        quadrature = ann + ann.conjugate().transpose()
        nop = fock.photon_number(space)
        mop = fock.m_operator(space, config)
        pairs = config.allowed_pairs
        reference = {
            "populations": [vec.expectation(ops[i, i]) for i in LEVELS],
            "photons": vec.expectation(nop),
            "photons_squared": vec.expectation(nop, nop),
            "population_squares": [vec.expectation(ops[i, i], ops[i, i]) for i in LEVELS],
            "photon_populations": [vec.expectation(nop, ops[i, i]) for i in LEVELS],
            "transitions": {(i, j): vec.expectation(ops[i, j]) for i, j in pairs},
            "products": [vec.expectation(ops[i, j], ops[k, l]) for i, j, k, l in prods],
            "a_ij_a": {(i, j): vec.expectation(ops[i, j], ann) for i, j in pairs},
            "dipoles": {
                (i, j): vec.expectation(ops[i, j] + ops[j, i], quadrature) for i, j in pairs
            },
            "m": vec.expectation(mop),
            "m_squared": vec.expectation(mop, mop),
        }
        assert direct.keys() == reference.keys()
        for family, expected in reference.items():
            got = direct[family]
            if isinstance(expected, dict):
                assert got.keys() == expected.keys(), family
                got, expected = list(got.values()), list(expected.values())
            if isinstance(expected, list):
                assert len(got) == len(expected), family
                assert all(_close(g, e) for g, e in zip(got, expected)), family
            else:
                assert _close(got, expected), family


def _perturbed(value):
    """value scaled by 1 + 1e-8, through the containers the closed forms return."""
    if isinstance(value, dict):
        return {key: _perturbed(item) for key, item in value.items()}
    if isinstance(value, tuple):
        items = [_perturbed(item) for item in value]
        return type(value)(*items) if hasattr(value, "_fields") else tuple(items)
    if dataclasses.is_dataclass(value):
        return type(value)(
            **{f.name: _perturbed(getattr(value, f.name)) for f in dataclasses.fields(value)}
        )
    return value * (1.0 + 1e-8)


CLOSED_FORMS = (
    "expect_one_body",
    "expect_photon_moments",
    "expect_a",
    "expect_a_product",
    "expect_photon_population_product",
    "expect_interaction",
    "expect_m_moments",
    "sacs_energy",
)


class TestOracleCheckTeeth:
    @pytest.mark.parametrize("seed", [7, 20240817, 31337])
    def test_passes_unperturbed(self, seed):
        result = checks.check_oracle_equivalence(
            np.random.default_rng(seed), checks.LEVELS["fast"]
        )
        assert result.passed, result.max_dev

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_fails_on_a_relative_perturbation(self, monkeypatch, name):
        original = getattr(sacs, name)
        monkeypatch.setattr(
            sacs, name, lambda *args, **kwargs: _perturbed(original(*args, **kwargs))
        )
        result = checks.check_oracle_equivalence(
            np.random.default_rng(20240817), checks.LEVELS["fast"]
        )
        assert not result.passed
        assert result.max_dev > 1e-10


def test_rdm_check_fails_on_a_relative_entropy_perturbation(monkeypatch):
    def run():
        return checks.check_rdm_consistency(np.random.default_rng(20240817), checks.LEVELS["fast"])

    assert run().passed
    original = sacs.linear_entropy
    monkeypatch.setattr(sacs, "linear_entropy", lambda sp: _perturbed(original(sp)))
    result = run()
    assert not result.passed
    assert result.max_dev > 1e-10


def test_photon_mean_check_fails_on_a_relative_nu_bar_perturbation(monkeypatch):
    def run():
        return checks.check_photon_mean_consistency(
            np.random.default_rng(20240817), checks.LEVELS["fast"]
        )

    assert run().passed
    original = vconfig.nu_bar
    monkeypatch.setattr(vconfig, "nu_bar", lambda vp: original(vp) * (1.0 + 1e-9))
    result = run()
    assert not result.passed
    assert result.max_dev > 1e-10


def _store_one_more_entry(monkeypatch, s):
    """Make counter_rotating_part store one more entry, 1 at a row whose M is the column's + s.

    The column is the last basis state, so the entry lies in the top two photon
    blocks, which a cut to nu <= nu_max - 2 would skip.
    """
    original = fock.counter_rotating_part

    def patched(params, space):
        m = fock.m_diagonal(space, params.config)
        col = space.dimension - 1
        row = np.flatnonzero(m == m[col] + s)[-1]
        extra = sparse.csr_matrix(([1.0], ([row], [col])), shape=(space.dimension,) * 2)
        return original(params, space) + extra

    monkeypatch.setattr(fock, "counter_rotating_part", patched)


class TestRotationCheckTeeth:
    ANGLES = (math.pi / 7.0, math.pi / 4.0, math.pi)

    def _deviations(self):
        params = checks.random_params(np.random.default_rng(5), AtomicConfiguration.V, 2)
        space = fock.TruncatedSpace(2, 14)
        return [fock.excitation_rotation_deviation(params, space, t) for t in self.ANGLES]

    def _check(self):
        rng = np.random.default_rng(20240817)
        return checks.check_rotation_identity(rng, checks.LEVELS["fast"])

    def test_passes_unperturbed(self):
        assert max(self._deviations()) < 1e-12
        assert self._check().passed

    def test_entry_that_keeps_m_fails_at_generic_angles(self, monkeypatch):
        _store_one_more_entry(monkeypatch, 0)
        at_7th, at_4th, _ = self._deviations()
        assert at_7th > 1e-12 and at_4th > 1e-12
        assert not self._check().passed

    def test_entry_of_odd_step_fails_at_pi(self, monkeypatch):
        _store_one_more_entry(monkeypatch, -1)
        assert self._deviations()[2] > 1e-12


def test_run_checks_rejects_an_unknown_level():
    with pytest.raises(ValueError, match="unknown level 'medium'"):
        checks.run_checks("medium")


class TestOracleCheckCost:
    def test_one_sparse_expectation_and_one_hamiltonian_per_point(self, monkeypatch):
        calls = {"expectation": 0, "build_hamiltonian": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(fock.StateVector, "expectation")
        counted(fock, "build_hamiltonian")
        level = checks.LEVELS["fast"]
        result = checks.check_oracle_equivalence(np.random.default_rng(20240817), level)
        assert result.passed
        assert calls == {"expectation": level.points, "build_hamiltonian": level.points}

    def test_atomic_tables_are_built_once_per_n_and_read_only(self, monkeypatch):
        # The tables are the A_ij on the photon vacuum; both checks share them.
        builds = []
        transition = fock.transition

        def counted(space, i, j):
            if space.nu_max == 0:
                builds.append((space.n_atoms, i, j))
            return transition(space, i, j)

        monkeypatch.setattr(fock, "transition", counted)
        checks._atomic_tables.cache_clear()
        level = checks.LEVELS["fast"]
        rng = np.random.default_rng(7)
        checks.check_oracle_equivalence(rng, level)
        checks.check_fock_structure(rng, level)
        assert sorted(builds) == [(n, i, j) for n in level.n_atoms for i in LEVELS for j in LEVELS]
        tables = checks._atomic_tables(level.n_atoms[0])
        with pytest.raises(TypeError):
            tables[1, 1] = None
        with pytest.raises(ValueError):
            tables[1, 1][0, 0] = 1.0
