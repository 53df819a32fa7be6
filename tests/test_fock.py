"""Truncated-space diagonalization and its use as an expectation oracle."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from tricavity import cli, fock, sacs, surface
from tricavity.errors import CutoffNotConverged, NonConvergence, TailTooLarge
from tricavity.model import (
    AtomicConfiguration,
    ModelParams,
    ParityBranch,
    couplings_from_magnitude,
    excitation_weights,
    symmetric_occupations,
)
from tricavity.vconfig import VParams

from helpers import CONFIGS, arpack_gives_up_or_lapack_fails, random_params, random_sacs_point

BRANCHES = (ParityBranch.EVEN, ParityBranch.ODD)


class TestSpace:
    def test_dimensions(self):
        for n, nu_max in ((1, 5), (2, 8), (4, 3)):
            space = fock.TruncatedSpace(n, nu_max)
            atomic = (n + 1) * (n + 2) // 2
            assert space.atomic_dimension == atomic
            assert space.dimension == atomic * (nu_max + 1)
            assert space.occupations == symmetric_occupations(n)

    def test_rejects_bad_sizes_and_a_mismatched_atom_number(self):
        with pytest.raises(ValueError, match="n_atoms must be positive"):
            fock.TruncatedSpace(0, 5)
        with pytest.raises(ValueError, match="nu_max must be nonnegative"):
            fock.TruncatedSpace(1, -1)
        p = VParams(mu=1.0, n_atoms=2).to_model_params()
        with pytest.raises(ValueError, match="atom-number mismatch"):
            fock.build_hamiltonian(p, fock.TruncatedSpace(3, 4))

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
                        _reference_atomic(space, i, j),
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
        result = fock.ground_states(p, space)
        for vals, ground in zip(fock.sector_spectrum(p, space, k=2), (result.even, result.odd)):
            assert abs(vals[0] - ground.energy) < 1e-10
            assert vals[1] > vals[0]

    def test_excitation_rotation_identity(self):
        rng = np.random.default_rng(313)
        for config in CONFIGS:
            p = random_params(rng, config, 2)
            space = fock.TruncatedSpace(2, 18)
            for theta in (0.0, math.pi / 7, math.pi):
                assert fock.excitation_rotation_deviation(p, space, theta) < 1e-12


# Reference oracle for the index-array assembly: every operator built as a
# chain of sparse.kron products and sparse sums, compared with fock's down to
# the stored CSR arrays.
def _reference_atomic(space, i, j):
    index = {(n2, n3): k for k, (_, n2, n3) in enumerate(space.occupations)}
    rows, cols, data = [], [], []
    for col, occ in enumerate(space.occupations):
        n = list(occ)
        if n[j - 1] == 0:
            continue
        n[j - 1] -= 1
        amp = math.sqrt((n[j - 1] + 1) * (n[i - 1] + 1))
        n[i - 1] += 1
        rows.append(index[(n[1], n[2])])
        cols.append(col)
        data.append(amp)
    dim = space.atomic_dimension
    return sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def _reference_field_annihilation(space):
    return sparse.diags(np.sqrt(np.arange(1, space.nu_max + 1)), offsets=1).tocsr()


def _reference_lift_field(space, op):
    return sparse.kron(op, sparse.identity(space.atomic_dimension), format="csr")


def _reference_photon_number(space):
    nus = np.arange(space.nu_max + 1, dtype=float)
    return _reference_lift_field(space, sparse.diags(nus).tocsr())


def _reference_operators(space, config):
    """name -> matrix (or M diagonal) of every operator under test."""
    d = space.nu_max + 1
    l2, l3 = excitation_weights(config)
    m = np.array([nu + l2 * n2 + l3 * n3 for nu in range(d) for _, n2, n3 in space.occupations])
    ops = {
        "annihilation": _reference_lift_field(space, _reference_field_annihilation(space)),
        "photon_number": _reference_photon_number(space),
        "m_diagonal": m,
        "parity_operator": sparse.diags(1.0 - 2.0 * (m % 2)).tocsr(),
    }
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            a_ij = _reference_atomic(space, i, j)
            ops[f"atomic_transition{i}{j}"] = a_ij
            ops[f"transition{i}{j}"] = sparse.kron(sparse.identity(d), a_ij, format="csr")
    return ops


def _reference_hamiltonian(params, space):
    h = params.omega * _reference_photon_number(space)
    identity = sparse.identity(space.nu_max + 1)
    for i, w in zip((1, 2, 3), params.level_energies):
        if w != 0.0:
            h = h + w * sparse.kron(identity, _reference_atomic(space, i, i), format="csr")
    a_f = _reference_field_annihilation(space)
    root_n = math.sqrt(params.n_atoms)
    for i, j in params.config.allowed_pairs:
        mu = params.coupling(i, j)
        if mu == 0.0:
            continue
        a_ij = _reference_atomic(space, i, j)
        if params.rwa:
            inter = sparse.kron(a_f.T, a_ij, format="csr")
            inter = inter + inter.T
        else:
            inter = sparse.kron(a_f + a_f.T, a_ij + a_ij.T, format="csr")
        h = h - (mu / root_n) * inter
    return h.tocsr()


def _same_arrays(a, b) -> bool:
    """Same shape and bit-identical data, indices and indptr."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return (
        a.shape == b.shape
        and a.data.dtype == b.data.dtype == np.float64
        and np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


def _gershgorin_bound(h, part):
    """Least diag - (sum |row| - |diag|) over a block's rows, less its solver floor."""
    block = h[np.ix_(part, part)].toarray()
    diag = np.diag(block)
    floor = fock._solver_floor(part.size, abs(h).sum(axis=1).max())
    return np.min(diag + np.abs(diag) - np.abs(block).sum(axis=1)) - floor


def _solved_once_or_screened(h, blocks, parity, inputs, sectors, k) -> int:
    """Number of blocks solved: each dense input is one whole block, solved once;
    every other block of two or more states lies above its sector's k-th value
    by its Gershgorin bound."""
    slices = [h[np.ix_(part, part)].toarray() for part in blocks]
    solved = [sum(_same_arrays(a, block) for a in inputs) for block in slices]
    assert set(solved) <= {0, 1} and sum(solved) == len(inputs)
    for part, count in zip(blocks, solved):
        if count == 0 and part.size > 1:
            assert _gershgorin_bound(h, part) > sectors[parity[part[0]]][k - 1][0]
    return sum(solved)


def _every_block_solved(params, space, k):
    """Per sector the lowest k (value, part, vector) of every block, each solved dense."""
    h = fock.build_hamiltonian(params, space)
    m = fock.m_diagonal(space, params.config)
    if k > 1:
        labels = connected_components(h, directed=False)[1]
    else:
        labels = m if params.rwa else m % 2
    sectors = ([], [])
    for label in np.unique(labels):
        part = np.flatnonzero(labels == label)
        block = h[np.ix_(part, part)].toarray()
        if part.size == 1:
            vals, vecs = block[0], np.ones((1, 1))
        else:
            assert part.size <= fock.DENSE_CUTOFF
            vals, vecs = scipy.linalg.eigh(block, subset_by_index=(0, min(k, part.size) - 1))
        sectors[m[part[0]] % 2].extend((val, part, vec) for val, vec in zip(vals, vecs.T))
    return tuple(sorted(sector, key=lambda entry: entry[0])[:k] for sector in sectors)


def _frame_params(config, rwa, frame, n_atoms, mu=1.3, theta=0.7):
    """Default frame (Omega = 1, omega = (0, 1, 1)) or a shifted one."""
    freqs = dict(omega=1.0, omega1=0.0, omega2=1.0, omega3=1.0)
    if frame == "shifted":
        freqs = dict(omega=1.7, omega1=0.25, omega2=0.9, omega3=1.6)
    return ModelParams(
        **freqs,
        **couplings_from_magnitude(config, mu, theta),
        n_atoms=n_atoms,
        config=config,
        rwa=rwa,
    )


class TestIndexAssembly:
    @pytest.mark.parametrize("frame", ("default", "shifted"))
    @pytest.mark.parametrize("rwa", (False, True))
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.value)
    def test_matrices_bit_identical_to_kronecker_form(self, config, rwa, frame):
        for n_atoms in (1, 2, 3, 5, 8, 10):
            for nu_max in (0, 1, 7 + 3 * n_atoms):
                space = fock.TruncatedSpace(n_atoms, nu_max)
                params = _frame_params(config, rwa, frame, n_atoms)
                h = fock.build_hamiltonian(params, space)
                assert _same_arrays(h, _reference_hamiltonian(params, space))
                built = {
                    "annihilation": fock.annihilation(space),
                    "photon_number": fock.photon_number(space),
                    "m_diagonal": fock.m_diagonal(space, config),
                    "parity_operator": fock.parity_operator(space, config),
                }
                atomic = fock.TruncatedSpace(n_atoms, 0)
                for i in (1, 2, 3):
                    for j in (1, 2, 3):
                        built[f"atomic_transition{i}{j}"] = fock.transition(atomic, i, j)
                        built[f"transition{i}{j}"] = fock.transition(space, i, j)
                for name, reference in _reference_operators(space, config).items():
                    assert _same_arrays(built[name], reference), (name, n_atoms, nu_max)

    def test_comparison_sees_one_ulp(self):
        params = _frame_params(AtomicConfiguration.XI, False, "shifted", 3)
        space = fock.TruncatedSpace(3, 9)
        pairs = (
            (fock.build_hamiltonian(params, space), _reference_hamiltonian(params, space)),
            (fock.transition(fock.TruncatedSpace(3, 0), 2, 3), _reference_atomic(space, 2, 3)),
        )
        for built, matrix in pairs:
            assert _same_arrays(built, matrix)
            k = matrix.nnz // 2
            matrix.data[k] = np.nextafter(matrix.data[k], np.inf)
            assert not _same_arrays(built, matrix)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.value)
    def test_counter_rotating_part_is_full_minus_rwa(self, config):
        # Also: H stores no zeros (`_lowest_eigenpairs` searches its structure), in the
        # default frame's zero ground energy, at mu = 0 and at theta = 0,
        # where one coupling is zero.
        cases = (("default", 1.3, 0.7), ("shifted", 1.3, 0.7), ("shifted", 0.0, 0.7))
        for frame, mu, theta in cases + (("default", 1.3, 0.0),):
            for n_atoms in (1, 2, 5):
                params = _frame_params(config, False, frame, n_atoms, mu=mu, theta=theta)
                space = fock.TruncatedSpace(n_atoms, 12)
                full = fock.build_hamiltonian(params, space)
                rwa = fock.build_hamiltonian(replace(params, rwa=True), space)
                h_r = fock.counter_rotating_part(params, space)
                assert h_r.shape == full.shape and (h_r.nnz > 0) == (mu > 0)
                assert (h_r != full - rwa).nnz == 0
                assert np.all(full.data != 0) and np.all(rwa.data != 0)

    def test_chain_expectation_matches_product_matrix(self):
        rng = np.random.default_rng(359)
        for _ in range(12):
            config = CONFIGS[rng.integers(len(CONFIGS))]
            n = int(rng.integers(1, 4))
            sp = random_sacs_point(rng, config, n, BRANCHES[rng.integers(2)])
            space = fock.TruncatedSpace(n, 40)
            vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)
            ann = fock.annihilation(space)
            factors = [ann, ann.T.tocsr(), fock.photon_number(space)]
            factors.append(fock.m_operator(space, config))
            factors += [fock.transition(space, i, j) for i, j in config.allowed_pairs]
            for _ in range(6):
                size = int(rng.integers(2, 4))
                picks = [factors[k] for k in rng.integers(len(factors), size=size)]
                product = picks[0]
                for op in picks[1:]:
                    product = product @ op
                chain, matrix = vec.expectation(*picks), vec.expectation(product)
                assert abs(chain - matrix) <= 1e-13 * max(1.0, abs(matrix))

    def test_returned_matrices_do_not_share_the_cache(self):
        params = _frame_params(AtomicConfiguration.V, False, "shifted", 4)
        space = fock.TruncatedSpace(4, 10)
        for i in (1, 2, 3):
            for array in fock._atomic_entries(4, i, 1):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        builders = (
            lambda: fock.transition(space, 1, 2),
            lambda: fock.transition(space, 2, 2),
            lambda: fock.build_hamiltonian(params, space),
        )
        for build in builders:
            first = build()
            expected = first.copy()
            first.data[:] = -7.0
            assert _same_arrays(build(), expected)


def _bright_frames():
    """Double-resonance frames: V with omega2 = omega3, Lambda with omega1 = omega2."""
    for w23, w1 in itertools.product((1.0, 1.3), (0.0, 0.2)):
        yield AtomicConfiguration.V, dict(omega=1.0, omega1=w1, omega2=w23, omega3=w23)
    for w12 in (0.0, 0.2):
        yield AtomicConfiguration.LAMBDA, dict(omega=1.0, omega1=w12, omega2=w12, omega3=1.4)


def _observable_values(obs) -> list[float]:
    """Every field of a StateObservables; an undefined Q_M (<M> = 0) reads inf."""
    q_m = math.inf if obs.q_m is None else obs.q_m
    return [obs.energy, *obs.one_body, obs.photon_var, obs.m_mean, obs.m_var, q_m, obs.entropy]


class TestBrightBlock:
    def test_frames_with_a_dark_level(self):
        v = VParams(mu=1.0, n_atoms=4).to_model_params()
        assert fock.dark_level(v) == 3
        assert fock.dark_level(replace(v, omega2=0.9)) is None
        lam = ModelParams(
            omega=1.0, omega1=0.2, omega2=0.2, omega3=1.4,
            **couplings_from_magnitude(AtomicConfiguration.LAMBDA, 1.0, 0.7),
            n_atoms=4, config=AtomicConfiguration.LAMBDA,
        )
        assert fock.dark_level(lam) == 2
        assert fock.dark_level(replace(lam, omega1=0.0)) is None
        xi = _frame_params(AtomicConfiguration.XI, False, "default", 4)
        assert fock.dark_level(xi) is None
        for dark, occupations in ((3, [(4 - k, k, 0) for k in range(5)]),
                                  (2, [(4 - k, 0, k) for k in range(5)])):
            space = fock.TruncatedSpace(4, 6, dark)
            assert space.occupations == occupations
            assert space.dimension == 7 * 5
        with pytest.raises(ValueError):
            fock.TruncatedSpace(4, 6, 1)
        with pytest.raises(ValueError):
            fock.ground_states(replace(v, omega2=0.9), fock.TruncatedSpace(4, 20, 3))

    @pytest.mark.parametrize("rwa", (False, True))
    def test_block_equals_full_oracle(self, rwa):
        # Same cutoff on both. Observables are compared where the full sector
        # ground is nondegenerate; elsewhere any state of the degenerate
        # level is a ground state and each oracle returns its own.
        nu_max = 16
        cases = ((1, 0.0, 0.7), (2, 0.3, 1.2), (4, 1.0, 0.7), (7, 1.6, 1.2))
        compared = 0
        for (config, freqs), (n, mu, theta) in itertools.product(_bright_frames(), cases):
            p = ModelParams(
                **freqs, **couplings_from_magnitude(config, mu, theta),
                n_atoms=n, config=config, rwa=rwa,
            )
            space = fock.TruncatedSpace(n, nu_max, fock.dark_level(p))
            block = fock.ground_states(p, space)
            full_space = fock.TruncatedSpace(n, nu_max)
            full = fock.ground_states(p, full_space)
            spectra = fock.sector_spectrum(p, full_space, k=2)
            for branch, values in zip(("even", "odd"), spectra):
                ours, ref = getattr(block, branch), getattr(full, branch)
                assert abs(ours.energy - ref.energy) <= 1e-10 * max(1.0, abs(ref.energy))
                if values[1] - values[0] < 1e-8:
                    continue
                compared += 1
                found = _observable_values(fock.ground_observables(ours, p))
                expected = _observable_values(fock.ground_observables(ref, p))
                for x, y in zip(found, expected):
                    assert x == y or abs(x - y) <= 1e-10 * max(1.0, abs(y)), (
                        config, freqs, n, mu, theta, branch
                    )
        assert compared >= 30

    @pytest.mark.parametrize(
        "config", (AtomicConfiguration.V, AtomicConfiguration.LAMBDA), ids=lambda c: c.value
    )
    @pytest.mark.parametrize("rwa", (False, True))
    def test_dark_blocks_lie_above_the_bright_block(self, config, rwa):
        # Rotated onto its bright level, the frame leaves the dark level
        # uncoupled, so the full oracle's coupled components split by n_d.
        freqs = dict(omega=1.0, omega1=0.0, omega2=1.0, omega3=1.0)
        if config is AtomicConfiguration.LAMBDA:
            freqs = dict(omega=1.0, omega1=0.0, omega2=0.0, omega3=1.0)
        for n, mu in itertools.product((2, 4), (0.3, 1.5)):
            p = ModelParams(
                **freqs, **couplings_from_magnitude(config, mu, 0.7),
                n_atoms=n, config=config, rwa=rwa,
            )
            dark = fock.dark_level(p)
            rotated = fock._bright_rotation(p)[0]
            space = fock.TruncatedSpace(n, 24)
            n_dark = np.array(space.occupations)[:, dark - 1]
            bright = fock.ground_states(p, fock.TruncatedSpace(n, 24, dark))
            # With k the whole dimension, every eigenvalue of every block is listed.
            _, _, sectors = fock._lowest_eigenpairs(rotated, space, space.dimension)
            for sector, ground in zip(sectors, (bright.even, bright.odd)):
                lowest = {}
                for energy, part, _ in sector:
                    (k,) = set(n_dark[part % space.atomic_dimension])
                    lowest[k] = min(lowest.get(k, math.inf), energy)
                assert lowest[1] >= lowest[0] - 1e-12 * max(1.0, abs(lowest[0]))
                assert abs(lowest[0] - ground.energy) <= 1e-10 * max(1.0, abs(ground.energy))


def _recorded_inputs(monkeypatch, module, name):
    """Copies of the first argument of every call of module.name, in call order."""
    original, inputs = getattr(module, name), []

    def recording(a, *args, **kwargs):
        inputs.append(a.copy())
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return inputs


class TestBlocks:
    @pytest.mark.parametrize("case", ("v", "v-rwa", "xi-rwa", "v-mu0", "lambda-rwa"))
    def test_blocks_are_parity_tagged_index_slices(self, monkeypatch, case):
        # Rotated onto its bright level, the V space splits by n_d (and by M
        # under the RWA); each block handed to the dense solver must equal
        # the fancy-index slice bit for bit. At mu = 0 every state is a block
        # of its own, and so is each M = 0 state of Lambda under the RWA
        # (omega2 != omega1, no dark level).
        if case == "xi-rwa":
            p = _frame_params(AtomicConfiguration.XI, True, "default", 3)
            space = fock.TruncatedSpace(3, 20)
        elif case == "lambda-rwa":
            p = _frame_params(AtomicConfiguration.LAMBDA, True, "shifted", 3)
            space = fock.TruncatedSpace(3, 20)
        elif case == "v-mu0":
            p = VParams(mu=0.0, theta=0.7, n_atoms=4).to_model_params()
            space = fock.TruncatedSpace(4, 20)
        else:
            vp = VParams(mu=1.3, theta=0.7, n_atoms=4, rwa=case == "v-rwa")
            p = fock._bright_rotation(vp.to_model_params())[0]
            space = fock.TruncatedSpace(4, 20)
        h = fock.build_hamiltonian(p, space)
        m = fock.m_diagonal(space, p.config)
        dense = _recorded_inputs(monkeypatch, scipy.linalg, "eigh")
        # With k the whole dimension, every connected block appears, once per
        # eigenvalue, and is solved dense (one-state blocks off the diagonal).
        _, _, sectors = fock._lowest_eigenpairs(p, space, space.dimension)
        sectors = [{part[0]: part for _, part, _ in entries}.values() for entries in sectors]
        assert sum(map(len, sectors)) > 2
        members = []
        for parity, blocks in enumerate(sectors):
            for part in blocks:
                assert np.all(np.diff(part) > 0)
                assert np.all(m[part] % 2 == parity)
                if p.rwa:
                    assert np.unique(m[part]).size == 1
                if part.size > 1:
                    reference = h[np.ix_(part, part)].toarray()
                    assert sum(_same_arrays(a, reference) for a in dense) == 1
                members.append(part)
        assert len(dense) == sum(part.size > 1 for part in members)
        assert np.array_equal(np.sort(np.concatenate(members)), np.arange(space.dimension))
        if case == "v-mu0":
            assert len(members) == space.dimension
        if case == "lambda-rwa":
            zero = [part for part in members if m[part[0]] == 0]
            assert len(zero) == space.n_atoms + 1 and all(part.size == 1 for part in zero)

    @pytest.mark.parametrize("rwa", (False, True))
    def test_ground_blocks_are_the_label_blocks(self, monkeypatch, rwa):
        # For k = 1 a block is a whole parity sector without the RWA and a
        # whole M block with it, also where the label block is reducible
        # (the N + 1 uncoupled M = 0 states of Lambda at omega2 != omega1).
        # A block is solved once, as its fancy-index slice, or skipped where
        # its Gershgorin bound lies above its sector's ground: under the RWA
        # only the two blocks that hold the grounds are solved.
        p = _frame_params(AtomicConfiguration.LAMBDA, rwa, "shifted", 3, mu=0.4)
        space = fock.TruncatedSpace(3, 20)
        h = fock.build_hamiltonian(p, space)
        m = fock.m_diagonal(space, p.config)
        dense = _recorded_inputs(monkeypatch, scipy.linalg, "eigh")
        _, _, sectors = fock._lowest_eigenpairs(p, space, 1)
        labels = m if rwa else m % 2
        blocks = [np.flatnonzero(labels == label) for label in np.unique(labels)]
        assert _solved_once_or_screened(h, blocks, m % 2, dense, sectors, 1) == 2
        assert len(blocks) == (24 if rwa else 2)
        for parity, ((_, part, _),) in enumerate(sectors):
            assert np.array_equal(part, np.flatnonzero(labels == labels[part[0]]))
            assert np.all(m[part] % 2 == parity)
            reference = h[np.ix_(part, part)].toarray()
            assert sum(_same_arrays(a, reference) for a in dense) == 1
        if rwa:
            assert blocks[0].size == space.n_atoms + 1 and sectors[0][0][1][0] == 0

    def test_lanczos_blocks_are_the_canonical_slices(self, monkeypatch):
        # Spectra keep the connected components; a block past DENSE_CUTOFF
        # is factored as the lower band of its canonical slice of H, shifted
        # below its spectrum to its Gershgorin bound less tau.
        p = VParams(mu=1.0, n_atoms=2).to_model_params()
        space = fock.TruncatedSpace(2, 200)
        factored, spectrum = [], fock._banded_spectrum

        def recording(band, shift, k):
            factored.append((band.copy(order="K"), shift))
            return spectrum(band, shift, k)

        monkeypatch.setattr(fock, "_banded_spectrum", recording)
        fock.sector_spectrum(p, space, k=6)
        h = fock.build_hamiltonian(p, space)
        labels = connected_components(h, directed=False)[1]
        parts = [np.flatnonzero(labels == label) for label in range(labels.max() + 1)]
        expected = [part for part in parts if part.size > fock.DENSE_CUTOFF]
        assert len(factored) == len(expected) >= 2
        for (band, shift), part in zip(factored, expected):
            block = h[np.ix_(part, part)].toarray()
            width = max(o for o in range(part.size) if np.any(np.diag(block, -o)))
            reference = np.zeros((width + 1, part.size), order="F")
            for offset in range(width + 1):
                reference[offset, : part.size - offset] = np.diag(block, -offset)
            assert band.flags.f_contiguous and _same_arrays(band, reference)
            assert abs(shift - _gershgorin_bound(h, part)) <= 1e-12 * abs(shift)
            assert shift < scipy.linalg.eigvalsh(block, subset_by_index=(0, 0))[0]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.value)
    @pytest.mark.parametrize("rwa", (False, True))
    def test_skipping_blocks_changes_no_bit(self, config, rwa):
        # The screen skips only blocks whose eigenvalues cannot enter a
        # sector's stable-sorted lowest k, so the values, parts and vectors
        # are those of solving every block (all dense at nu_max = 20).
        for n_atoms, mu, k in itertools.product((1, 2, 3, 4), (0.0, 0.3, 1.5), (1, 6)):
            p = _frame_params(config, rwa, "default", n_atoms, mu=mu)
            space = fock.TruncatedSpace(n_atoms, 20)
            _, _, found = fock._lowest_eigenpairs(p, space, k)
            for ours, reference in zip(found, _every_block_solved(p, space, k)):
                assert len(ours) == len(reference) == k
                for (val, part, vec), (ref_val, ref_part, ref_vec) in zip(ours, reference):
                    assert val == ref_val and np.array_equal(part, ref_part)
                    assert _same_arrays(vec, ref_vec)

    def test_one_hamiltonian_per_call_and_a_graph_search_only_for_spectra(self, monkeypatch):
        calls = {"build_hamiltonian": 0, "connected_components": 0}
        for name in calls:
            original = getattr(fock, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fock, name, counted)
        p = VParams(mu=0.3, n_atoms=2).to_model_params()
        result = fock.ground_states(p, fock.TruncatedSpace(2, 30, fock.dark_level(p)))
        assert result.delta < fock.CERTIFICATE_DELTA
        assert calls == {"build_hamiltonian": 1, "connected_components": 0}
        fock.sector_spectrum(p, fock.TruncatedSpace(2, 30))
        assert calls == {"build_hamiltonian": 2, "connected_components": 1}


class TestAssemblyMemory:
    def test_hamiltonian_build_peak(self):
        # One build at V, N = 10, nu_max = 95 returns 0.60 MB of CSR arrays;
        # it peaked at 3.16 MB when every entry block, their concatenation,
        # the sort key and the sorted copies were alive at once.
        p = VParams(mu=1.5, theta=0.8, n_atoms=10).to_model_params()
        space = fock.TruncatedSpace(10, 95)
        fock.build_hamiltonian(p, space)  # fills the A_ij entry cache
        tracemalloc.start()
        try:
            h = fock.build_hamiltonian(p, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.data.nbytes + h.indices.nbytes + h.indptr.nbytes > 0.59e6
        assert peak <= 1.7e6


class TestGroundStates:
    def test_certificate_and_convergence(self):
        vp = VParams(mu=1.0)
        result = fock.converged_ground_states(vp.to_model_params())
        assert result.delta < fock.CERTIFICATE_DELTA
        assert result.delta < 1e-10
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

    def test_variances_match_a_long_double_two_pass_reference(self):
        # Var(M) and Var(a'a) of each sector ground, against sums in long
        # double about the mean; the one-pass <M^2> - <M>^2 was off by
        # 3.8e-13 relative in Var(M) here.
        p = VParams(mu=2.0, theta=0.8, n_atoms=40).to_model_params()
        result = fock.converged_ground_states(p)
        for ground in (result.even, result.odd):
            found = fock.ground_observables(ground, p)
            space, x = ground.state.space, ground.state.data
            weights = x.real.astype(np.longdouble) ** 2 + x.imag.astype(np.longdouble) ** 2
            nus = np.repeat(np.arange(space.nu_max + 1), space.atomic_dimension)
            m = fock.m_diagonal(space, p.config)
            for values, var in ((m, found.m_var), (nus, found.photon_var)):
                values = values.astype(np.longdouble)
                mean = np.sum(weights * values) / np.sum(weights)
                reference = float(np.sum(weights * (values - mean) ** 2) / np.sum(weights))
                assert abs(var - reference) <= 1e-15 * reference

    def test_parity_of_sector_states(self):
        vp = VParams(mu=1.3)
        p = vp.to_model_params()
        space = fock.TruncatedSpace(p.n_atoms, 60)
        result = fock.ground_states(p, space)
        pi = fock.parity_operator(space, p.config)
        for branch, ground in ((ParityBranch.EVEN, result.even), (ParityBranch.ODD, result.odd)):
            val = ground.state.expectation(pi)
            assert abs(val - branch.sign) < 1e-10


class TestLargeBlockPaths:
    def test_banded_ground_is_deterministic_and_matches_dense(self, monkeypatch):
        p = VParams(mu=1.3, n_atoms=4).to_model_params()
        space = fock.TruncatedSpace(4, 60)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
        dense = fock.ground_states(p, space)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        first = fock.ground_states(p, space)
        second = fock.ground_states(p, space)
        for branch in ("even", "odd"):
            a, b, ref = (getattr(r, branch) for r in (first, second, dense))
            assert a.energy == b.energy
            assert np.array_equal(a.state.data, b.state.data)
            assert abs(a.energy - ref.energy) < 1e-12
            assert np.abs(a.state.data - ref.state.data).max() < 1e-12

    def test_lanczos_spectrum_keeps_exchange_odd_states(self, monkeypatch):
        # Equal couplings into degenerate levels: the states odd under the
        # 2 <-> 3 exchange decouple from the field (energies omega2 + nu
        # Omega), are orthogonal to any exchange-symmetric start vector and
        # must still appear in the spectrum.
        p = ModelParams(
            omega=1.0, omega1=0.0, omega2=1.0, omega3=1.0,
            mu12=0.3, mu13=0.3, mu23=0.0, n_atoms=1,
        )
        space = fock.TruncatedSpace(1, 60)
        dense = fock.sector_spectrum(p, space, k=12)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 20)
        for vals, ref in zip(fock.sector_spectrum(p, space, k=12), dense):
            assert np.abs(vals - ref).max() < 1e-10

    def test_large_k_returns_whole_sector(self, monkeypatch):
        # k at or above the size of a block too large for the dense path
        # must not reach Lanczos, which cannot return a whole spectrum.
        p = VParams(mu=1.0, n_atoms=1).to_model_params()
        space = fock.TruncatedSpace(1, 200)
        sizes = [idx.size for idx in fock.parity_sectors(space, p.config)]
        assert min(sizes) > fock.DENSE_CUTOFF
        found = fock.sector_spectrum(p, space, k=400)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
        for vals, size, ref in zip(found, sizes, fock.sector_spectrum(p, space, k=400)):
            assert vals.size == size
            assert np.all(np.diff(vals) >= 0)
            assert np.abs(vals - ref).max() < 1e-10

    def test_default_path_is_deterministic_and_matches_dense(self, monkeypatch):
        p = VParams(mu=1.5, theta=0.8, n_atoms=8).to_model_params()
        _assert_deterministic_and_matches_dense(monkeypatch, p)

    def test_full_oracle_path_is_deterministic_and_matches_dense(self, monkeypatch):
        # Off double resonance the full space is solved, its sectors banded.
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=8).to_model_params(), omega2=0.9)
        assert fock.dark_level(p) is None
        _assert_deterministic_and_matches_dense(monkeypatch, p)

    @pytest.mark.parametrize("mu", (0.0, 1.3))
    def test_reducible_ground_sector_banded_matches_dense(self, monkeypatch, mu):
        # V at double resonance on the full space: each sector splits by the
        # dark number (and at mu = 0 into single states, with a degenerate
        # odd ground), and the banded solve runs on the whole reducible sector.
        p = VParams(mu=mu, theta=0.7, n_atoms=4).to_model_params()
        space = fock.TruncatedSpace(4, 40)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
        dense = fock.ground_states(p, space)
        spectra = fock.sector_spectrum(p, space, k=2)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        bands = _recorded_inputs(monkeypatch, fock, "_banded_ground")
        banded = fock.ground_states(p, space)
        assert len(bands) == 2
        for branch, values in zip(("even", "odd"), spectra):
            ours, ref = getattr(banded, branch), getattr(dense, branch)
            assert abs(ours.energy - ref.energy) < 1e-12
            if values[1] - values[0] > 1e-8:
                assert np.abs(ours.state.data - ref.state.data).max() < 1e-12
        assert abs(banded.delta - dense.delta) < 1e-12

    def test_certificate_fails_without_the_lowest_state(self, monkeypatch):
        # Every solve returns the block's second eigenvector, as if its
        # lowest state were dropped from the solve but kept in H: the
        # residual passes tau at once, so the factorization at E - tau, the
        # certificate, runs and must fail, every time, until the solver
        # gives up.
        p = VParams(mu=1.3, n_atoms=4).to_model_params()
        space = fock.TruncatedSpace(4, 60)
        banded, cholesky = fock._banded_ground, scipy.linalg.cholesky_banded
        seen, failed = {}, []

        def without_lowest(band, shift, tau):
            n = band.shape[1]
            full = np.diag(band[0])
            for offset in range(1, band.shape[0]):
                full += np.diag(band[offset, : n - offset], -offset)
                full += np.diag(band[offset, : n - offset], offset)
            seen["values"], vectors = scipy.linalg.eigh(full, subset_by_index=(0, 1))
            seen["diagonal"] = band[0].copy()
            second = vectors[:, 1]
            monkeypatch.setattr(
                scipy.linalg, "cho_solve_banded", lambda factor, b, **kwargs: second.copy()
            )
            return banded(band, shift, tau)

        def recorded(shifted, **kwargs):
            shift = seen["diagonal"][0] - shifted[0, 0] if seen else None
            try:
                return cholesky(shifted, **kwargs)
            except np.linalg.LinAlgError:
                failed.append(shift)
                raise

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", recorded)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        assert fock.ground_states(p, space).delta < fock.CERTIFICATE_DELTA
        assert failed == []
        monkeypatch.setattr(fock, "_banded_ground", without_lowest)
        with pytest.raises(NonConvergence, match="no certified ground"):
            fock.ground_states(p, space)
        lowest, second = seen["values"]
        assert second - lowest > 0.1
        assert abs(failed[0] - second) < 1e-9 and all(shift > lowest for shift in failed)

    def test_banded_ground_takes_the_screens_bound_and_floor(self, monkeypatch):
        # Both sectors are banded. Each solve starts at its block's Gershgorin
        # bound less tau and certifies against tau, the solver floor of H's
        # largest row sum (1.2% above the even block's own), as the screen
        # and the shift-invert spectra do.
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=8).to_model_params(), omega2=0.9)
        space = fock.TruncatedSpace(8, 60)
        h = fock.build_hamiltonian(p, space)
        largest = abs(h).sum(axis=1).max()
        solve, inputs = fock._banded_ground, []

        def recording(band, shift, tau):
            inputs.append((shift, tau))
            return solve(band, shift, tau)

        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        monkeypatch.setattr(fock, "_banded_ground", recording)
        fock.ground_states(p, space)
        parts = fock.parity_sectors(space, p.config)
        assert len(inputs) == len(parts) == 2
        for (shift, tau), part in zip(inputs, parts):
            floor = fock._solver_floor(part.size, largest)
            assert abs(tau - floor) <= 1e-12 * floor
            assert abs(shift - _gershgorin_bound(h, part)) <= 1e-12 * abs(shift)

    @pytest.mark.parametrize("case", ("banded", "past-the-limit", "past-half-nu-max"))
    def test_ground_block_past_the_band_limit_goes_to_lanczos(self, monkeypatch, case):
        # Full space off double resonance: each sector is one block whose
        # bandwidth grows with N (29 at N = 8). It is banded up to
        # BANDED_WIDTH and nu_max / 2, and solved by Lanczos past either.
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=8).to_model_params(), omega2=0.9)
        space = fock.TruncatedSpace(8, 40 if case == "past-half-nu-max" else 60)
        h = fock.build_hamiltonian(p, space)
        widths = []
        for part in fock.parity_sectors(space, p.config):
            block = h[np.ix_(part, part)].tocoo()
            widths.append(int(np.max(block.row - block.col)))
        assert 2 * max(widths) <= 60 and 2 * min(widths) > 40
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
        dense = fock.ground_states(p, space)
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        limit = min(widths) - 1 if case == "past-the-limit" else max(widths)
        monkeypatch.setattr(fock, "BANDED_WIDTH", limit)
        bands = _recorded_inputs(monkeypatch, fock, "_banded_ground")
        lanczos = _recorded_inputs(monkeypatch, fock, "eigsh")
        found = fock.ground_states(p, space)
        assert (len(bands), len(lanczos)) == ((2, 0) if case == "banded" else (0, 2))
        for branch in ("even", "odd"):
            ours, ref = getattr(found, branch), getattr(dense, branch)
            assert abs(ours.energy - ref.energy) < 1e-12
            assert np.abs(ours.state.data - ref.state.data).max() < 1e-12

    @pytest.mark.parametrize("case", ("lanczos-ground", "lanczos-spectrum", "dense"))
    def test_a_solver_that_gives_up_raises_nonconvergence(self, monkeypatch, case):
        # The blocks of the test above, sent to Lanczos (a ground past the
        # band limit, or k = 2 past DENSE_CUTOFF) or to dense eigh, whose
        # failure must leave the oracle as the package's own error type.
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=8).to_model_params(), omega2=0.9)
        space = fock.TruncatedSpace(8, 60)
        if case == "dense":
            monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
            monkeypatch.setattr(scipy.linalg, "eigh", arpack_gives_up_or_lapack_fails)
        else:
            monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
            monkeypatch.setattr(fock, "BANDED_WIDTH", 0)
            monkeypatch.setattr(fock, "eigsh", arpack_gives_up_or_lapack_fails)
        reason = "LAPACK gave up" if case == "dense" else "ARPACK error -1: No convergence"
        with pytest.raises(NonConvergence, match=rf"^no eigenpairs of a \d+-state block: {reason}"):
            if case == "lanczos-spectrum":
                fock.sector_spectrum(p, space, k=2)
            else:
                fock.ground_states(p, space)


def _assert_deterministic_and_matches_dense(monkeypatch, p):
    first = fock.converged_ground_states(p)
    second = fock.converged_ground_states(p)
    monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
    dense = fock.converged_ground_states(p)
    assert first.nu_max == second.nu_max == dense.nu_max
    assert first.delta == second.delta
    for branch in ("even", "odd"):
        a, b, ref = (getattr(r, branch) for r in (first, second, dense))
        assert a.energy == b.energy
        assert np.array_equal(a.state.data, b.state.data)
        assert abs(a.energy - ref.energy) < 1e-12
        assert np.abs(a.state.data - ref.state.data).max() < 1e-12


class TestCoupledComponents:
    def test_conserving_vacuum_found_at_large_n(self):
        # Under the RWA the vacuum is a component of its own; a Lanczos run
        # over the whole even block converges to the next M block instead.
        p = VParams(mu=0.3, n_atoms=20, rwa=True).to_model_params()
        result = fock.converged_ground_states(p)
        assert abs(result.even.energy) < 1e-12
        assert result.global_ground.sector is ParityBranch.EVEN

    def test_conserving_vacuum_found_at_large_n_on_full_space(self):
        # Off double resonance the full space is solved; its M blocks pass
        # DENSE_CUTOFF, so the vacuum competes with Lanczos components.
        p = replace(VParams(mu=0.3, n_atoms=20, rwa=True).to_model_params(), omega2=0.9)
        assert fock.dark_level(p) is None
        result = fock.converged_ground_states(p)
        assert abs(result.even.energy) < 1e-12
        assert result.global_ground.sector is ParityBranch.EVEN

    def test_conserving_sectors_match_dense(self, monkeypatch):
        space = fock.TruncatedSpace(4, 80)
        cases = [VParams(mu=mu, n_atoms=4, rwa=True).to_model_params() for mu in (0.3, 1.3)]
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 10**6)
        dense = [fock.ground_states(p, space) for p in cases]
        monkeypatch.setattr(fock, "DENSE_CUTOFF", 50)
        for p, ref in zip(cases, dense):
            split = fock.ground_states(p, space)
            for branch in ("even", "odd"):
                assert abs(getattr(split, branch).energy - getattr(ref, branch).energy) < 1e-12


def _counting_attempts(monkeypatch):
    """Wrap fock.ground_states; returns the list of cutoffs it is called at."""
    cutoffs = []
    solve = fock.ground_states

    def counted(params, space, *args, **kwargs):
        cutoffs.append(space.nu_max)
        return solve(params, space, *args, **kwargs)

    monkeypatch.setattr(fock, "ground_states", counted)
    return cutoffs


def _assert_matches_double_cutoff(params, result):
    space = fock.TruncatedSpace(params.n_atoms, 2 * result.nu_max)
    ref = fock.ground_states(params, space)
    for branch in ("even", "odd"):
        assert abs(getattr(result, branch).energy - getattr(ref, branch).energy) < 1e-10


class TestCutoffSchedule:
    @pytest.mark.parametrize("config", list(AtomicConfiguration))
    @pytest.mark.parametrize("rwa", (False, True))
    def test_coherent_estimate_certifies_first(self, monkeypatch, config, rwa):
        # A fast part of the 162-case grid: omega2 = 1.1, omega3 = 1.4,
        # theta = 0.7, both regimes, shifted and unshifted ground level.
        cutoffs = _counting_attempts(monkeypatch)
        for n, mu, omega1 in ((2, 0.3, 0.0), (7, 1.6, 0.2), (4, 1.0, 0.0)):
            p = ModelParams(
                omega=1.0, omega1=omega1, omega2=1.1, omega3=1.4,
                **couplings_from_magnitude(config, mu, 0.7),
                n_atoms=n, config=config, rwa=rwa,
            )
            cutoffs.clear()
            result = fock.converged_ground_states(p)
            assert len(cutoffs) == 1
            assert result.delta < fock.CERTIFICATE_DELTA
            _assert_matches_double_cutoff(p, result)

    def test_doubles_from_a_low_estimate(self, monkeypatch):
        p = VParams(mu=1.5, theta=0.8, n_atoms=4).to_model_params()
        _assert_doubles_from_a_low_estimate(monkeypatch, p)

    def test_doubles_from_a_low_estimate_on_full_space(self, monkeypatch):
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=4).to_model_params(), omega2=0.9)
        assert fock.dark_level(p) is None
        _assert_doubles_from_a_low_estimate(monkeypatch, p)

    def test_gives_up_at_the_basis_limit(self, monkeypatch, capsys):
        # No certificate holds (the tolerance and the solver floor are both
        # zero), so the schedule doubles 39 -> 78 and stops before the
        # 3 x 157-state basis of 156 passes MAX_DIMENSION, carrying the
        # delta of the last attempt.
        monkeypatch.setattr(fock, "CERTIFICATE_DELTA", 0.0)
        monkeypatch.setattr(fock, "MAX_DIMENSION", 300)
        deltas = {}
        solve = fock.ground_states

        def recorded(params, space, *args, **kwargs):
            result = replace(solve(params, space, *args, **kwargs), floor=0.0)
            deltas[space.nu_max] = result.delta
            return result

        monkeypatch.setattr(fock, "ground_states", recorded)
        message = (
            "no converged cutoff below the basis limit at nu_max=156: "
            "basis dimension 471 exceeds the limit 300"
        )
        with pytest.raises(CutoffNotConverged, match=f"^{message}$") as info:
            fock.converged_ground_states(VParams(mu=1.0).to_model_params())
        assert list(deltas) == [39, 78]
        assert info.value.delta is not None and info.value.delta == deltas[78]
        assert cli.main(["sweep", "--mu", "1", "--branch", "exact"]) == 3
        assert capsys.readouterr().err == f"numerical failure at mu=1: {message}\n"

    def test_first_cutoff_past_the_basis_limit_solves_nothing(self, monkeypatch, capsys):
        # At mu = 600 the coherent estimate asks for nu_max = 366021, whose
        # bright block of one atom holds 2 x 366022 states.
        cutoffs = _counting_attempts(monkeypatch)
        message = (
            "no converged cutoff below the basis limit at nu_max=366021: "
            "basis dimension 732044 exceeds the limit 500000"
        )
        with pytest.raises(CutoffNotConverged, match=f"^{message}$") as info:
            fock.converged_ground_states(VParams(mu=600.0, n_atoms=1).to_model_params())
        assert info.value.delta is None
        assert cli.main(["sweep", "--branch", "exact", "--n-atoms", "1", "--mu", "600"]) == 3
        assert capsys.readouterr().err == f"numerical failure at mu=600: {message}\n"
        assert cutoffs == []

    def test_seed_cutoff_far_inside_the_basis_limit_certifies(self, monkeypatch, capsys):
        # At mu = 70 the seed nu_max = 5621 gives a 2 x 5622-state bright
        # block, far inside MAX_DIMENSION, and certifies at once.
        p = VParams(mu=70.0, n_atoms=1).to_model_params()
        cutoffs = _counting_attempts(monkeypatch)
        result = fock.converged_ground_states(p)
        assert cutoffs == [5621] and result.nu_max == 5621
        assert result.delta < fock.CERTIFICATE_DELTA
        assert cli.main(["sweep", "--branch", "exact", "--n-atoms", "1", "--mu", "70"]) == 0
        assert capsys.readouterr().err == ""

    def test_rounding_at_the_basis_edge_certifies_below_the_solver_floor(self, monkeypatch):
        # At mu = 490 the seed nu_max = 245021 gives a 2 x 245022-state
        # bright block, and |E| = 2.4e5 puts delta (1.2e-10, a few ulp of E)
        # above CERTIFICATE_DELTA; doubling would pass MAX_DIMENSION. The
        # solver floor of the ground blocks (8e-8) certifies it at once.
        cutoffs = _counting_attempts(monkeypatch)
        result = fock.converged_ground_states(VParams(mu=490.0, n_atoms=1).to_model_params())
        assert cutoffs == [245021] and result.nu_max == 245021
        assert fock.CERTIFICATE_DELTA <= result.delta < result.floor

    def test_exact_energy_at_mu_70_is_at_or_below_coherent(self):
        p = VParams(mu=70.0, n_atoms=1).to_model_params()
        exact = fock.converged_ground_states(p).global_ground.energy
        assert exact <= surface.minimize_surface(p).energy

    def test_nonconverged_minimizer_still_gives_a_row(self, monkeypatch, capsys):
        _assert_nonconverged_minimizer_gives_a_row(monkeypatch, capsys, 1.0)

    def test_nonconverged_minimizer_still_gives_a_row_on_full_space(self, monkeypatch, capsys):
        _assert_nonconverged_minimizer_gives_a_row(monkeypatch, capsys, 0.9)


def _assert_doubles_from_a_low_estimate(monkeypatch, p):
    reference = fock.converged_ground_states(p)
    monkeypatch.setattr(fock, "suggested_nu_max", lambda alpha: 12)
    cutoffs = _counting_attempts(monkeypatch)
    result = fock.converged_ground_states(p)
    assert len(cutoffs) > 1
    assert cutoffs == [12 * 2**i for i in range(len(cutoffs))]
    assert result.nu_max == cutoffs[-1]
    assert result.delta < fock.CERTIFICATE_DELTA
    _assert_matches_double_cutoff(p, result)
    for branch in ("even", "odd"):
        assert abs(getattr(result, branch).energy - getattr(reference, branch).energy) < 1e-10


def _assert_nonconverged_minimizer_gives_a_row(monkeypatch, capsys, omega2):
    argv = ["sweep", "--mu", "1.5", "--n-atoms", "4", "--branch", "exact"]
    argv += ["--omega2", str(omega2)]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    p = replace(VParams(mu=1.5, n_atoms=4).to_model_params(), omega2=omega2)
    best = surface.minimize_surface(p)

    def fails(params):
        raise NonConvergence("no gradient polish converged", best=best)

    monkeypatch.setattr(surface, "minimize_surface", fails)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


class TestCertificate:
    @pytest.mark.parametrize(
        "vp, dense_cutoff",
        [
            # One Lanczos component per sector.
            (VParams(mu=1.5, theta=0.8, n_atoms=8), fock.DENSE_CUTOFF),
            # Under the RWA the ground is the vacuum, a block of its own, and
            # only that block enters the certificate.
            (VParams(mu=0.3, n_atoms=20, rwa=True), 50),
        ],
    )
    def test_both_deltas_certify_and_agree_at_the_converged_cutoff(
        self, monkeypatch, vp, dense_cutoff
    ):
        _assert_both_deltas_certify_and_agree(monkeypatch, vp.to_model_params(), dense_cutoff)

    @pytest.mark.parametrize(
        "vp, dense_cutoff",
        [
            (VParams(mu=1.5, theta=0.8, n_atoms=8), fock.DENSE_CUTOFF),
            (VParams(mu=0.3, n_atoms=20, rwa=True), 50),
        ],
    )
    def test_both_deltas_certify_and_agree_at_the_converged_cutoff_on_full_space(
        self, monkeypatch, vp, dense_cutoff
    ):
        # The same cases at omega2 = 0.9, where the full space is solved.
        p = replace(vp.to_model_params(), omega2=0.9)
        assert fock.dark_level(p) is None
        _assert_both_deltas_certify_and_agree(monkeypatch, p, dense_cutoff)

    @pytest.mark.parametrize(
        "config, mu, n_atoms",
        [(AtomicConfiguration.LAMBDA, 0.4, 6), (AtomicConfiguration.XI, 0.35, 10)],
        ids=("lambda", "xi"),
    )
    def test_certificate_solves_only_the_ground_block(self, monkeypatch, config, mu, n_atoms):
        # Under the RWA each sector splits into one block per M, more than
        # 30 at these normal-regime points. Only the two blocks that hold
        # the sector grounds are solved, each once (Xi's vacuum is a
        # one-state block, read off the diagonal); every other lies above
        # its sector's ground by its Gershgorin bound and is skipped. The
        # certificate is a product with the ground block: nothing more runs.
        p = _frame_params(config, True, "default", n_atoms, mu=mu, theta=0.8)
        assert fock.dark_level(p) is None
        dense = _recorded_inputs(monkeypatch, scipy.linalg, "eigh")
        others = _recorded_inputs(monkeypatch, fock, "eigsh")
        others += _recorded_inputs(monkeypatch, fock, "_banded_ground")
        searches = _recorded_inputs(monkeypatch, fock, "connected_components")
        solve, calls = fock._lowest_eigenpairs, []

        def recording(params, space, k):
            before = len(dense)
            h, largest, sectors = solve(params, space, k)
            m = fock.m_diagonal(space, params.config)
            blocks = [np.flatnonzero(m == label) for label in np.unique(m)]
            solved = _solved_once_or_screened(h, blocks, m % 2, dense[before:], sectors, k)
            one_state = sum(sector[0][1].size == 1 for sector in sectors)
            calls.append((solved + one_state, len(blocks), k))
            return h, largest, sectors

        monkeypatch.setattr(fock, "_lowest_eigenpairs", recording)
        cutoffs = _counting_attempts(monkeypatch)
        result = fock.converged_ground_states(p)
        assert result.delta < fock.CERTIFICATE_DELTA
        assert len(calls) == len(cutoffs) and sum(n for n, _, _ in calls) >= len(dense)
        assert all(n == 2 and blocks > 30 and k == 1 for n, blocks, k in calls)
        assert others == [] and searches == []
        _assert_both_deltas_certify_and_agree(monkeypatch, p, fock.DENSE_CUTOFF)

    def test_ground_block_without_leading_states_is_not_certified(self):
        # A nearly free field under the RWA puts each sector's ground in a
        # block of fixed M whose states all have nu > nu_max - 10.
        config = AtomicConfiguration.XI
        p = ModelParams(
            omega=0.01, omega1=0.0, omega2=0.01, omega3=0.02, n_atoms=2, config=config,
            rwa=True, **couplings_from_magnitude(config, 3.0, 0.8),
        )
        assert fock.ground_states(p, fock.TruncatedSpace(2, 11)).delta == math.inf

    def test_cutoff_below_ten_has_no_leading_states(self):
        p = VParams(mu=1.0).to_model_params()
        result = fock.ground_states(p, fock.TruncatedSpace(2, 5))
        assert result.delta == math.inf

    @pytest.mark.parametrize("omega2", (1.0, 0.9))
    def test_delta_bounds_the_dense_leading_sector_from_above(self, omega2):
        # Below the converged cutoff the cut ground vector's Rayleigh quotient
        # lies above the lowest eigenvalue of the nu <= nu_max - 10 sector
        # (at omega2 = 1 on the bright block, at 0.9 on the full space).
        p = replace(VParams(mu=1.5, theta=0.8, n_atoms=4).to_model_params(), omega2=omega2)
        for nu_max in range(12, 31, 2):
            result = fock.ground_states(p, fock.TruncatedSpace(4, nu_max, fock.dark_level(p)))
            assert result.delta >= _dense_leading_delta(p, result) >= fock.CERTIFICATE_DELTA

    def test_failing_cutoff_is_measured_not_raised(self):
        # nu_max = 12 is far too low at mu = 1.5: the delta says so, and
        # only the cutoff schedule turns that into a doubling.
        p = VParams(mu=1.5, theta=0.8, n_atoms=4).to_model_params()
        result = fock.ground_states(p, fock.TruncatedSpace(4, 12, fock.dark_level(p)))
        assert math.isfinite(result.delta) and result.delta >= fock.CERTIFICATE_DELTA


def _assert_both_deltas_certify_and_agree(monkeypatch, p, dense_cutoff):
    """At the converged cutoff, where delta certifies, it agrees with the dense one within 1e-12.

    Both sit at rounding level there, so delta >= dense delta need not hold;
    `test_delta_bounds_the_dense_leading_sector_from_above` checks that bound
    below convergence.
    """
    monkeypatch.setattr(fock, "DENSE_CUTOFF", dense_cutoff)
    first = fock.converged_ground_states(p)
    second = fock.converged_ground_states(p)
    assert (first.nu_max, first.delta) == (second.nu_max, second.delta)
    assert abs(first.delta - _dense_leading_delta(p, first)) < 1e-12


def _dense_leading_delta(p, result):
    """Larger |E - lowest eigenvalue| of the sectors cut to nu <= nu_max - 10, dense."""
    space = result.even.state.space
    leading = (space.nu_max - 9) * space.atomic_dimension
    solved = p if space.dark_level is None else fock._bright_rotation(p)[0]
    h = fock.build_hamiltonian(solved, space)
    deltas = []
    for indices, ground in zip(fock.parity_sectors(space, p.config), (result.even, result.odd)):
        lead = indices[indices < leading]
        dense = h[np.ix_(lead, lead)].toarray()
        deltas.append(abs(ground.energy - scipy.linalg.eigvalsh(dense, subset_by_index=(0, 0))[0]))
    return max(deltas)


class TestSacsVectorOracle:
    def test_tail_guard_rejects_small_cutoff(self):
        rng = np.random.default_rng(331)
        sp = random_sacs_point(rng, AtomicConfiguration.V, 2, ParityBranch.EVEN, scale=3.0)
        space = fock.TruncatedSpace(2, 4)
        with pytest.raises(TailTooLarge):
            fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)

    @pytest.mark.parametrize("branch", BRANCHES)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_sacs_vector_is_a_parity_eigenvector(self, config, branch):
        # exp(i pi M) maps the SACS of a branch to its sign times itself,
        # entry by entry: each basis state carries its own parity.
        rng = np.random.default_rng(347)
        for n in range(1, 5):
            for _ in range(3):
                sp = random_sacs_point(rng, config, n, branch)
                space = fock.TruncatedSpace(n, fock.suggested_nu_max(sp.point.alpha))
                vec = fock.build_sacs_vector(sp.point, branch, config, space)
                image = fock.parity_operator(space, config) @ vec.data
                assert np.array_equal(image, branch.sign * vec.data)

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
