"""Cross-validation suite: every closed form against an independent evaluation.

The registry drives `tricavity validate` and the heavyweight tests. Hard
checks gate the exit code. Informational checks document places where a
tabulated closed form or reference value disagrees with the direct
computation; they report both numbers and never fail the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import fock, sacs, surface, vconfig
from .model import AtomicConfiguration, CoherentPoint, ModelParams, ParityBranch

CONFIGS = (
    AtomicConfiguration.XI,
    AtomicConfiguration.LAMBDA,
    AtomicConfiguration.V,
)
BRANCHES = (ParityBranch.EVEN, ParityBranch.ODD)


@dataclass(frozen=True)
class CheckLevel:
    """Effort knobs for one validate run."""

    points: int
    n_atoms: tuple[int, ...]
    exact_couplings: tuple[float, ...]


LEVELS = {
    "fast": CheckLevel(points=50, n_atoms=(1, 2), exact_couplings=(0.8,)),
    "full": CheckLevel(points=500, n_atoms=(1, 2, 4, 6), exact_couplings=(0.8, 1.3)),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    detail: str
    info: bool = False

    @property
    def status(self) -> str:
        if self.info:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


def _rel_dev(a, b) -> float:
    """|a - b| over max(1, |a|, |b|): relative with an absolute floor."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def random_point(rng: np.random.Generator, scale: float = 1.2) -> CoherentPoint:
    """Coherent point with every |Re|, |Im| of alpha, gamma2, gamma3 below scale."""
    re_im = rng.uniform(-1.0, 1.0, size=6)
    return CoherentPoint(
        alpha=scale * complex(re_im[0], re_im[1]),
        gamma2=scale * complex(re_im[2], re_im[3]),
        gamma3=scale * complex(re_im[4], re_im[5]),
    )


def random_params(
    rng: np.random.Generator,
    config: AtomicConfiguration,
    n_atoms: int,
    rwa: bool = False,
) -> ModelParams:
    """Well-formed parameters with generic frequencies and couplings."""
    w2, w3 = np.sort(rng.uniform(0.5, 1.5, size=2))
    omega1 = rng.uniform(0.0, 0.4)
    couplings = {"mu12": 0.0, "mu13": 0.0, "mu23": 0.0}
    for i, j in config.allowed_pairs:
        couplings[f"mu{i}{j}"] = rng.uniform(0.2, 1.2)
    return ModelParams(
        omega=rng.uniform(0.7, 1.3),
        omega1=omega1,
        omega2=omega1 + w2,
        omega3=omega1 + w3,
        n_atoms=n_atoms,
        config=config,
        rwa=rwa,
        **couplings,
    )


def _sacs_case(rng: np.random.Generator, level: CheckLevel):
    """One random (params, point, branch) with a non-degenerate kernel."""
    while True:
        config = CONFIGS[rng.integers(len(CONFIGS))]
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        branch = BRANCHES[rng.integers(2)]
        params = random_params(rng, config, n_atoms, rwa=bool(rng.integers(2)))
        point = random_point(rng)
        sp = sacs.SacsPoint(point=point, branch=branch, config=config, n_atoms=n_atoms)
        if abs(sp.kernel) > 1e-8:
            return params, sp


def check_polar_complex_agreement(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Polar-coordinate surfaces equal the complex-amplitude ones."""
    worst = 0.0
    for _ in range(level.points):
        config = CONFIGS[rng.integers(len(CONFIGS))]
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        for rwa in (False, True):
            params = random_params(rng, config, n_atoms, rwa=rwa)
            point = random_point(rng)
            rho, phi, rho2, phi2, rho3, phi3 = point.polar()
            via_polar = surface.energy_polar(params, rho, phi, rho2, phi2, rho3, phi3)
            worst = max(worst, _rel_dev(surface.energy(params, point), via_polar))
    return CheckResult(
        "polar-complex-agreement",
        worst <= 1e-10,
        worst,
        f"energy via complex vs polar coordinates, {level.points} points",
    )


def check_rwa_reduction(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Zero-phase RWA surface at couplings mu equals the full one at mu/2."""
    worst = 0.0
    for _ in range(level.points):
        config = CONFIGS[rng.integers(len(CONFIGS))]
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        params = random_params(rng, config, n_atoms, rwa=True)
        halved = replace(
            params,
            mu12=params.mu12 / 2.0,
            mu13=params.mu13 / 2.0,
            mu23=params.mu23 / 2.0,
            rwa=False,
        )
        radii = rng.uniform(0.0, 1.5, size=3)
        worst = max(
            worst,
            _rel_dev(
                surface.reduced_radial_energy(params, *radii),
                surface.reduced_radial_energy(halved, *radii),
            ),
        )
    return CheckResult(
        "rwa-halved-coupling-map",
        worst <= 1e-12,
        worst,
        "radial RWA surface vs full surface at half couplings",
    )


def check_coherent_casimir(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Sum of populations and the quadratic invariant on product states."""
    worst = 0.0
    for _ in range(level.points):
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        point = random_point(rng)
        total = sum(surface.coherent_one_body(point, n_atoms, i, i) for i in (1, 2, 3))
        worst = max(worst, _rel_dev(total, n_atoms))
        quad = sum(
            surface.coherent_two_body(point, n_atoms, k, j, j, k)
            for k in (1, 2, 3)
            for j in (1, 2, 3)
        )
        worst = max(worst, _rel_dev(quad, n_atoms**2 + 2 * n_atoms))
    return CheckResult(
        "coherent-casimir",
        worst <= 1e-10,
        worst,
        "sum A_kk = N and sum A_kj A_jk = N^2 + 2N on product states",
    )


def check_sacs_casimir(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Same two invariants on the parity-adapted states."""
    worst = 0.0
    pairs = [(k, j, j, k) for k in (1, 2, 3) for j in (1, 2, 3)]
    for _ in range(level.points):
        _, sp = _sacs_case(rng, level)
        one = sacs.expect_one_body(sp)
        worst = max(worst, _rel_dev(one.a11 + one.a22 + one.a33, sp.n_atoms))
        quad = sum(sacs.expect_a_product(sp, *p) for p in pairs)
        worst = max(worst, _rel_dev(quad, sp.n_atoms**2 + 2 * sp.n_atoms))
    return CheckResult(
        "sacs-casimir",
        worst <= 1e-10,
        worst,
        "sum A_kk = N and sum A_kj A_jk = N^2 + 2N on parity-adapted states",
    )


@lru_cache(maxsize=8)
def _atomic_tables(n_atoms: int) -> MappingProxyType:
    """Dense d x d matrices of all nine A_ij, the oracle's on the photon vacuum:
    built once per N and shared by every caller, so the mapping and arrays are read-only."""
    space = fock.TruncatedSpace(n_atoms, 0)
    tables = {(i, j): fock.transition(space, i, j).toarray() for i in (1, 2, 3) for j in (1, 2, 3)}
    for table in tables.values():
        table.flags.writeable = False
    return MappingProxyType(tables)


def _direct_expectations(
    vec: fock.StateVector, tables: MappingProxyType, config: AtomicConfiguration, prods
) -> dict:
    """Direct side of the oracle check, contracted on the amplitude matrix of vec.

    Psi[nu, k] = vec.data[nu d + k] is the amplitude of |nu> x occupation k.
    An A_ij acts on the columns of Psi through its table (`_atomic_tables`),
    a and a' on the rows as shifts by one weighted sqrt(nu), n and M as the
    weights nu and m_diagonal. Each value is <Psi|O Psi> / <Psi|Psi>, as in
    `StateVector.expectation`; `prods` lists the (i, j, k, l) of the
    <A_ij A_kl> to evaluate.
    """
    space = vec.space
    psi = vec.data.reshape(space.nu_max + 1, space.atomic_dimension)
    norm_sq = vec.norm_squared()

    def expect(image) -> complex:
        return complex(np.vdot(psi, image)) / norm_sq

    def atomic(i, j, image=psi):
        return image @ tables[i, j].T

    nus = np.arange(space.nu_max + 1.0)[:, None]
    roots = np.sqrt(nus[1:])
    lowered = np.zeros_like(psi)  # a Psi
    lowered[:-1] = roots * psi[1:]
    quadrature = lowered.copy()  # (a + a') Psi
    quadrature[1:] += roots * psi[:-1]
    m = fock.m_diagonal(space, config).reshape(psi.shape)
    levels = (1, 2, 3)
    pairs = config.allowed_pairs
    return {
        "populations": [expect(atomic(i, i)) for i in levels],
        "photons": expect(nus * psi),
        "photons_squared": expect(nus * (nus * psi)),
        "population_squares": [expect(atomic(i, i, atomic(i, i))) for i in levels],
        "photon_populations": [expect(nus * atomic(i, i)) for i in levels],
        "transitions": {(i, j): expect(atomic(i, j)) for i, j in pairs},
        "products": [expect(atomic(i, j, atomic(k, l))) for i, j, k, l in prods],
        "a_ij_a": {(i, j): expect(atomic(i, j, lowered)) for i, j in pairs},
        "dipoles": {
            (i, j): expect(atomic(i, j, quadrature) + atomic(j, i, quadrature)) for i, j in pairs
        },
        "m": expect(m * psi),
        "m_squared": expect(m * (m * psi)),
    }


def check_oracle_equivalence(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Every closed-form expectation against the truncated-space vector.

    Every direct value but <H> comes from `_direct_expectations`; <H> goes
    through the oracle's own `build_hamiltonian`.
    """
    worst = 0.0
    for _ in range(level.points):
        params, sp = _sacs_case(rng, level)
        point = sp.point
        n_atoms = sp.n_atoms
        space = fock.TruncatedSpace(n_atoms, fock.suggested_nu_max(point.alpha))
        vec = fock.build_sacs_vector(point, sp.branch, sp.config, space)
        pairs = sp.config.allowed_pairs
        prods = []
        for _ in range(3):
            (i, j) = pairs[rng.integers(len(pairs))]
            (k, l) = pairs[rng.integers(len(pairs))]
            prods.append((i, j, k, l))
        direct = _direct_expectations(vec, _atomic_tables(n_atoms), sp.config, prods)

        worst = max(worst, _rel_dev(vec.norm_squared(), sp.norm_squared()))

        one = sacs.expect_one_body(sp)
        for closed, value in zip((one.a11, one.a22, one.a33), direct["populations"]):
            worst = max(worst, _rel_dev(closed, value.real))
        worst = max(worst, _rel_dev(one.n_photons, direct["photons"].real))

        _, n_sq = sacs.expect_photon_moments(sp)
        worst = max(worst, _rel_dev(n_sq, direct["photons_squared"].real))
        for i in (1, 2, 3):
            closed = sacs.expect_a_product(sp, i, i, i, i).real
            worst = max(worst, _rel_dev(closed, direct["population_squares"][i - 1].real))
            cross = sacs.expect_photon_population_product(sp, i)
            worst = max(worst, _rel_dev(cross, direct["photon_populations"][i - 1].real))

        for i, j in pairs:
            closed = sacs.expect_a(sp, i, j)
            worst = max(worst, _rel_dev(closed, direct["transitions"][i, j]))
        for (i, j, k, l), value in zip(prods, direct["products"]):
            closed = sacs.expect_a_product(sp, i, j, k, l)
            worst = max(worst, _rel_dev(closed, value))

        inter = sacs.expect_interaction(sp)
        for (i, j), pair in inter.items():
            worst = max(worst, _rel_dev(pair.a_ij_a, direct["a_ij_a"][i, j]))
            worst = max(worst, _rel_dev(pair.dipole, direct["dipoles"][i, j].real))

        mom = sacs.expect_m_moments(sp)
        worst = max(worst, _rel_dev(mom.mean, direct["m"].real))
        worst = max(worst, _rel_dev(mom.second_moment, direct["m_squared"].real))

        h = fock.build_hamiltonian(params, space)
        worst = max(
            worst, _rel_dev(sacs.sacs_energy(params, sp), vec.expectation(h).real)
        )
    return CheckResult(
        "closed-form-oracle-equivalence",
        worst <= 1e-10,
        worst,
        f"all expectation closed forms vs truncated-space vector, {level.points} points",
    )


def check_parity_decomposition(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Product energy = kernel-weighted mix of the two projected energies."""
    worst = 0.0
    bracket_ok = True
    for _ in range(level.points):
        params, sp = _sacs_case(rng, level)
        even = sacs.SacsPoint(sp.point, ParityBranch.EVEN, sp.config, sp.n_atoms)
        odd = sacs.SacsPoint(sp.point, ParityBranch.ODD, sp.config, sp.n_atoms)
        k_even, k_odd = even.kernel, odd.kernel
        if min(k_even, k_odd) < 1e-8:
            continue
        e_even = sacs.sacs_energy(params, even)
        e_odd = sacs.sacs_energy(params, odd)
        e_coh = surface.energy(params, sp.point)
        mix = (k_even * e_even + k_odd * e_odd) / 4.0
        worst = max(worst, _rel_dev(e_coh, mix))
        lo, hi = sorted((e_even, e_odd))
        bracket_ok = bracket_ok and lo <= e_coh + 1e-10 and e_coh <= hi + 1e-10
    passed = worst <= 1e-10 and bracket_ok
    return CheckResult(
        "parity-decomposition",
        passed,
        worst,
        "E_coh = (k+ E+ + k- E-)/4 and min/max bracketing",
    )


def check_photon_mean_consistency(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """nu_bar against the critical field radius squared."""
    worst = 0.0
    for _ in range(level.points):
        vp = vconfig.VParams(
            mu=rng.uniform(0.55, 2.5),
            theta=rng.uniform(0.1, 1.45),
            n_atoms=int(level.n_atoms[rng.integers(len(level.n_atoms))]),
        )
        rho_c, _, _ = vconfig.critical_point_v(vp)
        worst = max(worst, _rel_dev(rho_c**2, vconfig.nu_bar(vp)))
    return CheckResult(
        "photon-mean-consistency",
        worst <= 1e-10,
        worst,
        "nu_bar = rho_c^2 at the analytic minimum",
    )


def check_minimizer_closed_form(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Numeric surface minimum against the analytic one."""
    worst_e = 0.0
    worst_x = 0.0
    trials = 3 if level.points <= 50 else 6
    for _ in range(trials):
        vp = vconfig.VParams(
            mu=float(rng.uniform(0.6, 2.2)), theta=float(rng.uniform(0.15, 1.4)), n_atoms=2
        )
        found = surface.minimize_surface(vp.to_model_params())
        rho_c, rho2_c, rho3_c = vconfig.critical_point_v(vp)
        worst_e = max(worst_e, abs(found.energy / vp.n_atoms - vconfig.e_min_v(vp)))
        for a, b in ((found.rho, rho_c), (found.rho2, rho2_c), (found.rho3, rho3_c)):
            worst_x = max(worst_x, abs(a - b))
    return CheckResult(
        "minimizer-vs-closed-form",
        worst_e <= 1e-8 and worst_x <= 1e-6,
        worst_e,
        f"energy dev {worst_e:.2e}, coordinate dev {worst_x:.2e}, {trials} couplings",
    )


def check_rdm_consistency(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Closed-form linear entropy vs 1 - tr(rho^2) of the oracle's partial trace."""
    worst = 0.0
    for _ in range(max(10, level.points // 5)):
        _, sp = _sacs_case(rng, level)
        space = fock.TruncatedSpace(sp.n_atoms, fock.suggested_nu_max(sp.point.alpha))
        rho = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space).atomic_density_matrix()
        purity = float(np.sum(np.abs(rho) ** 2))
        worst = max(worst, abs(sacs.linear_entropy(sp) - (1.0 - purity)))
    return CheckResult(
        "reduced-density-matrix",
        worst <= 1e-10,
        worst,
        "closed-form linear entropy against the partial-trace oracle",
    )


def check_distribution_normalization(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Closed-form photon distributions: normalization, moments, oracle.

    The summed moments are compared with the independent closed forms:
    nu_bar for the coherent state, `sacs.expect_photon_moments` for the
    parity branches.
    """
    worst = 0.0
    for _ in range(6):
        mu = rng.uniform(0.6, 2.8)
        vp = vconfig.VParams(mu=mu)
        params = vp.to_model_params()
        nb = vconfig.nu_bar(vp)
        top = int(math.ceil(nb + 14.0 * math.sqrt(nb + 1.0) + 30.0))
        nus = np.arange(top + 1)
        point = vconfig.critical_coherent_point(vp)
        space = fock.TruncatedSpace(2, fock.suggested_nu_max(point.alpha))
        oracle_nus = np.arange(space.nu_max + 1)
        for approx, branch in (
            (vconfig.Approximation.COHERENT, None),
            (vconfig.Approximation.SACS_EVEN, ParityBranch.EVEN),
            (vconfig.Approximation.SACS_ODD, ParityBranch.ODD),
        ):
            p = vconfig.photon_dist_v(vp, approx, nus)
            worst = max(worst, abs(float(p.sum()) - 1.0))
            mean = float(nus @ p)
            var = float(nus**2 @ p) - mean**2
            if branch is None:
                worst = max(worst, _rel_dev(mean, nb), _rel_dev(var, nb))
                continue
            sp = sacs.SacsPoint(point, branch, AtomicConfiguration.V, 2)
            m_closed, second = sacs.expect_photon_moments(sp)
            worst = max(worst, _rel_dev(mean, m_closed), _rel_dev(var, second - m_closed**2))
            vec = fock.build_sacs_vector(point, branch, AtomicConfiguration.V, space)
            dist = vec.photon_distribution()
            for closed in (
                vconfig.photon_dist_v(vp, approx, oracle_nus),
                sacs.photon_distribution(params, point, branch, oracle_nus),
            ):
                worst = max(worst, float(np.max(np.abs(dist - closed))))
    for approx, at0, at1 in (
        (vconfig.Approximation.SACS_EVEN, 1.0, 0.0),
        (vconfig.Approximation.SACS_ODD, 0.5, 0.5),
        (vconfig.Approximation.COHERENT, 1.0, 0.0),
    ):
        vp = vconfig.VParams(mu=0.3)
        worst = max(worst, abs(vconfig.photon_dist_v(vp, approx, 0) - at0))
        worst = max(worst, abs(vconfig.photon_dist_v(vp, approx, 1) - at1))
    return CheckResult(
        "photon-distribution",
        worst <= 1e-10,
        worst,
        "normalization, moments, oracle overlay, normal-regime forms",
    )


def check_angle_optimality(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Zero phases minimize the full surface at fixed radii."""
    worst = 0.0
    for _ in range(level.points):
        config = CONFIGS[rng.integers(len(CONFIGS))]
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        params = random_params(rng, config, n_atoms, rwa=False)
        rho, rho2, rho3 = rng.uniform(0.0, 1.5, size=3)
        reduced = surface.reduced_radial_energy(params, rho, rho2, rho3)
        phases = rng.uniform(-math.pi, math.pi, size=3)
        full = surface.energy_polar(params, rho, phases[0], rho2, phases[1], rho3, phases[2])
        worst = max(worst, max(0.0, reduced - full))
    return CheckResult(
        "phase-elimination-optimality",
        worst <= 1e-12,
        worst,
        "zero-phase surface never exceeds randomly phased surface",
    )


def check_rotation_identity(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Counter-rotating block conjugation equals its two-term form.

    At theta = pi the two-term form is H_R itself, so that case is the
    pi-invariance of H_R: an entry that changes M by an odd s deviates by 2|h|.
    """
    worst = 0.0
    for config in CONFIGS:
        params = random_params(rng, config, 2, rwa=False)
        space = fock.TruncatedSpace(2, 14)
        for theta in (0.0, math.pi / 7.0, math.pi / 4.0, math.pi):
            worst = max(worst, fock.excitation_rotation_deviation(params, space, theta))
    return CheckResult(
        "excitation-rotation-identity",
        worst <= 1e-12,
        worst,
        "conjugation by exp(i theta M) vs cos/sin two-term form, entrywise; "
        "theta = pi is the pi-invariance",
    )


def check_fock_structure(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Hermiticity, symmetry blocks, matrix invariants, cutoff nesting."""
    worst = 0.0
    for config in CONFIGS:
        n_atoms = int(level.n_atoms[rng.integers(len(level.n_atoms))])
        space = fock.TruncatedSpace(n_atoms, 16)
        params = random_params(rng, config, n_atoms, rwa=False)
        h = fock.build_hamiltonian(params, space)
        worst = max(worst, float(abs(h - h.conjugate().transpose()).max()))
        pi_op = fock.parity_operator(space, config)
        worst = max(worst, float(abs(h @ pi_op - pi_op @ h).max()))
        params_rwa = random_params(rng, config, n_atoms, rwa=True)
        h_rwa = fock.build_hamiltonian(params_rwa, space)
        mop = fock.m_operator(space, config)
        worst = max(worst, float(abs(h_rwa @ mop - mop @ h_rwa).max()))
        ident = np.eye(space.atomic_dimension)
        tables = _atomic_tables(n_atoms)
        total = sum(tables[k, k] for k in (1, 2, 3))
        worst = max(worst, float(np.max(np.abs(total - n_atoms * ident))))
        quad = sum(tables[k, j] @ tables[j, k] for k in (1, 2, 3) for j in (1, 2, 3))
        worst = max(
            worst,
            float(np.max(np.abs(quad - (n_atoms**2 + 2 * n_atoms) * ident))),
        )
    vp = vconfig.VParams(mu=float(rng.uniform(0.7, 1.5)))
    params = vp.to_model_params()
    last = None
    for nu_max in (24, 36, 48):
        space = fock.TruncatedSpace(2, nu_max)
        vals = [values[0] for values in fock.sector_spectrum(params, space, k=1)]
        if last is not None:
            worst = max(worst, max(0.0, vals[0] - last[0]), max(0.0, vals[1] - last[1]))
        last = vals
    return CheckResult(
        "oracle-matrix-structure",
        worst <= 1e-10,
        worst,
        "hermiticity, parity/M blocks, matrix invariants, cutoff nesting",
    )


def check_variational_bounds(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Projected trial energies dominate the sector ground energies."""
    worst = 0.0
    for mu in level.exact_couplings:
        vp = vconfig.VParams(mu=mu)
        params = vp.to_model_params()
        result = fock.converged_ground_states(params)
        point = vconfig.critical_coherent_point(vp)
        e_even = sacs.sacs_energy(
            params, sacs.SacsPoint(point, ParityBranch.EVEN, AtomicConfiguration.V, 2)
        )
        e_odd = sacs.sacs_energy(
            params, sacs.SacsPoint(point, ParityBranch.ODD, AtomicConfiguration.V, 2)
        )
        e_coh = surface.energy(params, point)
        worst = max(worst, max(0.0, result.even.energy - e_even))
        worst = max(worst, max(0.0, result.odd.energy - e_odd))
        worst = max(worst, max(0.0, result.global_ground.energy - e_coh))
        worst = max(worst, max(0.0, e_even - e_coh))
    return CheckResult(
        "variational-bounds",
        worst <= 1e-10,
        worst,
        "exact_even <= E+ <= E_coh and exact_odd <= E- at the minima",
    )


def info_printed_energy(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Tabulated closed-form branch energies vs the direct projected values."""
    lines = []
    worst = 0.0
    for mu in (0.6, 1.0, 2.0):
        vp = vconfig.VParams(mu=mu)
        params = vp.to_model_params()
        point = vconfig.critical_coherent_point(vp)
        for branch in BRANCHES:
            direct = (
                sacs.sacs_energy(
                    params, sacs.SacsPoint(point, branch, AtomicConfiguration.V, 2)
                )
                / 2.0
            )
            printed = vconfig.sacs_energy_v(vp, branch)
            worst = max(worst, abs(direct - printed))
            lines.append(
                f"mu={mu} {branch.name.lower()}: direct {direct:+.10f}, printed {printed:+.10f}"
            )
    vp = vconfig.VParams(mu=0.3)
    printed = vconfig.limit_observables(vp, vconfig.Approximation.SACS_ODD)["energy"]
    limit = sacs.branch_observables(
        vp.to_model_params(), vconfig.critical_coherent_point(vp), ParityBranch.ODD
    ).energy / 2.0
    worst = max(worst, abs(limit - printed))
    lines.append(f"mu=0.3 odd (normal): limit {limit:+.10f}, printed {printed:+.10f}")
    detail = (
        "printed odd branch tracks the direct value; the printed even branch "
        "correction carries the opposite sign; the printed normal-regime odd "
        "energy 1/(2N) lies below the epsilon -> 0 limit (1 - mu)/N. "
        + "; ".join(lines)
    )
    return CheckResult("printed-energy-forms", True, worst, detail, info=True)


def info_printed_entropy(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Tabulated linear-entropy closed form vs the direct partial trace."""
    lines = []
    worst = 0.0
    for mu in (1.0, 3.0):
        vp = vconfig.VParams(mu=mu)
        point = vconfig.critical_coherent_point(vp)
        for branch, approx in (
            (ParityBranch.EVEN, vconfig.Approximation.SACS_EVEN),
            (ParityBranch.ODD, vconfig.Approximation.SACS_ODD),
        ):
            direct = sacs.linear_entropy(
                sacs.SacsPoint(point, branch, AtomicConfiguration.V, 2)
            )
            printed = vconfig.linear_entropy_v(vp, approx)
            worst = max(worst, abs(direct - printed))
            lines.append(
                f"mu={mu} {branch.name.lower()}: direct {direct:.6f}, printed {printed:.6f}"
            )
    detail = (
        "direct entropies approach 1/2 from below; the printed form matches them "
        "only with C's exponent N(16mu^4-1)/(8mu^2) for N(8mu^4-1)/(4mu^2). " + "; ".join(lines)
    )
    return CheckResult("printed-entropy-form", True, worst, detail, info=True)


def info_coherent_q(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Coherent-approximation excitation statistics in the collective regime."""
    vp = vconfig.VParams(mu=1.0)
    q = vconfig.mandel_q_m(vp, vconfig.Approximation.COHERENT)
    detail = (
        f"coherent Q_M at mu=1, N=2 is {q:.12f} (= -3/28): sub-Poissonian, "
        "not Poissonian, because the two excited populations anticorrelate"
    )
    return CheckResult("coherent-q-statistics", True, abs(q + 3.0 / 28.0), detail, info=True)


def info_q_crossing(rng: np.random.Generator, level: CheckLevel) -> CheckResult:
    """Where the even-branch Q_M crosses zero and where the branches meet."""

    def q_even(mu):
        return vconfig.mandel_q_m(vconfig.VParams(mu=mu), vconfig.Approximation.SACS_EVEN)

    def q_gap(mu):
        return abs(
            q_even(mu)
            - vconfig.mandel_q_m(vconfig.VParams(mu=mu), vconfig.Approximation.SACS_ODD)
        )

    def bisect(f, level, lo, hi):
        """Where f falls through ``level`` in [lo, hi], after 30 halvings."""
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if f(mid) > level:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    crossing = bisect(q_even, 0.0, 0.6, 1.3)
    meeting = bisect(q_gap, 0.01, 1.0, 1.4)
    detail = (
        f"even Q_M crosses zero at mu={crossing:.4f} and the branches come "
        f"within 0.01 at mu={meeting:.4f} (N=2, theta=pi/4); the reference "
        "locations 0.54 / 0.56 are not reproduced at this system size"
    )
    return CheckResult("q-crossing-location", True, 0.0, detail, info=True)


HARD_CHECKS = (
    check_polar_complex_agreement,
    check_rwa_reduction,
    check_coherent_casimir,
    check_sacs_casimir,
    check_oracle_equivalence,
    check_parity_decomposition,
    check_photon_mean_consistency,
    check_minimizer_closed_form,
    check_rdm_consistency,
    check_distribution_normalization,
    check_angle_optimality,
    check_rotation_identity,
    check_fock_structure,
    check_variational_bounds,
)

INFO_CHECKS = (
    info_printed_energy,
    info_printed_entropy,
    info_coherent_q,
    info_q_crossing,
)


def run_checks(level_name: str = "fast", seed: int = 20240817) -> list[CheckResult]:
    """Run the registry at the given effort level; see LEVELS."""
    if level_name not in LEVELS:
        raise ValueError(f"unknown level {level_name!r}; choose from {sorted(LEVELS)}")
    level = LEVELS[level_name]
    results = []
    for func in HARD_CHECKS + INFO_CHECKS:
        rng = np.random.default_rng(seed)
        results.append(func(rng, level))
    return results
