"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see every verdict.
Two sub-assertions of criterion 7 compare against reference excitation-
statistics locations (0.54 / 0.56) that the direct computation places
elsewhere at this system size; that criterion fails by design and the
verdict line carries the measured locations.
"""

import math
import time

import numpy as np
from scipy import sparse

from tricavity import checks, fock, sacs, surface, vconfig
from tricavity.model import AtomicConfiguration, CoherentPoint, ParityBranch
from tricavity.vconfig import Approximation, VParams

from helpers import CONFIGS, random_params

FULL = checks.LEVELS["full"]
BRANCHES = (ParityBranch.EVEN, ParityBranch.ODD)


def report(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def limit_point(eps: float, n_atoms: int = 2, theta: float = math.pi / 4) -> CoherentPoint:
    """Approach the origin along the direction that keeps both limits finite."""
    return CoherentPoint(
        alpha=complex(eps * math.sqrt(n_atoms)),
        gamma2=complex(eps * math.cos(theta)),
        gamma3=complex(eps * math.sin(theta)),
    )


def sacs_minimum(vp: VParams, branch: ParityBranch) -> sacs.SacsPoint:
    return sacs.SacsPoint(
        point=vconfig.critical_coherent_point(vp),
        branch=branch,
        config=AtomicConfiguration.V,
        n_atoms=vp.n_atoms,
    )


def bisect(fun, lo: float, hi: float, iterations: int = 48) -> float:
    f_lo = fun(lo)
    assert f_lo * fun(hi) < 0, "bisection bracket does not straddle a sign change"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f_lo * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_01_closed_forms_match_oracle():
    start = time.perf_counter()
    res = checks.check_oracle_equivalence(np.random.default_rng(20240817), FULL)
    elapsed = time.perf_counter() - start
    ok = res.passed and res.max_dev <= 1e-10 and elapsed <= 120.0
    line = report(
        "criterion-01 oracle-equivalence",
        ok,
        f"500 random points, max relative deviation {res.max_dev:.3e}, "
        f"{elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_02_casimir_invariants():
    coh = checks.check_coherent_casimir(np.random.default_rng(20240817), FULL)
    adapted = checks.check_sacs_casimir(np.random.default_rng(20240817), FULL)
    matrix_dev = 0.0
    for n in (1, 2, 3):
        space = fock.TruncatedSpace(n, 6)
        eye = sparse.identity(space.dimension)
        linear = sum(fock.transition(space, k, k) for k in (1, 2, 3))
        quad = sum(
            fock.transition(space, k, j) @ fock.transition(space, j, k)
            for k in (1, 2, 3)
            for j in (1, 2, 3)
        )
        matrix_dev = max(
            matrix_dev,
            abs(linear - n * eye).max(),
            abs(quad - (n**2 + 2 * n) * eye).max(),
        )
    ok = (
        coh.passed
        and adapted.passed
        and max(coh.max_dev, adapted.max_dev) <= 1e-10
        and matrix_dev < 1e-12
    )
    line = report(
        "criterion-02 casimir-invariants",
        ok,
        f"expectation sums dev {max(coh.max_dev, adapted.max_dev):.3e}, "
        f"matrix identities dev {matrix_dev:.3e}",
    )
    assert ok, line


def test_criterion_03_parity_decomposition():
    res = checks.check_parity_decomposition(np.random.default_rng(20240817), FULL)
    ok = res.passed and res.max_dev <= 1e-10
    line = report(
        "criterion-03 parity-decomposition",
        ok,
        f"norm-weighted branch mean vs product energy, max dev {res.max_dev:.3e}",
    )
    assert ok, line


def test_criterion_04_boundary_bisection():
    def make_full(mu):
        return VParams(mu=mu).to_model_params()

    def make_rwa(mu):
        return VParams(mu=mu, rwa=True).to_model_params()

    start = time.perf_counter()
    found_full = surface.boundary_coupling(make_full, 0.05, 3.0, coupling_tol=1e-6)
    t_full = time.perf_counter() - start
    start = time.perf_counter()
    found_rwa = surface.boundary_coupling(make_rwa, 0.05, 3.0, coupling_tol=1e-6)
    t_rwa = time.perf_counter() - start
    err_full = abs(found_full - 0.5)
    err_rwa = abs(found_rwa - 1.0)
    ok = err_full <= 1e-6 and err_rwa <= 1e-6 and max(t_full, t_rwa) < 30.0
    line = report(
        "criterion-04 boundary-bisection",
        ok,
        f"full {found_full:.8f} (err {err_full:.1e}, {t_full:.2f} s), "
        f"conserving {found_rwa:.8f} (err {err_rwa:.1e}, {t_rwa:.2f} s)",
    )
    assert ok, line


def test_criterion_05_unit_coupling_anchors():
    vp = VParams(mu=1.0)
    e_err = abs(vconfig.e_min_v(vp) - (-0.5625))
    n_err = abs(vconfig.nu_bar(vp) - 1.875)
    point = vconfig.critical_coherent_point(vp)
    rep = surface.coherent_expectations(vp.to_model_params(), point)
    rho_sq_err = abs(abs(point.alpha) ** 2 - rep.one_body.n_photons)
    crit = surface.minimize_surface(vp.to_model_params())
    rho, rho2, rho3 = vconfig.critical_point_v(vp)
    coord_err = max(
        abs(crit.rho - rho), abs(crit.rho2 - rho2), abs(crit.rho3 - rho3)
    )
    ok = e_err <= 1e-12 and n_err <= 1e-12 and rho_sq_err <= 1e-12 and coord_err <= 1e-8
    line = report(
        "criterion-05 unit-coupling-anchors",
        ok,
        f"energy dev {e_err:.1e}, photon dev {n_err:.1e}, "
        f"rho^2 vs <n> dev {rho_sq_err:.1e}, minimizer coord dev {coord_err:.1e}",
    )
    assert ok, line


def test_criterion_06_strong_coupling_distribution():
    start = time.perf_counter()
    vp = VParams(mu=3.0)
    target = vconfig.nu_bar(vp)
    nus = np.arange(97)
    mean_dev = 0.0
    fit_devs = []
    for approx in (Approximation.SACS_EVEN, Approximation.SACS_ODD, Approximation.COHERENT):
        probs = vconfig.photon_dist_v(vp, approx, nus)
        mean_dev = max(mean_dev, abs(float(nus @ probs) - target))
        fit_mean, fit_sigma = vconfig.fit_gaussian(nus, probs)
        fit_devs.append((abs(fit_mean - 17.74) / 17.74, abs(fit_sigma - 4.23) / 4.23))
    elapsed = time.perf_counter() - start
    worst_mean = max(d[0] for d in fit_devs)
    worst_sigma = max(d[1] for d in fit_devs)
    ok = (
        mean_dev <= 1e-10
        and worst_mean <= 0.02
        and worst_sigma <= 0.03
        and elapsed < 1.0
    )
    line = report(
        "criterion-06 strong-coupling-distribution",
        ok,
        f"mean vs closed form dev {mean_dev:.2e}, fit mean off by "
        f"{worst_mean:.2%}, fit sigma off by {worst_sigma:.2%}, {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_07_excitation_statistics():
    # Part 1: the adapted branches approach Q = +1 (even) and Q = -1 (odd)
    # quadratically along the shared small-amplitude direction.
    richardson_devs = {}
    for branch, target in ((ParityBranch.EVEN, 1.0), (ParityBranch.ODD, -1.0)):
        q_vals = {}
        for eps in (1e-3, 1e-4):
            sp = sacs.SacsPoint(
                point=limit_point(eps),
                branch=branch,
                config=AtomicConfiguration.V,
                n_atoms=2,
            )
            q_vals[eps] = sacs.expect_m_moments(sp).q_mandel
        extrapolated = (100.0 * q_vals[1e-4] - q_vals[1e-3]) / 99.0
        richardson_devs[branch] = abs(extrapolated - target)
    limits_ok = max(richardson_devs.values()) < 1e-2

    # Part 2: where the even branch crosses Q = 0 and where the branches
    # first agree to 0.01, along the coupling axis at the product minima.
    def q_even(mu):
        return vconfig.mandel_q_m(VParams(mu=mu), Approximation.SACS_EVEN)

    def q_gap(mu):
        return (
            abs(
                vconfig.mandel_q_m(VParams(mu=mu), Approximation.SACS_EVEN)
                - vconfig.mandel_q_m(VParams(mu=mu), Approximation.SACS_ODD)
            )
            - 0.01
        )

    crossing = bisect(q_even, 0.6, 1.05)
    meeting = bisect(q_gap, 0.6, 2.0)
    crossing_ok = abs(crossing - 0.54) <= 0.01
    meeting_ok = abs(meeting - 0.56) <= 0.01

    ok = limits_ok and crossing_ok and meeting_ok
    line = report(
        "criterion-07 excitation-statistics",
        ok,
        f"limit deviations even {richardson_devs[ParityBranch.EVEN]:.1e} / "
        f"odd {richardson_devs[ParityBranch.ODD]:.1e} (pass), zero crossing at "
        f"mu={crossing:.6f} vs 0.54+-0.01 "
        f"({'pass' if crossing_ok else 'fail'}), branch meeting at "
        f"mu={meeting:.6f} vs 0.56+-0.01 ({'pass' if meeting_ok else 'fail'})",
    )
    assert ok, line


def test_criterion_08_small_amplitude_energies():
    vp = VParams(mu=0.5)
    params = vp.to_model_params()
    eps = 1e-4
    energies = {}
    for branch in BRANCHES:
        sp = sacs.SacsPoint(
            point=limit_point(eps),
            branch=branch,
            config=AtomicConfiguration.V,
            n_atoms=2,
        )
        energies[branch] = sacs.sacs_energy(params, sp) / params.n_atoms
    even_dev = abs(energies[ParityBranch.EVEN])
    odd_dev = abs(energies[ParityBranch.ODD] - 1.0 / (2 * params.n_atoms))
    ok = even_dev < 1e-3 and odd_dev < 1e-3
    line = report(
        "criterion-08 small-amplitude-energies",
        ok,
        f"even branch -> 0 (dev {even_dev:.1e}), odd branch -> 1/(2N) "
        f"(dev {odd_dev:.1e}) at eps={eps:g}",
    )
    assert ok, line


def test_criterion_09_exact_bounds():
    start = time.perf_counter()
    worst_cert = 0.0
    chains_ok = True
    details = []
    for mu in (0.6, 1.0, 2.0):
        vp = VParams(mu=mu)
        params = vp.to_model_params()
        result = fock.converged_ground_states(params)
        worst_cert = max(worst_cert, result.delta)
        exact_even = result.even.energy / params.n_atoms
        exact_odd = result.odd.energy / params.n_atoms
        e_plus = sacs.sacs_energy(params, sacs_minimum(vp, ParityBranch.EVEN))
        e_minus = sacs.sacs_energy(params, sacs_minimum(vp, ParityBranch.ODD))
        e_plus /= params.n_atoms
        e_minus /= params.n_atoms
        e_coh = vconfig.e_min_v(vp)
        chain = exact_even <= e_plus <= e_coh and exact_odd <= e_minus
        chains_ok = chains_ok and chain
        details.append(f"mu={mu}: {'ok' if chain else 'violated'}")
    elapsed = time.perf_counter() - start
    ok = chains_ok and worst_cert < 1e-10 and elapsed < 60.0
    line = report(
        "criterion-09 exact-bounds",
        ok,
        f"{'; '.join(details)}; worst cutoff certificate {worst_cert:.1e}, "
        f"{elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_10_matter_entropy():
    vp = VParams(mu=3.0)
    coherent_val = vconfig.linear_entropy_v(vp, Approximation.COHERENT)
    space = fock.TruncatedSpace(vp.n_atoms, 120)
    half_dev = 0.0
    oracle_dev = 0.0
    for branch in BRANCHES:
        sp = sacs_minimum(vp, branch)
        direct = sacs.linear_entropy(sp)
        half_dev = max(half_dev, abs(direct - 0.5))
        vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)
        rho = vec.atomic_density_matrix()
        oracle = 1.0 - float(np.sum(np.abs(rho) ** 2))
        oracle_dev = max(oracle_dev, abs(direct - oracle))
    tabulated = vconfig.linear_entropy_v(vp, Approximation.SACS_EVEN)
    ok = coherent_val == 0.0 and half_dev <= 1e-3 and oracle_dev <= 1e-10
    line = report(
        "criterion-10 matter-entropy",
        ok,
        f"product value {coherent_val}, adapted branches within {half_dev:.1e} "
        f"of 1/2, direct vs oracle dev {oracle_dev:.1e} "
        f"(tabulated form gives {tabulated:.4f}, informational)",
    )
    assert ok, line


def test_criterion_11_excitation_rotation():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for config in CONFIGS:
        params = random_params(rng, config, 2)
        space = fock.TruncatedSpace(2, 24)
        for theta in (0.0, math.pi / 7, math.pi / 4, math.pi):
            worst = max(
                worst, fock.excitation_rotation_deviation(params, space, theta)
            )
    ok = worst < 1e-12
    line = report(
        "criterion-11 excitation-rotation",
        ok,
        f"conjugation identity over all schemes and angles, max dev {worst:.3e}",
    )
    assert ok, line
