"""Closed forms for the doubly resonant V scheme."""

import math

import numpy as np
import pytest

from tricavity import fock, sacs
from tricavity.model import ParityBranch, Regime
from tricavity.surface import coherent_expectations, energy, minimize_surface
from tricavity.vconfig import (
    Approximation,
    VParams,
    critical_coherent_point,
    critical_point_v,
    e_min_v,
    fit_gaussian,
    limit_observables,
    linear_entropy_v,
    mandel_q_m,
    mu_critical,
    nu_bar,
    photon_dist_v,
    sacs_energy_v,
)

SACS_BRANCHES = (Approximation.SACS_EVEN, Approximation.SACS_ODD)


def sacs_at_minimum(vp: VParams, branch: ParityBranch) -> sacs.SacsPoint:
    return sacs.SacsPoint(
        point=critical_coherent_point(vp),
        branch=branch,
        config=vp.to_model_params().config,
        n_atoms=vp.n_atoms,
    )


class TestVParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VParams(mu=-0.1)
        with pytest.raises(ValueError):
            VParams(mu=1.0, theta=-0.1)
        with pytest.raises(ValueError):
            VParams(mu=1.0, theta=math.pi)
        with pytest.raises(ValueError):
            VParams(mu=1.0, omega=0.0)
        with pytest.raises(ValueError):
            VParams(mu=1.0, omega1=1.0, omega3=1.0)
        with pytest.raises(ValueError):
            VParams(mu=1.0, n_atoms=0)

    def test_critical_coupling(self):
        assert mu_critical(1.0, 1.0, rwa=False) == 0.5
        assert mu_critical(1.0, 1.0, rwa=True) == 1.0
        assert abs(mu_critical(2.0, 0.5, rwa=False) - 0.5) < 1e-15
        assert VParams(mu=0.5).regime() is Regime.NORMAL
        assert VParams(mu=0.5 + 1e-12).regime() is Regime.COLLECTIVE
        # The boundary follows the gap omega3 - omega1, not omega3.
        assert VParams(mu=0.32, omega1=0.6).regime() is Regime.COLLECTIVE


class TestCollectiveClosedForms:
    def test_unit_coupling_anchors(self):
        vp = VParams(mu=1.0)
        assert abs(e_min_v(vp) - (-0.5625)) < 1e-15
        assert abs(nu_bar(vp) - 1.875) < 1e-15
        rho, rho2, rho3 = critical_point_v(vp)
        assert abs(rho - 1.3693063937629153) < 1e-15
        assert abs(rho2 - math.sqrt(0.3)) < 1e-15
        assert abs(rho3 - math.sqrt(0.3)) < 1e-15
        assert abs(rho**2 - nu_bar(vp)) < 1e-15

    def test_minimum_energy_matches_surface(self):
        rng = np.random.default_rng(409)
        for _ in range(25):
            vp = VParams(
                mu=rng.uniform(0.6, 3.0),
                theta=rng.uniform(0.0, math.pi / 2),
                omega=rng.uniform(0.7, 1.3),
                omega3=rng.uniform(0.8, 1.5),
                omega1=rng.choice([0.0, rng.uniform(0.0, 0.6)]),
                n_atoms=int(rng.integers(1, 7)),
            )
            if vp.regime() is not Regime.COLLECTIVE:
                continue
            params = vp.to_model_params()
            e = energy(params, critical_coherent_point(vp))
            assert abs(e - vp.n_atoms * e_min_v(vp)) < 1e-10 * max(1.0, abs(e))
            crit = minimize_surface(params)
            assert abs(crit.energy - e) < 1e-10 * max(1.0, abs(e))
            assert abs(crit.rho - critical_point_v(vp)[0]) < 1e-6

    def test_photon_mean_matches_surface_report(self):
        rng = np.random.default_rng(419)
        for _ in range(25):
            vp = VParams(mu=rng.uniform(0.6, 2.5), n_atoms=int(rng.integers(1, 7)))
            rep = coherent_expectations(vp.to_model_params(), critical_coherent_point(vp))
            mean = nu_bar(vp)
            assert abs(rep.one_body.n_photons - mean) < 1e-10 * max(1.0, rep.one_body.n_photons)
            assert abs(rep.photon_var - mean) < 1e-10 * max(1.0, mean)

    def test_rwa_closed_forms_use_half_coupling(self):
        full = VParams(mu=1.0)
        doubled = VParams(mu=2.0, rwa=True)
        assert abs(e_min_v(full) - e_min_v(doubled)) < 1e-15
        assert abs(nu_bar(full) - nu_bar(doubled)) < 1e-15


class TestNormalRegimeForms:
    @pytest.mark.parametrize("omega1", (0.0, 0.2))
    def test_minimum_energy_is_the_ground_level(self, omega1):
        for n in (1, 3):
            vp = VParams(mu=0.3, omega1=omega1, n_atoms=n)
            assert vp.regime() is Regime.NORMAL
            assert e_min_v(vp) == omega1
            crit = minimize_surface(vp.to_model_params())
            assert abs(crit.energy - n * e_min_v(vp)) < 1e-12

    def test_printed_sacs_energies_are_the_limit_energies(self):
        for n in (1, 2, 5):
            vp = VParams(mu=0.3, n_atoms=n)
            for approx in SACS_BRANCHES:
                limit = limit_observables(vp, approx)["energy"]
                assert sacs_energy_v(vp, approx.branch) == limit

    def test_guards(self):
        with pytest.raises(ValueError, match="no parity branch"):
            Approximation.COHERENT.branch
        with pytest.raises(ValueError, match="normal regime only"):
            limit_observables(VParams(mu=1.0), Approximation.SACS_EVEN)
        with pytest.raises(ValueError, match="nonnegative"):
            photon_dist_v(VParams(mu=1.0), Approximation.SACS_EVEN, [0, -1])
        with pytest.raises(ValueError, match=">= 4 rows"):
            fit_gaussian(np.arange(3), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="full Hamiltonian"):
            sacs_energy_v(VParams(mu=1.0, rwa=True), ParityBranch.EVEN)
        for vp in (VParams(mu=1.0, omega=1.2), VParams(mu=1.0, omega1=0.1)):
            with pytest.raises(ValueError, match="is printed for"):
                sacs_energy_v(vp, ParityBranch.EVEN)
            with pytest.raises(ValueError, match="is printed for"):
                photon_dist_v(vp, Approximation.COHERENT, 0)
            with pytest.raises(ValueError, match="is printed for"):
                linear_entropy_v(vp, Approximation.SACS_ODD)


class TestAdaptedEnergies:
    def test_odd_form_matches_direct_evaluation(self):
        for mu in (0.6, 1.0, 2.0):
            vp = VParams(mu=mu)
            direct = sacs.sacs_energy(
                vp.to_model_params(), sacs_at_minimum(vp, ParityBranch.ODD)
            ) / vp.n_atoms
            assert abs(sacs_energy_v(vp, ParityBranch.ODD) - direct) < 1e-12

    def test_even_form_mirrors_direct_about_product_energy(self):
        # The tabulated even-branch expression carries the correction with
        # the opposite sign, so form + direct = twice the product minimum.
        for mu in (0.6, 1.0, 2.0):
            vp = VParams(mu=mu)
            direct = sacs.sacs_energy(
                vp.to_model_params(), sacs_at_minimum(vp, ParityBranch.EVEN)
            ) / vp.n_atoms
            form = sacs_energy_v(vp, ParityBranch.EVEN)
            assert abs(form + direct - 2.0 * e_min_v(vp)) < 1e-12

    def test_even_branch_lies_lowest(self):
        for mu in (0.6, 1.0, 2.0):
            vp = VParams(mu=mu)
            e_even = sacs.sacs_energy(
                vp.to_model_params(), sacs_at_minimum(vp, ParityBranch.EVEN)
            ) / vp.n_atoms
            e_odd = sacs.sacs_energy(
                vp.to_model_params(), sacs_at_minimum(vp, ParityBranch.ODD)
            ) / vp.n_atoms
            assert e_even < e_min_v(vp) < e_odd


class TestPhotonDistributions:
    def test_scalar_and_array_contracts(self):
        vp = VParams(mu=1.0)
        for approx in (Approximation.COHERENT,) + SACS_BRANCHES:
            scalar = photon_dist_v(vp, approx, 2)
            assert isinstance(scalar, float)
            arr = photon_dist_v(vp, approx, np.arange(4))
            assert arr.shape == (4,)
            assert abs(arr[2] - scalar) < 1e-15

    def test_normalization_and_moments(self):
        # Summed moments against the independent closed forms: nu_bar for the
        # coherent state, the SACS photon moments for the parity branches.
        rng = np.random.default_rng(421)
        for _ in range(12):
            vp = VParams(mu=rng.uniform(0.7, 3.0), n_atoms=int(rng.integers(1, 5)))
            top = int(nu_bar(vp) + 14 * math.sqrt(nu_bar(vp) + 1) + 30)
            nus = np.arange(top + 1)
            for approx, branch in zip(
                (Approximation.COHERENT,) + SACS_BRANCHES,
                (None, ParityBranch.EVEN, ParityBranch.ODD),
            ):
                p = photon_dist_v(vp, approx, nus)
                assert abs(p.sum() - 1.0) < 1e-12
                if branch is None:
                    mean, var = nu_bar(vp), nu_bar(vp)
                else:
                    mean, second = sacs.expect_photon_moments(sacs_at_minimum(vp, branch))
                    var = second - mean**2
                assert abs(float(nus @ p) - mean) < 1e-10 * max(1.0, mean)
                assert abs(float(nus**2 @ p) - mean**2 - var) < 1e-9 * max(1.0, var)

    def test_sacs_distribution_against_truncated_vector(self):
        vp = VParams(mu=1.4, n_atoms=3)
        space = fock.TruncatedSpace(vp.n_atoms, 60)
        nus = np.arange(61)
        for approx, branch in zip(SACS_BRANCHES, (ParityBranch.EVEN, ParityBranch.ODD)):
            sp = sacs_at_minimum(vp, branch)
            vec = fock.build_sacs_vector(sp.point, sp.branch, sp.config, space)
            oracle = vec.photon_distribution()
            closed = photon_dist_v(vp, approx, nus)
            assert np.abs(closed - oracle).max() < 1e-12

    def test_normal_regime_limit_distributions(self):
        vp = VParams(mu=0.3)
        nus = np.arange(5)
        even = photon_dist_v(vp, Approximation.SACS_EVEN, nus)
        odd = photon_dist_v(vp, Approximation.SACS_ODD, nus)
        assert np.abs(even - np.array([1.0, 0, 0, 0, 0])).max() < 1e-14
        assert np.abs(odd - np.array([0.5, 0.5, 0, 0, 0])).max() < 1e-14

    def test_gaussian_fit_recovers_exact_normal_curve(self):
        nus = np.arange(120)
        for mean, sigma in ((30.0, 4.0), (55.5, 9.0)):
            probs = np.exp(-0.5 * ((nus - mean) / sigma) ** 2) / (
                sigma * math.sqrt(2 * math.pi)
            )
            fit_mean, fit_sigma = fit_gaussian(nus, probs)
            assert abs(fit_mean - mean) < 1e-8
            assert abs(fit_sigma - sigma) < 1e-8


class TestStatisticsAndEntropy:
    def test_coherent_q_at_unit_coupling(self):
        # The two excited populations anticorrelate, so the excitation
        # statistics dip below Poissonian: Q = -3/28 here.
        vp = VParams(mu=1.0)
        assert abs(mandel_q_m(vp, Approximation.COHERENT) - (-3.0 / 28.0)) < 1e-12

    def test_sacs_q_matches_moment_evaluation(self):
        for mu in (0.8, 1.3):
            vp = VParams(mu=mu)
            for approx, branch in zip(
                SACS_BRANCHES, (ParityBranch.EVEN, ParityBranch.ODD)
            ):
                direct = sacs.expect_m_moments(sacs_at_minimum(vp, branch)).q_mandel
                assert abs(mandel_q_m(vp, approx) - direct) < 1e-12

    def test_coherent_entropy_vanishes(self):
        assert linear_entropy_v(VParams(mu=1.7), Approximation.COHERENT) == 0.0

    def test_tabulated_entropy_values(self):
        # Regression anchors for the tabulated entropy expression; the
        # directly evaluated mixedness is compared against 1/2 elsewhere.
        vp = VParams(mu=1.0)
        assert abs(linear_entropy_v(vp, Approximation.SACS_EVEN) - 0.817597) < 1e-5
        assert abs(linear_entropy_v(vp, Approximation.SACS_ODD) - 0.823793) < 1e-5

    def test_printed_entropy_on_both_sides_of_mu_half(self):
        # The printed expression, evaluated as written, against the two
        # branches of linear_entropy_v (direct for mu <= 1/2, rescaled above).
        for n in (1, 2, 3):
            for mu in (0.1, 0.3, 0.45, 0.5, 0.7, 1.0):
                a = math.exp(n * (16 * mu**4 - 1) / (4 * mu**2))
                b = (2 * mu) ** (4 * n)
                c = (2 * mu) ** (2 * n) * math.exp(n * (8 * mu**4 - 1) / (4 * mu**2))
                for approx, sign in zip(SACS_BRANCHES, (1, -1)):
                    printed = (1 - a) * (1 - b) / (2 * (1 + sign * c) ** 2)
                    value = linear_entropy_v(VParams(mu=mu, n_atoms=n), approx)
                    assert abs(value - printed) <= 1e-12 * max(1.0, abs(printed))
        assert linear_entropy_v(VParams(mu=0.0), Approximation.SACS_EVEN) == 0.5

    def test_direct_entropy_approaches_half_from_below(self):
        previous = {b: 0.0 for b in (ParityBranch.EVEN, ParityBranch.ODD)}
        for mu in (0.8, 1.2, 2.0, 3.0):
            vp = VParams(mu=mu)
            for branch in previous:
                val = sacs.linear_entropy(sacs_at_minimum(vp, branch))
                assert previous[branch] < val < 0.5
                previous[branch] = val


class TestLimitObservables:
    def test_even_limit_is_vacuum(self):
        out = limit_observables(VParams(mu=0.4), Approximation.SACS_EVEN)
        assert out["energy"] == 0.0
        assert out["photons"] == 0.0
        assert out["a11"] == 1.0
        assert out["q_m"] == 1.0
        assert out["entropy"] == 0.0

    def test_odd_limit_shares_one_quantum(self):
        n = 4
        theta = math.pi / 6
        out = limit_observables(
            VParams(mu=0.4, theta=theta, n_atoms=n), Approximation.SACS_ODD
        )
        assert abs(out["energy"] - 1.0 / (2 * n)) < 1e-15
        assert abs(out["photons"] - 1.0 / (2 * n)) < 1e-15
        assert abs(out["a11"] - (1.0 - 1.0 / (2 * n))) < 1e-15
        assert abs(out["a22"] - math.cos(theta) ** 2 / (2 * n)) < 1e-15
        assert abs(out["a33"] - math.sin(theta) ** 2 / (2 * n)) < 1e-15
        assert out["m_mean"] == 1.0 and out["m_var"] == 0.0
        assert out["q_m"] == -1.0
        assert abs(out["entropy"] - 0.5) < 1e-15
        assert abs(out["photon_mean"] - 0.5) < 1e-15
        assert abs(out["photon_std"] - 0.5) < 1e-15
