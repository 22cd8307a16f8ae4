import math

import numpy as np
import pytest

from elastab import core, fields, identities
from elastab.errors import (
    InadmissibleCoefficientsError,
    InadmissibleMultiplierError,
    InvalidMaterialError,
    UnsupportedDomainError,
)


class TestMaterialField:
    def test_constant_bounds(self):
        mat = core.MaterialField.constant(2.0, 3.0, 0.0)
        assert mat.rho_min == mat.rho_max == 2.0
        assert mat.lam_min == 0.0
        pts = np.array([[0.1, 0.2], [0.5, -0.3]])
        assert np.allclose(mat.mu(pts), 3.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidMaterialError):
            core.MaterialField.constant(0.0, 1.0, 1.0)
        with pytest.raises(InvalidMaterialError):
            core.MaterialField.constant(1.0, -1.0, 1.0)
        with pytest.raises(InvalidMaterialError):
            core.MaterialField.constant(1.0, 1.0, -0.5)

    def test_sampled_values_respect_certified_bounds(self):
        prof = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0)
        mat = core.MaterialField.radial(prof, core.constant_profile(1.0), core.constant_profile(0.0))
        r = np.linspace(0.0, 1.0, 11)
        vals = mat.rho.at_radius(r)
        assert vals.min() >= 1.0 and vals.max() <= 2.0

    def test_theta_s_min(self):
        mat = core.MaterialField.constant(4.0, 9.0, 2.0)
        assert mat.theta_s_min == math.sqrt(9.0 / 4.0)

    def test_description_follows_the_profiles(self):
        c = core.constant_profile(1.0)
        mu = core.radial_profile(lambda r: 1.0 + 0.5 * r**2, 1.0, 1.5, derivative=lambda r: r)
        v = fields.random_polynomial(2, 3, seed=0)
        domain = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        # a variable mu built directly is not constant: the constant-coefficient
        # Rellich identity refuses it instead of reporting a spurious gap
        variable = core.MaterialField(rho=c, mu=mu, lam=c)
        assert variable.description == "radial-profile"
        with pytest.raises(ValueError):
            identities.rellich_audit(v, domain, variable)
        # three constant profiles make a constant field, however they are joined
        joined = core.MaterialField.radial(c, c, c)
        constant = core.MaterialField.constant(1.0, 1.0, 1.0)
        assert joined.description == "constant"
        assert (identities.rellich_audit(v, domain, joined).as_dict()
                == identities.rellich_audit(v, domain, constant).as_dict())
        pw = core.piecewise_radial_profile([0.0, 0.5], [1.0, 2.0])
        assert core.MaterialField(rho=pw, mu=mu, lam=c).description == "piecewise-radial"


class TestDomainSpec:
    def test_annulus_needs_inner_radius(self):
        with pytest.raises(UnsupportedDomainError):
            core.DomainSpec(d=2, ell=1.0, shape="annulus")
        with pytest.raises(UnsupportedDomainError):
            core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=1.5)

    def test_unknown_shape(self):
        with pytest.raises(UnsupportedDomainError):
            core.DomainSpec(d=2, ell=1.0, shape="torus")

    def test_boundary_partition(self, annulus_domain):
        assert annulus_domain.has_dirichlet


class TestRobinSpec:
    def test_adimensionalization(self):
        mat = core.MaterialField.constant(4.0, 9.0, 1.0)
        rob = core.RobinSpec.from_impedance(6.0, 12.0, mat)
        assert rob.alpha_t == pytest.approx(1.0)  # 6 / sqrt(36)
        assert rob.alpha_n == pytest.approx(2.0)
        assert rob.alpha_min == 1.0 and rob.alpha_max == 2.0

    def test_rescaling_material_keeps_alpha(self):
        # multiplying mu and rho by t and a by t keeps alpha fixed
        t = 7.0
        m1 = core.MaterialField.constant(1.0, 2.0, 1.0)
        m2 = core.MaterialField.constant(t * 1.0, t * 2.0, t * 1.0)
        r1 = core.RobinSpec.from_impedance(3.0, 5.0, m1)
        r2 = core.RobinSpec.from_impedance(t * 3.0, t * 5.0, m2)
        assert r1.alpha_t == pytest.approx(r2.alpha_t)
        assert r1.alpha_n == pytest.approx(r2.alpha_n)

    def test_pressure_matched(self):
        mat = core.MaterialField.constant(1.0, 1.0, 2.0)
        rob = core.RobinSpec.pressure_matched(mat)
        assert rob.alpha_t == 1.0
        assert rob.alpha_n == pytest.approx(2.0)  # sqrt(2 + 2)


class TestMultiplierFor:
    def test_identity_on_ball(self, ball_domain):
        m = core.multiplier_for(ball_domain)
        assert m.M == 1.0 and m.m == 1.0
        assert m.eta == 0.0 and m.epsilon == 0.0
        assert m.gamma == 1.0
        assert m.nu == pytest.approx(math.sqrt(3.0))

    def test_zero_perturbation_is_identity(self, ball_domain):
        phi = core.PerturbationSpec(hessian_max=0.0, laplacian_min=0.0)
        assert core.multiplier_for(ball_domain, phi) == core.multiplier_for(ball_domain)

    def test_perturbed_budget(self, ball_domain):
        phi = core.PerturbationSpec(
            hessian_max=0.1, laplacian_min=-0.2, korn_k0=1.0, lambda_over_mu=1.0
        )
        m = core.multiplier_for(ball_domain, phi)
        assert m.epsilon == pytest.approx(0.4)
        assert m.eta == pytest.approx(0.2)
        assert m.gamma == pytest.approx(0.7)

    def test_oversized_perturbation_rejected(self, ball_domain):
        phi = core.PerturbationSpec(hessian_max=1.0, laplacian_min=-1.0, korn_k0=1.0)
        with pytest.raises(InadmissibleMultiplierError):
            core.multiplier_for(ball_domain, phi)


class TestDeriveGroups:
    def test_kappa_direct_substitution(self):
        mat = core.MaterialField.constant(1.0, 4.0, 0.0)
        dom = core.DomainSpec(d=3, ell=3.0, shape="ball")
        rob = core.RobinSpec.from_alpha(1.0, 1.0, mat)
        g = core.derive_groups(mat, dom, rob, omega=2.0)
        assert g.kappa_s == pytest.approx(3.0)

    def test_unit_alpha_constants(self, unit_material, ball_domain):
        rob = core.RobinSpec.from_alpha(1.0, 1.0, unit_material)
        g = core.derive_groups(unit_material, ball_domain, rob, omega=1.0)
        assert g.c_rob == pytest.approx(3.0)
        assert g.chi == pytest.approx(2.0)  # max(1, (d-1)) for d = 3
        assert g.beta_t == 1.0 and g.beta_n == 2.0
        assert g.zeta == 0.0  # h = x on a sphere

    def test_zeta_for_general_multiplier(self, unit_material, ball_domain):
        rob = core.RobinSpec.from_alpha(1.0, 4.0, unit_material)
        mult = core.MultiplierSpec(kind="perturbed", M=1.0, m=1.0, nu=1.0, eta=0.0, epsilon=0.0)
        g = core.derive_groups(unit_material, ball_domain, rob, omega=1.0, mult=mult)
        assert g.zeta == pytest.approx(4.0)  # 2 nu sqrt(alpha_max/alpha_min)

    def test_scale_invariance(self, unit_material):
        rob = core.RobinSpec.from_alpha(1.0, 1.0, unit_material)
        for s in (0.5, 2.0, 7.0):
            d1 = core.DomainSpec(d=3, ell=1.0, shape="ball")
            d2 = core.DomainSpec(d=3, ell=1.0 / s, shape="ball")
            g1 = core.derive_groups(unit_material, d1, rob, omega=2.0)
            g2 = core.derive_groups(unit_material, d2, rob, omega=2.0 * s)
            assert g1.kappa_s == pytest.approx(g2.kappa_s)

    def test_negative_omega_rejected(self, unit_material, ball_domain):
        rob = core.RobinSpec.from_alpha(1.0, 1.0, unit_material)
        with pytest.raises(ValueError):
            core.derive_groups(unit_material, ball_domain, rob, omega=-1.0)


class TestRadialAdmissibility:
    def test_constant_coefficients(self, unit_material, ball_domain):
        rep = core.check_radial_admissibility(unit_material, ball_domain)
        assert rep.theta == 0.0 and rep.gamma == 1.0

    def test_increasing_density_is_free(self, ball_domain):
        rho = core.radial_profile(lambda r: 1.0 + r, 1.0, 2.0, derivative=lambda r: np.ones_like(r))
        mat = core.MaterialField.radial(rho, core.constant_profile(1.0), core.constant_profile(1.0))
        rep = core.check_radial_admissibility(mat, ball_domain)
        assert rep.theta_rho == 0.0
        assert rep.gamma == pytest.approx(1.0)

    def test_quadratic_stiffness_growth(self, ball_domain):
        # mu = mu0 (1 + r^2/ell^2): sup of 2 r^2/(ell^2 + r^2) over [0, ell] is 1
        mu = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0, derivative=lambda r: 2.0 * r)
        mat = core.MaterialField.radial(core.constant_profile(1.0), mu, core.constant_profile(0.0))
        rep = core.check_radial_admissibility(mat, ball_domain)
        assert rep.theta_mu == pytest.approx(1.0, abs=1e-7)
        assert rep.gamma == pytest.approx(0.5, abs=1e-7)

    def test_centered_difference_fallback(self, ball_domain):
        mu = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0)  # no analytic derivative
        mat = core.MaterialField.radial(core.constant_profile(1.0), mu, core.constant_profile(0.0))
        rep = core.check_radial_admissibility(mat, ball_domain)
        assert rep.theta_mu == pytest.approx(1.0, abs=1e-5)

    def test_log_slope_difference_quotient_stays_inside_the_domain(self):
        # V_h(1 + r^2) = 2 r^2 / (1 + r^2) is 1 at r = ell = 1; a quotient
        # stepping past ell would leave the certified range [1, 2]
        prof = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0)
        assert prof.log_slope(1.0, 1.0) == pytest.approx(1.0, abs=1e-5)
        r = np.linspace(0.0, 1.0, 11)
        exact = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0, derivative=lambda r: 2.0 * r)
        assert np.allclose(prof.log_slope(r, 1.0), exact.log_slope(r, 1.0), atol=1e-5)
        assert np.allclose(exact.log_slope(r, 1.0), 2.0 * r**2 / (1.0 + r**2), rtol=1e-14, atol=0.0)

    def test_too_fast_growth_rejected(self, ball_domain):
        mu = core.radial_profile(lambda r: (0.1 + r) ** 4, 0.1**4, 1.1**4,
                                 derivative=lambda r: 4.0 * (0.1 + r) ** 3)
        mat = core.MaterialField.radial(core.constant_profile(1.0), mu, core.constant_profile(0.0))
        with pytest.raises(InadmissibleCoefficientsError):
            core.check_radial_admissibility(mat, ball_domain)

    def test_piecewise_monotone_accepted(self, ball_domain):
        rho = core.piecewise_radial_profile([0.0, 0.5], [1.0, 2.0])  # increasing outward
        mu = core.piecewise_radial_profile([0.0, 0.5], [3.0, 1.0])  # decreasing outward
        mat = core.MaterialField.radial(rho, mu, core.piecewise_radial_profile([0.0], [1.0]))
        rep = core.check_radial_admissibility(mat, ball_domain)
        assert rep.gamma == 1.0 and rep.theta == 0.0

    def test_piecewise_staircase_accepted(self, annulus_domain):
        rho = core.piecewise_radial_profile([0.0, 0.6, 0.6001, 0.8], [1.0, 1.5, 2.0, 3.0])
        mu = core.piecewise_radial_profile([0.0, 0.7, 0.7005, 0.9], [4.0, 3.0, 2.0, 1.0])
        mat = core.MaterialField.radial(rho, mu, mu)
        rep = core.check_radial_admissibility(mat, annulus_domain)
        assert rep.gamma == 1.0 and rep.theta == 0.0

    @pytest.mark.parametrize("breaks", [[0.0, 0.7, 0.7005], [0.0, 0.70001, 0.70002]],
                             ids=["layer-5e-4", "layer-1e-5"])
    @pytest.mark.parametrize("coefficient, values, message", [
        ("rho", [2.0, 1.0, 2.0], "rho decreases outward"),
        ("mu", [1.0, 2.0, 1.0], "mu increases outward"),
        ("lam", [1.0, 2.0, 1.0], "lambda increases outward"),
    ])
    def test_thin_piecewise_layer_refused(self, annulus_domain, breaks, coefficient, values, message):
        # a layer far thinner than the sample spacing still breaks monotonicity
        one = core.piecewise_radial_profile([0.0], [1.0])
        profiles = {"rho": one, "mu": one, "lam": one}
        profiles[coefficient] = core.piecewise_radial_profile(breaks, values)
        mat = core.MaterialField.radial(**profiles)
        with pytest.raises(InadmissibleCoefficientsError, match=message):
            core.check_radial_admissibility(mat, annulus_domain)

    def test_piecewise_monotonicity_violation(self, ball_domain):
        rho = core.piecewise_radial_profile([0.0, 0.5], [2.0, 1.0])  # decreasing: invalid
        mat = core.MaterialField.radial(
            rho, core.piecewise_radial_profile([0.0], [1.0]), core.piecewise_radial_profile([0.0], [1.0])
        )
        with pytest.raises(InadmissibleCoefficientsError):
            core.check_radial_admissibility(mat, ball_domain)
