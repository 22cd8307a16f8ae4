"""Independent cross-check of the annulus probe against the dense per-mode
spectral oracle of ``spectral_oracle``."""

import math

import pytest

from elastab import core, fem
from spectral_oracle import annulus_constant_oracle, mode_resolvent_norm


class TestSpectralOracle:
    def test_matches_fem_probe_at_kappa_2(self):
        material = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1.0,))
        mesh = fem.resolution_mesh(cfg, 2.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=2.0).c_emp
        c_oracle = annulus_constant_oracle(2.0)
        assert abs(c_fem - c_oracle) / c_oracle < 0.01

    def test_matches_fem_probe_at_kappa_8(self):
        material = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(8.0,), lambda_over_mu=(1.0,))
        mesh = fem.resolution_mesh(cfg, 8.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=8.0).c_emp
        c_oracle = annulus_constant_oracle(8.0)
        assert abs(c_fem - c_oracle) / c_oracle < 0.02

    def test_incompressible_limit_agrees(self):
        # 1D radial elements cannot lock: the oracle shows the constant is
        # uniform in lambda/mu to high accuracy (the maximizing response is
        # divergence-free), far inside the 1.25 budget of the probe
        cs = [annulus_constant_oracle(2.0, lam_ratio=r) for r in (1.0, 1e2, 1e4)]
        assert max(cs) / min(cs) < 1.0 + 1e-4
        # the 2D probe at lambda/mu = 1e4 sits a few percent below the true
        # value (mild volumetric locking underestimates, never overestimates)
        material = core.MaterialField.constant(1.0, 1.0, 1e4)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1e4,), n_theta_min=48,
                              resolution_margin=2.0)
        mesh = fem.resolution_mesh(cfg, 2.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=2.0).c_emp
        assert c_fem <= cs[-1] * 1.001
        assert c_fem >= cs[-1] * 0.92

    def test_oracle_confirms_crossover_slope(self):
        # the super-linear growth window of the probe is a property of the
        # continuous problem, reproduced by the independent discretization
        c2 = annulus_constant_oracle(2.0)
        c8 = annulus_constant_oracle(8.0)
        slope = math.log(c8 / c2) / math.log(4.0)
        assert 1.4 < slope < 1.55

    def test_mode_zero_matches_radial_symmetry(self):
        # m = 0 splits into decoupled radial and torsional problems; the
        # resolvent norm must not depend on the sign of m either
        s_plus = mode_resolvent_norm(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3)
        s_minus = mode_resolvent_norm(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, -3)
        assert s_plus == pytest.approx(s_minus, rel=1e-10)
