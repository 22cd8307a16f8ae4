import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastab import bounds, core


@pytest.fixture(scope="module")
def unit_groups_3d():
    mat = core.MaterialField.constant(1.0, 1.0, 1.0)
    dom = core.DomainSpec(d=3, ell=1.0, shape="ball")
    rob = core.RobinSpec.from_alpha(1.0, 1.0, mat)
    mult = core.multiplier_for(dom)
    return core.derive_groups(mat, dom, rob, omega=1.0, mult=mult), mult


class TestQuadraticRootBound:
    def test_pure_quadratic(self):
        # x^2 <= 4 means x <= 2; tiny b keeps the hypothesis honest
        assert bounds.quadratic_root_bound(1.0, 1e-12, 4.0) == pytest.approx(2.0)

    def test_golden_ratio_case(self):
        # positive root of x^2 = 1 + x is ~1.618 <= 2
        assert bounds.quadratic_root_bound(1.0, 1.0, 1.0) == pytest.approx(2.0)
        root = 0.5 * (1.0 + math.sqrt(5.0))
        assert root <= 2.0

    def test_frozen_example(self):
        assert bounds.quadratic_root_bound(4.0, 2.0, 9.0) == pytest.approx(8.0)
        root = (2.0 + math.sqrt(4.0 + 4 * 4 * 9)) / 8.0
        assert 4.0 * root <= 8.0

    def test_rejects_nonpositive(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                bounds.quadratic_root_bound(*bad)

    @given(
        a=st.floats(1e-3, 1e3),
        b=st.floats(1e-3, 1e3),
        c=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=1000, deadline=None)
    def test_dominates_positive_root(self, a, b, c):
        # x solves a x^2 = c + b x, so a x <= sqrt(a c) + b must hold
        x = (b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
        assert a * x <= bounds.quadratic_root_bound(a, b, c) * (1.0 + 1e-12)


class TestSimpleRobin:
    def test_unit_configuration_value(self, unit_groups_3d):
        groups, mult = unit_groups_3d
        rep = bounds.stability_simple_robin(groups, mult, d=3)
        expected = 0.5 + math.sqrt(2.0) + 0.25 + 13.0 / 4.0 + 33.0 / 16.0
        assert rep.bound_value == pytest.approx(expected)

    def test_kappa_to_zero_leaves_constant_term(self, unit_groups_3d):
        groups, mult = unit_groups_3d
        g0 = core.DimensionlessGroups(
            kappa_s=1e-30, alpha_t=1.0, alpha_n=1.0, alpha_min=1.0, alpha_max=1.0,
            beta_t=1.0, beta_n=2.0, chi=2.0, zeta=0.0, c_rob=3.0,
        )
        rep = bounds.stability_simple_robin(g0, mult, d=3)
        assert rep.bound_value == pytest.approx(0.5, abs=1e-4)

    def test_zero_frequency_in_2d_is_a_zero_bound(self, unit_groups_3d):
        # d = 2 and zeta = 0 kill the constant terms; at kappa_s = 0 every
        # power vanishes, and omega^2 ||u|| <= 0 is true
        _, mult = unit_groups_3d
        mat = core.MaterialField.constant(1.0, 1.0, 1.0)
        dom = core.DomainSpec(d=2, ell=1.0, shape="ball")
        groups = core.derive_groups(mat, dom, core.RobinSpec.from_alpha(1.0, 1.0, mat), omega=0.0)
        assert bounds.stability_simple_robin(groups, core.multiplier_for(dom), d=2).bound_value == 0.0

    @pytest.mark.parametrize("value", [-1e-300, math.nan])
    def test_report_rejects_negative_or_nan(self, value):
        with pytest.raises(ValueError):
            bounds.BoundReport(bound_name="x", bound_value=value)

    def test_m_over_m_ratio_invariance(self, unit_groups_3d):
        groups, _ = unit_groups_3d
        m1 = core.MultiplierSpec(kind="perturbed", M=1.0, m=1.0, nu=1.0, eta=0.0, epsilon=0.0)
        m2 = core.MultiplierSpec(kind="perturbed", M=2.0, m=2.0, nu=1.0, eta=0.0, epsilon=0.0)
        r1 = bounds.stability_simple_robin(groups, m1, d=2)
        r2 = bounds.stability_simple_robin(groups, m2, d=2)
        # d = 2 kills the (d-2+eps)/(2M) term; with zeta = 0 the brackets
        # depend on (M, m) only through M/m, and the normalization is M/gamma
        assert r2.bound_value == pytest.approx(2.0 * r1.bound_value)

    def test_consistency_with_corollary(self, unit_groups_3d):
        # at chi = 1/alpha_min = 1 the simple-Robin bound reproduces the
        # specialized star-shaped-obstacle constant exactly
        groups, mult = unit_groups_3d
        for kappa in [2.0**k / 16.0 for k in range(13)]:
            g = core.DimensionlessGroups(
                kappa_s=kappa, alpha_t=1.0, alpha_n=1.0, alpha_min=1.0, alpha_max=1.0,
                beta_t=1.0, beta_n=2.0, chi=1.0, zeta=0.0, c_rob=3.0,
            )
            rep = bounds.stability_simple_robin(g, mult, d=3)
            assert rep.bound_value == pytest.approx(bounds.bound_obstacle_ideal(kappa, 3).full)

    def test_inadmissible_multiplier_rejected(self, unit_groups_3d):
        groups, _ = unit_groups_3d
        bad = core.MultiplierSpec(kind="identity", M=1.0, m=0.0, nu=1.0, eta=0.0, epsilon=0.0)
        with pytest.raises(Exception):
            bounds.stability_simple_robin(groups, bad, d=3)


class TestObstacleBounds:
    def test_ideal_frozen_values(self):
        full, simplified = bounds.bound_obstacle_ideal(1.0, 3)
        assert full == pytest.approx(7.0625)
        assert simplified == pytest.approx(8.0)
        full, simplified = bounds.bound_obstacle_ideal(0.0, 2)
        assert full == 0.0 and simplified == 3.0
        full, simplified = bounds.bound_obstacle_ideal(64.0, 3)
        assert full == pytest.approx(187.5)
        assert simplified == pytest.approx(323.0)

    def test_dominance_on_kappa_grid(self):
        for d in (2, 3):
            for k in range(13):
                kappa = 2.0**k / 16.0
                full, simplified = bounds.bound_obstacle_ideal(kappa, d)
                assert full <= simplified + 1e-12

    def test_realistic_frozen_values(self):
        assert bounds.bound_obstacle_realistic(1.0, 0.0) == pytest.approx(7.25)
        expected = 0.5 + 1.0 + 0.25 + (3.5 + math.sqrt(2.0) / 2.0) + 2.5
        assert bounds.bound_obstacle_realistic(1.0, 2.0) == pytest.approx(expected)
        assert bounds.bound_obstacle_realistic(0.0, 123.0) == pytest.approx(0.5)

    def test_monotonicity(self):
        kappas = np.linspace(0.0, 16.0, 40)
        for d in (2, 3):
            fulls = [bounds.bound_obstacle_ideal(k, d).full for k in kappas]
            assert all(b2 >= b1 for b1, b2 in zip(fulls, fulls[1:]))
        vals = [bounds.bound_obstacle_realistic(2.0, r) for r in np.linspace(0.0, 50.0, 30)]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        vals = [bounds.bound_fundamental(k) for k in kappas]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            bounds.bound_obstacle_ideal(-1.0, 2)
        with pytest.raises(ValueError):
            bounds.bound_obstacle_realistic(1.0, -0.1)


class TestGeneralRobin:
    def test_supplied_constant(self):
        rep = bounds.bound_general_robin(0.0, bounds.GenericConstants(c_general=5.0))
        assert rep.bound_value == pytest.approx(5.0) and not rep.symbolic
        rep = bounds.bound_general_robin(3.0, bounds.GenericConstants(c_general=1.0))
        assert rep.bound_value == pytest.approx(10.0)

    def test_symbolic_placeholder(self):
        rep = bounds.bound_general_robin(2.0)
        assert rep.symbolic
        assert rep.bound_value == pytest.approx(5.0)
        assert rep.inputs["scaling"] == "quadratic"

    def test_constants_validated(self):
        with pytest.raises(ValueError):
            bounds.GenericConstants(c_general=0.5)


class TestFundamental:
    def test_frozen_values(self):
        assert bounds.bound_fundamental(0.0) == 4.0
        assert bounds.bound_fundamental(1.0) == 21.0
        assert bounds.bound_fundamental(2.0) == 38.0


class TestAssembledRaw:
    def test_starred_exponents_beat_naive_at_kappa_4(self, unit_groups_3d):
        mat = core.MaterialField.constant(1.0, 1.0, 1.0)
        dom = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        rob = core.RobinSpec.from_alpha(1.0, 1.0, mat)
        mult = core.multiplier_for(dom)
        g = core.derive_groups(mat, dom, rob, omega=4.0, mult=mult)
        starred = bounds.assembled_bound_raw(4.0, g, mult, 2)
        naive = bounds.assembled_bound_raw(4.0, g, mult, 2, theta=1.0, tau=0.0)
        assert starred <= naive

    def test_theorem_dominates_raw(self, unit_groups_3d):
        groups, mult = unit_groups_3d
        for kappa in (0.5, 1.0, 2.0, 8.0):
            g = core.DimensionlessGroups(
                kappa_s=kappa, alpha_t=1.0, alpha_n=1.0, alpha_min=1.0, alpha_max=1.0,
                beta_t=1.0, beta_n=2.0, chi=2.0, zeta=0.0, c_rob=3.0,
            )
            raw = bounds.assembled_bound_raw(kappa, g, mult, 3)
            theorem = bounds.stability_simple_robin(g, mult, 3).bound_value
            assert raw <= theorem + 1e-12
