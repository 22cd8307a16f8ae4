import dataclasses
import math

import field_oracle
import numpy as np
import pytest

from elastab import core, fem, fields
from elastab import identities as idn
from elastab.mesh import build_annulus_mesh
from elastab.quadrature import quadrature_for

VANISH_INNER = [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)]  # r^2 - r_in^2


@pytest.fixture(scope="module")
def probe():
    material = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    mesh = build_annulus_mesh(0.5, 1.0, 4, 32, order=2)
    system = fem.assemble(mesh, material, robin, omega=2.0)
    return material, robin, mesh, system


def _bump_and_points(center, radius, amplitude):
    """A radial bump with points inside, across and outside its support
    |x - c| < R, seven along each of three random directions."""
    bump = fields.RadialBumpField(center, radius, amplitude)
    u = np.random.default_rng(bump.d).normal(size=(3, bump.d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    s = np.array([0.0, 0.3, 0.8, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.4])
    return bump, (bump.c + bump.R * s[:, None, None] * u).reshape(-1, bump.d)


class TestFieldLibrary:
    def test_gradient_spot_checks(self):
        rng = np.random.default_rng(0)
        pts2 = rng.uniform(-0.5, 0.5, size=(10, 2))
        pts3 = rng.uniform(-0.5, 0.5, size=(10, 3))
        cases = [
            (fields.random_polynomial(2, 3, seed=1), pts2),
            (fields.plane_shear_wave(2, 2.0), pts2),
            (fields.RadialBumpField([0.1, 0.0], 0.6, [1.0, 1.0j]), pts2),
            (fields.random_polynomial(3, 2, seed=2), pts3),
            (fields.plane_pressure_wave(3, 1.5), pts3),
        ]
        for field, pts in cases:
            assert field_oracle.spot_check_gradient(field, pts) < 1e-6

    @pytest.mark.parametrize("f, pts", [
        (fields.random_polynomial(2, 3, seed=3), np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 2))),
        _bump_and_points([0.1, -0.2], 0.6, [1.0, 1.0j]),
        _bump_and_points([0.1, -0.2, 0.05], 0.5, [1.0, 0.5j, -2.0]),
    ], ids=["polynomial-2d", "bump-2d", "bump-3d"])
    def test_second_derivatives_consistent(self, f, pts):
        s = f.second(pts)
        step = 1e-5
        for j in range(f.d):
            e = np.zeros(f.d)
            e[j] = step
            fd = (f.grad(pts + e) - f.grad(pts - e)) / (2 * step)
            assert np.abs(fd - s[:, j]).max() < 1e-6 * max(np.abs(s).max(), 1.0)

    def test_polynomial_product(self):
        base = fields.random_polynomial(2, 2, seed=4)
        prod = base.multiply_scalar_polynomial(VANISH_INNER)
        pts = np.random.default_rng(2).uniform(-0.7, 0.7, size=(7, 2))
        expected = base.value(pts) * (np.sum(pts**2, axis=1) - 0.25)[:, None]
        assert np.allclose(prod.value(pts), expected)

    def test_rigid_rotation_strain_free(self):
        rot = field_oracle.rigid_rotation(2)
        pts = np.random.default_rng(3).uniform(-1, 1, size=(6, 2))
        g = rot.grad(pts)
        assert np.abs(g + np.swapaxes(g, 1, 2)).max() < 1e-15

    @pytest.mark.parametrize("monomial", [
        (-1, (1, 0), 1.0),
        (2, (1, 0), 1.0),
        (0, (-1, 0), 1.0),
        (0, (1, 0, 0), 1.0),
    ], ids=["component-negative", "component-d", "exponent-negative", "exponent-length"])
    def test_malformed_monomials_refused(self, monomial):
        with pytest.raises(ValueError):
            fields.PolynomialField(2, [monomial])

    def test_product_refuses_a_longer_exponent(self):
        base = fields.random_polynomial(2, 1, seed=0)
        with pytest.raises(ValueError):
            base.multiply_scalar_polynomial([((2, 0, 5), 1.0)])



def _assert_matches_oracle(field, points):
    """value/grad/second of ``field`` equal, bit for bit, the per-monomial
    oracle's."""
    for name in ("value", "grad", "second"):
        fast, ref = getattr(field, name)(points), getattr(field_oracle, name)(field, points)
        assert fast.shape == ref.shape, name
        assert np.array_equal(fast, ref), name


class TestPolynomialFastPath:
    """The derivative walk of PolynomialField (value, grad, second) against
    the per-monomial oracle in tests/field_oracle.py, bit for bit."""

    @staticmethod
    def _points(d):
        return np.random.default_rng(d).uniform(-1.0, 1.0, size=(40, d))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("degree", range(5))
    def test_random_polynomials(self, d, degree):
        field = fields.random_polynomial(d, degree, seed=degree)
        assert field.degree == degree
        _assert_matches_oracle(field, self._points(d))

    @pytest.mark.parametrize("d, vanish", [
        (2, VANISH_INNER),
        (3, [((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0), ((0, 0, 0), -0.25)]),
    ])
    def test_products_carry_duplicate_monomials(self, d, vanish):
        field = fields.random_polynomial(d, 2, seed=5).multiply_scalar_polynomial(vanish)
        keys = [(m.component, m.exponents) for m in field.monomials]
        assert len(set(keys)) < len(keys)
        assert field.degree == 4
        _assert_matches_oracle(field, self._points(d))

    @pytest.mark.parametrize("field", [
        fields.constant_field([1.0 + 0.5j, -0.3]),
        fields.constant_field([0.2, 1.0j, -2.0]),
        field_oracle.rigid_rotation(2),
        field_oracle.rigid_rotation(3, 0.5j),
    ], ids=["constant-2d", "constant-3d", "rotation-2d", "rotation-3d"])
    def test_library_fields(self, field):
        _assert_matches_oracle(field, self._points(field.d))


class TestSharedTables:
    """Inside ``fields.shared_tables`` every polynomial evaluation on the
    same points reads one monomial table, and moves no bit."""

    def test_morawetz_suite_builds_one_table_per_point_set(self, monkeypatch):
        # 33 tables on 4 point sets when each evaluation built its own
        from elastab import cli

        built = []
        table = fields._monomial_table
        monkeypatch.setattr(fields, "_monomial_table", lambda x: built.append(x.tobytes()) or table(x))
        with fields.shared_tables():
            cli._suite_morawetz(0)
        assert len(built) == len(set(built)) == 4

    def test_shared_evaluations_match_the_oracle(self):
        points = TestPolynomialFastPath._points(2)
        polynomials = [
            fields.random_polynomial(2, 4, seed=1),
            fields.random_polynomial(2, 2, seed=2).multiply_scalar_polynomial(VANISH_INNER),
            fields.constant_field([1.0 + 0.5j, -0.3]),
        ]
        with fields.shared_tables():
            for field in polynomials:
                _assert_matches_oracle(field, points)
                _assert_matches_oracle(field, points.copy())
            assert len(fields._TABLES.get()) == 1

    def test_a_table_ignores_later_writes_to_its_points(self):
        # the first evaluation forms one product; the later ones form the
        # rest from the points as they were when the table was made
        points = TestPolynomialFastPath._points(2)
        kept = points.copy()
        field = fields.random_polynomial(2, 3, seed=3)
        with fields.shared_tables():
            fields.PolynomialField(2, [(0, (3, 0), 1.0)]).value(points)
            points[0] += 1.0
            _assert_matches_oracle(field, points)
            _assert_matches_oracle(field, kept)

    def test_tables_live_for_the_block_only(self):
        field = fields.random_polynomial(2, 1, seed=0)
        assert fields._TABLES.get() is None
        with fields.shared_tables():
            outer = fields._TABLES.get()
            field.value(TestPolynomialFastPath._points(2))
            with fields.shared_tables():
                assert fields._TABLES.get() == {}
            assert fields._TABLES.get() is outer and len(outer) == 1
        assert fields._TABLES.get() is None
        with pytest.raises(RuntimeError), fields.shared_tables():
            raise RuntimeError
        assert fields._TABLES.get() is None


class TestExactOrder:
    """``PolynomialField.exact_order`` integrates every Rellich term exactly:
    it agrees with a much finer rule to rounding."""

    @pytest.mark.parametrize("domain, high", [
        (core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5), 24),
        (core.DomainSpec(d=2, ell=1.0, shape="ball"), 24),
        (core.DomainSpec(d=3, ell=1.0, shape="ball"), 16),
        (core.DomainSpec(d=3, ell=1.0, shape="annulus", r_in=0.5), 16),
    ], ids=["annulus-2d", "disk", "ball-3d", "shell-3d"])
    @pytest.mark.parametrize("p", range(1, 6))
    def test_rellich_matches_high_order(self, domain, high, p, generic_material):
        v = fields.random_polynomial(domain.d, p, seed=p)
        assert v.degree == p
        exact = idn.rellich_audit(v, domain, generic_material, order=v.exact_order)
        ref = idn.rellich_audit(v, domain, generic_material, order=high)
        assert exact.passed
        tol = 1e-13 * ref.scale
        assert abs(exact.lhs - ref.lhs) <= tol
        assert abs(exact.rhs - ref.rhs) <= tol
        assert exact.terms.keys() == ref.terms.keys()
        for name, value in ref.terms.items():
            assert abs(exact.terms[name] - value) <= tol, name


class TestQuadratureCache:
    def test_repeat_call_returns_the_same_rule(self):
        first = quadrature_for(core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5), 8)
        # the key is the domain's value, not its identity
        again = quadrature_for(core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5), 8)
        assert again is first

    @pytest.mark.parametrize("domain", [
        core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5),
        core.DomainSpec(d=3, ell=1.0, shape="annulus", r_in=0.5),
    ], ids=["annulus-2d", "shell-3d"])
    def test_cached_arrays_are_read_only(self, domain):
        quad = quadrature_for(domain, 6)
        arrays = [
            getattr(rule, f.name)
            for rule in (quad.volume, quad.dissipative, quad.dirichlet)
            for f in dataclasses.fields(rule)
        ]
        assert len(arrays) == 8
        for arr in arrays:
            before = arr.copy()
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr *= 2.0
            assert np.array_equal(arr, before)

    def test_distinct_domains_get_distinct_rules(self):
        from elastab.cli import _domain

        annulus_domain, disk_domain = _domain("annulus"), _domain("ball")
        annulus, disk = quadrature_for(annulus_domain, 32), quadrature_for(disk_domain, 32)
        assert annulus is not disk
        assert annulus.domain == annulus_domain and disk.domain == disk_domain
        assert annulus.dirichlet is not None and disk.dirichlet is None
        r_annulus = np.linalg.norm(annulus.volume.points, axis=1)
        r_disk = np.linalg.norm(disk.volume.points, axis=1)
        assert r_annulus.min() > 0.5 > r_disk.min()


class TestRellich:
    def test_constant_field_all_terms_vanish(self, ball_domain, generic_material):
        rep = idn.rellich_audit(fields.constant_field([1.0 + 1j, 0.3, -0.2]), ball_domain,
                                generic_material)
        assert rep.passed
        assert abs(rep.lhs) < 1e-14 and abs(rep.rhs) < 1e-14

    def test_linear_field_on_ball_closed_form(self, ball_domain, generic_material):
        # oracle: for v = A x both sides equal (d-2)|Omega| Q, boundary terms
        # ell |dB| Q and (2 ell |dB| / d) Q with Q = 2 mu |E|^2 + lam |tr A|^2,
        # and the identity reduces to 0 = (-d + 2 - 2 + d) Q |Omega|
        a = np.array([[0.3, 0.1, 0.0], [0.2, -0.4, 0.5], [0.0, 0.7, 0.1]]) + 0.2j * np.eye(3)
        v = field_oracle.linear_field(a)
        rep = idn.rellich_audit(v, ball_domain, generic_material)
        assert rep.passed
        mu, lam = generic_material.mu_min, generic_material.lam_min
        strain = 0.5 * (a + a.T)
        q = 2.0 * mu * float(np.sum(np.abs(strain) ** 2)) + lam * abs(np.trace(a)) ** 2
        vol = 4.0 * math.pi / 3.0
        assert rep.terms["r_omega"] == pytest.approx((3 - 2) * q * vol, rel=1e-12)
        assert rep.terms["b_diss"] == pytest.approx(3.0 * q * vol, rel=1e-12)
        assert rep.terms["r_diss"] == pytest.approx(2.0 * q * vol, rel=1e-12)

    def test_random_polynomials(self, annulus_domain, generic_material):
        for seed in range(5):
            v = fields.random_polynomial(2, 3, seed=seed)
            rep = idn.rellich_audit(v, annulus_domain, generic_material, tol=1e-8)
            assert rep.passed, rep.rel_gap

    def test_plane_shear_wave(self, annulus_domain, generic_material):
        v = fields.plane_shear_wave(2, 2.0)
        rep = idn.rellich_audit(v, annulus_domain, generic_material, order=32, tol=1e-6)
        assert rep.passed, rep.rel_gap

    def test_gap_decreases_under_quadrature_refinement(self, annulus_domain, generic_material):
        # an oscillatory smooth field under-resolved at low order: the gap
        # must fall faster than second order in the rule density
        wave = fields.plane_shear_wave(2, 14.0)
        gaps = [
            idn.rellich_audit(wave, annulus_domain, generic_material, order=o).rel_gap
            for o in (6, 9, 12)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        rate = math.log(gaps[0] / gaps[2]) / math.log(2.0)
        assert rate >= 2.0

    def test_simplified_volume_term_matches_lemma(self, annulus_domain, generic_material):
        # the radial-multiplier specialization must agree with the general
        # volume term; a factor discrepancy would flag here
        v = fields.random_polynomial(2, 3, seed=17)
        rep = idn.rellich_audit(v, annulus_domain, generic_material)
        assert rep.terms["simplification_gap"] < 1e-10 * rep.scale


class TestMassIdentity:
    def test_constant_field_divergence_theorem(self, disk_domain):
        mat = core.MaterialField.constant(1.3, 1.0, 1.0)
        rep = idn.mass_identity_audit(fields.constant_field([1.0, 2.0]), disk_domain, mat)
        assert rep.passed
        # LHS is zero; volume and boundary terms cancel by the divergence theorem
        assert abs(rep.lhs) < 1e-13 * rep.scale

    def test_radial_density(self, annulus_domain):
        prof = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0, derivative=lambda r: 2.0 * r)
        mat = core.MaterialField.radial(prof, core.constant_profile(1.0), core.constant_profile(1.0))
        for seed in range(3):
            rep = idn.mass_identity_audit(
                fields.random_polynomial(2, 3, seed=seed), annulus_domain, mat, tol=1e-8
            )
            assert rep.passed, rep.rel_gap

    def test_compact_support_kills_boundary(self, annulus_domain):
        mat = core.MaterialField.constant(1.0, 1.0, 1.0)
        bump = fields.RadialBumpField([0.7, 0.0], 0.15, [1.0, 1.0j])
        rep = idn.mass_identity_audit(bump, annulus_domain, mat, order=48, tol=1e-6)
        assert rep.passed
        assert rep.terms["boundary"] == 0.0


class TestMorawetz:
    def test_zero_solution(self, annulus_domain, generic_material):
        u = fields.constant_field([0.0, 0.0])
        rep = idn.morawetz_audit(u, annulus_domain, generic_material, omega=2.0)
        assert abs(rep.lhs) < 1e-300 or rep.rel_gap == 0.0

    def test_manufactured_polynomial_solutions(self, annulus_domain, generic_material):
        for seed in range(3):
            u = fields.random_polynomial(2, 2, seed=seed).multiply_scalar_polynomial(VANISH_INNER)
            rep = idn.morawetz_audit(u, annulus_domain, generic_material, omega=2.0, tol=1e-6)
            assert rep.passed, rep.rel_gap

    def test_variable_density(self, annulus_domain):
        prof = core.radial_profile(lambda r: 1.0 + 0.5 * r**2, 1.0, 1.5, derivative=lambda r: r)
        mat = core.MaterialField.radial(prof, core.constant_profile(1.5), core.constant_profile(2.0))
        u = fields.random_polynomial(2, 2, seed=7).multiply_scalar_polynomial(VANISH_INNER)
        rep = idn.morawetz_audit(u, annulus_domain, mat, omega=1.5, tol=1e-6)
        assert rep.passed, rep.rel_gap

    def test_varying_lame_coefficients_have_no_manufactured_load(self, annulus_domain):
        prof = core.radial_profile(lambda r: 1.0 + 0.5 * r**2, 1.0, 1.5, derivative=lambda r: r)
        mat = core.MaterialField.radial(core.constant_profile(1.0), prof, core.constant_profile(2.0))
        u = fields.random_polynomial(2, 2, seed=7).multiply_scalar_polynomial(VANISH_INNER)
        with pytest.raises(ValueError, match="constant Lame"):
            idn.morawetz_audit(u, annulus_domain, mat, omega=1.5)

    def test_work_is_mass_plus_rellich(self, annulus_domain, generic_material):
        # rho f = -omega^2 rho u - div sigma(u): the work term is omega^2 times
        # the mass identity's left side plus the Rellich identity's
        omega = 1.7
        for seed in range(3):
            u = fields.random_polynomial(2, 2, seed=seed).multiply_scalar_polynomial(VANISH_INNER)
            work = idn.morawetz_audit(u, annulus_domain, generic_material, omega=omega).terms["work"]
            mass = idn.mass_identity_audit(u, annulus_domain, generic_material)
            rellich = idn.rellich_audit(u, annulus_domain, generic_material)
            assert work == pytest.approx(omega**2 * mass.lhs + rellich.lhs, rel=1e-10)

    def test_discrete_gap_shrinks_under_refinement(self):
        material = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.shear_matched(material)
        ff = fields.random_polynomial(2, 2, seed=8)
        gaps = []
        for nt in (64, 128):
            mesh = build_annulus_mesh(0.5, 1.0, max(2, nt // 12), nt, order=2)
            system = fem.assemble(mesh, material, robin, omega=2.0)
            f = ff.value(mesh.nodes)
            res = fem.solve(system, f)
            gaps.append(idn.morawetz_audit_discrete(res, system, f).rel_gap)
        assert gaps[1] < gaps[0]


class TestDirichletBoundarySign:
    def test_b_dir_nonnegative_for_vanishing_fields(self, annulus_domain, generic_material):
        # h.n <= 0 on the obstacle: the Dirichlet boundary term helps
        for seed in range(5):
            u = fields.random_polynomial(2, 2, seed=seed).multiply_scalar_polynomial(VANISH_INNER)
            rep = idn.morawetz_audit(u, annulus_domain, generic_material, omega=1.0)
            assert rep.terms["b_dir"] >= -1e-10 * rep.scale


class TestKorn:
    def test_zero_field(self, disk_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 1.0, unit_material)
        groups = core.derive_groups(unit_material, disk_domain, robin, omega=2.0)
        basic, weighted = idn.korn_audit(
            fields.constant_field([0.0, 0.0]), disk_domain, robin, groups, unit_material
        )
        assert basic.slack == 0.0 and basic.passed
        assert weighted.passed

    def test_compact_support_reduces_to_free_space(self, disk_domain, unit_material):
        # interior fields: |grad v|^2 <= 2 |eps(v)|^2 with slack |div v|^2
        robin = core.RobinSpec.from_alpha(1.0, 1.0, unit_material)
        groups = core.derive_groups(unit_material, disk_domain, robin, omega=2.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            bump = fields.RadialBumpField(
                rng.uniform(-0.4, 0.4, size=2), rng.uniform(0.1, 0.3),
                rng.normal(size=2) + 1j * rng.normal(size=2),
            )
            basic, weighted = idn.korn_audit(bump, disk_domain, robin, groups, unit_material, order=32)
            assert basic.passed and weighted.passed
            assert basic.terms["vt2"] < 1e-12  # no boundary trace

    def test_field_vanishing_on_obstacle(self, annulus_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 2.0, unit_material)
        groups = core.derive_groups(unit_material, annulus_domain, robin, omega=3.0)
        v = fields.constant_field([1.0, 0.5]).multiply_scalar_polynomial(VANISH_INNER)
        basic, weighted = idn.korn_audit(v, annulus_domain, robin, groups, unit_material)
        assert basic.passed and basic.slack > 0.0
        assert weighted.passed and weighted.slack > 0.0


def _report_values(report) -> dict:
    """lhs, rhs and every term of a report, as complex numbers."""
    out = {"lhs": complex(report.lhs), "rhs": complex(report.rhs)}
    for name, value in report.terms.items():
        out[name] = complex(value["re"], value["im"]) if isinstance(value, dict) else complex(value)
    return out


class TestSupportSizedSamples:
    def test_bump_audits_match_the_full_rule(self, disk_domain, unit_material, monkeypatch):
        # a bump's volume samples keep only the rule points inside its
        # support; every audit of the suites' bumps matches the same audit
        # on the whole rule, term by term
        from elastab import cli

        robin = core.RobinSpec.from_alpha(1.0, 2.0, unit_material)
        groups = core.derive_groups(unit_material, disk_domain, robin, omega=2.0)
        # a bump between the order-32 rule's points: no point inside
        centre = np.array([0.013, -0.021])
        rule = quadrature_for(disk_domain, 32).volume.points
        empty = fields.RadialBumpField(centre, 0.5 * np.linalg.norm(rule - centre, axis=1).min(), [1.0, 1.0j])
        assert not empty.support(rule).any()
        assert idn._vol_samples(empty, quadrature_for(disk_domain, 32)).w.size == 0

        def audits():
            # the Korn suite's 20 bumps (and its 3 annulus fields) at two
            # seeds, the mass suite's bump, and the empty bump
            reports = cli._SUITES["korn"](0) + cli._SUITES["korn"](1) + cli._SUITES["mass"](0)
            reports += idn.korn_audit(empty, disk_domain, robin, groups, unit_material, order=32)
            return reports + [idn.mass_identity_audit(empty, disk_domain, unit_material, order=32)]

        sized = audits()
        monkeypatch.setattr(fields.RadialBumpField, "support", fields.AnalyticField.support)
        full = audits()
        assert len(sized) == len(full) == 2 * 46 + 3 + 3
        for got, exact in zip(sized, full):
            assert got.name == exact.name and got.passed and exact.passed
            got_values, exact_values = _report_values(got), _report_values(exact)
            assert got_values.keys() == exact_values.keys()
            for name, value in exact_values.items():
                assert abs(got_values[name] - value) <= 1e-14 * abs(value), (got.name, name)


class TestRobinIdentity:
    def test_constant_field(self, disk_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 2.0, unit_material)
        rep = idn.robin_identity_audit(
            fields.constant_field([1.0 + 0.5j, -0.3]), disk_domain, robin, tol=1e-8
        )
        assert rep.passed, rep.rel_gap

    def test_tangential_field_normal_terms_vanish(self, disk_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 2.0, unit_material)
        tangential = fields.PolynomialField(2, [(0, (0, 1), -1.0), (1, (1, 0), 1.0)])
        rep = idn.robin_identity_audit(tangential, disk_domain, robin, tol=1e-8)
        assert rep.passed
        assert abs(rep.terms["t4"]["re"]) < 1e-12 and abs(rep.terms["t5"]["re"]) < 1e-12

    def test_random_quadratics(self, disk_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 2.0, unit_material)
        for seed in range(5):
            v = fields.random_polynomial(2, 2, seed=seed)
            rep = idn.robin_identity_audit(v, disk_domain, robin, tol=1e-8)
            assert rep.passed, rep.rel_gap

    def test_sphere_case(self, ball_domain, unit_material):
        robin = core.RobinSpec.from_alpha(1.0, 3.0, unit_material)
        v = fields.random_polynomial(3, 2, seed=9)
        rep = idn.robin_identity_audit(v, ball_domain, robin, order=32, tol=1e-8)
        assert rep.passed, rep.rel_gap


class TestGardingAudit:
    def test_zero_load(self, probe):
        material, robin, mesh, system = probe
        f = np.zeros((mesh.n_nodes, 2))
        res = fem.solve(system, f)
        r_re, r_im = idn.garding_audit(res, system, f)
        assert r_re.passed and r_im.passed

    def test_random_loads(self, probe):
        material, robin, mesh, system = probe
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
            res = fem.solve(system, f)
            r_re, r_im = idn.garding_audit(res, system, f)
            assert r_re.passed and r_re.rel_gap <= 1e-10
            assert r_im.passed and r_im.rel_gap <= 1e-10
            # boundary dissipation is nonnegative
            assert r_im.lhs >= 0.0


class TestChain:
    def test_zero_load_all_sides_zero(self, probe):
        material, robin, mesh, system = probe
        domain = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        mult = core.multiplier_for(domain)
        groups = core.derive_groups(material, domain, robin, omega=2.0, mult=mult)
        f = np.zeros((mesh.n_nodes, 2))
        res = fem.solve(system, f)
        chain = idn.estimate_chain_audit(res, system, f, groups, mult)
        for link in chain.links:
            assert abs(link.lhs) < 1e-30 and abs(link.rhs) < 1e-30 or link.passed

    def test_positive_slack_on_solves(self, probe):
        material, robin, mesh, system = probe
        domain = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        mult = core.multiplier_for(domain)
        groups = core.derive_groups(material, domain, robin, omega=2.0, mult=mult)
        rng = np.random.default_rng(7)
        for _ in range(3):
            f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
            res = fem.solve(system, f)
            chain = idn.estimate_chain_audit(res, system, f, groups, mult)
            assert chain.passed
            for link in chain.links:
                assert link.slack > 0.0
            assert chain.assembled_bound <= chain.theorem_bound

    def test_starred_exponents_dominate(self, probe):
        material, robin, mesh, system = probe
        domain = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        mult = core.multiplier_for(domain)
        groups = core.derive_groups(material, domain, robin, omega=4.0, mult=mult)
        from elastab.bounds import assembled_bound_raw

        starred = assembled_bound_raw(4.0, groups, mult, 2)
        naive = assembled_bound_raw(4.0, groups, mult, 2, theta=1.0, tau=0.0)
        assert starred <= naive
