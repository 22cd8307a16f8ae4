import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from elastab import core, fem, fields
from elastab.errors import ConfigError, IterationError, MeshError, SolverError
from elastab.mesh import DIRICHLET, DISSIPATIVE, build_annulus_mesh


@pytest.fixture(scope="module")
def material():
    return core.MaterialField.constant(1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def robin(material):
    return core.RobinSpec.shear_matched(material)


class TestMesh:
    def test_counting(self):
        m = build_annulus_mesh(0.5, 1.0, 2, 8, order=1)
        assert m.n_cells == 32
        assert m.n_vertices == 24
        assert m.n_nodes == 24

    def test_boundary_tags(self):
        m = build_annulus_mesh(0.5, 1.0, 3, 12, order=2)
        inner = m.boundary_nodes(DIRICHLET)
        outer = m.boundary_nodes(DISSIPATIVE)
        assert np.allclose(np.linalg.norm(m.nodes[inner], axis=1), 0.5)
        assert np.allclose(np.linalg.norm(m.nodes[outer], axis=1), 1.0)
        # every angular segment contributes one edge per circle
        assert sum(1 for e in m.boundary_edges if e.tag == DIRICHLET) == 12
        assert sum(1 for e in m.boundary_edges if e.tag == DISSIPATIVE) == 12

    def test_area_convergence(self):
        exact = math.pi * (1.0 - 0.25)
        m = build_annulus_mesh(0.5, 1.0, 22, 256, order=1)
        _, w, _ = fem.evaluate_volume(m, [np.zeros((m.n_nodes, 2))])
        assert abs(w.sum() - exact) / exact <= 1e-3
        # curved order-2 geometry converges much faster
        m2 = build_annulus_mesh(0.5, 1.0, 6, 64, order=2)
        _, w2, _ = fem.evaluate_volume(m2, [np.zeros((m2.n_nodes, 2))])
        assert abs(w2.sum() - exact) / exact <= 1e-6

    def test_midside_numbering(self):
        # midside nodes are numbered in the order their edges are first met,
        # walking cells in order and edges (0,1), (1,2), (2,0) in each
        m = build_annulus_mesh(0.5, 1.0, 2, 8, order=2)
        assert m.conn[:3].tolist() == [
            [0, 8, 9, 24, 25, 26], [0, 9, 1, 26, 27, 28], [1, 9, 10, 27, 29, 30],
        ]
        assert m.conn[15].tolist() == [7, 8, 0, 54, 24, 55]  # wraps past angle 0
        assert m.conn[-1].tolist() == [15, 16, 8, 79, 56, 53]
        seen = {}
        for p, q, s in m.conn[:, :3].tolist():
            for a, b in ((p, q), (q, s), (s, p)):
                seen.setdefault((min(a, b), max(a, b)), m.n_vertices + len(seen))
        expected = [
            [seen[min(a, b), max(a, b)] for a, b in ((p, q), (q, s), (s, p))]
            for p, q, s in m.conn[:, :3].tolist()
        ]
        assert m.conn[:, 3:].tolist() == expected
        assert m.n_nodes == m.n_vertices + len(seen)
        # circumferential midsides sit on their circle, the others halfway
        r = np.linalg.norm(m.nodes, axis=1)
        for (a, b), node in seen.items():
            if math.isclose(r[a], r[b]):
                assert math.isclose(r[node], r[a], rel_tol=1e-15)
            else:
                assert np.array_equal(m.nodes[node], 0.5 * (m.nodes[a] + m.nodes[b]))
        assert [tuple(e.nodes) for e in m.boundary_edges[:2]] == [(1, 0, 28), (16, 17, 57)]

    def test_degenerate_parameters(self):
        with pytest.raises(MeshError):
            build_annulus_mesh(1.5, 1.0, 4, 16)
        with pytest.raises(MeshError):
            build_annulus_mesh(0.5, 1.0, 1, 16)
        with pytest.raises(MeshError):
            build_annulus_mesh(0.5, 1.0, 4, 4)

    def test_resolution_report(self):
        m = build_annulus_mesh(0.5, 1.0, 4, 48, order=2)
        ppw = m.points_per_wavelength(omega=2.0, theta_s_min=1.0)
        # wavelength pi at omega 2; effective spacing ~ 0.13/2
        assert 30.0 < ppw < 70.0


class TestAssembly:
    def test_rigid_translation_in_kernel(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=1.0)
        v = np.tile([1.0, -2.0], (m.n_nodes, 1)).reshape(-1)
        assert np.abs(s.stiffness @ v).max() < 1e-12 * np.abs(s.stiffness.data).max()

    def test_rigid_rotation_in_kernel(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=1.0)
        v = np.stack([-m.nodes[:, 1], m.nodes[:, 0]], axis=1).reshape(-1)
        assert np.abs(s.stiffness @ v).max() < 1e-12 * np.abs(s.stiffness.data).max()

    def test_constant_strain_patch(self, material, robin):
        # linear displacement reproduces the exact energy on the discrete
        # geometry (isoparametric spaces contain linear fields)
        m = build_annulus_mesh(0.5, 1.0, 4, 24, order=2)
        s = fem.assemble(m, material, robin, omega=1.0)
        a = np.array([[0.3, 0.1], [0.2, -0.4]])
        v = (m.nodes @ a.T).reshape(-1)
        strain = 0.5 * (a + a.T)
        density = 2.0 * material.mu_min * np.sum(strain * strain) + material.lam_min * np.trace(a) ** 2
        _, w, _ = fem.evaluate_volume(m, [np.zeros((m.n_nodes, 2))])
        assert v @ (s.stiffness @ v) == pytest.approx(density * w.sum(), rel=1e-13)

    def test_matrix_structure(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        for mat_ in (s.stiffness, s.mass, s.robin_matrix):
            asym = np.abs(mat_ - mat_.T).max()
            assert asym < 1e-12 * max(np.abs(mat_.data).max(), 1.0)
        # mass positive definite on free dofs, robin PSD supported on the boundary
        rng = np.random.default_rng(0)
        z = rng.normal(size=s.free.size)
        m_ff = s.mass[s.free][:, s.free]
        assert z @ (m_ff @ z) > 0.0
        r_full = s.robin_matrix
        z2 = rng.normal(size=s.n_dofs)
        assert z2 @ (r_full @ z2) >= -1e-14
        diss_dofs = set()
        for n in s.mesh.boundary_nodes(DISSIPATIVE):
            diss_dofs.update((2 * n, 2 * n + 1))
        nz_rows = np.unique(r_full.tocoo().row)
        assert set(nz_rows).issubset(diss_dofs)

    def test_energy_dissipation_sign(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        smat = s.system_matrix()
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.normal(size=s.n_dofs) + 1j * rng.normal(size=s.n_dofs)
            quad = np.vdot(u, smat @ u)
            assert quad.imag <= 1e-12 * abs(quad)


def _per_edge(mesh, tag):
    """Each edge tagged ``tag`` with its edge shape values, points and arc
    weights, one edge at a time: the loop the vectorised boundary path
    replaced, kept as its oracle."""
    en, edn = fem._edge_shapes(mesh.order, fem._EDGE_QP)
    for e in mesh.boundary_edges:
        if e.tag == tag:
            xe = mesh.nodes[list(e.nodes)]
            yield e, en, en @ xe, np.linalg.norm(edn @ xe, axis=1) * fem._EDGE_QW


def _robin_reference(mesh, robin):
    r = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
    for e, en, xq, ds in _per_edge(mesh, DISSIPATIVE):
        for q, x in enumerate(xq):
            n = x / np.linalg.norm(x)
            amat = robin.a_t * np.eye(2) + (robin.a_n - robin.a_t) * np.outer(n, n)
            for a, na in enumerate(e.nodes):
                for b, nb in enumerate(e.nodes):
                    r[2 * na:2 * na + 2, 2 * nb:2 * nb + 2] += ds[q] * en[q, a] * en[q, b] * amat
    return r


def _load_reference(mesh, tag, fn):
    load = np.zeros((mesh.n_nodes, 2), dtype=complex)
    for e, en, xq, ds in _per_edge(mesh, tag):
        g = fn(xq)
        for a, node in enumerate(e.nodes):
            load[node] += (ds * en[:, a]) @ g
    return load.reshape(-1)


def _samples_reference(mesh, tag, u):
    """(x, w, normal, val, grad) of ``evaluate_boundary``, point by point,
    with the owning cell's map and a dense 2x2 inverse."""
    t = fem._EDGE_QP
    on_edge = {0: (t, 0 * t), 1: (1 - t, t), 2: (0 * t, 1 - t)}  # edge k: node k -> k+1
    sign = 1.0 if tag == DISSIPATIVE else -1.0
    out = [[] for _ in range(5)]
    for e, _, xq, ds in _per_edge(mesh, tag):
        n, dn = fem._shapes(mesh.order, np.stack(on_edge[e.local_edge], axis=1))
        xc, uc = mesh.nodes[mesh.conn[e.cell]], u[mesh.conn[e.cell]]
        for q, x in enumerate(xq):
            assert np.allclose(n[q] @ xc, x, rtol=0, atol=1e-14)  # cell and edge maps agree
            dnx = dn[q] @ np.linalg.inv(xc.T @ dn[q])  # dnx[a, j] = d_j N_a
            for lst, item in zip(out, (x, ds[q], sign * x / np.linalg.norm(x), n[q] @ uc, dnx.T @ uc)):
                lst.append(item)
    return [np.array(lst) for lst in out]


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestBoundaryQuadrature:
    @pytest.mark.parametrize("n_theta", [9, 16])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_per_edge_oracle(self, order, n_theta):
        m = build_annulus_mesh(0.5, 1.0, 2, n_theta, order)
        mat = core.MaterialField.constant(1.0, 1.5, 2.0)
        robin = core.RobinSpec.from_alpha(1.0, 2.0, mat)
        r = fem.assemble(m, mat, robin, 1.3).robin_matrix.toarray()
        assert _rel(r, _robin_reference(m, robin)) <= 1e-13

        def g(x):
            return np.stack([x[:, 0] ** 2 + 1j * x[:, 1], np.sin(x[:, 0] * x[:, 1])], axis=1)

        rng = np.random.default_rng(n_theta)
        u = rng.normal(size=(m.n_nodes, 2)) + 1j * rng.normal(size=(m.n_nodes, 2))
        for tag in (DIRICHLET, DISSIPATIVE):
            assert _rel(fem.boundary_load(m, tag, g), _load_reference(m, tag, g)) <= 1e-13
            x, w, normal, [(val, grad)] = fem.evaluate_boundary(m, tag, [u])
            for got, want in zip((x, w, normal, val, grad), _samples_reference(m, tag, u)):
                assert got.shape == want.shape
                assert _rel(got, want) <= 1e-13

    def test_load_calls_its_function_once(self):
        m = build_annulus_mesh(0.5, 1.0, 2, 12, 2)
        shapes = []
        fem.boundary_load(m, DISSIPATIVE, lambda x: shapes.append(x.shape) or np.ones_like(x))
        assert shapes == [(12 * fem._EDGE_QP.size, 2)]

    def test_unknown_tag_raises(self):
        m = build_annulus_mesh(0.5, 1.0, 2, 8, 1)
        with pytest.raises(ValueError, match="no boundary edges"):
            fem.evaluate_boundary(m, "neumann", [np.zeros((m.n_nodes, 2))])

    def test_inverted_boundary_cell_raises(self):
        m = build_annulus_mesh(0.5, 1.0, 2, 8, 1)
        e = next(e for e in m.boundary_edges if e.tag == DISSIPATIVE)
        nodes = m.nodes.copy()
        nodes[m.conn[e.cell, 0]] *= 2.5  # push the interior corner past the edge
        flipped = dataclasses.replace(m, nodes=nodes)
        with pytest.raises(MeshError):
            fem.evaluate_boundary(flipped, DISSIPATIVE, [np.zeros((m.n_nodes, 2))])

    @pytest.mark.parametrize("order,rate,final", [(1, 1.9, 5e-4), (2, 3.8, 2e-7)])
    def test_translation_energy_converges_to_closed_form(self, order, rate, final):
        # u = e_x: u^H R u = int_Gamma a_T + (a_N - a_T) n_x^2 ds = pi ell (a_T + a_N)
        mat = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.from_alpha(1.0, 2.0, mat)
        exact = math.pi * 1.0 * (robin.a_t + robin.a_n)
        errs = []
        for n_theta in (16, 32, 64):
            m = build_annulus_mesh(0.5, 1.0, 2, n_theta, order)
            u = np.zeros((m.n_nodes, 2))
            u[:, 0] = 1.0
            u = u.reshape(-1)
            r = fem.assemble(m, mat, robin, 1.0).robin_matrix
            errs.append(abs(u @ (r @ u) - exact) / exact)
        assert all(math.log2(a / b) >= rate for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= final


class TestSolve:
    def test_zero_load(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        res = fem.solve(s, np.zeros((m.n_nodes, 2)))
        assert np.abs(res.u).max() == 0.0
        assert res.residual_norm == 0.0

    def test_twenty_random_frequencies_solvable(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        rng = np.random.default_rng(2)
        f = rng.normal(size=(m.n_nodes, 2)) + 1j * rng.normal(size=(m.n_nodes, 2))
        for omega in rng.uniform(1.0, 10.0, size=20):
            s = fem.assemble(m, material, robin, omega=float(omega))
            res = fem.solve(s, f)
            assert res.residual_norm <= 1e-8

    def test_one_factorization_per_system(self, material, robin, monkeypatch):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        rng = np.random.default_rng(4)
        loads = [rng.normal(size=(m.n_nodes, 2)) + 1j * rng.normal(size=(m.n_nodes, 2)) for _ in range(3)]
        fresh = [fem.solve(fem.assemble(m, material, robin, omega=2.0), f) for f in loads]
        calls = []
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: calls.append(1) or exact_factor(s_ff))
        s = fem.assemble(m, material, robin, omega=2.0)
        shared = [fem.solve(s, f) for f in loads]
        assert len(calls) == 1
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.u, b.u) and a.residual_norm == b.residual_norm <= 1e-8

    def test_every_solve_checks_its_residual(self, material, robin, monkeypatch):
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor(1.001 * s_ff))
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        for seed in (0, 1):  # the second solve reuses the inaccurate factor
            f = np.random.default_rng(seed).normal(size=(m.n_nodes, 2))
            with pytest.raises(SolverError, match="residual"):
                fem.solve(s, f)

    def test_one_refinement_step_restores_the_contract(self, material, robin, monkeypatch):
        # a factor 1e-5 off misses the contract; one step of iterative
        # refinement with that same factor meets it
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        f = np.random.default_rng(5).normal(size=(m.n_nodes, 2))
        exact = fem.solve(fem.assemble(m, material, robin, omega=2.0), f)
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor((1.0 + 1e-5) * s_ff))
        s = fem.assemble(m, material, robin, omega=2.0)
        s_ff, _ = s.free_blocks
        rhs_f = (s.mass @ f.reshape(-1))[s.free]
        first = s.lu.solve(rhs_f)
        assert np.linalg.norm(s_ff @ first - rhs_f) > 1e-8 * np.linalg.norm(rhs_f)
        res = fem.solve(s, f)
        assert res.residual_norm <= 1e-8
        assert np.abs(res.u - exact.u).max() <= 1e-8 * np.abs(exact.u).max()

    def test_singular_system_raises(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        zero = sp.csr_matrix((s.n_dofs, s.n_dofs))
        singular = dataclasses.replace(s, stiffness=zero, mass=zero, robin_matrix=zero)
        with pytest.raises(SolverError, match="singular"):
            fem.solve(singular, np.zeros((m.n_nodes, 2)), extra_load=np.ones(s.n_dofs))

    @pytest.mark.parametrize("order,min_rate", [(1, 1.7), (2, 2.7)])
    def test_manufactured_convergence(self, order, min_rate):
        rho, mu, lam, omega = 1.0, 1.0, 2.0, 2.0
        material = core.MaterialField.constant(rho, mu, lam)
        robin = core.RobinSpec.shear_matched(material)
        u_star = fields.PlaneWaveField([0.3 + 0.1j, 1.0], [1.7, 0.4])

        def f_fn(x):
            return (-(omega**2) * rho * u_star.value(x) - u_star.div_sigma(x, mu, lam)) / rho

        def robin_residual(x):
            g = u_star.grad(x)
            eps = 0.5 * (g + np.swapaxes(g, -2, -1))
            div = np.trace(g, axis1=-2, axis2=-1)
            sigma = 2 * mu * eps + lam * div[:, None, None] * np.eye(2)
            n = x / np.linalg.norm(x, axis=1, keepdims=True)
            sn = np.einsum("qij,qj->qi", sigma, n)
            vn = np.einsum("qi,qi->q", u_star.value(x), n.astype(complex))
            au = robin.a_t * u_star.value(x) + (robin.a_n - robin.a_t) * vn[:, None] * n
            return sn - 1j * omega * au

        errs, hs = [], []
        meshes = (32, 64, 128) if order == 1 else (16, 32, 64)
        for nt in meshes:
            m = build_annulus_mesh(0.5, 1.0, max(2, nt // 12), nt, order=order)
            s = fem.assemble(m, material, robin, omega)
            res = fem.solve(
                s,
                f_fn(m.nodes),
                dirichlet_values=u_star.value(m.nodes),
                extra_load=fem.boundary_load(m, DISSIPATIVE, robin_residual),
            )
            _, w, [(val, _)] = fem.evaluate_volume(m, [res.u - u_star.value(m.nodes)])
            errs.append(math.sqrt(float(np.sum(w * np.sum(np.abs(val) ** 2, axis=1)))))
            hs.append(m.max_edge_length())
        rate = math.log(errs[0] / errs[-1]) / math.log(hs[0] / hs[-1])
        assert rate >= min_rate


class TestEmpiricalConstant:
    def test_monotone_estimates(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        c, hist = fem.empirical_constant(m, material, robin, omega=2.0, return_history=True)
        assert all(b >= a - 1e-12 * abs(b) for a, b in zip(hist, hist[1:]))

    def test_seed_invariance(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        c1 = fem.empirical_constant(m, material, robin, omega=2.0, seed=0)
        c2 = fem.empirical_constant(m, material, robin, omega=2.0, seed=12345)
        assert abs(c1 - c2) / c1 < 1e-4

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4])
    def test_matches_dense_svd(self, lam_ratio):
        # omega^2 sigma_max of L^T S^-1 L with M = L L^T is the exact constant
        material = core.MaterialField.constant(1.0, 1.0, lam_ratio)
        robin = core.RobinSpec.shear_matched(material)
        m = build_annulus_mesh(0.5, 1.0, 3, 24)
        s = fem.assemble(m, material, robin, omega=2.0)
        s_ff = s.system_matrix()[s.free][:, s.free].toarray()
        chol = la.cholesky(s.mass[s.free][:, s.free].toarray(), lower=True)
        exact = 4.0 * la.svdvals(chol.T @ la.solve(s_ff, chol))[0]
        est = fem.empirical_constant(m, material, robin, omega=2.0, full_output=True)
        assert est.c_emp == pytest.approx(exact, rel=1e-9)
        assert est.ritz_residual <= 1e-8
        assert est.steps == len(est.history) and est.history[-1] == est.c_emp

    def test_factor_fill_uniform_in_lambda(self):
        # diagonal-preferring pivoting keeps the symmetric ordering's fill;
        # plain partial pivoting grows it ~7x at lambda/mu = 1e4
        cfg = fem.SweepConfig(kappa_s=(8.0,))
        m = fem.resolution_mesh(cfg, 8.0)
        nnz = []
        for lam_ratio in (1.0, 1e4):
            material = cfg.material(lam_ratio)
            s = fem.assemble(m, material, cfg.robin(material), omega=8.0)
            lu = fem._factor(s.system_matrix()[s.free][:, s.free].tocsc())
            nnz.append(lu.L.nnz + lu.U.nnz)
        assert nnz[1] <= 1.25 * nnz[0]

    def test_inaccurate_factor_raises(self, material, robin, monkeypatch):
        # a factorization that misses the residual contract never yields c_emp
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor(1.001 * s_ff))
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        with pytest.raises(SolverError, match="residual"):
            fem.empirical_constant(m, material, robin, omega=2.0)
        row = fem.sweep(fem.SweepConfig(kappa_s=(1.0,)))[0]
        assert row.c_emp is None and "residual" in row.error

    def test_refined_first_solve_refines_every_solve(self, material, robin, monkeypatch):
        # with a factor 1e-5 off, refining only the first solve would leave
        # every later Lanczos step 1e-5 off
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        exact = fem.empirical_constant(m, material, robin, omega=2.0)
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor((1.0 + 1e-5) * s_ff))
        est = fem.empirical_constant(m, material, robin, omega=2.0, full_output=True)
        assert est.c_emp == pytest.approx(exact, rel=1e-9)
        assert est.ritz_residual <= 1e-8

    def test_step_cap_raises(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        with pytest.raises(IterationError) as info:
            fem.empirical_constant(m, material, robin, omega=2.0, iters=2)
        assert len(info.value.last_iterates) == 2

    def test_below_closed_form_bound_at_kappa_2(self, material, robin):
        from elastab.bounds import bound_obstacle_ideal

        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1.0,))
        m = fem.resolution_mesh(cfg, 2.0)
        c = fem.empirical_constant(m, material, robin, omega=2.0)
        assert c <= bound_obstacle_ideal(2.0, d=2).full

    def test_refinement_stability(self, material, robin):
        cfg = fem.SweepConfig(kappa_s=(4.0,), lambda_over_mu=(1.0,))
        m1 = fem.resolution_mesh(cfg, 4.0)
        m2 = build_annulus_mesh(0.5, 1.0, m1.n_r, 2 * m1.n_theta, 2)
        c1 = fem.empirical_constant(m1, material, robin, omega=4.0)
        c2 = fem.empirical_constant(m2, material, robin, omega=4.0)
        assert abs(c1 - c2) / c2 <= 0.05


class TestSweep:
    def test_nearly_incompressible_row_meets_the_residual_contract(self):
        # at lambda/mu = 1e8 the double-precision residual of the first solve
        # is ~4e-8, most of it the rounding of S u itself; one refinement
        # step on an extended-precision residual brings it under 1e-8
        row = fem.sweep(fem.SweepConfig(kappa_s=(8.0,), lambda_over_mu=(1e8,)))[0]
        assert row.error is None
        assert math.isfinite(row.c_emp) and row.ritz_residual <= 1e-8

    def test_single_row_matches_empirical(self, material, robin):
        cfg = fem.SweepConfig(kappa_s=(1.0,), lambda_over_mu=(1.0,), seed=3)
        rows = fem.sweep(cfg)
        assert len(rows) == 1
        r = rows[0]
        m = fem.resolution_mesh(cfg, 1.0)
        direct = fem.empirical_constant(m, material, robin, omega=1.0, seed=3)
        assert r.c_emp == pytest.approx(direct, rel=1e-9)
        assert r.kappa_s == 1.0 and not r.refused
        assert r.lanczos_steps >= 1 and 0.0 <= r.ritz_residual <= 1e-8

    def test_omega_doubling_ratio_recorded(self):
        cfg = fem.SweepConfig(kappa_s=(1.0, 2.0, 4.0), lambda_over_mu=(1.0,))
        rows = fem.sweep(cfg)
        ratios = [b.c_emp / a.c_emp for a, b in zip(rows, rows[1:])]
        assert all(r > 1.0 for r in ratios)  # constants grow with frequency
        assert all(r.slack is not None and r.slack > 0 for r in rows)

    def test_lambda_ratio_spread_reported(self):
        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1.0, 100.0, 10000.0))
        rows = fem.sweep(cfg)
        cs = [r.c_emp for r in rows]
        assert max(cs) / min(cs) < 1.25

    def test_thread_pool_preserves_order_and_values(self, monkeypatch):
        cfg = fem.SweepConfig(kappa_s=(1.0, 2.0), lambda_over_mu=(1.0,), seed=5)
        sequential = fem.sweep(cfg)
        monkeypatch.setenv("ELASTAB_THREADS", "2")
        threaded = fem.sweep(cfg)
        assert [r.kappa_s for r in threaded] == [r.kappa_s for r in sequential]
        for a, b in zip(sequential, threaded):
            assert a.c_emp == b.c_emp

    @pytest.mark.parametrize("order", [1, 2])
    def test_node_budget_counts_the_built_mesh(self, order, monkeypatch):
        # the budget check predicts the node count of the mesh it guards
        for kappa in (1.0, 7.0, 16.0):
            cfg = fem.SweepConfig(kappa_s=(kappa,), order=order)
            nodes = fem.resolution_mesh(cfg, kappa).n_nodes
            monkeypatch.setattr(fem, "NODE_BUDGET", nodes)
            cfg.validate()
            monkeypatch.setattr(fem, "NODE_BUDGET", nodes - 1)
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_resolution_policy_refusal(self):
        cfg = fem.SweepConfig(
            kappa_s=(40.0,), lambda_over_mu=(1.0,),
            points_per_wavelength=200.0, resolution_margin=0.01,
        )
        rows = fem.sweep(cfg)
        assert rows[0].refused and rows[0].c_emp is None
        forced = fem.SweepConfig(
            kappa_s=(4.0,), lambda_over_mu=(1.0,),
            points_per_wavelength=200.0, resolution_margin=0.01, force=True,
        )
        rows = fem.sweep(forced)
        assert not rows[0].refused and rows[0].c_emp is not None
