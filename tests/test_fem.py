import dataclasses
import math
import threading

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from elastab import core, fem, fields
from elastab import mesh as mesh_module
from elastab.bounds import stability_simple_robin
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
        assert m.n_nodes == 24

    def test_boundary_tags(self):
        m = build_annulus_mesh(0.5, 1.0, 3, 12, order=2)
        inner = m.boundary_nodes(DIRICHLET)
        outer = m.boundary_nodes(DISSIPATIVE)
        assert np.allclose(np.linalg.norm(m.nodes[inner], axis=1), 0.5)
        assert np.allclose(np.linalg.norm(m.nodes[outer], axis=1), 1.0)
        assert inner.size == outer.size == 2 * 12
        # every angular segment contributes one edge per circle
        for tag in (DIRICHLET, DISSIPATIVE):
            cells, local, nodes = m.boundary(tag)
            assert cells.shape == local.shape == (12,) and nodes.shape == (12, 3)
        with pytest.raises(ValueError, match="no boundary edges"):
            m.boundary("neumann")

    def test_is_its_lattice_parameters(self):
        # a mesh is its five parameters; its derived arrays are read-only
        m = build_annulus_mesh(0.5, 1.0, 3, 12, order=2)
        assert [f.name for f in dataclasses.fields(m)] == ["r_in", "ell", "n_r", "n_theta", "order"]
        assert build_annulus_mesh(0.5, 1.0, 3, 12) == m
        for array in (m.nodes, m.conn, *m.boundary(DIRICHLET), *m.boundary(DISSIPATIVE)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert m.nodes.shape == (m.n_nodes, 2) and m.conn.shape == (m.n_cells, 6)

    def test_area_convergence(self):
        exact = math.pi * (1.0 - 0.25)
        m = build_annulus_mesh(0.5, 1.0, 22, 256, order=1)
        _, w, _ = fem.evaluate_volume(m, [np.zeros((m.n_nodes, 2))])
        assert abs(w.sum() - exact) / exact <= 1e-3
        # curved order-2 geometry converges much faster
        m2 = build_annulus_mesh(0.5, 1.0, 6, 64, order=2)
        _, w2, _ = fem.evaluate_volume(m2, [np.zeros((m2.n_nodes, 2))])
        assert abs(w2.sum() - exact) / exact <= 1e-6

    @pytest.mark.parametrize("order", [1, 2])
    def test_lattice_numbering(self, order):
        # lattice point (I, J) is node J (p n_r + 1) + I; sector s owns nodes
        # s P .. (s + 1) P - 1, P = p (p n_r + 1), and cells 2 n_r s onwards
        m = build_annulus_mesh(0.5, 1.0, 2, 8, order=order)
        rows = 2 * order + 1
        per_sector = order * rows
        assert m.n_nodes == rows * 8 * order
        if order == 1:
            assert m.conn[:2].tolist() == [[0, 1, 4], [0, 4, 3]]
            assert m.conn[30:].tolist() == [[22, 23, 2], [22, 2, 1]]  # wraps past angle 0
        else:
            assert m.conn[:2].tolist() == [[0, 2, 12, 1, 7, 6], [0, 12, 10, 6, 11, 5]]
            assert m.conn[30:].tolist() == [[72, 74, 4, 73, 79, 78], [72, 4, 2, 78, 3, 77]]
        # one sector's rotation maps node k onto node k + P, the last sector
        # onto the first
        t = 2.0 * math.pi / 8
        turn = np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        assert np.abs(m.nodes @ turn - np.roll(m.nodes, -per_sector, axis=0)).max() <= 1e-15
        assert np.array_equal(m.conn[4:], (m.conn[:-4] + per_sector) % m.n_nodes)
        # even rows on their circle at angle 2 pi J / (p n_theta); the
        # circumferential midsides among them halfway in angle
        J, I = np.divmod(np.arange(m.n_nodes), rows)
        even = I % order == 0
        radius = np.linspace(0.5, 1.0, 3)[I[even] // order]
        angle = 2.0 * math.pi * J[even] / (8 * order)
        ring = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        assert np.abs(m.nodes[even] - ring).max() <= 1e-15
        # every other midside is exactly the chord midpoint of its edge
        if order == 2:
            for p, q, s, *mids in m.conn.tolist():
                for (a, b), node in zip(((p, q), (q, s), (s, p)), mids):
                    if I[node] % 2:
                        assert np.array_equal(m.nodes[node], 0.5 * (m.nodes[a] + m.nodes[b]))
                    else:
                        assert I[a] == I[b] == I[node]
        # sector 0's edge on each circle: cell, local edge, nodes; sector s's
        # is sector 0's shifted by s sectors' cells and nodes
        inner, outer = m.boundary(DIRICHLET), m.boundary(DISSIPATIVE)
        edges = [(b.cells[0], b.local[0], b.nodes[0].tolist()) for b in (inner, outer)]
        if order == 1:
            assert edges == [(1, 2, [3, 0]), (2, 1, [2, 5])]
        else:
            assert edges == [(1, 2, [10, 0, 5]), (2, 1, [4, 14, 9])]
        shift = np.arange(8)
        for b in (inner, outer):
            assert np.array_equal(b.cells, b.cells[0] + 4 * shift) and np.all(b.local == b.local[0])
            assert np.array_equal(b.nodes, (b.nodes[0] + per_sector * shift[:, None]) % m.n_nodes)
        # the estimate's cells are those with a node in sector 0
        assert np.array_equal(fem._sector_cells(m), np.flatnonzero(np.any(m.conn < per_sector, axis=1)))

    def test_builder_rejects_exactly_the_inverted_meshes(self, monkeypatch):
        # with curved midsides, a coarse angular step against a fine radial
        # one inverts cells; the builder refuses exactly the P2 meshes whose
        # Jacobians the assembly rejects
        rejected = set()
        for n_theta in (8, 12, 16, 24, 32):
            for n_r in range(2, 41):
                try:
                    build_annulus_mesh(0.5, 1.0, n_r, n_theta, order=2)
                except MeshError:
                    rejected.add((n_r, n_theta))
                with monkeypatch.context() as patch:
                    patch.setattr(mesh_module, "_jacobian", lambda dn, xc: None)
                    m = build_annulus_mesh(0.5, 1.0, n_r, n_theta, order=2)
                try:
                    fem._geometry(m, fem._TRI_QP)
                except MeshError:
                    assert (n_r, n_theta) in rejected
                else:
                    assert (n_r, n_theta) not in rejected
        assert {(3, 8), (6, 12), (19, 24)} <= rejected and (18, 24) not in rejected

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
    for cell, local, nodes in zip(*mesh.boundary(tag)):
        xe = mesh.nodes[nodes]
        yield (cell, local, nodes.tolist()), en, en @ xe, np.linalg.norm(edn @ xe, axis=1) * fem._EDGE_QW


def _robin_reference(mesh, robin):
    r = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
    for (_, _, nodes), en, xq, ds in _per_edge(mesh, DISSIPATIVE):
        for q, x in enumerate(xq):
            n = x / np.linalg.norm(x)
            amat = robin.a_t * np.eye(2) + (robin.a_n - robin.a_t) * np.outer(n, n)
            for a, na in enumerate(nodes):
                for b, nb in enumerate(nodes):
                    r[2 * na:2 * na + 2, 2 * nb:2 * nb + 2] += ds[q] * en[q, a] * en[q, b] * amat
    return r


def _load_reference(mesh, tag, fn):
    load = np.zeros((mesh.n_nodes, 2), dtype=complex)
    for (_, _, nodes), en, xq, ds in _per_edge(mesh, tag):
        g = fn(xq)
        for a, node in enumerate(nodes):
            load[node] += (ds * en[:, a]) @ g
    return load.reshape(-1)


def _samples_reference(mesh, tag, u):
    """(x, w, normal, val, grad) of ``evaluate_boundary``, point by point,
    with the owning cell's map and a dense 2x2 inverse."""
    t = fem._EDGE_QP
    on_edge = {0: (t, 0 * t), 1: (1 - t, t), 2: (0 * t, 1 - t)}  # edge k: node k -> k+1
    sign = 1.0 if tag == DISSIPATIVE else -1.0
    out = [[] for _ in range(5)]
    for (cell, local, _), _, xq, ds in _per_edge(mesh, tag):
        n, dn = fem._shapes(mesh.order, np.stack(on_edge[local], axis=1))
        xc, uc = mesh.nodes[mesh.conn[cell]], u[mesh.conn[cell]]
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

    def test_inverted_boundary_cell_raises(self, monkeypatch):
        # the P2 mesh (n_r, n_theta) = (3, 8) has inverted cells on its inner
        # circle (test_builder_rejects_exactly_the_inverted_meshes); built
        # past the builder's check, its boundary samples refuse them too
        with monkeypatch.context() as patch:
            patch.setattr(mesh_module, "_jacobian", lambda dn, xc: None)
            m = build_annulus_mesh(0.5, 1.0, 3, 8, order=2)
        with pytest.raises(MeshError):
            fem.evaluate_boundary(m, DIRICHLET, [np.zeros((m.n_nodes, 2))])

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

    def test_factor_1e9_off_breaks_the_backward_error_contract(self, material, robin, monkeypatch):
        # a factor of (1 + 1e-9) S leaves a relative residual of 1e-9, yet
        # solves a system 1e-11 away from S: a backward error far above
        # what an accurate factor leaves (4e-17)
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        f = np.random.default_rng(5).normal(size=(m.n_nodes, 2))
        exact = fem.solve(fem.assemble(m, material, robin, omega=2.0), f)
        assert exact.residual_norm <= 1e-13
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor((1.0 + 1e-9) * s_ff))
        s = fem.assemble(m, material, robin, omega=2.0)
        s_ff, _ = s.free_blocks
        rhs_f = (s.mass @ f.reshape(-1))[s.free]
        first = s.lu.solve(rhs_f)
        assert np.linalg.norm(s_ff @ first - rhs_f) <= 1.01e-9 * np.linalg.norm(rhs_f)
        with pytest.raises(SolverError, match="residual: backward error .* above 1e-14"):
            fem.solve(s, f)

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
        hist = fem.empirical_constant(m, material, robin, omega=2.0).history
        assert all(b >= a - 1e-12 * abs(b) for a, b in zip(hist, hist[1:]))

    def test_seed_invariance(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        c1 = fem.empirical_constant(m, material, robin, omega=2.0, seed=0).c_emp
        c2 = fem.empirical_constant(m, material, robin, omega=2.0, seed=12345).c_emp
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
        est = fem.empirical_constant(m, material, robin, omega=2.0)
        assert est.c_emp == pytest.approx(exact, rel=1e-9)
        assert est.ritz_residual <= 1e-8
        assert est.steps == len(est.history) and est.history[-1] == est.c_emp

    def test_factor_fill_uniform_in_lambda(self):
        # diagonal-preferring pivoting keeps the fill of the dofs' own order
        # (367,816 then 368,592); plain partial pivoting grows it 24% at
        # lambda/mu = 1e4
        cfg = fem.SweepConfig(kappa_s=(8.0,))
        m = fem.resolution_mesh(cfg, 8.0)
        nnz = []
        for lam_ratio in (1.0, 1e4):
            material = cfg.material(lam_ratio)
            s = fem.assemble(m, material, cfg.robin(material), omega=8.0)
            lu = fem._factor(s.system_matrix()[s.free][:, s.free].tocsc())
            nnz.append(lu.L.nnz + lu.U.nnz)
        assert nnz[1] <= 1.05 * nnz[0]

    def test_inaccurate_factor_raises(self, material, robin, monkeypatch):
        # a factorization that misses the residual contract never yields c_emp
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor(1.001 * s_ff))
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        with pytest.raises(SolverError, match="residual"):
            fem.empirical_constant(m, material, robin, omega=2.0)
        row = fem.sweep(fem.SweepConfig(kappa_s=(1.0,)))[0]
        assert row.c_emp is None and "residual" in row.error

    def test_factor_1e9_off_yields_no_estimate(self, material, robin, monkeypatch):
        # the first forward solve is held to the backward-error contract on
        # the mode blocks: an accurate factor reads ~4e-17, one of
        # (1 + 1e-9) S reads 1.7e-11 though its relative residual is 1e-9
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        est = fem.empirical_constant(m, material, robin, omega=2.0)
        assert est.backward_error <= 1e-15 and est.solve_residual <= 1e-13
        exact_factor = fem._factor
        monkeypatch.setattr(fem, "_factor", lambda s_ff: exact_factor((1.0 + 1e-9) * s_ff))
        with pytest.raises(SolverError, match="residual: backward error"):
            fem.empirical_constant(m, material, robin, omega=2.0)

    def test_step_cap_raises(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        with pytest.raises(IterationError) as info:
            fem.empirical_constant(m, material, robin, omega=2.0, iters=2)
        assert len(info.value.last_iterates) == 2

    def test_below_closed_form_bound_at_kappa_2(self, material, robin):
        from elastab.bounds import bound_obstacle_ideal

        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1.0,))
        m = fem.resolution_mesh(cfg, 2.0)
        c = fem.empirical_constant(m, material, robin, omega=2.0).c_emp
        assert c <= bound_obstacle_ideal(2.0, d=2).full

    def test_refinement_stability(self, material, robin):
        cfg = fem.SweepConfig(kappa_s=(4.0,), lambda_over_mu=(1.0,))
        m1 = fem.resolution_mesh(cfg, 4.0)
        m2 = build_annulus_mesh(0.5, 1.0, m1.n_r, 2 * m1.n_theta, 2)
        c1 = fem.empirical_constant(m1, material, robin, omega=4.0).c_emp
        c2 = fem.empirical_constant(m2, material, robin, omega=4.0).c_emp
        assert abs(c1 - c2) / c2 <= 0.05


class TestLanczos:
    def test_top_eigenvalue_matches_eigh(self):
        # top eigenvalue of S^-H M S^-1 M in the M inner product: the
        # largest eigenvalue of C^H C, C = L^H S^-1 L with M = L L^H
        rng = np.random.default_rng(11)
        n = 40
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        a = rng.normal(size=(n, n))
        mass = a @ a.T + np.eye(n)
        chol = np.linalg.cholesky(mass)
        c = chol.T @ np.linalg.solve(s, chol)
        exact = np.linalg.eigh(c.conj().T @ c)[0][-1]
        ritz = fem._lanczos(
            lambda b: np.linalg.solve(s, b),
            lambda b: np.linalg.solve(s.conj().T, b),
            mass,
            rng.normal(size=n) + 1j * rng.normal(size=n),
        )
        assert ritz.theta == pytest.approx(exact, rel=1e-10)
        assert ritz.residual <= 1e-8
        assert abs(ritz.theta - exact) <= ritz.residual * ritz.theta
        assert ritz.steps == len(ritz.thetas) < n and ritz.thetas[-1] == ritz.theta
        assert all(b >= a - 1e-12 * b for a, b in zip(ritz.thetas, ritz.thetas[1:]))

    @pytest.mark.parametrize("scale,top_block", [(2.0, 3), (1.0 / 64.0, 2)])
    def test_block_diagonal_operator_with_an_exhausted_block(self, scale, top_block):
        # four blocks run in lockstep; block 2 is S = scale I, M = I, and its
        # start run 2 e_0 is an eigenvector: beta = 0 exactly after one step.
        # The random blocks come in ascending order of their top value, and
        # block 2's value 1/scale^2 is below block 3's at scale 2 (the run
        # goes on past the frozen block) and above it at scale 1/64
        rng = np.random.default_rng(5)
        n = 12

        def top_value(s_b, m_b):
            chol = np.linalg.cholesky(m_b)
            c = chol.T @ np.linalg.solve(s_b, chol)
            return np.linalg.eigh(c.conj().T @ c)[0][-1]

        pairs = []
        for _ in range(3):
            s_b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4.0 * np.eye(n)
            a = rng.normal(size=(n, n))
            pairs.append((s_b, a @ a.T + np.eye(n)))
        pairs.sort(key=lambda pair: top_value(*pair))
        pairs.insert(2, (scale * np.eye(n), np.eye(n)))
        top = [top_value(*pair) for pair in pairs]
        s, mass = la.block_diag(*(p[0] for p in pairs)), la.block_diag(*(p[1] for p in pairs))
        v = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        v[2] = 0.0
        v[2, 0] = 2.0

        def run(s, mass, v, blocks):
            return fem._lanczos(
                lambda b: np.linalg.solve(s, b),
                lambda b: np.linalg.solve(s.conj().T, b),
                mass,
                v.reshape(-1),
                blocks=blocks,
            )

        alone = run(*pairs[2], v[2], 1)
        assert (alone.steps, alone.residual, alone.theta) == (1, 0.0, 1.0 / scale**2)
        ritz = run(s, mass, v, 4)
        assert ritz.block == top_block == int(np.argmax(top))
        assert ritz.theta == pytest.approx(max(top), rel=1e-10)
        assert ritz.residual <= 1e-8
        assert ritz.steps == len(ritz.thetas) and ritz.thetas[-1] == ritz.theta
        assert (ritz.steps == 1) == (top_block == 2)
        assert all(b >= a - 1e-12 * b for a, b in zip(ritz.thetas, ritz.thetas[1:]))


def _radial_material(kind, lam_ratio):
    if kind == "constant":
        return core.MaterialField.constant(1.0, 1.0, lam_ratio)
    if kind == "radial-profile":
        # bounds certified on r in [0.4, 1]: straight P1 edges on the inner
        # circle reach below r_in = 0.5
        return core.MaterialField.radial(
            core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0),
            core.radial_profile(lambda r: 2.0 - r, 1.0, 1.6),
            core.radial_profile(lambda r: lam_ratio * (2.0 - r), lam_ratio, 1.6 * lam_ratio),
        )
    return core.MaterialField.radial(
        core.constant_profile(1.0),
        core.piecewise_radial_profile([0.0, 0.75], [1.0, 0.25]),
        core.piecewise_radial_profile([0.0, 0.75], [lam_ratio, 0.25 * lam_ratio]),
    )


def _assert_solves_match_the_direct_factor(m, material):
    s = fem.assemble(m, material, core.RobinSpec.shear_matched(material), omega=2.0)
    s_ff, _ = s.free_blocks
    assert isinstance(s.lu, fem._SectorLU)
    direct = fem._factor(s_ff)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=s.free.size) + 1j * rng.normal(size=s.free.size)
    exact = direct.solve(rhs)
    assert np.abs(s.lu.solve(rhs) - exact).max() <= 1e-10 * np.abs(exact).max()


def _half_spectrum_projection(n, v):
    """The free-dof vector whose angular modes 0..floor(n/2) are v's and
    whose higher modes vanish."""
    modes = fem._to_modes(n, v)
    modes[n // 2 + 1 :] = 0.0
    return fem._from_modes(modes)


def _direct_lanczos(m, material, robin, omega, seeds):
    """The estimate's oracle, per seed: ``fem._lanczos`` in one Krylov space
    on the direct LU of the fully assembled S_ff, started from the seed's
    draw on the free dofs projected onto the angular modes 0..floor(n/2)."""
    s = fem.assemble(m, material, robin, omega)
    s_ff, _ = s.free_blocks
    factor = fem._factor(s_ff)
    m_ff = s.mass[s.free][:, s.free].astype(complex).tocsr()
    for seed in seeds:
        rng = np.random.default_rng(seed)
        v = rng.normal(size=s_ff.shape[0]) + 1j * rng.normal(size=s_ff.shape[0])
        yield fem._lanczos(
            factor.solve, lambda b: factor.solve(b, trans="H"), m_ff, _half_spectrum_projection(m.n_theta, v)
        )


def _coo_mode_blocks(n, nodes, pairs, coeffs, order):
    """The block-diagonal CSC of the h = floor(n/2) + 1 mode blocks of one
    matrix's couplings (``fem._sector_couplings``), local nodes in
    ``order``, built entry by entry in COO form and converted: the
    construction ``fem._sector_modes`` replaced, kept as its oracle.  The
    entries are the same product of the twiddles (1, w^m, w^-m) with the
    couplings, taken pair by pair."""
    half = n // 2 + 1
    twiddle = np.exp(2j * math.pi * np.arange(half) / n)
    twiddles = np.stack([np.ones(half), twiddle, twiddle.conj()], axis=1)
    rank = np.argsort(order)
    nl = 2 * nodes
    offset = nl * np.arange(half)[:, None, None, None]
    rows = offset + (2 * rank[pairs // nodes])[:, None, None] + np.array([0, 1])[:, None]
    cols = offset + (2 * rank[pairs % nodes])[:, None, None] + np.array([0, 1])
    rows, cols = np.broadcast_arrays(rows, cols)
    data = twiddles @ coeffs.reshape(3, -1)
    return sp.csc_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(half * nl, half * nl))


def _sector_row_shapes(monkeypatch):
    """Record (n_theta, shape) of every matrix ``fem._sector_couplings``
    receives."""
    shapes = []
    couplings = fem._sector_couplings

    def spied(n, *matrices):
        shapes.extend((n, matrix.shape) for matrix in matrices)
        return couplings(n, *matrices)

    monkeypatch.setattr(fem, "_sector_couplings", spied)
    return shapes


def _counting_cells(monkeypatch):
    """Record the cell count of every ``fem._assemble_cells`` call."""
    counts = []
    assemble_cells = fem._assemble_cells

    def counted(mesh, material, robin, cells=None):
        counts.append(mesh.n_cells if cells is None else len(cells))
        return assemble_cells(mesh, material, robin, cells)

    monkeypatch.setattr(fem, "_assemble_cells", counted)
    return counts


class TestSectorFactor:
    """The angular Fourier factorization against the direct LU of S_ff."""

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("kind", ["constant", "radial-profile", "piecewise-radial"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_solves_match_the_direct_factor(self, order, kind, lam_ratio):
        material = _radial_material(kind, lam_ratio)
        _assert_solves_match_the_direct_factor(build_annulus_mesh(0.5, 1.0, 3, 16, order=order), material)

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e8])
    @pytest.mark.parametrize("order", [1, 2])
    def test_odd_sector_count_solves_match_the_direct_factor(self, order, lam_ratio):
        # n_theta = 15 factors modes 0..7; modes 8..14 are the transposes of
        # modes 7..1, and no mode pairs with itself but mode 0
        material = _radial_material("piecewise-radial", lam_ratio)
        _assert_solves_match_the_direct_factor(build_annulus_mesh(0.5, 1.0, 3, 15, order=order), material)

    @pytest.mark.parametrize("n_theta", [15, 24])
    def test_estimate_factors_the_half_spectrum_once(self, n_theta, material, robin, monkeypatch):
        m = build_annulus_mesh(0.5, 1.0, 3, n_theta, order=2)
        local_dofs = fem.assemble(m, material, robin, omega=2.0).free.size // n_theta  # 2L
        factors = []
        splu = fem.spla.splu
        monkeypatch.setattr(fem.spla, "splu", lambda a, **kw: factors.append(splu(a, **kw)) or factors[-1])
        est = fem.empirical_constant(m, material, robin, omega=2.0)
        rows = (n_theta // 2 + 1) * local_dofs
        assert [lu.shape for lu in factors] == [(rows, rows)]
        # SuperLU's stored entries, explicit zeros in its supernodes included
        assert est.lu_nnz == factors[0].nnz >= factors[0].L.nnz + factors[0].U.nnz
        assert 0 <= est.top_mode <= n_theta // 2

    @pytest.mark.parametrize("n_theta", [15, 24])
    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("kind", ["constant", "radial-profile", "piecewise-radial"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_sector_rows_give_the_mode_blocks_of_the_full_system(self, order, kind, lam_ratio, n_theta):
        # the estimate's mode blocks, from the cells around sector 0, against
        # those of sector 0's rows of S_ff and M_ff assembled over the whole
        # mesh; and array for array (so the factor is bit for bit) against
        # their COO construction
        material = _radial_material(kind, lam_ratio)
        robin = core.RobinSpec.shear_matched(material)
        m = build_annulus_mesh(0.5, 1.0, 3, n_theta, order=order)
        s = fem.assemble(m, material, robin, omega=2.0)
        sector = slice(s.free.size // n_theta)
        order_full, full = fem._sector_modes(n_theta, s.free_blocks[0][sector], s.mass[s.free][:, s.free][sector])
        rows = fem._sector_rows(m, material, robin, 2.0)
        order, native = fem._sector_modes(n_theta, *rows)
        assert np.array_equal(order, order_full) and np.array_equal(np.sort(order), np.arange(order.size))
        nodes, pairs, couplings = fem._sector_couplings(n_theta, *rows)
        for got, exact, coeffs in zip(native, full, couplings):
            assert got.shape == exact.shape
            assert abs(got - exact).max() <= 1e-12 * abs(exact).max()
            oracle = _coo_mode_blocks(n_theta, nodes, pairs, coeffs, order)
            for name in ("data", "indices", "indptr"):
                got_array, oracle_array = getattr(got, name), getattr(oracle, name)
                assert got_array.dtype == oracle_array.dtype and np.array_equal(got_array, oracle_array)

    @pytest.mark.parametrize("kappa", [8.0, 32.0])
    def test_mode_blocks_are_banded(self, kappa):
        # in the band order every mode block has half-bandwidth 11 dofs at
        # order 2, at n_r = 5 as at n_r = 20, and the factor in that order
        # stores few more entries than the blocks hold (1.16-1.28x here)
        cfg = fem.SweepConfig(kappa_s=(kappa,))
        m = fem.resolution_mesh(cfg, kappa)
        material = cfg.material(1.0)
        robin = cfg.robin(material)
        _, modes = fem._sector_modes(m.n_theta, *fem._sector_rows(m, material, robin, kappa))
        half = m.n_theta // 2 + 1
        for matrix in modes:
            coo = matrix.tocoo()
            size = matrix.shape[0] // half
            block = coo.row // size
            assert np.array_equal(block, coo.col // size)
            bands = np.zeros(half, dtype=int)
            np.maximum.at(bands, block, np.abs(coo.row - coo.col))
            assert set(bands.tolist()) == {11}
        est = fem.empirical_constant(m, material, robin, omega=kappa)
        assert est.lu_nnz < 1.5 * modes[0].nnz

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4])
    @pytest.mark.parametrize("kind", ["constant", "piecewise-radial"])
    def test_empirical_constant_matches_the_direct_factor(self, kind, lam_ratio):
        material = _radial_material(kind, lam_ratio)
        robin = core.RobinSpec.shear_matched(material)
        # the sector estimate starts from the seed's draw projected onto
        # modes 0..floor(n/2) and runs one Krylov space per mode; their sum
        # holds the one Krylov space of a run on the direct factor of the
        # fully assembled S_ff started from that projection on the free
        # dofs, so step by step its top Ritz value is at least that run's,
        # for every seed
        for n_theta in (15, 24):
            m = build_annulus_mesh(0.5, 1.0, 3, n_theta)
            for seed, ritz in enumerate(_direct_lanczos(m, material, robin, 2.0, range(8))):
                est = fem.empirical_constant(m, material, robin, omega=2.0, seed=seed)
                assert est.steps <= ritz.steps, (n_theta, seed)
                for k in range(est.steps):
                    floor = 4.0 * math.sqrt(ritz.thetas[k]) * (1.0 - 1e-12)
                    assert est.history[k] >= floor, (n_theta, seed, k)
                assert est.c_emp == pytest.approx(4.0 * math.sqrt(ritz.theta), rel=1e-10)

    @pytest.mark.parametrize("n_theta", [15, 24])
    def test_mode_residual_is_the_free_dof_residual(self, n_theta, material, robin):
        # the mode blocks are the unitary image of S_ff, so a relative
        # residual measured on them is the free-dof residual against the
        # fully assembled S_ff of the vectors with those modes
        m = build_annulus_mesh(0.5, 1.0, 3, n_theta)
        order, (s_modes, _) = fem._sector_modes(n_theta, *fem._sector_rows(m, material, robin, 2.0))
        s_ff, _ = fem.assemble(m, material, robin, omega=2.0).free_blocks
        rng = np.random.default_rng(9)
        size = s_modes.shape[0]
        b = rng.normal(size=size) + 1j * rng.normal(size=size)
        u = fem._factor(s_modes).solve(b)
        u = u + 1e-6 * np.abs(u).max() * (rng.normal(size=size) + 1j * rng.normal(size=size))
        in_modes = np.linalg.norm(s_modes @ u - b) / np.linalg.norm(b)

        def nodal(y):  # the local nodes in the mode blocks' order
            modes = np.zeros((n_theta,) + (size // (n_theta // 2 + 1) // 2, 2), dtype=complex)
            modes[: n_theta // 2 + 1, order] = y.reshape(n_theta // 2 + 1, -1, 2)
            return fem._from_modes(modes)

        on_free = np.linalg.norm(s_ff @ nodal(u) - nodal(b)) / np.linalg.norm(nodal(b))
        assert in_modes > 1e-9  # the perturbation, not rounding, sets it
        assert in_modes == pytest.approx(on_free, rel=1e-8)
        assert np.abs(fem._modal(n_theta, nodal(b), order) - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("order", [1, 2])
    def test_estimate_assembles_only_the_cells_around_sector_0(self, order, material, robin, monkeypatch):
        m = build_annulus_mesh(0.5, 1.0, 4, 24, order=order)
        counts = _counting_cells(monkeypatch)
        est = fem.empirical_constant(m, material, robin, omega=2.0)
        assert counts == [4 * m.n_r] and est.steps >= 1
        counts.clear()
        fem.assemble(m, material, robin, omega=2.0)
        assert counts == [m.n_cells]

    def test_broken_rotation_symmetry_misses_the_contract(self, material, robin):
        # the factor is made from sector 0's rows alone; a sector that does
        # not repeat them is caught by the backward error against S_ff
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        k = 10 * 7 + 2  # lattice point (2, 10): a vertex of sector 5's first interior ring
        s = fem.assemble(m, material, robin, omega=2.0)
        bump = sp.csr_matrix(([1e-9 * s.stiffness[2 * k, 2 * k]], ([2 * k], [2 * k])), s.stiffness.shape)
        s = dataclasses.replace(s, stiffness=s.stiffness + bump)
        f = np.random.default_rng(3).normal(size=(m.n_nodes, 2))
        with pytest.raises(SolverError, match="backward error"):
            fem.solve(s, f)

    def test_nonsymmetric_invariant_system_raises(self, material, robin):
        # c J on every node's diagonal block, J the quarter turn, commutes
        # with every rotation: each sector repeats sector 0's entries, but
        # B_0 != B_0^T, so S_{n-m} != S_m^T and half the modes would be wrong
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        turn = 1e-3 * np.abs(s.stiffness.diagonal()).max() * np.array([[0.0, 1.0], [-1.0, 0.0]])
        s = dataclasses.replace(s, stiffness=s.stiffness + sp.kron(sp.identity(m.n_nodes), turn, format="csr"))
        f = np.random.default_rng(3).normal(size=(m.n_nodes, 2))
        with pytest.raises(SolverError, match="the blocks are not symmetric"):
            fem.solve(s, f)

    @pytest.mark.parametrize(
        "defect", ["opposite-sector-coupling", "extra-eliminated-node", "half-eliminated-node"]
    )
    def test_irregular_sector_layout_raises(self, defect, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        k = 2  # lattice point (2, 0): a vertex of sector 0's first interior ring
        if defect == "opposite-sector-coupling":
            # a symmetric coupling of node k to its image in sector n/2
            far = k + 8 * 2 * 7  # sector 8 of 16, P = 2 (2 n_r + 1) nodes each
            c = 1e-3 * abs(s.stiffness[2 * k, 2 * k])
            bump = sp.csr_matrix(([c, c], ([2 * k, 2 * far], [2 * far, 2 * k])), s.stiffness.shape)
            s = dataclasses.replace(s, stiffness=s.stiffness + bump)
            reason = "coupling beyond neighbouring sectors"
        elif defect == "half-eliminated-node":
            # only node k's x dof eliminated: the free dofs no longer pair up
            dirichlet = np.union1d(s.dirichlet_dofs, [2 * k])
            free = np.setdiff1d(np.arange(s.n_dofs), dirichlet)
            s = dataclasses.replace(s, free=free, dirichlet_dofs=dirichlet)
            reason = "the free dofs are not whole nodes"
        else:
            # node k eliminated too: the free nodes no longer fill whole sectors
            dirichlet = np.union1d(s.dirichlet_dofs, [2 * k, 2 * k + 1])
            free = np.setdiff1d(np.arange(s.n_dofs), dirichlet)
            s = dataclasses.replace(s, free=free, dirichlet_dofs=dirichlet)
            reason = "different node counts"
        f = np.random.default_rng(3).normal(size=(m.n_nodes, 2))
        with pytest.raises(SolverError, match=reason):
            fem.solve(s, f)

    def test_sector_fill_uniform_in_lambda(self):
        # the direct factor of S_ff grows from 2.86M to 3.13M here, and the
        # mode blocks' from 80,384 to 89,332 (96,810 with plain partial
        # pivoting)
        cfg = fem.SweepConfig(kappa_s=(16.0,))
        m = fem.resolution_mesh(cfg, 16.0)
        nnz = []
        for lam_ratio in (1.0, 1e8):
            material = cfg.material(lam_ratio)
            s = fem.assemble(m, material, cfg.robin(material), omega=16.0)
            assert isinstance(s.lu, fem._SectorLU) and s.lu.modes == m.n_theta
            nnz.append(s.lu.lu.L.nnz + s.lu.lu.U.nnz)
        assert nnz[1] <= 1.25 * nnz[0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_every_sweep_mesh_takes_the_sector_path(self, order, monkeypatch):
        # the benchmark's kappa_s; the direct factor of the largest is ~9x
        # the sector factor's fill.  Lanczos runs one block per mode
        # 0..n_theta/2
        blocks = []
        lanczos = fem._lanczos
        monkeypatch.setattr(fem, "_lanczos", lambda *a: blocks.append(a[-1]) or lanczos(*a))
        shapes = _sector_row_shapes(monkeypatch)
        for kappa in (1.0, 2.0, 4.0, 16.0, 24.0, 32.0):
            cfg = fem.SweepConfig(kappa_s=(kappa,), order=order)
            m = fem.resolution_mesh(cfg, kappa)
            material = cfg.material(1.0)
            est = fem.empirical_constant(m, material, cfg.robin(material), omega=kappa)
            assert blocks.pop() == m.n_theta // 2 + 1 and 0 <= est.top_mode <= m.n_theta // 2
        # the mode blocks come from sector 0's rows alone
        assert len(shapes) == 2 * 6 and all(rows * n == cols for n, (rows, cols) in shapes)

    def test_every_identity_check_mesh_takes_the_sector_path(self, monkeypatch):
        from elastab import cli

        systems = []
        assemble = fem.assemble
        monkeypatch.setattr(fem, "assemble", lambda *a, **k: systems.append(assemble(*a, **k)) or systems[-1])
        row_shapes = _sector_row_shapes(monkeypatch)
        for suite in ("garding", "morawetz", "chain"):
            cli._SUITES[suite](0)
        shapes = {(s.mesh.n_r, s.mesh.n_theta) for s in systems}
        assert {(4, 32), (6, 64)} <= shapes and len(systems) == 4
        assert all(isinstance(s.lu, fem._SectorLU) for s in systems)
        # each system's factor is made from sector 0's rows of S_ff alone
        assert len(row_shapes) == 4 and all(rows * n == cols for n, (rows, cols) in row_shapes)


class TestSweep:
    def test_nearly_incompressible_row_meets_the_residual_contract(self):
        # at lambda/mu = 1e8 the relative residual of a backward-stable solve
        # is ~cond * eps, 3e-8 to 3e-7: above the old 1e-8 bound at most
        # seeds, however the solve is done in double.  The contract asks for
        # the normwise backward error instead: the solve is exact for a
        # system within 1e-14 of the factored one, which these rows meet at
        # ~5e-17 at every seed
        c_emp = []
        for kappa, seed in [(8.0, s) for s in range(8)] + [(16.0, 0)]:
            cfg = fem.SweepConfig(kappa_s=(kappa,), lambda_over_mu=(1e8,), seed=seed)
            [row] = fem.sweep(cfg)
            assert row.error is None, (kappa, seed, row.error)
            assert row.estimate.backward_error <= 1e-14
            assert math.isfinite(row.c_emp) and row.estimate.ritz_residual <= 1e-8
            if kappa == 8.0:
                c_emp.append(row.c_emp)
        # the seeds agree to 4.3e-10.  That is not c_emp's accuracy: solves
        # refined in long double put seed 0 1.5e-7 lower
        assert max(c_emp) - min(c_emp) <= 1e-6 * min(c_emp)

    def test_single_row_matches_empirical(self, material, robin):
        cfg = fem.SweepConfig(kappa_s=(1.0,), lambda_over_mu=(1.0,), seed=3)
        rows = fem.sweep(cfg)
        assert len(rows) == 1
        r = rows[0]
        m = fem.resolution_mesh(cfg, 1.0)
        direct = fem.empirical_constant(m, material, robin, omega=1.0, seed=3).c_emp
        assert r.c_emp == pytest.approx(direct, rel=1e-9)
        assert r.kappa_s == 1.0 and not r.refused
        assert r.estimate.steps >= 1 and 0.0 <= r.estimate.ritz_residual <= 1e-8

    def test_applicable_bound_follows_the_impedance(self):
        for choice, column in (("shear", "bound_ideal_full"), ("pressure", "bound_realistic")):
            [row] = fem.sweep(fem.SweepConfig(kappa_s=(1.0,), lambda_over_mu=(100.0,),
                                              robin_choice=choice))
            assert row.applicable_bound == getattr(row, column)
            assert row.slack == row.applicable_bound - row.c_emp
        # custom (alpha_t, alpha_n): the simple-Robin theorem on the annulus
        cfg = fem.SweepConfig(kappa_s=(1.0,), robin_choice="custom", alpha_t=0.5, alpha_n=3.0)
        [row] = fem.sweep(cfg)
        material = cfg.material(1.0)
        domain = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
        groups = core.derive_groups(material, domain, cfg.robin(material), row.omega)
        theorem = stability_simple_robin(groups, core.multiplier_for(domain), 2)
        assert row.applicable_bound == theorem.bound_value

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

    def test_rows_are_kappa_major_and_made_on_the_calling_thread(self, monkeypatch):
        calls = []

        def row(cfg, kappa, lam_ratio):
            calls.append((threading.get_ident(), kappa, lam_ratio))
            return (kappa, lam_ratio)

        monkeypatch.setattr(fem, "_sweep_row", row)
        cfg = fem.SweepConfig(kappa_s=(1.0, 2.0), lambda_over_mu=(1.0, 100.0))
        expected = [(1.0, 1.0), (1.0, 100.0), (2.0, 1.0), (2.0, 100.0)]
        assert fem.sweep(cfg) == expected
        assert calls == [(threading.get_ident(), k, lr) for k, lr in expected]

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
