import dataclasses
import gc
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elastab import core, fem, fields
from elastab import mesh as mesh_module
from elastab.bounds import stability_simple_robin
from elastab.errors import ConfigError, IterationError, MeshError, SolverError
from elastab.mesh import DIRICHLET, DISSIPATIVE, build_annulus_mesh
from fem_oracle import lifted_solve


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

        rng = np.random.default_rng(n_theta)
        u = rng.normal(size=(m.n_nodes, 2)) + 1j * rng.normal(size=(m.n_nodes, 2))
        for tag in (DIRICHLET, DISSIPATIVE):
            x, w, normal, [(val, grad)] = fem.evaluate_boundary(m, tag, [u])
            for got, want in zip((x, w, normal, val, grad), _samples_reference(m, tag, u)):
                assert got.shape == want.shape
                assert _rel(got, want) <= 1e-13

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
        calls, norms = [], []
        exact_factor, norm1 = fem._factor, fem._norm1
        monkeypatch.setattr(fem, "_factor", lambda s_ff: calls.append(1) or exact_factor(s_ff))
        monkeypatch.setattr(fem, "_norm1", lambda a: norms.append(1) or norm1(a))
        s = fem.assemble(m, material, robin, omega=2.0)
        shared = [fem.solve(s, f) for f in loads]
        # one factor and one ||S_ff||_1 for the backward errors of all solves
        assert len(calls) == 1 and len(norms) == 1
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
        s_ff = s.s_ff
        rhs_f = (s.mass @ f.reshape(-1))[s.free]
        first = s.lu.solve(rhs_f)
        assert np.linalg.norm(s_ff @ first - rhs_f) <= 1.01e-9 * np.linalg.norm(rhs_f)
        with pytest.raises(SolverError, match="residual: backward error .* above 1e-14"):
            fem.solve(s, f)

    def test_singular_system_raises(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        zero = sp.csr_matrix((s.n_dofs, s.n_dofs))
        singular = dataclasses.replace(s, stiffness=zero, robin_matrix=zero)
        # the factor is the plan's, of the system as assembled; the solve
        # misses the contract against S_ff = -omega^2 M_ff, which is not
        # the system the plan factored
        with pytest.raises(SolverError, match="backward error"):
            fem.solve(singular, np.ones((m.n_nodes, 2)))

    def test_singular_factor_raises(self):
        singular = sp.csc_matrix(np.diag([1.0, 0.0, 2.0]).astype(complex))
        with pytest.raises(SolverError, match="singular"):
            fem._factor(singular)

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
            surface = _load_reference(m, DISSIPATIVE, robin_residual)
            u = lifted_solve(s, f_fn(m.nodes), u_star.value(m.nodes), surface)
            _, w, [(val, _)] = fem.evaluate_volume(m, [u - u_star.value(m.nodes)])
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

    @pytest.mark.parametrize("omega", [0.0, -2.0, float("nan")])
    def test_nonpositive_frequency_raises(self, material, robin, omega):
        # the mode test's shift omega^2 / c_g needs a positive kappa_s
        m = build_annulus_mesh(0.5, 1.0, 3, 24, order=2)
        with pytest.raises(ValueError, match="omega must be positive"):
            fem.empirical_constant(m, material, robin, omega=omega)

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
    s_ff = s.s_ff
    assert isinstance(s.lu, fem._SectorLU)
    direct = fem._factor(s_ff)
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=s.free.size) + 1j * rng.normal(size=s.free.size)
    exact = direct.solve(rhs)
    assert np.abs(s.lu.solve(rhs) - exact).max() <= 1e-10 * np.abs(exact).max()


def _mode_projection(n, v, keep):
    """The free-dof vector whose angular modes ``keep`` (in 0..floor(n/2))
    are v's and whose other modes vanish."""
    modes = fem._to_modes(n, v)
    modes[np.setdiff1d(np.arange(n), keep)] = 0.0
    return fem._from_modes(modes)


def _direct_lanczos(m, material, robin, omega):
    """The estimate's oracle: a function of (seed, modes) that runs
    ``fem._lanczos`` in one Krylov space on the direct LU of the fully
    assembled S_ff, started from the seed's draw on the free dofs
    projected onto the angular modes ``modes``."""
    s = fem.assemble(m, material, robin, omega)
    s_ff = s.s_ff
    factor = fem._factor(s_ff)
    m_ff = s.mass[s.free][:, s.free].astype(complex).tocsr()

    def run(seed, modes):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=s_ff.shape[0]) + 1j * rng.normal(size=s_ff.shape[0])
        start = _mode_projection(m.n_theta, v, modes)
        return fem._lanczos(factor.solve, lambda b: factor.solve(b, trans="H"), m_ff, start)

    return run


def _coo_mode_blocks(n, indices, indptr, couplings):
    """The block-diagonal CSC of the h = floor(n/2) + 1 mode blocks of one
    matrix's couplings (3, nnz) on one block's CSC structure (indices,
    indptr), built entry by entry in COO form and converted: the oracle of
    ``fem._mode_blocks``'s tiled CSC.  The entries are the same product of
    the twiddles (1, w^m, w^-m) with the couplings, taken entry by entry."""
    half, size = n // 2 + 1, indptr.size - 1
    twiddle = np.exp(2j * math.pi * np.arange(half) / n)
    twiddles = np.stack([np.ones(half), twiddle, twiddle.conj()], axis=1)
    offset = size * np.arange(half)[:, None]
    rows = offset + indices
    cols = offset + np.repeat(np.arange(size), np.diff(indptr))
    data = twiddles @ couplings
    return sp.csc_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(half * size, half * size))


def _plan_modes(m, material, robin, omega):
    """(S, M): the mesh's plan's mode blocks of S_ff and M_ff in the modes
    0..floor(n_theta/2), as ``solve`` and the estimate make them."""
    plan = fem._sector_plan(m)
    parts = plan.couplings(material, robin, omega)
    every = np.arange(m.n_theta // 2 + 1)
    return plan.blocks(parts.system(omega), every), plan.blocks(parts.mass, every)


def _modal_image(m, a_ff, order):
    """The dense image of a free-dof matrix A_ff in the half-spectrum mode
    coordinates, local nodes in ``order``: column (mode, j) is
    ``fem._to_modes`` of A_ff applied to ``fem._from_modes`` of the unit
    vector e_(mode, j), over modes 0..floor(n_theta/2)."""
    n, half = m.n_theta, m.n_theta // 2 + 1
    size = a_ff.shape[0] // n  # 2L
    image = np.empty((half * size, half * size), dtype=complex)
    for column in range(image.shape[1]):
        unit = np.zeros((n, size // 2, 2), dtype=complex)
        mode, j = divmod(column, size)
        unit[mode, order[j // 2], j % 2] = 1.0
        image[:, column] = fem._modal(n, a_ff @ fem._from_modes(unit), order)
    return image


def _counting_cells(monkeypatch):
    """Record the cell count of every ``fem._element_matrices`` call."""
    counts = []
    element_matrices = fem._element_matrices

    def counted(geometry, material):
        counts.append(geometry[1].shape[0])
        return element_matrices(geometry, material)

    monkeypatch.setattr(fem, "_element_matrices", counted)
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
        # the modes run and those certified split the half spectrum, and the
        # one factor holds the mode blocks that were run
        assert sorted(est.modes_run + est.modes_certified) == list(range(n_theta // 2 + 1))
        assert est.modes_certified
        rows = len(est.modes_run) * local_dofs
        assert [lu.shape for lu in factors] == [(rows, rows)]
        # SuperLU's stored entries, explicit zeros in its supernodes included
        assert est.lu_nnz == factors[0].nnz >= factors[0].L.nnz + factors[0].U.nnz
        assert est.top_mode in est.modes_run

    @pytest.mark.parametrize("n_theta", [15, 24])
    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("kind", ["constant", "radial-profile", "piecewise-radial"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_plan_gives_the_mode_blocks_of_the_full_system(self, order, kind, lam_ratio, n_theta):
        # the mode blocks of ``solve`` and the estimate, from the element
        # matrices of the cells around sector 0 through the mesh's plan,
        # against the dense modal image of S_ff and M_ff assembled over the
        # whole mesh (which also holds nothing off the diagonal blocks); and
        # array for array (so the factor is bit for bit) against their COO
        # construction from the plan's CSC structure and couplings
        material = _radial_material(kind, lam_ratio)
        robin = core.RobinSpec.shear_matched(material)
        m = build_annulus_mesh(0.5, 1.0, 3, n_theta, order=order)
        s = fem.assemble(m, material, robin, omega=2.0)
        plan = fem._sector_plan(m)
        assert np.array_equal(np.sort(plan.order), np.arange(plan.order.size))
        full = (s.s_ff, s.mass[s.free][:, s.free])
        parts = plan.couplings(material, robin, 2.0)
        for got, a_ff, couplings in zip(_plan_modes(m, material, robin, 2.0), full, (parts.system(2.0), parts.mass)):
            exact = _modal_image(m, a_ff, plan.order)
            assert got.shape == exact.shape
            assert np.abs(got.toarray() - exact).max() <= 1e-12 * np.abs(exact).max()
            oracle = _coo_mode_blocks(n_theta, plan.indices, plan.indptr, couplings)
            for name in ("data", "indices", "indptr"):
                got_array, oracle_array = getattr(got, name), getattr(oracle, name)
                assert got_array.dtype == oracle_array.dtype and np.array_equal(got_array, oracle_array)

    def test_plan_is_kept_with_its_mesh_and_freed_with_it(self, material, robin):
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        plan = fem._sector_plan(m)
        assert fem._sector_plan(m) is plan
        assert fem._sector_plan(build_annulus_mesh(0.5, 1.0, 3, 16, order=2)) is not plan
        fem.empirical_constant(m, material, robin, omega=2.0)
        assert fem._sector_plan(m) is plan
        mesh_ref, plan_ref = weakref.ref(m), weakref.ref(plan)
        del m, plan
        gc.collect()
        assert mesh_ref() is None and plan_ref() is None

    @pytest.mark.parametrize("n_r", [2, 5, 20])
    @pytest.mark.parametrize("order", [1, 2])
    def test_mode_blocks_are_banded(self, order, n_r, material, robin):
        # in the lattice band order every mode block has half-bandwidth
        # 2 p (p + 1) - 1 dofs, 3 at order 1 and 11 at order 2, whatever n_r,
        # and the factor keeps the band: every pivot is on the diagonal, and
        # L and U lie within the band
        m = build_annulus_mesh(0.5, 1.0, n_r, 48, order=order)
        modes = _plan_modes(m, material, robin, 2.0)
        half, band = m.n_theta // 2 + 1, 2 * order * (order + 1) - 1
        for matrix in modes:
            coo = matrix.tocoo()
            size = matrix.shape[0] // half
            block = coo.row // size
            assert np.array_equal(block, coo.col // size)
            bands = np.zeros(half, dtype=int)
            np.maximum.at(bands, block, np.abs(coo.row - coo.col))
            assert set(bands.tolist()) == {band}
        factor = fem._factor(modes[0])
        assert np.array_equal(factor.perm_r, np.arange(modes[0].shape[0]))
        for triangle in (factor.L.tocoo(), factor.U.tocoo()):
            assert np.abs(triangle.row - triangle.col).max() == band

    def test_no_graph_ordering_is_loaded(self):
        # the band order is read off the lattice: a fresh interpreter that
        # imports fem and makes an estimate and a solve never loads
        # scipy.sparse.csgraph (ten submodules, ~1.1 MB)
        code = (
            "import sys\n"
            "from elastab import core, fem\n"
            "assert not [m for m in sys.modules if 'csgraph' in m]\n"
            "material = core.MaterialField.constant(1.0, 1.0, 1.0)\n"
            "robin = core.RobinSpec.shear_matched(material)\n"
            "mesh = fem.resolution_mesh(fem.SweepConfig(), 1.0)\n"
            "fem.empirical_constant(mesh, material, robin, 1.0)\n"
            "fem.solve(fem.assemble(mesh, material, robin, 1.0), [[1.0, 0.0]] * mesh.n_nodes)\n"
            "loaded = [m for m in sys.modules if 'csgraph' in m]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(fem.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("kappa", [8.0, 32.0])
    def test_factor_stores_few_more_entries_than_the_blocks(self, kappa):
        # SuperLU's stored entries, explicit zeros of its supernodes
        # included, against the mode blocks' (1.16-1.25x here)
        cfg = fem.SweepConfig(kappa_s=(kappa,))
        m = fem.resolution_mesh(cfg, kappa)
        material = cfg.material(1.0)
        robin = cfg.robin(material)
        s_modes, _ = _plan_modes(m, material, robin, kappa)
        est = fem.empirical_constant(m, material, robin, omega=kappa)
        assert est.lu_nnz < 1.5 * s_modes.nnz

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4])
    @pytest.mark.parametrize("kind", ["constant", "piecewise-radial"])
    def test_empirical_constant_matches_the_direct_factor(self, kind, lam_ratio):
        material = _radial_material(kind, lam_ratio)
        robin = core.RobinSpec.shear_matched(material)
        # the sector estimate starts from the seed's draw projected onto the
        # modes it runs and runs one Krylov space per mode; their sum holds
        # the one Krylov space of a run on the direct factor of the fully
        # assembled S_ff started from that projection on the free dofs, so
        # step by step its top Ritz value is at least that run's, for every
        # seed.  The modes it certifies hold nothing above c_emp: a direct
        # run from the projection onto all of 0..floor(n/2) finds c_emp
        for n_theta in (15, 24):
            m = build_annulus_mesh(0.5, 1.0, 3, n_theta)
            direct = _direct_lanczos(m, material, robin, 2.0)
            for seed in range(8):
                est = fem.empirical_constant(m, material, robin, omega=2.0, seed=seed)
                assert est.modes_certified, (n_theta, seed)
                ritz = direct(seed, est.modes_run)
                assert est.steps <= ritz.steps, (n_theta, seed)
                for k in range(est.steps):
                    floor = 4.0 * math.sqrt(ritz.thetas[k]) * (1.0 - 1e-12)
                    assert est.history[k] >= floor, (n_theta, seed, k)
                ritz = direct(seed, np.arange(n_theta // 2 + 1))
                assert est.c_emp == pytest.approx(4.0 * math.sqrt(ritz.theta), rel=1e-10)

    @pytest.mark.parametrize("n_theta", [15, 24])
    def test_mode_residual_is_the_free_dof_residual(self, n_theta, material, robin):
        # the mode blocks are the unitary image of S_ff, so a relative
        # residual measured on them is the free-dof residual against the
        # fully assembled S_ff of the vectors with those modes
        m = build_annulus_mesh(0.5, 1.0, 3, n_theta)
        order, (s_modes, _) = fem._sector_plan(m).order, _plan_modes(m, material, robin, 2.0)
        s_ff = fem.assemble(m, material, robin, omega=2.0).s_ff
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
        # the factor is made from the mesh's plan, not from the assembled
        # matrices; a sector that does not repeat sector 0 is caught by the
        # backward error against S_ff
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
        # B_0 != B_0^T, so S_{n-m} != S_m^T and half the modes would be
        # wrong; the factor, made from the plan, misses the contract
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        turn = 1e-3 * np.abs(s.stiffness.diagonal()).max() * np.array([[0.0, 1.0], [-1.0, 0.0]])
        s = dataclasses.replace(s, stiffness=s.stiffness + sp.kron(sp.identity(m.n_nodes), turn, format="csr"))
        f = np.random.default_rng(3).normal(size=(m.n_nodes, 2))
        with pytest.raises(SolverError, match="backward error"):
            fem.solve(s, f)

    @pytest.mark.parametrize(
        "defect", ["opposite-sector-coupling", "extra-eliminated-node", "half-eliminated-node"]
    )
    def test_irregular_sector_layout_raises(self, defect, material, robin):
        # the free dofs come from the mesh, so a system cannot drop dofs
        # from them; its matrices can still break the sector layout after
        # assembly, and the factor, made from the plan, misses the contract
        m = build_annulus_mesh(0.5, 1.0, 3, 16, order=2)
        s = fem.assemble(m, material, robin, omega=2.0)
        k = 2  # lattice point (2, 0): a vertex of sector 0's first interior ring
        if defect == "opposite-sector-coupling":
            # a symmetric coupling of node k to its image in sector n/2,
            # which no mode block holds
            far = k + 8 * 2 * 7  # sector 8 of 16, P = 2 (2 n_r + 1) nodes each
            c = 1e-3 * abs(s.stiffness[2 * k, 2 * k])
            bump = sp.csr_matrix(([c, c], ([2 * k, 2 * far], [2 * far, 2 * k])), s.stiffness.shape)
            s = dataclasses.replace(s, stiffness=s.stiffness + bump)
        else:
            # node k's dofs (only its x dof for half-eliminated-node) held
            # by identity rows and columns, as an eliminated dof is, in
            # sector 0 alone
            pinned = [2 * k] if defect == "half-eliminated-node" else [2 * k, 2 * k + 1]
            keep = np.ones(s.n_dofs)
            keep[pinned] = 0.0
            cut, pin = sp.diags(keep), sp.diags(1.0 - keep)
            s = dataclasses.replace(
                s,
                stiffness=(cut @ s.stiffness @ cut + pin).tocsr(),
                mass=(cut @ s.mass @ cut).tocsr(),
                robin_matrix=(cut @ s.robin_matrix @ cut).tocsr(),
            )
            assert np.array_equal(s.free, fem._free_dofs(m)) and set(pinned) <= set(s.free)
        f = np.random.default_rng(3).normal(size=(m.n_nodes, 2))
        with pytest.raises(SolverError, match="backward error"):
            fem.solve(s, f)

    def test_sector_fill_uniform_in_lambda(self):
        # on the lattice-ordered mode blocks, L + U grows from 82,968 to
        # 84,644 here (1.02x) with the relaxed threshold, and from 83,190
        # to 97,142 (1.17x) with plain partial pivoting (diag_pivot_thresh
        # 1); the bound lies between them
        cfg = fem.SweepConfig(kappa_s=(16.0,))
        m = fem.resolution_mesh(cfg, 16.0)
        nnz = []
        for lam_ratio in (1.0, 1e8):
            material = cfg.material(lam_ratio)
            s = fem.assemble(m, material, cfg.robin(material), omega=16.0)
            assert isinstance(s.lu, fem._SectorLU) and s.lu.sectors == m.n_theta
            nnz.append(s.lu.lu.L.nnz + s.lu.lu.U.nnz)
        assert nnz[1] <= 1.08 * nnz[0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_every_sweep_mesh_takes_the_sector_path(self, order, monkeypatch):
        # the benchmark's kappa_s; the direct factor of the largest is ~9x
        # the sector factor's fill.  Lanczos runs one block per mode it
        # does not certify, and the modes run and certified make up
        # 0..n_theta/2; at kappa_s = 32 it runs 39 of 126 modes (order 2)
        # and 37 of 250 (order 1)
        blocks = []
        lanczos = fem._lanczos
        monkeypatch.setattr(fem, "_lanczos", lambda *a: blocks.append(a[-1]) or lanczos(*a))
        counts = _counting_cells(monkeypatch)
        for kappa in (1.0, 2.0, 4.0, 16.0, 24.0, 32.0):
            cfg = fem.SweepConfig(kappa_s=(kappa,), order=order)
            m = fem.resolution_mesh(cfg, kappa)
            material = cfg.material(1.0)
            est = fem.empirical_constant(m, material, cfg.robin(material), omega=kappa)
            half = m.n_theta // 2 + 1
            assert blocks.pop() == len(est.modes_run) and est.top_mode in est.modes_run
            assert len(est.modes_run) + len(est.modes_certified) == half
            if kappa == 32.0:
                assert len(est.modes_run) <= 0.4 * half
            # the mode blocks come from the element matrices of the cells
            # around sector 0 alone, through the mesh's plan
            assert counts == [4 * m.n_r] and fem._SectorPlan in m.derived
            counts.clear()

    def test_every_identity_check_mesh_takes_the_sector_path(self, monkeypatch):
        from elastab import cli

        systems = []
        assemble = fem.assemble
        monkeypatch.setattr(fem, "assemble", lambda *a, **k: systems.append(assemble(*a, **k)) or systems[-1])
        counts = _counting_cells(monkeypatch)
        for suite in ("garding", "morawetz", "chain"):
            cli._SUITES[suite](0)
        shapes = {(s.mesh.n_r, s.mesh.n_theta) for s in systems}
        assert {(4, 32), (6, 64)} <= shapes and len(systems) == 4
        assert all(isinstance(s.lu, fem._SectorLU) for s in systems)
        # each system's factor is made through its mesh's plan, from the
        # element matrices of the 4 n_r cells around sector 0, after the
        # assembly of all its cells
        assert all(fem._SectorPlan in s.mesh.derived for s in systems)
        assert counts == [c for s in systems for c in (s.mesh.n_cells, 4 * s.mesh.n_r)]


def _hermitian(block):
    """The dense Hermitian matrix of a mode block's lower triangle, as the
    certificate reads it."""
    lower = np.tril(block.toarray(), -1)
    return lower + lower.conj().T + np.diag(block.diagonal().real)


def _row_estimate(kappa, lam_ratio):
    """(mesh, material, robin, omega, estimate) of a shear-matched sweep row."""
    cfg = fem.SweepConfig(kappa_s=(kappa,))
    m = fem.resolution_mesh(cfg, kappa)
    material = cfg.material(lam_ratio)
    robin = cfg.robin(material)
    omega = kappa * material.theta_s_min
    return m, material, robin, omega, fem.empirical_constant(m, material, robin, omega)


class TestModeCertificate:
    """The modes the estimate skips: H_m - tau M_m proven positive definite
    by a shifted banded Cholesky, so their constants lie below c_emp."""

    @pytest.mark.parametrize("lam_ratio", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("kappa", [4.0, 8.0, 16.0])
    def test_skipped_modes_against_dense_oracles(self, kappa, lam_ratio):
        # per skipped mode: the smallest eigenvalue of the pencil (H_m, M_m)
        # lies above tau, and omega^2 times the mode's largest singular
        # value of L^H S_m^-1 L (M_m = L L^H) is at most c_emp
        m, material, robin, omega, est = _row_estimate(kappa, lam_ratio)
        assert est.modes_certified and omega**2 / est.tau <= est.c_emp
        plan = fem._sector_plan(m)
        parts = plan.couplings(material, robin, omega)
        s_couplings = parts.hermitian - 1j * omega * parts.robin
        for mode in est.modes_certified:
            h, mass = (_hermitian(plan.blocks(c, [mode])) for c in (parts.hermitian, parts.mass))
            assert la.eigh(h, mass, eigvals_only=True)[0] > est.tau, mode
            chol = np.linalg.cholesky(mass)
            s_m = plan.blocks(s_couplings, [mode]).toarray()
            sigma = la.svdvals(chol.conj().T @ np.linalg.solve(s_m, chol))[0]
            assert omega**2 * sigma <= est.c_emp, mode

    def test_certificate_is_sharp_to_the_pencil(self, material, robin, monkeypatch):
        # a mode passes at tau 1e-6 below its pencil's smallest eigenvalue
        # and fails 1e-6 above it (the rounding shift costs less than that),
        # and at its smallest eigenvalue itself
        m = build_annulus_mesh(0.5, 1.0, 3, 24)
        plan = fem._sector_plan(m)
        parts = plan.couplings(material, robin, 2.0)
        modes = np.arange(13)
        low = np.array([
            la.eigh(*(_hermitian(plan.blocks(c, [mode])) for c in (parts.hermitian, parts.mass)),
                    eigvals_only=True)[0]
            for mode in modes
        ])
        assert low[0] < 0.0 < low[-1]  # propagating and evanescent modes
        for mode, gap in zip(modes, 1e-6 * np.abs(low)):
            assert plan.certify(parts, low[mode] - gap, [mode]) == 1, mode
            assert plan.certify(parts, low[mode], [mode]) == 0, mode
            assert plan.certify(parts, low[mode] + gap, [mode]) == 0, mode
        # taken from the top down, the count is that of the modes before the
        # first that fails, across calls of the banded factorization
        top_down = modes[::-1]
        for chunk in (1, 2, 5, 16):
            monkeypatch.setattr(fem, "_CERTIFY_CHUNK", chunk)
            for tau in low:
                fails = low[top_down] <= tau + 1e-6 * abs(tau)
                expected = int(np.argmax(fails)) if fails.any() else modes.size
                assert plan.certify(parts, tau, top_down) == expected, (chunk, tau)

    @pytest.mark.parametrize("kappa,lam_ratio", [(1.0, 1e8), (4.0, 1.0), (16.0, 1.0), (16.0, 1e8)])
    def test_certifying_changes_no_bit_of_the_estimate(self, kappa, lam_ratio, monkeypatch):
        # a guard that certifies nothing runs every mode: the estimate with
        # its certified modes left out reads the same c_emp, steps and top
        # mode, each mode's Krylov space being the same.  At kappa_s = 1 and
        # lambda/mu = 1e8 every mode passes at the first guard, which is
        # halved 8 times
        *_, est = _row_estimate(kappa, lam_ratio)
        monkeypatch.setattr(fem, "_GUARD", 1e-12)
        *_, every = _row_estimate(kappa, lam_ratio)
        assert every.modes_certified == () and est.modes_certified
        assert (est.c_emp, est.steps, est.top_mode) == (every.c_emp, every.steps, every.top_mode)
        assert est.lu_nnz < every.lu_nnz

    def test_retest_path(self, monkeypatch):
        # a guard above c_emp: at kappa_s = 16, c_emp = 10.07 (mode 9), and
        # mode 16 is the only one whose pencil bound omega^2 / lambda_min
        # (41.6) lies between it and c_g = 48.  The first run takes modes
        # 0..15, mode 16 fails the test again at tau = omega^2 / c_emp and
        # joins a second run, and the result is that of a run with nothing
        # certified
        calls = []
        lanczos = fem._lanczos
        monkeypatch.setattr(fem, "_lanczos", lambda *a: calls.append(a[-1]) or lanczos(*a))
        monkeypatch.setattr(fem, "_GUARD", 3.0)
        m, material, robin, omega, est = _row_estimate(16.0, 1.0)
        assert calls == [16, 17] and est.modes_run == tuple(range(17))
        # the certified modes were proven at tau = omega^2 / c_emp
        assert abs(omega**2 / est.tau - est.c_emp) <= 1e-15 * est.c_emp
        monkeypatch.setattr(fem, "_GUARD", 1e-12)
        *_, every = _row_estimate(16.0, 1.0)
        assert (est.c_emp, est.steps, est.top_mode) == (every.c_emp, every.steps, every.top_mode)
        assert est.modes_certified

    def test_all_certified_path(self, monkeypatch):
        # a guard far above every mode's constant certifies every mode: it
        # is halved until some mode fails, and the result is that of a run
        # with nothing certified
        tests = []
        certify = fem._SectorPlan.certify

        def spied(self, parts, tau, modes):
            count = certify(self, parts, tau, modes)
            tests.append((tau, count == len(modes)))
            return count

        monkeypatch.setattr(fem._SectorPlan, "certify", spied)
        monkeypatch.setattr(fem, "_GUARD", 1e6)
        # at kappa_s = 1 every mode is evanescent, its bound below 0.2: the
        # guard starts at 1e6 and halves more than 20 times
        m, material, robin, omega, est = _row_estimate(1.0, 1.0)
        first_failure = [passed for _, passed in tests].index(False)
        assert first_failure > 20
        halved = [tau for tau, _ in tests[: first_failure + 1]]
        assert all(b == 2.0 * a for a, b in zip(halved, halved[1:]))
        assert est.modes_certified and omega**2 / est.tau <= est.c_emp
        monkeypatch.setattr(fem, "_GUARD", 1e-12)
        *_, every = _row_estimate(1.0, 1.0)
        assert (est.c_emp, est.steps, est.top_mode) == (every.c_emp, every.steps, every.top_mode)


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
        calls, meshes = [], []

        def row(cfg, mesh, kappa, lam_ratio):
            calls.append((threading.get_ident(), mesh, kappa, lam_ratio))
            return (kappa, lam_ratio)

        build = fem._mesh.build_annulus_mesh
        monkeypatch.setattr(fem._mesh, "build_annulus_mesh", lambda *a: meshes.append(build(*a)) or meshes[-1])
        monkeypatch.setattr(fem, "_sweep_row", row)
        cfg = fem.SweepConfig(kappa_s=(1.0, 2.0), lambda_over_mu=(1.0, 100.0))
        expected = [(1.0, 1.0), (1.0, 100.0), (2.0, 1.0), (2.0, 100.0)]
        assert fem.sweep(cfg) == expected
        mine = threading.get_ident()
        assert [(t, k, lr) for t, _, k, lr in calls] == [(mine, k, lr) for k, lr in expected]
        # one mesh per kappa_s, shared by its rows
        assert len(meshes) == 2 and all(call[1] is meshes[i // 2] for i, call in enumerate(calls))

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

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.sampled_from([1, 2]),
        r_in=st.floats(0.05, 0.95),
        ppw=st.floats(0.3, 32.0),
        kappa=st.floats(0.1, 63.0),
    )
    def test_every_buildable_resolution_mesh_meets_the_policy_with_its_margin(
        self, order, r_in, ppw, kappa
    ):
        # the longest edge, the cell diagonal, is sized at the target
        # spacing, so the measured points per wavelength keep the whole
        # margin and a row built from a document is never refused
        cfg = fem.SweepConfig(r_in=r_in, kappa_s=(kappa,), order=order, points_per_wavelength=ppw)
        n_r, n_theta = fem._resolution(cfg, kappa)
        assume((order * n_r + 1) * order * n_theta <= 20_000)  # keeps each mesh cheap
        try:
            m = fem.resolution_mesh(cfg, kappa)
        except MeshError:  # a thin annulus inverts a cell of a coarse order-2 mesh
            assume(False)
        theta = cfg.material(1.0).theta_s_min
        measured = m.points_per_wavelength(kappa * theta / cfg.ell, theta)
        assert measured >= ppw * cfg.resolution_margin * (1.0 - 1e-12)

    @pytest.mark.parametrize("rho, mu", [(2.0, 8.0), (1.0, 1.7714368066207214e-249), (1e-200, 1e200)])
    def test_row_depends_on_the_material_only_through_kappa_and_ratio(self, rho, mu):
        # scaling mu and lambda by s and rho by r scales S by s and M by r at
        # the same kappa_s: c_emp and the bounds stay, only omega moves
        unit = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(3.0,), robin_choice="pressure")
        [base] = fem.sweep(unit)
        [row] = fem.sweep(dataclasses.replace(unit, rho=rho, mu=mu))
        assert row.c_emp == base.c_emp and row.applicable_bound == base.applicable_bound
        assert row.points_per_wavelength == base.points_per_wavelength
        assert row.omega == 2.0 * math.sqrt(mu / rho)

    def test_resolution_policy_refusal(self):
        cfg = fem.SweepConfig(
            kappa_s=(40.0,), lambda_over_mu=(1.0,),
            points_per_wavelength=200.0, resolution_margin=0.01,
        )
        rows = fem.sweep(cfg)
        assert rows[0].refused and rows[0].c_emp is None
