"""2D vector finite elements on the annulus probe.

Assembles the dissipative time-harmonic system

    S(omega) = K - omega^2 M - i omega R

with K the elastic stiffness (2 mu strain:strain + lambda div div), M the
density-weighted mass, and R the impedance boundary matrix on the outer
circle.  Solving S u = M f realizes the weak problem with load (rho f, v).
Dirichlet conditions on the inner circle are imposed by elimination.

The module also measures the empirical stability constant
omega^2 * sup ||u||_rho / ||f||_rho: Lanczos in the rho-weighted (mass)
inner product on the normal operator of the discrete solution map, stopped
on a Ritz-residual certificate.  ``solve`` and ``empirical_constant`` share
one factorization helper, a symmetric-pattern ordering with
diagonal-preferring pivoting, and one residual check, which refines a
solve that misses the contract once, on a long-double residual.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from . import mesh as _mesh
from .bounds import bound_obstacle_ideal, bound_obstacle_realistic
from .core import MaterialField, RobinSpec
from .errors import ConfigError, IterationError, MeshError, SolverError
from .mesh import DIRICHLET, DISSIPATIVE, Mesh

__all__ = [
    "AssembledSystem",
    "SolveResult",
    "assemble",
    "boundary_load",
    "solve",
    "evaluate_volume",
    "evaluate_boundary",
    "discrete_quantities",
    "empirical_constant",
    "ConstantEstimate",
    "SweepConfig",
    "SweepRow",
    "resolution_mesh",
    "sweep",
]

_RESIDUAL_TOL = 1e-8

# Largest resolution mesh a sweep builds: kappa_s ~ 100 at the default
# policy (order 2, 10 points per wavelength).  Peak memory grows about
# linearly in the node count (~1 GB at kappa_s = 64, 80,676 nodes), so the
# budget keeps a row near 3 GB.
NODE_BUDGET = 200_000

# degree-5 rule on the reference triangle (weights sum to 1/2)
_TRI_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [0.059715871789770, 0.470142064105115],
        [0.470142064105115, 0.059715871789770],
        [0.470142064105115, 0.470142064105115],
        [0.797426985353087, 0.101286507323456],
        [0.101286507323456, 0.797426985353087],
        [0.101286507323456, 0.101286507323456],
    ]
)
_TRI_QW = 0.5 * np.array(
    [
        0.225,
        0.132394152788506,
        0.132394152788506,
        0.132394152788506,
        0.125939180544827,
        0.125939180544827,
        0.125939180544827,
    ]
)

_EDGE_QP, _EDGE_QW = np.polynomial.legendre.leggauss(4)
_EDGE_QP = 0.5 * (_EDGE_QP + 1.0)
_EDGE_QW = 0.5 * _EDGE_QW


def _shapes(order: int, pts: np.ndarray):
    """Shape values (Q, a) and reference gradients (Q, a, 2) at pts (Q, 2)."""
    xi, eta = pts[:, 0], pts[:, 1]
    lam1 = 1.0 - xi - eta
    if order == 1:
        n = np.stack([lam1, xi, eta], axis=1)
        dn = np.broadcast_to(
            np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), (pts.shape[0], 3, 2)
        ).copy()
        return n, dn
    n = np.stack(
        [
            lam1 * (2.0 * lam1 - 1.0),
            xi * (2.0 * xi - 1.0),
            eta * (2.0 * eta - 1.0),
            4.0 * lam1 * xi,
            4.0 * xi * eta,
            4.0 * eta * lam1,
        ],
        axis=1,
    )
    z = np.zeros_like(xi)
    dn = np.stack(
        [
            np.stack([1.0 - 4.0 * lam1, 1.0 - 4.0 * lam1], axis=1),
            np.stack([4.0 * xi - 1.0, z], axis=1),
            np.stack([z, 4.0 * eta - 1.0], axis=1),
            np.stack([4.0 * (lam1 - xi), -4.0 * xi], axis=1),
            np.stack([4.0 * eta, 4.0 * xi], axis=1),
            np.stack([-4.0 * eta, 4.0 * (lam1 - eta)], axis=1),
        ],
        axis=1,
    )
    return n, dn


def _edge_shapes(order: int, t: np.ndarray):
    if order == 1:
        n = np.stack([1.0 - t, t], axis=1)
        dn = np.stack([-np.ones_like(t), np.ones_like(t)], axis=1)
    else:
        n = np.stack([(1.0 - t) * (1.0 - 2.0 * t), t * (2.0 * t - 1.0), 4.0 * t * (1.0 - t)], axis=1)
        dn = np.stack([4.0 * t - 3.0, 4.0 * t - 1.0, 4.0 - 8.0 * t], axis=1)
    return n, dn


# local edge k runs from reference corner k to corner k+1; its points (3, Qe, 2)
_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_EDGE_REF = (
    (1.0 - _EDGE_QP[:, None]) * _CORNERS[:, None] + _EDGE_QP[:, None] * _CORNERS[[1, 2, 0], None]
)


def _grad_x(dn, xc):
    """det J and physical shape gradients dn_x[..., a, j] = d_j N_a from
    reference gradients dn (..., a, 2) and element nodes xc (..., a, 2),
    broadcasting over the leading axes; MeshError where det J <= 0."""
    # J[..., i, k] = sum_a dn[..., a, k] * xc[..., a, i]
    jac = np.einsum("...ak,...ai->...ik", dn, xc)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(det <= 0.0):
        raise MeshError("singular or inverted element Jacobian")
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1] / det
    inv[..., 0, 1] = -jac[..., 0, 1] / det
    inv[..., 1, 0] = -jac[..., 1, 0] / det
    inv[..., 1, 1] = jac[..., 0, 0] / det
    # grad_x N_a[j] = sum_k inv[k,j] dn[a,k]
    return det, np.einsum("...kj,...ak->...aj", inv, dn)


def _geometry(mesh: Mesh, pts: np.ndarray):
    """Per-cell isoparametric geometry at reference points pts.

    Returns (n (Q,a), x (Nc,Q,2), detJ (Nc,Q), dn_x (Nc,Q,a,2))."""
    n, dn = _shapes(mesh.order, pts)
    xc = mesh.nodes[mesh.conn]  # (Nc, a, 2)
    det, dnx = _grad_x(dn, xc[:, None])
    x = np.einsum("qa,cai->cqi", n, xc)
    return n, x, det, dnx


class _EdgeQuadrature(NamedTuple):
    """Edge-quadrature data of one boundary tag, edges in ``boundary_edges``
    order."""

    cells: np.ndarray   # (E,) owning triangles
    local: np.ndarray   # (E,) local edge numbers
    nodes: np.ndarray   # (E, ae) node ids along each edge
    x: np.ndarray       # (E, Qe, 2) points
    w: np.ndarray       # (E, Qe) arc-length weights
    normal: np.ndarray  # (E, Qe, 2) outward unit normals


def _edge_quadrature(mesh: Mesh, tag: str) -> _EdgeQuadrature:
    """Gather the edges tagged ``tag`` once and place the edge rule on all
    of them.  Normals are radial (origin-centered circles): outward from
    the domain, so away from the origin on the dissipative circle and
    towards it on the Dirichlet one."""
    edges = [e for e in mesh.boundary_edges if e.tag == tag]
    if not edges:
        raise ValueError(f"no boundary edges tagged {tag!r}")
    nodes = np.array([e.nodes for e in edges], dtype=int)
    en, edn = _edge_shapes(mesh.order, _EDGE_QP)
    xe = mesh.nodes[nodes]  # (E, ae, 2)
    x = en @ xe
    w = np.linalg.norm(edn @ xe, axis=-1) * _EDGE_QW
    sign = 1.0 if tag == DISSIPATIVE else -1.0
    return _EdgeQuadrature(
        cells=np.array([e.cell for e in edges], dtype=int),
        local=np.array([e.local_edge for e in edges], dtype=int),
        nodes=nodes,
        x=x,
        w=w,
        normal=sign * x / np.linalg.norm(x, axis=-1, keepdims=True),
    )


def _dofs(nodes: np.ndarray) -> np.ndarray:
    """Interleaved dof numbers (E, 2a), x before y, of node ids (E, a)."""
    dofs = np.empty((nodes.shape[0], 2 * nodes.shape[1]), dtype=int)
    dofs[:, 0::2] = 2 * nodes
    dofs[:, 1::2] = 2 * nodes + 1
    return dofs


def _scatter(dofs: np.ndarray, blocks: np.ndarray, ndof: int) -> sp.csr_matrix:
    """Sum of element blocks (E, k, k) placed at their dofs (E, k)."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()


@dataclass(frozen=True)
class AssembledSystem:
    """Sparse building blocks of S(omega) = K - omega^2 M - i omega R."""

    mesh: Mesh
    material: MaterialField
    robin: RobinSpec
    omega: float
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    robin_matrix: sp.csr_matrix
    free: np.ndarray
    dirichlet_dofs: np.ndarray

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes

    def system_matrix(self) -> sp.csc_matrix:
        s = self.stiffness - self.omega**2 * self.mass - 1j * self.omega * self.robin_matrix
        return s.tocsc()

    @cached_property
    def free_blocks(self) -> tuple:
        """(S_ff, S_fd): the free rows of S against the free and the
        Dirichlet columns."""
        s_f = self.system_matrix()[self.free]
        return s_f[:, self.free].tocsc(), s_f[:, self.dirichlet_dofs]

    @cached_property
    def lu(self):
        """Sparse LU of S_ff, made on first use and shared by every later
        solve with this system."""
        return _factor(self.free_blocks[0])


def assemble(mesh: Mesh, material: MaterialField, robin: RobinSpec, omega: float) -> AssembledSystem:
    n, x, det, dnx = _geometry(mesh, _TRI_QP)
    nc, nq, na = dnx.shape[0], dnx.shape[1], dnx.shape[2]
    mu_q = material.mu(x.reshape(-1, 2)).reshape(nc, nq)
    lam_q = material.lam(x.reshape(-1, 2)).reshape(nc, nq)
    rho_q = material.rho(x.reshape(-1, 2)).reshape(nc, nq)
    wdet = _TRI_QW[None, :] * det  # (Nc, Q)

    # stiffness: mu (dN_a[c2] dN_b[c1] + delta_{c1 c2} gradN_a.gradN_b)
    #            + lam dN_a[c1] dN_b[c2]
    gdot = np.einsum("cq,cqaj,cqbj->cab", wdet * mu_q, dnx, dnx, optimize=True)
    # dN_a[i] dN_b[j]
    cross = np.einsum("cq,cqai,cqbj->cabij", wdet * mu_q, dnx, dnx, optimize=True)
    dil = np.einsum("cq,cqai,cqbj->cabij", wdet * lam_q, dnx, dnx, optimize=True)
    ke = np.zeros((nc, 2 * na, 2 * na))
    mass_n = np.einsum("cq,qa,qb->cab", wdet * rho_q, n, n, optimize=True)
    me = np.zeros((nc, 2 * na, 2 * na))
    for c1 in range(2):
        for c2 in range(2):
            blk = cross[:, :, :, c2, c1] + dil[:, :, :, c1, c2]
            if c1 == c2:
                blk = blk + gdot
                me[:, c1::2, c2::2] = mass_n
            ke[:, c1::2, c2::2] = blk

    ndof = 2 * mesh.n_nodes
    dofs = _dofs(mesh.conn)
    stiffness = _scatter(dofs, ke, ndof)
    mass = _scatter(dofs, me, ndof)

    # impedance matrix on the dissipative circle: a_T I + (a_N - a_T) n (x) n
    edges = _edge_quadrature(mesh, DISSIPATIVE)
    en, _ = _edge_shapes(mesh.order, _EDGE_QP)
    nrm = edges.normal
    amat = robin.a_t * np.eye(2) + (robin.a_n - robin.a_t) * (nrm[..., :, None] * nrm[..., None, :])
    blk = np.einsum("eq,qa,qb,eqij->eaibj", edges.w, en, en, amat)  # ravels as (E, 2ae, 2ae)
    robin_matrix = _scatter(_dofs(edges.nodes), blk, ndof)

    dir_nodes = mesh.boundary_nodes(DIRICHLET)
    dirichlet_dofs = np.concatenate([2 * dir_nodes, 2 * dir_nodes + 1])
    dirichlet_dofs.sort()
    free = np.setdiff1d(np.arange(ndof), dirichlet_dofs)
    return AssembledSystem(
        mesh=mesh,
        material=material,
        robin=robin,
        omega=omega,
        stiffness=stiffness,
        mass=mass,
        robin_matrix=robin_matrix,
        free=free,
        dirichlet_dofs=dirichlet_dofs,
    )


def boundary_load(mesh: Mesh, tag: str, fn) -> np.ndarray:
    """Assemble the surface load vector L_i = int_tag g . phi_i ds for a
    callable g(x) -> (P, 2) complex, called once on all P = E*Qe edge
    points x (P, 2) of the tag."""
    edges = _edge_quadrature(mesh, tag)
    en, _ = _edge_shapes(mesh.order, _EDGE_QP)
    g = np.asarray(fn(edges.x.reshape(-1, 2)), dtype=complex).reshape(edges.x.shape)
    load = np.zeros((mesh.n_nodes, 2), dtype=complex)
    np.add.at(load, edges.nodes, np.einsum("eq,qa,eqc->eac", edges.w, en, g))
    return load.reshape(-1)


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray  # (Nn, 2) complex nodal field
    residual_norm: float
    omega: float


def _flat(field: np.ndarray) -> np.ndarray:
    field = np.asarray(field)
    return field.reshape(-1) if field.ndim > 1 else field


def _factor(s_ff: sp.csc_matrix):
    """Sparse LU of the free-row system block.

    S is complex symmetric, so the fill-reducing ordering is taken on the
    pattern of S + S^T with diagonal-preferring pivoting: without the relaxed
    threshold, partial pivoting at large lambda/mu leaves the ordering's
    diagonal and the fill explodes.  Callers check the residual of what they
    solve.  Factored through the module attribute ``spla``."""
    try:
        return spla.splu(
            s_ff,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise SolverError(f"system matrix is singular: {exc}") from exc


def _extended_residual(s_ext, u, rhs, trans: str = "N"):
    """rhs - S u (rhs - S^H u for "H") with S u accumulated in extended
    precision: S is given as ``s_ext``, its long-double copy.  In double,
    the rounding of S u alone is about eps ||S|| ||u||, which passes
    1e-8 ||rhs|| at lambda/mu ~ 1e8 however accurate u is."""
    u_ext = u.astype(np.clongdouble)
    su = s_ext @ u_ext if trans == "N" else np.conj(s_ext.T @ np.conj(u_ext))
    return (rhs.astype(np.clongdouble) - su).astype(complex)


def _refine(lu, s_ext, u, rhs, trans: str = "N"):
    """u plus one step of iterative refinement with the same factor, on the
    extended-precision residual."""
    return u + lu.solve(_extended_residual(s_ext, u, rhs, trans), trans=trans)


def _solve_checked(lu, s_ff, rhs_f) -> tuple:
    """(u_f, residual, s_ext): the solution of S_ff u_f = rhs_f held to the
    relative residual contract.  A solve that misses it gets one step of
    iterative refinement, and its residual is then measured in extended
    precision; ``s_ext`` is the long-double S_ff it used (None when the
    first solve met the contract).  SolverError if the contract is missed."""
    u_f = lu.solve(rhs_f)
    scale = np.linalg.norm(rhs_f)
    residual = float(np.linalg.norm(s_ff @ u_f - rhs_f) / scale)
    s_ext = None
    if not residual <= _RESIDUAL_TOL:
        s_ext = s_ff.astype(np.clongdouble)
        u_f = _refine(lu, s_ext, u_f, rhs_f)
        residual = float(np.linalg.norm(_extended_residual(s_ext, u_f, rhs_f)) / scale)
    if not residual <= _RESIDUAL_TOL:
        raise SolverError(f"solve residual {residual:g} above {_RESIDUAL_TOL:g}", residual=residual)
    return u_f, residual, s_ext


def solve(
    system: AssembledSystem,
    f,
    dirichlet_values=None,
    extra_load=None,
) -> SolveResult:
    """Solve S u = M f (+ extra_load) with Dirichlet lifting.

    f is a nodal field (Nn, 2); extra_load is an already-assembled dual
    vector (surface data for manufactured solutions).  Direct sparse
    factorization, made once per system (``AssembledSystem.lu``); each
    solve must reach relative residual 1e-8 on the free rows, after one step
    of iterative refinement if the first solve misses it.  A singular system
    or a missed residual raises SolverError.
    """
    rhs = system.mass @ _flat(np.asarray(f, dtype=complex))
    if extra_load is not None:
        rhs = rhs + _flat(np.asarray(extra_load, dtype=complex))
    u = np.zeros(system.n_dofs, dtype=complex)
    if dirichlet_values is not None:
        u[system.dirichlet_dofs] = _flat(np.asarray(dirichlet_values, dtype=complex))[
            system.dirichlet_dofs
        ]
    free = system.free
    s_ff, s_fd = system.free_blocks
    rhs_f = rhs[free] - s_fd @ u[system.dirichlet_dofs]
    if not np.any(rhs_f):
        return SolveResult(u=u.reshape(-1, 2), residual_norm=0.0, omega=system.omega)
    u_f, residual, _ = _solve_checked(system.lu, s_ff, rhs_f)
    u[free] = u_f
    return SolveResult(u=u.reshape(-1, 2), residual_norm=residual, omega=system.omega)


# ---------------------------------------------------------------------------
# Point-sample extraction for the identity audits
# ---------------------------------------------------------------------------

def evaluate_volume(mesh: Mesh, nodal_fields):
    """Quadrature samples of nodal fields over the mesh.

    Returns (x (Q,2), w (Q,), list of (val (Q,2), grad (Q,2,2))) with
    grad[q, j, l] = d_j v_l and w absorbing the Jacobian."""
    n, x, det, dnx = _geometry(mesh, _TRI_QP)
    w = (_TRI_QW[None, :] * det).reshape(-1)
    xq = x.reshape(-1, 2)
    out = []
    for f in nodal_fields:
        fc = np.asarray(f, dtype=complex).reshape(-1, 2)[mesh.conn]  # (Nc, a, 2)
        val = np.einsum("qa,cal->cql", n, fc).reshape(-1, 2)
        grad = np.einsum("cqaj,cal->cqjl", dnx, fc).reshape(-1, 2, 2)
        out.append((val, grad))
    return xq, w, out


def evaluate_boundary(mesh: Mesh, tag: str, nodal_fields):
    """Edge-quadrature samples on a tagged boundary with outward normals
    (radial for the origin-centered circles).

    Returns (x (P,2), w (P,), normal (P,2), list of (val (P,2), grad
    (P,2,2))) over the P = E*Qe edge points; ValueError for a tag with no
    edges."""
    edges = _edge_quadrature(mesh, tag)
    n_ref, dn_ref = _shapes(mesh.order, _EDGE_REF[edges.local].reshape(-1, 2))
    conn = mesh.conn[np.repeat(edges.cells, _EDGE_QP.size)]  # (P, a)
    _, dnx = _grad_x(dn_ref, mesh.nodes[conn])
    out = []
    for f in nodal_fields:
        fc = np.asarray(f, dtype=complex).reshape(-1, 2)[conn]
        out.append((np.einsum("pa,pal->pl", n_ref, fc), np.einsum("paj,pal->pjl", dnx, fc)))
    return edges.x.reshape(-1, 2), edges.w.reshape(-1), edges.normal.reshape(-1, 2), out


def discrete_quantities(system: AssembledSystem, u, f) -> dict:
    """Norms entering the estimate chain, measured from a discrete solve."""
    uf = _flat(np.asarray(u, dtype=complex))
    ff = _flat(np.asarray(f, dtype=complex))
    mesh, mat = system.mesh, system.material
    x, w, [(val_u, grad_u)] = evaluate_volume(mesh, [u])
    mu_q = mat.mu(x)
    eps = 0.5 * (grad_u + np.swapaxes(grad_u, -2, -1))
    xb, wb, nb, [(val_b, grad_b)] = evaluate_boundary(mesh, DISSIPATIVE, [u])
    mu_b = mat.mu(xb)
    eps_b = 0.5 * (grad_b + np.swapaxes(grad_b, -2, -1))
    return {
        "omega": system.omega,
        "ell": mesh.ell,
        "mu_min": mat.mu_min,
        "norm_u_rho": math.sqrt(max(float(np.real(uf.conj() @ (system.mass @ uf))), 0.0)),
        "norm_f_rho": math.sqrt(max(float(np.real(ff.conj() @ (system.mass @ ff))), 0.0)),
        "norm_u_A_gamma": math.sqrt(
            max(float(np.real(uf.conj() @ (system.robin_matrix @ uf))), 0.0)
        ),
        "norm_grad_u": math.sqrt(float(np.sum(w * np.sum(np.abs(grad_u) ** 2, axis=(1, 2))))),
        "norm_eps_mu_gamma": math.sqrt(
            float(np.sum(wb * mu_b * np.sum(np.abs(eps_b) ** 2, axis=(1, 2))))
        ),
        "norm_eps_mu_omega": math.sqrt(float(np.sum(w * mu_q * np.sum(np.abs(eps) ** 2, axis=(1, 2))))),
    }


# ---------------------------------------------------------------------------
# Empirical stability constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantEstimate:
    """A certified empirical constant.

    ``ritz_residual`` is the M-norm residual of the top Ritz pair relative
    to its Ritz value theta: some eigenvalue of the normal operator lies
    within ``ritz_residual * theta`` of theta.  ``history`` holds
    omega^2 sqrt(theta) after each Lanczos step (nondecreasing)."""

    c_emp: float
    steps: int
    ritz_residual: float
    history: tuple


def empirical_constant(
    mesh: Mesh,
    material: MaterialField,
    robin: RobinSpec,
    omega: float,
    iters: int = 400,
    seed: int = 0,
    tol: float = 1e-8,
    return_history: bool = False,
    full_output: bool = False,
):
    """omega^2 times the largest singular value of the discrete solution map
    f -> u = S^-1 M f in rho-weighted norms.

    Lanczos in the M inner product on the M-self-adjoint normal operator
    S^-H M S^-1 M, with full M-reorthogonalisation; each step makes one
    forward and one adjoint solve with a single factorization of S.  The
    iteration stops once the top Ritz pair (theta, y) of the tridiagonal
    T_k is certified, beta_k |y_k| <= ``tol`` * theta, and returns
    omega^2 sqrt(theta).  The Ritz values never decrease with k.  The first
    forward solve is held to the same residual contract as ``solve``; when
    it needs iterative refinement to meet it, every later forward and
    adjoint solve of the estimate is refined once too.

    Returns the constant, ``(constant, history)`` with ``return_history``,
    or a ``ConstantEstimate`` with ``full_output``.  Raises
    ``IterationError`` when ``iters`` steps certify nothing.
    """
    system = assemble(mesh, material, robin, omega)
    free = system.free
    s_ff, _ = system.free_blocks
    m_ff = system.mass[free][:, free].astype(complex).tocsr()
    lu = system.lu
    rng = np.random.default_rng(seed)
    v = rng.normal(size=free.size) + 1j * rng.normal(size=free.size)

    def m_norm(z, mz):
        return math.sqrt(max(float(np.real(np.vdot(z, mz))), 0.0))

    steps = min(iters, free.size)
    basis = np.empty((steps, free.size), dtype=complex)  # rows: M-orthonormal v_j
    alphas, betas, history = [], [], []
    mv = m_ff @ v
    scale = m_norm(v, mv)
    v, mv = v / scale, mv / scale
    s_ext = None
    for k in range(steps):
        basis[k] = v
        if k == 0:
            u, _, s_ext = _solve_checked(lu, s_ff, mv)
        else:
            u = lu.solve(mv)
            if s_ext is not None:
                u = _refine(lu, s_ext, u, mv)
        mu = m_ff @ u
        alphas.append(float(np.real(np.vdot(u, mu))))  # ||S^-1 M v_k||_M^2
        w = lu.solve(mu, trans="H")
        if s_ext is not None:
            w = _refine(lu, s_ext, w, mu, trans="H")
        for _ in range(2):  # full M-reorthogonalisation, twice is enough
            coeffs = (basis[: k + 1] @ (m_ff @ w).conj()).conj()  # <v_j, w>_M
            w -= basis[: k + 1].T @ coeffs
        mw = m_ff @ w
        beta = m_norm(w, mw)
        theta, y = eigh_tridiagonal(
            np.array(alphas), np.array(betas), select="i", select_range=(k, k)
        )
        theta = float(theta[0])
        history.append(omega**2 * math.sqrt(theta))
        residual = beta * abs(float(y[-1, 0]))
        if residual <= tol * theta:
            est = ConstantEstimate(history[-1], k + 1, residual / theta, tuple(history))
            if full_output:
                return est
            return (est.c_emp, history) if return_history else est.c_emp
        betas.append(beta)
        v, mv = w / beta, mw / beta
    raise IterationError(
        f"Lanczos estimate not certified in {steps} steps",
        last_iterates=tuple(history[-2:]),
    )


# ---------------------------------------------------------------------------
# Frequency / incompressibility sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    r_in: float = 0.5
    ell: float = 1.0
    rho: float = 1.0
    mu: float = 1.0
    lambda_over_mu: tuple = (1.0,)
    kappa_s: tuple = (1.0,)
    robin_choice: str = "shear"  # "shear" (alpha=1) | "pressure" (alpha_n = sqrt(2+lam/mu)) | "custom"
    alpha_t: float = 1.0
    alpha_n: float = 1.0
    order: int = 2
    points_per_wavelength: float = 10.0
    resolution_margin: float = 1.1
    n_theta_min: int = 24
    seed: int = 0
    force: bool = False

    def material(self, lam_ratio: float) -> MaterialField:
        return MaterialField.constant(self.rho, self.mu, lam_ratio * self.mu)

    def robin(self, material: MaterialField) -> RobinSpec:
        if self.robin_choice == "shear":
            return RobinSpec.shear_matched(material)
        if self.robin_choice == "pressure":
            return RobinSpec.pressure_matched(material)
        if self.robin_choice == "custom":
            return RobinSpec.from_alpha(self.alpha_t, self.alpha_n, material)
        raise ValueError(f"unknown robin choice {self.robin_choice!r}")

    def validate(self) -> None:
        """Raise ConfigError unless every value is finite and in range."""
        positive = {
            "ell": self.ell, "rho": self.rho, "mu": self.mu,
            "points_per_wavelength": self.points_per_wavelength,
            "resolution_margin": self.resolution_margin,
        }
        if self.robin_choice == "custom":
            positive.update(alpha_t=self.alpha_t, alpha_n=self.alpha_n)
        positive.update({f"kappa_s[{i}]": k for i, k in enumerate(self.kappa_s)})
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        for i, ratio in enumerate(self.lambda_over_mu):
            if not (math.isfinite(ratio) and ratio >= 0.0):
                raise ConfigError(f"lambda_over_mu[{i}] must be finite and >= 0, got {ratio!r}")
        if not (math.isfinite(self.r_in) and 0.0 < self.r_in < self.ell):
            raise ConfigError(f"need 0 < r_in < ell, got r_in={self.r_in!r}, ell={self.ell!r}")
        if self.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {self.order!r}")
        if self.robin_choice not in ("shear", "pressure", "custom"):
            raise ConfigError(f"unknown robin choice {self.robin_choice!r}")
        for kappa in self.kappa_s:
            n_r, n_theta = _resolution(self, kappa)
            nodes = (self.order * n_r + 1) * self.order * n_theta
            if nodes > NODE_BUDGET:
                raise ConfigError(
                    f"kappa_s = {kappa!r} needs a {nodes}-node mesh, above the "
                    f"{NODE_BUDGET}-node budget"
                )


@dataclass(frozen=True)
class SweepRow:
    omega: float
    kappa_s: float
    lambda_over_mu: float
    c_emp: float | None
    bound_ideal_full: float
    bound_ideal_simplified: float
    bound_realistic: float
    slack: float | None
    points_per_wavelength: float
    n_r: int
    n_theta: int
    n_dofs: int
    refused: bool
    error: str | None = None
    lanczos_steps: int | None = None
    ritz_residual: float | None = None  # relative to the top Ritz value

    def applicable_bound(self, robin_choice: str) -> float:
        return self.bound_ideal_full if robin_choice == "shear" else self.bound_realistic


def _resolution(cfg: SweepConfig, kappa: float) -> tuple:
    """(n_r, n_theta) of ``resolution_mesh``; its (order n_r + 1) rings of
    order n_theta nodes make the node count."""
    target = cfg.points_per_wavelength * cfg.resolution_margin
    wavelength = 2.0 * math.pi * cfg.ell / kappa  # in units of theta_s_min/omega
    h_needed = cfg.order * wavelength / target
    n_theta = max(cfg.n_theta_min, int(math.ceil(math.sqrt(2.0) * 2.0 * math.pi * cfg.ell / h_needed)))
    n_theta += n_theta % 2
    n_r = max(2, int(math.ceil(math.sqrt(2.0) * (cfg.ell - cfg.r_in) / h_needed)))
    return n_r, n_theta


def resolution_mesh(cfg: SweepConfig, kappa: float) -> Mesh:
    """Mesh sized so the node spacing beats the points-per-wavelength policy
    with the configured safety margin.

    The policy is checked against the longest element edge, which for the
    split-quad triangulation is the cell diagonal ~ sqrt(2) times the arc
    spacing; both directions are sized for that."""
    return _mesh.build_annulus_mesh(cfg.r_in, cfg.ell, *_resolution(cfg, kappa), cfg.order)


def _sweep_row(cfg: SweepConfig, kappa: float, lam_ratio: float) -> SweepRow:
    material = cfg.material(lam_ratio)
    theta_s_min = math.sqrt(material.mu_min / material.rho_max)
    omega = kappa * theta_s_min / cfg.ell
    mesh = resolution_mesh(cfg, kappa)
    ppw = mesh.points_per_wavelength(omega, theta_s_min)
    ideal = bound_obstacle_ideal(kappa, d=2)
    realistic = bound_obstacle_realistic(kappa, lam_ratio)
    refused = ppw < cfg.points_per_wavelength and not cfg.force
    base = dict(
        omega=omega,
        kappa_s=kappa,
        lambda_over_mu=lam_ratio,
        bound_ideal_full=ideal.full,
        bound_ideal_simplified=ideal.simplified,
        bound_realistic=realistic,
        points_per_wavelength=ppw,
        n_r=mesh.n_r,
        n_theta=mesh.n_theta,
        n_dofs=2 * mesh.n_nodes,
        refused=refused,
    )
    if refused:
        return SweepRow(c_emp=None, slack=None, error="resolution policy violated", **base)
    robin = cfg.robin(material)
    try:
        est = empirical_constant(mesh, material, robin, omega, seed=cfg.seed, full_output=True)
    except (SolverError, IterationError) as exc:
        return SweepRow(c_emp=None, slack=None, error=str(exc), **base)
    bound = ideal.full if cfg.robin_choice == "shear" else realistic
    return SweepRow(
        c_emp=est.c_emp,
        slack=bound - est.c_emp,
        error=None,
        lanczos_steps=est.steps,
        ritz_residual=est.ritz_residual,
        **base,
    )


def _thread_count() -> int:
    raw = os.environ.get("ELASTAB_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"ELASTAB_THREADS must be a positive integer, got {raw!r}")
    return threads


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (kappa_s, lambda/mu) pair; rows violating the resolution
    policy are refused (not solved) unless forced.  Row errors are recorded
    and the sweep continues.  ELASTAB_THREADS > 1 runs rows in parallel;
    results keep the input order either way.  An invalid configuration or
    thread count raises ConfigError before any row is solved."""
    cfg.validate()
    threads = _thread_count()
    tasks = [(k, lr) for k in cfg.kappa_s for lr in cfg.lambda_over_mu]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda t: _sweep_row(cfg, *t), tasks))
    return [_sweep_row(cfg, k, lr) for k, lr in tasks]
