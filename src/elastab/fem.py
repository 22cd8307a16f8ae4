"""2D vector finite elements on the annulus probe.

Assembles the dissipative time-harmonic system

    S(omega) = K - omega^2 M - i omega R

with K the elastic stiffness (2 mu strain:strain + lambda div div), M the
density-weighted mass, and R the impedance boundary matrix on the outer
circle.  Solving S u = M f realizes the weak problem with load (rho f, v).
The inner circle carries zero Dirichlet data, imposed by elimination.

The module also measures the empirical stability constant
omega^2 * sup ||u||_rho / ||f||_rho: Lanczos in the rho-weighted (mass)
inner product on the normal operator of the discrete solution map, one
Krylov space per angular mode where the system has them, stopped on a
Ritz-residual certificate (``_lanczos``).  Every ``solve`` with one
assembled system shares its factorization; each estimate makes its own.
``solve`` holds every solve, and an estimate its first forward solve, to
one backward-error contract (``_check_solve``), met in double precision.

Every system assembled on ``build_annulus_mesh`` with radial coefficients
is invariant under rotation by one of its n_theta angular sectors.  The
mesh numbers its nodes sector by sector, so the free dofs come in n_theta
equal runs, and S_ff and M_ff are block-circulant over those runs once
each node's dofs are rotated into its sector's frame: the sectors are read
off the dof index.  An FFT over the sectors then decouples S_ff into
n_theta small angular mode blocks (the discrete counterpart of the mode
separation of the spectral oracle).  S is complex symmetric, so mode n - m
is the transpose of mode m, and only the modes 0..floor(n_theta/2) are
factored, as one block-diagonal sparse LU.  M is real symmetric, so the
normal operator of mode n - m has the spectrum of mode m's, and the
estimate needs only the modes 0..floor(n_theta/2) too: of those, only
the ones that can hold the top value.

The mode blocks are the only factor the module makes, and they have one
producer, which makes them from sector 0's free rows.  Every
``MaterialField`` is radial, every ``RobinSpec`` constant and every
``Mesh`` its polar lattice by construction, so those rows hold the whole
system, and their local nodes come in one band order read off the
lattice (radial index, then angular column, ``_band_order``), in which
``_factor`` needs no ordering pass of its own.  The mode blocks of S_ff
and M_ff come straight from the element matrices of the 4 n_r cells
around sector 0, through a plan made once per mesh and kept with it
(``_SectorPlan``): per system, the element matrices, one ``np.bincount``
per matrix into the blocks B_-1, B_0, B_1 that couple sector 0 to itself
and its neighbours, and the twiddle product (``_mode_blocks``).
``AssembledSystem.lu``, behind ``solve``, factors the blocks of S_ff in
the modes 0..floor(n_theta/2) from its system's material, impedance and
omega (``_SectorLU``), and reaches the high modes through the transposed
factor.

``empirical_constant`` runs Lanczos only on the modes that can hold the
top value: a mode m whose Hermitian part H_m = K_m - omega^2 M_m has H_m
- tau M_m > 0 has a constant of at most omega^2 / tau, which a shifted
banded Cholesky factorization certifies (``_SectorPlan.certify``).  One
loop tests the modes not yet run at tau = omega^2 / c, moves those that
fail into the run set, and factors and runs that set, every mode at once
and with no FFT per step, until c_emp >= omega^2 / tau.

The factor is not read off the assembled matrices, so ``solve``'s
backward-error contract against the whole S_ff is what ties it to the
system: a system whose matrices were changed after ``assemble`` misses
it and raises ``SolverError``.  The direct LU of S_ff, made by
``_factor`` in the dofs' own order with the same diagonal-preferring
pivoting, is the tests' oracle, and so is the modal image of the fully
assembled S_ff and M_ff for the plan's mode blocks.  Backward errors are
measured on the system that was solved: ``solve`` on the free dofs
against the whole S_ff, the estimate against its mode blocks, the image
of S_ff under a unitary map (rotation, the DFT over sectors, then the
band order of the nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack as _lapack

from . import mesh as _mesh
from .bounds import bound_obstacle_ideal, bound_obstacle_realistic, stability_simple_robin
from .core import DomainSpec, MaterialField, RobinSpec, derive_groups, multiplier_for
from .errors import ConfigError, IterationError, MeshError, SolverError
from .mesh import _TRI_QP, _TRI_QW, DIRICHLET, DISSIPATIVE, Mesh, _grad_x, _shapes

__all__ = [
    "AssembledSystem",
    "SolveResult",
    "assemble",
    "solve",
    "evaluate_volume",
    "evaluate_boundary",
    "empirical_constant",
    "ConstantEstimate",
    "SweepConfig",
    "SweepRow",
    "resolution_mesh",
    "sweep",
]

# the largest normwise backward error a checked solve may have
# (``_check_solve``); accurate factors read at most 4.1e-16 in the tests
_BACKWARD_TOL = 1e-14

# an estimate stops once its top Ritz pair's residual is at most this
# fraction of its Ritz value (``_lanczos``)
_RITZ_TOL = 1e-8

# steps of Krylov basis a Lanczos run holds at first; it doubles the basis
# when full (certified runs take 5-6 steps)
_BASIS_STEPS = 8

# Largest resolution mesh a sweep builds: kappa_s ~ 100 at the default
# policy (order 2, 10 points per wavelength).  Peak memory grows about
# linearly in the node count.  On 2 vCPU one kappa_s = 64 row (80,676
# nodes, a fresh process, 73 of 250 modes run) peaks at 0.10 GB in
# 0.18-0.46 s, and a kappa_s = 100 row (194,500 nodes, 112 of 390 modes)
# at 0.15 GB in 0.40-0.47 s; factoring and running every mode they read
# 0.17 GB in 0.35-0.65 s and 0.32 GB in 0.91-1.09 s.
NODE_BUDGET = 200_000

_EDGE_QP, _EDGE_QW = np.polynomial.legendre.leggauss(4)
_EDGE_QP = 0.5 * (_EDGE_QP + 1.0)
_EDGE_QW = 0.5 * _EDGE_QW


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


def _geometry(mesh: Mesh, pts: np.ndarray, conn=None):
    """Per-cell isoparametric geometry at reference points pts, on the cells
    ``conn`` (all of the mesh's by default).

    Returns (n (Q,a), x (Nc,Q,2), detJ (Nc,Q), dn_x (Nc,Q,a,2))."""
    n, dn = _shapes(mesh.order, pts)
    xc = mesh.nodes[mesh.conn if conn is None else conn]  # (Nc, a, 2)
    det, dnx = _grad_x(dn, xc[:, None])
    x = np.einsum("qa,cai->cqi", n, xc)
    return n, x, det, dnx


class _EdgeQuadrature(NamedTuple):
    """Edge-quadrature data of one boundary tag, one edge per sector in
    sector order (``Mesh.boundary``)."""

    cells: np.ndarray   # (E,) owning triangles
    local: np.ndarray   # (E,) local edge numbers
    nodes: np.ndarray   # (E, ae) node ids along each edge
    x: np.ndarray       # (E, Qe, 2) points
    w: np.ndarray       # (E, Qe) arc-length weights
    normal: np.ndarray  # (E, Qe, 2) outward unit normals


def _edge_quadrature(mesh: Mesh, tag: str, cells=None) -> _EdgeQuadrature:
    """Gather the edges tagged ``tag`` once and place the edge rule on all
    of them, or on those of the cells ``cells`` only.  Normals are radial
    (origin-centered circles): outward from the domain, so away from the
    origin on the dissipative circle and towards it on the Dirichlet one."""
    owners, local, nodes = mesh.boundary(tag)
    if cells is not None:
        keep = np.isin(owners, cells)
        owners, local, nodes = owners[keep], local[keep], nodes[keep]
    en, edn = _edge_shapes(mesh.order, _EDGE_QP)
    xe = mesh.nodes[nodes]  # (E, ae, 2)
    x = en @ xe
    w = np.linalg.norm(edn @ xe, axis=-1) * _EDGE_QW
    sign = 1.0 if tag == DISSIPATIVE else -1.0
    return _EdgeQuadrature(
        cells=owners,
        local=local,
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

    @property
    def n_dofs(self) -> int:
        return 2 * self.mesh.n_nodes

    @cached_property
    def free(self) -> np.ndarray:
        """The mesh's free dofs (``_free_dofs``)."""
        return _free_dofs(self.mesh)

    def system_matrix(self) -> sp.csr_matrix:
        """S = K - omega^2 M - i omega R, in CSR like its parts."""
        return self.stiffness - self.omega**2 * self.mass - 1j * self.omega * self.robin_matrix

    @cached_property
    def s_ff(self) -> sp.csc_matrix:
        """S_ff: the free rows and columns of S, in CSC."""
        return self.system_matrix()[self.free][:, self.free].tocsc()

    @cached_property
    def free_norm(self) -> float:
        """||S_ff||_1 (``_norm1``), once for every solve with this system."""
        return _norm1(self.s_ff)

    @cached_property
    def lu(self) -> _SectorLU:
        """Factorization of S_ff by angular Fourier modes (``_SectorLU``),
        made on first use from the mesh's plan (``_sector_plan``) with this
        system's material, impedance and omega, as the estimate makes its
        mode blocks, and shared by every later solve with this system.  It
        does not read the assembled matrices: a system whose matrices were
        changed after ``assemble`` is refused by ``solve``'s backward-error
        contract against the whole S_ff."""
        plan = _sector_plan(self.mesh)
        return _SectorLU(plan, plan.couplings(self.material, self.robin, self.omega).system(self.omega))


def _element_matrices(geometry: tuple, material: MaterialField) -> tuple:
    """(K_e, M_e), each (Nc, 2a, 2a), of the cells whose ``_geometry`` is
    given: element dof 2 alpha + c is component c of local node alpha."""
    n, x, det, dnx = geometry
    nc, nq, na = dnx.shape[:3]
    xq = x.reshape(-1, 2)
    wdet = _TRI_QW * det  # (Nc, Q)
    mu_w, lam_w, rho_w = (wdet * coef(xq).reshape(nc, nq) for coef in (material.mu, material.lam, material.rho))
    # column 2 a + i of grads is d_i N_a; pairs[c, a, i, b, j] = sum_q mu w d_i N_a d_j N_b
    grads = dnx.reshape(nc, nq, 2 * na)
    transposed = grads.transpose(0, 2, 1)
    pairs = ((transposed * mu_w[:, None, :]) @ grads).reshape(nc, na, 2, na, 2)
    # stiffness at dofs (2a + c1, 2b + c2):
    #   mu (d_c2 N_a d_c1 N_b + delta_{c1 c2} grad N_a . grad N_b) + lam d_c1 N_a d_c2 N_b
    ke = (transposed * lam_w[:, None, :]) @ grads + pairs.swapaxes(2, 4).reshape(nc, 2 * na, 2 * na)
    gdot = np.einsum("cajbj->cab", pairs)
    mass = (n.T * rho_w[:, None, :]) @ n
    me = np.zeros_like(ke)
    for c in range(2):
        ke[:, c::2, c::2] += gdot
        me[:, c::2, c::2] = mass
    return ke, me


def _edge_matrices(edges: _EdgeQuadrature, robin: RobinSpec, order: int) -> np.ndarray:
    """The impedance matrices (E, 2ae, 2ae) of dissipative edges, a_T I +
    (a_N - a_T) n (x) n, element dofs as in ``_element_matrices``."""
    en, _ = _edge_shapes(order, _EDGE_QP)
    nrm = edges.normal
    amat = robin.a_t * np.eye(2) + (robin.a_n - robin.a_t) * (nrm[..., :, None] * nrm[..., None, :])
    blk = np.einsum("eq,qa,qb,eqij->eaibj", edges.w, en, en, amat)
    return blk.reshape(blk.shape[0], 2 * en.shape[1], -1)


def _free_dofs(mesh: Mesh) -> np.ndarray:
    """The sorted dof numbers off the Dirichlet circle, whose nodes are
    eliminated whole."""
    on = np.zeros((mesh.n_nodes, 2), dtype=bool)
    on[mesh.boundary_nodes(DIRICHLET)] = True
    return np.flatnonzero(~on)


def _volume_geometry(mesh: Mesh) -> tuple:
    """The ``_geometry`` of every cell on the triangle rule, made on first
    use and kept with the mesh (``Mesh.derived``), as the sector plan is:
    ``assemble`` and ``evaluate_volume`` read it.  Its arrays are
    read-only."""
    geometry = mesh.derived.get(_volume_geometry)
    if geometry is None:
        geometry = mesh.derived[_volume_geometry] = _geometry(mesh, _TRI_QP)
        for array in geometry:
            array.flags.writeable = False
    return geometry


def assemble(mesh: Mesh, material: MaterialField, robin: RobinSpec, omega: float) -> AssembledSystem:
    ke, me = _element_matrices(_volume_geometry(mesh), material)
    edges = _edge_quadrature(mesh, DISSIPATIVE)
    ndof, dofs = 2 * mesh.n_nodes, _dofs(mesh.conn)
    return AssembledSystem(
        mesh=mesh,
        material=material,
        robin=robin,
        omega=omega,
        stiffness=_scatter(dofs, ke, ndof),
        mass=_scatter(dofs, me, ndof),
        robin_matrix=_scatter(_dofs(edges.nodes), _edge_matrices(edges, robin, mesh.order), ndof),
    )


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray  # (Nn, 2) complex nodal field
    residual_norm: float


def _factor(s_ff: sp.csc_matrix):
    """Sparse LU of the block-diagonal matrix of the angular mode blocks
    of S_ff (``_SectorLU``, the estimate); the tests also factor S_ff
    itself with it, as the oracle.

    The columns are eliminated in the order given: the mode blocks come in
    a band order (``_band_order``), whose fill stays within the band, and
    no ordering pass runs over the whole block-diagonal matrix.  Both
    matrices have a symmetric pattern (S is complex symmetric), and the
    pivoting prefers the diagonal: without the relaxed threshold, partial
    pivoting at large lambda/mu leaves the diagonal and the fill grows (by
    15% on the kappa_s = 16 mode blocks at lambda/mu = 1e4, where the
    relaxed threshold adds 2%).
    SuperLU's dense workspace is a panel of columns times the row count,
    allocated per factor; a band needs no wide panel, and 4 columns in
    place of SuperLU's default take the factors of the kappa_s = 16, 24
    and 32 rows from 58 to 45 ms together (2 vCPU, medians of 30).
    Callers check the backward error of what they solve.  Factored through
    the module attribute ``spla``."""
    try:
        return spla.splu(
            s_ff,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.1,
            panel_size=4,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise SolverError(f"system matrix is singular: {exc}") from exc


def _sector_cells(mesh: Mesh) -> np.ndarray:
    """The 4 n_r cells that touch a node of sector 0, ascending: sector 0's
    and sector n_theta - 1's (``Mesh``)."""
    return np.r_[: 2 * mesh.n_r, mesh.n_cells - 2 * mesh.n_r : mesh.n_cells]


def _band_order(nodes: int, p: int) -> np.ndarray:
    """Sector 0's ``nodes`` free local nodes in the lattice band order.

    The mesh numbers them by angular column, then radial index: local node
    k is lattice point (k % q + 1, k // q), q = nodes / p (``Mesh``).  In
    the band order they go by radial index, then column.  A node couples
    only to nodes of its own cells, at most p radial steps away, and a mode
    block folds the neighbouring sectors' columns onto sector 0's p
    columns, so two coupled nodes lie at most p p + p - 1 places apart and
    every mode block's half-bandwidth is 2 p (p + 1) - 1 dofs: 11 at order
    2 and 3 at order 1, whatever n_r."""
    return np.argsort(np.arange(nodes) % (nodes // p), kind="stable")


def _csc_layout(size: int, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(indices, indptr, where): the int32 CSC structure of one size x size
    mode block holding the entries (rows, cols), sorted by column and then
    row, and the position of each given entry in it."""
    codes, where = np.unique(cols * size + rows, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(codes // size, minlength=size))])
    return (codes % size).astype(np.int32), indptr.astype(np.int32), where


def _twiddles(n: int, modes) -> np.ndarray:
    """(k, 3): the twiddles (1, w^m, w^-m), w = exp(2 pi i / n), of the
    angular modes m in ``modes``, which weigh B_0, B_1, B_-1 in mode m."""
    twiddle = np.exp(2j * math.pi * np.asarray(modes) / n)
    return np.stack([np.ones(twiddle.size), twiddle, twiddle.conj()], axis=1)


def _mode_blocks(n: int, indices, indptr, couplings, modes) -> sp.csc_matrix:
    """The mode blocks A_m = B_0 + B_1 w^m + B_-1 w^-m of the angular modes
    m in ``modes`` (ascending, in 0..floor(n/2)), as one block-diagonal CSC.
    ``couplings`` (3, nnz) holds B_0, B_1 and B_-1 on one block's CSC
    structure (``_csc_layout``), which is tiled over the modes; the entries
    are one product of the twiddles (``_twiddles``) with the couplings, so
    a mode's block does not depend on which other modes come with it."""
    count, size, nnz = len(modes), indptr.size - 1, indices.size
    data = _twiddles(n, modes) @ couplings  # (k, nnz)
    shift = np.arange(count, dtype=np.int32)[:, None]
    tiled = (indices + size * shift).ravel()
    ptr = np.append((indptr[:-1] + nnz * shift).ravel(), np.int32(count * nnz))
    return sp.csc_matrix((data.ravel(), tiled, ptr), shape=(count * size,) * 2)


class _Scatter(NamedTuple):
    """Where the entries of element matrices go in sector 0's couplings
    (``_SectorPlan``): entry ``src`` of the flattened (E, 2a, 2a) matrices,
    times ``weight``, adds to entry ``dst`` of the flattened (3, nnz)
    couplings B_0, B_1, B_-1, one contribution per item."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray


def _contributions(mesh: Mesh, nodes: np.ndarray, rank: np.ndarray) -> tuple:
    """(src, slot, row, col, weight) of every contribution of element
    matrices on the node ids ``nodes`` (E, a) to sector 0's couplings.

    Element entry (e, 2 alpha + i, 2 beta + j), at ``src`` in the flattened
    (E, 2a, 2a) matrices, contributes when node alpha is a free node of
    sector 0 and node beta a free node of sector 0, 1 or n - 1: coupling
    ``slot`` 0, 1 or 2 (B_0, B_1, B_-1).  The column's 2x2 node block is
    turned into sector 0's frame, B F^T with F = [[cos, sin], [-sin, cos]]
    at the column's sector angle, so the entry adds ``weight`` = F[j', j]
    times itself to the entry (row, col) = (2 rank(alpha) + i,
    2 rank(beta) + j') of a mode block, for j' = 0, 1 (only j' = j in
    sector 0).  Every node of the cells around sector 0 is in one of those
    three sectors."""
    n, p = mesh.n_theta, mesh.order
    height = p * mesh.n_r + 1  # lattice points per angular column
    column, radial = np.divmod(nodes, height)
    sector, angular = np.divmod(column, p)
    local = rank[angular * (height - 1) + radial - 1]  # a free node's rank (unused for radial 0)
    slot = np.where(sector == n - 1, 2, sector)
    e, alpha, beta = np.nonzero(((sector == 0) & (radial > 0))[:, :, None] & (radial > 0)[:, None, :])
    col_slot = slot[e, beta]
    angle = 2.0 * math.pi / n * np.array([0, 1, -1])[col_slot]
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    # the eight (i, j, j') per node pair, and F[j', j]
    i, j, jp = (np.array([0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 0, 1, 1] * 2), np.array([0, 1] * 4))
    weight = np.where(j == jp, c, np.where(jp == 0, s, -s))
    width = 2 * nodes.shape[1]
    src = ((e * width + 2 * alpha)[:, None] + i) * width + (2 * beta)[:, None] + j
    row = (2 * local[e, alpha])[:, None] + i
    col = (2 * local[e, beta])[:, None] + jp
    keep = weight != 0.0  # the sines of sector 0
    return src[keep], np.broadcast_to(col_slot[:, None], keep.shape)[keep], row[keep], col[keep], weight[keep]


class _Couplings(NamedTuple):
    """Sector 0's couplings B_0, B_1, B_-1 (each (3, nnz), on one mode
    block's CSC structure) of one system's real symmetric matrices: the
    cells' K - omega^2 M, the impedance matrix R of the dissipative edges
    and the mass M.  S = K - omega^2 M - i omega R (``system``)."""

    hermitian: np.ndarray
    robin: np.ndarray
    mass: np.ndarray

    def system(self, omega: float) -> np.ndarray:
        """The couplings of S, the ones ``solve`` and the estimate factor."""
        return self.hermitian - 1j * omega * self.robin


# the unit roundoff of double precision
_UNIT = 2.0**-53

# modes per banded Cholesky call in ``_SectorPlan.certify``: at kappa_s = 32
# and 64, 16 modes per call test in 4.4 and 23 ms, one call for all modes in
# 6.7 and 33 ms (the fresh memory of a large band), 4 modes in 5.1 and 30 ms
_CERTIFY_CHUNK = 16


class _SectorPlan:
    """What every estimate on one mesh shares (``_sector_plan``): the
    ``_geometry`` of the 4 n_r cells around sector 0 (``_sector_cells``)
    and their dissipative edges, where each entry of their element
    matrices goes in the couplings B_0, B_1, B_-1 of sector 0's free rows
    (``_contributions``), and one mode block's CSC structure, its local
    nodes in the lattice band ``order`` (``_band_order``), with the place
    of each entry of its lower triangle in LAPACK's lower band storage
    (``certify``).  Those cells hold every entry of sector 0's free rows,
    and every ``Mesh`` is sector 0 rotated, every ``MaterialField`` radial
    and every ``RobinSpec`` constant, so the mode blocks of the whole
    system follow (``blocks``)."""

    def __init__(self, mesh: Mesh):
        cells = _sector_cells(mesh)
        self.sectors, self.degree = mesh.n_theta, mesh.order
        self.geometry = _geometry(mesh, _TRI_QP, mesh.conn[cells])
        self.edges = _edge_quadrature(mesh, DISSIPATIVE, cells)
        nodes = mesh.order * mesh.order * mesh.n_r  # free local nodes of a sector
        self.order = _band_order(nodes, mesh.order)
        rank = np.argsort(self.order)
        cell_part = _contributions(mesh, mesh.conn[cells], rank)
        edge_part = _contributions(mesh, self.edges.nodes, rank)
        src, slot, row, col, weight = (np.concatenate(pair) for pair in zip(cell_part, edge_part))
        self.indices, self.indptr, where = _csc_layout(2 * nodes, row, col)
        dst = slot * self.indices.size + where
        split = cell_part[0].size
        self.cell_scatter = _Scatter(src[:split], dst[:split], weight[:split])
        self.edge_scatter = _Scatter(src[split:], dst[split:], weight[split:])
        # LAPACK's lower band storage of a block, band[j, i - j] = A[i, j]
        # for 0 <= i - j <= kd: the entry that fills each slot (one past the
        # last entry for a slot outside the pattern), and the row and column
        # of each entry of the lower triangle (``certify``)
        size = 2 * nodes
        column = np.repeat(np.arange(size), np.diff(self.indptr))
        offset = self.indices - column
        self.lower = np.flatnonzero(offset >= 0)
        self.lower_entries = self.indices[self.lower], column[self.lower]
        self.kd = int(offset.max())
        self.band = np.full(size * (self.kd + 1), self.indices.size)
        self.band[column[self.lower] * (self.kd + 1) + offset[self.lower]] = self.lower

    def _couplings(self, scatter: _Scatter, matrices: np.ndarray) -> np.ndarray:
        size = 3 * self.indices.size
        return np.bincount(scatter.dst, matrices.reshape(-1)[scatter.src] * scatter.weight, size).reshape(3, -1)

    def couplings(self, material: MaterialField, robin: RobinSpec, omega: float) -> _Couplings:
        """The ``_Couplings`` of S_ff and M_ff, from the element matrices of
        the cells around sector 0, one ``np.bincount`` per real matrix."""
        ke, me = _element_matrices(self.geometry, material)
        re = _edge_matrices(self.edges, robin, self.degree)
        return _Couplings(
            hermitian=self._couplings(self.cell_scatter, ke - omega**2 * me),
            robin=self._couplings(self.edge_scatter, re),
            mass=self._couplings(self.cell_scatter, me),
        )

    def blocks(self, couplings: np.ndarray, modes) -> sp.csc_matrix:
        """The mode blocks of one matrix's couplings in the angular modes
        ``modes`` (``_mode_blocks``)."""
        return _mode_blocks(self.sectors, self.indices, self.indptr, couplings, modes)

    def certify(self, parts: _Couplings, tau: float, modes) -> int:
        """How many of the angular ``modes``, taken in the order given, have
        H_m - tau M_m proven positive definite before the first that has
        not.  H_m and M_m are the mode blocks (``_mode_blocks``) of
        ``parts.hermitian`` and ``parts.mass``, taken as the Hermitian
        matrices of their lower triangles, as formed in double precision.

        The proof is a banded Cholesky factorization (LAPACK ``zpbtrf``) of
        A~ = fl(A - C), A = fl(H_m - tau M_m), that runs to completion with
        a finite factor R.  The diagonal shift C covers every rounding on
        the way, after Rump (BIT Numer. Math. 46, 2006), with the short
        inner products of a band of half-bandwidth kd:
        - each entry of R sums at most kd + 1 terms, each a complex product
          (relative error at most sqrt(2) gamma_2 <= gamma_3; Higham,
          Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.5),
          then is scaled by a computed reciprocal or is a square root;
        - so R^H R = A~ + D with |D_ij| <= g d_i d_j for |i - j| <= kd,
          g = gamma_{kd+6} / (1 - gamma_{kd+6}), d_i^2 = A_ii >= A~_ii
          (Higham, Thm 10.3, and (|R^H| |R|)_ij <= ||r_i|| ||r_j||);
        - H_m - tau M_m = R^H R - D + C - F - E, with F the rounding of the
          shifted diagonal, |F_ii| <= u (|A_ii| + C_ii), and E that of
          forming A, |E_ij| <= 2.1 u (|H_ij| + tau |M_ij|) <= 2.2 u (b_ij +
          tau c_ij), b and c the sums of |B_0|, |B_1|, |B_-1| of H and M;
        - that is positive definite when C - F - D - E is diagonally
          dominant.  C_ii is twice u |A_ii| plus the row sums of g d_i d_j
          and of the bound on |E_ij|; the factor 2 covers C's own rounding.
        The entries lie far above the underflow threshold, and a factor with
        a non-finite entry proves nothing.  The modes are factored
        ``_CERTIFY_CHUNK`` at a time as one block-diagonal band."""
        size, width = self.indptr.size - 1, self.kd + 1
        # the couplings in band storage, and the mode-independent row sums of
        # the bound on |E|, over the Hermitian matrix of the lower triangle
        h, m = (np.append(c, np.zeros((3, 1)), axis=1)[:, self.band] for c in (parts.hermitian, parts.mass))
        rows, cols = self.lower_entries
        bound = (np.abs(parts.hermitian).sum(axis=0) + tau * np.abs(parts.mass).sum(axis=0))[self.lower]
        e = np.bincount(rows, bound, size) + np.bincount(cols, np.where(rows != cols, bound, 0.0), size)
        gamma = (self.kd + 6) * _UNIT / (1.0 - (self.kd + 6) * _UNIT)
        proven = 0
        for first in range(0, len(modes), _CERTIFY_CHUNK):
            twiddles = _twiddles(self.sectors, modes[first : first + _CERTIFY_CHUNK])
            a = twiddles @ h - tau * (twiddles @ m)  # (k, N (kd + 1)): the blocks' bands
            band = a.reshape(-1, size, width)
            diag = band[:, :, 0].real
            d = np.sqrt(np.maximum(diag, 0.0))
            window = d.copy()  # sum of d_j over |i - j| <= kd
            for k in range(1, width):
                window[:, k:] += d[:, :-k]
                window[:, :-k] += d[:, k:]
            band[:, :, 0] -= 2.0 * (_UNIT * np.abs(diag) + 2.2 * _UNIT * e + gamma / (1.0 - gamma) * d * window)
            # (kd + 1, k N) in Fortran order, factored in place
            _, info = _lapack.zpbtrf(a.reshape(-1, width).T, lower=1, overwrite_ab=1)
            factored = len(twiddles) if info == 0 else (info - 1) // size
            finite = np.isfinite(band[:factored]).all(axis=(1, 2))
            passed = factored if finite.all() else int(np.argmin(finite))
            proven += passed
            if passed < len(twiddles):
                break
        return proven


def _sector_plan(mesh: Mesh) -> _SectorPlan:
    """The mesh's ``_SectorPlan``, made on first use and kept with the mesh
    (``Mesh.derived``), so that it is freed with it."""
    plan = mesh.derived.get(_SectorPlan)
    if plan is None:
        plan = mesh.derived[_SectorPlan] = _SectorPlan(mesh)
    return plan


def _to_modes(n: int, x):
    """All n angular modes (n, L, 2) of a free-dof vector: each node's
    (x, y) pair turned into its sector's frame, then an FFT over the
    sectors.  The free nodes come sector by sector, L in each, so free node
    k is local node k % L of sector k // L (``Mesh``); rotated back by its
    sector angle, it lands on the same local node of sector 0."""
    angle = 2.0 * math.pi / n * np.arange(n)[:, None]
    c, s = np.cos(angle), np.sin(angle)
    bx, by = np.moveaxis(x.reshape(n, -1, 2), -1, 0)
    return np.fft.fft(np.stack([c * bx + s * by, c * by - s * bx], axis=-1), axis=0)


def _from_modes(y):
    """The free-dof vector of all n modes y (n, L, 2)."""
    angle = 2.0 * math.pi / y.shape[0] * np.arange(y.shape[0])[:, None]
    c, s = np.cos(angle), np.sin(angle)
    yx, yy = np.moveaxis(np.fft.ifft(y, axis=0), -1, 0)
    return np.stack([c * yx - s * yy, s * yx + c * yy], axis=-1).reshape(-1)


def _modal(n: int, x, order):
    """The half-spectrum coordinates (modes 0..floor(n/2), local nodes in
    ``order``, flat) of a free-dof vector, in which the plan's mode blocks
    act (``_SectorPlan.blocks``)."""
    return _to_modes(n, x)[: n // 2 + 1, order].reshape(-1)


class _SectorLU:
    """S_ff^-1 by angular Fourier modes: rotate each node into its sector's
    frame, FFT over the sectors, solve the decoupled mode blocks, transform
    back (``_to_modes``, ``_from_modes``).  The free dofs come sector by
    sector, L nodes of (x, y) pairs each, so a free-dof vector is an
    (n, L, 2) array.  Only the h = floor(n/2) + 1 modes m = 0..floor(n/2)
    are factored, as one sparse LU of their block-diagonal matrix, made by
    the ``plan`` from the couplings of S (``_SectorPlan.blocks``), whose
    local nodes come in the plan's band order: a mode m > n/2 is solved
    with the transposed factor of mode n - m, since S_{n-m} = S_m^T."""

    def __init__(self, plan: _SectorPlan, s_couplings: np.ndarray):
        self.order, self.sectors = plan.order, plan.sectors
        self.lu = _factor(plan.blocks(s_couplings, np.arange(plan.sectors // 2 + 1)))

    def solve(self, rhs):
        n, h = self.sectors, self.sectors // 2 + 1
        y = _to_modes(n, rhs)[:, self.order]  # the mode blocks' node order
        half = (h,) + y.shape[1:]  # (h, L, 2)
        high = np.zeros(half, dtype=complex)  # row j: mode n - j
        high[1 : n - h + 1] = y[: h - 1 : -1]
        low = self.lu.solve(y[:h].reshape(-1)).reshape(half)
        high = self.lu.solve(high.reshape(-1), trans="T").reshape(half)
        y[:, self.order] = np.concatenate([low, high[n - h : 0 : -1]])
        return _from_modes(y)


def _norm1(s) -> float:
    """||s||_1, the largest column sum of |s| (``_check_solve``)."""
    return float(abs(s).sum(axis=0).max())


def _check_solve(s, s_norm: float, rhs, u) -> tuple:
    """(residual, backward_error) of a solution u of s u = rhs, with s the
    system that was factored (S_ff, or its mode blocks) and s_norm its
    ``_norm1``: the relative
    residual ||r||_2 / ||rhs||_2 and the normwise backward error
    ||r||_1 / (||s||_1 ||u||_1 + ||rhs||_1) (Rigal & Gaches, J. ACM 14,
    1967), r = rhs - s u.  u is held to the backward-error contract: it
    must solve a system within ``_BACKWARD_TOL`` of s and rhs, relative,
    which a backward-stable factor meets in double at every lambda/mu.
    It does not bound the error of u: that is about the condition number
    times the backward error, and the relative residual shows it (3e-8 to
    3e-7 at lambda/mu = 1e8).  SolverError if the contract is missed."""
    r = s @ u - rhs
    residual = float(np.linalg.norm(r) / np.linalg.norm(rhs))
    eta = float(np.abs(r).sum() / (s_norm * np.abs(u).sum() + np.abs(rhs).sum()))
    if not eta <= _BACKWARD_TOL:
        raise SolverError(f"solve residual: backward error {eta:.2g} above {_BACKWARD_TOL:g}")
    return residual, eta


def solve(system: AssembledSystem, f) -> SolveResult:
    """Solve S_ff u_f = (M f)_f with u = 0 on the Dirichlet circle.

    f is a nodal field (Nn, 2), the load of the weak problem (rho f, v).
    S_ff is factored by angular modes once per system, from the mesh's
    plan (``AssembledSystem.lu``); each solve is held to the
    backward-error contract against the whole assembled S_ff
    (``_check_solve``), which is the one check that the factor is the
    system's, and ``residual_norm`` is its relative residual on the free
    rows.  Singular mode blocks or a missed contract raise SolverError.
    """
    rhs_f = (system.mass @ np.asarray(f, dtype=complex).reshape(-1))[system.free]
    u = np.zeros(system.n_dofs, dtype=complex)
    if not np.any(rhs_f):
        return SolveResult(u=u.reshape(-1, 2), residual_norm=0.0)
    # S_ff is formed before the factor: formed after it, its freed
    # temporaries raise glibc's mmap threshold, and identity-check's peak
    # RSS by 4 MB
    s_ff = system.s_ff
    u_f = system.lu.solve(rhs_f)
    residual, _ = _check_solve(s_ff, system.free_norm, rhs_f, u_f)
    u[system.free] = u_f
    return SolveResult(u=u.reshape(-1, 2), residual_norm=residual)


# ---------------------------------------------------------------------------
# Point-sample extraction for the identity audits
# ---------------------------------------------------------------------------

def evaluate_volume(mesh: Mesh, nodal_fields):
    """Quadrature samples of nodal fields over the mesh.

    Returns (x (Q,2), w (Q,), list of (val (Q,2), grad (Q,2,2))) with
    grad[q, j, l] = d_j v_l and w absorbing the Jacobian.  The geometry is
    the mesh's (``_volume_geometry``), and the fields are sampled together
    by two real matmuls per cell, one with the shape values and one with
    the shape derivatives, on the real and imaginary parts of every
    field's two components side by side."""
    n, x, det, dnx = _volume_geometry(mesh)
    nc, nq, na = dnx.shape[:3]
    w = (_TRI_QW[None, :] * det).reshape(-1)
    parts = np.concatenate(
        [np.asarray(f, dtype=complex).reshape(-1, 2)[mesh.conn].view(float) for f in nodal_fields], axis=-1
    )  # (Nc, a, 4 F)
    val = (n @ parts).view(complex)  # (Nc, Q, 2 F)
    grad = (dnx.swapaxes(2, 3).reshape(nc, 2 * nq, na) @ parts).view(complex)  # (Nc, 2 Q, 2 F): row 2 q + j
    out = [
        (val[..., k : k + 2].reshape(-1, 2), grad[..., k : k + 2].reshape(-1, 2, 2))
        for k in range(0, val.shape[-1], 2)
    ]
    return x.reshape(-1, 2), w, out


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


# ---------------------------------------------------------------------------
# Empirical stability constant
# ---------------------------------------------------------------------------

class _Ritz(NamedTuple):
    """The top Ritz pair's value after a certified Lanczos run."""

    theta: float       # top Ritz value
    block: int         # the block whose Krylov space holds it
    steps: int
    residual: float    # beta_k |y_k| / theta
    thetas: tuple      # the top Ritz value after each step (nondecreasing)


def _lanczos(forward, adjoint, m_mat, v, iters: int = 400, blocks: int = 1) -> _Ritz:
    """Top eigenvalue of the M-self-adjoint operator x -> adjoint(M
    forward(M x)): with forward = S^-1 and adjoint = S^-H it is
    sigma_max^2 of L^H S^-1 L, M = L L^H.

    S and M are block-diagonal over ``blocks`` equal runs of the vector
    (the angular modes an estimate runs, ``empirical_constant``; one block
    is the whole vector).  Lanczos in the M inner product (``m_mat``) runs
    in every block at once, from that block's run of the start vector
    ``v``, with full M-reorthogonalisation of each block against the kept
    M-images M v_j of its basis: one forward and one adjoint solve and two
    products with M per step, whatever the block count.  A block's Krylov
    space depends only on its own blocks of S and M and its run of ``v``,
    not on which blocks run beside it.  Each block keeps its own
    tridiagonal T_k, and the iteration stops once the top Ritz pair
    (theta, y) of the block holding the largest Ritz value is certified,
    beta_k |y_k| <= ``_RITZ_TOL`` * theta.  The Ritz vector lies in that block, so
    this is its residual under the whole operator.  A block whose beta_k is
    0 has found an invariant subspace and is never divided by it: its
    later vectors are 0, which keeps its Ritz values.  The top Ritz value
    never decreases with k.  The basis starts with room for
    ``_BASIS_STEPS`` steps and doubles when full, up to ``iters``.  Raises
    ``IterationError`` (its ``last_iterates`` the last two top Ritz values)
    when ``iters`` steps certify nothing."""
    size = v.size // blocks

    def m_dot(z, mz):  # per block: ||z||_M^2 = Re z^H (M z)
        return np.einsum("bi,bi->b", z.conj(), mz).real

    def m_apply(z):
        return (m_mat @ z.reshape(-1)).reshape(blocks, size)

    def normalised(z, mz):  # z / ||z||_M per block, 0 where the norm is 0
        norm = np.sqrt(np.maximum(m_dot(z, mz), 0.0))
        inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]
        return norm, z * inv, mz * inv

    steps = min(iters, size)
    # step-major, so that each step fills one contiguous slab of all blocks
    room = min(_BASIS_STEPS, steps)
    basis = np.empty((room, blocks, size), dtype=complex)  # [j, b]: block b's M-orthonormal v_j
    m_basis = np.empty_like(basis)  # [j, b]: M v_j
    alphas, betas, thetas = np.zeros((blocks, steps)), np.zeros((blocks, steps)), []
    v = v.reshape(blocks, size)
    _, v, mv = normalised(v, m_apply(v))
    for k in range(steps):
        if k == basis.shape[0]:
            more = min(k, steps - k)
            basis, m_basis = (np.concatenate([b, np.empty_like(b[:more])]) for b in (basis, m_basis))
        basis[k], m_basis[k] = v, mv
        u = forward(mv.reshape(-1)).reshape(blocks, size)
        mu = m_apply(u)
        alphas[:, k] = m_dot(u, mu)  # ||S^-1 M v_k||_M^2
        w = adjoint(mu.reshape(-1)).reshape(blocks, size)
        for _ in range(2):  # full M-reorthogonalisation, twice is enough
            # per block: <v_j, w>_M = (M v_j)^H w
            coeffs = np.matmul(w.conj()[:, None], m_basis[: k + 1].transpose(1, 2, 0)).conj()
            w -= np.matmul(coeffs, basis[: k + 1].transpose(1, 0, 2))[:, 0]
        betas[:, k], w, mw = normalised(w, m_apply(w))
        t = np.zeros((blocks, k + 1, k + 1))  # each block's tridiagonal T_k
        i = np.arange(k + 1)
        t[:, i, i] = alphas[:, : k + 1]
        t[:, i[1:], i[:-1]] = t[:, i[:-1], i[1:]] = betas[:, :k]
        ritz, y = np.linalg.eigh(t)
        top = int(np.argmax(ritz[:, -1]))
        thetas.append(float(ritz[top, -1]))
        residual = betas[top, k] * abs(float(y[top, -1, -1]))
        if residual <= _RITZ_TOL * thetas[-1]:
            return _Ritz(thetas[-1], top, k + 1, residual / thetas[-1], tuple(thetas))
        v, mv = w, mw
    raise IterationError(
        f"Lanczos estimate not certified in {steps} steps", last_iterates=tuple(thetas[-2:])
    )


@dataclass(frozen=True)
class ConstantEstimate:
    """A certified empirical constant.

    ``ritz_residual`` is the M-norm residual of the top Ritz pair relative
    to its Ritz value theta: some eigenvalue of the normal operator lies
    within ``ritz_residual * theta`` of theta.  ``history`` holds
    omega^2 sqrt(theta) after each Lanczos step (nondecreasing), the top
    over the modes that were run.  ``modes_run`` and ``modes_certified``
    split the angular modes 0..floor(n_theta/2) (ascending, together all
    of them): Lanczos ran on the first, and each of the second has H_m -
    tau M_m proven positive definite (``_SectorPlan.certify``), so its
    constant is at most omega^2 / ``tau`` <= ``c_emp``.  ``top_mode`` is
    the angular mode m whose Krylov space holds theta.  ``lu_nnz``
    counts the entries SuperLU stores for L + U of the factor of the
    mode blocks that were run, the explicit zeros of its dense supernodes
    included (106,146 at kappa_s = 32, 39 of its 126 modes).
    ``solve_residual`` and ``backward_error`` are the relative residual
    and the backward error of the first forward solve (``_check_solve``).
    A sweep row carries it as ``SweepRow.estimate``."""

    c_emp: float
    steps: int
    ritz_residual: float
    history: tuple
    top_mode: int
    lu_nnz: int
    solve_residual: float
    backward_error: float
    modes_run: tuple
    modes_certified: tuple
    tau: float


# The estimate first certifies the modes whose constants lie below the
# guard c_g = _GUARD kappa_s (``empirical_constant``).  Every measured
# c_emp / kappa_s at order 2 and lambda/mu <= 1e4 is at least 0.135, so
# there c_g lies below c_emp and each mode is tested once.  Rows whose
# locking makes c_emp small (order 1, or lambda/mu = 1e8) find every mode
# below c_g and halve it, up to 20 times at order 1 and lambda/mu = 1e8
_GUARD = 0.1


def empirical_constant(
    mesh: Mesh,
    material: MaterialField,
    robin: RobinSpec,
    omega: float,
    iters: int = 400,
    seed: int = 0,
) -> ConstantEstimate:
    """omega^2 times the largest singular value of the discrete solution map
    f -> u = S^-1 M f in rho-weighted norms.

    ``_lanczos`` on the normal operator S^-H M S^-1 M, factored by angular
    modes, stopped once the top Ritz value theta is certified to
    ``_RITZ_TOL``; returns omega^2 sqrt(theta).  Every mesh is sector 0
    rotated, so only the element matrices of the cells around sector 0 are
    made, through the mesh's plan (``_sector_plan``), and the estimate
    works on the half-spectrum mode blocks of S_ff and M_ff, which hold the
    whole spectrum: modes m and n - m of the normal operator share theirs.
    The normal operator is block-diagonal over those modes, so Lanczos runs
    one Krylov space per mode, in lockstep, and certifies the mode that
    holds the top value (``_lanczos``).  The start vector is the one drawn
    on the free dofs, projected onto the modes that are run (``_modal``),
    so each mode's Krylov space does not depend on which others run.

    Only the modes that can hold the top value are factored and run.  With
    H_m = K_m - omega^2 M_m, the Hermitian part of S_m (R_m >= 0), S_m u =
    M_m f gives u^H H_m u = Re (M_m f, u) <= ||f||_M ||u||_M: a mode with
    H_m - tau M_m positive definite (``_SectorPlan.certify``) has
    omega^2 ||S_m^-1 M_m||_M <= omega^2 / tau.  One loop over a bound c,
    tau = omega^2 / c, keeps the invariant that after each test every mode
    not run is certified at tau, and it ends once c_emp >= omega^2 / tau:
    every certified mode is then at most omega^2 / tau <= c_emp.  c starts
    at c_g = ``_GUARD`` kappa_s, kappa_s = omega ell / theta_s_min, and is
    halved while every mode passes and none has run.  Each pass tests the
    modes not run from the top mode down; those from the first that fails
    down join the run set, whose mode blocks are factored and run afresh,
    and c becomes c_emp.  The first forward solve of each run is held to
    the same backward-error contract as ``solve`` (``_check_solve``),
    against the mode blocks that were factored.  A backward error that
    small does not make c_emp accurate to ``_RITZ_TOL``: near lambda/mu =
    1e8 the relative residual reads 3e-8 to 3e-7, and rounding moves c_emp
    by ~1e-7.

    Returns the ``ConstantEstimate`` (constant, step count, certificate,
    history, top mode, factor fill, first-solve residual and backward
    error, the modes run and certified, and tau).  Raises ``ValueError``
    unless omega > 0, ``SolverError`` when the mode blocks are singular or
    the first solve misses the contract, and ``IterationError`` when
    ``iters`` steps certify nothing.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    n, half = mesh.n_theta, mesh.n_theta // 2 + 1
    plan = _sector_plan(mesh)
    parts = plan.couplings(material, robin, omega)
    s_couplings = parts.system(omega)
    size = 2 * plan.order.size * n
    rng = np.random.default_rng(seed)
    v = _modal(n, rng.normal(size=size) + 1j * rng.normal(size=size), plan.order).reshape(half, -1)

    def constants(thetas):
        return tuple(omega**2 * math.sqrt(theta) for theta in thetas)

    c = _GUARD * omega * mesh.ell / material.theta_s_min
    certified, run, ritz = np.arange(half)[::-1], np.arange(0), None
    while True:
        tau = omega**2 / c
        count = plan.certify(parts, tau, certified)
        if count == certified.size:
            if ritz is not None:
                break
            c /= 2.0  # every mode lies below the guard: lower it
            continue
        run, certified = np.union1d(run, certified[count:]), certified[:count]
        s_mat, m_mat = plan.blocks(s_couplings, run), plan.blocks(parts.mass, run)
        factor = _factor(s_mat)
        first_solve = []  # (residual, backward error)

        def forward(rhs):
            u = factor.solve(rhs)
            if not first_solve:
                first_solve.extend(_check_solve(s_mat, _norm1(s_mat), rhs, u))
            return u

        def adjoint(rhs):
            return factor.solve(rhs, trans="H")

        try:
            ritz = _lanczos(forward, adjoint, m_mat, v[run].reshape(-1), iters, run.size)
        except IterationError as exc:
            raise IterationError(str(exc), last_iterates=constants(exc.last_iterates)) from None
        history = constants(ritz.thetas)
        if history[-1] >= omega**2 / tau:
            break
        c = history[-1]
    return ConstantEstimate(
        c_emp=history[-1],
        steps=ritz.steps,
        ritz_residual=ritz.residual,
        history=history,
        top_mode=int(run[ritz.block]),
        lu_nnz=factor.nnz,
        solve_residual=first_solve[0],
        backward_error=first_solve[1],
        modes_run=tuple(run.tolist()),
        modes_certified=tuple(certified[::-1].tolist()),
        tau=tau,
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
    robin_choice: str = "shear"  # one of RobinSpec.CHOICES; alpha_t, alpha_n serve "custom"
    alpha_t: float = 1.0
    alpha_n: float = 1.0
    order: int = 2
    points_per_wavelength: float = 10.0
    resolution_margin: float = 1.1
    n_theta_min: int = 24
    seed: int = 0

    def material(self, lam_ratio: float) -> MaterialField:
        return MaterialField.constant(self.rho, self.mu, lam_ratio * self.mu)

    def robin(self, material: MaterialField) -> RobinSpec:
        return RobinSpec.for_choice(self.robin_choice, material, self.alpha_t, self.alpha_n)

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
        if not math.sqrt(self.mu / self.rho) > 0.0:
            raise ConfigError(f"the shear speed sqrt(mu/rho) underflows at mu={self.mu!r}, rho={self.rho!r}")
        if not (math.isfinite(self.r_in) and 0.0 < self.r_in < self.ell):
            raise ConfigError(f"need 0 < r_in < ell, got r_in={self.r_in!r}, ell={self.ell!r}")
        if self.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {self.order!r}")
        if self.robin_choice not in RobinSpec.CHOICES:
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
    """One (kappa_s, lambda/mu) row of a sweep.  A refused row, or one whose
    estimate failed, has no ``estimate`` and says why in ``error``; its
    ``c_emp`` and ``slack`` are None."""

    omega: float
    kappa_s: float
    lambda_over_mu: float
    bound_ideal_full: float
    bound_ideal_simplified: float
    bound_realistic: float
    applicable_bound: float  # the theorem for the row's impedance; see _sweep_row
    points_per_wavelength: float
    n_r: int
    n_theta: int
    n_dofs: int
    refused: bool
    error: str | None = None
    estimate: ConstantEstimate | None = None

    @property
    def c_emp(self) -> float | None:
        return None if self.estimate is None else self.estimate.c_emp

    @property
    def slack(self) -> float | None:
        return None if self.estimate is None else self.applicable_bound - self.estimate.c_emp


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


def _sweep_row(cfg: SweepConfig, mesh: Mesh, kappa: float, lam_ratio: float) -> SweepRow:
    """One solved (or refused) row on its kappa_s's ``resolution_mesh``.
    Its applicable bound is the theorem for its impedance: the ideal
    obstacle bound for shear-matched rows (alpha_t = alpha_n = 1), the
    realistic one for pressure-matched rows (alpha_n = sqrt(2 + lambda/mu)),
    and the simple-Robin bound for the annulus at a custom (alpha_t,
    alpha_n).

    Everything but ``omega`` depends on rho and mu only through kappa_s
    and lambda/mu: scaling mu and lambda by s and rho by r scales S by s
    and M by r at the same kappa_s, which leaves omega^2 S^-1 M and the
    impedance ratios alone.  So the row is solved on rho = mu = 1 at
    omega = kappa_s / ell, which keeps S and M near unit size at any
    finite positive rho and mu (mu = 1e-249 overflows the Lanczos
    products, and a subnormal mu rounds the stiffness away); its
    estimate's ``tau`` is in those units."""
    omega = kappa * math.sqrt(cfg.mu / cfg.rho) / cfg.ell
    material = MaterialField.constant(1.0, 1.0, lam_ratio)
    ppw = mesh.points_per_wavelength(kappa / cfg.ell, 1.0)
    ideal = bound_obstacle_ideal(kappa, d=2)
    realistic = bound_obstacle_realistic(kappa, lam_ratio)
    robin = cfg.robin(material)
    if cfg.robin_choice == "shear":
        bound = ideal.full
    elif cfg.robin_choice == "pressure":
        bound = realistic
    else:
        domain = DomainSpec(d=2, ell=cfg.ell, shape="annulus", r_in=cfg.r_in)
        groups = derive_groups(material, domain, robin, kappa / cfg.ell)
        bound = stability_simple_robin(groups, multiplier_for(domain), 2).bound_value
    refused = ppw < cfg.points_per_wavelength
    base = dict(
        omega=omega,
        kappa_s=kappa,
        lambda_over_mu=lam_ratio,
        bound_ideal_full=ideal.full,
        bound_ideal_simplified=ideal.simplified,
        bound_realistic=realistic,
        applicable_bound=bound,
        points_per_wavelength=ppw,
        n_r=mesh.n_r,
        n_theta=mesh.n_theta,
        n_dofs=2 * mesh.n_nodes,
        refused=refused,
    )
    if refused:
        return SweepRow(error="resolution policy violated", **base)
    try:
        est = empirical_constant(mesh, material, robin, kappa / cfg.ell, seed=cfg.seed)
    except (SolverError, IterationError) as exc:
        return SweepRow(error=str(exc), **base)
    return SweepRow(estimate=est, **base)


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (kappa_s, lambda/mu) pair, kappa_s-major, solved one
    after another; rows violating the resolution policy are refused (not
    solved).  Row errors are recorded and the sweep continues.
    Every kappa_s's mesh is built once, before any row is solved, for all
    of its rows, which share its sector plan (``_sector_plan``).  An
    invalid configuration, or a geometry too thin for a kappa_s's
    resolution mesh (an inverted cell), raises ConfigError before any row
    is solved."""
    cfg.validate()
    meshes = []
    for kappa in cfg.kappa_s:
        try:
            meshes.append(resolution_mesh(cfg, kappa))
        except MeshError as exc:
            n_r, n_theta = _resolution(cfg, kappa)
            raise ConfigError(
                f"kappa_s = {kappa!r}: the {n_r} x {n_theta} order-{cfg.order} resolution mesh "
                f"cannot be built at r_in/ell = {cfg.r_in / cfg.ell:g} ({exc})"
            ) from exc
    pairs = zip(cfg.kappa_s, meshes)
    return [_sweep_row(cfg, mesh, kappa, lam) for kappa, mesh in pairs for lam in cfg.lambda_over_mu]
