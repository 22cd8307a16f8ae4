"""2D vector finite elements on the annulus probe.

Assembles the dissipative time-harmonic system

    S(omega) = K - omega^2 M - i omega R

with K the elastic stiffness (2 mu strain:strain + lambda div div), M the
density-weighted mass, and R the impedance boundary matrix on the outer
circle.  Solving S u = M f realizes the weak problem with load (rho f, v).
Dirichlet conditions on the inner circle are imposed by elimination.

The module also measures the empirical stability constant
omega^2 * sup ||u||_rho / ||f||_rho: Lanczos in the rho-weighted (mass)
inner product on the normal operator of the discrete solution map, one
Krylov space per angular mode where the system has them, stopped on a
Ritz-residual certificate (``_lanczos``).  Every ``solve`` with one
assembled system shares its factorization; each estimate makes one.
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
normal operator of mode n - m has the spectrum of mode m's.

The mode blocks are the only factor the module makes, and they have one
source: sector 0's free rows of S_ff and M_ff.  Every ``MaterialField`` is
radial, every ``RobinSpec`` constant and every ``Mesh`` its polar lattice
by construction, so those rows hold the whole system.  They give the
blocks B_-1, B_0, B_1, checked for a coupling beyond the neighbouring
sectors and for B_0 = B_0^T and B_-1 = B_1^T (``_sector_couplings``), and
the half-spectrum mode blocks (``_sector_modes``), whose local nodes
come in one band order, so that ``_factor`` needs no ordering pass of its
own.  ``empirical_constant``
assembles only the 4 n_r cells around sector 0 (``_sector_cells``,
``_sector_rows``) and runs Lanczos on the mode blocks, with no FFT per
step, in every mode block at once: the normal operator is block-diagonal
over the modes.  ``AssembledSystem.lu``, behind ``solve``, takes sector
0's rows of the fully assembled S_ff, and its factor (``_SectorLU``)
reaches the high modes through the transposed factor.

A system that fails these checks raises ``SolverError`` naming the
check; one whose other sectors do not repeat sector 0's rows misses
``solve``'s backward-error contract.  The direct LU of S_ff, made by
``_factor`` in the dofs' own order with the same diagonal-preferring
pivoting, is the tests' oracle.  Backward errors are measured on the
system that was solved: ``solve`` on the free dofs against the whole S_ff,
the estimate against its mode blocks, the image of S_ff under a unitary
map (rotation, the DFT over sectors, then the band order of the nodes).
At kappa_s = 32 (20,500 nodes, 2 vCPU on a busy host, three processes of
seven runs) an estimate takes 0.11-0.13 s, against 0.14-0.15 s with a
minimum-degree ordering of the whole block-diagonal matrix, and never
holds the whole system; assembling that system alone takes 0.14-0.19 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from . import mesh as _mesh
from .bounds import bound_obstacle_ideal, bound_obstacle_realistic, stability_simple_robin
from .core import DomainSpec, MaterialField, RobinSpec, derive_groups, multiplier_for
from .errors import ConfigError, IterationError, SolverError
from .mesh import _TRI_QP, _TRI_QW, DIRICHLET, DISSIPATIVE, Mesh, _grad_x, _shapes

__all__ = [
    "AssembledSystem",
    "SolveResult",
    "assemble",
    "boundary_load",
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

# Largest resolution mesh a sweep builds: kappa_s ~ 100 at the default
# policy (order 2, 10 points per wavelength).  Peak memory grows about
# linearly in the node count.  On 2 vCPU one kappa_s = 64 row (80,676
# nodes, a fresh process) peaks at 0.18 GB in 0.44-0.49 s, and a
# kappa_s = 100 row (194,500 nodes) at 0.34 GB in 1.15-1.27 s; with a
# minimum-degree ordering in place of the band order they read 0.20 GB in
# 0.51-0.63 s and 0.40 GB in 1.75-1.86 s.
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
    def lu(self) -> _SectorLU:
        """Factorization of S_ff by angular Fourier modes (``_SectorLU``),
        made on first use from sector 0's free rows, as the estimate makes
        its own (``_sector_rows``), and shared by every later solve with
        this system.  The free dofs must be whole nodes, and sector 0's
        rows must fill an equal share of them, couple only to the
        neighbouring sectors and be symmetric (``_sector_couplings``);
        SolverError names the check it fails.  The other sectors' rows are
        taken to repeat sector 0's: a system where they do not is refused
        by ``solve``'s backward-error contract against the whole S_ff."""
        free = self.free
        # Dirichlet data eliminate whole nodes: free dofs pair up as (2k, 2k+1)
        if not (np.array_equal(free[0::2] + 1, free[1::2]) and not np.any(free[0::2] % 2)):
            raise SolverError("the free dofs are not whole nodes")
        s_ff = self.free_blocks[0]
        return _SectorLU(self.mesh.n_theta, s_ff[: s_ff.shape[0] // self.mesh.n_theta])


def _assemble_cells(mesh: Mesh, material: MaterialField, robin: RobinSpec, cells=None) -> tuple:
    """(K, M, R) on all 2 Nn dofs, summed over the cells ``cells`` (index
    array; all cells when None) and the dissipative edges they own."""
    conn = mesh.conn if cells is None else mesh.conn[cells]
    n, x, det, dnx = _geometry(mesh, _TRI_QP, conn)
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
    dofs = _dofs(conn)
    stiffness = _scatter(dofs, ke, ndof)
    mass = _scatter(dofs, me, ndof)

    # impedance matrix on the dissipative circle: a_T I + (a_N - a_T) n (x) n
    edges = _edge_quadrature(mesh, DISSIPATIVE, cells)
    en, _ = _edge_shapes(mesh.order, _EDGE_QP)
    nrm = edges.normal
    amat = robin.a_t * np.eye(2) + (robin.a_n - robin.a_t) * (nrm[..., :, None] * nrm[..., None, :])
    blk = np.einsum("eq,qa,qb,eqij->eaibj", edges.w, en, en, amat)  # ravels as (E, 2ae, 2ae)
    return stiffness, mass, _scatter(_dofs(edges.nodes), blk, ndof)


def _free_dofs(mesh: Mesh) -> tuple:
    """(free, dirichlet): the sorted dof numbers off and on the Dirichlet
    circle, whose nodes are eliminated whole."""
    on = np.zeros((mesh.n_nodes, 2), dtype=bool)
    on[mesh.boundary_nodes(DIRICHLET)] = True
    return np.flatnonzero(~on), np.flatnonzero(on)


def assemble(mesh: Mesh, material: MaterialField, robin: RobinSpec, omega: float) -> AssembledSystem:
    stiffness, mass, robin_matrix = _assemble_cells(mesh, material, robin)
    free, dirichlet_dofs = _free_dofs(mesh)
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


def _flat(field: np.ndarray) -> np.ndarray:
    field = np.asarray(field)
    return field.reshape(-1) if field.ndim > 1 else field


def _factor(s_ff: sp.csc_matrix):
    """Sparse LU of the block-diagonal matrix of the angular mode blocks
    of S_ff (``_SectorLU``, the estimate); the tests also factor S_ff
    itself with it, as the oracle.

    The columns are eliminated in the order given: the mode blocks come in
    a band order (``_sector_modes``), whose fill stays within the band, and
    no ordering pass runs over the whole block-diagonal matrix.  Both
    matrices have a symmetric pattern (S is complex symmetric), and the
    pivoting prefers the diagonal: without the relaxed threshold, partial
    pivoting at large lambda/mu leaves the diagonal and the fill grows (by
    17% on the kappa_s = 16 mode blocks at lambda/mu = 1e4, where the
    relaxed threshold adds 3%).
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


# sector 0's couplings count as symmetric when they repeat their transposes
# to this fraction of the largest entry of sector 0's rows
_SECTOR_RTOL = 1e-12


def _sector_cells(mesh: Mesh) -> np.ndarray:
    """The 4 n_r cells that touch a node of sector 0, ascending: sector 0's
    and sector n_theta - 1's (``Mesh``)."""
    return np.r_[: 2 * mesh.n_r, mesh.n_cells - 2 * mesh.n_r : mesh.n_cells]


def _sector_couplings(n: int, *matrices) -> tuple:
    """(L, pairs, couplings): the blocks B_0, B_1, B_-1 of free-dof
    matrices that couple each angular sector to itself and its neighbours
    (``_sector_modes``), on their union pattern.

    Each matrix holds sector 0's free rows (``_sector_rows``) against the
    columns of all n L free nodes.  ``pairs`` holds the union pattern's
    (row node, column node) pairs of sector 0's L local nodes as row node *
    L + column node, sorted; each coupling is a (3, pairs, 2, 2) array of
    the matrix's B_0, B_1 and B_-1 2x2 node blocks on those pairs, rotated
    into sector 0's frame.  Raises SolverError when the sectors hold
    different node counts, a row couples beyond the neighbouring sectors
    or the blocks are not symmetric."""
    size = matrices[0].shape[1]
    if n < 3 or size % (2 * n):
        raise SolverError("sectors hold different node counts")
    nodes = size // (2 * n)

    # every matrix's 2x2 node blocks by slot: the coupling (B_0, B_1 or
    # B_-1) and the local nodes of its row and column
    blocks = []
    for matrix in matrices:
        bsr = matrix.tobsr(blocksize=(2, 2))
        a = np.repeat(np.arange(nodes), np.diff(bsr.indptr))
        shift, b = np.divmod(bsr.indices, nodes)  # 0, 1 or n - 1 for B_0, B_1, B_-1
        if np.any((shift > 1) & (shift < n - 1)):
            raise SolverError("coupling beyond neighbouring sectors")
        slot = (np.where(shift == n - 1, 2, shift) * nodes + a) * nodes + b
        blocks.append((slot, bsr.data.reshape(-1, 4).T))

    # the union pattern of B_-1, B_0, B_1 over all matrices, one coefficient
    # block per coupling, and each coupling's transposed partner
    present = np.zeros(3 * nodes * nodes, dtype=bool)
    for slot, _ in blocks:
        present[slot] = True
    index = np.cumsum(present) - 1
    block, pair = np.divmod(np.flatnonzero(present), nodes * nodes)
    pairs, where = np.unique(pair, return_inverse=True)
    flipped = pairs % nodes * nodes + pairs // nodes
    partner = np.minimum(np.searchsorted(pairs, flipped), pairs.size - 1)
    if np.any(pairs[partner] != flipped):
        raise SolverError("the couplings are not symmetric")
    # the sector angle of each block's column node
    angle = 2.0 * math.pi / n * np.array([0, 1, -1])[block]
    c, s = np.cos(angle), np.sin(angle)

    couplings = []
    for slot, data in blocks:
        # the blocks on the union pattern, entries 00, 01, 10, 11 first,
        # turned into sector 0's frame: B F^T, F = [[cos, sin], [-sin, cos]]
        v = np.zeros((4, block.size), dtype=data.dtype)
        v[:, index[slot]] = data
        v[0], v[1] = c * v[0] + s * v[1], c * v[1] - s * v[0]
        v[2], v[3] = c * v[2] + s * v[3], c * v[3] - s * v[2]
        tol = _SECTOR_RTOL * np.abs(v).max(initial=0.0)
        coeffs = np.zeros((3, pairs.size, 2, 2), dtype=complex)
        coeffs[block, where] = v.T.reshape(-1, 2, 2)
        # B_0 = B_0^T and B_-1 = B_1^T, pair by pair
        if np.abs(coeffs - coeffs[[0, 2, 1]][:, partner].swapaxes(-1, -2)).max(initial=0.0) > tol:
            raise SolverError("the blocks are not symmetric")
        couplings.append(coeffs)
    return nodes, pairs, couplings


def _sector_modes(n: int, *matrices) -> tuple:
    """Half-spectrum angular Fourier decomposition of free-dof matrices.

    The free nodes of a ``build_annulus_mesh`` system come sector by sector,
    the same count L in each (the mesh numbers its nodes sector-major and
    the Dirichlet circle removes the same nodes from every sector), so
    block (2x2 node block) index k holds local node k % L of sector
    k // L.  Rotated back by its sector angle s 2 pi / n, that node lands
    on the same local node of sector 0.  In the coordinates of (sector,
    local node, rotated component) a matrix A becomes T A T^T, T
    orthogonal, and when that matrix is block-circulant with blocks B_-1,
    B_0, B_1 coupling each sector to itself and its neighbours, read off
    sector 0's rows (``_sector_couplings``), the DFT over sectors splits
    it into the mode blocks A_m = B_0 + B_1 w^m + B_-1 w^-m,
    w = exp(2 pi i / n).  A symmetric A (B_0 = B_0^T, B_-1 = B_1^T) has
    A_{n-m} = A_m^T, so the h = floor(n/2) + 1 modes m = 0..floor(n/2)
    determine all n.

    Returns (order, modes): the order of the L local nodes in every mode
    block, and per matrix its h mode blocks as one block-diagonal CSC.  The
    union pattern of the blocks is shared by every matrix and every mode,
    and it is a thin radial strip, so its nodes are taken in reverse
    Cuthill-McKee order (Cuthill & McKee, ACM 1969): a mode block's
    half-bandwidth is then 11 dofs at order 2 whatever n_r, and ``_factor``
    keeps that order.  One mode block's CSC structure, sorted by column and
    then row, is built once and tiled over the h modes, and each matrix's
    entries are one product of the twiddles (1, w^m, w^-m) with its
    couplings."""
    nodes, pairs, couplings = _sector_couplings(n, *matrices)
    half, nl = n // 2 + 1, 2 * nodes  # nl: local dofs per sector
    row_node, col_node = np.divmod(pairs, nodes)
    graph = sp.csr_matrix((np.ones(pairs.size), (row_node, col_node)), shape=(nodes, nodes))
    order = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
    rank = np.empty_like(order)
    rank[order] = np.arange(nodes)
    # one mode block's entries, pair by pair, then row and column component
    rows = ((2 * rank[row_node])[:, None] + np.array([0, 0, 1, 1])).ravel()
    cols = ((2 * rank[col_node])[:, None] + np.array([0, 1, 0, 1])).ravel()
    entries = np.lexsort((rows, cols))
    indices = (rows[entries] + nl * np.arange(half)[:, None]).ravel()
    col_ptr = np.cumsum(np.bincount(cols, minlength=nl))
    indptr = np.concatenate([[0], (col_ptr + entries.size * np.arange(half)[:, None]).ravel()])
    twiddle = np.exp(2j * math.pi * np.arange(half) / n)
    twiddles = np.stack([np.ones(half), twiddle, twiddle.conj()], axis=1)  # (h, 3)
    # per matrix (h, entries): B_0 + B_1 w^m + B_-1 w^-m
    data = [twiddles @ coeffs.reshape(3, -1)[:, entries] for coeffs in couplings]
    return order, [sp.csc_matrix((d.reshape(-1), indices, indptr), shape=(half * nl,) * 2) for d in data]


def _sector_rows(mesh: Mesh, material: MaterialField, robin: RobinSpec, omega: float) -> tuple:
    """(S_0f, M_0f): the free rows of sector 0 of S_ff and M_ff, against
    all free columns, assembled from only the cells that touch sector 0
    (``_sector_cells``).  Those cells hold every entry of those rows.  The
    mode blocks of the whole system follow (``_sector_modes``): every
    ``Mesh`` is sector 0 rotated, every ``MaterialField`` is radial and
    every ``RobinSpec`` is constant, so the system is invariant by
    construction."""
    cells = _sector_cells(mesh)
    stiffness, mass, robin_matrix = _assemble_cells(mesh, material, robin, cells)
    free, _ = _free_dofs(mesh)
    rows = free[free < 2 * (mesh.n_nodes // mesh.n_theta)]
    s_rows = (stiffness - omega**2 * mass - 1j * omega * robin_matrix)[rows]
    return s_rows[:, free], mass[rows][:, free]


def _to_modes(n: int, x):
    """All n angular modes (n, L, 2) of a free-dof vector: each node's
    (x, y) pair turned into its sector's frame, then an FFT over the
    sectors (``_sector_modes``)."""
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
    ``order``, flat) of a free-dof vector, in which the mode blocks of
    ``_sector_modes`` act."""
    return _to_modes(n, x)[: n // 2 + 1, order].reshape(-1)


class _SectorLU:
    """S_ff^-1 by angular Fourier modes: rotate each node into its sector's
    frame, FFT over the sectors, solve the decoupled mode blocks, transform
    back (``_to_modes``, ``_from_modes``).  The free dofs come sector by
    sector, L nodes of (x, y) pairs each (``_sector_modes``), so a free-dof
    vector is an (n, L, 2) array.  Only the h = floor(n/2) + 1 modes
    m = 0..floor(n/2) are factored, as one sparse LU of their
    block-diagonal matrix, made from sector 0's rows of S_ff
    (``_sector_modes``), whose local nodes come in the blocks' ``order``:
    a mode m > n/2 is solved with the transposed factor of mode n - m,
    since S_{n-m} = S_m^T."""

    def __init__(self, n: int, s_rows):
        self.order, [s_modes] = _sector_modes(n, s_rows)
        self.modes = n
        self.lu = _factor(s_modes)

    def solve(self, rhs):
        n, h = self.modes, self.modes // 2 + 1
        y = _to_modes(n, rhs)[:, self.order]  # the mode blocks' node order
        half = (h,) + y.shape[1:]  # (h, L, 2)
        high = np.zeros(half, dtype=complex)  # row j: mode n - j
        high[1 : n - h + 1] = y[: h - 1 : -1]
        low = self.lu.solve(y[:h].reshape(-1)).reshape(half)
        high = self.lu.solve(high.reshape(-1), trans="T").reshape(half)
        y[:, self.order] = np.concatenate([low, high[n - h : 0 : -1]])
        return _from_modes(y)


def _check_solve(s, rhs, u) -> tuple:
    """(residual, backward_error) of a solution u of s u = rhs, with s the
    system that was factored (S_ff, or its mode blocks): the relative
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
    s_norm = abs(s).sum(axis=0).max()  # the largest column sum
    eta = float(np.abs(r).sum() / (s_norm * np.abs(u).sum() + np.abs(rhs).sum()))
    if not eta <= _BACKWARD_TOL:
        raise SolverError(f"solve residual: backward error {eta:.2g} above {_BACKWARD_TOL:g}")
    return residual, eta


def solve(
    system: AssembledSystem,
    f,
    dirichlet_values=None,
    extra_load=None,
) -> SolveResult:
    """Solve S u = M f (+ extra_load) with Dirichlet lifting.

    f is a nodal field (Nn, 2); extra_load is an already-assembled dual
    vector (surface data for manufactured solutions).  S_ff is factored
    by angular modes once per system (``AssembledSystem.lu``); each solve
    is held to the backward-error contract against S_ff (``_check_solve``),
    and ``residual_norm`` is its relative residual on the free rows.  A
    system that fails the sector checks, a singular system or a missed
    contract raises SolverError.
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
        return SolveResult(u=u.reshape(-1, 2), residual_norm=0.0)
    u_f = system.lu.solve(rhs_f)
    residual, _ = _check_solve(s_ff, rhs_f, u_f)
    u[free] = u_f
    return SolveResult(u=u.reshape(-1, 2), residual_norm=residual)


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
    (the angular modes of ``_sector_modes``; one block is the whole
    vector).  Lanczos in the M inner product (``m_mat``) runs in every
    block at once, from that block's run of the start vector ``v``, with
    full M-reorthogonalisation of each block against the kept M-images
    M v_j of its basis: one forward and one adjoint solve and two products
    with M per step, whatever the block count.  Each block keeps its own
    tridiagonal T_k, and the iteration stops once the top Ritz pair
    (theta, y) of the block holding the largest Ritz value is certified,
    beta_k |y_k| <= ``_RITZ_TOL`` * theta.  The Ritz vector lies in that block, so
    this is its residual under the whole operator.  A block whose beta_k is
    0 has found an invariant subspace and is never divided by it: its
    later vectors are 0, which keeps its Ritz values.  The top Ritz value
    never decreases with k.  Raises
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
    basis = np.empty((steps, blocks, size), dtype=complex)  # [j, b]: block b's M-orthonormal v_j
    m_basis = np.empty_like(basis)  # [j, b]: M v_j
    alphas, betas, thetas = np.zeros((blocks, steps)), np.zeros((blocks, steps)), []
    v = v.reshape(blocks, size)
    _, v, mv = normalised(v, m_apply(v))
    for k in range(steps):
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
    omega^2 sqrt(theta) after each Lanczos step (nondecreasing).
    ``top_mode`` is the angular mode m in 0..floor(n_theta/2) whose
    Krylov space holds theta.  ``lu_nnz`` counts the entries SuperLU
    stores for L + U of the factor of the h = floor(n_theta/2) + 1 mode
    blocks that serve all n_theta modes, the explicit zeros of its dense
    supernodes included (341,712 at kappa_s = 32, of which 324,576 are
    structural nonzeros, ``L.nnz + U.nnz``).
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

    ``_lanczos`` on the normal operator S^-H M S^-1 M with one
    factorization of S, stopped once the top Ritz value theta is certified
    to ``_RITZ_TOL``; returns omega^2 sqrt(theta).  Every mesh is sector 0
    rotated, so only the cells around sector 0 are assembled
    (``_sector_cells``, ``_sector_rows``), and Lanczos runs on the
    half-spectrum mode blocks of S_ff and M_ff (``_sector_modes``), which
    hold the whole spectrum: modes m and n - m of the normal operator
    share theirs.  The normal operator is block-diagonal over those modes,
    so Lanczos runs one Krylov space per mode, in lockstep, and certifies
    the mode that holds the top value (``_lanczos``, ``blocks`` = floor(n/2) + 1).  The
    start vector is the one drawn on the free dofs, projected onto those
    modes (``_modal``).  The first forward solve is held to the same
    backward-error contract as ``solve`` (``_check_solve``), against the
    mode blocks that were factored.  A backward error that small does not
    make c_emp accurate to ``_RITZ_TOL``: near lambda/mu = 1e8 the relative
    residual reads 3e-8 to 3e-7, and rounding moves c_emp by ~1e-7.

    Returns the ``ConstantEstimate`` (constant, step count, certificate,
    history, top mode, factor fill, first-solve residual and backward
    error).  Raises ``SolverError`` when the mode blocks fail the sector
    checks or the first solve misses the contract, and
    ``IterationError`` when ``iters`` steps certify nothing.
    """
    n, blocks = mesh.n_theta, mesh.n_theta // 2 + 1
    order, (s_mat, m_mat) = _sector_modes(n, *_sector_rows(mesh, material, robin, omega))
    factor = _factor(s_mat)
    size = s_mat.shape[0] // blocks * n
    rng = np.random.default_rng(seed)
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    first_solve = []  # (residual, backward error)

    def forward(rhs):
        u = factor.solve(rhs)
        if not first_solve:
            first_solve.extend(_check_solve(s_mat, rhs, u))
        return u

    def adjoint(rhs):
        return factor.solve(rhs, trans="H")

    try:
        ritz = _lanczos(forward, adjoint, m_mat, _modal(n, v, order), iters, blocks)
    except IterationError as exc:
        last = tuple(omega**2 * math.sqrt(theta) for theta in exc.last_iterates)
        raise IterationError(str(exc), last_iterates=last) from None
    history = tuple(omega**2 * math.sqrt(theta) for theta in ritz.thetas)
    return ConstantEstimate(
        c_emp=history[-1],
        steps=ritz.steps,
        ritz_residual=ritz.residual,
        history=history,
        top_mode=ritz.block,
        lu_nnz=factor.nnz,
        solve_residual=first_solve[0],
        backward_error=first_solve[1],
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
    force: bool = False

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


def _sweep_row(cfg: SweepConfig, kappa: float, lam_ratio: float) -> SweepRow:
    """One solved (or refused) row.  Its applicable bound is the theorem for
    its impedance: the ideal obstacle bound for shear-matched rows
    (alpha_t = alpha_n = 1), the realistic one for pressure-matched rows
    (alpha_n = sqrt(2 + lambda/mu)), and the simple-Robin bound for the
    annulus at a custom (alpha_t, alpha_n)."""
    material = cfg.material(lam_ratio)
    omega = kappa * material.theta_s_min / cfg.ell
    mesh = resolution_mesh(cfg, kappa)
    ppw = mesh.points_per_wavelength(omega, material.theta_s_min)
    ideal = bound_obstacle_ideal(kappa, d=2)
    realistic = bound_obstacle_realistic(kappa, lam_ratio)
    robin = cfg.robin(material)
    if cfg.robin_choice == "shear":
        bound = ideal.full
    elif cfg.robin_choice == "pressure":
        bound = realistic
    else:
        domain = DomainSpec(d=2, ell=cfg.ell, shape="annulus", r_in=cfg.r_in)
        groups = derive_groups(material, domain, robin, omega)
        bound = stability_simple_robin(groups, multiplier_for(domain), 2).bound_value
    refused = ppw < cfg.points_per_wavelength and not cfg.force
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
        est = empirical_constant(mesh, material, robin, omega, seed=cfg.seed)
    except (SolverError, IterationError) as exc:
        return SweepRow(error=str(exc), **base)
    return SweepRow(estimate=est, **base)


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """One row per (kappa_s, lambda/mu) pair, kappa_s-major, solved one
    after another; rows violating the resolution policy are refused (not
    solved) unless forced.  Row errors are recorded and the sweep continues.
    An invalid configuration raises ConfigError before any row is solved."""
    cfg.validate()
    return [_sweep_row(cfg, k, lr) for k in cfg.kappa_s for lr in cfg.lambda_over_mu]
