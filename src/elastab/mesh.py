"""Structured polar triangulation of an annulus, numbered on its polar
lattice.

Inner circle: Dirichlet obstacle boundary.  Outer circle: dissipative
(absorbing) boundary.  Order-2 meshes are isoparametric: midside nodes of
circumferential edges sit on their circle, so the discrete geometry follows
the curved boundary to fourth order.  Nodes and cells are numbered sector
by sector: each of the n_theta angular sectors owns one contiguous run of
node ids and one of cell ids, and rotating the mesh by one sector maps
every node onto the node one run later.  A ``Mesh`` holds only its
lattice parameters (r_in, ell, n_r, n_theta, order), from which its
arrays are derived, so every mesh is numbered this way.

The module also holds the reference-triangle geometry shared with the
finite elements: the quadrature rule, the shape functions and the
Jacobian map, which rejects inverted cells.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MeshError

__all__ = ["Boundary", "Mesh", "build_annulus_mesh"]

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

DIRICHLET = "dirichlet"
DISSIPATIVE = "dissipative"


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


def _jacobian(dn, xc):
    """Jacobians J[..., i, k] = sum_a xc[..., a, i] dn[..., a, k] and det J
    from reference gradients dn (..., a, 2) and element nodes xc (..., a, 2),
    broadcasting over the leading axes; MeshError where det J <= 0."""
    jac = np.swapaxes(xc, -1, -2) @ dn
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    if np.any(det <= 0.0):
        raise MeshError("singular or inverted element Jacobian")
    return jac, det


def _grad_x(dn, xc):
    """det J and physical shape gradients dn_x[..., a, j] = d_j N_a from the
    arguments of ``_jacobian``, which raises MeshError where det J <= 0."""
    jac, det = _jacobian(dn, xc)
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1] / det
    inv[..., 0, 1] = -jac[..., 0, 1] / det
    inv[..., 1, 0] = -jac[..., 1, 0] / det
    inv[..., 1, 1] = jac[..., 0, 0] / det
    # grad_x N_a[j] = sum_k dn[a,k] inv[k,j]
    return det, dn @ inv


class Boundary(NamedTuple):
    """The edges of one boundary circle, one per sector in sector order
    (``Mesh.boundary``)."""

    cells: np.ndarray  # (n_theta,) owning triangles
    local: np.ndarray  # (n_theta,) local edge k runs from local node k to node (k+1) % 3
    nodes: np.ndarray  # (n_theta, p + 1) node ids along each edge: start, end, then the midside


@dataclass(frozen=True)
class Mesh:
    """Structured polar mesh: n_r x n_theta quads between the circles, each
    split into two positively oriented triangles (2 n_r n_theta cells),
    numbered on the order-p polar lattice of (p n_r + 1) x p n_theta points.

    Lattice point (I, J), I = 0..p n_r outwards from the inner circle and
    J = 0..p n_theta - 1 by angle, is node J (p n_r + 1) + I.  Sector s,
    between the angles 2 pi s / n_theta and 2 pi (s + 1) / n_theta, owns
    nodes s P .. (s + 1) P - 1, P = p (p n_r + 1), and cells
    2 n_r s .. 2 n_r (s + 1) - 1.  Even rows I sit on their circle at angle
    2 pi J / (p n_theta).  Odd rows (P2 only) hold the midsides of radial
    edges (even J) and of quad diagonals (odd J), at the chord midpoint of
    the lattice points (I - 1, J - J % 2) and (I + 1, J + J % 2).

    A mesh is its five parameters: its node, cell and boundary arrays
    (``nodes``, ``conn``, ``boundary``) are derived from them once per
    mesh and are read-only.  Raises MeshError when a cell's
    Jacobian is not positive at every point of the triangle rule (coarse
    angular against fine radial steps invert curved P2 cells)."""

    r_in: float
    ell: float
    n_r: int
    n_theta: int
    order: int = 2

    def __post_init__(self):
        if not (0.0 < self.r_in < self.ell):
            raise MeshError(f"need 0 < r_in < ell, got r_in={self.r_in}, ell={self.ell}")
        if self.n_r < 2 or self.n_theta < 8:
            raise MeshError(f"need n_r >= 2 and n_theta >= 8, got {self.n_r}, {self.n_theta}")
        if self.order not in (1, 2):
            raise MeshError(f"basis order must be 1 or 2, got {self.order}")
        # the assembly's check, on its rule, on sector 0's 2 n_r cells: every
        # sector is sector 0 rotated
        _jacobian(_shapes(self.order, _TRI_QP)[1], self.nodes[self.conn[: 2 * self.n_r]][:, None])

    @functools.cached_property
    def _arrays(self) -> _Lattice:
        return _lattice(self.r_in, self.ell, self.n_r, self.n_theta, self.order)

    @functools.cached_property
    def derived(self) -> dict:
        """Data another module derives from this mesh once, by key (the
        finite elements' sector plan, ``fem._sector_plan``): kept with the
        mesh and freed with it, never shared between meshes."""
        return {}

    @property
    def nodes(self) -> np.ndarray:
        """(Nn, 2) node coordinates, lattice point (I, J) at row J (p n_r + 1) + I."""
        return self._arrays.nodes

    @property
    def conn(self) -> np.ndarray:
        """(Nc, 3) or (Nc, 6) node ids per cell: corners, then the midsides of
        the edges (0, 1), (1, 2), (2, 0)."""
        return self._arrays.conn

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.conn.shape[0]

    def boundary(self, tag: str) -> Boundary:
        """The edges tagged ``tag``, one per sector in sector order;
        ValueError for a tag with no edges."""
        try:
            return self._arrays.boundaries[tag]
        except KeyError:
            raise ValueError(f"no boundary edges tagged {tag!r}") from None

    def boundary_nodes(self, tag: str) -> np.ndarray:
        """The sorted ids of the nodes on the edges tagged ``tag``."""
        return np.unique(self.boundary(tag).nodes)

    def max_edge_length(self) -> float:
        """The longest corner-to-corner edge of any cell (``_max_edge``)."""
        return self._max_edge

    @functools.cached_property
    def _max_edge(self) -> float:
        """Found once per mesh over the corners of every cell: a value from
        sector 0 or a closed form can read 1-2 ulp below it."""
        corners = self.nodes[self.conn[:, :3]]
        d01 = np.linalg.norm(corners[:, 0] - corners[:, 1], axis=1)
        d12 = np.linalg.norm(corners[:, 1] - corners[:, 2], axis=1)
        d20 = np.linalg.norm(corners[:, 2] - corners[:, 0], axis=1)
        return float(np.max(np.stack([d01, d12, d20])))

    def points_per_wavelength(self, omega: float, theta_s_min: float) -> float:
        """Nodes per shear wavelength: wavelength over the effective node
        spacing (element size divided by the basis order)."""
        if omega <= 0.0:
            return math.inf
        wavelength = 2.0 * math.pi * theta_s_min / omega
        return wavelength / (self.max_edge_length() / self.order)


class _Lattice(NamedTuple):
    nodes: np.ndarray  # (Nn, 2), lattice point (I, J) at row J (p n_r + 1) + I
    conn: np.ndarray   # (Nc, 3 p): corners then midsides of edges (0,1),(1,2),(2,0)
    boundaries: dict   # tag -> Boundary


def _lattice(r_in: float, ell: float, n_r: int, n_theta: int, p: int) -> _Lattice:
    """The read-only arrays of ``Mesh(r_in, ell, n_r, n_theta, p)``."""
    rows, cols = p * n_r + 1, p * n_theta
    radii = np.linspace(r_in, ell, n_r + 1)
    angles = 2.0 * math.pi * np.arange(cols) / cols
    nodes = np.empty((cols, rows, 2))  # lattice point (I, J) at nodes[J, I]
    nodes[:, ::p] = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, None]
    if p == 2:
        j = np.arange(cols)
        nodes[:, 1::2] = 0.5 * (nodes[j - j % 2, :-1:2] + nodes[(j + j % 2) % cols, 2::2])
    nodes = nodes.reshape(-1, 2)

    # quad (i, j), sector-major: cells (a, b, c) and (a, c, d) with lattice
    # corners a = (p i, p j), b = a + (p, 0), c = a + (p, p), d = a + (0, p),
    # and a P2 midside at the lattice midpoint of its edge
    offset = p * np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    if p == 2:
        offset = np.concatenate([offset, (offset + offset[:, [1, 2, 0]]) // 2], axis=1)
    j, i = np.divmod(np.arange(n_theta * n_r), n_r)
    corner = p * (j * rows + i)
    conn = (corner[:, None, None] + offset[..., 1] * rows + offset[..., 0]).reshape(-1, 3 * p)
    conn %= rows * cols  # angle 2 pi wraps to 0

    # per sector: the inner circle is local edge 2 (d -> a) of cell (a, c, d)
    # at i = 0, the outer circle local edge 1 (b -> c) of (a, b, c) at i = n_r - 1
    boundaries = {}
    for tag, first, local, along in ((DIRICHLET, 1, 2, [2, 0, 5]), (DISSIPATIVE, 2 * n_r - 2, 1, [1, 2, 4])):
        cells = np.arange(first, conn.shape[0], 2 * n_r)
        boundaries[tag] = Boundary(cells, np.full(n_theta, local), conn[cells][:, along[: p + 1]])
    for array in (nodes, conn, *itertools.chain(*boundaries.values())):
        array.flags.writeable = False
    return _Lattice(nodes, conn, boundaries)


build_annulus_mesh = Mesh  # the name the callers build a mesh by
