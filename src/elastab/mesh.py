"""Structured polar triangulation of an annulus.

Inner circle: Dirichlet obstacle boundary.  Outer circle: dissipative
(absorbing) boundary.  Order-2 meshes are isoparametric: midside nodes of
circumferential edges sit on their circle, so the discrete geometry follows
the curved boundary to fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError

__all__ = ["BoundaryEdge", "Mesh", "build_annulus_mesh"]

DIRICHLET = "dirichlet"
DISSIPATIVE = "dissipative"


@dataclass(frozen=True)
class BoundaryEdge:
    cell: int        # owning triangle
    local_edge: int  # edge k runs from local node k to node (k+1) % 3
    tag: str
    nodes: tuple     # node ids along the edge: (start, end) or (start, end, midside)


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray        # (Nn, 2), vertices first, then midside nodes
    conn: np.ndarray         # (Nc, 3) or (Nc, 6): corners then midsides of edges (0,1),(1,2),(2,0)
    order: int
    r_in: float
    ell: float
    n_r: int
    n_theta: int
    boundary_edges: tuple = field(default_factory=tuple)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.conn.shape[0]

    @property
    def n_vertices(self) -> int:
        return (self.n_r + 1) * self.n_theta

    def boundary_nodes(self, tag: str) -> np.ndarray:
        ids: set[int] = set()
        for e in self.boundary_edges:
            if e.tag == tag:
                ids.update(e.nodes)
        return np.array(sorted(ids), dtype=int)

    def max_edge_length(self) -> float:
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


def build_annulus_mesh(r_in: float, ell: float, n_r: int, n_theta: int, order: int = 2) -> Mesh:
    """Structured polar mesh: (n_r + 1) vertex rings x n_theta angles,
    each quad split into two positively oriented triangles
    (2 n_r n_theta cells)."""
    if not (0.0 < r_in < ell):
        raise MeshError(f"need 0 < r_in < ell, got r_in={r_in}, ell={ell}")
    if n_r < 2 or n_theta < 8:
        raise MeshError(f"need n_r >= 2 and n_theta >= 8, got {n_r}, {n_theta}")
    if order not in (1, 2):
        raise MeshError(f"basis order must be 1 or 2, got {order}")

    radii = np.linspace(r_in, ell, n_r + 1)
    angles = 2.0 * math.pi * np.arange(n_theta) / n_theta
    n_verts = (n_r + 1) * n_theta
    ring_of = np.arange(n_verts) // n_theta
    ang_of = angles[np.arange(n_verts) % n_theta]
    verts = np.stack([radii[ring_of] * np.cos(ang_of), radii[ring_of] * np.sin(ang_of)], axis=1)

    # quad (i, j) -> cells (a, b, c) and (a, c, d), a = (i, j), b = (i+1, j),
    # c = (i+1, j+1), d = (i, j+1), angles wrapping
    i, j = np.meshgrid(np.arange(n_r), np.arange(n_theta), indexing="ij")
    a, b = i * n_theta + j, (i + 1) * n_theta + j
    c, d = (i + 1) * n_theta + (j + 1) % n_theta, i * n_theta + (j + 1) % n_theta
    cells = np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=2).reshape(-1, 3)

    nodes = verts
    conn = cells
    if order == 2:
        # edges (0,1), (1,2), (2,0) of each cell in cell order; a midside node
        # is numbered when its edge is first met
        p = cells.ravel()
        q = cells[:, [1, 2, 0]].ravel()
        _, first, inverse = np.unique(
            np.minimum(p, q) * n_verts + np.maximum(p, q), return_index=True, return_inverse=True
        )
        rank = np.empty(first.size, dtype=int)
        by_discovery = np.argsort(first, kind="stable")
        rank[by_discovery] = np.arange(first.size)
        p, q = p[first[by_discovery]], q[first[by_discovery]]  # as first met
        mid = 0.5 * (verts[p] + verts[q])
        # circumferential edges: midside on the circle, halfway in angle
        circ = ring_of[p] == ring_of[q]
        a1, a2 = ang_of[p[circ]], ang_of[q[circ]]
        wrap = np.abs(a1 - a2) > math.pi
        a2 = np.where(wrap, a2 + np.where(a2 < a1, 2.0 * math.pi, -2.0 * math.pi), a2)
        th = 0.5 * (a1 + a2)
        r = radii[ring_of[p[circ]]]
        mid[circ] = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        nodes = np.vstack([verts, mid])
        conn = np.hstack([cells, n_verts + rank[inverse].reshape(-1, 3)])

    # boundary edges: inner ring on triangle (a, c, d) local edge 2 (d -> a),
    # outer ring on triangle (a, b, c) local edge 1 (b -> c)
    edges = []
    for j in range(n_theta):
        inner_cell = 2 * (0 * n_theta + j) + 1
        a, c, d = conn[inner_cell, 0], conn[inner_cell, 1], conn[inner_cell, 2]
        enodes = (d, a) if order == 1 else (d, a, conn[inner_cell, 5])
        edges.append(BoundaryEdge(cell=inner_cell, local_edge=2, tag=DIRICHLET, nodes=enodes))
        outer_cell = 2 * ((n_r - 1) * n_theta + j)
        b, c2 = conn[outer_cell, 1], conn[outer_cell, 2]
        enodes = (b, c2) if order == 1 else (b, c2, conn[outer_cell, 4])
        edges.append(BoundaryEdge(cell=outer_cell, local_edge=1, tag=DISSIPATIVE, nodes=enodes))

    corners = nodes[conn[:, :3]]
    twice_area = (corners[:, 1, 0] - corners[:, 0, 0]) * (corners[:, 2, 1] - corners[:, 0, 1]) - (
        corners[:, 2, 0] - corners[:, 0, 0]
    ) * (corners[:, 1, 1] - corners[:, 0, 1])
    if np.any(twice_area <= 0.0):
        raise MeshError("mesh produced non-positively-oriented cells")

    return Mesh(
        nodes=nodes,
        conn=conn,
        order=order,
        r_in=r_in,
        ell=ell,
        n_r=n_r,
        n_theta=n_theta,
        boundary_edges=tuple(edges),
    )
