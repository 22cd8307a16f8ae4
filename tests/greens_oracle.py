"""Oracles for ``greens``.

``pairwise`` is the direct pairwise convolution over the nodes of a ball
grid, the oracle for the FFT path:

    u(x_i) = sum_{j != i} h^3 K(x_i - x_j) f(x_j) + c f(x_i),

where the self cell is replaced by the ball of equal volume and c is the
kernel's integral over that ball.  The kernel is evaluated at every pair of
nodes on its own: no offset table, mirroring or transform is shared with
the package, and the nodes need not lie on a lattice.

``hessian_radial`` is the Hessian of e^{i k r}/r from its own formulas.
``hessian_kernel`` and ``green_kernel`` are the reference tensor kernels,
the full 3x3 Hess(G^E) and G = g_a I + Hess(G^E)/omega^2, built on the
package's coefficient functions ``_hessian_coefficients`` and
``_scalar_kernel``.
"""

import math

import numpy as np

from elastab import greens


def pairwise(nodes, h, values, kernel, self_integral):
    """Apply ``kernel`` to ``values`` (N, 3) at ``nodes`` (N, 3), cells of
    side h.  ``kernel`` maps offsets (M, 3) to (M,) for a scalar kernel or
    (M, 3, 3) for a tensor one; ``self_integral`` maps a ball radius to the
    kernel's integral over that ball."""
    count = nodes.shape[0]
    apart = ~np.eye(count, dtype=bool)
    g = kernel((nodes[:, None, :] - nodes[None, :, :])[apart])
    full = np.zeros((count, count) + g.shape[1:], dtype=complex)
    full[apart] = g
    weighted = h**3 * values
    if g.ndim == 1:
        u = np.einsum("tn,nj->tj", full, weighted)
    else:
        u = np.einsum("tnij,nj->ti", full, weighted)
    a = (3.0 * h**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return u + self_integral(a) * values


def hessian_radial(k, y):
    """Hessian of e^{i k r}/r at y (3,) or (N, 3) via the radial
    decomposition (h'/r) I + (h'' - h'/r) yhat (x) yhat; ValueError at
    r = 0."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y = np.atleast_2d(y)
    r = np.linalg.norm(y, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("radial Hessian evaluated at r = 0")
    e = np.exp(1j * k * r)
    hp = e * (1j * k * r - 1.0) / r**2
    hpp = e * (2.0 - 2j * k * r - (k * r) ** 2) / r**3
    yhat = y / r[..., None]
    out = (hp / r)[..., None, None] * np.eye(3) + (hpp - hp / r)[..., None, None] * (
        yhat[..., :, None] * yhat[..., None, :]
    )
    return out[0] if single else out


def hessian_kernel(z, k):
    """Hess(G^E) (M, 3, 3) at offsets z (M, 3), r > 0, from
    ``greens._hessian_coefficients`` by the operations ``greens._kernel_table``
    applies to them, so its H_00 and H_01 hold the table's bits."""
    r = np.linalg.norm(z, axis=-1)
    coef_i, coef_rr = greens._hessian_coefficients(r, k)
    yhat = z / r[:, None]
    yy = yhat[:, :, None] * yhat[:, None, :]
    out = coef_i[:, None, None] * (np.eye(3) - yy)
    out += coef_rr[:, None, None] * yy
    out /= 4.0 * math.pi
    return out


def green_kernel(z, rho, mu, lam, omega):
    """G = g_a I + Hess(G^E)/omega^2 (M, 3, 3) at offsets z (M, 3), r > 0,
    omega > 0, with g_a from ``greens._scalar_kernel``."""
    g_a = greens._scalar_kernel(np.linalg.norm(z, axis=-1), rho, mu, lam, omega)
    hess = hessian_kernel(z, greens.WaveNumbers.from_material(rho, mu, lam, omega))
    return g_a[:, None, None] * np.eye(3) + hess / omega**2
