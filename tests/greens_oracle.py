"""Direct pairwise convolution over the nodes of a ball grid, the oracle for
the FFT path of ``greens``.

    u(x_i) = sum_{j != i} h^3 K(x_i - x_j) f(x_j) + c f(x_i),

where the self cell is replaced by the ball of equal volume and c is the
kernel's integral over that ball.  The kernel is evaluated at every pair of
nodes on its own: no offset table, mirroring or transform is shared with
the package, and the nodes need not lie on a lattice.
"""

import math

import numpy as np


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
