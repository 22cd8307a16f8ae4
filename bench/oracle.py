"""Independent reference for the whole-space workload.

``greens-verify`` reports ratios that depend on the seeded sources, so the
benchmark cannot store them.  This module recomputes them per seed without
the package's kernel, self-cell or convolution code: the fundamental tensor
is written out from its radial derivatives, the singular cell uses the
closed forms below, and the grid convolution is a zero-padded FFT on a
(2n)^3 lattice.  Only the seeded source generator is shared with the
program, because it defines the input.

Self cell of radius a (equal volume to a grid cell):
  scalar part   (1/theta_s^2) int_0^a r e^{i k_s r} dr
  elastic part  (a^2/3) d/dr[(e^{i k_s r} - e^{i k_p r})/r] at r = a
(the second by the divergence theorem: the ball integral of Hess G is a
third of the flux of grad G through the sphere, times the identity).
"""

from __future__ import annotations

import math

import numpy as np


def _ball_lattice(ell: float, n: int):
    h = 2.0 * ell / n
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    nodes = -ell + (idx + 0.5) * h
    inside = np.linalg.norm(nodes, axis=1) <= ell
    return h, nodes[inside], idx[inside]


def _kernels(n: int, h: float, k_s: float, k_p: float, theta_s: float):
    """Scalar kernel and the Hessian of (e^{ik_s r} - e^{ik_p r})/(4 pi r) on
    the wrapped (2n)^3 offset lattice, zero at the origin and at offset n."""
    m = 2 * n
    off = np.arange(m)
    off = np.where(off < n, off, off - m).astype(float)
    off[n] = np.nan  # offset n is never reached by an n-point grid
    z = np.stack(np.meshgrid(off, off, off, indexing="ij"), axis=-1) * h
    r = np.linalg.norm(z, axis=-1)
    unused = np.isnan(r) | (r == 0.0)
    r = np.where(unused, 1.0, r)
    es, ep = np.exp(1j * k_s * r), np.exp(1j * k_p * r)
    g_scalar = es / (4.0 * math.pi * theta_s**2 * r)
    d1 = (es * (1j * k_s * r - 1.0) - ep * (1j * k_p * r - 1.0)) / r**2
    d2 = (
        es * (2.0 - 2j * k_s * r - (k_s * r) ** 2) - ep * (2.0 - 2j * k_p * r - (k_p * r) ** 2)
    ) / r**3
    c_eye = d1 / r / (4.0 * math.pi)
    c_yy = (d2 - d1 / r) / (4.0 * math.pi)
    zhat = np.nan_to_num(z) / r[..., None]
    hess = c_eye[..., None, None] * np.eye(3) + c_yy[..., None, None] * (
        zhat[..., :, None] * zhat[..., None, :]
    )
    g_scalar[unused] = 0.0
    hess[unused] = 0.0
    return g_scalar, hess


def _self_terms(h: float, k_s: float, k_p: float, theta_s: float):
    a = (3.0 * h**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    z = 1j * k_s
    scalar = (np.exp(z * a) * (z * a - 1.0) + 1.0) / z**2 / theta_s**2
    deriv = (
        (1j * k_s * np.exp(1j * k_s * a) - 1j * k_p * np.exp(1j * k_p * a)) / a
        - (np.exp(1j * k_s * a) - np.exp(1j * k_p * a)) / a**2
    )
    return scalar, a**2 / 3.0 * deriv


def _grid_ratios(sources, ell, n, rho, mu, lam, omega):
    """Per-source (ratio, scalar ratios (3,), elastic ratio) on an n-grid."""
    theta_s = math.sqrt(mu / rho)
    k_s = omega / theta_s
    k_p = omega / math.sqrt((lam + 2.0 * mu) / rho)
    h, nodes, idx = _ball_lattice(ell, n)
    g_scalar, hess = _kernels(n, h, k_s, k_p, theta_s)
    self_scalar, self_elastic = _self_terms(h, k_s, k_p, theta_s)
    m = 2 * n
    fft_scalar = np.fft.fftn(g_scalar)
    fft_hess = np.fft.fftn(hess, axes=(0, 1, 2))
    w = h**3
    out = []
    for fn in sources:
        f = np.asarray(fn(nodes), dtype=complex)  # (N, 3)
        padded = np.zeros((m, m, m, 3), dtype=complex)
        padded[idx[:, 0], idx[:, 1], idx[:, 2]] = w * f
        fft_f = np.fft.fftn(padded, axes=(0, 1, 2))
        u_scalar = np.fft.ifftn(fft_scalar[..., None] * fft_f, axes=(0, 1, 2))
        u_elastic = np.fft.ifftn(np.einsum("abcij,abcj->abci", fft_hess, fft_f), axes=(0, 1, 2))
        u_scalar = u_scalar[idx[:, 0], idx[:, 1], idx[:, 2]] + self_scalar * f
        u_elastic = u_elastic[idx[:, 0], idx[:, 1], idx[:, 2]] + self_elastic * f
        u_total = u_scalar + u_elastic / omega**2

        def norm(v, axis=None):
            return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=axis))

        out.append(
            (
                omega**2 * norm(u_total) / norm(f),
                omega**2 * norm(u_scalar, axis=0) / norm(f, axis=0),
                norm(u_elastic) / norm(f),
            )
        )
    return out, nodes.shape[0]


def whole_space_reference(sources, ell, grid_n, fine_n, rho, mu, lam, omega) -> dict:
    """The four checked fields of a ``greens-verify`` report, plus the node
    counts of both grids."""
    coarse, n_coarse = _grid_ratios(sources, ell, grid_n, rho, mu, lam, omega)
    fine, n_fine = _grid_ratios(sources, ell, fine_n, rho, mu, lam, omega)
    return {
        "ratio": max(c[0] for c in coarse),
        "scalar_ratio_max": max(float(np.max(c[1])) for c in coarse),
        "elastic_ratio_max": max(c[2] for c in coarse),
        "grid_consistency": max(abs(c[0] - f[0]) / f[0] for c, f in zip(coarse, fine)),
        "nodes": n_coarse,
        "fine_nodes": n_fine,
    }
