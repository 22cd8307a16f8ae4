"""Exact-geometry quadrature over disks, annuli, balls, shells, circles,
and spheres.

Radial directions use Gauss-Legendre nodes (polynomial exactness), angular
directions use equispaced rules (spectrally accurate, exact for
trigonometric polynomials below the node count).  Rules are cached and
their arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .core import DomainSpec
from .errors import UnsupportedDomainError

__all__ = ["SurfaceRule", "VolumeRule", "DomainQuadrature", "quadrature_for"]


class _ReadOnly:
    """Marks every array field read-only: rules are shared through the
    ``quadrature_for`` cache."""

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


@dataclass(frozen=True)
class VolumeRule(_ReadOnly):
    points: np.ndarray  # (Q, d)
    weights: np.ndarray  # (Q,)


@dataclass(frozen=True)
class SurfaceRule(_ReadOnly):
    points: np.ndarray   # (Q, d)
    weights: np.ndarray  # (Q,)
    normals: np.ndarray  # (Q, d), outward with respect to the domain


def _gauss(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _annulus_rule(r_in: float, r_out: float, n_r: int, n_theta: int) -> VolumeRule:
    r, wr = _gauss(n_r, r_in, r_out)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wt = 2.0 * np.pi / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)
    w = (wr[:, None] * wt * rr).reshape(-1)
    return VolumeRule(points=pts, weights=w)


def _shell_rule(r_in: float, r_out: float, n_r: int, n_polar: int, n_azim: int) -> VolumeRule:
    r, wr = _gauss(n_r, r_in, r_out)
    c, wc = np.polynomial.legendre.leggauss(n_polar)  # cos(polar)
    phi = 2.0 * np.pi * np.arange(n_azim) / n_azim
    wp = 2.0 * np.pi / n_azim
    rr, cc, pp = np.meshgrid(r, c, phi, indexing="ij")
    ss = np.sqrt(1.0 - cc**2)
    pts = np.stack([rr * ss * np.cos(pp), rr * ss * np.sin(pp), rr * cc], axis=-1).reshape(-1, 3)
    w = (wr[:, None, None] * wc[None, :, None] * wp * rr**2).reshape(-1)
    return VolumeRule(points=pts, weights=w)


def _circle_rule(radius: float, n: int, outward_sign: float) -> SurfaceRule:
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    w = np.full(n, 2.0 * np.pi * radius / n)
    normals = outward_sign * pts / radius
    return SurfaceRule(points=pts, weights=w, normals=normals)


def _sphere_rule(radius: float, n_polar: int, n_azim: int, outward_sign: float) -> SurfaceRule:
    c, wc = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azim) / n_azim
    wp = 2.0 * np.pi / n_azim
    cc, pp = np.meshgrid(c, phi, indexing="ij")
    ss = np.sqrt(1.0 - cc**2)
    pts = radius * np.stack([ss * np.cos(pp), ss * np.sin(pp), cc], axis=-1).reshape(-1, 3)
    w = (radius**2 * wc[:, None] * wp * np.ones_like(pp)).reshape(-1)
    normals = outward_sign * pts / radius
    return SurfaceRule(points=pts, weights=w, normals=normals)


@dataclass(frozen=True)
class DomainQuadrature:
    """Volume rule plus boundary rules for a supported domain."""

    domain: DomainSpec
    volume: VolumeRule
    dissipative: SurfaceRule
    dirichlet: SurfaceRule | None


@functools.lru_cache(maxsize=16)
def quadrature_for(domain: DomainSpec, order: int = 24) -> DomainQuadrature:
    """Quadrature for a ball/annulus domain; ``order`` controls both the
    radial Gauss count and the angular density (angular nodes = 4 * order,
    polar Gauss nodes = 2 * order in 3D).

    Rules are memoised on ``(domain, order)`` (a bounded cache), so a repeat
    call returns the same object; every array of a rule is read-only, and a
    caller that needs to modify one must copy it first."""
    if domain.shape == "ball-minus-obstacle":
        raise UnsupportedDomainError(
            "analytic quadrature supports balls and annuli; general obstacles "
            "are probed through the finite-element path"
        )
    n_r = max(order, 4)
    n_ang = max(4 * order, 16)
    inner = domain.r_in if domain.shape == "annulus" else 0.0
    if domain.d == 2:
        vol = _annulus_rule(inner, domain.ell, n_r, n_ang)
        diss = _circle_rule(domain.ell, n_ang, +1.0)
        diri = _circle_rule(inner, n_ang, -1.0) if domain.has_dirichlet else None
    elif domain.d == 3:
        n_pol = max(2 * order, 8)
        vol = _shell_rule(inner, domain.ell, n_r, n_pol, n_ang)
        diss = _sphere_rule(domain.ell, n_pol, n_ang, +1.0)
        diri = _sphere_rule(inner, n_pol, n_ang, -1.0) if domain.has_dirichlet else None
    else:
        raise UnsupportedDomainError(f"dimension {domain.d}")
    return DomainQuadrature(domain=domain, volume=vol, dissipative=diss, dirichlet=diri)
