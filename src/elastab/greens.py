"""Homogeneous 3D elastodynamics by the fundamental solution.

Kernel evaluation (acoustic part, elastic Hessian part, full tensor),
midpoint-grid convolution over a ball with an analytic singular-cell rule,
numerical verification of the whole-space stability bound 4 + 17 kappa_s,
and the cos-transform norm that certifies the elastic part.

Same-grid convolutions run as zero-padded FFTs on the (2n)^3 offset lattice
(the kernel table is block-Toeplitz; see Vico, Greengard & Ferrando, J.
Comput. Phys. 323, 2016); the direct pairwise sum over arbitrary targets is
kept as the independent path.  The kernels are radial, so a table is
evaluated on one octant of offsets and mirrored, and a tensor kernel is
kept, transformed and contracted as its six symmetric components.  The
self-cell and near-field series run in powers of the dimensionless i k a.
The cos transform is in closed form: the cutoff is piecewise linear, so
every piece integrates exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularityError

__all__ = [
    "WaveNumbers",
    "scalar_kernels",
    "hessian_radial",
    "kelvin_tensor",
    "green_tensor",
    "GreenTensorValue",
    "elastic_hessian_kernel",
    "BallGrid",
    "ball_grid",
    "SourceField",
    "convolve",
    "random_ball_sources",
    "FundamentalBoundReport",
    "verify_fundamental_bound",
    "verify_fundamental_sweep",
    "fourier_multiplier_entry",
    "fourier_multiplier_norm",
]

_SERIES_CUTOFF = 0.1
_SERIES_TERMS = 24

# Peak memory of one verification on an n-grid grows with its (2n)^3
# lattice and the number of sources S: measured peak RSS is about
# (240 + 144 S) bytes per lattice point (n = 16 to 64, S = 1 to 10).
# greens-verify refuses a grid whose finer two-grid partner would pass the
# budget: with three sources it accepts grid_n <= 65 (64 measured 2.5 GB).
MEMORY_BUDGET = 3 * 2**30


def verify_bytes(n: int, n_sources: int) -> int:
    """Estimated peak bytes of ``verify_fundamental_sweep`` on an n-grid."""
    return (240 + 144 * n_sources) * (2 * n) ** 3


@dataclass(frozen=True)
class WaveNumbers:
    """Shear/pressure wavenumbers k_s = omega/theta_s, k_p = omega/theta_p."""

    k_s: float
    k_p: float
    omega: float

    @classmethod
    def from_material(cls, rho: float, mu: float, lam: float, omega: float) -> "WaveNumbers":
        theta_s = math.sqrt(mu / rho)
        theta_p = math.sqrt((lam + 2.0 * mu) / rho)
        return cls(k_s=omega / theta_s, k_p=omega / theta_p, omega=omega)


def _radii(y):
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    y = np.atleast_2d(y)
    r = np.linalg.norm(y, axis=-1)
    return y, r, single


def scalar_kernels(y, k: WaveNumbers, theta_s: float):
    """Acoustic kernel g_a = e^{i k_s r}/(4 pi theta_s^2 r) and the
    difference kernel g_e = (e^{i k_s r} - e^{i k_p r})/(4 pi r).

    g_e extends continuously to r = 0 with limit i (k_s - k_p)/(4 pi);
    g_a has no finite limit there, so r = 0 raises.
    """
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("acoustic kernel evaluated at r = 0")
    g_a = np.exp(1j * k.k_s * r) / (4.0 * math.pi * theta_s**2 * r)
    g_e = _difference_kernel(r, k.k_s, k.k_p)
    if single:
        return complex(g_a[0]), complex(g_e[0])
    return g_a, g_e


def _difference_kernel(r, k_s, k_p):
    """(e^{i k_s r} - e^{i k_p r})/(4 pi r), series-stabilized near r = 0:
    sum_m ((i k_s r)^m - (i k_p r)^m)/m! over 4 pi r, in powers of the
    dimensionless i k r, so no power of k or r alone can overflow."""
    r = np.asarray(r, dtype=float)
    kmax = max(abs(k_s), abs(k_p))
    out = np.zeros(r.shape, dtype=complex)
    near = kmax * r < 1e-3
    far = ~near
    if np.any(far):
        rf = r[far]
        out[far] = (np.exp(1j * k_s * rf) - np.exp(1j * k_p * rf)) / (4.0 * math.pi * rf)
    if np.any(near):
        rn = r[near]
        xs, xp = 1j * k_s * rn, 1j * k_p * rn
        acc = np.zeros(rn.shape, dtype=complex)
        for m in range(1, 12):
            acc += (xs**m - xp**m) / math.factorial(m)
        out[near] = acc / (4.0 * math.pi * rn)
    return out


def hessian_radial(k: float, y) -> np.ndarray:
    """Hessian of e^{i k r}/r via the radial decomposition
    (h'/r) I + (h'' - h'/r) yhat (x) yhat."""
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("radial Hessian evaluated at r = 0")
    e = np.exp(1j * k * r)
    hp = e * (1j * k * r - 1.0) / r**2
    hpp = e * (2.0 - 2j * k * r - (k * r) ** 2) / r**3
    yhat = y / r[..., None]
    eye = np.eye(3)
    out = (hp / r)[..., None, None] * eye + (hpp - hp / r)[..., None, None] * (
        yhat[..., :, None] * yhat[..., None, :]
    )
    return out[0] if single else out


def elastic_hessian_kernel(y, k: WaveNumbers) -> np.ndarray:
    """Hessian of the difference kernel G^E(y) = g(|y|):

        (1/4pi) [ coef_I(r) I + coef_yy(r) yhat (x) yhat ].

    The 1/r^3 singularities of the two exponential Hessians cancel, leaving
    an integrable O(k^2/r) kernel; a power series in the dimensionless
    i k r avoids the cancellation for k_max r < 0.1.
    """
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("elastic Hessian kernel evaluated at r = 0")
    kmax = max(abs(k.k_s), abs(k.k_p))
    coef_i = np.zeros(r.shape, dtype=complex)
    coef_yy = np.zeros(r.shape, dtype=complex)
    near = kmax * r < _SERIES_CUTOFF
    far = ~near
    if np.any(far):
        rf = r[far]
        es, ep = np.exp(1j * k.k_s * rf), np.exp(1j * k.k_p * rf)
        hp = (es * (1j * k.k_s * rf - 1.0) - ep * (1j * k.k_p * rf - 1.0)) / rf**2
        hpp = (
            es * (2.0 - 2j * k.k_s * rf - (k.k_s * rf) ** 2)
            - ep * (2.0 - 2j * k.k_p * rf - (k.k_p * rf) ** 2)
        ) / rf**3
        coef_i[far] = hp / rf
        coef_yy[far] = hpp - hp / rf
    if np.any(near):
        rn = r[near]
        xs, xp = 1j * k.k_s * rn, 1j * k.k_p * rn
        ci = np.zeros(rn.shape, dtype=complex)
        ce = np.zeros(rn.shape, dtype=complex)
        for m in range(2, _SERIES_TERMS + 1):
            dm = (xs**m - xp**m) / math.factorial(m)
            ci += (m - 1) * dm
            if m >= 3:
                ce += (m - 1) * (m - 2) * dm
        coef_i[near] = ci / rn**3
        coef_yy[near] = (ce - ci) / rn**3
    yhat = y / r[..., None]
    eye = np.eye(3)
    out = (
        coef_i[..., None, None] * eye
        + coef_yy[..., None, None] * (yhat[..., :, None] * yhat[..., None, :])
    ) / (4.0 * math.pi)
    return out[0] if single else out


def kelvin_tensor(y, rho: float, mu: float, lam: float) -> np.ndarray:
    """Elastostatic fundamental tensor (zero-frequency limit), normalized for
    right-hand sides rho*f:

        rho/(8 pi mu) [ (1 + beta) delta_ij / r + (1 - beta) y_i y_j / r^3 ]

    with beta = mu/(lam + 2 mu).
    """
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("Kelvin tensor evaluated at r = 0")
    beta = mu / (lam + 2.0 * mu)
    yhat = y / r[..., None]
    eye = np.eye(3)
    out = (rho / (8.0 * math.pi * mu)) / r[..., None, None] * (
        (1.0 + beta) * eye + (1.0 - beta) * (yhat[..., :, None] * yhat[..., None, :])
    )
    out = out.astype(complex)
    return out[0] if single else out


def green_tensor(y, rho: float, mu: float, lam: float, omega: float) -> np.ndarray:
    """Full fundamental tensor G = g_a I + (1/omega^2) Hess(G^E).

    For omega = 0 the split is singular and the Kelvin branch is returned
    directly.
    """
    if omega == 0.0:
        return kelvin_tensor(y, rho, mu, lam)
    y_arr, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("Green tensor evaluated at r = 0")
    k = WaveNumbers.from_material(rho, mu, lam, omega)
    theta_s = math.sqrt(mu / rho)
    g_a = np.exp(1j * k.k_s * r) / (4.0 * math.pi * theta_s**2 * r)
    hess = elastic_hessian_kernel(y_arr, k)
    out = g_a[..., None, None] * np.eye(3) + hess / omega**2
    return out[0] if single else out


@dataclass(frozen=True)
class GreenTensorValue:
    """Single-point fundamental-tensor sample (3x3 complex, radius r)."""

    g: np.ndarray
    r: float

    @classmethod
    def at(cls, y, rho: float, mu: float, lam: float, omega: float) -> "GreenTensorValue":
        y = np.asarray(y, dtype=float)
        return cls(g=green_tensor(y, rho, mu, lam, omega), r=float(np.linalg.norm(y)))


# ---------------------------------------------------------------------------
# Midpoint grid over the ball and source fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BallGrid:
    """Tensor-product midpoint grid restricted to the ball B_ell."""

    ell: float
    n: int
    h: float
    nodes: np.ndarray    # (N, 3)
    weights: np.ndarray  # (N,) all equal to h^3
    idx: np.ndarray      # (N, 3) integer lattice coordinates in [0, n)


def ball_grid(ell: float, n: int) -> BallGrid:
    if n < 2:
        raise ValueError("grid must have at least 2 cells per axis")
    h = 2.0 * ell / n
    centers = -ell + (np.arange(n) + 0.5) * h
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    nodes = -ell + (idx + 0.5) * h
    inside = np.linalg.norm(nodes, axis=1) <= ell
    nodes, idx = nodes[inside], idx[inside]
    weights = np.full(nodes.shape[0], h**3)
    return BallGrid(ell=ell, n=n, h=h, nodes=nodes, weights=weights, idx=idx)


@dataclass(frozen=True)
class SourceField:
    """Quadrature-sampled volumetric load supported in B_ell."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    ell: float
    grid: BallGrid | None = None

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @classmethod
    def from_function(cls, grid: BallGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SourceField":
        vals = np.asarray(fn(grid.nodes), dtype=complex)
        if vals.shape != grid.nodes.shape:
            raise ValueError("source function must return one 3-vector per node")
        return cls(nodes=grid.nodes, weights=grid.weights, values=vals, ell=grid.ell, grid=grid)

    def norm_rho(self, rho: float = 1.0) -> float:
        return math.sqrt(rho * float(np.sum(self.weights * np.sum(np.abs(self.values) ** 2, axis=1))))


def random_ball_sources(ell: float, count: int, seed: int, n_bumps: int = 3):
    """Smooth random vector loads supported well inside B_ell: mixtures of
    complex Gaussian bumps centered in B_{ell/2}.  Returned as callables so
    the same source can be resampled on any grid (two-grid checks)."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        centers = rng.uniform(-0.3 * ell, 0.3 * ell, size=(n_bumps, 3))
        amps = rng.normal(size=(n_bumps, 3)) + 1j * rng.normal(size=(n_bumps, 3))
        width = 0.18 * ell

        def fn(x, centers=centers, amps=amps, width=width):
            out = np.zeros((x.shape[0], 3), dtype=complex)
            for c, a in zip(centers, amps):
                out += np.exp(-np.sum((x - c) ** 2, axis=1) / (2.0 * width**2))[:, None] * a
            return out

        sources.append(fn)
    return sources


def _cell_ball_radius(weight: float) -> float:
    return (3.0 * weight / (4.0 * math.pi)) ** (1.0 / 3.0)


def _ball_moment(w) -> complex:
    """F(w) = (e^w (w - 1) + 1)/w^2 = sum_m w^m/(m! (m + 2)), the integral
    of r e^{c r} over [0, a] divided by a^2, with w = c a; the series below
    |w| = 1, where the closed form cancels."""
    w = np.complex128(w)
    if abs(w) < 1.0:
        return sum(w**m / (math.factorial(m) * (m + 2)) for m in range(_SERIES_TERMS))
    return (np.exp(w) * (w - 1.0) + 1.0) / w / w


def _scalar_self_integral(a: float, rho, mu, lam, omega) -> complex:
    """Integral of g_a over the ball of radius a: (1/theta_s^2) * int_0^a r e^{i k_s r} dr."""
    k_s = WaveNumbers.from_material(rho, mu, lam, omega).k_s
    theta_s = math.sqrt(mu / rho)
    return a * a * _ball_moment(1j * k_s * a) / theta_s**2


def _elastic_self_integral(a: float, rho, mu, lam, omega) -> complex:
    """Integral of Hess(G^E) over the ball of radius a times the identity
    (scalar returned): sum_m ((i k_s a)^m - (i k_p a)^m) (m-1)/(3 m!), that is
    (x_s^2 F(x_s) - x_p^2 F(x_p))/3 with x = i k a."""
    k = WaveNumbers.from_material(rho, mu, lam, omega)
    xs, xp = np.complex128(1j * k.k_s * a), np.complex128(1j * k.k_p * a)
    return (xs * xs * _ball_moment(xs) - xp * xp * _ball_moment(xp)) / 3.0


def _total_self_integral(a: float, rho, mu, lam, omega) -> complex:
    """Integral of the fundamental tensor over the ball of radius a (times
    the identity); the Kelvin closed form at omega = 0."""
    if omega == 0.0:
        beta = mu / (lam + 2.0 * mu)
        return rho * a**2 * (2.0 + beta) / (6.0 * mu)
    return (
        _scalar_self_integral(a, rho, mu, lam, omega)
        + _elastic_self_integral(a, rho, mu, lam, omega) / omega**2
    )


# Kernel evaluators at offsets z (M, 3).  They look the public kernels up at
# call time, so a wrapper installed on the module sees every call.

def _scalar_kernel(z, rho, mu, lam, omega):
    r = np.linalg.norm(z, axis=-1)
    k_s = WaveNumbers.from_material(rho, mu, lam, omega).k_s
    theta_s = math.sqrt(mu / rho)
    return np.exp(1j * k_s * r) / (4.0 * math.pi * theta_s**2 * r)


def _elastic_kernel(z, rho, mu, lam, omega):
    return elastic_hessian_kernel(z, WaveNumbers.from_material(rho, mu, lam, omega))


def _total_kernel(z, rho, mu, lam, omega):
    return green_tensor(z, rho, mu, lam, omega)


@dataclass(frozen=True)
class _Kernel:
    """A convolution kernel: its values at offsets z (M, 3), shape (M,) for a
    scalar kernel or (M, 3, 3) for a tensor one, and its integral over the
    ball of radius a (isotropic for every kernel, so a scalar)."""

    evaluate: Callable
    self_integral: Callable


_KERNELS = {
    "scalar": _Kernel(_scalar_kernel, _scalar_self_integral),
    "elastic": _Kernel(_elastic_kernel, _elastic_self_integral),
    "total": _Kernel(_total_kernel, _total_self_integral),
}


def _kernel(kernel: str) -> _Kernel:
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise ValueError(f"unknown kernel {kernel!r}") from None


def _self_coefficients(weight: float, rho, mu, lam, omega, kernel: str) -> complex:
    """Coefficient c such that the singular-cell contribution is c * f(x)
    (isotropic for every kernel)."""
    a = _cell_ball_radius(weight)
    return complex(_kernel(kernel).self_integral(a, rho, mu, lam, omega))


# The independent components of a symmetric 3x3 kernel, in table order, and
# the parity of each under y_c -> -y_c (rows: components, columns: axes c).
# A radial tensor kernel f(r) I + g(r) yhat (x) yhat is even in every axis on
# its diagonal; component (a, b), a != b, is odd along axes a and b.
_TENSOR_ROWS = np.array([0, 1, 2, 0, 0, 1])
_TENSOR_COLS = np.array([0, 1, 2, 1, 2, 2])
_TENSOR_PARITY = np.array(
    [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
     [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]
)


def _kernel_table(grid: BallGrid, rho, mu, lam, omega, kernel: str):
    """Kernel values on the wrapped (2n)^3 offset lattice, spatial axes last:
    shape (m, m, m) for the scalar kernel, or (6, m, m, m) for a tensor one
    (components 00, 11, 22, 01, 02, 12 of the symmetric tensor), m = 2n.
    Index j < n holds offset j h, index j > n offset (j - 2n) h; index n is
    never reached by an n-grid and holds zero.  Zero at the origin (the self
    cell is handled analytically).

    The kernels are radial, so each distinct value is evaluated once, on the
    n^3 non-negative offsets, and mirrored into the other seven octants with
    the parities of ``_TENSOR_PARITY``."""
    n = grid.n
    offs = np.arange(n) * grid.h
    zi, zj, zk = np.meshgrid(offs, offs, offs, indexing="ij")
    z = np.stack([zi.ravel(), zj.ravel(), zk.ravel()], axis=1)
    z[0] = (grid.h, 0.0, 0.0)  # origin placeholder; the entry is zeroed below
    octant = _kernel(kernel).evaluate(z, rho, mu, lam, omega)
    octant[0] = 0.0
    if octant.ndim == 1:
        table, parity = octant.reshape(1, n, n, n), np.ones((1, 3))
    else:
        table = octant[:, _TENSOR_ROWS, _TENSOR_COLS].T.reshape(6, n, n, n)
        parity = _TENSOR_PARITY
    # per axis, (lattice indices, octant indices) of the non-negative offsets
    # 0..n-1 and of the negative ones -(n-1)..-1
    halves = ((slice(0, n), slice(0, n)), (slice(n + 1, None), slice(n - 1, 0, -1)))
    full = np.zeros((table.shape[0],) + (2 * n,) * 3, dtype=complex)
    for flip in itertools.product((0, 1), repeat=3):
        sign = np.prod(np.where(flip, parity, 1.0), axis=1).reshape(-1, 1, 1, 1)
        dst = (slice(None),) + tuple(halves[f][0] for f in flip)
        src = (slice(None),) + tuple(halves[f][1] for f in flip)
        full[dst] = sign * table[src]
    return full[0] if octant.ndim == 1 else full


def _contract(table, spectrum):
    """Pointwise product of a kernel spectrum with the source spectrum
    (3, S, m, m, m): a scalar kernel (m, m, m) scales each component; a tensor
    kernel, held as its six symmetric components (6, m, m, m), is summed as
    three terms per row."""
    if table.ndim == 3:
        return table * spectrum
    h00, h11, h22, h01, h02, h12 = table[:, None]
    s0, s1, s2 = spectrum
    return np.stack([
        h00 * s0 + h01 * s1 + h02 * s2,
        h01 * s0 + h11 * s1 + h12 * s2,
        h02 * s0 + h12 * s1 + h22 * s2,
    ])


def _box_index(grid: BallGrid) -> np.ndarray:
    """Flat index of each grid node in its n^3 bounding box."""
    n = grid.n
    return (grid.idx[:, 0] * n + grid.idx[:, 1]) * n + grid.idx[:, 2]


def _source_spectrum(grid: BallGrid, values) -> np.ndarray:
    """FFT of the weighted values (N, 3, S) zero-padded from their n^3 box to
    the (2n)^3 lattice: shape (3, S, m, m, m).  numpy pads and transforms one
    axis at a time, so the all-zero rows of the padding are never transformed."""
    n, n_src = grid.n, values.shape[2]
    box = np.zeros((3, n_src, n**3), dtype=complex)
    box[:, :, _box_index(grid)] = np.transpose(grid.h**3 * values, (1, 2, 0))
    return np.fft.fftn(box.reshape(3, n_src, n, n, n), s=(2 * n,) * 3, axes=(-3, -2, -1))


def _apply_kernel(grid: BallGrid, values, spectrum, rho, mu, lam, omega, kernel: str):
    """Same-grid convolution of values (N, 3, S), whose source spectrum is
    given, with the analytic self-cell term added: (N, 3, S)."""
    n = grid.n
    # the kernel spectrum is a temporary, freed before the inverse transforms
    u = _contract(
        np.fft.fftn(_kernel_table(grid, rho, mu, lam, omega, kernel), axes=(-3, -2, -1)),
        spectrum,
    )
    # inverse FFT one axis at a time, keeping only the n^3 box the grid reads
    u = np.fft.ifft(u, axis=-3)[..., :n, :, :]
    u = np.fft.ifft(u, axis=-2)[..., :n, :]
    u = np.fft.ifft(u, axis=-1)[..., :n]
    out = np.transpose(u.reshape(3, values.shape[2], n**3)[:, :, _box_index(grid)], (2, 0, 1))
    return out + _self_coefficients(float(grid.h**3), rho, mu, lam, omega, kernel) * values


def _convolve_grid_batch(grid: BallGrid, values, rho, mu, lam, omega, kernel: str):
    """Batched same-grid convolution: values of shape (N, 3) or (N, 3, S).

    The kernel table is block-Toeplitz, so the pairwise sums are a linear
    convolution, computed as a cyclic one by zero-padded FFT on the (2n)^3
    lattice: one kernel transform shared by all S sources.
    """
    values = np.asarray(values, dtype=complex)
    squeeze = values.ndim == 2
    if squeeze:
        values = values[:, :, None]
    out = _apply_kernel(
        grid, values, _source_spectrum(grid, values), rho, mu, lam, omega, kernel
    )
    return out[:, :, 0] if squeeze else out


def _convolve_generic(
    source: SourceField, rho, mu, lam, omega, targets, kernel: str,
    singular_rule: bool = True, chunk: int = 128,
):
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    evaluate = _kernel(kernel).evaluate
    out = np.zeros((targets.shape[0], 3), dtype=complex)
    tol = 1e-12 * source.ell
    for start in range(0, targets.shape[0], chunk):
        sl = slice(start, min(start + chunk, targets.shape[0]))
        diff = targets[sl][:, None, :] - source.nodes[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        coincident = r < tol
        if np.any(coincident) and not singular_rule:
            raise SingularityError(
                "target coincides with a quadrature node and the singular-cell "
                "rule is disabled"
            )
        diff_safe = np.where(coincident[..., None], source.ell, diff)
        g = evaluate(diff_safe.reshape(-1, 3), rho, mu, lam, omega)
        g = g.reshape(diff.shape[:2] + g.shape[1:])
        if g.ndim == 2:
            g = np.where(coincident, 0.0, g)
            out[sl] = np.einsum("tn,nj->tj", g, source.weights[:, None] * source.values)
        else:
            g = np.where(coincident[..., None, None], 0.0, g)
            out[sl] = np.einsum(
                "tnij,nj->ti", g, source.weights[:, None] * source.values
            )
        if np.any(coincident):
            ti, si = np.nonzero(coincident)
            for t, s in zip(ti, si):
                coef = _self_coefficients(source.weights[s], rho, mu, lam, omega, kernel)
                out[start + t] += coef * source.values[s]
    return out


def convolve(
    source: SourceField,
    rho: float,
    mu: float,
    lam: float,
    omega: float,
    targets: np.ndarray | None = None,
    kernel: str = "total",
    singular_rule: bool = True,
) -> np.ndarray:
    """u(x) = sum_j w_j K(x - y_j) f(y_j), with the cell containing x
    replaced by the analytic integral of the kernel over the equal-volume
    ball (``singular_rule``; disabling it makes a coincident target an
    error).

    kernel:
      "total"   the fundamental tensor (u solves the whole-space problem),
      "scalar"  the acoustic part g_a I applied componentwise,
      "elastic" the difference-kernel Hessian (omega^2 times the elastic
                part of u).

    With ``targets=None`` and a grid-backed source, kernel values are
    tabulated on the offset lattice (one evaluation per distinct offset)
    and convolved by zero-padded FFT; arbitrary targets fall back to direct
    pairwise evaluation.
    """
    if targets is None:
        if source.grid is None:
            raise ValueError("grid-free sources need explicit targets")
        if not singular_rule:
            raise SingularityError(
                "same-grid convolution always passes through the source nodes; "
                "the singular-cell rule cannot be disabled"
            )
        return _convolve_grid_batch(source.grid, source.values, rho, mu, lam, omega, kernel)
    return _convolve_generic(source, rho, mu, lam, omega, targets, kernel, singular_rule)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalBoundReport:
    kappa_s: float
    ratio: float
    bound: float
    slack: float
    scalar_ratios: tuple
    scalar_bound: float
    elastic_ratio: float
    elastic_bound: float

    @property
    def passed(self) -> bool:
        return self.slack >= 0.0

    def as_dict(self) -> dict:
        return {
            "kappa_s": self.kappa_s,
            "ratio": self.ratio,
            "bound": self.bound,
            "slack": self.slack,
            "scalar_ratios": list(self.scalar_ratios),
            "scalar_bound": self.scalar_bound,
            "elastic_ratio": self.elastic_ratio,
            "elastic_bound": self.elastic_bound,
        }


def verify_fundamental_sweep(
    grid: BallGrid,
    values: np.ndarray,
    rho: float,
    mu: float,
    lam: float,
    omega: float,
) -> list[FundamentalBoundReport]:
    """Verify all S sources stacked as values (N, 3, S) in one pass: one
    forward FFT of the sources feeds both the acoustic and the elastic
    kernel, and each kernel transform is shared across sources."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 2:
        values = values[:, :, None]
    k = WaveNumbers.from_material(rho, mu, lam, omega)
    kappa = k.k_s * grid.ell
    spectrum = _source_spectrum(grid, values)
    u_scalar = _apply_kernel(grid, values, spectrum, rho, mu, lam, omega, "scalar")
    u_elastic = _apply_kernel(grid, values, spectrum, rho, mu, lam, omega, "elastic")
    # numpy's square overflows to inf, where a float's raises OverflowError
    omega2 = np.float64(omega) ** 2
    # the split u = u_scalar + u_elastic / omega^2 is singular at omega = 0;
    # u_total enters only the ratio omega^2 ||u_total||, which vanishes there
    u_total = u_scalar + u_elastic / omega2 if omega > 0.0 else u_scalar
    w = grid.weights

    def _norms(v):
        # (N, 3, S) -> per-source rho-free L2 norms (the rho factor cancels
        # from every ratio for constant density)
        return np.sqrt(np.sum(w[:, None, None] * np.abs(v) ** 2, axis=(0, 1)))

    def _comp_norms(v):
        return np.sqrt(np.sum(w[:, None, None] * np.abs(v) ** 2, axis=0))  # (3, S)

    norm_f = _norms(values)
    norm_f_comp = _comp_norms(values)
    ratios = omega2 * _norms(u_total) / norm_f
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar_ratios = np.where(
            norm_f_comp > 0.0, omega2 * _comp_norms(u_scalar) / norm_f_comp, 0.0
        )
    elastic_ratios = _norms(u_elastic) / norm_f
    bound = 4.0 + 17.0 * kappa
    return [
        FundamentalBoundReport(
            kappa_s=kappa,
            ratio=float(ratios[s]),
            bound=bound,
            slack=bound - float(ratios[s]),
            scalar_ratios=tuple(float(x) for x in scalar_ratios[:, s]),
            scalar_bound=kappa,
            elastic_ratio=float(elastic_ratios[s]),
            elastic_bound=4.0 + 16.0 * kappa,
        )
        for s in range(values.shape[2])
    ]


def verify_fundamental_bound(
    source: SourceField, rho: float, mu: float, lam: float, omega: float
) -> FundamentalBoundReport:
    """Measure omega^2 ||u||_rho / ||f||_rho on the source grid and report
    the slack against 4 + 17 kappa_s, together with the componentwise
    acoustic-part ratios (bounded by kappa_s) and the elastic-part ratio
    (bounded by 4 + 16 kappa_s)."""
    if source.grid is None:
        raise ValueError("verification needs a grid-backed source")
    return verify_fundamental_sweep(source.grid, source.values, rho, mu, lam, omega)[0]


# ---------------------------------------------------------------------------
# Fourier multiplier norm of the truncated difference kernel
# ---------------------------------------------------------------------------

def _linear_exp_integral(alpha, beta, c, a, b):
    """int_a^b (alpha + beta r) e^{c r} dr for an array of complex c; a power
    series in c r where |c| b < _SERIES_CUTOFF (c = 0 included)."""
    near = np.abs(c) * b < _SERIES_CUTOFF
    cf = np.where(near, 1.0, c)
    closed = (
        np.exp(cf * b) * ((alpha + beta * b) / cf - beta / cf**2)
        - np.exp(cf * a) * ((alpha + beta * a) / cf - beta / cf**2)
    )
    m = np.arange(_SERIES_TERMS)
    fact = np.array([math.factorial(j) for j in m], dtype=float)
    coef = (
        alpha * (b ** (m + 1) - a ** (m + 1)) / (m + 1)
        + beta * (b ** (m + 2) - a ** (m + 2)) / (m + 2)
    ) / fact
    series = np.sum(np.where(near, c, 0.0)[..., None] ** m * coef, axis=-1)
    return np.where(near, series, closed)


def _cutoff_exp_integral(k, xi, ell):
    """int_0^{4 ell} eta(r) e^{i (k + xi) r} dr for the cutoff eta = 1 on
    [0, 2 ell], (4 ell - r)/(2 ell) on [2 ell, 4 ell]."""
    c = 1j * (k + xi)
    return _linear_exp_integral(1.0, 0.0, c, 0.0, 2.0 * ell) + _linear_exp_integral(
        2.0, -1.0 / (2.0 * ell), c, 2.0 * ell, 4.0 * ell
    )


def fourier_multiplier_entry(k: WaveNumbers, ell: float, xi):
    """Complex value of int_0^{4 ell} d/dr[eta(r)(e^{i k_s r} - e^{i k_p r})] cos(xi r) dr
    for a scalar or an array of xi, in closed form.

    eta(4 ell) = 0 and the kernel difference vanishes at r = 0, so by parts
    the entry is xi int_0^{4 ell} eta(r)(e^{i k_s r} - e^{i k_p r}) sin(xi r) dr.
    With sin written as exponentials and eta piecewise linear, each piece is
    int (alpha + beta r) e^{c r} dr, evaluated exactly up to rounding.
    """
    xi_arr = np.asarray(xi, dtype=float)

    def spread(kk):
        return _cutoff_exp_integral(kk, xi_arr, ell) - _cutoff_exp_integral(kk, -xi_arr, ell)

    val = xi_arr * (spread(k.k_s) - spread(k.k_p)) / 2j
    return complex(val) if val.ndim == 0 else val


def fourier_multiplier_norm(
    k: WaveNumbers,
    ell: float,
    xi_grid: np.ndarray | None = None,
    tol: float = 1e-8,
) -> float:
    """Max over the xi grid of |cos-transform of d/dr[eta * (e^{iksr}-e^{ikpr})]|.

    Certifies the elastic-part Fourier multiplier; the analytic bound is
    2 + 8 k_s ell.  The default grid spans [0, 20 k_s] (with a fallback
    scale 1/ell when k_s = 0).  Every entry is in closed form, exact up to
    rounding, so the accuracy target ``tol`` is always met; it is accepted
    so that callers can state one.
    """
    if xi_grid is None:
        scale = k.k_s if k.k_s > 0.0 else 1.0 / ell
        xi_grid = np.linspace(0.0, 20.0 * scale, 321)
    vals = fourier_multiplier_entry(k, ell, np.asarray(xi_grid, dtype=float).ravel())
    return float(np.max(np.abs(vals), initial=0.0))
