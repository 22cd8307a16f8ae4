"""Homogeneous 3D elastodynamics by the fundamental solution.

Kernel evaluation (acoustic part, elastic Hessian part, full tensor),
midpoint-grid convolution over a ball with an analytic singular-cell rule,
numerical verification of the whole-space stability bound 4 + 17 kappa_s,
and the cos-transform norm of the elastic part, sampled on a grid (a lower
bound on its supremum, not a certificate).

Convolutions run as zero-padded FFTs on the (2n)^3 offset lattice (the
kernel table is block-Toeplitz; see Vico, Greengard & Ferrando, J. Comput.
Phys. 323, 2016); the direct pairwise sum is the tests' oracle
(``tests/greens_oracle.py``).  The kernels are radial, so a table is
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
    "hessian_radial",
    "kelvin_tensor",
    "green_tensor",
    "elastic_hessian_kernel",
    "BallGrid",
    "ball_grid",
    "random_ball_sources",
    "FundamentalBoundReport",
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

        (1/4pi) [ g'(r)/r (I - yhat (x) yhat) + g''(r) yhat (x) yhat ].

    The 1/r^3 singularities of the two exponential Hessians cancel, leaving
    an integrable O(k^2/r) kernel; a power series in the dimensionless
    i k r avoids the cancellation for k_max r < 0.1.  Each coefficient is
    formed on its own, so the radial one g'' does not cancel against the
    transverse one g'/r.
    """
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("elastic Hessian kernel evaluated at r = 0")
    kmax = max(abs(k.k_s), abs(k.k_p))
    coef_i = np.zeros(r.shape, dtype=complex)
    coef_rr = np.zeros(r.shape, dtype=complex)
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
        coef_rr[far] = hpp
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
        coef_rr[near] = ce / rn**3
    yhat = y / r[..., None]
    yy = yhat[..., :, None] * yhat[..., None, :]
    out = coef_i[..., None, None] * (np.eye(3) - yy)
    out += coef_rr[..., None, None] * yy
    out /= 4.0 * math.pi
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
    g_a = _scalar_kernel(y_arr, rho, mu, lam, omega)
    hess = elastic_hessian_kernel(y_arr, WaveNumbers.from_material(rho, mu, lam, omega))
    out = g_a[..., None, None] * np.eye(3) + hess / omega**2
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Midpoint grid over the ball and random sources
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
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    idx = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
    nodes = -ell + (idx + 0.5) * h
    inside = np.linalg.norm(nodes, axis=1) <= ell
    nodes, idx = nodes[inside], idx[inside]
    weights = np.full(nodes.shape[0], h**3)
    return BallGrid(ell=ell, n=n, h=h, nodes=nodes, weights=weights, idx=idx)


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


# Kernel evaluators at offsets z (M, 3).  They look the public kernels up at
# call time, so a wrapper installed on the module sees every call.

def _scalar_kernel(z, rho, mu, lam, omega):
    """The acoustic kernel g_a = e^{i k_s r}/(4 pi theta_s^2 r)."""
    r = np.linalg.norm(z, axis=-1)
    k_s = WaveNumbers.from_material(rho, mu, lam, omega).k_s
    theta_s = math.sqrt(mu / rho)
    return np.exp(1j * k_s * r) / (4.0 * math.pi * theta_s**2 * r)


def _elastic_kernel(z, rho, mu, lam, omega):
    return elastic_hessian_kernel(z, WaveNumbers.from_material(rho, mu, lam, omega))


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
}


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
    octant = _KERNELS[kernel].evaluate(z, rho, mu, lam, omega)
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
    # the self cell is replaced by the ball of equal volume, integrated exactly
    a = (3.0 * grid.h**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return out + complex(_KERNELS[kernel].self_integral(a, rho, mu, lam, omega)) * values


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

    The elastic-part Fourier multiplier, against its analytic bound
    2 + 8 k_s ell.  The default grid holds 321 points on [0, 20 k_s] (with
    a fallback scale 1/ell when k_s = 0).  The maximum over a grid is a
    lower bound on the supremum over all xi, not a certificate: at
    rho = mu = lambda = ell = 1 and omega = 8 the default grid reads
    12.0011 and a 200,001-point grid 12.0298.  Every entry is in closed
    form, exact up to rounding, so the accuracy target ``tol`` is always
    met; it is accepted so that callers can state one.
    """
    if xi_grid is None:
        scale = k.k_s if k.k_s > 0.0 else 1.0 / ell
        xi_grid = np.linspace(0.0, 20.0 * scale, 321)
    vals = fourier_multiplier_entry(k, ell, np.asarray(xi_grid, dtype=float).ravel())
    return float(np.max(np.abs(vals), initial=0.0))
