"""Homogeneous 3D elastodynamics by the fundamental solution.

Kernel evaluation (acoustic part, elastic Hessian part, full tensor),
midpoint-grid convolution over a ball with an analytic singular-cell rule,
numerical verification of the whole-space stability bound 4 + 17 kappa_s,
and the cos-transform norm of the elastic part, sampled on a grid (a lower
bound on its supremum, not a certificate).

Convolutions run as zero-padded FFTs on the (2n)^3 offset lattice (the
kernel table is block-Toeplitz; see Vico, Greengard & Ferrando, J. Comput.
Phys. 323, 2016), every transform on one lattice array; the direct pairwise
sum is the tests' oracle (``tests/greens_oracle.py``).  The kernels are
radial, so both of a grid's tables are evaluated on one octant of offsets,
in one call, and mirrored; of the elastic Hessian only H_00 and H_01 are
formed and transformed: on the cubic lattice the other four components are
axis permutations of those two.  Kernel spectra are made once per grid;
sources are convolved one at a time.  The transforms run as jobs on worker threads (numpy's FFTs release the GIL),
the kernel tables on the calling thread.  The self-cell and near-field
series run in powers of the dimensionless i k a.
The cos transform is in closed form: the cutoff is piecewise linear, so
every piece integrates exactly.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SingularityError

__all__ = [
    "WaveNumbers",
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

# Peak memory of a verify_fundamental_sweep run grows with the (2n)^3
# lattices of its grids (their kernel tables and spectra) and, per worker,
# with the finest lattice (the transforms of one source).  Measured peak RSS
# of greens-verify is about 75 bytes per lattice point of both grids plus
# 140 per finest lattice point per worker (grid_n = 16 to 56, 1 and 2
# workers).  Sources are sampled inside their jobs, so their count costs no
# memory.  greens-verify refuses a grid whose estimate at one worker passes
# the budget, so it accepts grid_n <= 90, and runs on as many workers as fit.
MEMORY_BUDGET = 3 * 2**30


def verify_bytes(grid_ns, workers: int) -> int:
    """Estimated peak bytes of a sweep over n-grids ``grid_ns`` on ``workers`` threads."""
    lattice = [(2 * n) ** 3 for n in grid_ns]
    return 75 * sum(lattice) + 140 * workers * max(lattice)


def _cores() -> int:
    """The CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def worker_count(grid_ns, n_sources: int) -> int:
    """Threads a sweep of ``n_sources`` sources over n-grids ``grid_ns``
    runs its jobs on: the most, up to the cores and the count of (grid,
    source) checks, whose memory estimate fits the budget, and at least one."""
    workers = min(_cores(), len(grid_ns) * n_sources)
    while workers > 1 and verify_bytes(grid_ns, workers) > MEMORY_BUDGET:
        workers -= 1
    return workers


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


def _hessian_coefficients(r, k: WaveNumbers):
    """The radial coefficients (g'(r)/r, g''(r)) of G^E = g(|y|)/(4 pi) at
    radii r > 0, g = e^{i k_s r}/r - e^{i k_p r}/r.

    The 1/r^3 singularities of the two exponentials cancel, leaving
    integrable O(k^2/r) coefficients; a power series in the dimensionless
    i k r avoids the cancellation for k_max r < 0.1.  Each coefficient is
    formed on its own, so the radial one g'' does not cancel against the
    transverse one g'/r.
    """
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
    return coef_i, coef_rr


def elastic_hessian_kernel(y, k: WaveNumbers) -> np.ndarray:
    """Hessian of the difference kernel G^E(y) = g(|y|)/(4 pi):

        (1/4pi) [ g'(r)/r (I - yhat (x) yhat) + g''(r) yhat (x) yhat ],

    with the coefficients of ``_hessian_coefficients``.
    """
    y, r, single = _radii(y)
    if np.any(r == 0.0):
        raise SingularityError("elastic Hessian kernel evaluated at r = 0")
    coef_i, coef_rr = _hessian_coefficients(r, k)
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
    g_a = _scalar_kernel(r, rho, mu, lam, omega)
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


def _scalar_kernel(r, rho, mu, lam, omega):
    """The acoustic kernel g_a = e^{i k_s r}/(4 pi theta_s^2 r) at radii r."""
    k_s = WaveNumbers.from_material(rho, mu, lam, omega).k_s
    theta_s = math.sqrt(mu / rho)
    return np.exp(1j * k_s * r) / (4.0 * math.pi * theta_s**2 * r)


# A radial tensor kernel f(r) I + g(r) yhat (x) yhat on the cubic lattice is
# fixed by H_00 (even in every axis) and H_01 (odd along axes 0 and 1), the
# rows of parities under y_c -> -y_c below.  H_ab = transpose(H_q, axes):
# H_aa is H_00 with axes 0 and a swapped, H_ab is H_01 with axes 0, 1 sent
# to a, b.
_TENSOR_PARITY = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
_TENSOR_PERMUTATIONS = {  # (a, b) -> (q, axes)
    (0, 0): (0, (0, 1, 2)), (1, 1): (0, (1, 0, 2)), (2, 2): (0, (2, 1, 0)),
    (0, 1): (1, (0, 1, 2)), (0, 2): (1, (0, 2, 1)), (1, 2): (1, (2, 0, 1)),
}


def _kernel_table(grid: BallGrid, rho, mu, lam, omega):
    """The acoustic and the elastic kernel as (table, self-cell integral)
    pairs.  A table holds the kernel on the wrapped (2n)^3 offset lattice,
    spatial axes last: shape (m, m, m) for the acoustic kernel g_a, and
    (2, m, m, m) for the elastic Hessian (its components 00 and 01),
    m = 2n.  Index j < n holds offset j h, index j > n offset (j - 2n) h;
    index n is never reached by an n-grid and holds zero.  Zero at the
    origin: the self cell is the kernel's integral over the ball of a grid
    cell's volume.

    The kernels are radial, so each distinct value is evaluated once, on the
    n^3 non-negative offsets, and mirrored into the other seven octants with
    the parities of ``_TENSOR_PARITY``.  H_00 and H_01 are formed from the
    radial coefficients with the operations of ``elastic_hessian_kernel``,
    so they hold its bits."""
    n = grid.n
    offs = np.arange(n) * grid.h
    zi, zj, zk = np.meshgrid(offs, offs, offs, indexing="ij")
    z = np.stack([zi.ravel(), zj.ravel(), zk.ravel()], axis=1)
    z[0] = (grid.h, 0.0, 0.0)  # origin placeholder; its entries are zeroed below
    r = np.linalg.norm(z, axis=-1)
    acoustic = _scalar_kernel(r, rho, mu, lam, omega)
    coef_i, coef_rr = _hessian_coefficients(r, WaveNumbers.from_material(rho, mu, lam, omega))
    yhat = z[:, :2] / r[:, None]
    yy = yhat[:, :1] * yhat  # yhat_0 yhat_0, yhat_0 yhat_1
    hessian = coef_i[:, None] * (np.eye(3)[0, :2] - yy)
    hessian += coef_rr[:, None] * yy
    hessian /= 4.0 * math.pi
    acoustic[0] = hessian[0] = 0.0
    # per axis, (lattice indices, octant indices) of the non-negative offsets
    # 0..n-1 and of the negative ones -(n-1)..-1
    halves = ((slice(0, n), slice(0, n)), (slice(n + 1, None), slice(n - 1, 0, -1)))
    tables = []
    for octant, parity in ((acoustic.reshape(1, n, n, n), np.ones((1, 3))),
                           (hessian.T.reshape(2, n, n, n), _TENSOR_PARITY)):
        full = np.zeros((octant.shape[0],) + (2 * n,) * 3, dtype=complex)
        for flip in itertools.product((0, 1), repeat=3):
            sign = np.prod(np.where(flip, parity, 1.0), axis=1).reshape(-1, 1, 1, 1)
            dst = (slice(None),) + tuple(halves[f][0] for f in flip)
            src = (slice(None),) + tuple(halves[f][1] for f in flip)
            full[dst] = sign * octant[src]
        tables.append(full)
    radius = (3.0 * grid.h**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    return [(tables[0][0], complex(_scalar_self_integral(radius, rho, mu, lam, omega))),
            (tables[1], complex(_elastic_self_integral(radius, rho, mu, lam, omega)))]


def _kernel_spectrum(table):
    """What a same-grid convolution needs of a ``_kernel_table`` table: its
    FFT on the (2n)^3 lattice as three rows of (source component b,
    spectrum) pairs, row a giving component a of the product.  The scalar
    kernel scales each component; of the tensor kernel's rows only H_00 and
    H_01 are transformed, and the other four components are transposed
    copies of their spectra (the FFT commutes with axis permutations)."""
    if table.ndim == 3:
        g = np.fft.fftn(table)
        return [[(b, g)] for b in range(3)]
    spectra = [np.fft.fftn(table[0]), np.fft.fftn(table[1])]
    h = {}
    for (a, b), (q, axes) in _TENSOR_PERMUTATIONS.items():
        h[a, b] = h[b, a] = np.ascontiguousarray(np.transpose(spectra[q], axes))
    return [[(b, h[a, b]) for b in range(3)] for a in range(3)]


def _contract(row, s_hat, out, tmp):
    """out = the sum over a kernel row's (b, spectrum) pairs of spectrum *
    s_hat[b], accumulated in place; tmp holds each further product."""
    (b, spectrum), *rest = row
    np.multiply(spectrum, s_hat[b], out=out)
    for b, spectrum in rest:
        out += np.multiply(spectrum, s_hat[b], out=tmp)
    return out


def _convolve(grid: BallGrid, f, kernels):
    """Same-grid convolutions of one source's values f (N, 3) with each
    kernel, a (``_kernel_spectrum`` rows, self-cell integral) pair: one
    (N, 3) array per kernel.  Every FFT acts on one (2n)^3 lattice array:
    each weighted component is zero-padded from its n^3 box and transformed
    (numpy pads one axis at a time, so the padding rows are never
    transformed), and each product is transformed back one axis at a time,
    keeping the n^3 box the grid reads."""
    n = grid.n
    index = (grid.idx[:, 0] * n + grid.idx[:, 1]) * n + grid.idx[:, 2]
    box = np.zeros(n**3, dtype=complex)
    s_hat = []
    for b in range(3):
        box[index] = grid.h**3 * f[:, b]
        s_hat.append(np.fft.fftn(box.reshape(n, n, n), s=(2 * n,) * 3, axes=(0, 1, 2)))
    acc, tmp = np.empty_like(s_hat[0]), np.empty_like(s_hat[0])
    out = []
    for rows, self_cell in kernels:
        u = np.empty(f.shape, dtype=complex)
        for a, row in enumerate(rows):
            # numpy.fft's out= (numpy >= 2.0) reuses tmp for the first inverse
            v = np.fft.ifft(_contract(row, s_hat, acc, tmp), axis=0, out=tmp)[:n]
            v = np.fft.ifft(v, axis=1)[:, :n]
            u[:, a] = np.fft.ifft(v, axis=2)[:, :, :n].reshape(n**3)[index]
        out.append(u + self_cell * f)
    return out


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
        return {**asdict(self), "scalar_ratios": list(self.scalar_ratios)}


def _source_report(grid: BallGrid, f, u_scalar, u_elastic, omega, kappa) -> FundamentalBoundReport:
    """The report of one source's values f (N, 3) and its convolutions with
    the acoustic and the elastic kernel."""
    bound = 4.0 + 17.0 * kappa
    # numpy's square overflows to inf, where a float's raises OverflowError
    omega2 = np.float64(omega) ** 2
    w = grid.weights[:, None]

    def _comp_norms(v):
        # (N, 3) -> rho-free L2 norm of each component (the rho factor
        # cancels from every ratio for constant density)
        return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=0))

    def _norm(v):
        # summed sequentially in node order (np.sum would sum pairwise), the
        # order of the stacked-source sums behind earlier reports: their bits
        return np.sqrt(np.cumsum(w * np.abs(v) ** 2)[-1])

    # the split u = u_scalar + u_elastic / omega^2 is singular at omega = 0;
    # u_total enters only the ratio omega^2 ||u_total||, which vanishes there
    u_total = u_scalar + u_elastic / omega2 if omega > 0.0 else u_scalar
    norm_f, norm_f_comp = _norm(f), _comp_norms(f)
    ratio = float(omega2 * _norm(u_total) / norm_f)
    with np.errstate(divide="ignore", invalid="ignore"):
        scalar_ratios = np.where(
            norm_f_comp > 0.0, omega2 * _comp_norms(u_scalar) / norm_f_comp, 0.0
        )
    return FundamentalBoundReport(
        kappa_s=kappa, ratio=ratio, bound=bound, slack=bound - ratio,
        scalar_ratios=tuple(float(x) for x in scalar_ratios), scalar_bound=kappa,
        elastic_ratio=float(_norm(u_elastic) / norm_f), elastic_bound=4.0 + 16.0 * kappa,
    )


def _run_parallel(jobs: list, workers: int) -> None:
    """Run the callables ``jobs`` on up to ``workers`` threads, the calling
    thread one of them; each thread takes the next job in list order.  The
    first exception a job raises is re-raised here once every thread has
    ended; no job starts after it."""
    queue = collections.deque(jobs)
    errors = []

    def work():
        while queue and not errors:
            try:
                job = queue.popleft()
            except IndexError:  # another thread took the last job
                return
            try:
                job()
            except BaseException as exc:
                errors.append(exc)

    threads = []
    try:
        for _ in range(min(workers, len(jobs)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        queue.clear()  # the calling thread has stopped: so does every other
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def verify_fundamental_sweep(
    grids: list,
    sources: list,
    rho: float,
    mu: float,
    lam: float,
    omega: float,
    workers: int | None = None,
) -> list[list[FundamentalBoundReport]]:
    """Verify every source callable (``random_ball_sources``) sampled on
    every grid: one report list per grid, in the order of ``grids``.

    The kernel tables are made on the calling thread.  The rest runs on
    ``workers`` threads (default ``worker_count``) in two passes, finest grid
    first: each grid's acoustic and elastic kernels are transformed, then
    one job per (grid, source) samples the source, convolves it and takes
    the norms.  On one worker the grids take their passes one after the
    other, so that one grid's spectra are held at a time.  Every job's
    arithmetic is independent of the others, so the reports do not depend
    on the worker count, and a source's report not on the other sources."""
    if workers is None:
        workers = worker_count([grid.n for grid in grids], len(sources))
    order = sorted(range(len(grids)), key=lambda g: -grids[g].n)
    reports = [[None] * len(sources) for _ in grids]
    k_s = WaveNumbers.from_material(rho, mu, lam, omega).k_s
    # one thread gains nothing from holding every grid's spectra at once
    for batch in [order] if workers > 1 else [[g] for g in order]:
        tables = {g: _kernel_table(grids[g], rho, mu, lam, omega) for g in batch}
        kernels = {}

        def transform(g):
            pending, kernels[g] = tables.pop(g), []
            while pending:  # each table is freed once transformed
                table, self_cell = pending.pop(0)
                kernels[g].append((_kernel_spectrum(table), self_cell))

        def check(g, s):
            grid = grids[g]
            f = sources[s](grid.nodes)
            u_scalar, u_elastic = _convolve(grid, f, kernels[g])
            reports[g][s] = _source_report(grid, f, u_scalar, u_elastic, omega, k_s * grid.ell)

        _run_parallel([functools.partial(transform, g) for g in batch], workers)
        _run_parallel([functools.partial(check, g, s) for g in batch for s in range(len(sources))],
                      workers)
    return reports


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
