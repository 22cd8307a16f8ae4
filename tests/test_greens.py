import functools
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from elastab import greens
from greens_oracle import green_kernel, hessian_kernel, hessian_radial, pairwise

RHO, MU, LAM = 1.3, 2.0, 5.0
THETA_S = math.sqrt(MU / RHO)


class TestScalarKernels:
    def test_static_limit(self):
        r = np.linalg.norm([0.3, -0.4, 0.5])
        g_a = greens._scalar_kernel(r, RHO, MU, LAM, 0.0)
        assert g_a == pytest.approx(1.0 / (4.0 * math.pi * THETA_S**2 * r))

    def test_unit_wavenumber_at_pi(self):
        # omega = theta_s puts k_s at 1
        g_a = greens._scalar_kernel(math.pi, RHO, MU, LAM, THETA_S)
        assert g_a == pytest.approx(-1.0 / (4.0 * math.pi**2 * THETA_S**2))

    def test_equal_wavenumbers_kill_difference(self):
        # G^E = (e^{i k_s r} - e^{i k_p r})/(4 pi r) vanishes, and its
        # Hessian with it, on both the series and the closed-form branch
        k = greens.WaveNumbers(k_s=2.0, k_p=2.0, omega=1.0)
        r = np.linalg.norm(np.random.default_rng(0).normal(size=(5, 3)), axis=-1)
        r = np.concatenate([r, 1e-3 * r])
        assert np.abs(greens._hessian_coefficients(r, k)).max() == 0.0

    def test_difference_kernel_small_r_limit(self):
        # g = 4 pi G^E = i (k_s - k_p) - (k_s^2 - k_p^2) r / 2 + O(r^2): its
        # radial coefficients g'/r and g'' are -(k_s^2 - k_p^2)/(2 r) and O(1)
        k = greens.WaveNumbers(k_s=2.0, k_p=1.0, omega=1.0)
        r = 1e-9
        (coef_i,), (coef_rr,) = greens._hessian_coefficients(np.array([r]), k)
        want = -(2.0**2 - 1.0**2) / (2.0 * r)
        assert abs(coef_i - want) <= 1e-6 * abs(want)
        assert abs(coef_rr) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1e4, 1e8])
    def test_elastic_hessian_entries_match_mpmath(self, lam):
        # the radial coefficients (g'/r, g'') of g = (e^{i k_s r} - e^{i k_p r})/r;
        # mpmath differentiates g at 60 digits.  The series branch (k_s r < 0.1)
        # holds both to 1e-14; the closed form loses ~ 1/(k r)^2 of a rounding
        # just above its cutoff
        k = greens.WaveNumbers.from_material(1.0, 1.0, lam, 3.0)
        ks, kp = mp.mpf(k.k_s), mp.mpf(k.k_p)

        def g(r):
            return (mp.exp(1j * ks * r) - mp.exp(1j * kp * r)) / r

        series = np.geomspace(1e-8, 0.099, 15)
        closed = np.array([0.1, 0.101, 0.15, 0.3, 1.0, 3.0, 10.0, 30.0])
        for ksr, tol in [(series, 1e-14), (closed, 2e-12)]:
            r = ksr / k.k_s
            for x, got_i, got_rr in zip(r, *greens._hessian_coefficients(r, k)):
                with mp.workdps(60):
                    radial = complex(mp.diff(g, mp.mpf(x), 2))
                    transverse = complex(mp.diff(g, mp.mpf(x), 1) / x)
                assert abs(got_rr - radial) <= tol * abs(radial), (lam, x * k.k_s)
                assert abs(got_i - transverse) <= tol * abs(transverse), (lam, x * k.k_s)


class TestHessianRadial:
    def test_origin_raises(self):
        with pytest.raises(ValueError):
            hessian_radial(1.0, np.array([[0.3, -0.4, 0.5], [0.0, 0.0, 0.0]]))

    def test_harmonic_identity_at_zero_wavenumber(self):
        y = np.array([0.7, -0.3, 0.5])
        r = np.linalg.norm(y)
        yhat = y / r
        expected = (3.0 * np.outer(yhat, yhat) - np.eye(3)) / r**3
        assert np.allclose(hessian_radial(0.0, y), expected, atol=1e-14)

    def test_axis_symmetry(self):
        h = hessian_radial(2.0, np.array([0.9, 0.0, 0.0]))
        # off-diagonal entries mixing the axis with transverse directions vanish
        assert abs(h[0, 1]) < 1e-14 and abs(h[0, 2]) < 1e-14
        assert abs(h[1, 2]) < 1e-14
        assert h[1, 1] == pytest.approx(h[2, 2])

    def test_against_finite_differences(self):
        k = 2.0
        rng = np.random.default_rng(1)
        step = 1e-5

        def h(x):
            r = np.linalg.norm(x)
            return np.exp(1j * k * r) / r

        for _ in range(10):
            y = rng.normal(size=3)
            y *= rng.uniform(0.5, 1.5) / np.linalg.norm(y)
            hess = hessian_radial(k, y)
            fd = np.zeros((3, 3), complex)
            for i in range(3):
                for j in range(3):
                    ei, ej = np.zeros(3), np.zeros(3)
                    ei[i], ej[j] = step, step
                    fd[i, j] = (h(y + ei + ej) - h(y + ei - ej) - h(y - ei + ej) + h(y - ei - ej)) / (
                        4.0 * step**2
                    )
            assert np.abs(hess - fd).max() / np.abs(hess).max() < 1e-6


class TestGreenTensor:
    def test_symmetry_and_evenness(self):
        y = np.random.default_rng(2).normal(size=(5, 3))
        g = green_kernel(y, RHO, MU, LAM, omega=3.0)
        assert np.allclose(g, np.swapaxes(g, 1, 2))
        assert np.allclose(g, green_kernel(-y, RHO, MU, LAM, omega=3.0))

    def test_split_consistency(self):
        y = np.array([0.4, 0.8, -0.3])
        omega = 3.0
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, omega)
        r = np.linalg.norm(y)
        g_a = np.exp(1j * k.k_s * r) / (4.0 * math.pi * THETA_S**2 * r)
        hess = (hessian_radial(k.k_s, y) - hessian_radial(k.k_p, y)) / (4.0 * math.pi)
        assembled = g_a * np.eye(3) + hess / omega**2
        (g,) = green_kernel(y[None], RHO, MU, LAM, omega)
        assert np.abs(g - assembled).max() / np.abs(g).max() < 1e-12

    def test_pde_residual(self):
        # -rho w^2 (G e) - mu Lap(G e) - (lam + mu) grad div (G e) = 0 away
        # from the source, checked with 4th-order stencils
        omega = 3.0
        e = np.array([1.0, 0.5, -0.2])

        def u(x):
            return green_kernel(x[None], RHO, MU, LAM, omega)[0] @ e

        def fd4(fun, x, i, step):
            ei = np.zeros(3)
            ei[i] = step
            return (-fun(x + 2 * ei) + 8 * fun(x + ei) - 8 * fun(x - ei) + fun(x - 2 * ei)) / (
                12 * step
            )

        rng = np.random.default_rng(3)
        step = 0.008
        for _ in range(5):
            x = rng.normal(size=3)
            x *= rng.uniform(0.8, 1.5) / np.linalg.norm(x)
            lap = np.zeros(3, complex)
            for i in range(3):
                ei = np.zeros(3)
                ei[i] = step
                lap += (
                    -u(x + 2 * ei) + 16 * u(x + ei) - 30 * u(x) + 16 * u(x - ei) - u(x - 2 * ei)
                ) / (12 * step**2)

            def div_u(z):
                return np.array([sum(fd4(u, z, i, step)[i] for i in range(3))])

            grad_div = np.array([fd4(div_u, x, i, step)[0] for i in range(3)])
            residual = -RHO * omega**2 * u(x) - MU * lap - (LAM + MU) * grad_div
            scale = max(
                np.abs(RHO * omega**2 * u(x)).max(),
                np.abs(MU * lap).max(),
                np.abs((LAM + MU) * grad_div).max(),
            )
            assert np.abs(residual).max() / scale < 1e-4


KERNELS = ["scalar", "elastic"]


def kernel_values(z, omega, kernel):
    """A kernel at offsets z (M, 3): (M,) for the acoustic kernel, (M, 3, 3)
    for the elastic Hessian."""
    if kernel == "scalar":
        return greens._scalar_kernel(np.linalg.norm(z, axis=-1), RHO, MU, LAM, omega)
    return hessian_kernel(z, greens.WaveNumbers.from_material(RHO, MU, LAM, omega))


SELF_INTEGRALS = {"scalar": greens._scalar_self_integral, "elastic": greens._elastic_self_integral}


def fft_apply(grid, values, omega, kernel):
    """The package's same-grid convolution of values (N, 3) with a kernel."""
    table, self_cell = greens._kernel_table(grid, RHO, MU, LAM, omega)[KERNELS.index(kernel)]
    (u,) = greens._convolve(grid, values, [(greens._kernel_spectrum(table), self_cell)])
    return u


def oracle_apply(nodes, h, values, omega, kernel):
    """The same convolution by the pairwise oracle."""
    return pairwise(
        nodes, h, values,
        lambda z: kernel_values(z, omega, kernel),
        lambda a: SELF_INTEGRALS[kernel](a, RHO, MU, LAM, omega),
    )


def total_apply(nodes, h, values, omega):
    """Convolution with the full tensor G by the pairwise oracle, omega > 0;
    the self cell integrates G = g_a I + Hess(G^E)/omega^2 term by term."""
    return pairwise(
        nodes, h, values,
        lambda z: green_kernel(z, RHO, MU, LAM, omega),
        lambda a: (
            greens._scalar_self_integral(a, RHO, MU, LAM, omega)
            + greens._elastic_self_integral(a, RHO, MU, LAM, omega) / omega**2
        ),
    )


class TestConvolution:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_source(self, kernel):
        grid = greens.ball_grid(1.0, 8)
        u = fft_apply(grid, np.zeros((grid.nodes.shape[0], 3), complex), 2.0, kernel)
        assert np.abs(u).max() == 0.0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_linearity(self, kernel):
        grid = greens.ball_grid(1.0, 8)
        fn1, fn2 = greens.random_ball_sources(1.0, 2, seed=5)
        f1, f2 = fn1(grid.nodes), fn2(grid.nodes)
        u1 = fft_apply(grid, f1, 2.0, kernel)
        u2 = fft_apply(grid, f2, 2.0, kernel)
        u12 = fft_apply(grid, 2.0 * f1 + f2, 2.0, kernel)
        assert np.abs(u12 - 2.0 * u1 - u2).max() / np.abs(u12).max() < 1e-13

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("omega", [0.0, 2.0, 7.0])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fft_path_matches_pairwise_oracle(self, kernel, omega, n):
        # odd and even n, omega = 0 where the elastic kernel vanishes
        # identically, and omega = 7 where several wavelengths fit the ball
        grid = greens.ball_grid(1.0, n)
        (fn,) = greens.random_ball_sources(1.0, 1, seed=11)
        values = fn(grid.nodes)
        u_fft = fft_apply(grid, values, omega, kernel)
        u_pair = oracle_apply(grid.nodes, grid.h, values, omega, kernel)
        assert np.abs(u_fft - u_pair).max() <= 1e-12 * np.abs(u_pair).max()

    def test_grid_weights_are_cell_volumes(self):
        grid = greens.ball_grid(1.0, 12)
        # weights sum exactly to the volume of the union of included cells
        assert np.sum(grid.weights) == pytest.approx(grid.weights.size * grid.h**3, rel=1e-14)
        # which approximates the ball volume
        assert np.sum(grid.weights) == pytest.approx(4.0 * math.pi / 3.0, rel=0.05)

    @pytest.mark.parametrize("kernel", KERNELS + ["green"])
    def test_rotation_covariance(self, kernel):
        # rotating source values and nodes rotates the field
        grid = greens.ball_grid(1.0, 6)
        (fn,) = greens.random_ball_sources(1.0, 1, seed=7)
        values = fn(grid.nodes)
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        if kernel == "green":
            u = total_apply(grid.nodes, grid.h, values, 2.0)
            u_rot = total_apply(grid.nodes @ rot.T, grid.h, values @ rot.T, 2.0)
        else:
            u = oracle_apply(grid.nodes, grid.h, values, 2.0, kernel)
            u_rot = oracle_apply(grid.nodes @ rot.T, grid.h, values @ rot.T, 2.0, kernel)
        assert np.abs(u_rot - u @ rot.T).max() / np.abs(u).max() < 1e-12

    def test_two_grid_consistency_constant_source(self):
        # constant source on B_{ell/2}: the response per unit load agrees
        # within 2% between a 16^3 and a 24^3 grid (the staircase sampling
        # of the discontinuous support shifts the raw load strength by more,
        # so consistency is measured on the normalized response, as in the
        # bound ratio)
        def fn(x):
            inside = np.linalg.norm(x, axis=1) <= 0.5
            out = np.zeros((x.shape[0], 3), complex)
            out[inside] = np.array([1.0, 0.5, -0.25])
            return out

        grids = [greens.ball_grid(1.0, n) for n in (16, 24)]
        (coarse,), (fine,) = greens.verify_fundamental_sweep(grids, [fn], RHO, MU, LAM, 2.0)
        assert abs(coarse.ratio - fine.ratio) / fine.ratio < 0.02


def full_lattice_table(grid, kernel, omega):
    """The kernel evaluated directly on every offset of the wrapped (2n)^3
    lattice, as a 3x3 tensor per point: (m, m, m) or (3, 3, m, m, m)."""
    n, m = grid.n, 2 * grid.n
    j = np.arange(m)
    offs = np.where(j < n, j, j - m) * grid.h
    z = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
    z[0] = (grid.h, 0.0, 0.0)
    table = kernel_values(z, omega, kernel)
    table[0] = 0.0
    return np.moveaxis(table, 0, -1).reshape(table.shape[1:] + (m, m, m))


class TestKernelTable:
    @pytest.mark.parametrize("n", [6, 7, 16])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mirrored_table_matches_full_lattice(self, kernel, n):
        # the octant mirrored with the tensor parities equals a direct
        # evaluation at every reachable offset; the index-n planes are zero;
        # the self cell is the integral over the ball of a cell's volume
        grid = greens.ball_grid(1.0, n)
        table, self_cell = greens._kernel_table(grid, RHO, MU, LAM, 2.0)[KERNELS.index(kernel)]
        full = full_lattice_table(grid, kernel, 2.0)
        if kernel != "scalar":
            full = full[0, :2]  # the tabulated components 00 and 01
        assert table.shape == full.shape
        keep = np.arange(2 * n) != n
        reach = (Ellipsis, keep[:, None, None] & keep[None, :, None] & keep[None, None, :])
        scale = np.abs(full[reach]).max(axis=-1, keepdims=True)
        assert np.all(np.abs(table[reach] - full[reach]) <= 1e-14 * scale)
        for axis in (-3, -2, -1):
            assert not np.any(np.take(table, n, axis=axis))
        radius = (3.0 * grid.h**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
        assert self_cell == SELF_INTEGRALS[kernel](radius, RHO, MU, LAM, 2.0)

    @pytest.mark.parametrize("n", [7, 9, 16, 21])
    @pytest.mark.parametrize("omega", [0.0, 0.3, 2.0, 7.0])
    def test_octant_holds_the_bits_of_the_kernel_functions(self, omega, n):
        # the table's non-negative octant is exactly _scalar_kernel and
        # H_00, H_01 of the reference hessian_kernel at those offsets, origin
        # zeroed; omega = 0.3 puts the small offsets on the series branch
        grid = greens.ball_grid(1.0, n)
        (acoustic, _), (hessian, _) = greens._kernel_table(grid, RHO, MU, LAM, omega)
        offs = np.arange(n) * grid.h
        z = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
        z[0] = (grid.h, 0.0, 0.0)
        want_acoustic = kernel_values(z, omega, "scalar")
        want_hessian = kernel_values(z, omega, "elastic")[:, 0, :2]
        want_acoustic[0] = want_hessian[0] = 0.0
        assert np.array_equal(acoustic[:n, :n, :n].ravel(), want_acoustic)
        assert np.array_equal(hessian[:, :n, :n, :n].reshape(2, -1).T, want_hessian)

    def test_evaluator_sees_n_cubed_points(self, monkeypatch):
        # one octant of radii feeds both kernels
        log = []
        for name in ("_scalar_kernel", "_hessian_coefficients"):
            real = getattr(greens, name)

            def spy(r, *args, real=real, name=name):
                log.append((name, np.shape(r)))
                return real(r, *args)

            monkeypatch.setattr(greens, name, spy)
        greens._kernel_table(greens.ball_grid(1.0, 7), RHO, MU, LAM, 2.0)
        assert sorted(log) == [("_hessian_coefficients", (7**3,)), ("_scalar_kernel", (7**3,))]

    @pytest.mark.parametrize("n", [6, 7, 16])
    def test_permuted_spectra_match_transformed_components(self, n):
        # the two transformed spectra and their four transposed copies equal
        # the FFTs of the nine components evaluated directly on the lattice
        # (index-n planes zeroed: no n-grid reaches them, and the table
        # holds zero there)
        grid = greens.ball_grid(1.0, n)
        (_, (table, _)) = greens._kernel_table(grid, RHO, MU, LAM, 2.0)
        rows = greens._kernel_spectrum(table)
        keep = np.arange(2 * n) != n
        full = full_lattice_table(grid, "elastic", 2.0) * (
            keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
        )
        for a in range(3):
            assert [b for b, _ in rows[a]] == [0, 1, 2]
            for b, spectrum in rows[a]:
                want = np.fft.fftn(full[a, b])
                assert spectrum.flags.c_contiguous
                assert np.abs(spectrum - want).max() <= 1e-14 * np.abs(want).max()

    def test_six_spectrum_contraction_matches_einsum(self):
        # each row of a symmetric tensor held as its six components, summed
        # in place, against the full 3x3 contraction; a scalar row is one
        # exact product
        rng = np.random.default_rng(3)
        shape = (5, 6, 7)
        six = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        s_hat = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)
        nine = np.empty((3, 3) + shape, dtype=complex)
        for q, (a, b) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
            nine[a, b] = nine[b, a] = six[q]
        want = np.einsum("ijabc,jabc->iabc", nine, s_hat)
        out, tmp = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        for a in range(3):
            got = greens._contract([(b, nine[a, b]) for b in range(3)], s_hat, out, tmp)
            assert got is out
            assert np.abs(got - want[a]).max() <= 1e-14 * np.abs(want).max()
            scalar = greens._contract([(a, six[0])], s_hat, out, tmp)
            assert np.array_equal(scalar, six[0] * s_hat[a])


class TestSelfCell:
    @pytest.mark.parametrize("ka", [1e-3, 0.3, 0.99, 1.01, 5.0, 15.5, 40.0])
    def test_ball_integrals_match_quadrature(self, ka):
        # scalar: int_0^a r e^{i k_s r} dr / theta_s^2; elastic, by the
        # Helmholtz equations: tr Hess G^E = (k_p^2 e^{i k_p r} - k_s^2 e^{i k_s r})/(4 pi r),
        # so the isotropic integral is int_0^a r (k_p^2 e^{i k_p r} - k_s^2 e^{i k_s r}) dr / 3
        a = 0.1
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, 1.0)
        omega = ka / (k.k_s * a)
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, omega)

        def radial(fn):
            re = quad(lambda r: fn(r).real, 0.0, a, epsabs=0.0, epsrel=1e-12, limit=500)[0]
            im = quad(lambda r: fn(r).imag, 0.0, a, epsabs=0.0, epsrel=1e-12, limit=500)[0]
            return re + 1j * im

        scalar = radial(lambda r: r * np.exp(1j * k.k_s * r)) / THETA_S**2
        elastic = radial(
            lambda r: r * (k.k_p**2 * np.exp(1j * k.k_p * r) - k.k_s**2 * np.exp(1j * k.k_s * r))
        ) / 3.0
        got_s = greens._scalar_self_integral(a, RHO, MU, LAM, omega)
        got_e = greens._elastic_self_integral(a, RHO, MU, LAM, omega)
        assert abs(got_s - scalar) <= 1e-10 * abs(scalar)
        assert abs(got_e - elastic) <= 1e-10 * abs(elastic)

    @pytest.mark.parametrize("scale", [1e-13, 1e-40, 1e13])
    def test_series_depend_on_k_times_length_only(self, scale):
        # lengths scaled by s and wavenumbers by 1/s: the self integrals
        # scale as s^2 and 1, the near-field Hessian coefficients as 1/s^3
        a, omega = 0.05, 2.0
        r = np.array([np.linalg.norm([0.01, 0.02, -0.015]), 1e-5])
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, omega)
        ks = greens.WaveNumbers.from_material(RHO, MU, LAM, omega / scale)
        pairs = [
            (greens._scalar_self_integral(a * scale, RHO, MU, LAM, omega / scale) / scale**2,
             greens._scalar_self_integral(a, RHO, MU, LAM, omega)),
            (greens._elastic_self_integral(a * scale, RHO, MU, LAM, omega / scale),
             greens._elastic_self_integral(a, RHO, MU, LAM, omega)),
            (np.array(greens._hessian_coefficients(r * scale, ks)) * scale**3,
             np.array(greens._hessian_coefficients(r, k))),
        ]
        for got, want in pairs:
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


class TestClosedFormsMatchMpmath:
    @pytest.mark.parametrize("lam_ratio", [0.0, 1.0, 1e4, 1e8])
    def test_closed_forms_match_mpmath(self, lam_ratio):
        # the acoustic kernel, the ball moment F and both self integrals
        # against their closed forms at 50 digits, for k_s a on both sides
        # of the |w| = 1 switch between F's series and closed form.  The
        # oracle starts from the phases k a as rounded to double, the
        # arguments every double evaluation starts from: rounding k a itself
        # costs up to |k a| eps/2 of relative accuracy, whatever the formula
        a, lam = 0.1, lam_ratio * MU
        for ka in np.geomspace(1e-8, 1e3, 45):
            omega = ka * THETA_S / a
            k = greens.WaveNumbers.from_material(RHO, MU, lam, omega)
            with mp.workdps(50):
                theta2, ra = mp.mpf(MU) / mp.mpf(RHO), mp.mpf(a)
                xs, xp = mp.mpc(0.0, k.k_s * a), mp.mpc(0.0, k.k_p * a)

                def moment(w):
                    return (mp.exp(w) * (w - 1) + 1) / w**2

                pairs = [
                    (greens._scalar_kernel(a, RHO, MU, lam, omega),
                     mp.exp(xs) / (4 * mp.pi * theta2 * ra)),
                    (greens._ball_moment(1j * k.k_s * a), moment(xs)),
                    (greens._scalar_self_integral(a, RHO, MU, lam, omega), ra**2 * moment(xs) / theta2),
                    (greens._elastic_self_integral(a, RHO, MU, lam, omega),
                     (xs**2 * moment(xs) - xp**2 * moment(xp)) / 3),
                ]
                for name, (got, want) in zip(("kernel", "moment", "scalar", "elastic"), pairs):
                    want = complex(want)
                    assert abs(got - want) <= 2e-15 * abs(want), (name, ka)


def verify_one(ell, n, seed, rho, mu, lam, omega):
    """The report of one random source on an n-grid."""
    sources = greens.random_ball_sources(ell, 1, seed=seed)
    ((report,),) = greens.verify_fundamental_sweep([greens.ball_grid(ell, n)], sources, rho, mu, lam, omega)
    return report


class TestVerifyFundamental:
    def test_low_frequency_ratio_small(self):
        rep = verify_one(1.0, 10, 8, RHO, MU, LAM, omega=1e-3)
        assert rep.ratio < 0.1
        assert rep.bound >= 4.0
        assert rep.slack >= 0.0

    def test_static_limit_trivial(self):
        # the omega^2 prefactor kills the ratio at zero frequency while the
        # bound keeps its constant term
        rep = verify_one(1.0, 8, 8, RHO, MU, LAM, omega=0.0)
        assert rep.kappa_s == 0.0
        assert rep.ratio == 0.0
        assert rep.bound == 4.0
        assert rep.slack >= 0.0

    def test_unit_kappa_within_bound(self):
        ell = 1.0
        omega = THETA_S / ell  # kappa_s = 1
        rep = verify_one(ell, 12, 9, RHO, MU, LAM, omega)
        assert rep.kappa_s == pytest.approx(1.0)
        assert rep.ratio <= 21.0
        assert max(rep.scalar_ratios) <= rep.scalar_bound * 1.02
        assert rep.elastic_ratio <= rep.elastic_bound * 1.02

    def test_incompressible_sweep_stays_bounded(self):
        for ratio in (1.0, 1e3):
            mu = 1.0
            lam = ratio * mu
            rep = verify_one(1.0, 10, 10, 1.0, mu, lam, omega=1.5)
            assert rep.slack >= 0.0

    def test_each_source_report_is_independent_of_the_others(self):
        # a source's report from a four-source sweep is bit for bit its
        # report from a sweep of that source alone
        grid = greens.ball_grid(1.0, 9)
        fns = greens.random_ball_sources(1.0, 4, seed=13)
        (reports,) = greens.verify_fundamental_sweep([grid], fns, RHO, MU, LAM, 2.0)
        assert len(reports) == 4
        for fn, rep in zip(fns, reports):
            ((alone,),) = greens.verify_fundamental_sweep([grid], [fn], RHO, MU, LAM, 2.0)
            assert rep == alone

    def test_every_fft_acts_on_one_lattice_array(self, monkeypatch):
        # nothing re-batches: every transform gets an array of at most three
        # axes, and each grid transforms its kernels three times (the scalar
        # kernel, H_00 and H_01), then three components per source
        calls = []
        for name in ("fftn", "ifft", "fft"):
            real = getattr(np.fft, name)

            def spy(a, *args, real=real, name=name, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        ns, n_sources = (8, 11), 3
        grids = [greens.ball_grid(1.0, n) for n in ns]
        fns = greens.random_ball_sources(1.0, n_sources, seed=14)
        greens.verify_fundamental_sweep(grids, fns, RHO, MU, LAM, 2.0)
        assert all(len(shape) <= 3 for _, shape in calls)
        forward = [shape for name, shape in calls if name == "fftn"]
        for n in ns:
            assert forward.count((2 * n,) * 3) == 3
            assert forward.count((n,) * 3) == 3 * n_sources
        assert len(forward) == len(ns) * (3 + 3 * n_sources)
        # six pruned inverses per source (two kernels, three components),
        # one axis at a time
        assert sum(name == "ifft" for name, _ in calls) == len(ns) * 6 * 3 * n_sources
        assert not any(name == "fft" for name, _ in calls)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("omega", [0.0, 2.0, 7.0])
    def test_sweep_batch_matches_pairwise_oracle(self, omega, n):
        # three sources through shared kernel spectra, against per-source
        # pairwise convolutions with each kernel; the total ratio is checked
        # against the full tensor G, not against the split verify applies
        grid = greens.ball_grid(1.0, n)
        fns = greens.random_ball_sources(1.0, 3, seed=12)
        (reports,) = greens.verify_fundamental_sweep([grid], fns, RHO, MU, LAM, omega)
        w = grid.weights[:, None]

        def norm(v, axis=None):
            return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=axis))

        for fn, rep in zip(fns, reports):
            f = fn(grid.nodes)
            u = {kern: oracle_apply(grid.nodes, grid.h, f, omega, kern) for kern in KERNELS}
            expected = {
                # omega^2 ||u|| vanishes at omega = 0, where the split is singular
                "ratio": (
                    omega**2 * norm(total_apply(grid.nodes, grid.h, f, omega)) / norm(f)
                    if omega > 0.0 else 0.0
                ),
                "elastic_ratio": norm(u["elastic"]) / norm(f),
            }
            for name, want in expected.items():
                assert abs(getattr(rep, name) - want) <= 1e-12 * want
            scalar = omega**2 * norm(u["scalar"], axis=0) / norm(f, axis=0)
            assert np.all(np.abs(np.array(rep.scalar_ratios) - scalar) <= 1e-12 * scalar)


    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reports_do_not_depend_on_the_worker_count(self, workers, monkeypatch):
        grids = [greens.ball_grid(1.0, n) for n in (9, 12)]
        fns = greens.random_ball_sources(1.0, 3, seed=15)
        want = greens.verify_fundamental_sweep(grids, fns, RHO, MU, LAM, 2.0)
        monkeypatch.setattr(greens, "worker_count", lambda *args: workers)
        assert greens.verify_fundamental_sweep(grids, fns, RHO, MU, LAM, 2.0) == want

    def test_one_worker_takes_the_grids_one_after_the_other(self, monkeypatch):
        # on one thread a grid's tables are made, in one call, after the
        # finer grid's last check, so one grid's spectra are held at a time
        log = []
        for name in ("_kernel_table", "_convolve"):
            real = getattr(greens, name)

            def spy(grid, *args, real=real, name=name):
                log.append((name, grid.n))
                return real(grid, *args)

            monkeypatch.setattr(greens, name, spy)
        grids = [greens.ball_grid(1.0, n) for n in (8, 11)]
        greens.verify_fundamental_sweep(grids, greens.random_ball_sources(1.0, 2, seed=17),
                                        RHO, MU, LAM, 2.0, workers=1)
        assert log == [("_kernel_table", 11)] + [("_convolve", 11)] * 2 + [
            ("_kernel_table", 8)] + [("_convolve", 8)] * 2

    def test_kernels_are_evaluated_on_the_calling_thread(self, monkeypatch):
        # the benchmark's tracer wraps _kernel_table and keeps one span
        # stack; each grid's octant of radii is evaluated once, there, and
        # each coefficient function is called once per grid, with the octant
        log = []
        for name in ("_kernel_table", "_scalar_kernel", "_hessian_coefficients"):
            real = getattr(greens, name)

            def spy(first, *args, real=real, name=name):
                size = first.n**3 if name == "_kernel_table" else np.size(first)
                log.append((name, size, threading.get_ident()))
                return real(first, *args)

            monkeypatch.setattr(greens, name, spy)
        monkeypatch.setattr(greens, "worker_count", lambda *args: 2)
        grids = [greens.ball_grid(1.0, n) for n in (8, 11)]
        greens.verify_fundamental_sweep(grids, greens.random_ball_sources(1.0, 3, seed=16),
                                        RHO, MU, LAM, 2.0)
        here = threading.get_ident()
        assert sorted(log) == [
            (name, n**3, here)
            for name in ("_hessian_coefficients", "_kernel_table", "_scalar_kernel")
            for n in (8, 11)
        ]


class TestRunParallel:
    @staticmethod
    def jobs(log, size):
        """Jobs that log their index when they run."""
        return [functools.partial(log.append, j) for j in range(size)]

    def test_one_worker_runs_the_jobs_in_order_on_the_calling_thread(self):
        log = []
        before = threading.active_count()
        greens._run_parallel(self.jobs(log, 5), 1)
        assert log == [0, 1, 2, 3, 4]
        assert threading.active_count() == before

    def test_two_workers_run_two_jobs_at_once(self):
        barrier = threading.Barrier(2, timeout=10.0)
        greens._run_parallel([barrier.wait, barrier.wait], 2)
        assert barrier.n_waiting == 0 and not barrier.broken

    def test_stress_every_job_runs_once(self):
        # more workers than cores and a short switch interval: a lost update
        # in taking jobs would run one twice or skip one
        log = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=greens._run_parallel,
                                      args=(self.jobs(log, 500), 8), daemon=True)
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(log) == list(range(500))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_stops_the_jobs_and_is_raised_after_the_threads_end(self, workers):
        log = []
        before = set(threading.enumerate())

        def fail():
            raise MemoryError

        jobs = self.jobs(log, 2) + [fail] + self.jobs(log, 50)
        with pytest.raises(MemoryError):
            greens._run_parallel(jobs, workers)
        assert set(threading.enumerate()) == before
        if workers == 1:  # nothing after the failing job starts
            assert log == [0, 1]
        else:  # the jobs taken before it still end
            assert {0, 1} <= set(log)


def quad_multiplier_entry(k, ell, xi):
    """The cos-transform entry by adaptive quadrature of its defining
    integrand, split at the cutoff kink r = 2 ell."""

    def integrand(r, part):
        es, ep = np.exp(1j * k.k_s * r), np.exp(1j * k.k_p * r)
        eta = 1.0 if r <= 2.0 * ell else (4.0 * ell - r) / (2.0 * ell)
        slope = 0.0 if r <= 2.0 * ell else -1.0 / (2.0 * ell)
        val = (slope * (es - ep) + eta * (1j * k.k_s * es - 1j * k.k_p * ep)) * np.cos(xi * r)
        return val.real if part == 0 else val.imag

    total = 0.0 + 0.0j
    for a, b in ((0.0, 2.0 * ell), (2.0 * ell, 4.0 * ell)):
        for part, unit in ((0, 1.0), (1, 1j)):
            v, _ = quad(integrand, a, b, args=(part,), epsabs=1e-13, epsrel=1e-12, limit=2000)
            total += unit * v
    return total


def mp_multiplier_entry(k_s, k_p, ell, xi):
    """The cos-transform entry in mpmath at the working precision, from the
    defining integrand rather than by parts: on each piece of the cutoff,
    d/dr[eta(r) e^{i k r}] is (alpha + beta r) e^{i k r}, and with
    cos(xi r) = (e^{i xi r} + e^{-i xi r})/2 every term is
    int (alpha + beta r) e^{c r} dr, c = i (k +- xi), in closed form."""
    k_s, k_p, ell, xi = (mp.mpf(v) for v in (k_s, k_p, ell, xi))

    def piece(alpha, beta, c, a, b):
        if c == 0:
            return alpha * (b - a) + beta * (b**2 - a**2) / 2

        def antiderivative(r):
            return mp.exp(c * r) * ((alpha + beta * r) / c - beta / c**2)

        return antiderivative(b) - antiderivative(a)

    total = 0
    for k, sign in ((k_s, 1), (k_p, -1)):
        for c in (1j * (k + xi), 1j * (k - xi)):
            # eta = 1 on [0, 2 ell] and (4 ell - r)/(2 ell) on [2 ell, 4 ell]
            total += sign * (piece(1j * k, 0, c, 0, 2 * ell)
                             + piece(2j * k - 1 / (2 * ell), -1j * k / (2 * ell), c, 2 * ell, 4 * ell)) / 2
    return complex(total)


class TestFourierMultiplier:
    def test_equal_wavenumbers_vanish(self):
        k = greens.WaveNumbers(k_s=2.0, k_p=2.0, omega=1.0)
        val = greens.fourier_multiplier_entry(k, 1.0, 3.0)
        assert abs(val) < 1e-12

    def test_zero_xi_entry_vanishes(self):
        # the integrand is an exact derivative: eta(4l) = 0 and the kernel
        # difference vanishes at r = 0
        k = greens.WaveNumbers.from_material(1.0, 1.0, 1.0, 1.0)
        val = greens.fourier_multiplier_entry(k, 1.0, 0.0)
        assert abs(val) < 1e-10

    def test_unit_kappa_bound(self):
        k = greens.WaveNumbers.from_material(1.0, 1.0, 1.0, 1.0)  # k_s = 1
        m_hat = greens.fourier_multiplier_norm(k, 1.0, xi_grid=np.linspace(0.0, 20.0, 161))
        assert m_hat <= 2.0 + 8.0 * 1.0

    @pytest.mark.parametrize(
        "lam_ratio, omega, ell, xi",
        [
            (1.0, 2.0, 1.0, "k_s"),      # the default grid hits xi = k_s: c = 0
            (1.0, 2.0, 1.0, "k_p"),
            (1.0, 2.0, 1.0, 7.3),
            (0.0, 0.5, 1.0, 1.9),
            (1e3, 1.0, 1.0, "k_p"),      # small k_p
            (1e3, 1.0, 0.5, 0.01),       # |k_p +- xi| 4 ell < 0.1: series branch
            (1e3, 4.0, 2.0, 11.0),
        ],
    )
    def test_closed_form_matches_quadrature(self, lam_ratio, omega, ell, xi):
        k = greens.WaveNumbers.from_material(1.0, 1.0, lam_ratio, omega)
        xi = {"k_s": k.k_s, "k_p": k.k_p}.get(xi, xi)
        ref = quad_multiplier_entry(k, ell, xi)
        val = greens.fourier_multiplier_entry(k, ell, xi)
        assert abs(val - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("lam_ratio", [0.0, 1.0, 1e4, 1e8])
    def test_closed_form_matches_mpmath(self, lam_ratio):
        # k_s ell from 1e-8 to 1e3 and xi near k_s put the pieces on both
        # sides of _SERIES_CUTOFF.  An entry is read against its bound
        # 2 + 8 k_s ell and is held to 2.5e-15 of it; the worst error
        # measured is 1.97e-15 (lambda/mu = 0, k_s ell = 31.6, xi = 0.999 k_s).
        # Relative to the entries themselves the closed form is no better than
        # an absolute eps: at k_s ell = 1e-8 they are ~1e-26 and read ~2% off
        for kl in np.geomspace(1e-8, 1e3, 23):
            k = greens.WaveNumbers.from_material(1.0, 1.0, lam_ratio, kl)
            xi = np.concatenate([[0.0], np.geomspace(0.01, 20.0, 12), [0.999, 1.0, 1.001]]) * k.k_s
            xi = np.append(xi, k.k_p)
            got = greens.fourier_multiplier_entry(k, 1.0, xi)
            with mp.workdps(50):
                want = np.array([mp_multiplier_entry(k.k_s, k.k_p, 1.0, x) for x in xi])
            assert np.abs(got - want).max() <= 2.5e-15 * (2.0 + 8.0 * k.k_s), kl

    @pytest.mark.parametrize(
        "k, xi",
        [
            (greens.WaveNumbers.from_material(1.0, 1.0, 1.0, 2.0), 0.0),
            (greens.WaveNumbers(k_s=1.5, k_p=1.5, omega=1.5), 1.5),
        ],
    )
    def test_vanishing_entries_match_quadrature(self, k, xi):
        # xi = 0 (an exact derivative) and k_s = k_p (no kernel difference)
        assert abs(quad_multiplier_entry(k, 1.0, xi)) < 1e-12
        assert greens.fourier_multiplier_entry(k, 1.0, xi) == 0.0

    def test_vectorised_entries_match_scalar_calls(self):
        k = greens.WaveNumbers.from_material(1.0, 1.0, 3.0, 2.0)
        xi = np.linspace(0.0, 40.0, 17)
        vals = greens.fourier_multiplier_entry(k, 1.0, xi)
        assert vals.shape == xi.shape
        scale = np.abs(vals).max()
        for x, v in zip(xi, vals):
            # array and scalar exp may round differently in the last bit
            assert abs(greens.fourier_multiplier_entry(k, 1.0, float(x)) - v) <= 1e-14 * scale
