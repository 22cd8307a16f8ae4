import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from elastab import greens
from elastab.errors import SingularityError
from greens_oracle import pairwise

RHO, MU, LAM = 1.3, 2.0, 5.0
THETA_S = math.sqrt(MU / RHO)


def poisson_form_kelvin(y, rho, mu, lam):
    """Independent Kelvin oracle in the classical Poisson-ratio form:
    rho/(16 pi mu (1-nu)) [ (3-4nu) delta/r + y y /r^3 ]."""
    nu = lam / (2.0 * (lam + mu))
    r = np.linalg.norm(y)
    pref = rho / (16.0 * math.pi * mu * (1.0 - nu))
    return pref * ((3.0 - 4.0 * nu) * np.eye(3) / r + np.outer(y, y) / r**3)


class TestScalarKernels:
    def test_static_limit(self):
        y = np.array([[0.3, -0.4, 0.5]])
        r = np.linalg.norm(y)
        (g_a,) = greens._scalar_kernel(y, RHO, MU, LAM, 0.0)
        assert g_a == pytest.approx(1.0 / (4.0 * math.pi * THETA_S**2 * r))

    def test_unit_wavenumber_at_pi(self):
        # omega = theta_s puts k_s at 1
        y = np.array([[math.pi, 0.0, 0.0]])
        (g_a,) = greens._scalar_kernel(y, RHO, MU, LAM, THETA_S)
        assert g_a == pytest.approx(-1.0 / (4.0 * math.pi**2 * THETA_S**2))

    def test_equal_wavenumbers_kill_difference(self):
        # G^E = (e^{i k_s r} - e^{i k_p r})/(4 pi r) vanishes, and its
        # Hessian with it, on both the series and the closed-form branch
        k = greens.WaveNumbers(k_s=2.0, k_p=2.0, omega=1.0)
        y = np.random.default_rng(0).normal(size=(5, 3))
        y = np.concatenate([y, 1e-3 * y])
        assert np.abs(greens.elastic_hessian_kernel(y, k)).max() == 0.0

    def test_difference_kernel_small_r_limit(self):
        # G^E = (1/4pi) [i (k_s - k_p) - (k_s^2 - k_p^2) r / 2 + O(r^2)], and
        # Hess(r) = (I - yhat yhat)/r
        k = greens.WaveNumbers(k_s=2.0, k_p=1.0, omega=1.0)
        r = 1e-9
        y = np.array([[r, 0.0, 0.0]])
        (got,) = greens.elastic_hessian_kernel(y, k)
        want = -(2.0**2 - 1.0**2) / (8.0 * math.pi * r) * np.diag([0.0, 1.0, 1.0])
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1e4, 1e8])
    def test_elastic_hessian_entries_match_mpmath(self, lam):
        # on y = r e_x the kernel is diag(g'', g'/r, g'/r)/(4 pi) for
        # g = (e^{i k_s r} - e^{i k_p r})/r; mpmath differentiates g at 60
        # digits.  The series branch (k_s r < 0.1) holds both entries to
        # 1e-14; the closed form loses ~ 1/(k r)^2 of a rounding just above
        # its cutoff
        k = greens.WaveNumbers.from_material(1.0, 1.0, lam, 3.0)
        ks, kp = mp.mpf(k.k_s), mp.mpf(k.k_p)

        def g(r):
            return (mp.exp(1j * ks * r) - mp.exp(1j * kp * r)) / r

        series = np.geomspace(1e-8, 0.099, 15)
        closed = np.array([0.1, 0.101, 0.15, 0.3, 1.0, 3.0, 10.0, 30.0])
        for ksr, tol in [(series, 1e-14), (closed, 2e-12)]:
            r = ksr / k.k_s
            hess = 4.0 * math.pi * greens.elastic_hessian_kernel(r[:, None] * np.eye(3)[0], k)
            for x, got in zip(r, hess):
                with mp.workdps(60):
                    radial = complex(mp.diff(g, mp.mpf(x), 2))
                    transverse = complex(mp.diff(g, mp.mpf(x), 1) / x)
                assert abs(got[0, 0] - radial) <= tol * abs(radial), (lam, x * k.k_s)
                assert abs(got[1, 1] - transverse) <= tol * abs(transverse), (lam, x * k.k_s)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda y: greens.hessian_radial(1.0, y),
            lambda y: greens.elastic_hessian_kernel(y, greens.WaveNumbers.from_material(RHO, MU, LAM, 2.0)),
            lambda y: greens.green_tensor(y, RHO, MU, LAM, 2.0),
            lambda y: greens.green_tensor(y, RHO, MU, LAM, 0.0),
        ],
        ids=["hessian_radial", "elastic_hessian_kernel", "green_tensor", "kelvin_tensor"],
    )
    def test_origin_raises(self, evaluate):
        y = np.array([[0.3, -0.4, 0.5], [0.0, 0.0, 0.0]])
        with pytest.raises(SingularityError):
            evaluate(y)


class TestHessianRadial:
    def test_harmonic_identity_at_zero_wavenumber(self):
        y = np.array([0.7, -0.3, 0.5])
        r = np.linalg.norm(y)
        yhat = y / r
        expected = (3.0 * np.outer(yhat, yhat) - np.eye(3)) / r**3
        assert np.allclose(greens.hessian_radial(0.0, y), expected, atol=1e-14)

    def test_axis_symmetry(self):
        h = greens.hessian_radial(2.0, np.array([0.9, 0.0, 0.0]))
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
            hess = greens.hessian_radial(k, y)
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
        rng = np.random.default_rng(2)
        for _ in range(5):
            y = rng.normal(size=3)
            g = greens.green_tensor(y, RHO, MU, LAM, omega=3.0)
            assert np.allclose(g, g.T)
            assert np.allclose(g, greens.green_tensor(-y, RHO, MU, LAM, omega=3.0))

    def test_split_consistency(self):
        y = np.array([0.4, 0.8, -0.3])
        omega = 3.0
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, omega)
        r = np.linalg.norm(y)
        g_a = np.exp(1j * k.k_s * r) / (4.0 * math.pi * THETA_S**2 * r)
        hess = (greens.hessian_radial(k.k_s, y) - greens.hessian_radial(k.k_p, y)) / (4.0 * math.pi)
        assembled = g_a * np.eye(3) + hess / omega**2
        g = greens.green_tensor(y, RHO, MU, LAM, omega)
        assert np.abs(g - assembled).max() / np.abs(g).max() < 1e-12

    def test_pde_residual(self):
        # -rho w^2 (G e) - mu Lap(G e) - (lam + mu) grad div (G e) = 0 away
        # from the source, checked with 4th-order stencils
        omega = 3.0
        e = np.array([1.0, 0.5, -0.2])

        def u(x):
            return greens.green_tensor(x, RHO, MU, LAM, omega) @ e

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

    def test_zero_frequency_is_kelvin(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = rng.normal(size=3)
            g = greens.green_tensor(y, RHO, MU, LAM, omega=0.0)
            oracle = poisson_form_kelvin(y, RHO, MU, LAM)
            assert np.abs(g - oracle).max() / np.abs(oracle).max() < 1e-12

    def test_low_frequency_continuity(self):
        # real part approaches the static tensor like (k_s r)^2
        y = np.array([0.7, -0.3, 0.5])
        g = greens.green_tensor(y, RHO, MU, LAM, omega=1e-3)
        k0 = greens.kelvin_tensor(y, RHO, MU, LAM)
        assert np.abs(g.real - k0.real).max() / np.abs(k0).max() < 1e-5


def fft_apply(grid, values, omega, kernel):
    """The package's same-grid convolution of values (N, 3) with a kernel."""
    values = values[:, :, None]
    spectrum = greens._source_spectrum(grid, values)
    return greens._apply_kernel(grid, values, spectrum, RHO, MU, LAM, omega, kernel)[:, :, 0]


def oracle_apply(nodes, h, values, omega, kernel):
    """The same convolution by the pairwise oracle."""
    entry = greens._KERNELS[kernel]
    return pairwise(
        nodes, h, values,
        lambda z: entry.evaluate(z, RHO, MU, LAM, omega),
        lambda a: entry.self_integral(a, RHO, MU, LAM, omega),
    )


def total_apply(nodes, h, values, omega):
    """Convolution with the full tensor G by the pairwise oracle, omega > 0;
    the self cell integrates G = g_a I + Hess(G^E)/omega^2 term by term."""
    return pairwise(
        nodes, h, values,
        lambda z: greens.green_tensor(z, RHO, MU, LAM, omega),
        lambda a: (
            greens._scalar_self_integral(a, RHO, MU, LAM, omega)
            + greens._elastic_self_integral(a, RHO, MU, LAM, omega) / omega**2
        ),
    )


KERNELS = ["scalar", "elastic"]


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

        omega = 2.0
        ratios = []
        for n in (16, 24):
            grid = greens.ball_grid(1.0, n)
            values = fn(grid.nodes)[:, :, None]
            ratios.append(greens.verify_fundamental_sweep(grid, values, RHO, MU, LAM, omega)[0].ratio)
        assert abs(ratios[0] - ratios[1]) / ratios[1] < 0.02


def full_lattice_table(grid, kernel, omega):
    """The kernel evaluated directly on every offset of the wrapped (2n)^3
    lattice, as a 3x3 tensor per point: (m, m, m) or (3, 3, m, m, m)."""
    n, m = grid.n, 2 * grid.n
    j = np.arange(m)
    offs = np.where(j < n, j, j - m) * grid.h
    z = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 3)
    z[0] = (grid.h, 0.0, 0.0)
    table = greens._KERNELS[kernel].evaluate(z, RHO, MU, LAM, omega)
    table[0] = 0.0
    return np.moveaxis(table, 0, -1).reshape(table.shape[1:] + (m, m, m))


class TestKernelTable:
    @pytest.mark.parametrize("n", [6, 7, 16])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mirrored_table_matches_full_lattice(self, kernel, n):
        # the octant mirrored with the tensor parities equals a direct
        # evaluation at every reachable offset; the index-n planes are zero
        grid = greens.ball_grid(1.0, n)
        table = greens._kernel_table(grid, RHO, MU, LAM, 2.0, kernel)
        full = full_lattice_table(grid, kernel, 2.0)
        if kernel != "scalar":
            full = full[greens._TENSOR_ROWS, greens._TENSOR_COLS]
        assert table.shape == full.shape
        keep = np.arange(2 * n) != n
        reach = (Ellipsis, keep[:, None, None] & keep[None, :, None] & keep[None, None, :])
        scale = np.abs(full[reach]).max(axis=-1, keepdims=True)
        assert np.all(np.abs(table[reach] - full[reach]) <= 1e-14 * scale)
        for axis in (-3, -2, -1):
            assert not np.any(np.take(table, n, axis=axis))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_evaluator_sees_n_cubed_points(self, kernel, monkeypatch):
        sizes = []
        real = greens._KERNELS[kernel]

        def counted(z, *args):
            sizes.append(z.shape[0])
            return real.evaluate(z, *args)

        monkeypatch.setitem(greens._KERNELS, kernel, greens._Kernel(counted, real.self_integral))
        greens._kernel_table(greens.ball_grid(1.0, 7), RHO, MU, LAM, 2.0, kernel)
        assert sizes == [7**3]

    def test_six_spectrum_contraction_matches_einsum(self):
        rng = np.random.default_rng(3)
        shape = (5, 6, 7)
        six = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        spectrum = rng.normal(size=(3, 2) + shape) + 1j * rng.normal(size=(3, 2) + shape)
        nine = np.empty((3, 3) + shape, dtype=complex)
        for q, (a, b) in enumerate(zip(greens._TENSOR_ROWS, greens._TENSOR_COLS)):
            nine[a, b] = nine[b, a] = six[q]
        want = np.einsum("ijabc,jsabc->isabc", nine, spectrum)
        got = greens._contract(six, spectrum)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        scalar = greens._contract(six[0], spectrum)
        assert np.array_equal(scalar, six[0] * spectrum)


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
        # scale as s^2 and 1, the near-field Hessian kernel as 1/s^3
        a, omega = 0.05, 2.0
        y = np.array([[0.01, 0.02, -0.015], [1e-5, 0.0, 0.0]])
        k = greens.WaveNumbers.from_material(RHO, MU, LAM, omega)
        ks = greens.WaveNumbers.from_material(RHO, MU, LAM, omega / scale)
        pairs = [
            (greens._scalar_self_integral(a * scale, RHO, MU, LAM, omega / scale) / scale**2,
             greens._scalar_self_integral(a, RHO, MU, LAM, omega)),
            (greens._elastic_self_integral(a * scale, RHO, MU, LAM, omega / scale),
             greens._elastic_self_integral(a, RHO, MU, LAM, omega)),
            (greens.elastic_hessian_kernel(y * scale, ks) * scale**3,
             greens.elastic_hessian_kernel(y, k)),
        ]
        for got, want in pairs:
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


def verify_one(ell, n, seed, rho, mu, lam, omega):
    """The report of one random source on an n-grid."""
    grid = greens.ball_grid(ell, n)
    (fn,) = greens.random_ball_sources(ell, 1, seed=seed)
    return greens.verify_fundamental_sweep(grid, fn(grid.nodes)[:, :, None], rho, mu, lam, omega)[0]


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

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("omega", [0.0, 2.0, 7.0])
    def test_sweep_batch_matches_pairwise_oracle(self, omega, n):
        # three sources through one source spectrum, against per-source
        # pairwise convolutions with each kernel; the total ratio is checked
        # against the full tensor G, not against the split verify applies
        grid = greens.ball_grid(1.0, n)
        fns = greens.random_ball_sources(1.0, 3, seed=12)
        values = np.stack([fn(grid.nodes) for fn in fns], axis=2)
        reports = greens.verify_fundamental_sweep(grid, values, RHO, MU, LAM, omega)
        w = grid.weights[:, None]

        def norm(v, axis=None):
            return np.sqrt(np.sum(w * np.abs(v) ** 2, axis=axis))

        for s, rep in enumerate(reports):
            f = values[:, :, s]
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
