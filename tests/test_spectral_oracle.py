"""Independent cross-check of the annulus probe.

For constant coefficients the elastic operator on the annulus separates
into angular Fourier modes; each mode is a 1D radial problem in the
physical components (u_r, u_theta):

    eps_rr = u_r',  eps_tt = (u_r + i m u_t)/r,
    eps_rt = (i m u_r / r + u_t' - u_t/r)/2,
    div    = u_r' + (u_r + i m u_t)/r,

with the impedance pairing a_N |u_r|^2 + a_T |u_t|^2 at r = ell and a
Dirichlet condition at r_in.  The resolvent norm of the 2D problem is the
max of the 1D mode norms.  This oracle shares nothing with the 2D code
path: polar coordinates, dense 1D quadratic elements, dense SVD.
"""

import math

import numpy as np
import pytest

from elastab import core, fem

R_IN, ELL = 0.5, 1.0


def _p2_line(n_el, a, b):
    """1D quadratic mesh on [a, b]: node coords, element connectivity."""
    nodes = np.linspace(a, b, 2 * n_el + 1)
    conn = np.array([[2 * e, 2 * e + 1, 2 * e + 2] for e in range(n_el)])
    return nodes, conn


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def _shape_1d(t):
    # quadratic shapes on [-1, 1] with nodes at -1, 0, 1
    n = np.stack([0.5 * t * (t - 1.0), 1.0 - t**2, 0.5 * t * (t + 1.0)], axis=1)
    dn = np.stack([t - 0.5, -2.0 * t, t + 0.5], axis=1)
    return n, dn


def _mode_operators(n_el, rho, mu, lam, a_t, a_n, m):
    nodes, conn = _p2_line(n_el, R_IN, ELL)
    n_nodes = nodes.size
    rows_n, rows_d, rvals, wvals = [], [], [], []
    shape_n, shape_dn = _shape_1d(_GAUSS_X)
    big_n = np.zeros((0, n_nodes))
    big_d = np.zeros((0, n_nodes))
    rq_all, wq_all = [], []
    for el in conn:
        x = nodes[el]
        jac = 0.5 * (x[2] - x[0])
        rq = shape_n @ x
        nq = np.zeros((4, n_nodes))
        dq = np.zeros((4, n_nodes))
        nq[:, el] = shape_n
        dq[:, el] = shape_dn / jac
        big_n = np.vstack([big_n, nq])
        big_d = np.vstack([big_d, dq])
        rq_all.append(rq)
        wq_all.append(_GAUSS_W * jac)
    rq = np.concatenate(rq_all)
    wq = np.concatenate(wq_all) * rq  # area measure r dr

    zero = np.zeros_like(big_n)
    inv_r = (1.0 / rq)[:, None]
    a_rr = np.hstack([big_d, zero]).astype(complex)
    a_tt = np.hstack([big_n * inv_r, 1j * m * big_n * inv_r])
    a_rt = np.hstack([0.5j * m * big_n * inv_r, 0.5 * (big_d - big_n * inv_r)])
    a_div = np.hstack([big_d + big_n * inv_r, 1j * m * big_n * inv_r])

    def gram(op, weight):
        return op.conj().T @ (weight[:, None] * op)

    k = 2.0 * mu * (gram(a_rr, wq) + gram(a_tt, wq) + 2.0 * gram(a_rt, wq)) + lam * gram(a_div, wq)
    n_op = np.hstack([big_n, zero]).astype(complex)
    t_op = np.hstack([zero, big_n]).astype(complex)
    mass = rho * (gram(n_op, wq) + gram(t_op, wq))

    robin = np.zeros((2 * n_nodes, 2 * n_nodes), dtype=complex)
    robin[n_nodes - 1, n_nodes - 1] = a_n * ELL
    robin[2 * n_nodes - 1, 2 * n_nodes - 1] = a_t * ELL
    # Dirichlet at r_in: first node of each component
    free = np.array([i for i in range(2 * n_nodes) if i not in (0, n_nodes)])
    return k, mass, robin, free


def mode_resolvent_norm(omega, rho, mu, lam, a_t, a_n, m, n_el=60):
    k, mass, robin, free = _mode_operators(n_el, rho, mu, lam, a_t, a_n, m)
    s = (k - omega**2 * mass - 1j * omega * robin)[np.ix_(free, free)]
    m_ff = mass[np.ix_(free, free)]
    chol = np.linalg.cholesky(m_ff)
    b = chol.conj().T @ np.linalg.solve(s, chol)
    return np.linalg.svd(b, compute_uv=False)[0]


def annulus_constant_oracle(kappa, lam_ratio=1.0, alpha=(1.0, 1.0), n_el=60):
    rho = mu = 1.0
    lam = lam_ratio * mu
    omega = kappa  # theta_s_min = ell = 1
    a_t, a_n = alpha[0] * math.sqrt(rho * mu), alpha[1] * math.sqrt(rho * mu)
    m_max = int(math.ceil(kappa)) + 14
    sig = max(
        mode_resolvent_norm(omega, rho, mu, lam, a_t, a_n, m, n_el) for m in range(m_max + 1)
    )
    return omega**2 * sig


class TestSpectralOracle:
    def test_matches_fem_probe_at_kappa_2(self):
        material = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1.0,))
        mesh = fem.resolution_mesh(cfg, 2.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=2.0).c_emp
        c_oracle = annulus_constant_oracle(2.0)
        assert abs(c_fem - c_oracle) / c_oracle < 0.01

    def test_matches_fem_probe_at_kappa_8(self):
        material = core.MaterialField.constant(1.0, 1.0, 1.0)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(8.0,), lambda_over_mu=(1.0,))
        mesh = fem.resolution_mesh(cfg, 8.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=8.0).c_emp
        c_oracle = annulus_constant_oracle(8.0)
        assert abs(c_fem - c_oracle) / c_oracle < 0.02

    def test_incompressible_limit_agrees(self):
        # 1D radial elements cannot lock: the oracle shows the constant is
        # uniform in lambda/mu to high accuracy (the maximizing response is
        # divergence-free), far inside the 1.25 budget of the probe
        cs = [annulus_constant_oracle(2.0, lam_ratio=r) for r in (1.0, 1e2, 1e4)]
        assert max(cs) / min(cs) < 1.0 + 1e-4
        # the 2D probe at lambda/mu = 1e4 sits a few percent below the true
        # value (mild volumetric locking underestimates, never overestimates)
        material = core.MaterialField.constant(1.0, 1.0, 1e4)
        robin = core.RobinSpec.shear_matched(material)
        cfg = fem.SweepConfig(kappa_s=(2.0,), lambda_over_mu=(1e4,), n_theta_min=48,
                              resolution_margin=2.0)
        mesh = fem.resolution_mesh(cfg, 2.0)
        c_fem = fem.empirical_constant(mesh, material, robin, omega=2.0).c_emp
        assert c_fem <= cs[-1] * 1.001
        assert c_fem >= cs[-1] * 0.92

    def test_oracle_confirms_crossover_slope(self):
        # the super-linear growth window of the probe is a property of the
        # continuous problem, reproduced by the independent discretization
        c2 = annulus_constant_oracle(2.0)
        c8 = annulus_constant_oracle(8.0)
        slope = math.log(c8 / c2) / math.log(4.0)
        assert 1.4 < slope < 1.55

    def test_mode_zero_matches_radial_symmetry(self):
        # m = 0 splits into decoupled radial and torsional problems; the
        # resolvent norm must not depend on the sign of m either
        s_plus = mode_resolvent_norm(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3)
        s_minus = mode_resolvent_norm(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, -3)
        assert s_plus == pytest.approx(s_minus, rel=1e-10)
