"""Dense per-mode spectral oracle of the annulus probe, shared by the oracle
tests and acceptance criterion 7.

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
