"""Numerical audits of the integration-by-parts identities and inequalities
behind the stability estimates.

Equality audits (Garding, Rellich, zero-order mass, Robin boundary,
Morawetz) evaluate both sides by quadrature and report the relative gap on
the scale of the largest constituent term.  Inequality audits (Korn,
weighted Korn, the Morawetz/Young/quadratic estimate chain) report slack,
which must be nonnegative up to the stated tolerance.

Inner products conjugate their first argument: (a, b) = integral conj(a).b.

All multiplier-based audits use the radial multiplier h(x) = x, for which
grad h = I and div h = d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fem as _fem
from .bounds import THETA_STAR, TAU_STAR, assembled_bound_raw, stability_simple_robin
from .core import (
    DimensionlessGroups,
    DomainSpec,
    MaterialField,
    MultiplierSpec,
    RobinSpec,
)
from .fields import AnalyticField
from .mesh import DIRICHLET, DISSIPATIVE
from .quadrature import DomainQuadrature, quadrature_for

__all__ = [
    "IdentityReport",
    "ChainReport",
    "garding_audit",
    "rellich_audit",
    "mass_identity_audit",
    "morawetz_audit",
    "morawetz_audit_discrete",
    "korn_audit",
    "robin_identity_audit",
    "estimate_chain_audit",
    "manufactured_load",
]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float | complex
    rhs: float | complex
    scale: float
    rel_gap: float
    tol: float
    kind: str = "equality"  # "equality" | "inequality"
    slack: float | None = None
    terms: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if self.kind == "inequality":
            return self.slack is not None and self.slack >= -self.tol * self.scale
        return self.rel_gap <= self.tol

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": _num(self.lhs),
            "rhs": _num(self.rhs),
            "scale": self.scale,
            "rel_gap": self.rel_gap,
            "tol": self.tol,
            "kind": self.kind,
            "passed": self.passed,
        }
        if self.slack is not None:
            out["slack"] = self.slack
        return out


def _num(z):
    if isinstance(z, complex):
        return {"re": z.real, "im": z.imag}
    return float(z)


def _equality_report(name, lhs, rhs, terms, tol) -> IdentityReport:
    scale = max([abs(t) for t in terms.values()] + [abs(lhs), abs(rhs), 1e-300])
    gap = abs(lhs - rhs) / scale
    return IdentityReport(
        name=name, lhs=lhs, rhs=rhs, scale=scale, rel_gap=gap, tol=tol,
        terms={k: _num(v) for k, v in terms.items()},
    )


def _inequality_report(name, lhs, rhs, terms, tol) -> IdentityReport:
    scale = max([abs(t) for t in terms.values()] + [abs(lhs), abs(rhs), 1e-300])
    slack = float(np.real(rhs - lhs))
    return IdentityReport(
        name=name, lhs=lhs, rhs=rhs, scale=scale, rel_gap=max(0.0, -slack) / scale,
        tol=tol, kind="inequality", slack=slack,
        terms={k: _num(v) for k, v in terms.items()},
    )


# ---------------------------------------------------------------------------
# Sampled-field plumbing: the same term formulas serve analytic fields
# (exact-geometry quadrature) and finite-element fields (mesh quadrature).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Vol:
    """Samples of v and grad v; |eps(v)|^2, div v and |div v|^2 are computed
    once per sample set."""

    x: np.ndarray
    w: np.ndarray
    val: np.ndarray
    grad: np.ndarray  # grad[q, j, l] = d_j v_l

    @cached_property
    def eps2(self) -> np.ndarray:
        return _frob2(_strain(self.grad))

    @cached_property
    def div(self) -> np.ndarray:
        return np.trace(self.grad, axis1=-2, axis2=-1)

    @cached_property
    def div2(self) -> np.ndarray:
        return np.abs(self.div) ** 2


@dataclass(frozen=True)
class _Surf(_Vol):
    normal: np.ndarray

    @property
    def hn(self) -> np.ndarray:
        """h.n for h = x."""
        return np.einsum("qj,qj->q", self.x, self.normal)

    @property
    def vn(self) -> np.ndarray:
        """v.n."""
        return np.einsum("qi,qi->q", self.val, self.normal.astype(complex))


def _vol_samples(v: AnalyticField, quad: DomainQuadrature) -> _Vol:
    """Samples of v at the volume rule's points where v may be nonzero
    (``AnalyticField.support``); every volume term vanishes at the others."""
    x, w = quad.volume.points, quad.volume.weights
    keep = v.support(x)
    if keep is not None:
        x, w = x[keep], w[keep]
    return _Vol(x=x, w=w, val=v.value(x), grad=v.grad(x))


def _surf_samples(v: AnalyticField, rule) -> _Surf:
    x = rule.points
    return _Surf(x=x, w=rule.weights, normal=rule.normals, val=v.value(x), grad=v.grad(x))


def _samples(v: AnalyticField, domain: DomainSpec, order: int) -> tuple:
    """(volume, dissipative, Dirichlet or None) samples on exact-geometry
    quadrature."""
    quad = quadrature_for(domain, order)
    diri = None if quad.dirichlet is None else _surf_samples(v, quad.dirichlet)
    return _vol_samples(v, quad), _surf_samples(v, quad.dissipative), diri


def _fem_surf(mesh, tag: str, u) -> _Surf:
    x, w, normal, [(val, grad)] = _fem.evaluate_boundary(mesh, tag, [u])
    return _Surf(x=x, w=w, normal=normal, val=val, grad=grad)


def _strain(grad):
    return 0.5 * (grad + np.swapaxes(grad, -2, -1))


def _stress(s: _Vol, mu, lam):
    eye = np.eye(s.grad.shape[-1])
    return 2.0 * mu[..., None, None] * _strain(s.grad) + lam[..., None, None] * s.div[..., None, None] * eye


def _dirdev(x, grad):
    """(h . grad)v for h = x: entry l is sum_j x_j d_j v_l."""
    return np.einsum("qj,qjl->ql", x, grad)


def _frob2(t):
    return np.sum(np.abs(t) ** 2, axis=(-2, -1))


def _form(a, matrix) -> float:
    """Re a^H (matrix a) of a flat dof vector."""
    return float(np.real(a.conj() @ (matrix @ a)))


# ---------------------------------------------------------------------------
# Identity terms (h = x).  The Morawetz identity is the Rellich identity
# plus omega^2 times the zero-order mass identity, so each term below has
# one definition that the three audits share.
# ---------------------------------------------------------------------------

def _x_pairing(vol: _Vol, a, w) -> float:
    """2 Re int w conj(a).(x.grad)v."""
    hgrad = _dirdev(vol.x, vol.grad)
    return 2.0 * float(np.real(np.sum(w * np.einsum("qi,qi->q", np.conj(a), hgrad))))


def _mass_volume(vol: _Vol, rho, v_rho, d: int) -> float:
    """int (d + V_x(rho)) rho |v|^2."""
    return float(np.real(np.sum(vol.w * (d + v_rho) * rho * np.sum(np.abs(vol.val) ** 2, axis=1))))


def _mass_flux(surf: _Surf, rho) -> float:
    """bdry int (x.n) rho |v|^2."""
    return float(np.real(np.sum(surf.w * surf.hn * rho * np.sum(np.abs(surf.val) ** 2, axis=1))))


def _r_h_omega(vol: _Vol, mu, lam, v_mu, v_lam, d: int) -> float:
    growth = np.sum(vol.w * ((d + v_mu) * 2.0 * mu * vol.eps2 + (d + v_lam) * lam * vol.div2))
    # grad h = I: eps(v) : (grad h grad vbar) = eps : grad vbar = |eps|^2,
    # grad h : (grad vbar)^T = conj(div v)
    cross = np.sum(vol.w * 2.0 * (2.0 * mu * vol.eps2 + lam * vol.div2))
    return float(np.real(growth - cross))


def _r_h_omega_simplified(vol: _Vol, mu, lam, d: int) -> float:
    """R_Omega for constant coefficients: int (d-2) (2 mu |eps|^2 + lam |div|^2)."""
    return float(np.real(np.sum(vol.w * ((d - 2) * 2.0 * mu * vol.eps2 + (d - 2) * lam * vol.div2))))


def _b_boundary(surf: _Surf, mu, lam) -> float:
    """int (h.n) sigma(v):eps(vbar) with h = x."""
    return float(np.real(np.sum(surf.w * surf.hn * (2.0 * mu * surf.eps2 + lam * surf.div2))))


def _traction_term(surf: _Surf, mu, lam) -> float:
    """2 Re int (sigma(v) n) . ((h.grad) vbar) with h = x."""
    sigma = _stress(surf, mu, lam)
    sn = np.einsum("qij,qj->qi", sigma, surf.normal)
    hgrad = _dirdev(surf.x, surf.grad)
    return float(2.0 * np.real(np.sum(surf.w * np.einsum("qi,qi->q", sn, np.conj(hgrad)))))


def _boundary_triple(diss: _Surf, diri: _Surf | None, material: MaterialField) -> tuple:
    """(B_diss, R_diss, B_dir); B_dir = 0 without a Dirichlet boundary."""
    mu, lam = material.mu(diss.x), material.lam(diss.x)
    b_dir = 0.0
    if diri is not None:
        mu_d, lam_d = material.mu(diri.x), material.lam(diri.x)
        b_dir = _b_boundary(diri, mu_d, lam_d) - _traction_term(diri, mu_d, lam_d)
    return _b_boundary(diss, mu, lam), _traction_term(diss, mu, lam), b_dir


def _surface_div_tangential(surf: _Surf) -> np.ndarray:
    """Surface divergence of the tangential part on an origin-centered
    sphere/circle, via the radially extended normal:
    div_T v_T = P : grad v - (d-1)(v.n)/r."""
    d = surf.val.shape[-1]
    n = surf.normal
    p_grad = np.einsum("qjl,qjl->q", np.eye(d)[None] - n[:, :, None] * n[:, None, :], surf.grad)
    r = np.linalg.norm(surf.x, axis=-1)
    return p_grad - (d - 1) * surf.vn / r


# ---------------------------------------------------------------------------
# Audits on analytic fields
# ---------------------------------------------------------------------------

def rellich_audit(
    v: AnalyticField,
    domain: DomainSpec,
    material: MaterialField,
    order: int = 24,
    tol: float = 1e-8,
) -> IdentityReport:
    """Audit of the second-order integration-by-parts identity

        -2 Re (div sigma(v), (x.grad)v) = -R_Omega - R_diss + B_dir + B_diss

    for twice-differentiable fields and constant Lame coefficients.  The
    h = x simplification of the volume term is cross-checked inside the
    same report (``terms['r_omega_simplified']``).
    """
    if not material.is_constant:
        raise ValueError("Rellich audit needs constant Lame coefficients")
    vol, diss, diri = _samples(v, domain, order)
    mu = material.mu(vol.x)
    lam = material.lam(vol.x)
    div_sigma = v.div_sigma(vol.x, material.mu_min, material.lam_min)
    lhs = -_x_pairing(vol, div_sigma, vol.w)
    r_omega = _r_h_omega(vol, mu, lam, 0.0, 0.0, domain.d)
    r_omega_simple = _r_h_omega_simplified(vol, mu, lam, domain.d)
    b_diss, r_diss, b_dir = _boundary_triple(diss, diri, material)
    rhs = -r_omega - r_diss + b_dir + b_diss
    terms = {
        "r_omega": r_omega,
        "r_omega_simplified": r_omega_simple,
        "r_diss": r_diss,
        "b_dir": b_dir,
        "b_diss": b_diss,
        "simplification_gap": abs(r_omega - r_omega_simple),
    }
    return _equality_report("rellich", lhs, rhs, terms, tol)


def mass_identity_audit(
    v: AnalyticField,
    domain: DomainSpec,
    material: MaterialField,
    order: int = 24,
    tol: float = 1e-8,
) -> IdentityReport:
    """Audit of the zero-order identity

        -2 Re int rho v.(x.grad)vbar
            = int (d + V_x(rho)) rho |v|^2 - bdry int (x.n) rho |v|^2.
    """
    vol, diss, diri = _samples(v, domain, order)
    rho = material.rho(vol.x)
    v_rho = material.rho.log_slope(np.linalg.norm(vol.x, axis=-1), domain.ell)
    lhs = -_x_pairing(vol, vol.val, vol.w * rho)
    volume_term = _mass_volume(vol, rho, v_rho, domain.d)
    boundary_term = sum(_mass_flux(s, material.rho(s.x)) for s in (diss, diri) if s is not None)
    rhs = volume_term - boundary_term
    terms = {"volume": volume_term, "boundary": boundary_term}
    return _equality_report("mass_identity", lhs, rhs, terms, tol)


def manufactured_load(v: AnalyticField, material: MaterialField, omega: float):
    """f with -omega^2 rho v - div sigma(v) = rho f for constant Lame
    coefficients (rho may vary radially)."""
    if material.mu.kind != "constant" or material.lam.kind != "constant":
        raise ValueError("manufactured loads need constant Lame coefficients")

    def fn(x):
        rho = material.rho(x)[:, None]
        return -(omega**2) * v.value(x) - v.div_sigma(x, material.mu_min, material.lam_min) / rho

    return fn


def _morawetz(name, vol: _Vol, f_val, diss: _Surf, diri, material, omega, d, ell, tol) -> IdentityReport:
    """The h = x multiplier identity on samples of u (volume, dissipative and,
    unless ``diri`` is None, Dirichlet surface) and of the load f at the
    volume points, in a domain of radius ``ell``:

        omega^2 int (d + V_x(rho)) rho |u|^2 + B_diss + B_dir
          = 2 Re (rho f, (x.grad)u) + omega^2 bdry int (x.n) rho |u|^2
            + R_diss + R_Omega.

    With rho f = -omega^2 rho u - div sigma(u) it is the Rellich identity
    plus omega^2 times the zero-order mass identity (u = 0 on the Dirichlet
    boundary), and it is assembled from their terms.
    """
    r = np.linalg.norm(vol.x, axis=-1)
    rho = material.rho(vol.x)
    mass_term = omega**2 * _mass_volume(vol, rho, material.rho.log_slope(r, ell), d)
    b_diss, r_diss, b_dir = _boundary_triple(diss, diri, material)
    mass_bdry = omega**2 * _mass_flux(diss, material.rho(diss.x))
    work = _x_pairing(vol, f_val, vol.w * rho)
    r_omega = _r_h_omega(
        vol, material.mu(vol.x), material.lam(vol.x),
        material.mu.log_slope(r, ell), material.lam.log_slope(r, ell), d,
    )
    lhs = mass_term + b_diss + b_dir
    rhs = work + mass_bdry + r_diss + r_omega
    terms = {
        "mass": mass_term, "b_diss": b_diss, "b_dir": b_dir,
        "work": work, "mass_boundary": mass_bdry, "r_diss": r_diss, "r_omega": r_omega,
    }
    return _equality_report(name, lhs, rhs, terms, tol)


def morawetz_audit(
    u: AnalyticField,
    domain: DomainSpec,
    material: MaterialField,
    omega: float,
    f=None,
    order: int = 24,
    tol: float = 1e-6,
) -> IdentityReport:
    """Audit of the full multiplier identity (see ``_morawetz``) for a
    (manufactured) solution of the strong equation vanishing on the
    Dirichlet boundary, on exact-geometry quadrature."""
    vol, diss, diri = _samples(u, domain, order)
    if f is None:
        f = manufactured_load(u, material, omega)
    return _morawetz(
        "morawetz", vol, np.asarray(f(vol.x), dtype=complex), diss, diri,
        material, omega, domain.d, domain.ell, tol,
    )


def korn_audit(
    v: AnalyticField,
    domain: DomainSpec,
    robin: RobinSpec,
    groups: DimensionlessGroups,
    material: MaterialField,
    order: int = 24,
    tol: float = 1e-10,
) -> tuple:
    """Slack reports for the boundary-compensated Korn inequality

        |grad v|^2 <= 2 |eps(v)|^2 + (beta_T |v_T|^2 + beta_N |v.n|^2)/ell
                      + 2 |v.n| |div_T v_T|

    and its coefficient-weighted version (valid for fields vanishing on the
    Dirichlet boundary; curvature constants beta_T = 1, beta_N = d-1 of the
    spherical dissipative boundary)."""
    quad = quadrature_for(domain, order)
    vol = _vol_samples(v, quad)
    diss = _surf_samples(v, quad.dissipative)
    ell = domain.ell
    grad2 = float(np.sum(vol.w * _frob2(vol.grad)))
    eps2 = float(np.sum(vol.w * vol.eps2))
    vn = diss.vn
    vt2 = np.sum(np.abs(diss.val) ** 2, axis=1) - np.abs(vn) ** 2
    norm_vt2 = float(np.sum(diss.w * vt2))
    norm_vn2 = float(np.sum(diss.w * np.abs(vn) ** 2))
    div_t = _surface_div_tangential(diss)
    norm_divt = math.sqrt(float(np.sum(diss.w * np.abs(div_t) ** 2)))
    lhs = grad2
    rhs = (
        2.0 * eps2
        + (groups.beta_t * norm_vt2 + groups.beta_n * norm_vn2) / ell
        + 2.0 * math.sqrt(norm_vn2) * norm_divt
    )
    basic = _inequality_report(
        "korn_basic", lhs, rhs,
        {"grad2": grad2, "eps2": eps2, "vt2": norm_vt2, "vn2": norm_vn2, "divt": norm_divt},
        tol,
    )

    mu_vol = material.mu(vol.x)
    mu_b = material.mu(diss.x)
    eps2_mu = float(np.sum(vol.w * 2.0 * mu_vol * vol.eps2))
    norm_v_a2 = float(np.sum(diss.w * (robin.a_t * vt2 + robin.a_n * np.abs(vn) ** 2)))
    eps_mu_b = math.sqrt(float(np.sum(diss.w * mu_b * diss.eps2)))
    kappa = groups.kappa_s
    omega = kappa * material.theta_s_min / ell
    lhs_w = material.mu_min * grad2
    if kappa > 0.0:
        rhs_w = (
            eps2_mu
            + groups.chi / kappa * omega * norm_v_a2
            + 2.0 / math.sqrt(robin.alpha_n * kappa) * math.sqrt(omega) * math.sqrt(norm_v_a2)
            * math.sqrt(ell) * eps_mu_b
        )
    else:
        rhs_w = math.inf
    weighted = _inequality_report(
        "korn_weighted", lhs_w, rhs_w,
        {"eps2_mu": eps2_mu, "v_A2": norm_v_a2, "eps_mu_boundary": eps_mu_b},
        tol,
    )
    return basic, weighted


def robin_identity_audit(
    v: AnalyticField,
    domain: DomainSpec,
    robin: RobinSpec,
    order: int = 24,
    tol: float = 1e-8,
) -> IdentityReport:
    """Audit of the five-term boundary identity for h = x on the spherical
    dissipative boundary (complex-valued; checked as a complex equation):

        (A v, (x.grad)v) = 2 (A v, eps(v) x) + (A v, v)
                           + a_T ((x.n)(div_T v_T), v.n)
                           - a_N ((v.n) n, v) - a_N ((x.n)(v.n), eps(v)n.n).
    """
    quad = quadrature_for(domain, order)
    s = _surf_samples(v, quad.dissipative)
    n = s.normal
    w = s.w
    hn, vn = s.hn, s.vn
    av = robin.a_t * s.val + (robin.a_n - robin.a_t) * vn[:, None] * n
    eps = _strain(s.grad)
    hgrad = _dirdev(s.x, s.grad)
    eps_h = np.einsum("qij,qj->qi", eps, s.x.astype(complex))
    eps_nn = np.einsum("qi,qij,qj->q", n.astype(complex), eps, n.astype(complex))
    div_t = _surface_div_tangential(s)

    def ip(a, b):
        return complex(np.sum(w * np.einsum("qi,qi->q", np.conj(a), b)))

    def ip_s(a, b):
        return complex(np.sum(w * np.conj(a) * b))

    lhs = ip(av, hgrad)
    t1 = 2.0 * ip(av, eps_h)
    t2 = ip(av, s.val)
    t3 = robin.a_t * ip_s(hn * div_t, vn)
    t4 = -robin.a_n * ip(vn[:, None] * n, s.val)
    t5 = -robin.a_n * ip_s(hn * vn, eps_nn)
    rhs = t1 + t2 + t3 + t4 + t5
    terms = {"t1": t1, "t2": t2, "t3": t3, "t4": t4, "t5": t5}
    return _equality_report("robin_identity", lhs, rhs, terms, tol)


# ---------------------------------------------------------------------------
# Discrete audits (finite-element solutions)
# ---------------------------------------------------------------------------

def garding_audit(result, system, f, tol: float = 1e-10) -> tuple:
    """Energy-balance identities of the discrete solution, exact by
    construction of the weak form:

        2 ||eps(u)||_mu^2 + ||div u||_lam^2 = Re (rho f, u) + omega^2 ||u||_rho^2
        omega ||u||_A^2 = Im (rho f, u).
    """
    u = np.asarray(result.u, dtype=complex).reshape(-1)
    fv = np.asarray(f, dtype=complex).reshape(-1)
    omega = system.omega
    energy = _form(u, system.stiffness)
    mass_u = _form(u, system.mass)
    robin_u = _form(u, system.robin_matrix)
    ip_fu = complex(np.vdot(fv, system.mass @ u))  # (rho f, u), conjugate-first
    real_rep = _equality_report(
        "garding_real",
        energy,
        ip_fu.real + omega**2 * mass_u,
        {"energy": energy, "re_fu": ip_fu.real, "omega2_mass": omega**2 * mass_u},
        tol,
    )
    imag_rep = _equality_report(
        "garding_imag",
        omega * robin_u,
        ip_fu.imag,
        {"robin": omega * robin_u, "im_fu": ip_fu.imag},
        tol,
    )
    return real_rep, imag_rep


def morawetz_audit_discrete(result, system, f, tol: float = 5e-2) -> IdentityReport:
    """Morawetz identity evaluated on a discrete solution; the gap measures
    the strong-form consistency error of u_h and shrinks under refinement."""
    mesh = system.mesh
    x, w, [(val_u, grad_u), (val_f, _)] = _fem.evaluate_volume(mesh, [result.u, f])
    return _morawetz(
        "morawetz_discrete", _Vol(x=x, w=w, val=val_u, grad=grad_u), val_f,
        _fem_surf(mesh, DISSIPATIVE, result.u), _fem_surf(mesh, DIRICHLET, result.u),
        system.material, system.omega, 2, mesh.ell, tol,
    )


@dataclass(frozen=True)
class ChainReport:
    links: tuple
    assembled_bound: float
    theorem_bound: float

    @property
    def passed(self) -> bool:
        return all(link.passed for link in self.links)


def estimate_chain_audit(
    result,
    system,
    f,
    groups: DimensionlessGroups,
    mult: MultiplierSpec,
    theta: float = THETA_STAR,
    tau: float = TAU_STAR,
    tol: float = 1e-3,
) -> ChainReport:
    """Slack of every inequality link in the estimate chain, evaluated from
    discrete quantities of one solve:

      link 1: the Morawetz estimate bounding
              2(gamma/M) omega^2 ||u||^2 + 2(m/M) ell ||eps(u)||_{mu,Gamma}^2;
      link 2: the Young split of the gradient term with exponents theta, tau;
      link 3: the final frequency-explicit theorem bound.
    """
    mesh, material = system.mesh, system.material
    u = np.asarray(result.u, dtype=complex).reshape(-1)
    _, w, [(_, grad_u)] = _fem.evaluate_volume(mesh, [result.u])
    diss = _fem_surf(mesh, DISSIPATIVE, result.u)
    nu_u, nf, ua, gradu, eps_g = (
        math.sqrt(max(square, 0.0))
        for square in (
            _form(u, system.mass),
            _form(np.asarray(f, dtype=complex).reshape(-1), system.mass),
            _form(u, system.robin_matrix),
            float(np.sum(w * _frob2(grad_u))),
            float(np.sum(diss.w * material.mu(diss.x) * diss.eps2)),
        )
    )
    d = 2
    kappa = groups.kappa_s
    omega, ell, mu_min = system.omega, mesh.ell, material.mu_min

    lhs1 = 2.0 * mult.gamma / mult.M * omega**2 * nu_u**2 + 2.0 * mult.m / mult.M * ell * eps_g**2
    rhs1 = (
        ((d - 2.0 + mult.epsilon) / mult.M + groups.zeta + kappa / groups.alpha_min) * nf * nu_u
        + 2.0 * kappa / omega * nf * math.sqrt(mu_min) * gradu
        + groups.c_rob * math.sqrt(kappa * omega) * ua * math.sqrt(ell) * eps_g
    )
    link1 = _inequality_report(
        "morawetz_estimate", lhs1, rhs1, {"lhs": lhs1, "rhs": rhs1}, tol
    )

    lhs2 = 2.0 * kappa / omega * nf * math.sqrt(mu_min) * gradu
    rhs2 = (
        (
            math.sqrt(2.0) * (1.0 + groups.chi / kappa) * kappa ** (2.0 - theta)
            + 2.0 / math.sqrt(groups.alpha_n) * kappa ** (1.5 - tau)
        )
        * nf**2
        / omega**2
        + (math.sqrt(2.0) * kappa**theta + 2.0 * kappa) * nf * nu_u
        + 2.0 * kappa**tau * math.sqrt(omega) * ua * math.sqrt(ell) * eps_g
    )
    link2 = _inequality_report("young_split", lhs2, rhs2, {"lhs": lhs2, "rhs": rhs2}, tol)

    theorem = stability_simple_robin(groups, mult, d)
    lhs3 = mult.gamma / mult.M * omega**2 * nu_u
    rhs3 = mult.gamma / mult.M * theorem.bound_value * nf
    link3 = _inequality_report("stability_bound", lhs3, rhs3, {"lhs": lhs3, "rhs": rhs3}, tol)

    assembled = assembled_bound_raw(kappa, groups, mult, d, theta, tau) if kappa > 0 else math.inf
    return ChainReport(
        links=(link1, link2, link3),
        assembled_bound=assembled,
        theorem_bound=theorem.bound_value,
    )
