"""Materials, domains, impedance data, multipliers, and the dimensionless groups.

Every symbol that enters a closed-form stability bound is defined here:
material coefficients with certified essential bounds, the domain radius,
the impedance matrix and its adimensional eigenvalues, the multiplier
constants (M, m, nu, eta, epsilon, gamma), and the derived groups
(kappa_s, beta_t/beta_n, chi, zeta, c_rob).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainEvaluationError,
    InadmissibleCoefficientsError,
    InadmissibleMultiplierError,
    InvalidMaterialError,
    UnsupportedDomainError,
)

__all__ = [
    "CoefficientProfile",
    "constant_profile",
    "radial_profile",
    "piecewise_radial_profile",
    "MaterialField",
    "DomainSpec",
    "RobinSpec",
    "PerturbationSpec",
    "MultiplierSpec",
    "DimensionlessGroups",
    "RadialAdmissibility",
    "derive_groups",
    "multiplier_for",
    "check_radial_admissibility",
]


# ---------------------------------------------------------------------------
# Coefficient profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientProfile:
    """Radially symmetric scalar coefficient with certified essential bounds.

    ``vmin``/``vmax`` are supplied analytically by the constructor; sampling
    only cross-validates them.  ``radial_derivative`` is the analytic d/dr
    when the profile is smooth, None for piecewise-constant data.
    ``breaks`` are the radii where piecewise-constant data jumps.
    """

    radial: Callable[[np.ndarray], np.ndarray]
    vmin: float
    vmax: float
    kind: str  # "constant" | "radial-profile" | "piecewise-radial"
    radial_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    breaks: tuple = ()

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at Cartesian points of shape (..., d)."""
        r = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
        return self.at_radius(r)

    def at_radius(self, r) -> np.ndarray:
        vals = np.asarray(self.radial(np.asarray(r, dtype=float)), dtype=float)
        lo, hi = self.vmin, self.vmax
        tol = 1e-9 * max(abs(lo), abs(hi), 1.0)
        if vals.size and (vals.min() < lo - tol or vals.max() > hi + tol):
            raise DomainEvaluationError(
                f"sampled coefficient value escapes certified bounds "
                f"[{lo}, {hi}]: range [{vals.min()}, {vals.max()}]"
            )
        return vals

    def log_slope(self, r, ell: float) -> np.ndarray:
        """V_h(phi) = (h.grad phi)/phi = r phi'(r)/phi(r) for h = x at radii
        ``r`` in [0, ell]; zero where phi vanishes.  Without an analytic
        derivative phi' is a difference quotient over [r - 1e-6 ell,
        r + 1e-6 ell] clipped to [0, ell], the range the bounds certify."""
        r = np.asarray(r, dtype=float)
        if self.radial_derivative is not None:
            deriv = np.asarray(self.radial_derivative(r), dtype=float)
        else:
            step = 1e-6 * ell
            lo = np.maximum(r - step, 0.0)
            hi = np.minimum(r + step, ell)
            deriv = (self.at_radius(hi) - self.at_radius(lo)) / (hi - lo)
        vals = self.at_radius(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(vals > 0.0, r * deriv / vals, 0.0)


def constant_profile(value: float) -> CoefficientProfile:
    value = float(value)
    return CoefficientProfile(
        radial=lambda r: np.full_like(np.asarray(r, dtype=float), value),
        vmin=value,
        vmax=value,
        kind="constant",
        radial_derivative=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


def radial_profile(fn, vmin, vmax, derivative=None) -> CoefficientProfile:
    """Smooth radial profile r -> fn(r) with analytic bounds.

    ``derivative`` is the analytic d(fn)/dr; when omitted ``log_slope``
    falls back on a difference quotient.
    """
    return CoefficientProfile(
        radial=fn,
        vmin=float(vmin),
        vmax=float(vmax),
        kind="radial-profile",
        radial_derivative=derivative,
    )


def piecewise_radial_profile(breaks, values) -> CoefficientProfile:
    """Piecewise-constant-in-radius profile.

    ``values[i]`` holds on [breaks[i], breaks[i+1]); the last value extends
    to infinity.  breaks[0] must be 0.
    """
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if breaks.ndim != 1 or values.ndim != 1 or breaks.size != values.size:
        raise InvalidMaterialError("breaks and values must be 1D of equal length")
    if breaks[0] != 0.0 or np.any(np.diff(breaks) <= 0):
        raise InvalidMaterialError("breaks must start at 0 and increase strictly")

    def fn(r):
        idx = np.clip(np.searchsorted(breaks, np.asarray(r, dtype=float), side="right") - 1, 0, values.size - 1)
        return values[idx]

    return CoefficientProfile(
        radial=fn,
        vmin=float(values.min()),
        vmax=float(values.max()),
        kind="piecewise-radial",
        breaks=tuple(breaks.tolist()),
    )


# ---------------------------------------------------------------------------
# Materials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialField:
    """Spatially varying density and Lame coefficients with certified bounds.

    Invariants: rho_min > 0, mu_min > 0, lambda_min >= 0, all maxima finite.
    """

    rho: CoefficientProfile
    mu: CoefficientProfile
    lam: CoefficientProfile

    def __post_init__(self):
        if not (self.rho.vmin > 0.0 and math.isfinite(self.rho.vmax)):
            raise InvalidMaterialError(f"rho bounds invalid: [{self.rho.vmin}, {self.rho.vmax}]")
        if not (self.mu.vmin > 0.0 and math.isfinite(self.mu.vmax)):
            raise InvalidMaterialError(f"mu bounds invalid: [{self.mu.vmin}, {self.mu.vmax}]")
        if not (self.lam.vmin >= 0.0 and math.isfinite(self.lam.vmax)):
            raise InvalidMaterialError(f"lambda bounds invalid: [{self.lam.vmin}, {self.lam.vmax}]")

    @property
    def description(self) -> str:
        """The label of the profiles' kinds: "constant" when all three are
        constant, "piecewise-radial" when any is piecewise, "radial-profile"
        otherwise."""
        kinds = {self.rho.kind, self.mu.kind, self.lam.kind}
        if kinds == {"constant"}:
            return "constant"
        return "piecewise-radial" if "piecewise-radial" in kinds else "radial-profile"

    @property
    def rho_min(self):
        return self.rho.vmin

    @property
    def rho_max(self):
        return self.rho.vmax

    @property
    def mu_min(self):
        return self.mu.vmin

    @property
    def lam_min(self):
        return self.lam.vmin

    @property
    def theta_s_min(self) -> float:
        """Worst-case shear wave speed sqrt(mu_min / rho_max)."""
        return math.sqrt(self.mu_min / self.rho_max)

    @property
    def is_constant(self) -> bool:
        return self.description == "constant"

    @classmethod
    def constant(cls, rho: float, mu: float, lam: float) -> "MaterialField":
        return cls(rho=constant_profile(rho), mu=constant_profile(mu), lam=constant_profile(lam))

    @classmethod
    def radial(cls, rho, mu, lam) -> "MaterialField":
        return cls(rho=rho, mu=mu, lam=lam)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

_SUPPORTED_SHAPES = ("ball", "annulus", "ball-minus-obstacle")


@dataclass(frozen=True)
class DomainSpec:
    """Ball, annulus, or ball-minus-star-obstacle geometry.

    The dissipative boundary is always the outer sphere/circle of radius
    ``ell``; the Dirichlet boundary (if any) is the obstacle boundary
    (inner circle of radius ``r_in`` for the annulus).
    """

    d: int
    ell: float
    shape: str = "ball"
    r_in: float | None = None

    def __post_init__(self):
        if self.d not in (2, 3):
            raise UnsupportedDomainError(f"dimension must be 2 or 3, got {self.d}")
        if not self.ell > 0.0:
            raise UnsupportedDomainError("domain radius ell must be positive")
        if self.shape not in _SUPPORTED_SHAPES:
            raise UnsupportedDomainError(f"unsupported shape {self.shape!r}")
        if self.shape == "annulus":
            if self.r_in is None or not (0.0 < self.r_in < self.ell):
                raise UnsupportedDomainError("annulus needs 0 < r_in < ell")

    @property
    def has_dirichlet(self) -> bool:
        return self.shape != "ball"


# ---------------------------------------------------------------------------
# Impedance (dissipative boundary) data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobinSpec:
    """Diagonal impedance matrix A xi = a_t xi_T + a_n xi_N with its
    adimensional eigenvalues alpha_* = a_* / sqrt(rho_max * mu_min)."""

    a_t: float
    a_n: float
    alpha_t: float
    alpha_n: float

    def __post_init__(self):
        if not (self.a_t > 0.0 and self.a_n > 0.0):
            raise InvalidMaterialError("impedance coefficients must be positive")

    @property
    def alpha_min(self) -> float:
        return min(self.alpha_t, self.alpha_n)

    @property
    def alpha_max(self) -> float:
        return max(self.alpha_t, self.alpha_n)

    @classmethod
    def from_impedance(cls, a_t: float, a_n: float, material: MaterialField) -> "RobinSpec":
        scale = math.sqrt(material.rho_max * material.mu_min)
        return cls(a_t=float(a_t), a_n=float(a_n), alpha_t=a_t / scale, alpha_n=a_n / scale)

    @classmethod
    def from_alpha(cls, alpha_t: float, alpha_n: float, material: MaterialField) -> "RobinSpec":
        scale = math.sqrt(material.rho_max * material.mu_min)
        return cls(
            a_t=alpha_t * scale,
            a_n=alpha_n * scale,
            alpha_t=float(alpha_t),
            alpha_n=float(alpha_n),
        )

    @classmethod
    def shear_matched(cls, material: MaterialField) -> "RobinSpec":
        """alpha_t = alpha_n = 1: tuned to absorb shear waves."""
        return cls.from_alpha(1.0, 1.0, material)

    @classmethod
    def pressure_matched(cls, material: MaterialField) -> "RobinSpec":
        """alpha_t = 1, alpha_n = sqrt(2 + lambda_min/mu_min): the realistic
        choice that also absorbs pressure waves at normal incidence."""
        ratio = material.lam_min / material.mu_min
        return cls.from_alpha(1.0, math.sqrt(2.0 + ratio), material)

    CHOICES = ("shear", "pressure", "custom")

    @classmethod
    def for_choice(cls, choice: str, material: MaterialField, alpha_t=1.0, alpha_n=1.0) -> "RobinSpec":
        """The impedance a configuration names, one of ``CHOICES``; the alphas
        serve "custom" only.  ValueError for any other name."""
        if choice == "shear":
            return cls.shear_matched(material)
        if choice == "pressure":
            return cls.pressure_matched(material)
        if choice == "custom":
            return cls.from_alpha(alpha_t, alpha_n, material)
        raise ValueError(f"unknown robin.choice {choice!r}")


# ---------------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Descriptor of a gradient perturbation h = x + grad(phi).

    Carries the certified sup of the (Frobenius) Hessian norm, the minimum
    Laplacian, the sup of |grad phi|, the Dirichlet Korn constant of the
    domain, and the stiffness ratio entering the admissibility budget.
    phi must vanish near the dissipative boundary.
    """

    hessian_max: float
    laplacian_min: float
    grad_max: float = 0.0
    korn_k0: float = 1.0
    lambda_over_mu: float = 0.0
    vanishes_near_dissipative: bool = True


@dataclass(frozen=True)
class MultiplierSpec:
    """Multiplier field constants: M >= 1, m >= 0, nu = |grad h|_inf / M,
    and the admissibility defects (eta, epsilon) with 2 gamma = 2 - eta - epsilon."""

    kind: str  # "identity" | "perturbed"
    M: float
    m: float
    nu: float
    eta: float
    epsilon: float

    def __post_init__(self):
        if self.M < 1.0:
            raise InadmissibleMultiplierError(f"M must be >= 1, got {self.M}")
        if self.m < 0.0:
            raise InadmissibleMultiplierError(f"m must be >= 0, got {self.m}")
        if self.gamma <= 0.0:
            raise InadmissibleMultiplierError(
                f"eta + epsilon = {self.eta + self.epsilon} >= 2 leaves gamma <= 0"
            )

    @property
    def gamma(self) -> float:
        return 0.5 * (2.0 - self.eta - self.epsilon)

    @classmethod
    def identity(cls, d: int) -> "MultiplierSpec":
        # |grad h|_inf in the Frobenius norm is sqrt(d) for h = x.
        return cls(kind="identity", M=1.0, m=1.0, nu=math.sqrt(d), eta=0.0, epsilon=0.0)


def multiplier_for(domain: DomainSpec, phi: PerturbationSpec | None = None) -> MultiplierSpec:
    """Multiplier constants for h = x, or h = x + grad(phi) for a small phi.

    The identity multiplier on a ball of radius ell gives M = m = 1 and
    gamma = 1.  A perturbation phi (vanishing near the dissipative
    boundary) costs eta = max(0, -min Laplacian) and
    epsilon = (1 + 2*K0 + lambda/mu) * |Hessian|_inf; the perturbation is
    rejected when eta + epsilon >= 2.
    """
    if phi is None or (phi.hessian_max == 0.0 and phi.laplacian_min >= 0.0 and phi.grad_max == 0.0):
        return MultiplierSpec.identity(domain.d)
    if not phi.vanishes_near_dissipative:
        raise InadmissibleMultiplierError(
            "perturbation must vanish near the dissipative boundary"
        )
    eta = max(0.0, -phi.laplacian_min)
    epsilon = (1.0 + 2.0 * phi.korn_k0 + phi.lambda_over_mu) * phi.hessian_max
    if eta + epsilon >= 2.0:
        raise InadmissibleMultiplierError(
            f"eta + epsilon = {eta + epsilon} >= 2: perturbation too large"
        )
    M = max(1.0, (domain.ell + phi.grad_max) / domain.ell)
    nu = (math.sqrt(domain.d) + phi.hessian_max) / M
    # phi = 0 near the outer sphere, so h.n = ell there and m = 1.
    return MultiplierSpec(kind="perturbed", M=M, m=1.0, nu=nu, eta=eta, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Dimensionless groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionlessGroups:
    """Every adimensional quantity the bound formulas consume."""

    kappa_s: float
    alpha_t: float
    alpha_n: float
    alpha_min: float
    alpha_max: float
    beta_t: float
    beta_n: float
    chi: float
    zeta: float
    c_rob: float

    def as_dict(self) -> dict:
        return asdict(self)


def derive_groups(
    material: MaterialField,
    domain: DomainSpec,
    robin: RobinSpec,
    omega: float,
    mult: MultiplierSpec | None = None,
) -> DimensionlessGroups:
    """Assemble the dimensionless groups for a configuration.

    kappa_s = omega * ell * sqrt(rho_max/mu_min) measures the domain size in
    shear wavelengths.  On the sphere the curvature constants are beta_t = 1
    and beta_n = d - 1, so chi = max(1/alpha_t, (d-1)/alpha_n).  The
    boundary-estimate constant is c_rob = (2 + sqrt(alpha_max/alpha_min)) *
    sqrt(alpha_max); zeta vanishes for the h = x multiplier on a spherical
    dissipative boundary and equals 2 nu sqrt(alpha_max/alpha_min) otherwise.
    """
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    if mult is None:
        mult = MultiplierSpec.identity(domain.d)

    kappa_s = omega * domain.ell * math.sqrt(material.rho_max / material.mu_min)
    beta_t = 1.0
    beta_n = float(domain.d - 1)
    chi = max(beta_t / robin.alpha_t, beta_n / robin.alpha_n)
    ratio = math.sqrt(robin.alpha_max / robin.alpha_min)
    c_rob = (2.0 + ratio) * math.sqrt(robin.alpha_max)
    zeta = 0.0 if mult.kind == "identity" else 2.0 * mult.nu * ratio
    return DimensionlessGroups(
        kappa_s=kappa_s,
        alpha_t=robin.alpha_t,
        alpha_n=robin.alpha_n,
        alpha_min=robin.alpha_min,
        alpha_max=robin.alpha_max,
        beta_t=beta_t,
        beta_n=beta_n,
        chi=chi,
        zeta=zeta,
        c_rob=c_rob,
    )


# ---------------------------------------------------------------------------
# Radial admissibility of heterogeneous coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialAdmissibility:
    theta_rho: float
    theta_mu: float
    theta_lambda: float
    theta: float
    gamma: float


def check_radial_admissibility(
    material: MaterialField,
    domain: DomainSpec,
    n_samples: int = 64,
) -> RadialAdmissibility:
    """Probe the radial growth conditions of the coefficients.

    Smooth profiles are probed by their log slopes V_h
    (``CoefficientProfile.log_slope``): theta_rho bounds how fast rho may
    decrease outward, theta_mu and theta_lambda how fast the stiffnesses may
    increase.  The admissibility
    budget theta = theta_rho + max(theta_mu, theta_lambda) must stay below 2
    and yields gamma = (2 - theta)/2.

    Piecewise-radial data is checked against the discrete monotonicity
    requirement (rho nondecreasing outward, mu and lambda nonincreasing) at
    the samples and at every break inside the domain, which sees each piece
    however thin; success reports gamma = 1.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples per ray")
    inner = domain.r_in if domain.shape == "annulus" else 0.0
    radii = np.linspace(inner + 1e-9 * domain.ell, domain.ell, n_samples)

    if material.description == "piecewise-radial":
        r = np.concatenate([radii, material.rho.breaks, material.mu.breaks, material.lam.breaks])
        r = np.unique(r[(r > inner) & (r <= domain.ell)])
        if np.any(np.diff(material.rho.at_radius(r)) < -1e-12):
            raise InadmissibleCoefficientsError("rho decreases outward")
        if np.any(np.diff(material.mu.at_radius(r)) > 1e-12):
            raise InadmissibleCoefficientsError("mu increases outward")
        if np.any(np.diff(material.lam.at_radius(r)) > 1e-12):
            raise InadmissibleCoefficientsError("lambda increases outward")
        return RadialAdmissibility(0.0, 0.0, 0.0, 0.0, 1.0)

    # sup over the samples of max(0, sign * V_h)
    theta_rho, theta_mu, theta_lam = (
        float(np.max(np.maximum(sign * p.log_slope(radii, domain.ell), 0.0), initial=0.0))
        for p, sign in ((material.rho, -1.0), (material.mu, 1.0), (material.lam, 1.0))
    )
    theta = theta_rho + max(theta_mu, theta_lam)
    if theta >= 2.0:
        raise InadmissibleCoefficientsError(
            f"theta = {theta} >= 2: coefficients grow too fast radially"
        )
    return RadialAdmissibility(theta_rho, theta_mu, theta_lam, theta, 0.5 * (2.0 - theta))
