"""Closed-form stability bounds for the dissipative elastic Helmholtz problem.

Every bound is the multiplier C in  omega^2 ||u||_rho <= C ||f||_rho,
expressed through the dimensionless frequency kappa_s = omega ell / theta_s_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import DimensionlessGroups, MultiplierSpec
from .errors import InadmissibleMultiplierError

__all__ = [
    "GenericConstants",
    "BoundReport",
    "quadratic_root_bound",
    "stability_simple_robin",
    "assembled_bound_raw",
    "ObstacleIdealBound",
    "bound_obstacle_ideal",
    "bound_obstacle_realistic",
    "bound_general_robin",
    "bound_fundamental",
]

THETA_STAR = 2.0 / 3.0
TAU_STAR = 1.0 / 6.0


@dataclass(frozen=True)
class GenericConstants:
    """User-supplied generic constant for bounds that are not fully explicit.

    c_general: lumped constant of the coarse quadratic-frequency bound.  A
    missing value marks the bound as symbolic rather than silently
    defaulting.
    """

    c_general: float | None = None

    def __post_init__(self):
        v = self.c_general
        if v is not None and not (math.isfinite(v) and v >= 1.0):
            raise ValueError(f"c_general must be finite and >= 1 when supplied, got {v}")


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with an echo of the inputs that produced it.
    The value may be zero: at omega = 0 in d = 2 the five-power bracket
    vanishes, and omega^2 ||u|| <= 0 holds."""

    bound_name: str
    bound_value: float
    inputs: dict = field(default_factory=dict)
    symbolic: bool = False

    def __post_init__(self):
        if not self.bound_value >= 0.0:
            raise ValueError("bound_value must be nonnegative")


def quadratic_root_bound(a: float, b: float, c: float) -> float:
    """Upper bound sqrt(a c) + b for a x, valid whenever x >= 0 satisfies
    a x^2 <= c + b x (all of a, b, c positive)."""
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise ValueError("quadratic_root_bound needs a, b, c > 0")
    return math.sqrt(a * c) + b


def stability_simple_robin(
    groups: DimensionlessGroups,
    mult: MultiplierSpec,
    d: int,
) -> BoundReport:
    """Sharp frequency-explicit bound for sphere-aligned multipliers and a
    diagonal impedance matrix.

    Evaluates the five-power bracket

        (d-2+eps)/(2M) + zeta/2
        + sqrt(chi) k^(1/6) + (M/4m) k^(1/3)
        + (5/2 + (M/4m) C_rob) k^(2/3)
        + (1 + 1/(2 alpha_min) + (M/16m) C_rob^2) k

    and reports the normalized constant (M/gamma) * bracket so the result
    multiplies ||f||_rho directly.
    """
    if mult.gamma <= 0.0 or mult.m <= 0.0:
        raise InadmissibleMultiplierError("need gamma > 0 and m > 0")
    k = groups.kappa_s
    mm = mult.M / (4.0 * mult.m)
    bracket = (
        (d - 2.0 + mult.epsilon) / (2.0 * mult.M)
        + 0.5 * groups.zeta
        + math.sqrt(groups.chi) * k ** (1.0 / 6.0)
        + mm * k ** (1.0 / 3.0)
        + (2.5 + mm * groups.c_rob) * k ** (2.0 / 3.0)
        + (1.0 + 0.5 / groups.alpha_min + 0.25 * mm * groups.c_rob**2) * k
    )
    value = (mult.M / mult.gamma) * bracket
    return BoundReport(
        bound_name="simple_robin",
        bound_value=value,
        inputs={"d": d, **groups.as_dict(), "M": mult.M, "m": mult.m,
                "eta": mult.eta, "epsilon": mult.epsilon, "gamma": mult.gamma},
    )


def assembled_bound_raw(
    kappa: float,
    groups: DimensionlessGroups,
    mult: MultiplierSpec,
    d: int,
    theta: float = THETA_STAR,
    tau: float = TAU_STAR,
) -> float:
    """Pre-simplification bound with free Young exponents theta, tau.

    Chains the Morawetz estimate, the Young-inequality split of the gradient
    term, the boundary dissipation identity, and the quadratic-root lemma
    without rounding any constant; the starred exponents (2/3, 1/6) balance
    the competing powers of kappa.  Used by the estimate-chain audit and to
    show the starred choice is at least as good as naive exponents.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive for the raw assembled bound")
    c_f = (
        math.sqrt(2.0) * (1.0 + groups.chi / kappa) * kappa ** (2.0 - theta)
        + 2.0 / math.sqrt(groups.alpha_n) * kappa ** (1.5 - tau)
    )
    c_m = (
        (d - 2.0 + mult.epsilon) / mult.M
        + groups.zeta
        + math.sqrt(2.0) * kappa**theta
        + (2.0 + 1.0 / groups.alpha_min) * kappa
        + (mult.M / (8.0 * mult.m)) * (groups.c_rob * math.sqrt(kappa) + 2.0 * kappa**tau) ** 2
    )
    a = 2.0 * mult.gamma / mult.M
    return (quadratic_root_bound(a, c_m, c_f)) / a


class ObstacleIdealBound(NamedTuple):
    full: float
    simplified: float


def bound_obstacle_ideal(kappa: float, d: int) -> ObstacleIdealBound:
    """Star-shaped obstacle, homogeneous medium, alpha_t = alpha_n = 1.

    full       = (d/2 - 1) + k^(1/6) + k^(1/3)/4 + (13/4) k^(2/3) + (33/16) k
    simplified = 3 + 5 k    (dominates full for d <= 3)
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    full = (
        (0.5 * d - 1.0)
        + kappa ** (1.0 / 6.0)
        + 0.25 * kappa ** (1.0 / 3.0)
        + (13.0 / 4.0) * kappa ** (2.0 / 3.0)
        + (33.0 / 16.0) * kappa
    )
    return ObstacleIdealBound(full=full, simplified=3.0 + 5.0 * kappa)


def bound_obstacle_realistic(kappa: float, lambda_over_mu: float) -> float:
    """Star-shaped obstacle with the pressure-matched impedance
    alpha_t = 1, alpha_n = sqrt(2 + lambda/mu):

        1/2 + k^(1/6) + k^(1/3)/4
        + (7/2 + sqrt(lambda/mu)/2) k^(2/3) + (2 + (lambda/mu)/4) k
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if lambda_over_mu < 0.0:
        raise ValueError("lambda/mu must be nonnegative")
    return (
        0.5
        + kappa ** (1.0 / 6.0)
        + 0.25 * kappa ** (1.0 / 3.0)
        + (3.5 + 0.5 * math.sqrt(lambda_over_mu)) * kappa ** (2.0 / 3.0)
        + (2.0 + 0.25 * lambda_over_mu) * kappa
    )


def bound_general_robin(kappa: float, constants: GenericConstants | None = None) -> BoundReport:
    """Coarse bound C (1 + kappa^2) for general impedance matrices and
    boundary shapes.  The constant C is not computable from the geometry
    here; when it is not supplied the report is symbolic with C = 1."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    c = None if constants is None else constants.c_general
    symbolic = c is None
    c_val = 1.0 if symbolic else float(c)
    return BoundReport(
        bound_name="general_robin",
        bound_value=c_val * (1.0 + kappa**2),
        inputs={"kappa_s": kappa, "c_general": c_val, "scaling": "quadratic"},
        symbolic=symbolic,
    )


def bound_fundamental(kappa: float) -> float:
    """Whole-space homogeneous bound via the fundamental solution: 4 + 17 k."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    return 4.0 + 17.0 * kappa
