"""Analytic complex vector fields with exact derivatives.

The identity audits consume fields through three evaluators:

    value(x)  -> (Q, d) complex
    grad(x)   -> (Q, d, d) with grad[q, j, l] = d_j v_l
    second(x) -> (Q, d, d, d) with second[q, j, k, l] = d_j d_k v_l

Everything else (strain, div sigma for constant coefficients)
derives from those.  The library ships constants, linear maps, general
polynomials (and products thereof), plane P/S waves, and compactly supported
radial bumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticField",
    "PolynomialField",
    "PlaneWaveField",
    "RadialBumpField",
    "constant_field",
    "linear_field",
    "random_polynomial",
    "plane_shear_wave",
    "plane_pressure_wave",
]


class AnalyticField:
    """Base class; subclasses implement value/grad/second."""

    d: int

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def second(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support(self, x: np.ndarray) -> np.ndarray | None:
        """Mask of the points x (Q, d) where v may be nonzero, or None when
        it may be anywhere: off the mask v and its derivatives vanish, so
        volume integrals of them may skip those points."""
        return None

    # -- derived quantities ------------------------------------------------

    def strain(self, x: np.ndarray) -> np.ndarray:
        g = self.grad(x)
        return 0.5 * (g + np.swapaxes(g, -2, -1))

    def div_sigma(self, x: np.ndarray, mu: float, lam: float) -> np.ndarray:
        """div sigma(v) = mu Lap(v) + (mu + lam) grad(div v) for constant
        Lame coefficients."""
        s = self.second(x)
        lap = np.einsum("qjjl->ql", s)
        grad_div = np.einsum("qlkk->ql", s)
        return mu * lap + (mu + lam) * grad_div

    def __add__(self, other: "AnalyticField") -> "AnalyticField":
        return _SumField(self, other)

    def __mul__(self, scalar: complex) -> "AnalyticField":
        return _ScaledField(self, scalar)

    __rmul__ = __mul__


class _SumField(AnalyticField):
    def __init__(self, a, b):
        if a.d != b.d:
            raise ValueError("dimension mismatch")
        self.a, self.b, self.d = a, b, a.d

    def value(self, x):
        return self.a.value(x) + self.b.value(x)

    def grad(self, x):
        return self.a.grad(x) + self.b.grad(x)

    def second(self, x):
        return self.a.second(x) + self.b.second(x)


class _ScaledField(AnalyticField):
    def __init__(self, a, c):
        self.a, self.c, self.d = a, complex(c), a.d

    def value(self, x):
        return self.c * self.a.value(x)

    def grad(self, x):
        return self.c * self.a.grad(x)

    def second(self, x):
        return self.c * self.a.second(x)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Monomial:
    component: int
    exponents: tuple
    coeff: complex


class PolynomialField(AnalyticField):
    """Multivariate vector polynomial given as (component, exponents, coeff)
    monomials; all derivatives are exact exponent bookkeeping.

    The evaluators compute each power x[:, a] ** e once per point set,
    accumulate into component-major (d, ..., Q) buffers and
    return their transposed (Q, ...) views."""

    def __init__(self, d: int, monomials):
        self.d = d
        self.monomials = [
            _Monomial(int(c), tuple(int(e) for e in ex), complex(a)) for c, ex, a in monomials
        ]
        for m in self.monomials:
            if len(m.exponents) != d or m.component >= d:
                raise ValueError("monomial shape mismatch")

    @property
    def degree(self) -> int:
        """Largest total degree of the monomials (0 for none)."""
        return max((sum(m.exponents) for m in self.monomials), default=0)

    @property
    def exact_order(self) -> int:
        """Smallest ``quadrature_for`` order that integrates every audit
        integrand of this field exactly, for constant coefficients.

        Each integrand is a product of two factors among v, grad v and
        second derivatives of v, where a factor x only comes with a
        derivative ((x.grad)v, (x.n)), so it is a polynomial of total degree
        at most 2p for p = ``degree``.  In polar or
        spherical coordinates a degree-q polynomial is a sum of r^k times
        angular terms of trig degree <= k <= q, and the Jacobian r^(d-1)
        raises the radial degree to at most 2p + 2 (d <= 3).  The rule of
        ``quadrature_for(order)`` has n_r = order Gauss-Legendre radial
        nodes, exact to degree 2 order - 1 >= 2p + 2 once order >= p + 2;
        its 2 order polar Gauss nodes and 4 order azimuthal nodes are exact
        to trig degree 4 order - 1 > 2p.  Boundary rules use the same
        angular nodes.  Order p falls short: at d = 3, p = 4 the radial
        degree 2p + 2 = 10 exceeds 2p - 1 = 7.
        """
        return self.degree + 2

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mono = _monomial_table(x)
        out = np.zeros((self.d, x.shape[0]), dtype=complex)
        for m in self.monomials:
            out[m.component] += m.coeff * mono(m.exponents)
        return out.T

    def grad(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mono = _monomial_table(x)
        out = np.zeros((self.d, self.d, x.shape[0]), dtype=complex)  # [l, j, q]
        for m in self.monomials:
            for j, e in enumerate(m.exponents):
                if e == 0:
                    continue
                de = list(m.exponents)
                de[j] -= 1
                out[m.component, j] += m.coeff * e * mono(de)
        return out.T

    def second(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mono = _monomial_table(x)
        out = np.zeros((self.d, self.d, self.d, x.shape[0]), dtype=complex)  # [l, k, j, q]
        for m in self.monomials:
            for j, ej in enumerate(m.exponents):
                if ej == 0:
                    continue
                for k in range(self.d):
                    de = list(m.exponents)
                    de[j] -= 1
                    factor = ej * de[k]
                    if factor == 0:
                        continue
                    de[k] -= 1
                    out[m.component, k, j] += m.coeff * factor * mono(de)
        return out.T

    def multiply_scalar_polynomial(self, scalar_monomials) -> "PolynomialField":
        """Product with a scalar polynomial given as (exponents, coeff) pairs."""
        prod = []
        for m in self.monomials:
            for ex, a in scalar_monomials:
                combined = tuple(e1 + e2 for e1, e2 in zip(m.exponents, ex))
                prod.append((m.component, combined, m.coeff * complex(a)))
        return PolynomialField(self.d, prod)


def _monomial_table(x):
    """``mono(exponents)`` = prod_a x[:, a] ** e_a, each power x[:, a] ** e
    computed once per point set."""
    powers = {}

    def mono(exponents):
        out = np.ones(x.shape[0], dtype=float)
        for axis, e in enumerate(exponents):
            if e:
                if (axis, e) not in powers:
                    powers[axis, e] = x[:, axis] ** e
                out = out * powers[axis, e]
        return out

    return mono


def constant_field(vec) -> PolynomialField:
    vec = np.asarray(vec)
    d = vec.shape[0]
    zero = tuple([0] * d)
    return PolynomialField(d, [(c, zero, vec[c]) for c in range(d)])


def linear_field(matrix, offset=None) -> PolynomialField:
    """v(x) = A x + b."""
    a = np.asarray(matrix)
    d = a.shape[0]
    monos = []
    for comp in range(d):
        for j in range(d):
            ex = [0] * d
            ex[j] = 1
            monos.append((comp, tuple(ex), a[comp, j]))
        if offset is not None:
            monos.append((comp, tuple([0] * d), np.asarray(offset)[comp]))
    return PolynomialField(d, monos)


def random_polynomial(d: int, degree: int, seed: int, scale: float = 1.0) -> PolynomialField:
    """Dense random complex polynomial field up to the given total degree."""
    rng = np.random.default_rng(seed)
    monos = []
    exps = _exponents_up_to(d, degree)
    for comp in range(d):
        for ex in exps:
            coeff = scale * (rng.normal() + 1j * rng.normal())
            monos.append((comp, ex, coeff))
    return PolynomialField(d, monos)


def _exponents_up_to(d: int, degree: int):
    if d == 2:
        return [(i, j) for i in range(degree + 1) for j in range(degree + 1) if i + j <= degree]
    return [
        (i, j, k)
        for i in range(degree + 1)
        for j in range(degree + 1)
        for k in range(degree + 1)
        if i + j + k <= degree
    ]


# ---------------------------------------------------------------------------
# Plane waves
# ---------------------------------------------------------------------------

class PlaneWaveField(AnalyticField):
    """v(x) = p exp(i k . x)."""

    def __init__(self, polarization, wavevector):
        self.p = np.asarray(polarization, dtype=complex)
        self.k = np.asarray(wavevector, dtype=float)
        self.d = self.p.shape[0]

    def _phase(self, x):
        return np.exp(1j * (x @ self.k))

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._phase(x)[:, None] * self.p

    def grad(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ph = self._phase(x)
        return 1j * ph[:, None, None] * (self.k[:, None] * self.p[None, :])

    def second(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ph = self._phase(x)
        kk = self.k[:, None] * self.k[None, :]
        return -ph[:, None, None, None] * (kk[:, :, None] * self.p[None, None, :])


def plane_shear_wave(d: int, k_s: float) -> PlaneWaveField:
    """Shear wave traveling along x1 with transverse polarization e2."""
    k = np.zeros(d)
    k[0] = k_s
    p = np.zeros(d)
    p[1] = 1.0
    return PlaneWaveField(p, k)


def plane_pressure_wave(d: int, k_p: float) -> PlaneWaveField:
    """Pressure wave traveling along x1 with longitudinal polarization e1."""
    k = np.zeros(d)
    k[0] = k_p
    p = np.zeros(d)
    p[0] = 1.0
    return PlaneWaveField(p, k)


# ---------------------------------------------------------------------------
# Compactly supported radial bumps
# ---------------------------------------------------------------------------

class RadialBumpField(AnalyticField):
    """v(x) = a * (1 - s^2)^5 for s = |x - c|/R < 1, zero outside.

    C^4-smooth across the support boundary; enough regularity for every
    first- and second-derivative audit.
    """

    _POW = 5

    def __init__(self, center, radius: float, amplitude):
        self.c = np.asarray(center, dtype=float)
        self.R = float(radius)
        self.a = np.asarray(amplitude, dtype=complex)
        self.d = self.c.shape[0]

    def _s2(self, x):
        z = (np.atleast_2d(np.asarray(x, dtype=float)) - self.c) / self.R
        return z, np.sum(z * z, axis=1)

    def support(self, x):
        """s < 1: v and its first four derivatives vanish outside."""
        return self._s2(x)[1] < 1.0

    def value(self, x):
        z, s2 = self._s2(x)
        g = np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** self._POW, 0.0)
        return g[:, None] * self.a

    def grad(self, x):
        p = self._POW
        z, s2 = self._s2(x)
        core = np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** (p - 1), 0.0)
        dg = -2.0 * p * core[:, None] * z / self.R  # d_j g
        return dg[:, :, None] * self.a[None, None, :]

    def second(self, x):
        p = self._POW
        z, s2 = self._s2(x)
        inside = s2 < 1.0
        one = 1.0 - np.minimum(s2, 1.0)
        c1 = np.where(inside, one ** (p - 1), 0.0)
        c2 = np.where(inside, one ** (p - 2), 0.0)
        # d_j d_k g = (-2p/R^2) [ c1 delta_jk - 2(p-1) c2 z_j z_k ]
        eye = np.eye(self.d)
        hess = (-2.0 * p / self.R**2) * (
            c1[:, None, None] * eye - 2.0 * (p - 1) * c2[:, None, None] * (z[:, :, None] * z[:, None, :])
        )
        return hess[:, :, :, None] * self.a[None, None, None, :]
