"""Analytic complex vector fields with exact derivatives.

The identity audits consume fields through three evaluators:

    value(x)  -> (Q, d) complex
    grad(x)   -> (Q, d, d) with grad[q, j, l] = d_j v_l
    second(x) -> (Q, d, d, d) with second[q, j, k, l] = d_j d_k v_l

``div_sigma`` for constant coefficients derives from ``second``; the audits
form strain and stress from ``grad`` themselves.  The library ships
constants, general polynomials (and their products with scalar
polynomials), plane P/S waves, and compactly supported radial bumps.

A polynomial keeps its derivative walk (the terms of each derivative
order) and reads the powers and monomial products of the points from a
monomial table.  Outside ``shared_tables`` every evaluation builds its own
table.  Inside it, every evaluation on the same points, by any polynomial
field and at any order, reads one table, built on first use and released
when the block ends; ``identity-check`` runs its suites in one such block.
A table's entries do not depend on who reads them first, so sharing moves
no bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticField",
    "PolynomialField",
    "PlaneWaveField",
    "RadialBumpField",
    "shared_tables",
    "constant_field",
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

    def div_sigma(self, x: np.ndarray, mu: float, lam: float) -> np.ndarray:
        """div sigma(v) = mu Lap(v) + (mu + lam) grad(div v) for constant
        Lame coefficients."""
        s = self.second(x)
        lap = np.einsum("qjjl->ql", s)
        grad_div = np.einsum("qlkk->ql", s)
        return mu * lap + (mu + lam) * grad_div


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

    ``value``, ``grad`` and ``second`` are one walk over the monomials
    (``_derivatives``) at derivative order 0, 1 and 2, whose terms the
    field keeps per order (``_terms``).  It reads each power x[:, a] ** e
    and each monomial product from the points' table (``_table``),
    accumulates into component-major (d, ..., Q) buffers and returns their
    transposed (Q, ...) views."""

    def __init__(self, d: int, monomials):
        self.d = d
        self.monomials = [
            _Monomial(int(c), tuple(int(e) for e in ex), complex(a)) for c, ex, a in monomials
        ]
        for m in self.monomials:
            if len(m.exponents) != d or not 0 <= m.component < d or min(m.exponents) < 0:
                raise ValueError(f"malformed monomial: component {m.component}, exponents {m.exponents}")
        self._walks = {}

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
        return self._derivatives(x, 0)

    def grad(self, x):
        return self._derivatives(x, 1)

    def second(self, x):
        return self._derivatives(x, 2)

    def _terms(self, order):
        """The walk of derivative order ``order``, made once per field: for
        each monomial and each axis tuple (j, k, ...) of length ``order``
        whose derivative is not 0, the buffer index [l, ..., k, j], the
        coefficient times the integer factor (e_j, then e_j (e_k - delta_jk))
        and the exponents left."""
        terms = self._walks.get(order)
        if terms is None:
            terms = self._walks[order] = []
            for m in self.monomials:
                for axes in itertools.product(range(self.d), repeat=order):
                    de, factor = list(m.exponents), 1
                    for a in axes:
                        factor *= de[a]
                        de[a] -= 1
                    if factor:
                        terms.append(((m.component, *axes[::-1]), m.coeff * factor, tuple(de)))
        return terms

    def _derivatives(self, x, order):
        """d_j v_l, d_j d_k v_l, ... for every axis tuple (j, k, ...) of
        length ``order``, accumulated term by term (``_terms``) into an
        [l, ..., k, j, q] buffer and returned as its (Q, j, k, ..., l)
        transpose."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mono = _table(x)
        out = np.zeros((self.d,) * (order + 1) + (x.shape[0],), dtype=complex)
        for index, coeff, exponents in self._terms(order):
            out[index] += coeff * mono(exponents)
        return out.T

    def multiply_scalar_polynomial(self, scalar_monomials) -> "PolynomialField":
        """Product with a scalar polynomial given as (exponents, coeff) pairs."""
        prod = []
        for m in self.monomials:
            for ex, a in scalar_monomials:
                combined = tuple(e1 + e2 for e1, e2 in zip(m.exponents, ex, strict=True))
                prod.append((m.component, combined, m.coeff * complex(a)))
        return PolynomialField(self.d, prod)


_TABLES = contextvars.ContextVar("monomial_tables", default=None)


@contextlib.contextmanager
def shared_tables():
    """Share one monomial table per point set among every polynomial
    evaluation inside the block, keyed by the points' shape and bytes; the
    tables are released when the block ends.  A block nested in another
    keeps its own tables."""
    token = _TABLES.set({})
    try:
        yield
    finally:
        _TABLES.reset(token)


def _table(x):
    """The monomial table of the points x: the shared one inside
    ``shared_tables``, else a new one."""
    tables = _TABLES.get()
    if tables is None:
        return _monomial_table(x)
    key = (x.shape, x.tobytes())
    mono = tables.get(key)
    if mono is None:
        # built on the key's bytes, which no caller can change later
        mono = tables[key] = _monomial_table(np.frombuffer(key[1]).reshape(x.shape))
    return mono


def _monomial_table(x):
    """``mono(exponents)`` = prod_a x[:, a] ** e_a; each power x[:, a] ** e
    and each product is formed once per table."""

    @functools.cache
    def power(axis, e):
        return x[:, axis] ** e

    @functools.cache
    def mono(exponents):
        out = np.ones(x.shape[0], dtype=float)
        for axis, e in enumerate(exponents):
            if e:
                out = out * power(axis, e)
        return out

    return mono


def constant_field(vec) -> PolynomialField:
    vec = np.asarray(vec)
    d = vec.shape[0]
    zero = tuple([0] * d)
    return PolynomialField(d, [(c, zero, vec[c]) for c in range(d)])


def random_polynomial(d: int, degree: int, seed: int, scale: float = 1.0) -> PolynomialField:
    """Dense random complex polynomial field up to the given total degree,
    its exponents in lexicographic order."""
    rng = np.random.default_rng(seed)
    exps = [ex for ex in itertools.product(range(degree + 1), repeat=d) if sum(ex) <= degree]
    monos = []
    for comp in range(d):
        for ex in exps:
            coeff = scale * (rng.normal() + 1j * rng.normal())
            monos.append((comp, ex, coeff))
    return PolynomialField(d, monos)


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
