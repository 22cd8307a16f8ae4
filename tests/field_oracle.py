"""Per-monomial evaluator of ``fields.PolynomialField``, the oracle for its
derivative walk, which forms each power and monomial product once per point
set.

Each monomial and each of its derivatives is evaluated on its own, as
prod_a x[:, a] ** e_a from a fresh array of ones, and added into a
point-major (Q, ...) array in monomial order.  It shares no evaluation
code with the package.

Also here: linear fields A x, the infinitesimal rotation (a strain-free
linear field), and a centered difference check of any field's analytic
gradient.
"""

import numpy as np

from elastab import fields


def _eval_mono(x, exponents):
    out = np.ones(x.shape[0], dtype=float)
    for axis, e in enumerate(exponents):
        if e:
            out = out * x[:, axis] ** e
    return out


def value(field, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], field.d), dtype=complex)
    for m in field.monomials:
        out[:, m.component] += m.coeff * _eval_mono(x, m.exponents)
    return out


def grad(field, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], field.d, field.d), dtype=complex)
    for m in field.monomials:
        for j, e in enumerate(m.exponents):
            if e == 0:
                continue
            de = list(m.exponents)
            de[j] -= 1
            out[:, j, m.component] += m.coeff * e * _eval_mono(x, de)
    return out


def second(field, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], field.d, field.d, field.d), dtype=complex)
    for m in field.monomials:
        for j, ej in enumerate(m.exponents):
            if ej == 0:
                continue
            for k in range(field.d):
                de = list(m.exponents)
                de[j] -= 1
                factor = ej * de[k]
                if factor == 0:
                    continue
                de[k] -= 1
                out[:, j, k, m.component] += m.coeff * factor * _eval_mono(x, de)
    return out


def linear_field(matrix):
    """v(x) = A x."""
    a = np.asarray(matrix)
    d = a.shape[0]
    monos = []
    for comp in range(d):
        for j in range(d):
            ex = [0] * d
            ex[j] = 1
            monos.append((comp, tuple(ex), a[comp, j]))
    return fields.PolynomialField(d, monos)


def rigid_rotation(d, scale=1.0):
    """Infinitesimal rotation: (-y, x) in 2D, (-y, x, 0) in 3D."""
    a = np.zeros((d, d), dtype=complex)
    a[0, 1] = -scale
    a[1, 0] = scale
    return linear_field(a)


def spot_check_gradient(field, points, step=1e-6):
    """Max relative error of the analytic gradient against centered
    differences of value()."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    g = field.grad(points)
    worst = 0.0
    scale = np.abs(g).max() + 1e-300
    for j in range(field.d):
        e = np.zeros(field.d)
        e[j] = step
        fd = (field.value(points + e) - field.value(points - e)) / (2.0 * step)
        worst = max(worst, float(np.abs(fd - g[:, j, :]).max()) / scale)
    return worst
