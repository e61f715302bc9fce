"""Concrete charts: product-of-exponentials group charts, the bridge between
chart-level and algebraic curvature, and the projective-line Chern number
quadrature, which evaluates its chart in closed form on the whole grid at once
and integrates with composite Simpson weights built in numpy.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.linalg

from . import exterior as ext
from . import invariants as inv
from . import liecore


class GroupChart:
    """Chart x -> g(x) = exp(x_1 e_1) ... exp(x_d e_d) on a matrix group.

    The left Maurer-Cartan coefficients are exact:
        g^{-1} d_i g = Ad( exp(-x_d e_d) ... exp(-x_{i+1} e_{i+1}) ) e_i.
    """

    def __init__(self, spec, basis=None):
        self.spec = spec
        self.basis = list(basis) if basis is not None else liecore.algebra_basis(spec)
        self.dim = len(self.basis)

    def g(self, x):
        out = np.eye(self.spec.size, dtype=complex)
        for xi, e in zip(x, self.basis):
            out = out @ scipy.linalg.expm(float(xi) * np.asarray(e, dtype=complex))
        if self.spec.family in ("sp2nR", "so2"):
            out = out.real
        return out

    def mc_coeff(self, i, x):
        """Left Maurer-Cartan form on the chart vector d/dx_i."""
        v = self.basis[i]
        for j in range(i + 1, self.dim):
            h = scipy.linalg.expm(-float(x[j]) * np.asarray(self.basis[j], dtype=complex))
            v = h @ v @ np.linalg.inv(h)
        return v

    def connection_form(self, conn) -> ext.VForm:
        """Pullback of the left-invariant connection form to the chart."""
        return ext.VForm(self.dim, 1, ext.SmoothMap(
            self.dim, lambda x: np.array([conn.omega0(self.mc_coeff(i, x))
                                          for i in range(self.dim)])))

    def algebraic_curvature_form(self, conn) -> ext.VForm:
        """The same curvature assembled without chart differentiation:
        coefficient (i < j) at x is Omega_0(mc_i(x), mc_j(x))."""
        def coeffs(x):
            mc = [self.mc_coeff(i, x) for i in range(self.dim)]
            return np.array([conn.curvature0(mc[i], mc[j])
                             for i, j in combinations(range(self.dim), 2)])

        return ext.VForm(self.dim, 2, ext.SmoothMap(self.dim, coeffs))


def curvature_bridge_residual(spec, conn, points, rng=None):
    """Max difference between chart-level curvature_form of the pulled-back
    connection form and the algebraic curvature, over sample points."""
    chart = GroupChart(spec)
    om = chart.connection_form(conn)
    chart_curv = ext.curvature_form(om)
    alg_curv = chart.algebraic_curvature_form(conn)
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for x in points:
        v1 = rng.standard_normal(chart.dim)
        v2 = rng.standard_normal(chart.dim)
        a = chart_curv.evaluate(x, [v1, v2])
        b = alg_curv.evaluate(x, [v1, v2])
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


# ---------------------------------------------------------------------------
# projective line


def _simpson_weights(x):
    """Composite Simpson weights on the uniform grid x (at least 3 points):
    weights @ y integrates y.  For an even point count the last interval
    takes the correction (-1, 8, 5) h/12, as scipy.integrate.simpson does."""
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    m = n - 1 + n % 2  # odd count of points under composite Simpson
    w = np.zeros(n)
    w[1:m - 1:2] = 4.0
    w[2:m - 1:2] = 2.0
    w[[0, m - 1]] = 1.0
    w *= h / 3
    if m < n:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) * h / 12
    return w


_P1 = np.array([[0, 1], [-1, 0]], dtype=complex)
_P2 = np.array([[0, 1j], [1j, 0]], dtype=complex)


def _p1_chart(theta, phi):
    """exp(theta u(phi)) with u(phi) = cos phi P1 + sin phi P2, broadcast over
    theta and phi.  Since u(phi)^2 = -I it is cos(theta) I + sin(theta) u(phi)."""
    c, s = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
    u = np.multiply.outer(np.cos(phi), _P1) + np.multiply.outer(np.sin(phi), _P2)
    return c * np.eye(2) + s * u


def p1_chern_number(weight=2, n=160):
    """Integral of the first Chern form of the Nomizu connection on the
    weight-m line bundle over SU(2)/U(1).

    Chart: g(theta, phi) = exp(theta * (cos phi P1 + sin phi P2)) with
    P1, P2 spanning the off-diagonal part of su(2); the chart covers the
    sphere minus the poles, which are a null set for the integral.
    """

    def omega_phi(theta, phi, h=1e-6):
        # weight-m character of the torus part of g^{-1} d_phi g; g^{-1} = g(-theta)
        mc = (_p1_chart(-theta, phi)
              @ (_p1_chart(theta, phi + h) - _p1_chart(theta, phi - h)) / (2 * h))
        return weight * mc[..., 0, 0]

    # omega_theta = lam'((g^{-1} d_theta g)_k) = lam'(u(phi)_diag) = 0, so the
    # curvature reduces to  d omega = d_theta(omega_phi) dtheta ^ dphi.
    # The coset map halves angles: theta in (0, pi/2) covers the sphere
    # minus the two poles exactly once.
    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n)
    phis = np.linspace(0.0, 2 * np.pi, n)
    h = 1e-5
    th = thetas[:, None]
    F = (omega_phi(th + h, phis) - omega_phi(th - h, phis)) / (2 * h)
    integrand = (1j / (2 * np.pi)) * F
    val = _simpson_weights(thetas) @ integrand @ _simpson_weights(phis)
    return complex(val).real
