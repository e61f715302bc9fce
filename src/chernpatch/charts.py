"""Concrete charts: product-of-exponentials group charts, the bridge between
chart-level and algebraic curvature, and the projective-line Chern number
quadrature, which evaluates its chart in closed form on the grid, a block
of rows at a time, forms only the entry [0, 0] of g^{-1} d_phi g that its
integrand reads, and integrates with composite Simpson weights in numpy.

Stack convention: a group chart gives the Maurer-Cartan coefficients of all
chart directions at each point of a (P, dim) stack as one (P, dim, N, N)
array, from one expm call on the distinct factors exp(-x_j e_j) of the
stack, and the connection it is paired with maps a (..., N, N) stack to
(..., d, d); so a form coefficient map makes one mc_coeff call per stack
of points, and a difference curvature one call on its (2 dim + 1) P rows,
which take three values of each coordinate per point.
"""

from __future__ import annotations

import numpy as np

from . import exterior as ext
from . import liecore
from .errors import PreconditionFailed


class GroupChart:
    """Chart x -> g(x) = exp(x_1 e_1) ... exp(x_d e_d) on a matrix group.

    The left Maurer-Cartan coefficients are exact:
        g^{-1} d_i g = Ad( exp(-x_d e_d) ... exp(-x_{i+1} e_{i+1}) ) e_i.
    """

    def __init__(self, spec):
        self.spec = spec
        self.basis = liecore.algebra_basis(spec)
        self.dim = len(self.basis)

    def mc_coeff(self, x):
        """Left Maurer-Cartan form on every chart vector d/dx_i at each point
        of a (..., dim) stack: (..., dim, N, N).  h_j = exp(-x_j e_j) and its
        inverse come from one expm call on the (2, U, N, N) stack of the U
        distinct pairs (j, x_j), few since the displaced rows of a central
        difference share all but one coordinate with their point; x_j is
        keyed on its bits, so that 0.0 and -0.0 stay apart.  One sweep then
        conjugates the coefficients i < j by h_j for j = 1, ..., dim - 1."""
        xj = np.asarray(x, dtype=float)[..., 1:]
        keys = np.stack(np.broadcast_arrays(np.arange(1, self.dim),
                                            xj.view(np.int64)), axis=-1)
        pairs, idx = np.unique(keys.reshape(-1, 2), axis=0,
                               return_inverse=True)
        t = -pairs[:, 1].view(float)[:, None, None] * self.basis[pairs[:, 0]]
        h = liecore.expm(np.stack([t, -t]))
        idx = idx.reshape(xj.shape + (1,))
        v = np.broadcast_to(self.basis, xj.shape[:-1] + self.basis.shape).copy()
        for j in range(1, self.dim):
            k = idx[..., j - 1, :]
            np.matmul(h[0, k] @ v[..., :j, :, :], h[1, k], out=v[..., :j, :, :])
        return v

    def connection_form(self, conn) -> ext.VForm:
        """Pullback of the left-invariant connection form to the chart."""
        return ext.VForm(self.dim, 1, lambda xs: conn.omega0(self.mc_coeff(xs)))

    def algebraic_curvature_form(self, conn) -> ext.VForm:
        """The same curvature assembled without chart differentiation: the
        structure equation on the stack mc(x) of chart directions, whose
        coefficient (i < j) at x is Omega_0(mc_i(x), mc_j(x))."""
        return ext.VForm(self.dim, 2,
                         lambda xs: conn.curvature0(self.mc_coeff(xs)))


def curvature_bridge_residual(spec, conn, points, rng=None):
    """Max difference between chart-level curvature_form of the pulled-back
    connection form and the algebraic curvature, over sample points, taken
    on stacks of at most eight points (which bounds the temporaries of the
    central difference): each side is one evaluate call per stack, so a
    stack makes two mc_coeff calls.  A non-finite point is refused."""
    chart = GroupChart(spec)
    om = chart.connection_form(conn)
    chart_curv = ext.curvature_form(om)
    alg_curv = chart.algebraic_curvature_form(conn)
    rng = rng or np.random.default_rng(0)
    xs = ext.point_stack(points, chart.dim)
    liecore.require_of(np.abs(xs).max(axis=-1) < np.inf,
                       "chart point is not finite", "chart point", xs, -1)
    vs = rng.standard_normal((len(xs), 2, chart.dim))
    diffs = (chart_curv.evaluate(x, v) - alg_curv.evaluate(x, v) for x, v in
             ((xs[s:s + 8], vs[s:s + 8]) for s in range(0, len(xs), 8)))
    return float(np.max([np.max(np.abs(d)) for d in diffs], initial=0.0))


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
    Composite Simpson needs n >= 3 grid points per axis.
    """
    if n < 3:
        raise PreconditionFailed(
            f"the quadrature grid needs at least 3 points per axis, got {n}")

    def omega_phi(theta, phi):
        # weight-m character of the torus part of g^{-1} d_phi g: its entry
        # [0, 0], row 0 of g^{-1} = g(-theta) times column 0 of the difference
        h = 1e-6  # the step along phi
        a = _p1_chart(-theta, phi)[..., 0, :]
        d = (_p1_chart(theta, phi + h) - _p1_chart(theta, phi - h))[..., :, 0]
        return weight * ((a * d).sum(axis=-1) / (2 * h))

    # omega_theta = lam'((g^{-1} d_theta g)_k) = lam'(u(phi)_diag) = 0, so the
    # curvature reduces to  d omega = d_theta(omega_phi) dtheta ^ dphi.
    # The coset map halves angles: theta in (0, pi/2) covers the sphere
    # minus the two poles exactly once.
    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n)
    phis = np.linspace(0.0, 2 * np.pi, n)
    h = 1e-5
    # F is elementwise, so blocks of 16 theta rows bound the temporaries
    F = np.concatenate([
        (omega_phi(th + h, phis) - omega_phi(th - h, phis)) / (2 * h)
        for th in np.split(thetas[:, None], range(16, n, 16))])
    integrand = (1j / (2 * np.pi)) * F
    val = _simpson_weights(thetas) @ integrand @ _simpson_weights(phis)
    return complex(val).real
