"""The rank-two Siegel space with its two boundary strata: the geometric
instance of the patched-connection machinery.

Strata (top to bottom):

    X = H_2 (the open symmetric space of Sp(4,R)),
    Y = H_1 (upper half plane, hermitian part of the rank-1 parabolic),
    Z = point (boundary component of the Lagrangian parabolic).

Control data on the chart Z = [[z11, z12],[z12, z22]]:

    pi_Y(Z) = z11,   rho_Y(Z) = 1 / Im z22,   rho_Z(Z) = 1 / Im z11,

which satisfy rho_Z(pi_Y(Z)) = rho_Z(Z) exactly.  The section

    s(Z) = [[L, X L^{-T}], [0, L^{-T}]],   Im Z = L L^T (Cholesky)

lands in the intersection of both standard parabolics and maps the basepoint
i*I to Z, with pi compatible with the group-level Levi factorization.

The patched connection is a :class:`strata.PatchedSystem` over these control
data.  Its geometric point over X is a chart point with a tangent vector
(:class:`TangentVector`); over Y it is the Lie(G_h) part hdot of that vector
in the rank-1 (Klingen) parabolic, which is all the invariant connections on
Y read; over the point Z it is nothing.  Each tangent vector is split once.
"""

from __future__ import annotations

import numpy as np

from . import exterior as ext
from . import hcrepr
from . import liecore
from . import strata
from .errors import PreconditionFailed

CHART_ORDER = ("x11", "x12", "x22", "y11", "y12", "y22")


def z_from_coords(x):
    x11, x12, x22, y11, y12, y22 = x
    return (np.array([[x11, x12], [x12, x22]], dtype=complex)
            + 1j * np.array([[y11, y12], [y12, y22]], dtype=complex))


def section(x):
    """Group element s in Sp(4,R) with s . (i I) = Z(x), inside both
    standard parabolics."""
    Z = z_from_coords(x)
    Y = Z.imag
    X = Z.real
    L = np.linalg.cholesky(Y)
    Lit = np.linalg.inv(L).T
    g = np.zeros((4, 4))
    g[:2, :2] = L
    g[:2, 2:] = X @ Lit
    g[2:, 2:] = Lit
    return g


def section_mc(x):
    """List of s^{-1} d_i s over the six chart directions (analytic)."""
    Z = z_from_coords(x)
    Y = Z.imag
    X = Z.real
    L = np.linalg.cholesky(Y)
    Linv = np.linalg.inv(L)
    Lit = Linv.T
    s = section(x)
    sinv = np.linalg.inv(s)
    out = []
    for k in range(6):
        dX = np.zeros((2, 2))
        dY = np.zeros((2, 2))
        i, j = [(0, 0), (0, 1), (1, 1)][k % 3]
        if k < 3:
            dX[i, j] = dX[j, i] = 1.0
        else:
            dY[i, j] = dY[j, i] = 1.0
        # Cholesky differential: dL = L Phi(L^{-1} dY L^{-T})
        M = Linv @ dY @ Linv.T
        Phi = np.tril(M, -1) + np.diag(np.diag(M)) / 2.0
        dL = L @ Phi
        dLit = -Lit @ dL.T @ Lit
        ds = np.zeros((4, 4))
        ds[:2, :2] = dL
        ds[:2, 2:] = dX @ Lit + X @ dLit
        ds[2:, 2:] = dLit
        out.append(sinv @ ds)
    return out


# ---------------------------------------------------------------------------


class TangentVector:
    """Geometric point of the patched system over X: the chart point x and
    mc = s^{-1} ds(v) for a tangent vector v at x.  `klingen` keeps its
    split along the rank-1 parabolic once it has been made."""

    __slots__ = ("x", "mc", "klingen")

    def __init__(self, x, mc):
        self.x, self.mc, self.klingen = x, mc, None


class SiegelModel:
    """Bundle data and patched-connection evaluators on the three strata."""

    def __init__(self, rep_name="std", eps0=1.0):
        self.spec = liecore.sp2nR(2)
        self.rep = hcrepr.builtin_representation(self.spec, rep_name)
        self.pdK = liecore.parabolic_data(self.spec, (1,))   # normalizes Y
        self.pdS = liecore.parabolic_data(self.spec, (2,))   # normalizes Z
        self.extK = hcrepr.canonical_extension(self.rep, 1)
        self.extS = hcrepr.canonical_extension(self.rep, 2)
        self.ext21 = hcrepr.relative_extension(self.rep, 1, 2)
        self.model = strata.FlagTubeModel(
            strata=[{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1},
                    {"name": "X", "dimC": 3}],
            flags=[["Z", "Y", "X"]], eps0=eps0)
        # Cartan element of the hermitian sl(2) on the (e0, f0) plane
        self._W_H = np.diag([1.0, 0.0, -1.0, 0.0])
        self._kcache = {}
        # The point stratum carries the zero connection, so the connections
        # induced from it read only the Levi part of the tangent vector.
        self.system = strata.PatchedSystem(
            self.model,
            nomizu={"X": lambda pt, v: self.omega_nomizu(v.mc),
                    "Y": lambda pt, hdot: self.omega_Y_nomizu(hdot),
                    "Z": lambda pt, _: 0.0},
            pullback={("X", "Y"): lambda pt, v, val: self.omega_XY(v, val),
                      ("X", "Z"): lambda pt, v, _: self.omega_XZ(v.mc),
                      ("Y", "Z"): lambda pt, hdot, _: self.omega_YZ(hdot)},
            project=self.project)

    # control data ------------------------------------------------------

    def model_point(self, x):
        """Control data at x: rho_Z = 1 / Im z11, rho_Y = 1 / Im z22."""
        return self.model.point(("Z", "Y", "X"), (1.0 / x[3], 1.0 / x[5]))

    def _klingen(self, v: TangentVector):
        """(hdot, ldot, lam, lam_inv): the Lie(G_h) and linear Levi parts of
        v.mc in the rank-1 parabolic, and lambda_1 of the inverse linear Levi
        factor of the section at v.x with its inverse."""
        if v.klingen is None:
            _, hdot, ldot = self.pdK.split(v.mc)
            xt = tuple(map(float, v.x))
            hit = self._kcache.get(xt)
            if hit is None:
                if len(self._kcache) > 256:
                    self._kcache.clear()
                _, _, g_l = liecore.group_factor(self.pdK, section(v.x))
                lam = self.extK(np.linalg.inv(g_l))
                hit = (lam, np.linalg.inv(lam))
                self._kcache[xt] = hit
            v.klingen = (hdot, ldot) + hit
        return v.klingen

    def project(self, v, Y, Z):
        """The geometric point over pi_Z: hdot on Y, nothing on the point."""
        return self._klingen(v)[0] if Z == "Y" else None

    # connection-form evaluators ----------------------------------------
    # each returns an End(V) matrix

    def omega_nomizu(self, mc):
        k, _ = liecore.cartan_split(self.spec, mc)
        return self.rep.lam_alg(k)

    def omega_XZ(self, mc):
        """Induced from the point stratum through the Lagrangian parabolic."""
        _, _, ldot = self.pdS.split(mc)
        return self.extS.alg(ldot)

    def omega_Y_nomizu(self, hdot):
        k, _ = liecore.cartan_split(self.spec, hdot)
        return self.extK.alg(k)

    def omega_YZ(self, hdot, tol=1e-8):
        """Induced from the point through the plane Borel of sl(2)_W."""
        a, c = hdot[0, 0], hdot[2, 0]
        if abs(c) > tol * max(1.0, float(np.max(np.abs(hdot)))):
            raise PreconditionFailed("hermitian component not in the plane Borel")
        return self.ext21.alg(a * self._W_H)

    def omega_XY(self, v: TangentVector, val):
        """Pullback through the rank-1 parabolic: the value at v of the
        connection induced from one on Y whose value at hdot is val."""
        _, ldot, lam, lam_inv = self._klingen(v)
        return self.extK.alg(ldot) + lam @ val @ lam_inv

    def omega_induced_nomizu(self, x, mc):
        """The connection on X induced from the Nomizu connection on Y."""
        v = TangentVector(x, mc)
        return self.omega_XY(v, self.omega_Y_nomizu(self.project(v, "X", "Y")))

    # patched connection on X -------------------------------------------

    def omega_patched(self, x, mc):
        """Recursive definition of the patched form."""
        return self.system.patched(self.model_point(x), TangentVector(x, mc))

    def omega_patched_chain(self, x, mc):
        """Closed chain form of the same connection."""
        return self.system.chain_form(self.model_point(x), TangentVector(x, mc))

    def omega_patched_localized(self, x, mc):
        """Localized form around the base stratum W; returns (value, W, wsum)."""
        return self.system.localized(self.model_point(x), TangentVector(x, mc))

    # chart forms --------------------------------------------------------

    def form_from_evaluator(self, evaluator) -> ext.VForm:
        """Assemble a chart VForm from an (x, mc) -> End(V) evaluator.

        All six coefficients at a point come from one section/split pass
        (the numerical differentiation in exterior_d revisits points)."""
        cache = {}

        def allvals(xt):
            if xt not in cache:
                if len(cache) > 256:
                    cache.clear()
                x = list(xt)
                mcs = section_mc(x)
                cache[xt] = [evaluator(x, mc) for mc in mcs]
            return cache[xt]

        comps = {}
        for i in range(6):
            def cf(x, i=i):
                xt = tuple(float(np.real(v)) for v in x)
                return allvals(xt)[i]
            comps[(i,)] = ext.SmoothMap(6, cf)
        return ext.VForm(6, 1, comps)

    def projection_map(self) -> ext.SmoothMap:
        """pi_Y = (x11, y11) as a chart map (6 coords -> 2), analytic Jacobian."""
        J = np.zeros((6, 2))
        J[0, 0] = 1.0
        J[3, 1] = 1.0
        return ext.SmoothMap(6, lambda x: np.array([x[0], x[3]]),
                             jac=lambda x: J)
