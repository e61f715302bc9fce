"""The rank-two Siegel space with its two boundary strata: the geometric
instance of the patched-connection machinery.

Strata (top to bottom):

    X = H_2 (the open symmetric space of Sp(4,R)),
    Y = H_1 (upper half plane, hermitian part of the rank-1 parabolic),
    Z = point (boundary component of the Lagrangian parabolic).

Control data on the chart Z = [[z11, z12],[z12, z22]]:

    pi_Y(Z) = z11,   rho_Z(Z) = 1 / Im z11,   rho_Y(Z) = 1 / Im z22.

rho_Z reads only z11, which pi_Y keeps, so rho_Z(pi_Y(Z)) = rho_Z(Z).  They
are declared once, in SiegelModel.tube_distances, tube_differential and the
inverse chart_points: a change of height edits these three.  The section

    s(Z) = [[L, X L^{-T}], [0, L^{-T}]],   Im Z = L L^T (Cholesky)

lands in the intersection of both standard parabolics and maps the basepoint
i*I to Z, with pi compatible with the group-level Levi factorization.

Evaluators take (p, mc): a :class:`ChartPoint` stack p = points(xs) of P
chart points, whose mc (through the section) and control data each come
from one numpy pass, and a real (P, ..., 4, 4) stack mc = s^{-1} ds of
directions at them, and return (P, ..., d, d); one point is the stack
points([x]).  A chart form makes the points of its rows (the 13P of a
curvature by central differences at P points) in one points call and
calls its evaluator once, on p.mc, the six chart directions at each row.

The patched connection is a :class:`strata.PatchedSystem` over these control
data.  Its geometric point over X is a tangent vector, held as its
s^{-1} ds (:class:`TangentVector`); over a boundary stratum Z it is the
Lie(G_h) part of that vector in Z's parabolic: hdot in the rank-1 (Klingen)
parabolic over Y, zero over the point.  Each vector is split once per Z,
and its substacks v[idx] carry the splits already made.

A model's Lie data are the builders' shared objects (group spec,
representation, both parabolics and canonical extensions) and the Nomizu
tables, built once per representation name, all read-only, so a stray
write raises; the flag model and patched system are per model.

Curvatures come from the structure equation, with no differentiation.
Chart vector fields commute, so theta = s^{-1} ds satisfies
d theta(e_i, e_j) = -[theta_i, theta_j], and so does its part hdot, the
projection of Lie(Q) onto its Levi factor G_h being a homomorphism.  The
Nomizu connection F(t) on X (t = theta) or on Y (t = hdot), F constant and
linear, therefore has the curvature connections.structure_curvature(F, t);
F is one table on the matrix units, composed once per representation from
the Cartan k-part, which a real stack meets in one real matmul.  The point
carries the zero connection.  Every other connection is induced from a
boundary stratum Z, by the one formula ext_Z.alg(l) + val
(:meth:`SiegelModel.omega_XY`), (h, l) the split of the tangent vector in
Z's parabolic and val the value at h of the connection on Z.  The general
induced formula conjugates val by lambda_1(g_l^{-1}), g_l the linear Levi
factor of s, and adds the curvature of ext_Z.alg(l).  Both are no-ops: G_h
and G_l commute and ext_Z is a representation of the Levi, so
lambda_1(G_l) and ext_Z.alg(Lie(G_l)) commute with every value induced from
Z; and ext_Z.alg is a homomorphism on Lie(G_l), so ext_Z.alg(l) is flat,
and the induced connection has Z's curvature at the projected point.
:meth:`strata.PatchedSystem.curvature` patches the chains' pairs
(omega_c, Omega_c) with the product rule, dw_c in closed form from the
declared differential of the tube distances, into (P, 15, d, d)
coefficients over combinations(range(6), 2) at P points.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np

from . import connections, exterior as ext, hcrepr, liecore, strata


def z_from_coords(x):
    """Z = X + i Y at chart coordinates x, one point (6,) or a (..., 6) stack."""
    sym = [[0, 1], [1, 2]]     # (v11, v12, v22) -> [[v11, v12], [v12, v22]]
    x = np.asarray(x, dtype=float)
    # parts set apart: x + 1j y would form 0 * y, NaN with a warning at inf
    Z = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    Z.real, Z.imag = x[..., :3][..., sym], x[..., 3:][..., sym]
    return Z


def section(x):
    """Group element s in Sp(4,R) with s . (i I) = Z(x), inside both
    standard parabolics; (..., 4, 4) for a (..., 6) stack of points.
    Raises PreconditionFailed unless x is finite and Im Z positive definite
    (y11 > 0, det Y > 0), naming the first non-finite, else failing, row."""
    Z = z_from_coords(x)
    X, Y = Z.real, Z.imag
    y11, y12, y22 = Y[..., 0, 0], Y[..., 0, 1], Y[..., 1, 1]
    liecore.require_of((y11 > 0) & (y11 * y22 - y12 * y12 > 0)
                       & (np.abs(x).max(axis=-1) < np.inf),
                       "Im Z is not positive definite", "chart point", x, -1)
    L = np.linalg.cholesky(Y)
    Lit = np.linalg.inv(L).swapaxes(-1, -2)
    g = np.zeros(Z.shape[:-2] + (4, 4))
    g[..., :2, :2] = L
    g[..., :2, 2:] = X @ Lit
    g[..., 2:, 2:] = Lit
    return g


# dX and dY of the six chart directions (x11, x12, x22, y11, y12, y22)
_SYM = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
                 [[0.0, 0.0], [0.0, 1.0]]])
_DX, _DY = np.concatenate([_SYM, 0 * _SYM]), np.concatenate([0 * _SYM, _SYM])


def section_mc(x, s):
    """The (..., 6, 4, 4) stack of s^{-1} d_i s over the six chart
    directions, s = section(x), for one point or a stack of them."""
    X = z_from_coords(x).real[..., None, :, :]
    L, Lit = s[..., None, :2, :2], s[..., None, 2:, 2:]
    # Cholesky differential: dL = L Phi(L^{-1} dY L^{-T})
    M = Lit.swapaxes(-1, -2) @ _DY @ Lit
    Phi = np.tril(M, -1) + M * (np.eye(2) / 2.0)
    dL = L @ Phi
    dLit = -Lit @ dL.swapaxes(-1, -2) @ Lit
    ds = np.zeros(M.shape[:-2] + (4, 4))
    ds[..., :2, :2] = dL
    ds[..., :2, 2:] = _DX @ Lit + X @ dLit
    ds[..., 2:, 2:] = dLit
    return np.linalg.inv(s)[..., None, :, :] @ ds


# ---------------------------------------------------------------------------


class ChartPoint:
    """A stack of P chart points (every array with a leading axis P): the
    (P, 6) points x and what every evaluation reads, the (P, 6, 4, 4) stack
    mc of s^{-1} d_i s over the chart directions, s = section(x), and the
    control data (a :class:`strata.ModelPoint` stack).  p[a:b] and p[idx]
    (idx an index array) are substacks, and p[n] is the one-point stack
    p[n:n + 1]; an n past the end raises IndexError."""

    __slots__ = ("x", "mc", "control")

    def __getitem__(self, n):
        if isinstance(n, (int, np.integer)):
            n = [n]     # one row, kept as a stack; IndexError past the end
        p = ChartPoint()
        p.x, p.mc, p.control = self.x[n], self.mc[n], self.control[n]
        return p


class TangentVector:
    """Geometric point of the patched system: over X, mc = s^{-1} ds(v) for
    a tangent vector v at a chart point, or a (..., 4, 4) stack of them;
    over a boundary stratum Z, the Lie(G_h) part of such a vector in Z's
    parabolic.  parts[Z] keeps the (h, l) split of mc in Z's parabolic once
    made, h a TangentVector; v[idx], the substack of the rows idx (one row
    for an integer), too."""

    __slots__ = ("mc", "parts")

    def __init__(self, mc):
        self.mc, self.parts = mc, {}

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            idx = [idx]     # as for a ChartPoint
        v = TangentVector(self.mc[idx])
        v.parts = {Z: (h[idx], l[idx]) for Z, (h, l) in self.parts.items()}
        return v


@functools.cache
def _lie_data(rep_name):
    """(spec, rep, pdK, pdS, extK, extS, linear) of rep_name, every array
    read-only; linear maps X and Y to their Nomizu connection F on the matrix
    units, the differential of rep or extK at their Cartan k-part."""
    spec = liecore.sp2nR(2)
    rep = hcrepr.builtin_representation(spec, rep_name)
    pdK, pdS = (liecore.parabolic_data(spec, (r,)) for r in (1, 2))  # of Y, Z
    extK, extS = (hcrepr.canonical_extension(rep, r) for r in (1, 2))
    k = liecore.cartan_split(np.eye(16).reshape(-1, 4, 4))[0]
    linear = {Z: liecore.readonly(f(k).reshape(16, -1))
              for Z, f in (("X", rep.lam_alg), ("Y", extK.alg))}
    return spec, rep, pdK, pdS, extK, extS, MappingProxyType(linear)


class SiegelModel:
    """Bundle data and patched-connection evaluators on the three strata."""

    def __init__(self, rep_name="std"):
        (self.spec, self.rep, self.pdK, self.pdS, self.extK, self.extS,
         self._linear) = _lie_data(rep_name)
        self.model = strata.FlagTubeModel([{"name": Z, "dimC": d} for Z, d in
                                           zip("ZYX", (0, 1, 3))], [list("ZYX")])
        # each boundary stratum's parabolic and canonical extension
        self._parabolic = {"Y": (self.pdK, self.extK),
                           "Z": (self.pdS, self.extS)}
        self.system = strata.PatchedSystem(
            self.model,
            nomizu={"X": self.omega_nomizu, "Y": self.omega_Y_nomizu,
                    "Z": None},
            induced={Z: lambda v, val, Z=Z: self.omega_XY(v, val, Z)
                     for Z in self._parabolic},
            project=lambda v, Z: self._split(v, Z)[0])

    # control data: the one declaration, which a change of height edits --

    def tube_distances(self, xs):
        """(r_Z, r_Y) = (1 / y11, 1 / y22), (P, 2), at a (P, 6) stack xs."""
        return 1.0 / xs[:, [3, 5]]

    def tube_differential(self, xs):
        """d(r_Z, r_Y) = (-r_Z^2 dy11, -r_Y^2 dy22), (P, 2, 6), at xs."""
        dr = np.zeros((len(xs), 2, 6))
        dr[:, [0, 1], [3, 5]] = -np.square(self.tube_distances(xs))
        return dr

    def chart_points(self, r, free):
        """The inverse: (P, 6) chart points at tube distances r, (P, 2), and
        free coordinates (x11, x12, x22, y12), (P, 4)."""
        y, free = 1.0 / np.asarray(r, float), np.asarray(free, float)
        return np.column_stack([free[:, :3], y[:, 0], free[:, 3], y[:, 1]])

    def points(self, xs) -> ChartPoint:
        """The chart points at the rows of a (P, 6) array xs, the section,
        mc and control data (at tube_distances(xs)) from one call each."""
        p = ChartPoint()
        p.x = xs = ext.point_stack(xs, 6)
        p.mc = section_mc(xs, section(xs))
        p.control = self.model.point(("Z", "Y", "X"), self.tube_distances(xs))
        return p

    def _split(self, v: TangentVector, Z):
        """(h, l): the Lie(G_h) part, as a TangentVector, and the linear
        Levi part of v.mc in the parabolic of the boundary stratum Z.  h is
        the geometric point over pi_Z (hdot on Y, zero on the point)."""
        if Z not in v.parts:
            _, h, l = self._parabolic[Z][0].split(v.mc)
            v.parts[Z] = TangentVector(h), l
        return v.parts[Z]

    # connection-form evaluators ----------------------------------------
    # each maps a real (..., 4, 4) stack to End(V) values (..., d, d)

    def omega_nomizu(self, mc):
        return hcrepr._apply(mc, self._linear["X"], self.rep.dim)

    def omega_Y_nomizu(self, hdot):
        return hcrepr._apply(hdot, self._linear["Y"], self.rep.dim)

    def omega_XY(self, v: TangentVector, val, Z):
        """The connection induced from one on the boundary stratum Z whose
        value at the projected point is val (the point's: the scalar 0.0,
        not added), at v: ext_Z.alg(l) + val, l the linear Levi part of v
        in Z's parabolic.  The benchmark's tracer wraps the name of its
        first use (X over Y)."""
        out = self._parabolic[Z][1].alg(self._split(v, Z)[1])
        return out + val if np.ndim(val) else out

    def omega_induced_nomizu(self, p, mc):
        """The connection on X induced from the Nomizu connection on Y."""
        v = TangentVector(mc)
        hdot = self._split(v, "Y")[0].mc
        return self.omega_XY(v, self.omega_Y_nomizu(hdot), "Y")

    # curvature evaluators ------------------------------------------------
    # each maps a stack of P chart points to the (P, 15, d, d) coefficients

    def curvature_induced_nomizu(self, p):
        """Curvature of :meth:`omega_induced_nomizu` at p: the curvature of
        the Nomizu connection on Y at hdot."""
        hdot = self._split(TangentVector(p.mc), "Y")[0].mc
        return connections.structure_curvature(self.omega_Y_nomizu, hdot)[1]

    def curvature_patched(self, p):
        """Curvature of the patched connection at the stack p, with the weight
        gradients through tube_differential(p.x)."""
        return self.system.curvature(p.control, TangentVector(p.mc),
                                     self.tube_differential(p.x))

    # patched connection on X -------------------------------------------

    def omega_patched(self, p, mc):
        """Recursive definition of the patched form."""
        return self.system.patched(p.control, TangentVector(mc))

    # chart forms --------------------------------------------------------

    def form_from_evaluator(self, evaluator) -> ext.VForm:
        """Assemble a chart VForm from a (point, mc) -> End(V) evaluator.

        A stack xs takes one self.points(xs) call, and one evaluator call on
        that stack p and p.mc."""
        def coeffs(xs):
            p = self.points(xs)
            return evaluator(p, p.mc)
        return ext.VForm(6, 1, coeffs)

    def projection_map(self) -> ext.SmoothMap:
        """pi_Y = (x11, y11) as a chart map (6 coords -> 2)."""
        return ext.SmoothMap(6, lambda xs: xs[:, [0, 3]])
