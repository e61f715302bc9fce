"""Chart-level exterior calculus for matrix-valued differential forms.

Forms live on an open chart of R^m.  A VForm of degree q stores one
coefficient map per sorted multi-index; coefficients are scalars or End(V)
matrices.  Differentiation of coefficient maps uses forward-mode dual
numbers when the evaluator supports them and central differences otherwise.

Tolerances used by the callers: 1e-12 for purely algebraic identities, 1e-6
after one numerical differentiation, 1e-4 after two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as fd

FD_STEP = 1e-5


class SmoothMap:
    """Differentiable map from an m-dimensional chart to scalars or arrays.

    func eats a sequence of m coordinates.  jac (optional) is an analytic
    Jacobian callable; otherwise dual numbers are tried, then central
    differences with step 1e-5.
    """

    def __init__(self, m, func, jac=None, name=""):
        self.m = m
        self.func = func
        self._jac = jac
        self.name = name

    def value(self, x):
        return np.asarray(self.func(list(x)), dtype=complex)

    def __call__(self, x):
        return self.value(x)

    def jacobian(self, x):
        """Array of shape (m,) + value.shape with entry i = d/dx_i."""
        x = list(x)
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=complex)
        try:
            out = self.func(fd.seed(x))
        except Exception:
            out = None
        if out is not None:
            arr = np.asarray(out, dtype=object)
            shape = arr.shape
            J = np.zeros((self.m,) + shape, dtype=complex)
            ok = True
            it = np.ndindex(shape) if shape else [()]
            any_dual = False
            for idx in it:
                entry = arr[idx] if shape else (out if not isinstance(out, np.ndarray) else arr[()])
                if isinstance(entry, fd.Dual):
                    any_dual = True
                    J[(slice(None),) + idx] = entry.grad
                elif isinstance(entry, (int, float, complex, np.number)):
                    pass
                else:
                    ok = False
                    break
            if ok and any_dual:
                return J
        return self._fd_jacobian(x)

    def _fd_jacobian(self, x, h=FD_STEP):
        v0 = self.value(x)
        J = np.zeros((self.m,) + v0.shape, dtype=complex)
        for i in range(self.m):
            xp = list(x)
            xm = list(x)
            xp[i] = xp[i] + h
            xm[i] = xm[i] - h
            J[i] = (self.value(xp) - self.value(xm)) / (2 * h)
        return J


def constant_map(m, value):
    v = np.asarray(value, dtype=complex)
    return SmoothMap(m, lambda x: v, jac=lambda x: np.zeros((m,) + v.shape, dtype=complex))


@dataclass
class VForm:
    """Degree-q differential form with scalar or End(V) coefficients."""

    m: int
    degree: int
    comps: dict = field(default_factory=dict)  # sorted index tuple -> SmoothMap

    def coeff(self, idx, x):
        idx = tuple(idx)
        sm = self.comps.get(idx)
        if sm is None:
            return None
        return sm.value(x)

    def evaluate(self, x, vectors):
        """omega_x(v_1, ..., v_q)."""
        vectors = [np.asarray(v, dtype=complex) for v in vectors]
        assert len(vectors) == self.degree
        out = None
        for idx, sm in self.comps.items():
            c = sm.value(x)
            sub = np.array([[v[i] for i in idx] for v in vectors], dtype=complex)
            d = np.linalg.det(sub) if self.degree > 0 else 1.0
            term = c * d
            out = term if out is None else out + term
        if out is None:
            shape = ()
            out = np.zeros(shape, dtype=complex)
        return out

    def map(self, f):
        """Apply f entrywise to coefficient values (new closures)."""
        out = {}
        for idx, sm in self.comps.items():
            out[idx] = SmoothMap(self.m, (lambda s: (lambda x: f(s.func(x))))(sm))
        return VForm(self.m, self.degree, out)

    def __add__(self, other):
        assert self.m == other.m and self.degree == other.degree
        out = dict(self.comps)
        for idx, sm in other.comps.items():
            if idx in out:
                a, b = out[idx], sm
                out[idx] = SmoothMap(self.m, (lambda a, b: lambda x: _add(a.func(x), b.func(x)))(a, b))
            else:
                out[idx] = sm
        return VForm(self.m, self.degree, out)

    def scale(self, c):
        out = {}
        for idx, sm in self.comps.items():
            out[idx] = SmoothMap(self.m, (lambda s: lambda x: _smul(c, s.func(x)))(sm))
        return VForm(self.m, self.degree, out)


def _add(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.add(a, b)
    return a + b


def _smul(c, v):
    return c * v


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def exterior_d(form: VForm) -> VForm:
    """Exterior derivative; coefficient maps are differentiated numerically."""
    out = {}
    for idx, sm in form.comps.items():

        def make(idx, sm):
            # one jacobian evaluation shared by all of this coefficient's
            # derivative slots at a given point
            holder = {}

            def get_jac(x):
                key = tuple(np.round(np.asarray(x, dtype=complex).real, 12)) + tuple(np.round(np.asarray(x, dtype=complex).imag, 12))
                if key not in holder:
                    holder.clear()
                    holder[key] = sm.jacobian(x)
                return holder[key]
            return get_jac

        get_jac = make(idx, sm)
        for j in range(form.m):
            if j in idx:
                continue
            new_idx = tuple(sorted(idx + (j,)))
            pos = new_idx.index(j)
            sign = (-1) ** pos

            def cf(x, j=j, sign=sign, get_jac=get_jac):
                return sign * get_jac(x)[j]

            sm_new = SmoothMap(form.m, cf)
            if new_idx in out:
                prev = out[new_idx]
                out[new_idx] = SmoothMap(
                    form.m, (lambda p, c: lambda x: p.func(x) + c(x))(prev, cf))
            else:
                out[new_idx] = sm_new
    return VForm(form.m, form.degree + 1, out)


def wedge(f1: VForm, f2: VForm, mul) -> VForm:
    """Wedge product with coefficient multiplication `mul` (e.g. *, matmul)."""
    assert f1.m == f2.m
    m = f1.m
    q1, q2 = f1.degree, f2.degree
    out = {}
    for i1, s1 in f1.comps.items():
        for i2, s2 in f2.comps.items():
            if set(i1) & set(i2):
                continue
            merged = tuple(sorted(i1 + i2))
            sign = _perm_sign([merged.index(k) for k in i1 + i2])

            def cf(x, s1=s1, s2=s2, sign=sign):
                return sign * mul(np.asarray(s1.value(x)), np.asarray(s2.value(x)))

            if merged in out:
                prev = out[merged]
                out[merged] = SmoothMap(m, (lambda p, c: lambda x: p.func(x) + c(x))(prev, cf))
            else:
                out[merged] = SmoothMap(m, cf)
    return VForm(m, q1 + q2, out)


def wedge_scalar(f1: VForm, f2: VForm) -> VForm:
    return wedge(f1, f2, lambda a, b: a * b)


def wedge_matrix(f1: VForm, f2: VForm) -> VForm:
    return wedge(f1, f2, lambda a, b: a @ b)


def wedge_bracket(f1: VForm, f2: VForm) -> VForm:
    """Bracket wedge of End(V)-valued 1-forms: [a,b]^ = a^b with commutator.

    For a single 1-form alpha, wedge_bracket(alpha, alpha)(X, Y) =
    2 [alpha(X), alpha(Y)].
    """
    return wedge(f1, f2, lambda a, b: a @ b - b @ a)


def curvature_form(omega: VForm) -> VForm:
    """Omega = d omega + 1/2 [omega, omega] for an End(V)-valued 1-form."""
    return exterior_d(omega) + wedge_bracket(omega, omega).scale(0.5)


def contraction(form: VForm, vector) -> VForm:
    """Interior product i_v; vector is a constant vector or a callable x->v."""
    m = form.m
    vfun = vector if callable(vector) else (lambda x, v=np.asarray(vector, dtype=complex): v)
    out = {}
    for idx, sm in form.comps.items():
        for pos, j in enumerate(idx):
            rest = tuple(k for k in idx if k != j)
            sign = (-1) ** pos

            def cf(x, sm=sm, j=j, sign=sign):
                return sign * np.asarray(vfun(x))[j] * sm.value(x)

            if rest in out:
                prev = out[rest]
                out[rest] = SmoothMap(m, (lambda p, c: lambda x: p.func(x) + c(x))(prev, cf))
            else:
                out[rest] = SmoothMap(m, cf)
    return VForm(m, form.degree - 1, out)


def form_distance(f1: VForm, f2: VForm, points, nvec=None, rng=None):
    """Max difference of evaluations on given points and random vectors."""
    q = f1.degree
    rng = rng or np.random.default_rng(0)
    err = 0.0
    for x in points:
        vecs = [rng.standard_normal(f1.m) for _ in range(q)]
        a = f1.evaluate(x, vecs)
        b = f2.evaluate(x, vecs)
        err = max(err, float(np.max(np.abs(a - b))))
    return err


def patch_combination_curvature(weights, omegas, d_weights=None):
    """Curvature of omega = sum_i f_i omega_i with sum f_i = 1.

    weights: list of scalar SmoothMaps f_i; omegas: list of End(V)-valued
    1-form VForms.  Returns (direct, formula): the curvature computed from
    the combined form, and from the combination identity

        Omega = sum f_i Omega_i
              - 1/2 sum_{i<j} f_i f_j [omega_i - omega_j, omega_i - omega_j]
              + sum_{i<n} d f_i ^ (omega_i - omega_n)
    """
    n = len(weights)
    assert len(omegas) == n
    m = omegas[0].m

    def wform(f):
        return VForm(m, 0, {(): f})

    combined = None
    for f, om in zip(weights, omegas):
        t = wedge(wform(f), om, lambda a, b: a * b)
        combined = t if combined is None else combined + t
    direct = curvature_form(combined)

    formula = None
    for f, om in zip(weights, omegas):
        t = wedge(wform(f), curvature_form(om), lambda a, b: a * b)
        formula = t if formula is None else formula + t
    for i in range(n):
        for j in range(i + 1, n):
            diff = omegas[i] + omegas[j].scale(-1.0)
            br = wedge_bracket(diff, diff)
            fij = SmoothMap(m, (lambda a, b: lambda x: a.func(x) * b.func(x))(weights[i], weights[j]))
            formula = formula + wedge(wform(fij), br, lambda a, b: a * b).scale(-0.5)
    for i in range(n - 1):
        dfi = exterior_d(wform(weights[i]))
        diff = omegas[i] + omegas[n - 1].scale(-1.0)
        formula = formula + wedge(dfi, diff, lambda a, b: a * b)
    return direct, formula


def vertical_vectors(proj: SmoothMap, x, rcond=1e-9):
    """Orthonormal basis of ker d(proj)(x) via SVD."""
    J = proj.jacobian(x)  # (m, k)
    J2 = J.reshape(proj.m, -1).T
    u, s, vt = np.linalg.svd(np.asarray(J2, dtype=complex))
    rank = int(np.sum(s > rcond * max(1.0, s[0] if s.size else 1.0)))
    return [vt[i].conj() for i in range(rank, proj.m)]


def pifiber_check(form: VForm, proj: SmoothMap, points, tol=1e-6, rng=None,
                  compat=None, compat_pullback=None):
    """Check that contracting with d(proj)-vertical vectors annihilates form.

    Returns a report dict; fails (ok=False) if any vertical contraction
    exceeds tol.  If `compat` (a VForm on the base, with `compat_pullback`
    mapping base-chart coordinates from x) is given, the horizontal
    comparison residual is reported too.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    worst_compat = 0.0
    q = form.degree
    for x in points:
        verts = vertical_vectors(proj, x)
        for v in verts:
            others = [rng.standard_normal(form.m) for _ in range(q - 1)]
            val = form.evaluate(x, [v] + others)
            worst = max(worst, float(np.max(np.abs(val))))
    report = {"max_vertical_contraction": worst, "tol": tol, "ok": worst <= tol,
              "points": len(list(points))}
    if compat is not None:
        for x in points:
            J = proj.jacobian(x).reshape(proj.m, -1)
            vecs = [rng.standard_normal(form.m) for _ in range(q)]
            push = [v @ J for v in vecs]
            y = proj.value(x).ravel()
            a = form.evaluate(x, vecs)
            b = compat.evaluate(y.real if compat_pullback is None else compat_pullback(x), push)
            worst_compat = max(worst_compat, float(np.max(np.abs(a - b))))
        report["max_compat_residual"] = worst_compat
        report["ok"] = report["ok"] and worst_compat <= tol
    return report
