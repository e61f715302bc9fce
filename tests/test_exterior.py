import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import exterior as ext, invariants as inv
from chernpatch.dual import Dual, seed
from chernpatch.errors import PreconditionFailed


def _poly_form(m, rng, deg=1, d=2):
    AB = [(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, (m, d, d)))
          for _ in range(m if deg == 1 else 1)]

    def coeffs(x):
        return np.array(
            [[[A[r][c] + sum(0.5 * x[k] * B[k][r][c] for k in range(m))
               for c in range(d)] for r in range(d)] for A, B in AB],
            dtype=object)

    return ext.VForm(m, deg, ext.SmoothMap(m, coeffs))


def test_d_squared_vanishes():
    rng = np.random.default_rng(0)
    f = _poly_form(3, rng, deg=0)
    ddf = ext.exterior_d(ext.exterior_d(f))
    x = rng.uniform(-1, 1, 3)
    vecs = [rng.standard_normal(3) for _ in range(2)]
    assert np.max(np.abs(ddf.evaluate(x, vecs))) < 1e-7


def _scalar_poly_form(m, deg, rng):
    """Scalar form whose coefficients are random quadratics."""
    n = math.comb(m, deg)
    c0 = rng.uniform(-1, 1, n)
    c1 = rng.uniform(-1, 1, (n, m))
    c2 = rng.uniform(-1, 1, (n, m, m))

    def coeffs(x):
        return [c0[a] + sum(c1[a][i] * x[i] for i in range(m))
                + sum(c2[a][i][j] * x[i] * x[j]
                      for i in range(m) for j in range(m))
                for a in range(n)]

    return ext.VForm(m, deg, ext.SmoothMap(m, coeffs))


def test_d_squared_vanishes_on_one_form():
    # quadratic coefficients, so the second derivatives do not vanish
    rng = np.random.default_rng(6)
    m = 4
    ddf = ext.exterior_d(ext.exterior_d(_scalar_poly_form(m, 1, rng)))
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(3)]
    assert abs(ddf.evaluate(x, vecs)) < 1e-4


def test_leibniz_rule():
    # d(alpha ^ beta) = d alpha ^ beta - alpha ^ d beta for a 1-form alpha
    rng = np.random.default_rng(7)
    m = 4
    alpha = _scalar_poly_form(m, 1, rng)
    beta = _scalar_poly_form(m, 2, rng)
    lhs = ext.exterior_d(ext.wedge_scalar(alpha, beta))
    rhs = (ext.wedge_scalar(ext.exterior_d(alpha), beta)
           + ext.wedge_scalar(alpha, ext.exterior_d(beta)).scale(-1.0))
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(4)]
    assert abs(lhs.evaluate(x, vecs) - rhs.evaluate(x, vecs)) < 1e-6


def test_second_chern_form_of_constant_curvature_is_determinant():
    # for a 2x2 curvature, c_2 = det((i/2 pi) Omega) as a 4-form
    rng = np.random.default_rng(8)
    m = 4
    M = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    omega = ext.VForm(m, 2, ext.SmoothMap(m, lambda x: M))

    def entry(a, b):
        return ext.VForm(m, 2, ext.SmoothMap(m, lambda x: M[:, a, b]))

    det = (ext.wedge_scalar(entry(0, 0), entry(1, 1))
           + ext.wedge_scalar(entry(0, 1), entry(1, 0)).scale(-1.0))
    oracle = det.scale((1j / (2 * np.pi)) ** 2)
    x = rng.uniform(-1, 1, m)
    c2 = inv.chern_forms(omega, 2)[2]
    assert np.max(np.abs(c2.coeffs.value(x) - oracle.coeffs.value(x))) < 1e-12


def test_jacobian_raises_errors_of_the_dual_path():
    # only a TypeError (a map that casts its input) selects central
    # differences; any other error of the dual evaluation propagates
    def f(x):
        if isinstance(x[0], Dual):
            raise PreconditionFailed("dual input")
        return x[0] * x[1]

    sm = ext.SmoothMap(2, f)
    assert sm.value([1.0, 2.0]) == 2.0
    with pytest.raises(PreconditionFailed):
        sm.jacobian([1.0, 2.0])


def test_dual_jacobian_matches_finite_difference():
    rng = np.random.default_rng(1)

    def f(x):
        return x[0] * x[1] + x[1] ** 3

    sm = ext.SmoothMap(2, f)
    x = rng.uniform(-1, 1, 2)
    J = sm.jacobian(x)
    assert abs(J[0] - x[1]) < 1e-9
    assert abs(J[1] - (x[0] + 3 * x[1] ** 2)) < 1e-9


def test_wedge_antisymmetry_scalar():
    rng = np.random.default_rng(2)
    m = 3
    ca = [rng.uniform(-1, 1, 2) for _ in range(m)]
    cb = [rng.uniform(-1, 1, 2) for _ in range(m)]
    a = ext.VForm(m, 1, ext.SmoothMap(
        m, lambda x: [c[0] + c[1] * x[0] for c in ca]))
    b = ext.VForm(m, 1, ext.SmoothMap(
        m, lambda x: [c[0] + c[1] * x[1] for c in cb]))
    ab = ext.wedge_scalar(a, b)
    ba = ext.wedge_scalar(b, a)
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(2)]
    assert abs(ab.evaluate(x, vecs) + ba.evaluate(x, vecs)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_patch_combination_identity(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))

    f1 = ext.SmoothMap(m, (lambda c: lambda x: c[0] + c[1] * x[0] * x[1])(
        rng.uniform(-1, 1, 2)))
    f2 = ext.SmoothMap(m, (lambda c: lambda x: c[0] + c[1] * x[0] ** 2)(
        rng.uniform(-1, 1, 2)))
    f3 = ext.SmoothMap(m, lambda x: 1.0 - f1.func(x) - f2.func(x))
    omegas = [_poly_form(m, rng) for _ in range(3)]
    direct, formula = ext.patch_combination_curvature([f1, f2, f3], omegas)
    pts = [rng.uniform(-0.5, 0.5, m) for _ in range(2)]
    assert ext.form_distance(direct, formula, pts, rng=rng) < 1e-6


def test_pifiber_check_passes_on_pullback():
    # a form depending only on the projected coordinates is a pullback
    rng = np.random.default_rng(3)
    proj = ext.SmoothMap(3, lambda x: np.array([x[0], x[1]]))
    form = ext.VForm(3, 1, ext.SmoothMap(
        3, lambda x: np.array([[[x[0] + x[1]]], [[x[0] * x[1]]], [[0.0]]])))
    pts = [rng.uniform(-1, 1, 3) for _ in range(5)]
    rpt = ext.pifiber_check(form, proj, pts, tol=1e-8, rng=rng)
    assert rpt["ok"]


def test_pifiber_check_flags_vertical_component():
    # a dr component along the fiber direction must be reported
    rng = np.random.default_rng(4)
    proj = ext.SmoothMap(3, lambda x: np.array([x[0], x[1]]))
    form = ext.VForm(3, 1, ext.SmoothMap(
        3, lambda x: np.array([[[0.0]], [[0.0]], [[1.0]]])))
    pts = [rng.uniform(-1, 1, 3) for _ in range(5)]
    rpt = ext.pifiber_check(form, proj, pts, tol=1e-8, rng=rng)
    assert not rpt["ok"]
    assert rpt["max_vertical_contraction"] > 1e-2


def test_pifiber_check_counts_points_of_a_generator():
    proj = ext.SmoothMap(3, lambda x: np.array([x[0], x[1]]))
    form = ext.VForm(3, 1, ext.SmoothMap(
        3, lambda x: np.array([[[x[0]]], [[x[1]]], [[0.0]]])))
    pts = [np.array([0.1, 0.2, 0.3]), np.array([-0.4, 0.5, 0.6])]
    listed = ext.pifiber_check(form, proj, pts, tol=1e-8)
    generated = ext.pifiber_check(form, proj, (x for x in pts), tol=1e-8)
    assert listed["points"] == generated["points"] == 2
    assert listed == generated


def test_curvature_of_exact_scalar_form_vanishes():
    m = 2
    omega = ext.exterior_d(ext.VForm(m, 0, ext.SmoothMap(
        m, lambda x: np.array([[[x[0] ** 2 * x[1]]]]))))
    curv = ext.curvature_form(omega)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(2)]
    assert np.max(np.abs(curv.evaluate(x, vecs))) < 1e-6


def test_dual_arithmetic():
    x = Dual(1.5, np.array([1.0, 0.0]))
    y = Dual(2.0, np.array([0.0, 1.0]))
    z = x * y + x ** 2
    assert abs(z.val - 5.25) < 1e-14
    assert np.allclose(z.grad, [2.0 + 3.0, 1.5])
    with pytest.raises(TypeError):
        seed([x])
