import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import exterior as ext, invariants as inv, siegel, suites
from chernpatch.dual import Dual, seed
from chernpatch.errors import PreconditionFailed
from helpers import (chern_coefficients_reference, exterior_d, patch_draws,
                     rowwise)


def wedge_scalar(f1, f2):
    """f1 ^ f2 for scalar forms, through the shuffle table."""
    table = ext.wedge_table(f1.m, f1.degree, f2.degree)
    return ext.VForm(f1.m, f1.degree + f2.degree, rowwise(
        lambda x: ext.wedge_coeffs(table, f1.value(x), f2.value(x),
                                   np.multiply)))


def _poly_form(m, rng, deg=1, d=2):
    AB = [(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, (m, d, d)))
          for _ in range(m if deg == 1 else 1)]

    def coeffs(x):
        return np.array(
            [[[A[r][c] + sum(0.5 * x[k] * B[k][r][c] for k in range(m))
               for c in range(d)] for r in range(d)] for A, B in AB],
            dtype=object)

    return ext.VForm(m, deg, rowwise(coeffs))


def test_d_squared_vanishes():
    rng = np.random.default_rng(0)
    f = _poly_form(3, rng, deg=0)
    ddf = exterior_d(exterior_d(f))
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

    return ext.VForm(m, deg, rowwise(coeffs))


def test_d_squared_vanishes_on_one_form():
    # quadratic coefficients, so the second derivatives do not vanish
    rng = np.random.default_rng(6)
    m = 4
    ddf = exterior_d(exterior_d(_scalar_poly_form(m, 1, rng)))
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(3)]
    assert abs(ddf.evaluate(x, vecs)) < 1e-4


def test_leibniz_rule():
    # d(alpha ^ beta) = d alpha ^ beta - alpha ^ d beta for a 1-form alpha
    rng = np.random.default_rng(7)
    m = 4
    alpha = _scalar_poly_form(m, 1, rng)
    beta = _scalar_poly_form(m, 2, rng)
    lhs = exterior_d(wedge_scalar(alpha, beta))
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(4)]
    rhs = (wedge_scalar(exterior_d(alpha), beta).evaluate(x, vecs)
           - wedge_scalar(alpha, exterior_d(beta)).evaluate(x, vecs))
    assert abs(lhs.evaluate(x, vecs) - rhs) < 1e-6


def test_second_chern_form_of_constant_curvature_is_determinant():
    # for a 2x2 curvature, c_2 = det((i/2 pi) Omega) as a 4-form
    rng = np.random.default_rng(8)
    m = 4
    M = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    omega = ext.VForm(m, 2, rowwise(lambda x: M))

    def entry(a, b):
        return ext.VForm(m, 2, rowwise(lambda x: M[:, a, b]))

    x = rng.uniform(-1, 1, m)
    det = (wedge_scalar(entry(0, 0), entry(1, 1)).value(x)
           - wedge_scalar(entry(0, 1), entry(1, 0)).value(x))
    oracle = (1j / (2 * np.pi)) ** 2 * det
    c2 = inv.chern_forms(omega, 2)[2]
    assert np.max(np.abs(c2.value(x) - oracle)) < 1e-12


def test_central_difference_jacobian_matches_analytic_derivative():
    rng = np.random.default_rng(1)

    def f(x):
        return x[0] * x[1] + x[1] ** 3

    sm = ext.SmoothMap(2, rowwise(f))
    x = rng.uniform(-1, 1, 2)
    J = sm.jacobian(x)
    assert abs(J[0] - x[1]) < 1e-9
    assert abs(J[1] - (x[0] + 3 * x[1] ** 2)) < 1e-9


def test_wedge_antisymmetry_scalar():
    rng = np.random.default_rng(2)
    m = 3
    ca = [rng.uniform(-1, 1, 2) for _ in range(m)]
    cb = [rng.uniform(-1, 1, 2) for _ in range(m)]
    a = ext.VForm(m, 1, rowwise(lambda x: [c[0] + c[1] * x[0] for c in ca]))
    b = ext.VForm(m, 1, rowwise(lambda x: [c[0] + c[1] * x[1] for c in cb]))
    ab = wedge_scalar(a, b)
    ba = wedge_scalar(b, a)
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(2)]
    assert abs(ab.evaluate(x, vecs) + ba.evaluate(x, vecs)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_patch_combination_identity(seed):
    # with sum f_i = 1 and sum df_i = 0 the product rule reads
    # sum f_i Omega_i - sum_{i<j} f_i f_j 1/2 [omega_i - omega_j, same]
    #   + sum_{i<n} df_i ^ (omega_i - omega_n)
    rng = np.random.default_rng(seed)
    n, m, d = (int(rng.integers(2, 5)), int(rng.integers(2, 6)),
               int(rng.integers(1, 4)))
    f = rng.uniform(-1, 1, n)
    f[-1] = 1.0 - f[:-1].sum()
    df = rng.uniform(-1, 1, (n, m))
    df[-1] = -df[:-1].sum(axis=0)
    om = _coeff_array(rng, n * m, (d, d)).reshape(n, m, d, d)
    Om = _coeff_array(rng, n * math.comb(m, 2), (d, d)).reshape(
        n, math.comb(m, 2), d, d)
    got = ext.combination_curvature(zip(f, df, om, Om))
    want = sum(f[i] * Om[i] for i in range(n))
    for i, j in combinations(range(n), 2):
        want = want - f[i] * f[j] * ext.bracket_pairs(om[i] - om[j])
    for i in range(n - 1):
        want = want + ext.wedge_pairs(df[i], om[i] - om[-1])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_patch_fails_without_the_dw_term(monkeypatch):
    # negative control: the product rule with dw ^ omega dropped
    monkeypatch.setattr(ext, "wedge_pairs",
                        lambda f, a: np.zeros_like(ext.bracket_pairs(a)))
    rpt = suites.run_suite("patch", seed=0, samples=10)
    assert not rpt["pass"]
    assert rpt["checks"][0]["max_residual"] > 1e-3


def test_pifiber_check_passes_on_pullback():
    # a form depending only on the projected coordinates is a pullback
    rng = np.random.default_rng(3)
    proj = ext.SmoothMap(3, lambda xs: xs[:, :2])
    form = ext.VForm(3, 1, rowwise(
        lambda x: np.array([[[x[0] + x[1]]], [[x[0] * x[1]]], [[0.0]]])))
    pts = [rng.uniform(-1, 1, 3) for _ in range(5)]
    rpt = ext.pifiber_check(form, proj, pts, tol=1e-8, rng=rng)
    assert rpt["ok"]


def test_pifiber_check_flags_vertical_component():
    # a dr component along the fiber direction must be reported
    rng = np.random.default_rng(4)
    proj = ext.SmoothMap(3, lambda xs: xs[:, :2])
    form = ext.VForm(3, 1, rowwise(
        lambda x: np.array([[[0.0]], [[0.0]], [[1.0]]])))
    pts = [rng.uniform(-1, 1, 3) for _ in range(5)]
    rpt = ext.pifiber_check(form, proj, pts, tol=1e-8, rng=rng)
    assert not rpt["ok"]
    assert rpt["max_vertical_contraction"] > 1e-2


def test_vertical_vectors_of_a_stack_name_a_row_of_another_rank():
    # d(x0 x1) = x1 dx0 + x0 dx1 has rank 1 except at the origin
    proj = ext.SmoothMap(2, lambda xs: (xs[:, 0] * xs[:, 1])[:, None])
    xs = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0], [3.0, 1.0]])
    verts = ext.vertical_vectors(proj, xs[:2])
    assert verts.shape == (2, 1, 2)
    for x, v in zip(xs[:2], verts):
        assert np.array_equal(ext.vertical_vectors(proj, x[None])[0], v)
    with pytest.raises(PreconditionFailed, match=r"\(row 2\)$"):
        ext.vertical_vectors(proj, xs)


def test_pifiber_check_counts_points_of_a_generator():
    proj = ext.SmoothMap(3, lambda xs: xs[:, :2])
    form = ext.VForm(3, 1, rowwise(
        lambda x: np.array([[[x[0]]], [[x[1]]], [[0.0]]])))
    pts = [np.array([0.1, 0.2, 0.3]), np.array([-0.4, 0.5, 0.6])]
    listed = ext.pifiber_check(form, proj, pts, tol=1e-8)
    generated = ext.pifiber_check(form, proj, (x for x in pts), tol=1e-8)
    assert listed["points"] == generated["points"] == 2
    assert listed == generated


def test_curvature_of_exact_scalar_form_vanishes():
    m = 2
    omega = exterior_d(ext.VForm(
        m, 0, rowwise(lambda x: np.array([[[x[0] ** 2 * x[1]]]]))))
    curv = ext.curvature_form(omega)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(2)]
    assert np.max(np.abs(curv.evaluate(x, vecs))) < 1e-6


def _wedge_tower(omega, x):
    """Reference: d omega + 1/2 (omega ^ omega with the commutator), the
    bracket wedged through the shuffle table."""
    A = omega.value(x)
    brackets = ext.wedge_coeffs(ext.wedge_table(omega.m, 1, 1), A, A,
                                lambda a, b: a @ b - b @ a)
    return exterior_d(omega).value(x) + 0.5 * brackets


def test_curvature_form_matches_the_wedge_tower():
    # the two shuffle splits add (u - v) - (v - u) = 2 (u - v) exactly, so
    # the pair brackets give the same bits as the wedge
    rng = np.random.default_rng(9)
    model = siegel.SiegelModel("std")
    patched = model.form_from_evaluator(model.omega_patched)
    _, A, B, _ = patch_draws(4, 1, rng)
    affine = ext.VForm(4, 1, lambda xs: A[0, 0] + np.einsum(
        "pk,ikrc->pirc", xs, B[0, 0]))
    cases = ([(patched, x) for x in suites._model_tube_points(
                  model, rng, 2, suites._PIFIBER_BOX)
              + suites._mixed_tube_points(model, rng, 2)]
             + [(affine, rng.uniform(-0.5, 0.5, 4)) for _ in range(2)])
    for omega, x in cases:
        got = ext.curvature_form(omega).value(x)
        assert np.array_equal(got, _wedge_tower(omega, x))


def test_evaluate_and_contract_reject_mismatched_vectors():
    rng = np.random.default_rng(31)
    one = ext.VForm(3, 1, rowwise(lambda x: np.arange(3.0)))
    # C(3, 2) = C(3, 1): only the degree tells two vectors from one
    with pytest.raises(ValueError, match="need 1 vectors of length 3"):
        one.evaluate(np.zeros(3), rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        ext.contract(np.arange(3.0), rng.standard_normal((2, 4)))


def test_dual_arithmetic():
    x = Dual(1.5, np.array([1.0, 0.0]))
    y = Dual(2.0, np.array([0.0, 1.0]))
    z = x * y + x ** 2
    assert abs(z.val - 5.25) < 1e-14
    assert np.allclose(z.grad, [2.0 + 3.0, 1.5])
    with pytest.raises(TypeError):
        seed([x])


# Per-term reference for the shuffle tables: every output coefficient adds
# sign * term(a, b) over its splits, one Python call per (row, split).
# Scalar products go through the np.multiply ufunc on both sides: numpy's
# scalar `*` rounds some complex products differently in the last bit.


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _positions(m, q):
    return {idx: n for n, idx in enumerate(combinations(range(m), q))}


def _ref_combine(table, term):
    out = []
    for row in table:
        acc = None
        for a, b, sign in row:
            t = sign * term(a, b)
            acc = t if acc is None else acc + t
        out.append(acc)
    return np.array(out)


def _ref_wedge_table(m, q1, q2):
    pos1, pos2 = _positions(m, q1), _positions(m, q2)
    table = []
    for K in combinations(range(m), q1 + q2):
        row = []
        for i1 in combinations(K, q1):
            i2 = tuple(k for k in K if k not in i1)
            row.append((pos1[i1], pos2[i2],
                        _perm_sign([K.index(k) for k in i1 + i2])))
        table.append(row)
    return table


def _ref_d_table(m, q):
    pos = _positions(m, q)
    table = []
    for K in combinations(range(m), q + 1):
        row = []
        for idx in combinations(K, q):
            (j,) = set(K) - set(idx)
            row.append((pos[idx], j, (-1) ** K.index(j)))
        table.append(row)
    return table


def _coeff_array(rng, n, shape):
    return (rng.standard_normal((n,) + shape)
            + 1j * rng.standard_normal((n,) + shape))


_MULS = {(): np.multiply, (2, 2): np.matmul}


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("shape", [(), (2, 2)], ids=["scalar", "2x2"])
def test_wedge_coeffs_match_per_term_reference(m, shape):
    rng = np.random.default_rng(m)
    mul = _MULS[shape]
    for q1 in range(m + 1):
        for q2 in range(m + 1 - q1):
            table = ext.wedge_table(m, q1, q2)
            nK, ns = math.comb(m, q1 + q2), math.comb(q1 + q2, q1)
            assert all(t.shape == (nK, ns) for t in table)
            A = _coeff_array(rng, math.comb(m, q1), shape)
            B = _coeff_array(rng, math.comb(m, q2), shape)
            ref = _ref_combine(_ref_wedge_table(m, q1, q2),
                               lambda a, b: mul(A[a], B[b]))
            assert np.array_equal(ext.wedge_coeffs(table, A, B, mul), ref)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("shape", [(), (2, 2)], ids=["scalar", "2x2"])
def test_exterior_d_matches_per_term_reference(m, shape):
    rng = np.random.default_rng(10 + m)
    x = rng.uniform(-1, 1, m)
    for q in range(m):
        J = _coeff_array(rng, m * math.comb(m, q), shape).reshape(
            (m, math.comb(m, q)) + shape)
        form = ext.VForm(m, q, rowwise(lambda x: 0.0))
        form.jacobian = lambda xs, J=J: np.broadcast_to(J, (len(xs),) + J.shape)
        got = exterior_d(form).value(x)
        ref = _ref_combine(_ref_d_table(m, q), lambda n, j: J[j, n])
        if q <= 1:
            assert np.array_equal(got, ref)
        else:
            # d adds the splits of a (q+1)-index in another order
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_curvature_forms_share_one_read_only_wedge_table():
    form = ext.VForm(5, 1, rowwise(lambda x: np.zeros((5, 2, 2))))
    ext.curvature_form(form)
    info = ext.wedge_table.cache_info()
    ext.curvature_form(form)
    after = ext.wedge_table.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)
    for t in ext.wedge_table(5, 1, 1):
        with pytest.raises(ValueError):
            t[0, 0] = 7


def _ref_chern(Om, m, kmax):
    """Coefficient arrays of c_0 ... c_kmax of the constant curvature Om."""
    om = (1j / (2 * np.pi)) * Om
    powers = [om]
    for j in range(1, kmax):
        powers.append(_ref_combine(
            _ref_wedge_table(m, 2 * j, 2),
            lambda a, b: np.matmul(powers[-1][a], om[b])))
    ptr = [np.array([np.trace(c) for c in p]) for p in powers]
    es = [np.ones(1, dtype=complex)]
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k + 1):
            term = (-1.0) ** (i - 1) * _ref_combine(
                _ref_wedge_table(m, 2 * (k - i), 2 * i),
                lambda a, b: np.multiply(es[k - i][a], ptr[i - 1][b]))
            acc = term if acc is None else acc + term
        es.append((1.0 / k) * acc)
    return es


@pytest.mark.parametrize("m,d", [(4, 2), (5, 3), (6, 2), (6, 4)])
def test_chern_forms_match_per_term_reference(m, d):
    rng = np.random.default_rng(20 + m + d)
    Om = _coeff_array(rng, math.comb(m, 2), (d, d))
    curv = ext.VForm(m, 2, rowwise(lambda x: Om))
    sig = inv.chern_forms(curv, 2)
    ref = _ref_chern(Om, m, 2)
    x = rng.uniform(-1, 1, m)
    for k in (1, 2):
        assert np.array_equal(sig[k].value(x), ref[k])
    es = inv.chern_coefficients(Om, m, 2)
    for k in (1, 2):
        assert np.array_equal(es[k], ref[k])


@pytest.mark.parametrize("m", [2, 3, 6])
def test_pair_coefficients_match_the_wedge_table(m):
    rng = np.random.default_rng(40 + m)
    a = _coeff_array(rng, m, (3, 3))
    f = rng.standard_normal(m)
    table = ext.wedge_table(m, 1, 1)
    brackets = ext.wedge_coeffs(table, a, a, lambda u, v: u @ v - v @ u)
    assert np.max(np.abs(ext.bracket_pairs(a) - 0.5 * brackets)) <= 1e-14
    # on a stack, pair by pair on axis -3
    stacked = ext.bracket_pairs(np.stack([a, 2 * a]))
    for k, b in enumerate([a, 2 * a]):
        assert np.array_equal(stacked[k], ext.bracket_pairs(b))
    wedged = ext.wedge_coeffs(table, f, a, lambda u, v: u[..., None, None] * v)
    assert np.max(np.abs(ext.wedge_pairs(f, a) - wedged)) <= 1e-14


def _contraction_loop(C, degree, verts, rng):
    """Reference: one vertical vector at a time, its q - 1 companions drawn
    one vector at a time, C_I det_I summed by a Python generator."""
    worst = 0.0
    for v in verts:
        m = len(v)
        cols = np.array(list(combinations(range(m), degree)))
        V = np.array([v] + [rng.standard_normal(m)
                            for _ in range(degree - 1)], dtype=complex)
        dets = np.linalg.det(V[:, cols].transpose(1, 0, 2))
        val = sum((c * d for c, d in zip(C, dets)), np.zeros((), dtype=complex))
        worst = max(worst, float(np.max(np.abs(val))))
    return worst


@pytest.mark.parametrize("degree, shape", [(2, (2, 2)), (4, ()), (1, (3, 3))])
def test_vertical_contraction_matches_one_vector_at_a_time(degree, shape):
    m = 6
    rng = np.random.default_rng(50 + degree)
    n = math.comb(m, degree)
    C = rng.standard_normal((n,) + shape) + 1j * rng.standard_normal((n,) + shape)
    verts = np.linalg.qr(rng.standard_normal((m, 3))
                         + 1j * rng.standard_normal((m, 3)))[0].T.conj()
    for k in (0, 1, 3):
        rngs = np.random.default_rng(k), np.random.default_rng(k)
        got = ext.vertical_contraction([(C[None], degree)], verts[None, :k],
                                       rngs[0])
        assert got == [_contraction_loop(C, degree, verts[:k], rngs[1])]
        # the same draws: both streams stand at the same place
        assert rngs[0].standard_normal() == rngs[1].standard_normal()


def test_several_forms_contract_as_each_form_point_by_point():
    # one call on (C, q) pairs of a stack of P points equals the one-form
    # calls made point by point, each point's forms in turn: the same draws
    m, P = 6, 4
    rng = np.random.default_rng(55)
    forms = []
    for degree, shape in ((2, (2, 2)), (2, ()), (4, ()), (1, (3, 3)), (3, ())):
        size = (P, math.comb(m, degree)) + shape
        forms.append((rng.standard_normal(size)
                      + 1j * rng.standard_normal(size), degree))
    verts = np.linalg.qr(rng.standard_normal((P, m, 3))
                         + 1j * rng.standard_normal((P, m, 3)))[0]
    verts = verts.swapaxes(-1, -2).conj()
    rngs = np.random.default_rng(56), np.random.default_rng(56)
    got = ext.vertical_contraction(forms, verts, rngs[0])
    want = [0.0] * len(forms)
    for p in range(P):
        for n, (C, q) in enumerate(forms):
            want[n] = max(want[n], *ext.vertical_contraction(
                [(C[p:p + 1], q)], verts[p:p + 1], rngs[1]))
    assert got == want
    assert min(got) > 0.0
    assert rngs[0].standard_normal() == rngs[1].standard_normal()


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("kmax", [1, 2, 3])
@pytest.mark.parametrize("m, d", [(4, 2), (4, 3), (6, 2), (6, 3), (6, 4),
                                  (12, 2)])
def test_chern_tower_of_a_stack_is_the_per_point_tower_bit_for_bit(m, d, kmax):
    # compared as bytes, so that -0.0 against +0.0 counts: on R^12 the
    # tower of a real curvature has -0.0 entries from kmax = 2 on
    rng = np.random.default_rng(60 + 10 * m + d + kmax)
    n, signed_zeros = math.comb(m, 2), 0
    for stack in ((), (3,), (2, 3)):
        om = rng.standard_normal(stack + (n, d, d))
        for omega in (om.astype(complex),
                      om + 1j * rng.standard_normal(om.shape)):
            got = inv.chern_coefficients(omega, m, kmax)
            assert len(got) == kmax + 1
            for idx in np.ndindex(stack):
                want = chern_coefficients_reference(omega[idx], m, kmax)
                for g, w in zip(got, want, strict=True):
                    assert _bits(g[idx]) == _bits(w)
                    f = w.view(float)
                    signed_zeros += int(np.sum(np.signbit(f[f == 0])))
    assert signed_zeros > 0 or m < 12 or kmax == 1


def test_forms_past_the_top_degree_evaluate_to_zero():
    m = 3
    rng = np.random.default_rng(30)
    x = rng.uniform(-1, 1, m)
    vecs = [rng.standard_normal(m) for _ in range(4)]
    two = ext.VForm(m, 2, rowwise(lambda x: np.array([x[0], x[1] * x[2], 1.0])))
    assert wedge_scalar(two, two).evaluate(x, vecs) == 0
    three = _scalar_poly_form(m, 3, rng)
    assert exterior_d(three).evaluate(x, vecs) == 0
    curv = ext.curvature_form(_poly_form(m, rng))
    assert inv.chern_forms(curv, 2)[2].evaluate(x, vecs) == 0
