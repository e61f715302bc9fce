import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import invariants as inv, suites
from chernpatch.errors import PreconditionFailed
from helpers import jordan_decompose
from test_report_bytes import _kernels


def exact_matrix(rows):
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


def polarize_eval(f, xs):
    """Full polarization P(x_1,...,x_k) of f, of degree k = len(xs),
    normalized so P(x,...,x) = f(x):
    (1/k!) sum_{S nonempty} (-1)^{k-|S|} f(sum_S x_i)."""
    k = len(xs)
    total = sum((-1) ** (k - r) * f(sum(xs[i] for i in S))
                for r in range(1, k + 1) for S in combinations(range(k), r))
    return total / math.factorial(k)


def test_char_poly_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4))
    mine = inv._char_poly(x)
    ref = np.poly(x)
    assert np.max(np.abs(np.array(mine) - ref)) < 1e-9


def _exact_det(rows):
    """det by Gaussian elimination with row swaps, in Fraction whatever the
    rational entries of rows (ints too), so the result is exact."""
    a = [[Fraction(v) for v in r] for r in rows]
    d = len(a)
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, d):
            fac = a[r][col] / a[col][col]
            a[r] = [v - fac * w for v, w in zip(a[r], a[col])]
    return det


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_char_poly_matches_determinant_oracle(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(5):
        x = np.array([[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                       for _ in range(d)] for _ in range(d)], dtype=object)
        cs = inv._char_poly(x)
        assert len(cs) == d + 1
        assert all(type(c) is Fraction for c in cs)
        for t in range(d + 1):
            shifted = [[(t if i == j else 0) - x[i, j] for j in range(d)]
                       for i in range(d)]
            assert sum(c * t ** (d - k) for k, c in enumerate(cs)) == _exact_det(shifted)


def test_integer_char_poly_stays_in_integers():
    # a matrix of ints gives Berkowitz's ints, equal to the Fraction result
    rng = np.random.default_rng(12)
    for _ in range(5):
        rows = [[int(v) for v in r] for r in rng.integers(-9, 10, (4, 4))]
        cs = inv._char_poly(np.array(rows, dtype=object))
        assert all(type(c) is int for c in cs)
        assert cs == inv._char_poly(np.array(
            [[Fraction(v) for v in r] for r in rows], dtype=object))
    s, n = jordan_decompose(np.array([[2, 1], [0, 2]], dtype=object))
    assert s.tolist() == [[2, 0], [0, 2]] and n.tolist() == [[0, 1], [0, 0]]
    assert all(type(v) is Fraction for v in s.ravel())


def _rows(stack):
    """The per-matrix characteristic polynomials of a stack, as a list of
    coefficient lists."""
    return [inv._char_poly(x) for x in stack]


def _columns(cs):
    """The coefficient arrays of a stacked _char_poly, one list per matrix."""
    return np.stack(cs, -1).tolist()


def _matches_determinant_oracle(x, cs):
    d = len(x)
    for t in range(d + 1):
        shifted = [[Fraction((t if i == j else 0) - x[i][j]) for j in range(d)]
                   for i in range(d)]
        if sum(c * t ** (d - k) for k, c in enumerate(cs)) != _exact_det(shifted):
            return False
    return True


def test_stacked_char_poly_matches_rows_on_int64_stacks():
    rng = np.random.default_rng(30)
    xs = rng.integers(-9, 10, (3, 7, 4, 4))
    cs = inv._char_poly(xs)
    assert len(cs) == 5 and all(c.shape == (3, 7) and c.dtype == np.int64
                                for c in cs)
    assert _columns([c.reshape(21) for c in cs]) == _rows(xs.reshape(21, 4, 4))
    assert all(type(c) is int for row in _rows(xs[0]) for c in row)


def test_stacked_char_poly_past_the_int64_guard_uses_python_ints():
    # entries of 2^20 at d = 4: (d + 1) (d A)^d = 5 2^88 > 2^63, so the
    # recursion runs in Python ints, for an int64 stack as for an object one
    rng = np.random.default_rng(31)
    big = rng.integers(-2 ** 20, 2 ** 20 + 1, (6, 4, 4))
    big[:, 0, 0] = 2 ** 20
    for xs in (big, big.astype(object)):
        cs = inv._char_poly(xs)
        assert all(c.dtype == object for c in cs)
        assert all(type(v) is int for c in cs for v in c)
        rows = _rows(xs)
        assert _columns(cs) == rows
        for x, row in zip(big.tolist(), rows):
            assert _matches_determinant_oracle(x, row)
    # one Python-int coefficient needs more than 64 bits
    assert max(abs(v) for v in inv._char_poly(big)[4]) > 2 ** 63


def test_char_poly_guard_paths_give_the_same_ints():
    # at d = 4 the int64 guard (d + 1) (d A)^d < 2^63 holds for A = 9213
    # and fails for A = 9214; matrices at the edge, run alone (int64) and
    # stacked with one just past it (Python ints), agree and are right
    assert 5 * (4 * 9213) ** 4 < 2 ** 63 <= 5 * (4 * 9214) ** 4
    rng = np.random.default_rng(32)
    below = rng.choice([-9213, 9213], (8, 4, 4))
    above = np.concatenate([below, np.full((1, 4, 4), 9214)])
    lo, hi = inv._char_poly(below), inv._char_poly(above)
    assert lo[4].dtype == np.int64 and hi[4].dtype == object
    assert _columns(lo) == _columns(hi)[:8]
    for x, row in zip(below.tolist(), _columns(lo)):
        assert _matches_determinant_oracle(x, row)


def test_stacked_char_poly_matches_rows_on_fraction_stacks():
    rng = np.random.default_rng(33)
    xs = np.array([[[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
                     for _ in range(3)] for _ in range(3)] for _ in range(6)],
                  dtype=object)
    cs = inv._char_poly(xs)
    assert all(type(v) is Fraction for c in cs for v in c)
    assert _columns(cs) == _rows(xs)


def test_stacked_char_poly_is_bitwise_per_matrix_on_complex_stacks():
    rng = np.random.default_rng(34)
    xs = (rng.standard_normal((50, 4, 4))
          + 1j * rng.standard_normal((50, 4, 4)))
    for stack in (xs, xs.real):
        stacked = np.stack(inv._char_poly(stack), -1)
        rows = np.array(_rows(stack), dtype=complex)
        assert stacked.dtype == complex and stacked.tobytes() == rows.tobytes()
        es = np.stack(inv.elementary_symmetric_values(stack), -1)
        single = np.array([inv.elementary_symmetric_values(x) for x in stack])
        assert np.array_equal(es, single)


def test_elementary_symmetric_values_agree_with_single_values():
    rng = np.random.default_rng(4)
    xe = np.array([[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
                    for _ in range(4)] for _ in range(4)], dtype=object)
    xf = rng.standard_normal((4, 4))
    for x in (xe, xf):
        es = inv.elementary_symmetric_values(x)
        assert es[0] == 1
        assert len(es) == 5
        for k in range(5):
            assert es[k] == inv.elementary_symmetric_value(x, k)
    with pytest.raises(PreconditionFailed):
        inv.elementary_symmetric_value(xf, 5)


@pytest.mark.parametrize("d", range(1, 7))
def test_real_char_poly_has_the_bits_of_the_complex_path(d):
    # a real stack takes real products; its coefficients are complex128 and
    # byte-equal to those of the same stack cast to complex
    rng = np.random.default_rng(d)
    stacks = [scale * rng.standard_normal((20, d, d))
              for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8)]
    stacks += [np.where(rng.random((8, d, d)) < 0.5, 0.0, -0.0),
               rng.choice([-1.0, -0.0, 0.0, 1.0], (20, d, d))]
    for x in stacks:
        got = inv._char_poly(x)
        assert all(c.dtype == np.complex128 for c in got)
        assert (np.stack(got).tobytes()
                == np.stack(inv._char_poly(x.astype(complex))).tobytes()
                ), _kernels()
    x = rng.standard_normal((d, d))
    got = inv._char_poly(x)
    assert all(type(c) is complex for c in got)
    assert got == inv._char_poly(x.astype(complex)), _kernels()


def test_elementary_symmetric_reads_a_nested_list():
    x = [[1.0, 2.0], [3.0, 4.0]]
    assert inv.elementary_symmetric(2)(x) == -2.0
    assert (inv.elementary_symmetric_value(x, 1)
            == inv.elementary_symmetric_values(x)[1] == 5.0)


@pytest.mark.parametrize("k", [True, False, 1.0, 1.5, "1", None, -1, 3])
def test_elementary_symmetric_value_refuses_a_k_that_is_no_degree(k):
    with pytest.raises(PreconditionFailed, match=f"k out of range: {k!r}"):
        inv.elementary_symmetric_value(np.eye(2), k)


def test_elementary_symmetric_exact():
    x = exact_matrix([[1, 2], [3, 4]])
    assert inv.elementary_symmetric_value(x, 1) == 5       # trace
    assert inv.elementary_symmetric_value(x, 2) == -2      # determinant


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_polarization_diagonal(seed):
    rng = np.random.default_rng(seed)
    f = inv.elementary_symmetric(2)
    x = rng.standard_normal((3, 3))
    assert abs(polarize_eval(f, [x, x]) - f(x)) < 1e-8


def test_polarization_multilinear():
    rng = np.random.default_rng(1)
    f = inv.elementary_symmetric(2)
    x, y, z = (rng.standard_normal((3, 3)) for _ in range(3))
    lhs = polarize_eval(f, [x + z, y])
    rhs = polarize_eval(f, [x, y]) + polarize_eval(f, [z, y])
    assert abs(lhs - rhs) < 1e-9


def test_springer_exact_zero():
    x = exact_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    n = exact_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for k in range(1, 4):
        f = inv.elementary_symmetric(k)
        assert inv.springer_check(f, x, n) == 0


def test_springer_rejects_noncommuting():
    x = np.diag([1.0, 2.0, 3.0])
    n = np.zeros((3, 3))
    n[0, 1] = 1.0  # nilpotent but [x, n] != 0
    f = inv.elementary_symmetric(2)
    with pytest.raises(PreconditionFailed):
        inv.springer_check(f, x, n)


def _float_pairs(count, seed=40):
    M, N, det = suites._commuting_pairs(np.random.default_rng(seed), count)
    return M / det[:, None, None], N / det[:, None, None]


def test_stacked_springer_check_matches_single_matrices():
    x, n = _float_pairs(6)
    for k in range(1, 5):
        f = inv.elementary_symmetric(k)
        r = inv.springer_check(f, x, n, tol=1e-6)
        assert r.shape == (6,)
        single = [inv.springer_check(f, a, b, tol=1e-6) for a, b in zip(x, n)]
        assert all(type(v) is float for v in single)
        assert r.tobytes() == np.array(single).tobytes()
    xe = np.array([exact_matrix([[2, 0], [0, 2]]), exact_matrix([[1, 0], [0, 3]])])
    ne = np.array([exact_matrix([[0, 1], [0, 0]]), exact_matrix([[0, 0], [0, 0]])])
    assert inv.springer_check(inv.elementary_symmetric(2), xe, ne).tolist() == [0, 0]


@pytest.mark.parametrize("seed", [0, 40])
def test_one_springer_check_of_all_e_k_matches_one_check_each(seed):
    # the springer suite's one check of e_1, ..., e_4 on a stack gives, row
    # for row, the bits of one springer_check of elementary_symmetric(k)
    # each, and so does its corrupt branch's one stacked difference
    x, n = _float_pairs(30, seed)
    stacked = inv.springer_check(suites._shift_invariants, x, n, tol=1e-6)
    assert stacked.shape == (4, 30)
    assert stacked.tobytes() == np.array(
        [inv.springer_check(inv.elementary_symmetric(k), x, n, tol=1e-6)
         for k in range(1, 5)]).tobytes()
    x, n = np.random.default_rng(seed).standard_normal((2, 30, 4, 4))
    n = np.triu(n, 1)
    fs = [inv.elementary_symmetric(k) for k in range(1, 5)]
    diff = suites._shift_invariants(x + n) - suites._shift_invariants(x)
    assert diff.tobytes() == np.array([f(x + n) - f(x) for f in fs]).tobytes()


def test_stacked_springer_check_names_the_failing_row():
    f = inv.elementary_symmetric(2)
    x, n = _float_pairs(5)
    bad = n.copy()
    bad[3] = np.eye(4)                  # not nilpotent
    with pytest.raises(PreconditionFailed,
                       match=r"n is not nilpotent \(row 3\)$"):
        inv.springer_check(f, x, bad, tol=1e-6)
    x[2], n[2] = np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4, k=1)
    with pytest.raises(PreconditionFailed, match=r"do not commute \(row 2\)$"):
        inv.springer_check(f, x, n, tol=1e-6)


@pytest.mark.parametrize("which", ["x", "n"])
@pytest.mark.parametrize("row", [0, 3])
def test_springer_check_names_a_nan_input(which, row):
    # a NaN fails every comparison: it is named as itself, at its row, not
    # as a pair that does not commute or an n that is not nilpotent
    f = inv.elementary_symmetric(2)
    x, n = _float_pairs(5)
    {"x": x, "n": n}[which][row, 1, 3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            PreconditionFailed, match=rf"^{which} is not finite \(row {row}\)$"):
        inv.springer_check(f, x, n, tol=1e-6)


def test_springer_check_refuses_an_infinite_entry():
    # an infinite x once scaled the commutation tolerance to inf, and 12 of
    # these placements passed with a NaN residual; each is named instead
    f = inv.elementary_symmetric(2)
    x0, n = _float_pairs(6, seed=0)
    for r, i, j in product(range(6), range(4), range(4)):
        for bad in (np.inf, -np.inf):
            x = x0.copy()
            x[r, i, j] = bad
            with np.errstate(invalid="ignore"), pytest.raises(
                    PreconditionFailed, match=rf"^x is not finite \(row {r}\)$"):
                inv.springer_check(f, x, n, tol=1e-6)
    n[4, 0, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            PreconditionFailed, match=r"^n is not finite \(row 4\)$"):
        inv.springer_check(f, x0, n, tol=1e-6)


def test_large_norm_row_does_not_loosen_a_small_row():
    # row 0 is a valid pair of norm 1e6; row 1 is off by 1e-5, far above
    # tol = 1e-9 at its own norm, far below tol times the norm of row 0
    f = inv.elementary_symmetric(2)
    x = np.array([1e6 * np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 2.0, 3.0])])
    n = np.zeros((2, 3, 3))
    n[0, 0, 1] = 1e6
    n[1, 0, 1] = 1e-5                   # nilpotent, but [x, n] = -1e-5 e_01
    with pytest.raises(PreconditionFailed, match=r"do not commute \(row 1\)$"):
        inv.springer_check(f, x, n)
    # n^3 = 1e-3 I at row 1, above tol = 1e-9, below tol (1e6)^3
    n[1], x[1] = 0.1 * np.eye(3), np.eye(3)
    with pytest.raises(PreconditionFailed,
                       match=r"n is not nilpotent \(row 1\)$"):
        inv.springer_check(f, x, n)
    # each row alone: row 0 passes, row 1 fails
    inv.springer_check(f, x[0], n[0])
    with pytest.raises(PreconditionFailed, match="n is not nilpotent$"):
        inv.springer_check(f, x[1], n[1])


def _is_scalar_matrix(a, det):
    """a == det I exactly, for a matrix or a stack with det over it."""
    d = a.shape[-1]
    det = np.reshape(np.asarray(det, dtype=object), np.shape(det) + (1, 1))
    return (a == det * np.eye(d, dtype=int)).all()


@pytest.mark.parametrize("d", range(1, 6))
def test_adjugate_is_exact(d):
    # adj x @ x = x @ adj x = det(x) I exactly, det(x) the Gaussian
    # elimination oracle (fed the rows as they are, Python ints or
    # Fractions), on an int64 stack, on Python-int matrices and on Fraction
    # matrices, one of them singular
    rng = np.random.default_rng(40 + d)
    ints = rng.integers(-9, 10, (7, d, d))
    ints[0, :, -1] = 0     # a zero column: det 0
    adj, det = inv.adjugate(ints)
    assert adj.dtype == det.dtype == np.int64 and det.shape == (7,)
    assert _is_scalar_matrix(adj @ ints, det)
    assert _is_scalar_matrix(ints @ adj, det)
    assert det[0] == 0
    fracs = [np.array([[Fraction(int(v), int(rng.integers(1, 8))) for v in row]
                       for row in x], dtype=object) for x in ints]
    for x in [a.astype(object) for a in ints] + fracs:
        adj, det = inv.adjugate(x)
        assert det == _exact_det(x.tolist())
        assert type(det) is (int if type(x[0, 0]) is int else Fraction)
        assert _is_scalar_matrix(adj @ x, det)
        assert _is_scalar_matrix(x @ adj, det)
    assert inv.adjugate(fracs[0])[1] == 0


def test_jordan_decompose_exact():
    x = exact_matrix([[2, 1], [0, 2]])
    s, n = jordan_decompose(x)
    assert all(v == w for v, w in zip(s.ravel(),
                                      exact_matrix([[2, 0], [0, 2]]).ravel()))
    assert inv.is_nilpotent(n)
    assert all(v == 0 for v in (s @ n - n @ s).ravel())


@pytest.mark.parametrize("dim", range(1, 6))
def test_jordan_decompose_exact_conjugated_jordan_form(dim):
    # x = S (D + N) S^-1 with integer S: s = S D S^-1 and n = S N S^-1
    rng = np.random.default_rng(20 + dim)
    for M, N, det in zip(*suites._commuting_pairs(rng, 10, dim)):
        sx, nx = (np.array([[Fraction(v, int(det)) for v in row]
                            for row in a.tolist()], dtype=object)
                  for a in (M, N))
        s, n = jordan_decompose(sx + nx)
        assert s.tolist() == sx.tolist() and n.tolist() == nx.tolist()
        assert all(type(v) is Fraction for v in s.ravel())


def test_integer_pair_invariants_scale_by_det_powers():
    # e_k(M) = det^k e_k(M / det): the exact count of suite_nilpotent
    # compares integer matrices for the Fraction ones
    rng = np.random.default_rng(5)
    for M, N, det in zip(*suites._commuting_pairs(rng, 50, 4)):
        det = int(det)
        for a in (M, M + N):
            x = np.array([[Fraction(v, det) for v in row]
                          for row in a.tolist()], dtype=object)
            ints, fracs = (inv.elementary_symmetric_values(a),
                           inv.elementary_symmetric_values(x))
            assert [e == det ** k * f
                    for k, (e, f) in enumerate(zip(ints, fracs))] == [True] * 5


def test_jordan_decompose_takes_fractions_only():
    # an exact oracle: a float matrix is refused, not clustered
    for x in (np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2, dtype=complex),
              np.array([[1.0, 0.5], [0.0, 1.0]], dtype=object)):
        with pytest.raises(PreconditionFailed, match="matrix of Fractions"):
            jordan_decompose(x)


def test_jordan_decompose_float_rejects_blurred_defective():
    # generic conjugation blurs the double eigenvalue by about sqrt(eps),
    # which no float clustering can tell from a tight spectrum: refused
    rng = np.random.default_rng(3)
    q = rng.standard_normal((3, 3))
    x = np.array([[1.0, 0.7, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    x = q @ x @ np.linalg.inv(q)
    with pytest.raises(PreconditionFailed, match="matrix of Fractions"):
        jordan_decompose(x)


def test_jordan_decompose_rejects_tight_spectrum():
    x = np.diag([1.0, 1.0 + 1e-9, 3.0])
    with pytest.raises(PreconditionFailed, match="matrix of Fractions"):
        jordan_decompose(x)
    # the same spectrum in exact arithmetic is simple: s = x, n = 0
    xe = np.diag([Fraction(1), 1 + Fraction(1, 10 ** 9), Fraction(3)])
    s, n = jordan_decompose(xe)
    assert s.tolist() == xe.tolist() and all(v == 0 for v in n.ravel())


def test_nilpotent_shift_changes_noninvariant_function():
    # negative control: entry functions are not conjugation-invariant
    x = exact_matrix([[2, 0], [0, 2]])
    n = exact_matrix([[0, 1], [0, 0]])
    assert (x + n)[0][1] != x[0][1]
    # but every elementary symmetric invariant agrees
    for k in (1, 2):
        assert (inv.elementary_symmetric_value(x + n, k)
                == inv.elementary_symmetric_value(x, k))
