"""The stack contract of chart maps: func takes a (P, m) stack of chart
points, value(x) is its one-row case, and a central difference is one func
call on the 2m displaced points of each point of a stack and the point
itself, which gives the Jacobian and the value together.

Both are checked bit for bit on every chart map the package builds, the
stacked differences against the per-coordinate reference of helpers.py
and the differences of a stack of points against those of each point."""

import numpy as np
import pytest

from chernpatch import (charts, connections, exterior as ext, hcrepr,
                        invariants as inv, liecore, siegel, suites)
from helpers import fd_reference, patch_draws

NAMES = ["siegel-patched", "siegel-induced", "siegel-projection",
         "siegel-curvature", "chern-c1", "chern-c2", "chart-connection",
         "chart-curvature", "patch-combination"]


@pytest.fixture(scope="module")
def maps():
    """{name: (chart map, chart points)}."""
    rng = np.random.default_rng(0)
    model = siegel.SiegelModel("std")
    patched = model.form_from_evaluator(model.omega_patched)
    curv = ext.curvature_form(patched)
    c = inv.chern_forms(curv, 2)
    xs = (suites._mixed_tube_points(model, rng, 2)
          + suites._model_tube_points(model, rng, 1))
    spec = liecore.sp2nR(1)
    conn = connections.nomizu_connection(
        spec, hcrepr.builtin_representation(spec, "det^2"))
    chart = charts.GroupChart(spec)
    gs = list(rng.uniform(-0.4, 0.4, (3, chart.dim)))
    # a one-sample combination: a form of S > 1 samples reads R / S rows a
    # sample, so it has no one-row value
    coeffs, A, B, ps = patch_draws(3, 1, rng)
    combined = suites._patch_combination(coeffs, A, B)
    ps = list(ps[0])
    return {
        "siegel-patched": (patched, xs),
        "siegel-induced": (
            model.form_from_evaluator(model.omega_induced_nomizu), xs),
        "siegel-projection": (model.projection_map(), xs),
        "siegel-curvature": (curv, xs),
        "chern-c1": (c[1], xs[:2]),
        "chern-c2": (c[2], xs[:2]),
        "chart-connection": (chart.connection_form(conn), gs),
        "chart-curvature": (chart.algebraic_curvature_form(conn), gs),
        "patch-combination": (combined, ps),
    }


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("name", NAMES)
def test_value_is_its_row_of_the_stack(maps, name):
    sm, xs = maps[name]
    stack = np.asarray(sm.func(np.array(xs)), dtype=complex)
    assert len(stack) == len(xs)
    for n, x in enumerate(xs):
        assert _same_bits(sm.value(x), stack[n])
    # x at a row other than the first of a stack
    assert _same_bits(sm.value(xs[0]), np.asarray(
        sm.func(np.array(xs[::-1])), dtype=complex)[-1])


@pytest.mark.parametrize("name", NAMES)
def test_stacked_differences_match_one_coordinate_at_a_time(maps, name):
    sm, xs = maps[name]
    for x in xs:
        assert _same_bits(sm._fd_jacobian(x)[0], fd_reference(sm, x))


@pytest.mark.parametrize("name", NAMES)
def test_a_difference_is_one_call_that_gives_the_value_too(
        maps, name, monkeypatch):
    # the (2m+1)P rows of P points hold each point after its 2m displaced
    # rows, and its value there is func's at the point, bit for bit
    sm, xs = maps[name]
    rows, func = [], sm.func
    monkeypatch.setattr(sm, "func", lambda ys: rows.append(len(ys)) or func(ys))
    J, value = sm._fd_jacobian(np.array(xs))
    assert rows == [(2 * sm.m + 1) * len(xs)]
    assert _same_bits(value, np.asarray(func(np.array(xs)), dtype=complex))
    assert _same_bits(J, sm.jacobian(np.array(xs)))


@pytest.mark.parametrize("name", ["chart-connection", "chart-curvature",
                                  "patch-combination", "siegel-patched"])
def test_differences_of_a_stack_are_those_of_each_point(maps, name):
    sm, xs = maps[name]
    J, value = sm._fd_jacobian(np.array(xs))
    assert len(J) == len(value) == len(xs)
    for x, Jx, vx in zip(xs, J, value):
        assert all(map(_same_bits, sm._fd_jacobian(x), (Jx, vx)))


def test_a_patch_group_is_one_jacobian_call_per_affine_form(monkeypatch):
    # the affine forms' curvatures are in closed form: a group differences
    # only the combination, once, on the (2m+1) 3S rows of its 3S points
    calls, rows = [], []

    def counted(name):
        method = getattr(ext.SmoothMap, name)

        def wrapper(self, x):
            calls.append((name, len(x)))
            return method(self, x)
        return wrapper

    for name in ("jacobian", "_fd_jacobian"):
        monkeypatch.setattr(ext.SmoothMap, name, counted(name))
    combination = suites._patch_combination

    def counted_rows(*args):
        form = combination(*args)
        func = form.func
        form.func = lambda ys: rows.append(len(ys)) or func(ys)
        return form

    monkeypatch.setattr(suites, "_patch_combination", counted_rows)
    rpt = suites.run_suite("patch", seed=0, samples=12, nvars=2)
    assert rpt["pass"]
    assert calls == [("_fd_jacobian", 36)]
    assert rows == [5 * 36]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("S", [1, 2, 3, 4])
def test_a_patch_stack_is_each_sample_on_its_own(m, S):
    # an S-sample combination on its sample-major rows, and the closed-form
    # affine values and curvatures of S samples, give, bit for bit, those
    # of the S one-sample draws on their own points
    coeffs, A, B, xs = patch_draws(m, S, np.random.default_rng(10 * m + S))
    stacked = suites._patch_combination(coeffs, A, B)
    values = suites._affine_values(A, B, xs)
    closed = [values, suites._affine_curvatures(B, values)]
    for s in range(S):
        one = suites._patch_combination(tuple(c[s:s + 1] for c in coeffs),
                                        A[s:s + 1], B[s:s + 1])
        for get in (lambda f, x: f.func(x), lambda f, x: f._fd_jacobian(x)[0],
                    lambda f, x: f._fd_jacobian(x)[1],
                    lambda f, x: ext.curvature_form(f).func(x)):
            got = np.asarray(get(stacked, xs.reshape(-1, m)), dtype=complex)
            want = np.asarray(get(one, xs[s]), dtype=complex)
            assert _same_bits(got[3 * s:3 * s + 3], want)
        values = suites._affine_values(A[s:s + 1], B[s:s + 1], xs[s:s + 1])
        for got, want in zip(closed, [values, suites._affine_curvatures(
                B[s:s + 1], values)]):
            for a, b in zip(got, want, strict=True):
                assert _same_bits(a[s], b[0])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_affine_curvatures_match_central_differences(m):
    # d omega_i = sum_a<b (B_i,ba - B_i,ab) dx_a ^ dx_b plus the pair
    # brackets is what curvature_form differences out of the same values
    S = 3
    _, A, B, xs = patch_draws(m, S, np.random.default_rng(m))
    closed = suites._affine_curvatures(B, suites._affine_values(A, B, xs))
    for i, Omega in enumerate(closed):
        affine = ext.VForm(m, 1, lambda rows, i=i: np.concatenate(
            suites._affine_values(A, B, rows.reshape(S, -1, m))[i]))
        fd = ext.curvature_form(affine).func(xs.reshape(-1, m))
        assert np.max(np.abs(np.concatenate(Omega) - fd)) <= 1e-8


def _weights_drawn_part_by_part(m, rng):
    """The patch weights' coefficients as first drawn: c0, c1, c2 of each
    weight in turn, one draw each."""
    return tuple(np.array(c) for c in zip(*[
        (rng.uniform(-1, 1), rng.uniform(-1, 1, m), rng.uniform(-1, 1, (m, m)))
        for _ in range(suites._PATCH_PARTS - 1)]))


def _affine_drawn_row_by_row(m, rng, d=2):
    """An affine form's (A, B) as first drawn: A_i, then B_i / 0.4, for each
    coefficient i in turn."""
    return tuple(np.array(c) for c in zip(*[
        (rng.uniform(-1, 1, (d, d)), 0.4 * rng.uniform(-1, 1, (m, d, d)))
        for _ in range(m)]))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_one_draw_patch_coefficients_are_the_part_by_part_draws(m):
    new, old = np.random.default_rng(m), np.random.default_rng(m)
    for draw, reference in [(suites._random_weights, _weights_drawn_part_by_part),
                            (suites._random_affine_form, _affine_drawn_row_by_row)]:
        for a, b in zip(draw(m, new), reference(m, old), strict=True):
            assert _same_bits(a, b)
    # and the stream continues where it did
    assert new.uniform() == old.uniform()


def test_evaluate_takes_a_stack_with_one_vector_set_per_point(maps):
    sm, xs = maps["chart-curvature"]
    vs = np.random.default_rng(4).standard_normal((len(xs), 2, sm.m))
    stack = sm.evaluate(np.array(xs), vs)
    for x, v, val in zip(xs, vs, stack):
        assert _same_bits(sm.evaluate(x, v), val)
    with pytest.raises(ValueError):
        sm.evaluate(np.array(xs), vs[:1])


def test_a_siegel_jacobian_is_one_points_call_of_twelve_rows(monkeypatch):
    model = siegel.SiegelModel("std")
    rows = []
    points = model.points

    def counted(xs):
        rows.append(len(xs))
        return points(xs)

    monkeypatch.setattr(model, "points", counted)
    form = model.form_from_evaluator(model.omega_patched)
    x = suites._mixed_tube_points(model, np.random.default_rng(1), 1)[0]
    J = form.jacobian(x)
    assert J.shape == (6, 6, 2, 2)
    # the 12 displaced rows and the point itself
    assert rows == [13]
