"""The stack contract of chart maps: func takes a (P, m) stack of chart
points, value(x) is its one-row case, and a central difference is one func
call on the 2m displaced points of each point of a stack.

Both are checked bit for bit on every chart map the package builds, the
stacked differences against the per-coordinate reference of helpers.py
and the differences of a stack of points against those of each point."""

import numpy as np
import pytest

from chernpatch import (charts, connections, exterior as ext, hcrepr,
                        invariants as inv, liecore, siegel, suites)
from helpers import fd_reference

NAMES = ["siegel-patched", "siegel-induced", "siegel-projection",
         "siegel-curvature", "chern-c1", "chern-c2", "chart-connection",
         "chart-curvature", "patch-affine", "patch-combination"]


@pytest.fixture(scope="module")
def maps():
    """{name: (chart map, chart points)}."""
    rng = np.random.default_rng(0)
    model = siegel.SiegelModel("std")
    patched = model.form_from_evaluator(model.omega_patched)
    curv = ext.curvature_form(patched)
    c = inv.chern_forms(curv, 2)
    xs = (suites._mixed_tube_points(model, rng, 2)
          + suites._model_tube_points(rng, 1))
    spec = liecore.sp2nR(1)
    conn = connections.nomizu_connection(
        spec, hcrepr.builtin_representation(spec, "det^2"))
    chart = charts.GroupChart(spec)
    gs = list(rng.uniform(-0.4, 0.4, (3, chart.dim)))
    m = 3
    omegas = [suites._random_affine_form(m, rng) for _ in range(3)]
    combined = suites._combination_form(m, suites._random_weights(m, rng),
                                        omegas)
    ps = list(rng.uniform(-0.5, 0.5, (3, m)))
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
        "patch-affine": (omegas[0], ps),
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
        assert _same_bits(sm._fd_jacobian(x), fd_reference(sm, x))


@pytest.mark.parametrize("name", ["chart-connection", "chart-curvature",
                                  "patch-affine", "patch-combination",
                                  "siegel-patched"])
def test_differences_of_a_stack_are_those_of_each_point(maps, name):
    sm, xs = maps[name]
    stack = sm._fd_jacobian(np.array(xs))
    assert len(stack) == len(xs)
    for x, J in zip(xs, stack):
        assert _same_bits(sm._fd_jacobian(x), J)


def test_an_analytic_jacobian_of_a_stack_is_that_of_each_point(maps):
    sm, xs = maps["patch-affine"]
    stack = sm.jacobian(np.array(xs))
    for x, J in zip(xs, stack):
        assert _same_bits(sm.jacobian(x), J)


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
    assert rows == [12]
