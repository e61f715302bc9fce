import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from chernpatch import (charts, connections, exterior as ext, hcrepr, liecore,
                        suites)
from helpers import alg_residual, chart_g, p1_chern_reference


def test_mc_coefficients_reproduce_basis_at_origin():
    spec = liecore.sp2nR(1)
    chart = charts.GroupChart(spec)
    x0 = np.zeros(chart.dim)
    assert np.max(np.abs(chart.mc_coeff(x0) - chart.basis)) < 1e-12


def test_mc_value_is_in_algebra():
    spec = liecore.sp2nR(2)
    chart = charts.GroupChart(spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, chart.dim)
        i = int(rng.integers(chart.dim))
        assert alg_residual(spec, chart.mc_coeff(x)[i]) < 1e-10


def _mc_coeff_per_index(chart, i, x):
    """Reference: conjugate e_i by exp(-x_j e_j) for j = i + 1, ..., dim - 1."""
    v = chart.basis[i]
    for j in range(i + 1, chart.dim):
        h = scipy.linalg.expm(-float(x[j]) * chart.basis[j])
        v = h @ v @ np.linalg.inv(h)
    return v


@pytest.mark.parametrize("spec", [liecore.sp2nR(2), liecore.sp2nR(1),
                                  liecore.sp2nR(3)])
def test_mc_coeff_stack_matches_per_index_and_differences(spec):
    chart = charts.GroupChart(spec)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, chart.dim)
        mc = chart.mc_coeff(x)
        assert mc.shape == (chart.dim, spec.size, spec.size)
        ginv = np.linalg.inv(chart_g(chart, x))
        for i in range(chart.dim):
            assert np.max(np.abs(mc[i] - _mc_coeff_per_index(chart, i, x))) < 1e-14
            e = np.eye(chart.dim)[i] * h
            dg = (chart_g(chart, x + e) - chart_g(chart, x - e)) / (2 * h)
            assert np.max(np.abs(mc[i] - ginv @ dg)) < 1e-8


def test_curvature_bridge_sp2():
    spec = liecore.sp2nR(1)
    rep = hcrepr.builtin_representation(spec, "det^2")
    conn = connections.nomizu_connection(spec, rep)
    rng = np.random.default_rng(1)
    pts = [rng.uniform(-0.4, 0.4, 3) for _ in range(10)]
    assert charts.curvature_bridge_residual(spec, conn, pts, rng=rng) < 1e-6


def test_curvature_bridge_flat():
    # the inclusion of sp(2) into End(C^2), in the complex coordinates in
    # which lamC takes K(C)
    spec = liecore.sp2nR(1)
    rep = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    M, Minv = spec.complex_coords
    hom = [M @ b @ Minv for b in liecore.algebra_basis(spec)]
    conn = connections.make_invariant_connection(spec, rep, hom)
    chart = charts.GroupChart(spec)
    om = chart.connection_form(conn)
    curv = ext.curvature_form(om)
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, chart.dim)
        vecs = [rng.standard_normal(chart.dim) for _ in range(2)]
        assert np.max(np.abs(curv.evaluate(x, vecs))) < 1e-8


def test_p1_chern_number_weights():
    assert abs(charts.p1_chern_number(weight=2, n=120) - 2.0) < 1e-3
    assert abs(charts.p1_chern_number(weight=-1, n=120) + 1.0) < 1e-3


@pytest.mark.parametrize("weight", [1, 2, 3, -2])
def test_p1_chern_number_reads_entry_00_bit_for_bit(weight):
    # the integrand forms only entry [0, 0] of g(-theta) times the
    # phi-difference: the same bits as the whole stacked 2x2 product
    for n in (3, 17, 72, 160, 161):
        assert (charts.p1_chern_number(weight, n).hex()
                == p1_chern_reference(weight, n).hex()), n


@pytest.mark.parametrize("n", [5, 6, 71, 72, 160, 161])
def test_simpson_weights_match_scipy(n):
    rng = np.random.default_rng(n)
    for x in (np.linspace(0.0, 2 * np.pi, n),
              np.linspace(1e-4, np.pi / 2 - 1e-4, n)):
        y = rng.standard_normal(n)
        ref = scipy.integrate.simpson(y, x=x)
        assert abs(charts._simpson_weights(x) @ y - ref) < 1e-14


def test_p1_chart_matches_expm():
    rng = np.random.default_rng(0)
    theta = rng.uniform(-np.pi, np.pi, 20)
    phi = rng.uniform(0.0, 2 * np.pi, 20)
    g = charts._p1_chart(theta, phi)
    for k in range(20):
        u = np.cos(phi[k]) * charts._P1 + np.sin(phi[k]) * charts._P2
        ref = scipy.linalg.expm(theta[k] * u)
        assert np.max(np.abs(g[k] - ref)) < 1e-14


def test_import_does_not_load_scipy_integrate():
    # a fresh interpreter, since this module imports scipy; the package
    # needs numpy only, so no scipy module may load
    code = ("import sys, chernpatch; print(any(m == 'scipy' or "
            "m.startswith('scipy.') for m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(charts.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_expm_matches_scipy_on_a_stack():
    rng = np.random.default_rng(5)
    for scale in (0.0, 0.3, 3.0):
        a = scale * (rng.standard_normal((6, 4, 4))
                     + 1j * rng.standard_normal((6, 4, 4)))
        ref = np.array([scipy.linalg.expm(m) for m in a])
        assert np.max(np.abs(liecore.expm(a) - ref)) < 1e-13 * max(1.0, np.abs(ref).max())


def test_expm_of_a_stack_is_expm_of_each_matrix():
    # each member is scaled by its own norm, so the stack changes no bit
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    a *= np.geomspace(1e-4, 50.0, 8)[:, None, None]
    got = liecore.expm(a.reshape(2, 4, 4, 4)).reshape(8, 4, 4)
    for m, g in zip(a, got):
        assert liecore.expm(m).tobytes() == g.tobytes()


def test_expm_of_a_mixed_norm_stack_keeps_its_small_members():
    # members of 1-norm 1e-3 beside members of 1-norm 30; the error is
    # relative to exp(a) - I, the part of exp(a) that a small a determines
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    a /= np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
    a *= np.array([1e-3, 30.0] * 3)[:, None, None]
    for m, g in zip(a, liecore.expm(a)):
        ref = scipy.linalg.expm(m)
        assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref - np.eye(4)))


def test_mc_coeff_of_a_stack_is_mc_coeff_of_each_point():
    # repeated coordinates share one exponential; 0.0 and -0.0 are keyed apart
    chart = charts.GroupChart(liecore.sp2nR(2))
    xs = np.random.default_rng(8).uniform(-0.4, 0.4, (7, chart.dim))
    xs[5] = xs[0]
    xs[6, :4] = xs[1, :4]
    xs[2, 3] = xs[3, 5] = 0.0
    xs[3, 3] = xs[4, 5] = -0.0
    stack = chart.mc_coeff(xs)
    assert stack.shape == (7, chart.dim, 4, 4)
    for x, mc in zip(xs, stack):
        assert chart.mc_coeff(x).tobytes() == mc.tobytes()


def test_central_difference_makes_one_expm_call_per_distinct_coordinate(
        monkeypatch):
    # the 2 dim displaced rows of a point take three values of each x_j
    shapes = []
    expm = liecore.expm

    def counted(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(liecore, "expm", counted)
    for spec in (liecore.sp2nR(1), liecore.sp2nR(2)):
        chart = charts.GroupChart(spec)
        x = np.random.default_rng(9).uniform(-0.3, 0.3, chart.dim)
        shapes.clear()
        ext.SmoothMap(chart.dim, chart.mc_coeff).jacobian(x)
        n = spec.size
        assert shapes == [(2, 3 * (chart.dim - 1), n, n)]


def test_bridge_makes_two_mc_coeff_calls_per_stack(monkeypatch):
    # per stack of at most eight points: one for the connection form's
    # value and central difference on its (2 dim + 1) P rows, and one for
    # the algebraic curvature
    calls = []
    mc_coeff = charts.GroupChart.mc_coeff

    def counted(self, x):
        calls.append(np.shape(x))
        return mc_coeff(self, x)

    monkeypatch.setattr(charts.GroupChart, "mc_coeff", counted)
    assert suites.run_suite("bridge", seed=0, samples=10)["pass"]
    # su(1,1) and sp(4): dims 3 and 10; stacks of 8 and 2 points
    assert calls == [shape for dim in (3, 10) for p in (8, 2)
                     for shape in [((2 * dim + 1) * p, dim), (p, dim)]]


def test_bridge_bounds_its_temporaries():
    # the central difference of a stack of eight sp(4) points sets the peak,
    # about 1.8 MB; stacks capped at eight keep it whatever the sample count
    suites.run_suite("bridge", samples=2)    # lazy set-up outside the trace
    tracemalloc.start()
    try:
        suites.run_suite("bridge", samples=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_p1_chern_number_bounds_its_temporaries():
    charts.p1_chern_number(2, 8)    # lazy numpy set-up outside the trace
    tracemalloc.start()
    try:
        charts.p1_chern_number(2, 160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20
