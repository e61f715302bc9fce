import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from chernpatch import charts, connections, exterior as ext, hcrepr, liecore
from helpers import alg_residual


def test_mc_coefficients_reproduce_basis_at_origin():
    spec = liecore.su_pq(1, 1)
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


@pytest.mark.parametrize("spec", [liecore.sp2nR(2), liecore.su_pq(1, 1),
                                  liecore.su_pq(2, 1)])
def test_mc_coeff_stack_matches_per_index_and_differences(spec):
    chart = charts.GroupChart(spec)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, chart.dim)
        mc = chart.mc_coeff(x)
        assert mc.shape == (chart.dim, spec.size, spec.size)
        ginv = np.linalg.inv(chart.g(x))
        for i in range(chart.dim):
            assert np.max(np.abs(mc[i] - _mc_coeff_per_index(chart, i, x))) < 1e-14
            e = np.eye(chart.dim)[i] * h
            dg = (chart.g(x + e) - chart.g(x - e)) / (2 * h)
            assert np.max(np.abs(mc[i] - ginv @ dg)) < 1e-8


def test_curvature_bridge_su11():
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.builtin_representation(spec, "weight:2")
    conn = connections.nomizu_connection(spec, rep)
    rng = np.random.default_rng(1)
    pts = [rng.uniform(-0.4, 0.4, 3) for _ in range(10)]
    assert charts.curvature_bridge_residual(spec, conn, pts, rng=rng) < 1e-6


def test_curvature_bridge_flat():
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    hom = [np.asarray(b, dtype=complex) for b in liecore.algebra_basis(spec)]
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
