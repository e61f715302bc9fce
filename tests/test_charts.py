import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from chernpatch import charts, connections, exterior as ext, hcrepr, liecore


def test_mc_coefficients_reproduce_basis_at_origin():
    spec = liecore.su_pq(1, 1)
    chart = charts.GroupChart(spec)
    x0 = np.zeros(chart.dim)
    for i, b in enumerate(chart.basis):
        assert np.max(np.abs(chart.mc_coeff(i, x0) - b)) < 1e-12


def test_mc_value_is_in_algebra():
    spec = liecore.sp2nR(2)
    chart = charts.GroupChart(spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, chart.dim)
        i = int(rng.integers(chart.dim))
        assert liecore.alg_residual(spec, chart.mc_coeff(i, x)) < 1e-10


def test_curvature_bridge_su11():
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.builtin_representation(spec, "weight:2")
    conn = connections.nomizu_connection(spec, rep)
    rng = np.random.default_rng(1)
    pts = [rng.uniform(-0.4, 0.4, 4) for _ in range(10)]
    assert charts.curvature_bridge_residual(spec, conn, pts, rng=rng) < 1e-6


def test_curvature_bridge_flat():
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    hom = [np.asarray(b, dtype=complex) for b in liecore.algebra_basis(spec)]
    conn = connections.flat_connection_from_hom(spec, rep, hom)
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
    # a fresh interpreter, since this module imports scipy.integrate
    code = "import sys, chernpatch; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(charts.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
