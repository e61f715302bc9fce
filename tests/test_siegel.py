import numpy as np
import pytest

from chernpatch import exterior as ext, invariants as inv, liecore, siegel


@pytest.fixture(scope="module")
def model():
    return siegel.SiegelModel("std")


def _sample_x(rng, mixed="all"):
    x = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.3, 0.3)),
         float(rng.uniform(-0.3, 0.3)), 0.0, float(rng.uniform(-0.3, 0.3)), 0.0]
    x[3] = 1.0 / rng.uniform(0.02, 0.5)
    x[5] = 1.0 / rng.uniform(0.005, 0.12)
    return x


def test_section_lands_in_group(model):
    rng = np.random.default_rng(0)
    spec = model.spec
    for _ in range(10):
        x = _sample_x(rng)
        g = siegel.section(x)
        assert liecore.grp_residual(spec, g) < 1e-10


def test_section_maps_to_point(model):
    # acting on i*I recovers the chart coordinates
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = _sample_x(rng)
        g = siegel.section(x)
        n = 2
        A, B = g[:n, :n], g[:n, n:]
        C, D = g[n:, :n], g[n:, n:]
        Z0 = 1j * np.eye(n)
        Z = (A @ Z0 + B) @ np.linalg.inv(C @ Z0 + D)
        Zx = siegel.z_from_coords(x)
        assert np.max(np.abs(Z - Zx)) < 1e-9


def test_section_mc_matches_finite_difference(model):
    rng = np.random.default_rng(2)
    x = _sample_x(rng)
    mcs = siegel.section_mc(x)
    h = 1e-6
    for i in range(6):
        xp = list(x); xp[i] += h
        xm = list(x); xm[i] -= h
        g = siegel.section(x)
        num = np.linalg.inv(g) @ (siegel.section(xp) - siegel.section(xm)) / (2 * h)
        assert np.max(np.abs(mcs[i] - num)) < 1e-5


def test_patched_recursion_equals_chain(model):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        x = _sample_x(rng)
        for mc in siegel.section_mc(x)[:3]:
            a = model.omega_patched(x, mc)
            b = model.omega_patched_chain(x, mc)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-10


def test_patched_localization(model):
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = _sample_x(rng)
        for mc in siegel.section_mc(x)[:3]:
            a = model.omega_patched(x, mc)
            c, W, wsum = model.omega_patched_localized(x, mc)
            assert W in ("Z", "Y", "X")
            assert np.max(np.abs(wsum * a - c)) < 1e-10


def test_mixed_region_weights_sum_to_one(model):
    md = model.model
    rng = np.random.default_rng(5)
    epsX = md.eps("X")
    for _ in range(25):
        x = _sample_x(rng)
        # force a mixed radial coordinate
        x[5] = 1.0 / float(rng.uniform(0.55 * epsX, 0.7 * epsX))
        pt = model.model_point(x)
        w = md.partition_weights(pt)
        assert abs(sum(w.values()) - 1.0) < 1e-12


def test_induced_curvature_vertical(model):
    form = model.form_from_evaluator(model.omega_induced_nomizu)
    curv = ext.curvature_form(form)
    rng = np.random.default_rng(6)
    pts = []
    for _ in range(4):
        x = _sample_x(rng)
        x[5] = float(rng.uniform(17.0, 40.0))
        pts.append(x)
    rpt = ext.pifiber_check(curv, model.projection_map(), pts,
                            tol=1e-6, rng=rng)
    assert rpt["ok"]


def test_chern_forms_of_patched_connection_vertical(model):
    wp = model.form_from_evaluator(model.omega_patched)
    curv = ext.curvature_form(wp)
    sig = inv.chern_forms(curv, 2)
    rng = np.random.default_rng(7)
    pts = []
    epsX = model.model.eps("X")
    for _ in range(3):
        rz = float(rng.uniform(0.55, 0.7)) * epsX
        ry = float(rng.uniform(0.1, 0.45)) * epsX
        y11, y22 = 1.0 / rz, 1.0 / ry
        y12 = float(rng.uniform(-0.02, 0.02)) * np.sqrt(y11 * y22)
        pts.append([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    float(rng.uniform(-1, 1)), y11, y12, y22])
    proj = model.projection_map()
    raw = ext.pifiber_check(curv, proj, pts, tol=1e-5, rng=rng)
    assert not raw["ok"]
    for k in (1, 2):
        rpt = ext.pifiber_check(sig[k], proj, pts, tol=1e-5, rng=rng)
        assert rpt["ok"]
