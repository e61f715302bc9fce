"""Acceptance gate.

Each test covers one headline capability at its stated tolerance and emits
a single pass or fail line through the pytest report.  Budgeted sample
counts and runtimes are part of the properties, so the slow checks time
themselves.
"""

import time

import numpy as np
import pytest

from chernpatch import charts, exterior as ext, invariants as inv
from chernpatch import siegel, suites


def _passing(report):
    assert report["pass"], suites.render_report(report)
    return report


def test_partition_of_unity_identity_within_budget():
    t0 = time.perf_counter()
    rpt = _passing(suites.run_suite("partition", seed=0, tol=1e-12,
                                    samples=10000))
    elapsed = time.perf_counter() - t0
    assert max(c["max_residual"] for c in rpt["checks"]) <= 1e-12
    assert elapsed < 5.0, f"partition identity took {elapsed:.2f}s"


def test_vanishing_property_exhaustive_grid():
    rpt = _passing(suites.run_suite("vanishing", seed=0, samples=10000))
    assert all(c["max_residual"] == 0.0 for c in rpt["checks"])


def test_patched_curvature_formula_random_polynomials():
    # one stacked evaluation per chart dimension; one evaluation per
    # sample took over 0.06 s
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        _passing(suites.run_suite("patch", seed=0, tol=1e-6, samples=100,
                                  nvars=4))
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.06, f"patch identity took {min(elapsed):.3f}s"


def test_nilpotent_shift_invariance_exact_and_float():
    t0 = time.perf_counter()
    rpt = _passing(suites.run_suite("nilpotent", seed=0, tol=1e-9,
                                    samples=500))
    elapsed = time.perf_counter() - t0
    exact = [c for c in rpt["checks"] if "exact" in c["name"]]
    assert exact and all(c["max_residual"] == 0.0 for c in exact)
    assert elapsed < 1.5, f"nilpotent invariance took {elapsed:.2f}s"


def test_invariant_connection_classification():
    _passing(suites.run_suite("classify", seed=0, samples=100))


def test_chart_vs_algebraic_curvature_bridge():
    t0 = time.perf_counter()
    rpt = _passing(suites.run_suite("bridge", seed=0, tol=1e-6, samples=20))
    elapsed = time.perf_counter() - t0
    assert len(rpt["checks"]) == 2
    assert elapsed < 1.0, f"curvature bridge took {elapsed:.2f}s"


def test_induced_curvature_is_vertical_free():
    t0 = time.perf_counter()
    _passing(suites.run_suite("pifiber", seed=0, tol=1e-6, samples=200))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.06, f"pifiber at 200 samples took {elapsed:.2f}s"


def test_chern_forms_descend_where_the_curvature_does_not():
    t0 = time.perf_counter()
    rpt = _passing(suites.run_suite("descent", seed=0, tol=1e-10,
                                    samples=40))
    elapsed = time.perf_counter() - t0
    checks = {c["name"]: c for c in rpt["checks"]}
    for k in (1, 2):
        assert checks[f"chern-c{k}-vertical"]["max_residual"] <= 1e-10
    assert checks["raw-curvature-not-vertical"]["max_residual"] > 1e-3
    assert checks["structure-equation-vs-differences"]["max_residual"] <= 1e-8
    assert rpt["oracle_points"] == [0, 1, 2]
    assert elapsed < 1.0, f"descent at 40 points took {elapsed:.2f}s"


def test_canonical_extension_and_nesting():
    _passing(suites.run_suite("extension", seed=0, tol=1e-8, samples=50))


def test_patched_recursion_equals_chain():
    rpt = _passing(suites.run_suite("patched", seed=0, tol=1e-10,
                                    samples=40))
    chain = [c for c in rpt["checks"] if c["name"] == "recursion-equals-chain"]
    assert chain and chain[0]["max_residual"] <= 1e-10


def test_patched_localization_formula():
    rpt = _passing(suites.run_suite("patched", seed=1, tol=1e-10,
                                    samples=40))
    loc = [c for c in rpt["checks"] if c["name"] == "localization"]
    assert loc and loc[0]["max_residual"] <= 1e-10


@pytest.fixture(scope="module")
def patched_chern_data():
    m = siegel.SiegelModel("std")
    wp = m.form_from_evaluator(m.omega_patched)
    curv = ext.curvature_form(wp)
    sig = inv.chern_forms(curv, 2)
    return m, curv, sig


def test_patched_chern_forms_descend_in_mixed_tube(patched_chern_data):
    m, _, sig = patched_chern_data
    rng = np.random.default_rng(0)
    pts = suites._mixed_tube_points(m, rng, 3)
    proj = m.projection_map()
    for k in (1, 2):
        rpt = ext.pifiber_check(sig[k], proj, pts, tol=1e-5, rng=rng)
        assert rpt["ok"], rpt


def test_raw_curvature_obstructed_where_chern_forms_descend(
        patched_chern_data):
    m, curv, sig = patched_chern_data
    rng = np.random.default_rng(1)
    pts = suites._mixed_tube_points(m, rng, 3)
    proj = m.projection_map()
    raw = ext.pifiber_check(curv, proj, pts, tol=1e-5, rng=rng)
    assert not raw["ok"], raw
    for k in (1, 2):
        rpt = ext.pifiber_check(sig[k], proj, pts, tol=1e-5, rng=rng)
        assert rpt["ok"], rpt


def test_projective_line_chern_number_quadrature():
    t0 = time.perf_counter()
    val = charts.p1_chern_number(weight=2, n=160)
    elapsed = time.perf_counter() - t0
    assert abs(val - 2.0) < 1e-3
    assert elapsed < 10.0, f"quadrature took {elapsed:.2f}s"


def test_schubert_ring_identities_and_generation():
    rpt = _passing(suites.run_suite("schubert"))
    names = {c["name"] for c in rpt["checks"]}
    assert {"lagrangian-relation", "betti-product", "generation",
            "euler-characteristic", "negative-control-wrong-sign",
            "negative-control-not-generating"} == names


def test_reports_byte_identical_for_identical_config():
    for name, kw in [("partition", {"samples": 500}),
                     ("nilpotent", {"samples": 25}),
                     ("bridge", {"samples": 4}),
                     ("schubert", {})]:
        a = suites.render_report(suites.run_suite(name, seed=3, **kw))
        b = suites.render_report(suites.run_suite(name, seed=3, **kw))
        assert a.encode() == b.encode(), name
