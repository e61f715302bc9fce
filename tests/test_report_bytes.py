"""Canonical reports are byte-identical to the committed goldens.

Every ``verify`` suite runs at seed 0 at a small size, and so does the
negative control of each suite that has one; pifiber, patched and descent
also run at seed 7 at sizes whose points fill several stacks; the
curvature tables of sp(2), sp(4) and sp(6) on the std, sym2 and det^2
representations are rendered through the CLI; the vertical contractions of
the patched curvature and of its Chern forms c_1, c_2 are taken at the
three mixed-tube points of demo 04; and the patched connection's values
and curvatures on the sym2 and det^2 representations, which no suite
evaluates, are rendered at three mixed-tube points.
A change that moves any digit of a report fails here.  When such a move is
intended, regenerate the goldens with

    PYTHONPATH=src python tests/test_report_bytes.py

and say in CHANGES.md why the digits moved.

The bytes hold for one BLAS kernel: numpy's OpenBLAS picks its compute
kernel for the CPU at run time, and another kernel orders its sums
differently, so residuals near roundoff move.  A mismatch names the kernel
of the run and the one the goldens were made on.
"""

import ctypes
import inspect
import pathlib

import numpy as np
import pytest

from chernpatch import cli, exterior as ext, invariants as inv, siegel, suites

GOLDEN = pathlib.Path(__file__).parent / "golden"
# the OpenBLAS core the goldens were made on (Haswell gives the same bytes)
GOLDEN_CORE = "SkylakeX"

SIZES = {
    "partition": {"samples": 200},
    "vanishing": {"samples": 256},
    "patch": {"samples": 10},
    "nilpotent": {"samples": 20},
    "springer": {"samples": 8},
    "classify": {"samples": 10},
    "bridge": {"samples": 6},
    "pifiber": {"samples": 10},
    "descent": {"samples": 6},
    "extension": {"samples": 10},
    "patched": {"samples": 10},
    "quadrature": {"samples": 120},
    "schubert": {},
}

# the sizes at which the benchmark's passes run each suite, at seed 7: the
# points of pifiber, patched and descent fill several stacks of
# suites._STACK, and the exact suites run their draws as one stack
PASS_SIZES = {"pifiber": 67, "patched": 40, "descent": 40,
              "nilpotent": 100, "springer": 10, "partition": 2000,
              "vanishing": 2000}

CURVATURE = [(group, rep) for group in ("sp2", "sp4", "sp6")
             for rep in ("std", "sym2", "det^2")]

CORRUPT = sorted(name for name in suites.SUITES if "corrupt" in
                 inspect.signature(suites.SUITES[name]).parameters)

SIEGEL_REPS = ("sym2", "det^2")


def _blas_core():
    """The OpenBLAS core of this process, read from numpy's bundled library,
    or "unknown" where that library or its symbol is missing."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _kernels():
    return (f"OpenBLAS core of this run: {_blas_core()}; "
            f"goldens made on: {GOLDEN_CORE}")


def _suite_text(name, **kwargs):
    return suites.render_report(suites.run_suite(name, seed=0, **SIZES[name],
                                                 **kwargs))


def _pass_size_text(name):
    return suites.render_report(suites.run_suite(
        name, seed=7, samples=PASS_SIZES[name]))


def _pass_size_golden(name):
    return GOLDEN / f"verify_{name}_seed7_{PASS_SIZES[name]}.json"


def _curvature_text(tmp_path, group, rep):
    out = tmp_path / "curvature.json"
    assert cli.main(["--out", str(out), "curvature", "--group", group,
                     "--rep", rep]) == 0
    return out.read_text(encoding="utf-8").rstrip("\n")


def _descent_text():
    """pifiber_check reports of the raw patched curvature, c_1 and c_2 on
    the Siegel space, at the points and vectors drawn as in demo 04."""
    m = siegel.SiegelModel("std")
    rng = np.random.default_rng(0)
    pts = suites._mixed_tube_points(m, rng, 3)
    curv = ext.curvature_form(m.form_from_evaluator(m.omega_patched))
    sig = inv.chern_forms(curv, 2)
    proj = m.projection_map()
    forms = {"raw": curv, "c1": sig[1], "c2": sig[2]}
    return suites.render_report(
        {name: ext.pifiber_check(form, proj, pts, tol=1e-5, rng=rng)
         for name, form in forms.items()})


def _entries(a):
    """An End(V)-valued stack as nested lists, each entry [re, im]."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _siegel_text(rep):
    """The patched connection (recursive, chain and localized forms) and its
    curvature, and the curvature of the connection induced from the Nomizu
    connection on Y, on the representation rep at three mixed-tube points."""
    m = siegel.SiegelModel(rep)
    xs = suites._mixed_tube_points(m, np.random.default_rng(0), 3)
    p = m.points(xs)
    v = siegel.TangentVector(p.mc)
    values = {"omega_patched": m.system.patched(p.control, v),
              "omega_patched_chain": m.system.chain_form(p.control, v),
              "omega_patched_localized": m.system.localized(p.control, v)[0],
              "curvature_patched": m.curvature_patched(p),
              "curvature_induced_nomizu": m.curvature_induced_nomizu(p)}
    return suites.render_report(
        {"rep": rep, "points": xs,
         **{name: _entries(a) for name, a in values.items()}})


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_report_matches_golden(name):
    golden = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert _suite_text(name) == golden.rstrip("\n"), _kernels()


@pytest.mark.parametrize("name", sorted(PASS_SIZES))
def test_suite_report_at_pass_size_matches_golden(name):
    golden = _pass_size_golden(name).read_text(encoding="utf-8")
    assert _pass_size_text(name) == golden.rstrip("\n"), _kernels()


@pytest.mark.parametrize("name", CORRUPT)
def test_negative_control_report_matches_golden(name):
    golden = (GOLDEN / f"verify_{name}_corrupt.json").read_text(
        encoding="utf-8")
    assert _suite_text(name, corrupt=True) == golden.rstrip("\n"), _kernels()


@pytest.mark.parametrize("group,rep", CURVATURE)
def test_curvature_report_matches_golden(tmp_path, group, rep):
    golden = (GOLDEN / f"curvature_{group}_{rep}.json").read_text(
        encoding="utf-8")
    assert (_curvature_text(tmp_path, group, rep)
            == golden.rstrip("\n")), _kernels()


def test_descent_contractions_match_golden():
    golden = (GOLDEN / "descent_siegel_std.json").read_text(encoding="utf-8")
    assert _descent_text() == golden.rstrip("\n"), _kernels()


@pytest.mark.parametrize("rep", SIEGEL_REPS)
def test_siegel_evaluators_match_golden(rep):
    golden = (GOLDEN / f"siegel_{rep}.json").read_text(encoding="utf-8")
    assert _siegel_text(rep) == golden.rstrip("\n"), _kernels()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(suites.SUITES):
        (GOLDEN / f"verify_{name}.json").write_text(
            _suite_text(name) + "\n", encoding="utf-8")
    for name in PASS_SIZES:
        _pass_size_golden(name).write_text(_pass_size_text(name) + "\n",
                                           encoding="utf-8")
    for name in CORRUPT:
        (GOLDEN / f"verify_{name}_corrupt.json").write_text(
            _suite_text(name, corrupt=True) + "\n", encoding="utf-8")
    for rep in SIEGEL_REPS:
        (GOLDEN / f"siegel_{rep}.json").write_text(
            _siegel_text(rep) + "\n", encoding="utf-8")
    (GOLDEN / "descent_siegel_std.json").write_text(
        _descent_text() + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for group, rep in CURVATURE:
            (GOLDEN / f"curvature_{group}_{rep}.json").write_text(
                _curvature_text(pathlib.Path(tmp), group, rep) + "\n",
                encoding="utf-8")
