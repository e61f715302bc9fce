"""The benchmark's three workloads, built from chernpatch's public API.

A pass builds fresh objects (so no cache of one pass serves the next), then
runs the workload's steps in order.  Each step returns verdicts: one per
suite report or descent check, with the verdict it must reach (negative
controls must fail) and the residuals that count towards the accuracy
headroom.

Sample counts are scaled down from the acceptance sizes so that a pass takes
1.5-4.5 s and a run holds several passes.  The share of each step in a pass
at these sizes and at the acceptance sizes is measured in NOTES.md; the
mixed-tube descent check keeps 2 of its 3 points, so it weighs about twice
as much as at acceptance size.  pass_s is the measured length of one pass
on a 2-core x86 box; a run makes seconds / pass_s passes, so that its work
is fixed by its arguments.
"""

from collections import namedtuple

import numpy as np

from chernpatch import exterior as ext
from chernpatch import invariants as inv
from chernpatch import siegel, suites

# name: step or check label; expect: the verdict it must reach; passed: the
# verdict it reached; residuals: (max_residual, tol) pairs of its checks.
Verdict = namedtuple("Verdict", "name expect passed residuals")

CHERN_TOL = 1e-5   # tolerance of the mixed-tube descent tests


def _suite(name, expect=True, **kwargs):
    rpt = suites.run_suite(name, **kwargs)
    return Verdict(name, expect, rpt["pass"],
                   [(c["max_residual"], c["tol"]) for c in rpt["checks"]])


def pass_seeds(seed, index):
    """Three suite seeds for pass `index` of a run with workload seed `seed`."""
    state = np.random.SeedSequence([seed, index]).generate_state(3)
    return [int(s) for s in state]


# descent ---------------------------------------------------------------


def mixed_tube_points(model, rng, n):
    """Points of the plane-stratum tube with the point-stratum radius in its
    transition band, so both patching weights are active."""
    eps_x = model.model.eps("X")
    pts = []
    for _ in range(n):
        rz = float(rng.uniform(0.55, 0.7)) * eps_x
        ry = float(rng.uniform(0.1, 0.45)) * eps_x
        y11, y22 = 1.0 / rz, 1.0 / ry
        y12 = float(rng.uniform(-0.02, 0.02)) * np.sqrt(y11 * y22)
        pts.append([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    float(rng.uniform(-1, 1)), y11, y12, y22])
    return pts


def build_descent(seeds, sizes, wrap_evaluator):
    """A fresh Siegel model, its patched curvature, c1 and c2, and the
    mixed-tube points they are checked at."""
    model = siegel.SiegelModel("std")
    form = model.form_from_evaluator(wrap_evaluator(model.omega_patched))
    curv = ext.curvature_form(form)
    rng = np.random.default_rng(seeds[0])
    return {"curv": curv, "chern": inv.chern_forms(curv, 2),
            "proj": model.projection_map(), "rng": rng,
            "points": mixed_tube_points(model, rng, sizes["chern_points"])}


def _descent_check(name, form, objs, expect):
    rpt = ext.pifiber_check(form, objs["proj"], objs["points"],
                            tol=CHERN_TOL, rng=objs["rng"])
    return Verdict(name, expect, rpt["ok"],
                   [(rpt["max_vertical_contraction"], CHERN_TOL)])


def descent_pifiber(objs, seeds, sizes):
    return [_suite("pifiber", seed=seeds[0], tol=1e-6,
                   samples=sizes["pifiber"])]


def descent_patched(objs, seeds, sizes):
    return [_suite("patched", seed=s, tol=1e-10, samples=sizes["patched"])
            for s in seeds[1:]]


def descent_chern(objs, seeds, sizes):
    return [_descent_check(f"chern-c{k}", objs["chern"][k], objs, True)
            for k in (1, 2)]


def descent_raw(objs, seeds, sizes):
    """Negative control: the raw patched curvature is not a pullback."""
    return [_descent_check("raw-curvature", objs["curv"], objs, False)]


# exact -----------------------------------------------------------------


def exact_nilpotent(objs, seeds, sizes):
    return [_suite("nilpotent", seed=seeds[0], tol=1e-9,
                   samples=sizes["nilpotent"])]


def exact_springer(objs, seeds, sizes):
    return [_suite("springer", seed=seeds[1], tol=1e-9,
                   samples=sizes["springer"])]


def exact_springer_corrupt(objs, seeds, sizes):
    """Negative control: a non-commuting pair must break the invariance."""
    return [_suite("springer", expect=False, seed=seeds[1], tol=1e-9,
                   samples=sizes["springer"], corrupt=True)]


def exact_schubert(objs, seeds, sizes):
    return [_suite("schubert")]


def exact_partition(objs, seeds, sizes):
    return [_suite("partition", seed=seeds[2], tol=1e-12,
                   samples=sizes["partition"])]


def exact_vanishing(objs, seeds, sizes):
    return [_suite("vanishing", seed=seeds[2], samples=sizes["vanishing"])]


# charts ----------------------------------------------------------------


def charts_bridge(objs, seeds, sizes):
    return [_suite("bridge", seed=seeds[0], tol=1e-6,
                   samples=sizes["bridge"])]


def charts_quadrature(objs, seeds, sizes):
    return [_suite("quadrature", tol=1e-3, samples=sizes["quadrature"])]


def charts_patch(objs, seeds, sizes):
    return [_suite("patch", seed=seeds[1], tol=1e-6, samples=sizes["patch"],
                   nvars=4)]


def charts_classify(objs, seeds, sizes):
    return [_suite("classify", seed=seeds[2], samples=sizes["classify"])]


def charts_extension(objs, seeds, sizes):
    return [_suite("extension", seed=seeds[2], tol=1e-8,
                   samples=sizes["extension"])]


def _no_objects(seeds, sizes, wrap_evaluator):
    return {}


Workload = namedtuple("Workload", "build steps sizes tiny pass_s")

WORKLOADS = {
    "descent": Workload(
        build_descent,
        {"pifiber": descent_pifiber, "patched": descent_patched,
         "raw": descent_raw, "chern": descent_chern},
        # acceptance sizes: pifiber 200, patched 40 at two seeds, 3 points.
        # One point is too few: the raw curvature's contraction falls to
        # 5e-5 at some points, near the 1e-5 tolerance it must exceed.
        {"pifiber": 67, "patched": 13, "chern_points": 2},
        {"pifiber": 2, "patched": 2, "chern_points": 1}, 4.5),
    "exact": Workload(
        _no_objects,
        {"nilpotent": exact_nilpotent, "springer": exact_springer,
         "springer_corrupt": exact_springer_corrupt,
         "schubert": exact_schubert, "partition": exact_partition,
         "vanishing": exact_vanishing},
        # acceptance sizes: 500, 50, 10000, 10000
        {"nilpotent": 100, "springer": 10, "partition": 2000,
         "vanishing": 2000},
        {"nilpotent": 3, "springer": 2, "partition": 50, "vanishing": 50},
        1.6),
    "charts": Workload(
        _no_objects,
        {"bridge": charts_bridge, "quadrature": charts_quadrature,
         "patch": charts_patch, "classify": charts_classify,
         "extension": charts_extension},
        # acceptance sizes: 20, 160 (a 160x160 grid), 100, 100, 50
        # (72x72 is a fifth of 160x160, like the other counts)
        {"bridge": 4, "quadrature": 72, "patch": 20, "classify": 20,
         "extension": 10},
        {"bridge": 1, "quadrature": 16, "patch": 2, "classify": 2,
         "extension": 2}, 3.4),
}
