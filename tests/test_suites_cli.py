import ast
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chernpatch import (charts, cli, connections, exterior as ext, hcrepr,
                        invariants as inv, liecore, schubert, siegel, strata,
                        suites)
from chernpatch.errors import PreconditionFailed


SMALL = {
    "partition": {"samples": 200},
    "vanishing": {"samples": 256},
    "patch": {"samples": 5},
    "nilpotent": {"samples": 20},
    "springer": {"samples": 8},
    "classify": {"samples": 10},
    "bridge": {"samples": 4},
    "pifiber": {"samples": 3},
    "descent": {"samples": 4},
    "extension": {"samples": 10},
    "patched": {"samples": 6},
    "quadrature": {"samples": 120},
    "schubert": {},
}


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_passes_at_small_size(name):
    rpt = suites.run_suite(name, seed=1, **SMALL[name])
    assert rpt["pass"], rpt
    assert rpt["schema"] == suites.SCHEMA
    assert all("max_residual" in c for c in rpt["checks"])


def test_descent_raw_control_fails_where_one_chain_is_active(monkeypatch):
    # r_Z = 5 eps_X, r_Y = 0.3 eps_X: only the chain (Y, X) has weight, so
    # the patched curvature is the induced one and contracts to rounding
    def one_chain_points(model, rng, samples):
        eps_x = model.model.eps("X")
        return [[0.1 * k, -0.2, 0.3, 1.0 / (5 * eps_x), 0.01,
                 1.0 / (0.3 * eps_x)] for k in range(samples)]

    monkeypatch.setattr(suites, "_mixed_tube_points", one_chain_points)
    rpt = suites.run_suite("descent", seed=0, samples=3)
    verdicts = {c["name"]: c["pass"] for c in rpt["checks"]}
    assert verdicts == {"chern-c1-vertical": True, "chern-c2-vertical": True,
                        "raw-curvature-not-vertical": False,
                        "structure-equation-vs-differences": True}
    assert not rpt["pass"]


def test_descent_evaluates_the_curvature_once_per_point(monkeypatch):
    calls = []
    curvature = siegel.SiegelModel.curvature_patched

    def counted(self, p):
        calls.append(len(p.control))
        return curvature(self, p)

    monkeypatch.setattr(siegel.SiegelModel, "curvature_patched", counted)
    assert suites.run_suite("descent", seed=2, samples=5)["pass"]
    # one call on the stack of the five points
    assert calls == [5]


def test_descent_runs_its_difference_oracle_as_one_stack(monkeypatch):
    # the stacks of at most sixteen points, and per form of the oracle one
    # call on the 2 * 6 displaced rows of each of the three oracle points
    # and the point itself; the oracle reuses the first stack
    calls = []
    points = siegel.SiegelModel.points

    def counted(self, xs):
        calls.append(len(xs))
        return points(self, xs)

    monkeypatch.setattr(siegel.SiegelModel, "points", counted)
    rpt = suites.run_suite("descent", seed=1, samples=20)
    assert rpt["pass"] and rpt["oracle_points"] == [0, 1, 2]
    assert sorted(calls) == [4, 16, 39, 39]


def test_pifiber_builds_its_points_in_stacks(monkeypatch):
    # one call of the section per stack of chart points, not one per point,
    # and neither a Klingen factor nor a canonical extension at all
    calls = dict.fromkeys(["section_mc", "factor", "extension"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(siegel, "section_mc",
                        counted("section_mc", siegel.section_mc))
    monkeypatch.setattr(liecore, "group_factor_fine",
                        counted("factor", liecore.group_factor_fine))
    monkeypatch.setattr(hcrepr.CanonicalExtension, "__call__",
                        counted("extension", hcrepr.CanonicalExtension.__call__))
    assert suites.run_suite("pifiber", seed=0, samples=67)["pass"]
    stacks = -(-67 // suites._STACK)
    assert stacks <= 9
    assert calls == {"section_mc": stacks, "factor": 0, "extension": 0}


def test_patched_builds_each_partition_table_once_per_stack(monkeypatch):
    # the recursion, the chain form and the localized form of a stack read
    # the tables its points carry: one per stratum, for every stack
    calls = []
    weights = strata.FlagTubeModel.partition_weights

    def counted(self, chain, r):
        calls.append((chain[-1], len(r)))
        return weights(self, chain, r)

    monkeypatch.setattr(strata.FlagTubeModel, "partition_weights", counted)
    assert suites.run_suite("patched", seed=0, samples=40)["pass"]
    assert sorted(calls) == sorted((Z, n) for n in (16, 16, 8) for Z in "ZYX")


@pytest.mark.parametrize("name,samples", [
    ("pifiber", 67), ("pifiber", 1), ("descent", 40), ("descent", 1)])
def test_fiber_suites_take_their_vertical_vectors_once(monkeypatch, name,
                                                       samples):
    # one fixed linear projection: one Jacobian and one SVD for all the
    # draws, which each stack then reads its rows of
    calls = []
    vertical_vectors = ext.vertical_vectors

    def counted(proj, xs):
        calls.append(len(xs))
        return vertical_vectors(proj, xs)

    monkeypatch.setattr(ext, "vertical_vectors", counted)
    assert suites.run_suite(name, seed=0, samples=samples)["pass"]
    assert calls == [samples]


def test_fiber_suites_at_no_sample():
    # no draw, no vertical vector: each check reads 0.0, so pifiber passes
    # and descent's negative control, which needs a contraction, fails
    for name in ("pifiber", "descent"):
        rpt = suites.run_suite(name, seed=3, samples=0)
        assert {c["max_residual"] for c in rpt["checks"]} == {0.0}
        assert rpt["pass"] == (name == "pifiber")
        assert rpt.get("oracle_points", []) == []


def test_klingen_levi_check_fails_on_the_whole_element(monkeypatch):
    # handed the whole Klingen element in place of its linear Levi factor
    # g_l, the check of [extK(g_l), extK.alg(Lie(G_h))] = 0 must fail
    monkeypatch.setattr(liecore, "group_factor_fine", lambda pd, g: g)
    rpt = suites.run_suite("extension", seed=0, samples=10)
    check = {c["name"]: c for c in rpt["checks"]}["klingen-levi-commutes"]
    assert not rpt["pass"] and not check["pass"]
    assert check["max_residual"] > 1e-3


def test_flipped_structure_equation_fails_three_suites(monkeypatch):
    # one implementation of the structure equation, watched by three
    # oracles: with the sign of F([t_i, t_j]) flipped, bridge's chart
    # curvature, classify's flat example and descent's difference oracle
    # each see it
    def flipped(F, t):
        om = F(t)
        curv = ext.bracket_pairs(om)
        curv += F(ext.bracket_pairs(t))
        return om, curv

    monkeypatch.setattr(connections, "structure_curvature", flipped)
    failed = {name: [c["name"] for c in suites.run_suite(
        name, seed=0, **SMALL[name])["checks"] if not c["pass"]]
        for name in ("bridge", "classify", "descent")}
    assert failed == {"bridge": ["sp2-nomizu", "sp4-nomizu"],
                      "classify": ["model-connections-accepted"],
                      "descent": ["structure-equation-vs-differences"]}


def _nan_at_call(func, call=2):
    """func, with row 0 of its result NaN at its call-th call: by default
    one row of the second stack a suite hands it."""
    calls = []

    def wrapped(*args, **kwargs):
        out = func(*args, **kwargs)
        calls.append(None)
        if len(calls) == call:
            out = np.array(out)
            out[0] = np.nan
        return out
    return wrapped


def _nan_form(method):
    """A form builder whose form is NaN at one row of its second stack."""
    def wrapped(self, conn):
        form = method(self, conn)
        return ext.VForm(form.m, form.degree, _nan_at_call(form.func))
    return wrapped


# suite: (--samples, owner and name of the evaluator, its wrapper, check)
_NAN_CASES = {
    "descent": ([], siegel.SiegelModel, "curvature_patched",
                _nan_at_call, "chern-c1-vertical"),
    "pifiber": (["--samples", "20"], siegel.SiegelModel,
                "curvature_induced_nomizu", _nan_at_call,
                "induced-curvature-vertical"),
    "patched": ([], strata.PatchedSystem, "chain_form", _nan_at_call,
                "recursion-equals-chain"),
    "partition": ([], strata.FlagTubeModel, "partition_weights",
                  _nan_at_call, "weights-sum-to-one"),
    "bridge": ([], charts.GroupChart, "algebraic_curvature_form", _nan_form,
               "sp2-nomizu"),
    "patch": ([], ext, "combination_curvature", _nan_at_call,
              "combination-identity"),
    # one springer_check covers the whole stack: its e_1 row is the NaN
    "springer": ([], inv, "springer_check",
                 functools.partial(_nan_at_call, call=1), "invariance"),
}


@pytest.mark.parametrize("suite", sorted(_NAN_CASES))
def test_a_nan_residual_fails_its_check(suite, monkeypatch, capsys):
    samples, owner, attr, wrap, check = _NAN_CASES[suite]
    # a NaN at one row of a stack (a later one, where a suite hands over
    # several) is the check's max_residual, not dropped by a fold, and fails
    # the check and the run
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    assert cli.main(["verify", suite, *samples]) == 1
    checks = {c["name"]: c for c in
              json.loads(capsys.readouterr().out)["checks"]}
    assert not checks[check]["pass"]
    assert math.isnan(checks[check]["max_residual"])


@pytest.mark.parametrize("module", [suites, charts], ids=["suites", "charts"])
def test_no_fold_by_the_builtin_max(module):
    # residuals are reduced by np.max in suites._check, which keeps a NaN;
    # the builtin max drops one (max(0.0, nan) is 0.0)
    with open(module.__file__) as f:
        tree = ast.parse(f.read())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "max"]
    assert uses == []


def test_corrupt_springer_fails():
    rpt = suites.run_suite("springer", seed=1, samples=8, corrupt=True)
    assert not rpt["pass"]


def _fraction_commuting_pairs(rng, count, dim=4, exact=True, corrupt=False):
    """The pairs of suites._commuting_pairs, built by Fraction triple
    products and the exact inverse adj(s) / det(s) from scalar rng draws in
    its order (every eigenvalue, then every shift, then the rows of s round
    by round), and the rows redrawn in each round after the first."""
    vals = [sorted(int(rng.integers(-3, 4)) for _ in range(dim))
            for _ in range(count)]
    xs, ns = [], []
    for v in vals:
        x = [[Fraction(0)] * dim for _ in range(dim)]
        n = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            x[i][i] = Fraction(v[i])
            for j in range(i + 1, dim):
                if v[i] == v[j]:
                    n[i][j] = Fraction(int(rng.integers(-2, 3)))
        if corrupt:
            n = [[Fraction(0)] * dim for _ in range(dim)]
            n[0][0], n[0][-1], n[-1][0], n[-1][-1] = 1, 1, -1, -1
        xs.append(x)
        ns.append(n)
    flags, redraw, redrawn = [None] * count, list(range(count)), []
    while redraw:
        for t in redraw:
            s = np.array([[Fraction(int(rng.integers(-2, 3)) if i != j else 1)
                           for j in range(dim)] for i in range(dim)],
                         dtype=object)
            flags[t] = (s, *inv.adjugate(s))
        redraw = [t for t in redraw if flags[t][2] == 0]
        if redraw:
            redrawn.append(redraw)

    def conj(a, s, adj, det):
        a = s @ np.array(a, dtype=object) @ adj / det
        return a if exact else a.astype(float)

    return ([conj(x, *f) for x, f in zip(xs, flags)],
            [conj(n, *f) for n, f in zip(ns, flags)], redrawn)


@pytest.mark.parametrize("exact", [True, False])
def test_commuting_pair_matches_fraction_construction(exact):
    # seed 11 redraws a singular s for pairs 35 and 39 of its 50, in one
    # round after the first (plain and corrupt alike: corrupt changes no
    # draw)
    for corrupt in (False, True):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        M, N, det = suites._commuting_pairs(rng_a, 50, 4, corrupt)
        assert M.dtype == N.dtype == det.dtype == np.int64 and det.min() > 0
        if exact:
            xs, ns = ([np.array([[Fraction(v, int(d)) for v in row]
                                 for row in a.tolist()], dtype=object)
                       for a, d in zip(stack, det)] for stack in (M, N))
        else:
            xs, ns = M / det[:, None, None], N / det[:, None, None]
        xs0, ns0, redrawn = _fraction_commuting_pairs(rng_b, 50, 4, exact,
                                                      corrupt)
        for x, n, x0, n0 in zip(xs, ns, xs0, ns0, strict=True):
            assert x.dtype == x0.dtype and n.dtype == n0.dtype
            assert x.tolist() == x0.tolist() and n.tolist() == n0.tolist()
            if not exact:
                assert x.tobytes() == x0.tobytes() and n.tobytes() == n0.tobytes()
        assert redrawn == [[35, 39]]
        # the stream is left where the scalar draws leave it
        assert rng_a.integers(2 ** 62) == rng_b.integers(2 ** 62)


def test_commuting_pairs_confirm_nonsingular_flags(monkeypatch):
    # a float determinant that keeps every s lets seed 11 keep a singular
    # one at 6 pairs, the least count whose first round draws one, which
    # the exact Berkowitz determinant refuses
    monkeypatch.setattr(np.linalg, "det", lambda a: np.ones(a.shape[:-2]))
    with pytest.raises(PreconditionFailed, match="singular"):
        suites._commuting_pairs(np.random.default_rng(11), 6)
    assert suites._commuting_pairs(np.random.default_rng(11), 5)[2].all()


class _CountingRng:
    """A generator that records the size of each integers call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, low, high, size):
        self.sizes.append(tuple(np.atleast_1d(size).tolist()))
        return self.rng.integers(low, high, size)


@pytest.mark.parametrize("count", [1, 10, 100, 1000])
def test_commuting_pairs_draw_once_per_kind(count):
    # the eigenvalues, the shifts and each round of s rows are one call each,
    # so the calls do not grow with the stack: 2 plus the rounds of s, each
    # round redrawing some rows of the last
    rng = _CountingRng(7)
    suites._commuting_pairs(rng, count)
    vals, shifts, *rounds = rng.sizes
    assert vals == (count, 4) and len(shifts) == 1
    assert rounds[0] == (count, 12)
    assert all(b[0] <= a[0] and b[1] == 12 for a, b in zip(rounds, rounds[1:]))
    assert len(rounds) <= 6


def _scalar_model_tube_points(model, rng, samples):
    # r_Z and r_Y are drawn, y11 = 1 / r_Z and y22 = 1 / r_Y
    return [[float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.3, 0.3)),
             float(rng.uniform(-0.3, 0.3)), float(1.0 / rng.uniform(0.02, 0.2)),
             float(rng.uniform(-0.3, 0.3)),
             float(1.0 / rng.uniform(1 / 40, 1 / 17))]
            for _ in range(samples)]


def _scalar_mixed_tube_points(model, rng, samples):
    eps_x, pts = model.model.eps("X"), []
    for _ in range(samples):
        y11 = 1.0 / (float(rng.uniform(0.55, 0.7)) * eps_x)
        y22 = 1.0 / (float(rng.uniform(0.1, 0.45)) * eps_x)
        y12 = float(rng.uniform(-0.02, 0.02)) * np.sqrt(y11 * y22)
        pts.append([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    float(rng.uniform(-1, 1)), y11, y12, y22])
    return pts


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("samples", [1, 7])
def test_tube_points_match_one_draw_at_a_time(seed, samples):
    # one bulk draw a sampler gives the bits of the scalar draws, point by
    # point, and leaves the stream where they left it
    model = siegel.SiegelModel("std")
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for bulk, scalar in (
            (suites._model_tube_points, _scalar_model_tube_points),
            (suites._mixed_tube_points, _scalar_mixed_tube_points)):
        assert (np.array(bulk(model, got, samples)).tobytes()
                == np.array(scalar(model, ref, samples)).tobytes())
    assert got.random() == ref.random()


def test_reports_are_deterministic():
    a = suites.run_suite("patch", seed=7, samples=4)
    b = suites.run_suite("patch", seed=7, samples=4)
    assert suites.render_report(a) == suites.render_report(b)


def _patch_peak(samples):
    tracemalloc.start()
    try:
        suites.run_suite("patch", seed=7, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_patch_bounds_its_memory():
    # a chart-dimension group is evaluated once it holds _PATCH_STACK
    # samples, so ten times the samples cannot double the peak
    suites.run_suite("patch", seed=7, samples=2)  # lazy set-up outside
    assert _patch_peak(1000) <= 2 * _patch_peak(100)


def test_report_is_valid_json():
    rpt = suites.run_suite("schubert")
    assert json.loads(suites.render_report(rpt)) == rpt


def test_cli_dual(capsys):
    code = cli.main(["dual", "--space", "p:1", "--bundle", "tangent",
                     "--monomial", "c1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 2


def test_cli_dual_gr24(capsys):
    code = cli.main(["dual", "--space", "gr:2,4", "--bundle", "tangent",
                     "--monomial", "c1^4"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 512


def test_cli_dual_lagrangian_grassmannian(capsys):
    # LG(3, 6): c_1 = 4 sigma_1 and the degree is 16
    assert cli.main(["dual", "--space", "lg:3", "--monomial", "c1^6"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 65536
    assert cli.main(["dual", "--help"]) == 0
    assert "lg:n" in capsys.readouterr().out


def test_cli_dual_rejects_a_non_integral_number(monkeypatch, capsys):
    # a tangent weight that comes from no torus action: the localization sum
    # is then not an integer, and must raise rather than truncate
    build = schubert._dual

    def skewed(name, sub_dual, quotient, tangent):
        tangent[0] = [tangent[0][0] + 1] + tangent[0][1:]
        return build(name, sub_dual, quotient, tangent)

    monkeypatch.setattr(schubert, "_dual", skewed)
    assert cli.main(["dual", "--space", "p:2", "--monomial", "c1^2"]) == 2
    err = capsys.readouterr().err
    assert "p:2" in err and "tangent" in err and "not an integer" in err


def test_cli_verify_pass(capsys):
    code = cli.main(["verify", "partition", "--samples", "100"])
    assert code == 0
    rpt = json.loads(capsys.readouterr().out)
    assert rpt["pass"]


def test_cli_verify_corrupt_fails(capsys):
    code = cli.main(["verify", "springer", "--samples", "6", "--corrupt"])
    assert code == 1
    assert not json.loads(capsys.readouterr().out)["pass"]


@pytest.mark.parametrize("seed", ["0", "1", "2"])
@pytest.mark.parametrize("suite,samples,names", [
    ("vanishing", "400", ["tube-support-separation-with-collapsed-eps"]),
    ("nilpotent", "20", ["exact-invariance-failures-with-corrupted-pair",
                         "float-invariance-with-corrupted-pair"])])
def test_cli_verify_corrupt_controls_fail(suite, samples, names, seed, capsys):
    # a collapsed eps-family and a non-commuting shift must each be caught,
    # by every check of the suite
    code = cli.main(["verify", suite, "--samples", samples, "--seed", seed,
                     "--corrupt"])
    assert code == 1
    rpt = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rpt["checks"]] == names
    assert all(not c["pass"] and c["max_residual"] > 0 for c in rpt["checks"])


@pytest.mark.parametrize("seed", ["0", "7"])
def test_cli_verify_partition_dropped_weight_fails(seed, capsys):
    # the top stratum's weight dropped from the sum is caught far above
    # rounding, at the same draws where the full sum passes
    assert cli.main(["verify", "partition", "--seed", seed]) == 0
    plain = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in plain] == ["weights-sum-to-one"]
    assert cli.main(["verify", "partition", "--seed", seed, "--corrupt"]) == 1
    rpt = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rpt["checks"]] == [
        "weights-sum-to-one-with-dropped-weight"]
    assert rpt["checks"][0]["max_residual"] > 1e-3


@pytest.mark.parametrize("seed", ["0", "7"])
def test_cli_verify_patch_dropped_dw_fails(seed, capsys):
    # the product rule without its df_i ^ omega_i terms is caught far above
    # the difference error, at the same draws where the full rule passes
    assert cli.main(["verify", "patch", "--seed", seed]) == 0
    plain = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in plain] == ["combination-identity"]
    assert cli.main(["verify", "patch", "--seed", seed, "--corrupt"]) == 1
    rpt = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rpt["checks"]] == [
        "combination-identity-with-dropped-dw"]
    assert rpt["checks"][0]["max_residual"] > 1e-3


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_cli_verify_patched_dropped_chain_fails(seed, capsys):
    # the chain (Z, Y, X) dropped from the chain form is caught far above
    # rounding: along (x11, y12) its term does not vanish
    assert cli.main(["verify", "patched", "--seed", seed,
                     "--samples", "10"]) == 0
    plain = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in plain] == ["recursion-equals-chain",
                                          "localization"]
    assert cli.main(["verify", "patched", "--seed", seed, "--samples", "10",
                     "--corrupt"]) == 1
    rpt = json.loads(capsys.readouterr().out)
    verdicts = {c["name"]: c["pass"] for c in rpt["checks"]}
    assert verdicts == {"recursion-equals-chain-with-dropped-chain": False,
                        "localization": True}
    assert rpt["checks"][0]["max_residual"] > 1e-4


def test_cli_verify_help_lists_partition_under_corrupt(capsys):
    assert cli.main(["verify", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("negative control of the nilpotent, partition, patch, patched, "
            "springer, vanishing suites") in help_text


def test_cli_unknown_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2


def test_cli_bad_monomial_degree(capsys):
    # degree does not match the dimension of the space
    assert cli.main(["dual", "--space", "p:2", "--bundle", "tangent",
                     "--monomial", "c1"]) == 2


def test_cli_curvature(capsys):
    # on Sp(2, R) = SU(1, 1) both are the line bundle of weight 2, whose
    # curvature on (p_0, p_1) is 2i
    for rep in ("det^2", "sym2"):
        code = cli.main(["curvature", "--group", "sp2", "--rep", rep])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert [c["pair"] for c in out["curvature"]] == [[0, 1]]
        val = out["curvature"][0]["value"]
        assert abs(val[0][0][0]) <= 1e-15 and abs(val[0][0][1] - 2.0) <= 1e-15


@pytest.mark.parametrize("group,message", [
    ("sp4", "unknown representation wedge2 for sp2nR"),
    ("su2", "unknown group 'su2'"),
    ("su11", "unknown group 'su11'"),
], ids=["sp4", "su2", "su11"])
def test_cli_curvature_library_error_exits_2(group, message, capsys):
    # sp4 has no wedge2 representation; su2 is no group of the package, and
    # su11 left it for its isomorphic copy Sp(2, R), the group sp2
    assert cli.main(["curvature", "--group", group, "--rep", "wedge2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("group,n", [("sp2", 1), ("sp4", 2), ("sp6", 3)])
def test_cli_curvature_takes_every_name_of_the_grammar(group, n, capsys):
    # sym^a det^b, a <= 6, and its short names; the table has the rank of
    # the bundle, C(n + a - 1, a)
    names = {"std": 1, "sym2": 2, "det^-2": 0, "det^0": 0, "det^3": 0,
             "sym^0": 0, "sym^1": 1, "sym^3": 3, "sym^3 det^1": 3,
             "sym^4 det^-2": 4, "sym^6 det^0": 6, "sym^2 det^-1": 2}
    for name, a in names.items():
        assert cli.main(["curvature", "--group", group, "--rep", name]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rep"] == name
        assert {len(c["value"]) for c in out["curvature"]} == {
            math.comb(n + a - 1, a)}


@pytest.mark.parametrize("name", [
    "det^x", "det^1.5", "det^\u0663", "det^+2", "sym3", "sym^-1", "Det^2",
    "sym^2det^1", "sym^2  det^1", "det^1 sym^2", "", " std", "sym^2 ",
    "sym^7", "sym^10 det^1"])
def test_cli_curvature_refuses_every_other_name(name, capsys):
    # one message for any name outside the grammar: no int() error leaks,
    # and no non-ASCII digit reads as a number
    assert cli.main(["curvature", "--group", "sp4", "--rep", name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown representation {name} for sp2nR\n"


def test_cli_chern_subcommand_is_removed(capsys):
    # the geometric checks run through `verify pifiber|patched|quadrature`
    assert cli.main(["chern", "--check", "quadrature"]) == 2


def test_cli_verify_model_unread_is_an_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "strata": [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1}],
        "flags": [["Z", "Y"]]}))
    assert cli.main(["verify", "schubert", "--model", str(path)]) == 2
    assert "--model" in capsys.readouterr().err


def test_cli_verify_corrupt_unread_is_an_error(capsys):
    assert cli.main(["verify", "bridge", "--samples", "10",
                     "--corrupt"]) == 2
    assert "--corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("suite,samples", [
    ("patch", "0"), ("pifiber", "0"), ("bridge", "0"), ("partition", "-5")])
def test_cli_verify_rejects_samples_below_one(suite, samples, capsys):
    # sampling nothing would report max_residual 0.0 and pass
    assert cli.main(["verify", suite, "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--samples" in err


@pytest.mark.parametrize("samples", ["1", "2"])
def test_cli_verify_quadrature_needs_three_grid_points(samples, capsys):
    # composite Simpson weights divide by n - 1 and need 3 points
    assert cli.main(["verify", "quadrature", "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at least 3 points" in err


def test_cli_verify_samples_unread_is_an_error(capsys):
    assert cli.main(["verify", "schubert", "--samples", "5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_cli_verify_samples_goes_to_the_suites_that_read_it(capsys):
    assert cli.main(["verify", "schubert", "partition", "--samples", "5"]) == 0
    rpt = json.loads(capsys.readouterr().out)
    assert [r["samples"] for r in rpt["suites"]] == [0, 5]


@pytest.mark.parametrize("suite,tol", [("classify", "5"), ("schubert", "1")])
def test_cli_verify_tol_unread_is_an_error(suite, tol, capsys):
    # both suites check exact counts at tolerance 0
    assert cli.main(["verify", suite, "--tol", tol]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("suite,tol", [
    ("descent", "nan"), ("patch", "inf"), ("patch", "-1"),
    ("partition", "-1e-300"), ("descent", "NaN"), ("patch", "1e400")])
def test_cli_verify_rejects_a_tol_not_finite_or_below_zero(suite, tol,
                                                         capsys):
    # NaN and inf would reach the report as NaN and Infinity, no JSON
    # numbers; inf passes every check and a negative tol fails every one
    assert cli.main(["verify", suite, f"--tol={tol}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--tol must be finite and at least 0" in err


@pytest.mark.parametrize("tol", ["-1e-300", "-inf", "-1", "-nan"])
def test_cli_verify_refuses_a_negative_tol_given_as_its_own_word(tol,
                                                                 capsys):
    # argparse reads -1e-300 and -inf as options, not as the value of --tol;
    # the --tol check refuses each as it refuses --tol=-1e-300
    for argv in (["--tol", tol], ["--tol", "1e-9", "--tol", tol]):
        assert cli.main(["verify", "extension", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: --tol must be finite and at least 0, got {float(tol)}\n")


def test_cli_verify_tol_zero_is_valid(capsys):
    assert cli.main(["verify", "partition", "--samples", "5",
                     "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 0.0


def test_cli_verify_tol_goes_to_the_suites_that_read_it(capsys):
    assert cli.main(["verify", "classify", "partition", "--samples", "5",
                     "--tol", "1e-12"]) == 0
    rpt = json.loads(capsys.readouterr().out)
    assert [r["tol"] for r in rpt["suites"]] == [1e-9, 1e-12]


_Z, _Y, _X = ({"name": n, "dimC": d} for n, d in zip("ZYX", (0, 1, 3)))
_ONE_STRATUM = {"strata": [_Z], "flags": [["Z"]]}
_NO_FLAGS = {"strata": [_Z], "flags": []}
_TWO_STRATA = {"strata": [_Z, _Y], "flags": [["Z", "Y"]]}


@pytest.mark.parametrize("args,model,message", [
    (["vanishing", "--samples", "1"], None, "2 grid points per axis"),
    (["vanishing"], _ONE_STRATUM, "at least 3 strata"),
    (["vanishing"], _NO_FLAGS, "at least one flag"),
    (["partition"], _NO_FLAGS, "at least one flag"),
    (["partition"], {"flags": [["Z", "Y"]]}, "unknown strata"),
    (["partition"], {"strata": [_Z], "flags": [["Z", "Y"]]},
     "unknown strata in flags: ['Y']"),
    (["vanishing"], {"strata": [_Z, _X], "flags": [["Z", "Y", "X"]]},
     "unknown strata in flags: ['Y']"),
    (["partition"], dict(_TWO_STRATA, eps0=0), "eps0"),
    (["partition"], dict(_TWO_STRATA, eps0=-1), "eps0"),
    (["vanishing"], dict(_TWO_STRATA, eps0=float("inf")), "eps0"),
    (["vanishing"], _TWO_STRATA, "at least 3 strata"),
    (["partition"], {"strata": [{"name": "Z"}], "flags": [["Z"]]}, "dimC"),
    (["vanishing"], {"strata": [_Z, dict(_Y, dimC=1.7), _X],
                     "flags": [["Z", "Y", "X"]]},
     "dimC must be a nonnegative integer, got [1.7]"),
    (["vanishing"], {"strata": [_Z, _Y, _X], "flags": ["ZYX"]},
     "each flag must be a list of stratum names"),
    (["vanishing"], {"strata": [_Z, _Y, _X, dict(_Y, dimC=7)],
                     "flags": [["Z", "Y", "X"]]}, "stratum names repeat"),
    (["partition"], [1], "a model must be a JSON object"),
    (["vanishing"], {"strata": [_Z, _Y, _X], "flags": [["Z", ["Y"], "X"]]},
     "each flag must be a list of stratum names"),
    (["partition"], {"strata": [dict(_Z, name=["Z"])], "flags": [["Z"]]},
     "strata need a name and dimC"),
    (["partition"], {"strata": 5, "flags": [["Z"]]},
     "strata need a name and dimC"),
    (["partition"], {"strata": [_Z], "flags": 5},
     "each flag must be a list of stratum names"),
    (["partition"], dict(_TWO_STRATA, eps0=[1]), "eps0 must be a number"),
    (["partition"], dict(_TWO_STRATA, eps0="1"), "eps0 must be a number"),
    (["partition"], {"strata": [_Z, dict(_Y, dimC=2000)],
                     "flags": [["Z", "Y"]]}, "not a normal float for dimC [2000]"),
    (["vanishing"], {"strata": [_Z, dict(_Y, dimC=1100), _X],
                     "flags": [["Z", "Y", "X"]]}, "not a normal float for dimC [1100]"),
    (["partition"], {"strata": [_Z, dict(_Y, dimC=1023)],
                     "flags": [["Z", "Y"]]}, "for dimC [1023]"),
    (["partition"], dict(_TWO_STRATA, epsilon0=0.25),
     "unknown keys in model: ['epsilon0']"),
    (["vanishing"], {"strata": [_Z, dict(_Y, dim=1), _X],
                     "flags": [["Z", "Y", "X"]]},
     "unknown keys in stratum Y: ['dim']"),
], ids=["samples-1", "one-stratum-flag", "vanishing-no-flags",
        "partition-no-flags", "no-strata", "partition-undeclared",
        "vanishing-undeclared", "eps0-zero", "eps0-negative", "eps0-infinite",
        "vanishing-two-strata", "stratum-without-dimC", "dimC-not-integral",
        "flag-a-string", "stratum-named-twice", "model-a-list",
        "flag-entry-a-list", "stratum-name-a-list", "strata-a-number",
        "flags-a-number", "eps0-a-list", "eps0-a-string", "dimC-2000",
        "dimC-1100", "eps-subnormal", "model-unknown-key",
        "stratum-unknown-key"])
def test_cli_verify_rejects_models_and_sizes_the_suites_cannot_check(
        args, model, message, tmp_path, capsys):
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        args = args + ["--model", str(path)]
    assert cli.main(["verify"] + args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_cli_star_import():
    namespace = {}
    exec("from chernpatch.cli import *", namespace)
    assert callable(namespace["main"])


@pytest.mark.parametrize("as_file", [False, True], ids=["inline", "file"])
def test_cli_group_is_a_name_not_json(as_file, tmp_path, capsys):
    # sp2, sp4 and sp6 are the only groups; the JSON object that named them
    # too is refused, inline or as a file
    group = '{"family": "sp2nR", "n": 2}'
    if as_file:
        path = tmp_path / "g.json"
        path.write_text(group)
        group = str(path)
    assert cli.main(["curvature", "--group", group, "--rep", "std"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown group {group!r}\n"


def test_model_from_dict_rejects_unknown_profile(tmp_path, capsys):
    # the bump profile is built in: a "profile" key is unread, so even
    # "exp", the name of the built-in one, is an unknown key
    path = tmp_path / "model.json"
    for profile in ("exp", "gauss"):
        path.write_text(json.dumps({
            "strata": [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1}],
            "flags": [["Z", "Y"]], "profile": profile}))
        assert cli.main(["verify", "partition", "--model", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown keys in model: ['profile']\n"


def test_cli_module_runs_without_warnings():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-m", "chernpatch.cli", "verify",
                          "schubert"], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ""


def test_package_runs_as_a_module():
    # python -m chernpatch is the command line of chernpatch.cli
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    args = ["verify", "schubert", "--seed", "0"]
    pkg, mod = (subprocess.run([sys.executable, "-m", name] + args,
                               capture_output=True, text=True, env=env)
                for name in ("chernpatch", "chernpatch.cli"))
    assert pkg.returncode == mod.returncode == 0, pkg.stderr
    assert pkg.stdout == mod.stdout
    assert json.loads(pkg.stdout)["suite"] == "schubert"


def test_suites_run_without_dual_numbers():
    # every chart map is differentiated by central differences
    code = ("import sys\n"
            "import chernpatch\n"
            "from chernpatch import suites\n"
            "assert suites.run_suite('patch', samples=1)['pass']\n"
            "assert suites.run_suite('bridge', samples=1)['pass']\n"
            "assert 'chernpatch.dual' not in sys.modules\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_a_negative_control_leaves_later_models_unchanged(tmp_path):
    # verify patched --corrupt rebinds its own model's chain weights; a later
    # run in the same process, whose model shares the Lie data, is unchanged
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for extra, name in ((["--corrupt"], "verify_patched_corrupt.json"),
                        ([], "verify_patched.json")):
        out = tmp_path / name
        assert cli.main(["--out", str(out), "verify", "patched", "--samples",
                         "10"] + extra) == (1 if extra else 0)
        with open(os.path.join(golden, name), encoding="utf-8") as fh:
            assert out.read_text(encoding="utf-8") == fh.read()


def test_a_second_run_of_the_chart_suites_builds_no_lie_data(tmp_path,
                                                            monkeypatch):
    # every builder shares its Lie data within a process: a second run
    # constructs only classify's std-restriction, and each report is the one
    # of a process of its own
    names, args = ["extension", "bridge", "classify"], ["--samples", "4"]
    out = tmp_path / "together.json"
    assert cli.main(["--out", str(out), "verify", *names, *args]) == 0
    built = []
    for cls in (liecore.GroupSpec, liecore.ParabolicData,
                hcrepr.Representation, hcrepr.CanonicalExtension):
        def counted(self, *a, init=cls.__init__, **kw):
            init(self, *a, **kw)
            built.append((type(self).__name__, getattr(self, "name", None)))
        monkeypatch.setattr(cls, "__init__", counted)
    assert cli.main(["--out", str(out), "verify", *names, *args]) == 0
    assert built == [("Representation", "std-restriction")]
    together = json.loads(out.read_text(encoding="utf-8"))["suites"]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for name, report in zip(names, together, strict=True):
        alone = subprocess.run(
            [sys.executable, "-m", "chernpatch", "verify", name, *args],
            capture_output=True, text=True, env=env)
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout == suites.render_report(report) + "\n"


def test_suites_in_one_process_report_as_in_separate_ones(tmp_path):
    # the Siegel suites share their Lie data within a process: together
    # they give the reports each gives in a process of its own
    names, args = ["pifiber", "descent", "patched"], ["--samples", "6"]
    out = tmp_path / "together.json"
    assert cli.main(["--out", str(out), "verify", *names, *args]) == 0
    together = json.loads(out.read_text(encoding="utf-8"))["suites"]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for name, report in zip(names, together, strict=True):
        alone = subprocess.run(
            [sys.executable, "-m", "chernpatch", "verify", name, *args],
            capture_output=True, text=True, env=env)
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout == suites.render_report(report) + "\n"
