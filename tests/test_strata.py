import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import cli, strata, suites
from chernpatch.errors import PreconditionFailed
from helpers import B_reference, family_vanishing_reference, rho


def three_flag(eps0=1.0):
    return strata.FlagTubeModel(
        strata=[{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1},
                {"name": "X", "dimC": 3}],
        flags=[["Z", "Y", "X"]], eps0=eps0)


def forest():
    return strata.FlagTubeModel(
        strata=[{"name": "A", "dimC": 0}, {"name": "B", "dimC": 1},
                {"name": "C", "dimC": 2}, {"name": "D", "dimC": 4},
                {"name": "E", "dimC": 3}],
        flags=[["A", "B", "C", "D"], ["A", "B", "E"]])


def test_bump_profile_shape():
    s = strata.BumpProfile()
    assert s(0.0) == 0.0
    assert s(0.4) == 0.0
    assert s(0.8) == 1.0
    assert 0.0 < s(0.6) < 1.0


def test_bump_profile_smooth_at_knots():
    s = strata.BumpProfile()
    for t in (0.5, 0.75):
        h = 1e-6
        d = (s(t + h) - s(t - h)) / (2 * h)
        assert abs(d) < 1e-3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_partition_telescopes_to_one(seed):
    rng = np.random.default_rng(seed)
    model = forest()
    flag = model.flags[rng.integers(2)]
    L = int(rng.integers(1, len(flag) + 1))
    chain = flag[:L]
    eps = model.eps(chain[-1])
    w = model.partition_weights(chain, rng.uniform(0, 1.5 * eps, (1, L - 1)))
    assert w.shape == (1, L)
    assert abs(sum(w[0].tolist()) - 1.0) < 1e-12


def test_partition_weights_equal_B_bit_for_bit():
    # the prefix products take the same factors in the same order as the
    # per-point reference, and B at any eps is a column of such a table
    rng = np.random.default_rng(11)
    model = forest()
    for _ in range(100):
        flag = model.flags[rng.integers(2)]
        chain = flag[:int(rng.integers(1, len(flag) + 1))]
        eps = model.eps(chain[-1])
        r = rng.uniform(0, eps, (5, len(chain) - 1))
        got = model.partition_weights(chain, r)
        assert got.shape == (5, len(chain))
        x = model.point(chain, r)
        other = model.eps(flag[int(rng.integers(len(flag)))])
        for j, Z in enumerate(model.names):
            for e, table in ((eps, got), (other, None)):
                want = np.array([B_reference(model, Z, e, chain, row)
                                 for row in r.tolist()])
                assert model.B(Z, e, x).tobytes() == want.tobytes()
                if table is not None and Z in chain:
                    col = table[:, chain.index(Z)]
                    assert col.tobytes() == want.tobytes()


# r / eps anywhere in [0, 1.5], often exactly at a knot of the profile
_FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, 0.75]),
                       st.floats(0.0, 1.5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_FRACTIONS, min_size=3, max_size=3),
                min_size=1, max_size=8))
def test_stacked_partition_weights_equal_B_per_row(rows):
    # on every chain of both flags (L = 1, an empty r, included) the stack
    # gives each row bitwise the reference B values of the row alone
    model = forest()
    for chain in dict.fromkeys(f[:n] for f in model.flags
                               for n in range(1, len(f) + 1)):
        eps = model.eps(chain[-1])
        r = np.array(rows)[:, :len(chain) - 1] * eps
        got = model.partition_weights(chain, r)
        assert got.shape == (len(rows), len(chain))
        for row, x in zip(got, r.tolist()):
            want = [B_reference(model, Z, eps, chain, x) for Z in chain]
            assert np.array(want).tobytes() == row.tobytes()


def test_profile_on_array_is_the_scalar_profile():
    s = strata.BumpProfile()
    x = np.array([[-1.0, 0.0, 0.5, 0.5000001, 0.6, 0.7499999, 0.75, 2.0]])
    got = s.on_array(x)
    assert got.shape == x.shape
    assert got.tobytes() == np.array([[s(v) for v in x[0]]]).tobytes()
    assert got[0, 2] == 0.0 and got[0, 6] == 1.0
    # 10^4 random entries around the band, its edges and their neighbours
    # on both sides, signed zeros and the non-finite values
    rng = np.random.default_rng(12)
    edges = [v for e in (s.lo, s.hi)
             for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    x = np.concatenate([rng.uniform(0.4, 0.85, 9000),
                        rng.uniform(s.lo, s.hi, 1000),
                        edges, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    x = rng.permutation(x).reshape(-1, 1)
    got = s.on_array(x)
    assert got.shape == x.shape
    assert got.tobytes() == np.array([[s(v)] for v in x[:, 0].tolist()]
                                     ).tobytes()


def test_eps_family_is_dyadic():
    model = three_flag()
    assert model.eps("Z") == 1.0
    assert model.eps("Y") == 0.5
    assert model.eps("X") == 0.125


def test_control_data_axioms_hold_exactly():
    # pi_Z pi_Y = pi_Z for Z <= Y and rho_Z pi_Y = rho_Z for Z < Y
    rng = np.random.default_rng(9)
    for model in (three_flag(), forest()):
        for _ in range(200):
            flag = model.flags[rng.integers(len(model.flags))]
            chain = flag[:int(rng.integers(1, len(flag) + 1))]
            x = model.point(chain, rng.uniform(0, 1.5, (3, len(chain) - 1)))
            assert not rho(x, x.stratum).any()
            for j, Y in enumerate(chain):
                xY = model.pi(x, Y)
                assert xY.stratum == Y
                for Z in chain[:j + 1]:
                    a, b = model.pi(xY, Z), model.pi(x, Z)
                    assert a.chain == b.chain
                    assert a.r.tobytes() == b.r.tobytes()
                for Z in chain[:j]:
                    assert rho(xY, Z).tobytes() == rho(x, Z).tobytes()


def test_vanishing_grid_clean():
    model = three_flag()
    report = strata.family_vanishing_check(
        model, ("Z", "Y", "X"), np.linspace(0.0, 1.1, 12))
    assert report["ok"]
    assert report["checked"] > 0


def test_vanishing_detects_corrupted_family():
    # collapsing the eps-family (same eps for every stratum) breaks the
    # support separation the dyadic family guarantees
    model = three_flag()
    model.eps = lambda name: 1.0
    report = strata.family_vanishing_check(
        model, ("Z", "Y", "X"), np.linspace(0.0, 1.1, 12))
    assert not report["ok"]
    assert report["violations"]


@pytest.mark.parametrize("points", [6, 12])
@pytest.mark.parametrize("collapsed", [False, True])
@pytest.mark.parametrize("make, flag", [(three_flag, ("Z", "Y", "X")),
                                        (forest, ("A", "B", "C", "D"))])
def test_vanishing_check_matches_per_point_reference(make, flag, collapsed,
                                                     points):
    # the check on one stack reports what two reference B values per grid
    # point and (n, m, n', m') report: same counts, violations in the same
    # order, bitwise the same B values
    model = make()
    if collapsed:
        model.eps = lambda name: 1.0
    grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), points)
    got = strata.family_vanishing_check(model, flag, grid)
    want = family_vanishing_reference(model, flag, grid)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got == want
    assert collapsed == bool(got["violations"])


def test_inconsistent_forest_rejected():
    # flags that share a stratum make a poset, and it builds; a chain that
    # is no flag's prefix is still refused
    model = strata.FlagTubeModel(
        strata=[{"name": "A", "dimC": 0}, {"name": "B", "dimC": 1},
                {"name": "C", "dimC": 2}],
        flags=[["A", "C"], ["B", "C"]])
    for chain in (("A", "C"), ("B", "C")):
        assert model.point(chain, [[0.1]]).chain == chain
    with pytest.raises(PreconditionFailed, match="not a model flag chain"):
        model.point(("A", "B", "C"), [[0.1, 0.2]])


def _two_cusps():
    return {"strata": [{"name": "cinf", "dimC": 0}, {"name": "c0", "dimC": 0},
                       {"name": "X", "dimC": 1}],
            "flags": [["cinf", "X"], ["c0", "X"]], "eps0": 1.0}


def test_two_cusps_under_one_stratum(tmp_path, capsys):
    # "adding finitely many cusps": two cusps below one open stratum.  At
    # r = 0.3 the profile reads s(0.3 / eps_X) = s(0.6) at eps_X = 1/2
    model = suites.model_from_dict(_two_cusps())
    for cusp in ("cinf", "c0"):
        got = dict(model.chain_form_weights(model.point((cusp, "X"),
                                                        [[0.3]])))
        assert set(got) == {("X",), (cusp, "X")}
        assert got[(cusp, "X")][0] == pytest.approx(0.69705928, abs=1e-8)
        assert got[("X",)][0] == pytest.approx(0.30294072, abs=1e-8)
        assert abs(sum(got.values())[0] - 1.0) < 1e-15
    for chain, r in [(("cinf", "c0", "X"), [[0.1, 0.2]]), (("X",), [[]]),
                     (("nope",), [[]]), ((), [[]])]:
        with pytest.raises(PreconditionFailed, match="not a model flag chain"):
            model.point(chain, r)
    path = tmp_path / "two_cusps.json"
    path.write_text(json.dumps(_two_cusps()))
    assert cli.main(["verify", "partition", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


@pytest.mark.parametrize("flags,cycle", [
    ([["Z", "Z", "X"]], "Z < Z"),
    ([["Z", "X"], ["X", "Z"]], "X < Z < X"),
    ([["Z", "Y"], ["Y", "X"], ["X", "Z"]], "Y < X < Z < Y"),
], ids=["repeated-stratum", "pair-both-ways", "three-cycle"])
def test_flags_that_order_strata_in_a_cycle_are_refused(
        flags, cycle, tmp_path, capsys):
    # flags must order the strata as a poset: a bad model is refused (exit
    # 2), not reported as a failed check.  Y and X share dimC 2, which is
    # allowed: the refusal comes from the order alone
    model = {"strata": [{"name": n, "dimC": d} for n, d in
                        (("Z", 0), ("Y", 2), ("X", 2))], "flags": flags}
    message = f"flags order strata in a cycle: {cycle}"
    with pytest.raises(PreconditionFailed, match=f"^{message}$"):
        suites.model_from_dict(model)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert cli.main(["verify", "partition", "--model", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_chain_weights_sum_to_localized_weight():
    # radii near the transition band (eps/2, 3 eps/4) of a stratum above
    # them, so that some chain weights lie strictly between 0 and 1; one
    # stack of 500 points per chain of each flag
    rng = np.random.default_rng(7)
    fractional = 0
    for model in (three_flag(), forest()):
        for chain in dict.fromkeys(f[:n] for f in model.flags
                                   for n in range(1, len(f) + 1)):
            eps = [[model.eps(chain[rng.integers(j + 1, len(chain))])
                    for j in range(len(chain) - 1)] for _ in range(500)]
            x = model.point(chain, np.array(eps)
                            * rng.uniform(0.4, 0.85, (500, len(chain) - 1)))
            W = strata._base(x.chain, model._chain_factors(x))
            assert W.shape == (500,) and set(W.tolist()) <= set(chain)
            ws = np.zeros((len(model.chains_to(x)), 500))
            base_at = np.array([chain.index(w) for w in W.tolist()])
            for i, (c, fs) in enumerate(model._chain_factors(x)):
                # the base stratum has nonzero projected weight, and every
                # larger stratum of the chain zero
                at = W == c[0]
                assert (fs[0][at] != 0.0).all()
                assert (fs[0][base_at < chain.index(c[0])] == 0.0).all()
                assert fs[0][at].tobytes() == model.B(
                    c[0], model.eps(c[0]), model.pi(x, c[0]))[at].tobytes()
                ws[i, at] = strata._top_down(fs)[at]
            assert np.max(np.abs(ws.sum(axis=0) - 1.0)) < 1e-12
            fractional += int(((ws > 0.0) & (ws < 1.0)).any(axis=0).sum())
    assert fractional >= 100


class _Names:
    """A toy geometric point: mc holds the name of the stratum it lies over
    at each row."""

    def __init__(self, mc):
        self.mc = np.asarray(mc)

    def __getitem__(self, idx):
        return _Names(self.mc[idx])


def test_patched_system_recursion_matches_chain():
    model = three_flag()
    names = ("Z", "Y", "X")

    # the geometric point over a stack is the name of its stratum at each
    # row, so every callable can check that it was handed the points over
    # its own stratum; a value is a row of masses on the strata per point
    def over(g):
        assert len(set(g.mc.tolist())) == 1
        return g.mc[0]

    def nomizu(name):
        def F(mc):
            assert mc.tolist() == [name] * len(mc)
            return np.eye(3)[[names.index(n) for n in mc]]
        return F

    pairs = set()

    def induced(Z):
        def pulled(g, v):
            # a connection induced from Z lives over the larger strata
            Y = over(g)
            assert names.index(Z) < names.index(Y)
            pairs.add((Y, Z))
            return v
        return pulled

    def project(g, Z):
        assert names.index(Z) < names.index(over(g))
        return _Names(np.full(len(g.mc), Z))

    system = strata.PatchedSystem(model, {n: nomizu(n) for n in names},
                                  {Z: induced(Z) for Z in ("Z", "Y")},
                                  project)
    rng = np.random.default_rng(8)
    xs = model.point(("Z", "Y", "X"), [
        (rng.uniform(0, 1.2), rng.uniform(0, 0.6)) for _ in range(30)])
    g = _Names(np.full(len(xs), "X"))
    a = system.patched(xs, g)
    b = system.chain_form(xs, g)
    assert a.shape == b.shape == (30, 3)
    assert np.max(np.abs(a - b)) < 1e-12
    # total mass one in both representations
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
    # the localized form, its base strata evaluated as substacks
    c, W, wsum = system.localized(xs, g)
    assert len(set(W)) > 1
    assert np.max(np.abs(wsum[:, None] * a - c)) < 1e-12
    # each row of the stack is the stack of that one point
    for n in range(len(xs)):
        assert np.array_equal(system.patched(xs[n], g[n:n + 1])[0], a[n])
    # every induced map was handed the geometric points of each larger
    # stratum, and those alone
    assert pairs == {("Y", "Z"), ("X", "Z"), ("X", "Y")}


def test_patched_without_ancestors_reads_no_weight(monkeypatch):
    # on a stratum with no ancestors B is identically 1, so the patched
    # connection is its own connection and no weight is evaluated
    model = three_flag()
    system = strata.PatchedSystem(model, {"Z": lambda t: 2.5 * t}, {},
                                  lambda g, Z: g)
    xs, g = model.point(("Z",), np.zeros((1, 0))), _Names(np.arange(3.0)[None])
    expected = system.chain_form(xs, g)

    def no_weight(*args):
        raise AssertionError("a weight evaluated")

    monkeypatch.setattr(model, "B", no_weight)
    monkeypatch.setattr(model, "partition_weights", no_weight)
    got = system.patched(xs, g)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, 2.5 * g.mc)


def test_model_point_refuses_r_of_the_wrong_width():
    # one tube distance per proper ancestor, in a (P, L - 1) stack
    model = three_flag()
    x = model.point(("Z", "Y", "X"), np.zeros((4, 2)))
    assert len(x) == 4 and x[1].r.shape == (1, 2) and len(x[1:3]) == 2
    for r in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2), [(0.1,)]):
        with pytest.raises(PreconditionFailed, match=r"\(P, 2\) stack"):
            model.point(("Z", "Y", "X"), r)
    with pytest.raises(PreconditionFailed, match=r"\(P, 0\) stack"):
        strata.ModelPoint(("Z",), np.zeros((1, 1)))


def test_eps_is_a_normal_float_down_to_the_smallest():
    strata_ = [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1022}]
    model = strata.FlagTubeModel(strata_, [["Z", "Y"]])
    assert model.eps("Y") == 2.0 ** -1022
    # a large eps0 makes room for a dimension past 1023
    big = strata.FlagTubeModel([{"name": "Y", "dimC": 2000}], [["Y"]],
                               eps0=1e300)
    assert big.eps("Y") == math.ldexp(1e300, -2000)
    with pytest.raises(PreconditionFailed, match=r"normal float for dimC \[1023\]"):
        strata.FlagTubeModel([{"name": "Y", "dimC": 1023}], [["Y"]])
