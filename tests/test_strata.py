import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import strata
from chernpatch.errors import PreconditionFailed


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
    x = model.point(chain, tuple(rng.uniform(0, 1.5 * eps, L - 1)))
    total = sum(model.partition_weights(x).values())
    assert abs(total - 1.0) < 1e-12


def test_eps_family_is_dyadic():
    model = three_flag()
    assert model.eps("Z") == 1.0
    assert model.eps("Y") == 0.5
    assert model.eps("X") == 0.125


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


def test_inconsistent_forest_rejected():
    with pytest.raises(PreconditionFailed):
        strata.FlagTubeModel(
            strata=[{"name": "A", "dimC": 0}, {"name": "B", "dimC": 1},
                    {"name": "C", "dimC": 2}],
            flags=[["A", "C"], ["B", "C"]])


def test_chain_weights_sum_to_localized_weight():
    model = three_flag()
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = model.point(("Z", "Y", "X"),
                        (rng.uniform(0, 1.2), rng.uniform(0, 0.6)))
        W = model.localization_base(x)
        assert W in ("Z", "Y", "X")
        # the base stratum has nonzero projected weight
        assert model.B(W, model.eps(W), model.pi(x, W)) != 0.0


def test_patched_system_recursion_matches_chain():
    model = three_flag()

    class DictVal(dict):
        def __add__(self, other):
            out = DictVal(self)
            for k, v in other.items():
                out[k] = out.get(k, 0.0) + v
            return out

        def __rmul__(self, c):
            return DictVal({k: c * v for k, v in self.items()})

    # the geometric point over each stratum is its name, so every callable
    # can check that it was handed the point over its own stratum
    def at(x, g):
        assert g == x.stratum
        return g

    nomizu = {name: (lambda x, g: DictVal({at(x, g): 1.0}))
              for name in ("Z", "Y", "X")}
    pullback = {(Y, Z): (lambda x, g, v: at(x, g) and v)
                for Y in ("Y", "X") for Z in ("Z", "Y") if Z != Y}
    system = strata.PatchedSystem(model, nomizu, pullback,
                                  lambda g, Y, Z: Z)
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = model.point(("Z", "Y", "X"),
                        (rng.uniform(0, 1.2), rng.uniform(0, 0.6)))
        a = system.patched(x, "X")
        b = system.chain_form(x, "X")
        keys = set(a) | set(b)
        assert all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-12 for k in keys)
        # total mass one in both representations
        assert abs(sum(a.values()) - 1.0) < 1e-12
