import tracemalloc

import numpy as np
import pytest

from chernpatch import (charts, connections, exterior as ext, hcrepr,
                        invariants as inv, liecore, siegel, strata, suites)
from chernpatch.errors import (DecompositionError, PreconditionFailed,
                               UnsupportedFlag)

from helpers import plane_borel_reference, structure_reference


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


def test_points_off_the_siegel_domain_are_named(model):
    # 4e-6 - FD_STEP < 0: the difference at x leaves the domain
    x = [0.1, 0.0, 0.0, 4e-6, 0.0, 20.0]
    flat = [0.1, 0.0, 0.0, 1.0, 2.0, 1.0]       # y11 > 0, det Y < 0
    msg = "Im Z is not positive definite"
    with pytest.raises(PreconditionFailed, match=f"^{msg}$"):
        siegel.section([0.1, 0.0, 0.0, -4e-6, 0.0, 20.0])
    with pytest.raises(PreconditionFailed, match=r"\(row 2\)$"):
        siegel.section(np.array([x, x, flat, x]))
    with pytest.raises(PreconditionFailed, match=r"\(row 1\)$"):
        model.points([x, [0.1, 0.0, 0.0, -1.0, 0.0, 20.0]])
    form = model.form_from_evaluator(model.omega_patched)
    assert form.value(x).shape == (6, 2, 2)
    # rows 0-5 of the difference stack step by +h, rows 6-11 by -h
    with pytest.raises(PreconditionFailed, match=r"\(row 9\)$"):
        form.jacobian(x)


@pytest.mark.parametrize("coord", [3, 4, 5])
def test_section_names_a_nan_chart_point(coord):
    # a NaN in Y fails the positive-definite test: it is named as itself
    x = np.array([[0.1, 0.0, 0.0, 2.0, 0.0, 3.0]] * 4)
    x[2, coord] = np.nan
    with pytest.raises(PreconditionFailed,
                       match=r"^chart point is not finite \(row 2\)$"):
        siegel.section(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("coord", range(6))
def test_section_refuses_a_non_finite_chart_point(coord, bad):
    # in X as in Y, a non-finite entry is named as itself at its row, with
    # no warning on the way
    x = np.array([[0.1, 0.0, 0.0, 2.0, 0.0, 3.0]] * 4)
    x[2, coord] = bad
    with pytest.raises(PreconditionFailed,
                       match=r"^chart point is not finite \(row 2\)$"):
        siegel.section(x)


def test_projection_has_exact_unit_vertical_vectors(model):
    # pi_Y = (x11, y11) is differenced like every chart map; its
    # differences are exactly 0 off its two columns, so its vertical vectors
    # are exactly x22, -x12, y12 and y22 at the points of all three samplers
    rng = np.random.default_rng(0)
    patched = suites._model_tube_points(model, rng, 200, suites._PATCHED_BOX)
    R = np.zeros((4, 6))
    R[[0, 1, 2, 3], [2, 1, 4, 5]] = [1.0, -1.0, 1.0, 1.0]
    want = (R + 0j).conj()        # vertical_vectors conjugates: imag -0.0
    for xs in (suites._model_tube_points(model, rng, 200, suites._PIFIBER_BOX),
               suites._mixed_tube_points(model, rng, 200), patched):
        v = ext.vertical_vectors(model.projection_map(), np.array(xs))
        assert v.tobytes() == np.broadcast_to(want, v.shape).tobytes()


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
    mcs = model.points([x]).mc[0]
    h = 1e-6
    for i in range(6):
        xp = list(x); xp[i] += h
        xm = list(x); xm[i] -= h
        g = siegel.section(x)
        num = np.linalg.inv(g) @ (siegel.section(xp) - siegel.section(xm)) / (2 * h)
        assert np.max(np.abs(mcs[i] - num)) < 1e-5


def _section_mc_loop(x, s):
    """Reference: s^{-1} d_i s one chart direction at a time."""
    X = siegel.z_from_coords(x).real
    L, Lit = s[:2, :2], s[2:, 2:]
    Linv = Lit.T
    out = []
    for k in range(6):
        dX, dY = np.zeros((2, 2)), np.zeros((2, 2))
        i, j = [(0, 0), (0, 1), (1, 1)][k % 3]
        if k < 3:
            dX[i, j] = dX[j, i] = 1.0
        else:
            dY[i, j] = dY[j, i] = 1.0
        M = Linv @ dY @ Linv.T
        dL = L @ (np.tril(M, -1) + np.diag(np.diag(M)) / 2.0)
        dLit = -Lit @ dL.T @ Lit
        ds = np.zeros((4, 4))
        ds[:2, :2] = dL
        ds[:2, 2:] = dX @ Lit + X @ dLit
        ds[2:, 2:] = dLit
        out.append(np.linalg.inv(s) @ ds)
    return np.array(out)


def test_section_mc_stack_matches_per_direction_loop():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = _sample_x(rng)
        s = siegel.section(x)
        mc = siegel.section_mc(x, s)
        assert mc.shape == (6, 4, 4)
        assert np.max(np.abs(mc - _section_mc_loop(x, s))) < 1e-14


def _mixed_x(model, rng):
    """A chart point where both patching weights are active."""
    epsX = model.model.eps("X")
    x = _sample_x(rng)
    x[3] = 1.0 / (float(rng.uniform(0.55, 0.7)) * epsX)
    x[5] = 1.0 / (float(rng.uniform(0.1, 0.45)) * epsX)
    return x


def _from_point(m, mc):
    """The connection induced from the point's zero connection, at the
    geometric point mc (s^{-1} ds on X, hdot on Y)."""
    return m.system.induced["Z"](siegel.TangentVector(mc), 0.0)


def _chain(model, p, mc):
    return model.system.chain_form(p.control, siegel.TangentVector(mc))


def _localized(model, p, mc):
    return model.system.localized(p.control, siegel.TangentVector(mc))


def test_evaluators_on_a_stack_match_one_direction_at_a_time(model):
    rng = np.random.default_rng(9)
    evaluators = [lambda p, mc: model.omega_nomizu(mc),
                  lambda p, mc: _from_point(model, mc),
                  model.omega_induced_nomizu, model.omega_patched,
                  lambda p, mc: _chain(model, p, mc),
                  lambda p, mc: _localized(model, p, mc)[0]]
    for x in [_sample_x(rng) for _ in range(4)] + [_mixed_x(model, rng)
                                                   for _ in range(4)]:
        p = model.points([x])
        for ev in evaluators:
            got = ev(p, p.mc)
            assert got.shape == (1, 6, 2, 2)
            for i in range(6):
                assert np.max(np.abs(got[:, i] - ev(p, p.mc[:, i]))) < 1e-14
        _, W, wsum = _localized(model, p, p.mc)
        W0, wsum0 = _localized(model, p, p.mc[:, 0])[1:]
        assert W == W0 and np.array_equal(wsum, wsum0)


def test_plane_borel_condition_is_checked_per_direction(model):
    # induced on Y from the point, hdot is split in the Lagrangian
    # parabolic, which holds the hermitian sl(2) only in its plane Borel
    hdot = np.zeros((2, 4, 4))
    hdot[:, [0, 2], [0, 2]] = 1.0, -1.0       # W_H, in sp(4)
    hdot[0] *= 1e6
    hdot[0, 2, 0] = 1e-4       # within tolerance of its own direction's scale
    hdot[1, 2, 0] = 1e-6       # within 1e-8 of the stack's scale, not its own
    got = _from_point(model, hdot[:1])
    assert np.max(np.abs(got[0] - _from_point(model, hdot[0]))) < 1e-14
    nan = hdot[0].copy()
    nan[2, 0] = np.nan         # a NaN fails the bound rather than passing it
    msg = "element not in the parabolic subalgebra"
    for bad in (hdot, hdot[1], nan):
        with pytest.raises(DecompositionError, match=msg):
            _from_point(model, bad)
    with pytest.raises(DecompositionError, match=rf"{msg} \(row 1\)$"):
        _from_point(model, hdot)


@pytest.mark.parametrize("rep", ["std", "sym2", "det^2", "det^-2",
                                 "sym^3 det^1", "sym^4 det^-2"])
def test_connection_induced_on_Y_from_the_point_is_the_plane_borel_read_off(
        rep):
    # the one induced formula, extS.alg of the Lagrangian-Levi part of the
    # split of hdot, gives the read-off extS.alg(a W_H) bit for bit, through
    # the induced map and along the chain (Z, Y)
    m = siegel.SiegelModel(rep)
    xs = suites._mixed_tube_points(m, np.random.default_rng(24), 67)
    for P in (1, 7, 16, 67):
        p = m.points(xs[:P])
        hdot = m.system.project(siegel.TangentVector(p.mc), "Y")
        want = plane_borel_reference(m, hdot.mc)
        assert np.max(np.abs(want)) > 1e-2     # not two zeros
        assert _same_bits(m.system.induced["Z"](hdot, 0.0), want), P
        along = m.system.chain_curvature(
            ("Z", "Y"), m.model.pi(p.control, "Y"), hdot)[0]
        assert _same_bits(along, want), P


def test_patched_recursion_equals_chain(model):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        x = _sample_x(rng)
        p = model.points([x])
        for i in range(3):
            a = model.omega_patched(p, p.mc[:, i])
            b = _chain(model, p, p.mc[:, i])
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-10


def test_patched_localization(model):
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = _sample_x(rng)
        p = model.points([x])
        for i in range(3):
            a = model.omega_patched(p, p.mc[:, i])[0]
            c, W, wsum = _localized(model, p, p.mc[:, i])
            assert W[0] in ("Z", "Y", "X")
            assert np.max(np.abs(wsum[0] * a - c[0])) < 1e-10


def _count_klingen_splits(model, monkeypatch, calls):
    """Count the splits in the model's Klingen parabolic in calls["split"].
    The class is patched, not the parabolic, which every model of the
    representation shares."""
    split = liecore.ParabolicData.split

    def counted(pd, X):
        calls["split"] += pd is model.pdK
        return split(pd, X)
    monkeypatch.setattr(liecore.ParabolicData, "split", counted)


def test_one_call_of_each_layer_per_coefficient_evaluation(model,
                                                          monkeypatch):
    calls = {"evaluator": 0, "section_mc": 0, "split": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(siegel, "section_mc",
                        counted("section_mc", siegel.section_mc))
    _count_klingen_splits(model, monkeypatch, calls)
    evaluator = counted("evaluator", model.omega_induced_nomizu)
    form = model.form_from_evaluator(evaluator)
    value = form.value(_sample_x(np.random.default_rng(10)))
    assert value.shape == (6, 2, 2)
    assert calls == {"evaluator": 1, "section_mc": 1, "split": 1}
    # the patched connection: a 12-row central difference is one stack
    calls.update(dict.fromkeys(calls, 0))
    form = model.form_from_evaluator(counted("evaluator", model.omega_patched))
    pts = suites._mixed_tube_points(model, np.random.default_rng(19), 2)
    assert form.jacobian(pts[0]).shape == (6, 6, 2, 2)
    assert calls == {"evaluator": 1, "section_mc": 1, "split": 1}
    # and a fiber check of its curvature at 2 points one stack of 26 rows:
    # the 2 * 6 displaced rows of each point, and the point itself
    rows = []
    form = model.form_from_evaluator(
        lambda p, mc: rows.append(len(mc)) or model.omega_patched(p, mc))
    ext.pifiber_check(ext.curvature_form(form), model.projection_map(), pts)
    assert rows == [26]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def test_a_patched_stack_equals_its_rows_bit_for_bit(model):
    rng = np.random.default_rng(18)
    # the patched suite's range, and the mixed tube
    xs = [_sample_x(rng) for _ in range(8)] + [_mixed_x(model, rng)
                                               for _ in range(4)]
    p = model.points(xs)
    md = model.model
    # rows with different localization bases, and a chain whose weight
    # vanishes at some rows and not at others
    bases = strata._base(p.control.chain, md._chain_factors(p.control))
    assert len(set(bases.tolist())) > 1
    ws = np.array([w for _, w in md.chain_form_weights(p.control)]).T
    assert ((ws == 0.0).any(axis=0) & (ws != 0.0).any(axis=0)).any()

    def evaluations(p):
        local, W, wsum = _localized(model, p, p.mc)
        return [model.omega_patched(p, p.mc),
                _chain(model, p, p.mc), local, W, wsum,
                model.curvature_patched(p)]

    stacked = evaluations(p)
    form = model.form_from_evaluator(model.omega_patched)
    values = form.func(np.array(xs))
    for n, x in enumerate(xs):
        one = evaluations(model.points([x]))
        for a, b in zip(stacked, one):
            assert _same_bits(a[n], b[0])
        assert _same_bits(values[n], form.value(x))


def test_pifiber_check_on_a_stack_is_its_checks_point_by_point(model):
    curv = ext.curvature_form(model.form_from_evaluator(model.omega_patched))
    proj = model.projection_map()
    pts = suites._mixed_tube_points(model, np.random.default_rng(20), 3)
    for form in (curv, inv.chern_forms(curv, 2)[1]):
        rngs = np.random.default_rng(21), np.random.default_rng(21)
        stacked = ext.pifiber_check(form, proj, pts, tol=1e-5, rng=rngs[0])
        worst = max(ext.pifiber_check(form, proj, [x], tol=1e-5, rng=rngs[1])[
            "max_vertical_contraction"] for x in pts)
        assert stacked["max_vertical_contraction"] == worst
        # the same draws: both streams stand at the same place
        assert rngs[0].standard_normal() == rngs[1].standard_normal()


# tracemalloc peaks measured on x86-64 with numpy 2.4, plus a 25% margin:
# `verify patched` at 40 samples, in stacks of 8 points, 100 KB; a fiber
# check at 3 points, whose central differences are one stack of 36 rows,
# 329 KB.  In stacks of 16, each with its partition tables built once,
# they read 122 and 372 KB.
PATCHED_PEAK = 1.25 * 100e3
PIFIBER_PEAK = 1.25 * 329e3
# `verify pifiber` at 67 samples read 197 KB in stacks of 8 points, before
# the connections became tables; in stacks of 16 it must stay below that
# (180 KB, of which 26 KB are the vertical vectors of all 67 points, taken
# in one call; 155 KB when each stack took its own).
PIFIBER_SUITE_PEAK = 197e3


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_patched_stacks_bound_their_temporaries(model):
    curv = ext.curvature_form(model.form_from_evaluator(model.omega_patched))
    proj = model.projection_map()
    pts = suites._mixed_tube_points(model, np.random.default_rng(22), 3)
    ext.pifiber_check(curv, proj, pts[:1])  # lazy numpy set-up, untraced
    assert suites._STACK == 16
    assert _traced_peak(lambda: suites.run_suite(
        "patched", seed=0, samples=40)) < PATCHED_PEAK
    assert _traced_peak(lambda: ext.pifiber_check(
        curv, proj, pts)) < PIFIBER_PEAK
    assert _traced_peak(lambda: suites.run_suite(
        "pifiber", seed=0, samples=67)) < PIFIBER_SUITE_PEAK


def _control_draw(rng, P):
    """(r, free): tube distances in the patched suite's box and free
    coordinates (x11, x12, x22, y12) that keep Im Z positive definite."""
    return (rng.uniform([0.02, 0.005], [0.5, 0.12], (P, 2)),
            rng.uniform(-0.3, 0.3, (P, 4)))


def test_chart_points_invert_the_tube_distances(model):
    r, free = _control_draw(np.random.default_rng(30), 40)
    xs = model.chart_points(r, free)
    assert xs.shape == (40, 6)
    assert xs[:, [0, 1, 2, 4]].tobytes() == free.tobytes()
    back = model.points(xs).control.r
    assert np.max(np.abs(back / r - 1.0)) <= 1e-14
    assert back.tobytes() == model.tube_distances(xs).tobytes()


def test_tube_differential_matches_central_differences(model):
    xs = model.chart_points(*_control_draw(np.random.default_rng(31), 12))
    h = 1e-6
    fd = np.stack([(model.tube_distances(xs + h * e)
                    - model.tube_distances(xs - h * e)) / (2 * h)
                   for e in np.eye(6)], axis=-1)
    dr = model.tube_differential(xs)
    assert dr.shape == (12, 2, 6)
    assert np.max(np.abs(dr - fd)) <= 1e-8


def test_rho_Z_factors_through_the_projection_to_Y(model):
    # rho_Z on Y = H_1 at (x11, y11) is 1 / y11: rho_Z o pi_Y = rho_Z bit
    # for bit, at the points of every sampler
    rng = np.random.default_rng(32)
    xs = np.concatenate([model.chart_points(*_control_draw(rng, 8)),
                         suites._model_tube_points(model, rng, 8,
                                                   suites._PIFIBER_BOX),
                         suites._mixed_tube_points(model, rng, 8)])
    y = model.projection_map().func(xs)
    assert (model.points(xs).control.r[:, 0].tobytes()
            == (1.0 / y[:, 1]).tobytes())


def test_each_suite_sampler_lands_in_the_band_it_names(model, monkeypatch):
    drawn = []
    stacks = suites._stacks

    def recorded(m, pts):
        drawn.append(np.asarray(pts))
        return stacks(m, pts)

    monkeypatch.setattr(suites, "_stacks", recorded)
    assert suites.run_suite("patched", seed=3, samples=200)["pass"]
    rng, eps = np.random.default_rng(33), model.model.eps("X")
    # sampler, (low, high) of (r_Z, r_Y) / eps_X
    for xs, low, high in (
            (drawn[0], [0.02 / eps, 0.005 / eps], [0.5 / eps, 0.12 / eps]),
            (suites._model_tube_points(model, rng, 200, suites._PIFIBER_BOX),
             [0.02 / eps, 1 / 40 / eps], [0.2 / eps, 1 / 17 / eps]),
            (suites._mixed_tube_points(model, rng, 200),
             [0.55, 0.1], [0.7, 0.45])):
        r = model.points(xs).control.r / eps
        assert len(r) == 200
        assert np.all((low <= r) & (r <= high)), (r.min(axis=0), r.max(axis=0))


def test_mixed_region_weights_sum_to_one(model):
    md = model.model
    rng = np.random.default_rng(5)
    epsX = md.eps("X")
    for _ in range(25):
        x = _sample_x(rng)
        # force a mixed radial coordinate
        x[5] = 1.0 / float(rng.uniform(0.55 * epsX, 0.7 * epsX))
        pt = model.points([x]).control[0]
        w = md.partition_weights(pt.chain, pt.r)
        assert abs(sum(w[0].tolist()) - 1.0) < 1e-12


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


# curvature from the structure equation ----------------------------------


def _oracle_points(model, rng):
    """Mixed-tube points, where every chain's weight can be active, and
    generic points of the chart."""
    return ([_mixed_x(model, rng) for _ in range(3)]
            + [_sample_x(rng) for _ in range(2)])


def _differences(model, evaluator):
    """The curvature of a connection evaluator by ext.curvature_form: one
    central difference of its chart form."""
    return ext.curvature_form(model.form_from_evaluator(evaluator))


def test_chain_curvatures_match_differences(model):
    rng = np.random.default_rng(11)
    pts = _oracle_points(model, rng)
    chains = model.model.chains_to(model.points([pts[0]]).control[0])
    assert len(chains) == 4

    for chain in chains:
        def pair(p, chain=chain):
            v = siegel.TangentVector(p.mc)
            return model.system.chain_curvature(chain, p.control, v)

        fd = _differences(model, lambda p, mc: pair(p)[0])
        for x in pts:
            p = model.points([x])
            omega_c, Omega_c = pair(p)
            # a chain from the point has the point's curvature, the scalar 0
            if chain[0] == "Z":
                assert np.ndim(Omega_c) == 0 and Omega_c == 0.0
            else:
                assert Omega_c.shape == (1, 15, 2, 2)
            assert np.max(np.abs(Omega_c - fd.value(x)[None])) <= 1e-8, chain
            if chain == ("Y", "X"):
                assert np.array_equal(
                    omega_c, model.omega_induced_nomizu(p, p.mc))


@pytest.mark.parametrize("name", ["induced_nomizu", "patched"])
def test_curvature_evaluators_match_differences(model, name):
    curvature = getattr(model, f"curvature_{name}")
    fd = _differences(model, getattr(model, f"omega_{name}"))
    form = ext.VForm(6, 2, lambda xs: curvature(model.points(xs)))
    rng = np.random.default_rng(12)
    worst = scale = 0.0
    for x in _oracle_points(model, rng):
        want = fd.value(x)
        worst = max(worst, float(np.max(np.abs(form.value(x) - want))))
        scale = max(scale, float(np.max(np.abs(want))))
    assert worst <= 1e-8
    assert scale > 1e-3     # the comparison is not between two zeros


@pytest.mark.parametrize("rep", ["sym^3 det^1", "sym^4 det^-2"])
def test_sym_det_members_pass_the_descent_checks(rep):
    # the checks of `verify descent` on a bundle of rank 4 or 5: the
    # structure equation against central differences, and at 16 mixed-tube
    # points the contractions of the raw curvature and of c1 and c2
    m = siegel.SiegelModel(rep)
    rng = np.random.default_rng(25)
    xs = suites._mixed_tube_points(m, rng, 16)
    p = m.points(xs)
    curv = m.curvature_patched(p)
    fd = _differences(m, m.omega_patched).func(np.asarray(xs[:3]))
    assert np.max(np.abs(fd)) > 1e-3
    assert np.max(np.abs(curv[:3] - fd)) <= 1e-8
    es = inv.chern_coefficients(curv, 6, 2)
    raw, c1, c2 = ext.vertical_contraction(
        [(curv, 2), (es[1], 2), (es[2], 4)],
        ext.vertical_vectors(m.projection_map(), xs), rng)
    assert raw > 1e-3
    assert c1 <= 1e-10 and c2 <= 1e-10


@pytest.mark.parametrize("samples, stacks", [(40, [16, 16, 8]), (17, [16, 1])])
def test_descent_makes_one_tower_and_one_contraction_call_per_stack(
        samples, stacks, monkeypatch):
    calls = {"tower": [], "contraction": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(len(args[1] if name == "contraction"
                                    else args[0]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(inv, "chern_coefficients",
                        counted("tower", inv.chern_coefficients))
    monkeypatch.setattr(ext, "vertical_contraction",
                        counted("contraction", ext.vertical_contraction))
    assert suites.suite_descent(seed=3, samples=samples)["pass"]
    assert calls == {"tower": stacks, "contraction": stacks}


def test_point_stacks_of_another_width_are_refused(model):
    # four 3-coordinate points are not two points of the 6-dimensional
    # chart, nor two 6-coordinate points four of a 3-dimensional one
    xs = np.random.default_rng(26).uniform(0.1, 0.4, (4, 3))
    curv = ext.VForm(6, 2, lambda xs: model.curvature_patched(
        model.points(xs)))
    form = model.form_from_evaluator(model.omega_patched)
    for call in (lambda: model.points(xs),
                 lambda: ext.pifiber_check(curv, model.projection_map(), xs),
                 lambda: form.jacobian(xs),
                 lambda: model.projection_map().jacobian(xs)):
        with pytest.raises(PreconditionFailed,
                           match=r"width 6, got shape \(4, 3\)"):
            call()
    spec = liecore.sp2nR(1)
    conn = connections.nomizu_connection(
        spec, hcrepr.builtin_representation(spec, "det^2"))
    with pytest.raises(PreconditionFailed,
                       match=r"width 3, got shape \(2, 6\)"):
        charts.curvature_bridge_residual(spec, conn, np.zeros((2, 6)))
    # one point, as a row or a flat list, is still a stack of one
    x = suites._mixed_tube_points(model, np.random.default_rng(27), 1)[0]
    assert (model.points(x).mc.tobytes()
            == model.points([x]).mc.tobytes())
    for m in (form, model.projection_map()):
        assert m.jacobian(x).shape == m.jacobian([x]).shape[1:]


def test_models_of_one_representation_share_their_lie_data(monkeypatch):
    # a second model of a representation builds no Lie data; its flag model
    # and patched system are its own, and another representation has its own
    # Lie data
    first = siegel.SiegelModel("std")
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((liecore, "parabolic_data"),
                        (hcrepr, "canonical_extension"),
                        (hcrepr, "builtin_representation")):
        counted(owner, name)
    second = siegel.SiegelModel("std")
    assert calls == {}
    assert second.pdK is first.pdK and second.extS is first.extS
    assert second.model is not first.model
    assert second.system is not first.system
    sym2 = siegel.SiegelModel("sym2")
    assert sym2.rep.dim == 3 and sym2.extS is not first.extS
    assert siegel.SiegelModel("sym2").extS is sym2.extS
    # a failed build is not kept: an unknown name raises every time
    for _ in range(2):
        with pytest.raises(UnsupportedFlag, match="unknown representation"):
            siegel.SiegelModel("sym^9")


@pytest.mark.parametrize("rep", ["std", "sym2"])
def test_shared_lie_data_refuses_writes(rep):
    m = siegel.SiegelModel(rep)
    m.extK(np.eye(4))      # the canonical extensions' j(c_1)^{-1} is built
    arrays = [*m.spec.complex_coords, m.rep._dlam, *m._linear.values()]
    for pd in (m.pdK, m.pdS):
        arrays += [pd.basis_u, pd.basis_h, pd.basis_l, pd._proj]
    for e in (m.extK, m.extS):
        arrays += [e.c1, e._dlam, e._jc1_inv]
    # and every array the builders' objects hold, on both groups: the specs,
    # each parabolic, the det^2 and std representations, their extensions
    # with j(c_1)^{-1} built, and the classifier's tables
    for n in (1, 2):
        spec = liecore.sp2nR(n)
        spec.complex_coords
        pds = [liecore.parabolic_data(spec, r) for r in range(1, n + 1)]
        objs = [spec, *pds]
        for name in ("det^2", "std"):
            rep = hcrepr.builtin_representation(spec, name)
            exts = [hcrepr.canonical_extension(rep, pd) for pd in pds]
            if n == 2:
                exts.append(hcrepr.relative_extension(rep, *pds))
            for e in exts:
                e(np.eye(2 * n))
            objs += [rep, *exts]
        arrays += [v for o in objs for v in vars(o).values()
                   if isinstance(v, np.ndarray)]
        # a parabolic's index sets are tuples, which no write can change
        assert all(type(idx) is tuple for pd in pds
                   for idx in (pd.v, pd.vbar, pd.w))
        solver, kb, c = connections._tables(spec)
        arrays += [*solver, kb, c]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a     # the same values: a writable array is unchanged


@pytest.mark.parametrize("P", [1, 3, 13, 40])
def test_a_substack_carries_the_splits_of_its_rows_bit_for_bit(model, P):
    # v[idx] keeps the (h, l) splits made on v, and those of h, each the
    # split of the rows idx alone; no split is made again
    p = model.points(suites._mixed_tube_points(
        model, np.random.default_rng(28), P))
    v = siegel.TangentVector(p.mc[:, [0, 4]])
    model.system.patched(p.control, v)
    assert set(v.parts) == {"Y", "Z"} and set(v.parts["Y"][0].parts) == {"Z"}
    rows = np.arange(P)
    for idx in (slice(0, 1), slice(P // 2, None), slice(None, None, -2),
                rows[::2], rows[::-1], [P - 1]):
        sub = v[idx]
        for Z in ("Y", "Z"):
            fresh = model._split(siegel.TangentVector(v.mc[idx]), Z)
            assert _same_bits(sub.parts[Z][0].mc, fresh[0].mc)
            assert _same_bits(sub.parts[Z][1], fresh[1])
        h = sub.parts["Y"][0]
        fresh = model._split(siegel.TangentVector(h.mc), "Z")
        for a, b in zip((h.parts["Z"][0].mc, h.parts["Z"][1]),
                        (fresh[0].mc, fresh[1])):
            assert _same_bits(a, b)


@pytest.mark.parametrize("P", [1, 3, 13, 40])
def test_a_substack_carries_the_tables_of_its_rows_bit_for_bit(model, P):
    # x[idx] keeps the partition tables built on x, each the table of the
    # rows idx alone, and a truncation pi_Z(x) shares x's tables
    p = model.points(suites._mixed_tube_points(
        model, np.random.default_rng(30), P))
    x, md = p.control, model.model
    model.system.chain_form(x, siegel.TangentVector(p.mc[:, [0, 4]]))
    assert set(x.tables) == {"Z", "Y", "X"}
    assert md.pi(x, "Y").tables is x.tables
    rows = np.arange(P)
    for idx in (slice(0, 1), slice(P // 2, None), slice(None, None, -2),
                rows[::2], rows[::-1], [P - 1], 0, -1):
        sub = x[idx]
        for k, Z in enumerate(x.chain):
            fresh = md.partition_weights(x.chain[:k + 1], sub.r[:, :k])
            assert _same_bits(sub.tables[Z], fresh)


@pytest.mark.parametrize("rep", ["std", "sym2", "det^2", "sym^3 det^1"])
def test_klingen_levi_factor_commutes_with_values_from_Y(rep):
    # G_h and G_l commute, so lambda_1(g_l) at a section commutes with every
    # value an induced connection takes from Y: the Nomizu values on Y and
    # those induced on Y from the point
    m = siegel.SiegelModel(rep)
    rng = np.random.default_rng(18)
    xs = [_sample_x(rng) for _ in range(4)] + [_mixed_x(m, rng) for _ in range(4)]
    p = m.points(xs)
    lam = m.extK(liecore.group_factor_fine(m.pdK, siegel.section(
        np.array(xs))))[:, None]
    hdot = m.pdK.split(p.mc)[1]
    vals = np.concatenate([m.omega_Y_nomizu(hdot), _from_point(m, hdot)],
                          axis=1)
    assert np.max(np.abs(lam - np.eye(m.rep.dim))) > 0.1
    assert np.max(np.abs(vals)) > 0.1
    assert np.max(np.abs(lam @ vals - vals @ lam)) <= 1e-15


def test_curvature_evaluators_take_no_differences(model, monkeypatch):
    # one Klingen split of theta, and no Klingen factor: an induced
    # connection is extK.alg(ldot) + val, with no conjugation
    calls = dict.fromkeys(["split", "factor", "extension"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def no_differences(*args):
        raise AssertionError("a curvature evaluator took a difference")

    _count_klingen_splits(model, monkeypatch, calls)
    monkeypatch.setattr(liecore, "group_factor_fine",
                        counted("factor", liecore.group_factor_fine))
    monkeypatch.setattr(hcrepr.CanonicalExtension, "__call__",
                        counted("extension", hcrepr.CanonicalExtension.__call__))
    monkeypatch.setattr(ext.SmoothMap, "jacobian", no_differences)
    x = _mixed_x(model, np.random.default_rng(13))
    for curvature in (model.curvature_induced_nomizu, model.curvature_patched):
        calls.update(dict.fromkeys(calls, 0))
        curvature(model.points([x]))
        assert calls == {"split": 1, "factor": 0, "extension": 0}


def test_bump_profile_derivative_matches_differences():
    s = strata.BumpProfile()
    h = 1e-6
    for x in np.linspace(0.505, 0.745, 25):
        fd = (s(x + h) - s(x - h)) / (2 * h)
        assert abs(s.derivative(x) - fd) <= 1e-6 * max(1.0, abs(fd))
    for x in (-1.0, 0.0, 0.25, 0.5, 0.75, 0.9, 3.0):
        assert s.derivative(x) == 0.0
    # nearer the knots than exp(-1/t) resolves: 0, with no overflow
    for x in (0.5 + 1e-170, 0.75 - 1e-13):
        assert s.derivative(x) == 0.0


def _central(f, x, k, h=1e-7):
    """Central difference of f at the model points x along the tube
    distance k."""
    shifted = []
    for step in (h, -h):
        r = x.r.copy()
        r[:, k] += step
        shifted.append(f(strata.ModelPoint(x.chain, r)))
    return (shifted[0] - shifted[1]) / (2 * h)


def test_chain_weight_gradients_match_differences(model):
    md = model.model
    rng = np.random.default_rng(14)
    epsilons = [md.eps(Z) for Z in ("Z", "Y", "X")]
    # each distance near the transition band of one of the epsilons
    x = md.point(("Z", "Y", "X"), [
        [float(rng.choice(epsilons) * rng.uniform(0.45, 0.8))
         for _ in range(2)] for _ in range(40)])
    steepest = 0.0
    for chain, w, grad in md.chain_form_weight_grad(x):
        assert grad.shape == (40, 2)
        assert w.tobytes() == dict(md.chain_form_weights(x))[chain].tobytes()
        steepest = max(steepest, float(np.max(np.abs(grad))))
        for k in range(2):
            fd = _central(lambda y: dict(md.chain_form_weights(y))[chain],
                          x, k)
            assert (np.abs(grad[:, k] - fd)
                    <= 1e-5 * np.maximum(1.0, np.abs(fd))).all(), (chain, k)
    for Y in x.chain:
        for eps in (md.eps("Z"), md.eps("X")):
            grad = md.B_grad(Y, eps, x)
            for k in range(2):
                fd = _central(lambda y: md.B(Y, eps, y), x, k)
                assert (np.abs(grad[:, k] - fd)
                        <= 1e-5 * np.maximum(1.0, np.abs(fd))).all()
    assert steepest > 1.0     # the points reach the transition bands


@pytest.mark.parametrize("rep", ["std", "sym2", "det^2", "sym^3 det^1"])
def test_stacked_points_match_one_point_at_a_time(rep):
    m = siegel.SiegelModel(rep)
    rng = np.random.default_rng(16)
    xs = [_sample_x(rng) for _ in range(3)] + [_mixed_x(m, rng) for _ in range(3)]
    stack = m.points(xs)
    assert stack.mc.shape == (6, 6, 4, 4) and len(stack.control) == 6
    curv = m.curvature_induced_nomizu(stack)
    assert curv.shape == (6, 15, m.rep.dim, m.rep.dim)
    patched = m.curvature_patched(stack)
    omega = m.omega_patched(stack, stack.mc)
    for n, (x, p) in enumerate(zip(xs, stack)):
        one = m.points([x])
        assert np.array_equal(p.mc, one.mc)
        assert p.control.chain == one.control.chain
        assert _same_bits(p.control.r, one.control.r)
        assert np.array_equal(curv[n], m.curvature_induced_nomizu(one)[0])
        assert np.array_equal(patched[n], m.curvature_patched(one)[0])
        assert np.array_equal(omega[n], m.omega_patched(one, one.mc)[0])
    # a slice of the stack is the stack of those points
    assert np.array_equal(m.curvature_induced_nomizu(stack[2:5]), curv[2:5])


def test_an_int_view_is_the_one_point_stack():
    m = siegel.SiegelModel("std")
    rng = np.random.default_rng(17)
    xs = [_sample_x(rng) for _ in range(2)] + [_mixed_x(m, rng) for _ in range(2)]
    stack = m.points(xs)
    patched = m.curvature_patched(stack)
    induced = m.curvature_induced_nomizu(stack)
    for n in range(len(xs)):
        p, run = stack[n], stack[n:n + 1]
        assert _same_bits(p.x, run.x) and _same_bits(p.mc, run.mc)
        assert p.control.chain == run.control.chain
        assert _same_bits(p.control.r, run.control.r)
        assert _same_bits(m.curvature_patched(p)[0], patched[n])
        assert _same_bits(m.curvature_induced_nomizu(p)[0], induced[n])
    assert _same_bits(stack[-1].mc, stack[3:4].mc)
    for n in (4, -5):
        with pytest.raises(IndexError):
            stack[n]
    assert len(list(stack)) == 4


def test_an_int_tangent_vector_is_the_one_row_substack(model):
    # v[n] keeps the row axis, as p[n] does, with or without splits made:
    # the patched connection at one point of a two-direction stack is row
    # n of the stacked value
    p = model.points(suites._mixed_tube_points(
        model, np.random.default_rng(31), 3))
    v = siegel.TangentVector(p.mc[:, [0, 4]])
    stacked = model.system.patched(p.control, v)
    for n in range(-3, 3):
        for w in (v, siegel.TangentVector(p.mc[:, [0, 4]])):
            got = model.system.patched(p.control[n], w[n])
            assert _same_bits(got, stacked[[n]])
    for n in (3, -4):
        with pytest.raises(IndexError):
            v[n]
        with pytest.raises(IndexError):
            p.control[n]


@pytest.mark.parametrize("rep", ["std", "sym2", "det^2", "sym^3 det^1"])
def test_structure_equation_tables_match_the_callable_reference(rep):
    # the Nomizu connections are tables composed once, on a real stack with
    # no complex cast; the reference applies lam_alg or extK.alg to the
    # Cartan k-part at call time, on t and its brackets concatenated.  Values
    # and curvatures match bit for bit, but for the tables of X on sym2 and
    # sym^3 det^1, whose composed rows round otherwise: there to 1e-15 of
    # the largest entry.
    # connections.structure_curvature with the callable reference is the
    # reference bit for bit.
    m = siegel.SiegelModel(rep)
    k = liecore.cartan_split
    reference = {"X": lambda t: m.rep.lam_alg(k(t)[0]),
                 "Y": lambda t: m.extK.alg(k(t)[0])}
    assert set(m.system.nomizu) == {"X", "Y", "Z"}
    assert m.system.nomizu["Z"] is None
    xs = suites._mixed_tube_points(m, np.random.default_rng(19), 67)
    for P in (1, 7, 16, 67):
        p = m.points(xs[:P])
        v = siegel.TangentVector(p.mc)
        hdot = m.system.project(v, "Y")
        for key, F in reference.items():
            # over X the geometric point is v, over Y it is hdot; each
            # stratum's chain of one is its own connection
            g, pts = ((v, p.control) if key == "X"
                      else (hdot, m.model.pi(p.control, "Y")))
            t = g.mc
            got = m.system.chain_curvature((key,), pts, g)
            ref = structure_reference(F, t)
            for a, b in zip(got, ref):
                if key == "X" and rep.startswith("sym"):
                    assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
                else:
                    assert np.array_equal(a, b), (key, P)
            for a, b in zip(connections.structure_curvature(F, t), ref):
                assert np.array_equal(a, b), (key, P)
        assert np.array_equal(m.curvature_induced_nomizu(p),
                              structure_reference(reference["Y"], hdot.mc)[1])


@pytest.mark.parametrize("rep", ["std", "sym2", "det^2", "sym^3 det^1"])
def test_connections_induced_from_the_point_are_flat(rep):
    # the patched curvature gives a chain from the point the point's zero
    # curvature; the structure equation of the connection induced from the
    # point, on theta over X and on hdot over Y, the oracle, leaves only
    # rounding
    m = siegel.SiegelModel(rep)
    xs = suites._mixed_tube_points(m, np.random.default_rng(21), 67)
    for P in (1, 7, 16, 67):
        p = m.points(xs[:P])
        hdot = m.system.project(siegel.TangentVector(p.mc), "Y")
        for over, t in (("X", p.mc), ("Y", hdot.mc)):
            value, curvature = structure_reference(
                lambda mc: _from_point(m, mc), t)
            assert np.max(np.abs(value)) > 1e-2     # not two zeros
            assert (np.max(np.abs(curvature))
                    <= 1e-15 * np.max(np.abs(value))), (over, P)


def test_patched_curvature_at_the_point_stratum_is_zero(model):
    # the point carries the zero connection, the scalar 0.0: its one chain
    # adds w Omega = 0 alone, an all-zero stack that broadcasts against the
    # (P, 15, d, d) coefficients of any other point
    curv = model.system.curvature(model.model.point(("Z",), np.zeros((2, 0))),
                                  None, np.zeros((2, 0, 6)))
    assert not curv.any()
    assert np.broadcast_shapes(curv.shape, (2, 15, 1, 1)) == (2, 15, 1, 1)


def _combination_reference(terms):
    """ext.combination_curvature with every connection an array: the sum
    written out, for the terms of a point off the point stratum."""
    omega = Omega = 0.0
    for w, dw, om, Om in terms:
        w = np.reshape(w, np.shape(w) + (1, 1, 1))
        omega = omega + w * om
        Omega = (Omega + ext.wedge_pairs(dw, om)
                 + w * (Om - ext.bracket_pairs(om)))
    return Omega + ext.bracket_pairs(omega)


def test_patched_curvature_on_the_plane_stratum_keeps_its_bits(model):
    # points on (Z, Y), hdot their geometric points: the chain (Z, Y) has
    # the curvature 0.0 of the point but the array value induced from it
    xs = suites._mixed_tube_points(model, np.random.default_rng(23), 7)
    p = model.points(xs)
    hdot = model.system.project(siegel.TangentVector(p.mc), "Y")
    pts = model.model.pi(p.control, "Y")
    assert pts.chain == ("Z", "Y")
    dr = np.zeros((len(xs), 1, 6))
    dr[:, 0, 3] = -pts.r[:, 0] ** 2
    system = model.system
    terms = [(w, (grad[:, None] @ dr)[:, 0]) + system.chain_curvature(
        c, pts, hdot) for c, w, grad in model.model.chain_form_weight_grad(pts)]
    assert all(np.ndim(om) for _, _, om, _ in terms)
    assert np.array_equal(system.curvature(pts, hdot, dr),
                          _combination_reference(terms))


def test_descent_oracle_fails_for_a_pullback_that_is_not_induced(monkeypatch):
    # the patched curvature takes a chain's curvature from its first stratum
    # alone; a pullback from the point that is the non-flat Nomizu
    # connection breaks that, and the difference oracle of descent sees it
    init = siegel.SiegelModel.__init__

    def not_induced(self, *args):
        init(self, *args)
        self.system.induced["Z"] = lambda v, val: self.omega_nomizu(v.mc)

    monkeypatch.setattr(siegel.SiegelModel, "__init__", not_induced)
    check = {c["name"]: c for c in suites.suite_descent()["checks"]}[
        "structure-equation-vs-differences"]
    assert not check["pass"] and check["max_residual"] > 1e-4


def test_klingen_factor_names_the_row_outside_the_parabolic(model):
    rng = np.random.default_rng(17)
    s = siegel.section(np.array([_sample_x(rng) for _ in range(5)]))
    liecore.group_factor_fine(model.pdK, s)
    s[3] = liecore.exp_grp(model.spec, 0.5 * liecore.from_coords(
        rng.standard_normal(10), liecore.algebra_basis(model.spec)))
    with pytest.raises(DecompositionError, match=r"\(row 3\)$"):
        liecore.group_factor_fine(model.pdK, s)
