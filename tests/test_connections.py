from itertools import combinations

import numpy as np
import pytest

from chernpatch import charts, connections, hcrepr, liecore, suites
from chernpatch.errors import (ConditionViolation, DecompositionError,
                               PreconditionFailed)
from helpers import (classification_reference, gram_schmidt, random_alg,
                     real_vec, structure_reference)


def _sp2(rep_name="det^2"):
    spec = liecore.sp2nR(1)
    return spec, hcrepr.builtin_representation(spec, rep_name)


def test_nomizu_accepted():
    spec, rep = _sp2()
    conn = connections.nomizu_connection(spec, rep)
    assert conn is not None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["sym^3 det^1", "sym^4 det^-2"])
def test_nomizu_accepted_on_the_sym_det_members(n, name):
    # the classification accepts the Nomizu connection, and its curvature
    # on each horizontal pair is -lambda'([p_i, p_j])
    spec = liecore.sp2nR(n)
    rep = hcrepr.builtin_representation(spec, name)
    conn = connections.nomizu_connection(spec, rep)
    pb = np.array(connections.p_basis(spec))
    i, j = np.triu_indices(len(pb), 1)
    want = -rep.lam_alg(liecore.bracket(pb[i], pb[j]))
    assert np.max(np.abs(want)) > 1e-3
    assert np.max(np.abs(conn.curvature0(pb) - want)) <= 1e-12


def test_nomizu_builds_the_ambient_basis_and_its_solver_once(monkeypatch):
    # one algebra_basis and one span_solver of that basis serve the whole
    # classification and the connection; the next call of the spec reuses
    # them.  algebra_basis is itself cached per spec, so its builds are
    # counted by the one sym_basis call each makes
    calls = {"sym_basis": 0, "span_solver": 0}

    def counted(name):
        fn = getattr(liecore, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(liecore, name, counted(name))
    liecore.algebra_basis.cache_clear()
    connections._tables.cache_clear()
    spec, rep = _sp2()
    for _ in range(2):
        conn = connections.nomizu_connection(spec, rep)
        assert conn.omega0(conn.basis).shape == (3, 1, 1)
        assert calls == {"sym_basis": 1, "span_solver": 1}
    assert conn.basis is liecore.algebra_basis(liecore.sp2nR(1))
    assert connections._tables(spec) is connections._tables(spec)
    with pytest.raises(ValueError, match="read-only"):
        conn.basis[0, 0, 0] = 2.0


def _pair_curvature(conn, X, Y):
    """Omega_0(X, Y) = [omega_0 X, omega_0 Y] - omega_0([X, Y]), one pair."""
    a, b = conn.omega0(X), conn.omega0(Y)
    return a @ b - b @ a - conn.omega0(X @ Y - Y @ X)


def test_nomizu_curvature_oracle():
    # curvature on horizontal pairs is -lambda'([p1, p2]); the p-basis of
    # sp(2) has the one pair (p1, p2)
    spec, rep = _sp2()
    conn = connections.nomizu_connection(spec, rep)
    p1, p2 = connections.p_basis(spec)
    curv = conn.curvature0(np.array([p1, p2]))
    assert curv.shape == (1, rep.dim, rep.dim)
    expected = -rep.lam_alg(liecore.bracket(p1, p2))
    assert np.max(np.abs(curv[0] - expected)) < 1e-12
    assert np.max(np.abs(curv[0] - _pair_curvature(conn, p1, p2))) < 1e-12


def _std_restriction():
    """The standard representation of sp(2) restricted to K, and its tables
    in complex and in defining coordinates: lamC takes K(C) in complex
    coordinates, so only the first is its flat inclusion."""
    spec = liecore.sp2nR(1)
    rep = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    basis = np.array(liecore.algebra_basis(spec))
    M, Minv = spec.complex_coords
    return spec, rep, np.array([M @ b @ Minv for b in basis]), basis


def test_flat_connection_is_flat():
    # the standard representation restricted to K extends to the group,
    # so the inclusion is a Lie algebra homomorphism and the connection
    # it defines is flat
    spec, rep, values, basis = _std_restriction()
    conn = connections.make_invariant_connection(spec, rep, values)
    assert conn.is_flat()
    # in defining coordinates it restricts to the wrong map on k, and does
    # not commute with it
    with pytest.raises(ConditionViolation) as exc:
        connections.make_invariant_connection(spec, rep, basis)
    assert exc.value.conditions == [1, 2]


def test_perturbation_on_k_rejected_with_condition_one():
    spec, rep = _sp2()
    nom = connections.nomizu_connection(spec, rep)
    basis = liecore.algebra_basis(spec)
    # no basis element of sp(2) lies in k: add 0.1 <X, k> for the unit k
    # spanning it, which vanishes on p
    (k,) = connections.k_basis(spec)
    shift = np.array([np.sum(b * k) for b in basis])
    vals = nom.values + 0.1 * shift[:, None, None]
    with pytest.raises(ConditionViolation) as exc:
        connections.make_invariant_connection(spec, rep, vals)
    assert 1 in exc.value.conditions


def test_perturbation_on_p_rejected_with_condition_two():
    spec, rep = _sp2()
    nom = connections.nomizu_connection(spec, rep)
    basis = liecore.algebra_basis(spec)
    pidx = next(i for i, b in enumerate(basis)
                if np.allclose(liecore.cartan_split(b)[0], 0))
    vals = [v.copy() for v in nom.values]
    vals[pidx] = vals[pidx] + np.array([[0.2]])
    with pytest.raises(ConditionViolation) as exc:
        connections.make_invariant_connection(spec, rep, vals)
    assert 2 in exc.value.conditions
    assert 1 not in exc.value.conditions


def test_nan_value_rejected():
    # each condition is written residual <= tol, so a NaN residual fails it
    spec, rep = _sp2()
    vals = [v.copy() for v in connections.nomizu_connection(spec, rep).values]
    vals[0] = np.full((1, 1), np.nan)
    with pytest.raises(ConditionViolation):
        connections.make_invariant_connection(spec, rep, vals)


def _perturbed_tables(count, seed=5):
    """The Nomizu det^2 table of sp(2) with one value per copy moved by
    0.1 (a + ib), a and b standard normal; the first three copies move
    the basis elements 0, 1, 2 in turn, so that both conditions occur."""
    spec, rep = _sp2()
    vals = np.repeat(connections.nomizu_connection(spec, rep).values[None],
                     count, axis=0)
    rng = np.random.default_rng(seed)
    for s, i in enumerate([0, 1, 2] + list(rng.integers(3, size=count - 3))):
        vals[s, i] += 0.1 * (rng.standard_normal(vals[s, i].shape)
                             + 1j * rng.standard_normal(vals[s, i].shape))
    return spec, rep, vals


def _violated(r):
    return [n for n in (1, 2) if not r[n] <= connections.TOL]


def test_stacked_residuals_match_the_reference():
    # each table of a stack, classified in one pass, against one omega0
    # evaluation per side of each condition on that table alone
    spec, rep, vals = _perturbed_tables(24)
    std_spec, std_rep, std_vals, std_basis = _std_restriction()
    for g, lam, stack in ((spec, rep, vals),
                          (std_spec, std_rep, np.array([std_vals, std_basis]))):
        got = connections.condition_residuals(g, lam, stack)
        assert got.shape == (len(stack), 2)
        for r, table in zip(got, stack):
            ref = classification_reference(g, lam, table)
            assert _violated(dict(enumerate(r, 1))) == _violated(ref)
            np.testing.assert_allclose(r, [ref[1], ref[2]], rtol=1e-14,
                                       atol=1e-14 * np.abs(table).max())
    assert [_violated(classification_reference(spec, rep, t))
            for t in vals[:3]] == [[2], [1, 2], [1, 2]]
    assert [_violated(classification_reference(std_spec, std_rep, t))
            for t in (std_vals, std_basis)] == [[], [1, 2]]


def test_a_nan_table_rejects_itself_alone():
    spec, rep = _sp2()
    vals = np.repeat(connections.nomizu_connection(spec, rep).values[None],
                     7, axis=0)
    vals[3, 1] = np.nan
    r = connections.condition_residuals(spec, rep, vals)
    assert np.isnan(r[3]).all()
    assert (np.delete(r, 3, axis=0) <= connections.TOL).all()


def test_classify_names_condition_one_for_a_k_part(monkeypatch):
    # a classifier blind to condition (1) must fail the check that the
    # violated condition is named, as perturbed elements with a K part
    # then report (2) alone
    assert suites.run_suite("classify", seed=0, samples=30)["pass"]
    residuals = connections.condition_residuals

    def blind(spec, rep, values):
        r = residuals(spec, rep, values)
        r[..., 0] = 0.0
        return r

    monkeypatch.setattr(connections, "condition_residuals", blind)
    report = suites.run_suite("classify", seed=0, samples=30)
    status = {c["name"]: c["pass"] for c in report["checks"]}
    assert status == {"model-connections-accepted": True,
                      "perturbations-rejected": True,
                      "violated-condition-identified": False}


def test_classify_makes_three_classifier_calls_whatever_the_samples(
        monkeypatch):
    # the Nomizu connection, the flat example and one stack of all the
    # perturbed tables
    calls = []
    residuals = connections.condition_residuals

    def counted(spec, rep, values):
        calls.append(np.shape(values))
        return residuals(spec, rep, values)

    monkeypatch.setattr(connections, "condition_residuals", counted)
    for samples in (10, 100):
        calls.clear()
        assert suites.run_suite("classify", seed=7, samples=samples)["pass"]
        assert calls == [(3, 1, 1), (3, 2, 2), (samples, 3, 1, 1)]


def test_values_of_wrong_count_or_shape_rejected():
    spec, rep = _sp2()
    vals = list(connections.nomizu_connection(spec, rep).values)
    for bad in (vals + [np.zeros((1, 1))], vals[:-1],
                vals[:-1] + [np.zeros((2, 2))]):
        with pytest.raises(PreconditionFailed, match="values of shape"):
            connections.make_invariant_connection(spec, rep, bad)


@pytest.mark.parametrize("spec,rep_name", [
    (liecore.sp2nR(1), "det^2"), (liecore.sp2nR(2), "std"),
    (liecore.sp2nR(2), "sym2"), (liecore.sp2nR(2), "sym^3 det^1")])
def test_omega0_and_curvature0_on_a_stack(spec, rep_name):
    # curvature0 of a (6, 4, N, N) stack: the six pairs i < j of each of
    # the six rows, in combinations order, each the pairwise formula
    rep = hcrepr.builtin_representation(spec, rep_name)
    conn = connections.nomizu_connection(spec, rep)
    rng = np.random.default_rng(4)
    t = np.array([[random_alg(spec, rng) for _ in range(4)]
                  for _ in range(6)])
    om, curv = conn.omega0(t), conn.curvature0(t)
    assert om.shape == (6, 4, rep.dim, rep.dim)
    assert curv.shape == (6, 6, rep.dim, rep.dim)
    for k in range(6):
        for n, (i, j) in enumerate(combinations(range(4), 2)):
            assert np.max(np.abs(om[k, i] - conn.omega0(t[k, i]))) < 1e-14
            ref = _pair_curvature(conn, t[k, i], t[k, j])
            assert np.max(np.abs(curv[k, n] - ref)) < 1e-14


@pytest.mark.parametrize("spec,rep_name", [
    (liecore.sp2nR(1), "det^2"), (liecore.sp2nR(2), "std"),
    (liecore.sp2nR(2), "sym2"), (liecore.sp2nR(2), "sym^3 det^1")])
def test_structure_curvature_matches_the_reference(spec, rep_name):
    # on Maurer-Cartan stacks of 1, 7, 16 and 67 chart points, F = omega0
    # of the Nomizu connection: the reference maps t and its brackets in
    # one omega0 call, bit for bit the two calls of structure_curvature
    conn = connections.nomizu_connection(
        spec, hcrepr.builtin_representation(spec, rep_name))
    chart = charts.GroupChart(spec)
    xs = np.random.default_rng(8).uniform(-0.3, 0.3, (67, chart.dim))
    for P in (1, 7, 16, 67):
        t = chart.mc_coeff(xs[:P])
        got = connections.structure_curvature(conn.omega0, t)
        for a, b in zip(got, structure_reference(conn.omega0, t)):
            assert np.array_equal(a, b), P
        assert np.array_equal(conn.curvature0(t), got[1])


@pytest.mark.parametrize("spec,rep_name", [
    (liecore.sp2nR(1), "det^2"), (liecore.sp2nR(2), "std")])
def test_omega0_matches_lstsq_coordinates(spec, rep_name):
    rep = hcrepr.builtin_representation(spec, rep_name)
    conn = connections.nomizu_connection(spec, rep)
    B = np.stack([real_vec(b) for b in conn.basis], axis=1)
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = random_alg(spec, rng)
        c, *_ = np.linalg.lstsq(B, real_vec(X), rcond=None)
        ref = sum(ci * v for ci, v in zip(c, conn.values))
        assert np.max(np.abs(conn.omega0(X) - ref)) < 1e-12
    with pytest.raises(DecompositionError,
                       match="matrix not in the spanned Lie algebra"):
        conn.omega0(np.eye(spec.size))


def test_omega0_refuses_a_non_real_element():
    spec = liecore.sp2nR(2)
    conn = connections.nomizu_connection(
        spec, hcrepr.builtin_representation(spec, "std"))
    X = random_alg(spec, np.random.default_rng(8))
    conn.omega0(X)
    with pytest.raises(DecompositionError,
                       match="matrix not in the spanned Lie algebra$"):
        conn.omega0(X + 1e-3j * X)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cartan_bases_match_gram_schmidt(n):
    # the kept Cartan parts of the elementary basis, against Gram-Schmidt on
    # all of them: the same elements, in order and sign
    spec = liecore.sp2nR(n)
    parts = liecore.cartan_split(np.array(liecore.algebra_basis(spec)))
    for got, mats in ((connections.k_basis(spec), parts[0]),
                      (connections.p_basis(spec), parts[1])):
        ref = gram_schmidt(mats)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-15
            assert np.array_equal(np.sign(a), np.sign(b))
