import numpy as np
import pytest

from chernpatch import connections, hcrepr, liecore, siegel
from chernpatch.errors import (CommutationHypothesisFailed, ConditionViolation,
                               DecompositionError)


def _su11(rep_name="weight:2"):
    spec = liecore.su_pq(1, 1)
    return spec, hcrepr.builtin_representation(spec, rep_name)


def test_nomizu_accepted():
    spec, rep = _su11()
    conn = connections.nomizu_connection(spec, rep)
    assert conn is not None


def test_nomizu_curvature_oracle():
    # curvature on horizontal pairs is -lambda'([p1, p2])
    spec, rep = _su11()
    conn = connections.nomizu_connection(spec, rep)
    p1, p2 = connections.p_basis(spec)
    expected = -rep.lam_alg(liecore.bracket(p1, p2))
    assert np.max(np.abs(conn.curvature0(p1, p2) - expected)) < 1e-12


def test_flat_connection_is_flat():
    # the standard representation restricted to K extends to the group,
    # so the inclusion is a Lie algebra homomorphism and the connection
    # it defines is flat
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    basis = liecore.algebra_basis(spec)
    hom = [np.asarray(b, dtype=complex) for b in basis]
    conn = connections.flat_connection_from_hom(spec, rep, hom)
    assert conn.is_flat()


def test_perturbation_on_k_rejected_with_condition_one():
    spec, rep = _su11()
    nom = connections.nomizu_connection(spec, rep)
    basis = liecore.algebra_basis(spec)
    kidx = next(i for i, b in enumerate(basis)
                if np.allclose(liecore.cartan_split(spec, b)[1], 0))
    vals = [v.copy() for v in nom.values]
    vals[kidx] = vals[kidx] + 0.1
    with pytest.raises(ConditionViolation) as exc:
        connections.make_invariant_connection(spec, rep, vals)
    assert 1 in exc.value.conditions


def test_perturbation_on_p_rejected_with_condition_two():
    spec, rep = _su11()
    nom = connections.nomizu_connection(spec, rep)
    basis = liecore.algebra_basis(spec)
    pidx = next(i for i, b in enumerate(basis)
                if not np.allclose(liecore.cartan_split(spec, b)[1], 0))
    vals = [v.copy() for v in nom.values]
    vals[pidx] = vals[pidx] + np.array([[0.2]])
    with pytest.raises(ConditionViolation) as exc:
        connections.make_invariant_connection(spec, rep, vals)
    assert 2 in exc.value.conditions
    assert 1 not in exc.value.conditions


@pytest.mark.parametrize("spec,rep_name", [
    (liecore.su_pq(1, 1), "weight:2"), (liecore.sp2nR(2), "std")])
def test_omega0_matches_lstsq_coordinates(spec, rep_name):
    rep = hcrepr.builtin_representation(spec, rep_name)
    conn = connections.nomizu_connection(spec, rep)
    B = np.stack([liecore._vec(b) for b in conn.basis], axis=1)
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = liecore.random_alg(spec, rng)
        c, *_ = np.linalg.lstsq(B, liecore._vec(X), rcond=None)
        ref = sum(ci * v for ci, v in zip(c, conn.values))
        assert np.max(np.abs(conn.omega0(X) - ref)) < 1e-12
    with pytest.raises(DecompositionError,
                       match="matrix not in the spanned Lie algebra"):
        conn.omega0(np.eye(spec.size))


def test_induced_connection_ad_commutation_guard():
    m = siegel.SiegelModel("std")
    assert connections.check_ad_commutation(
        m.pdK, m.rep, lambda _, h: m.omega_Y_nomizu(h)) <= connections.TOL
    # negative control: a constant nilpotent base form is not Ad-invariant
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(CommutationHypothesisFailed):
        connections.check_ad_commutation(m.pdK, m.rep, lambda _, h: nil)


def test_chain_difference_nilpotent():
    spec = liecore.sp2nR(2)
    rep = hcrepr.builtin_representation(spec, "std")
    pd = liecore.parabolic_data(spec, (1, 2))
    # difference of unipotent radical images is nilpotent
    rng = np.random.default_rng(1)
    c = rng.standard_normal(len(pd.basis_q))
    X = liecore.from_coords(c, pd.basis_q)
    u, _, _ = pd.split(X)
    val = connections.chain_difference_nilpotent(pd, rep, u)
    # the returned image is strictly nilpotent
    p = val.copy()
    for _ in range(val.shape[0] - 1):
        p = p @ val
    assert np.max(np.abs(p)) < 1e-9
