import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chernpatch import liecore
from chernpatch.errors import DecompositionError

SPECS = [liecore.sp2nR(2), liecore.sp2nR(3), liecore.su_pq(1, 1),
         liecore.su_pq(2, 1), liecore.su2(), liecore.u_n(2)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + str((s.n, s.p, s.q)))
def test_algebra_basis_members(spec):
    for b in liecore.algebra_basis(spec):
        assert liecore.alg_residual(spec, b) < 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + str((s.n, s.p, s.q)))
def test_exp_lands_in_group(spec):
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = liecore.exp_grp(spec, liecore.random_alg(spec, rng, 0.4))
        assert liecore.grp_residual(spec, g) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_exp_log_roundtrip(seed):
    spec = liecore.sp2nR(2)
    rng = np.random.default_rng(seed)
    X = liecore.random_alg(spec, rng, 0.3)
    g = liecore.exp_grp(spec, X)
    assert np.max(np.abs(liecore.log_alg(spec, g) - X)) < 1e-9


def test_log_rejects_only_a_real_nonpositive_eigenvalue():
    # exp(2.2 R + log 2 H) has eigenvalues -0.589 +- 0.808i, 2 and 0.5: some
    # eigenvalue has real part <= 0 and some is real, but no eigenvalue is
    # both, so the principal log exists.
    spec = liecore.sp2nR(2)
    R = np.zeros((4, 4)); R[0, 2] = 1.0; R[2, 0] = -1.0   # rotation (e0, f0)
    H = np.diag([0.0, 1.0, 0.0, -1.0])                     # hyperbolic (e1, f1)
    X = 2.2 * R + np.log(2.0) * H
    assert np.max(np.abs(liecore.log_alg(spec, liecore.exp_grp(spec, X)) - X)) < 1e-10
    # exp(pi R) has the real eigenvalue -1: no principal log
    with pytest.raises(DecompositionError):
        liecore.log_alg(spec, liecore.exp_grp(spec, np.pi * R))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bracket_stays_in_algebra(seed):
    spec = liecore.su_pq(2, 1)
    rng = np.random.default_rng(seed)
    X = liecore.random_alg(spec, rng)
    Y = liecore.random_alg(spec, rng)
    assert liecore.alg_residual(spec, liecore.bracket(X, Y)) < 1e-10


def test_cartan_split_recombines():
    spec = liecore.sp2nR(3)
    rng = np.random.default_rng(1)
    X = liecore.random_alg(spec, rng)
    k, p = liecore.cartan_split(spec, X)
    assert np.max(np.abs(k + p - X)) < 1e-12
    assert np.max(np.abs(liecore.cartan_theta(spec, k) - k)) < 1e-12
    assert np.max(np.abs(liecore.cartan_theta(spec, p) + p)) < 1e-12


@pytest.mark.parametrize("flag,dims", [
    ((2,), (3, 0, 4)),
    ((1,), (3, 3, 1)),
    ((1, 2), (4, 0, 2)),
])
def test_sp4_parabolic_dimensions(flag, dims):
    pd = liecore.parabolic_data(liecore.sp2nR(2), flag)
    assert pd.dims == dims


def test_parabolic_split_sums_back():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, (1,))
    rng = np.random.default_rng(2)
    c = rng.standard_normal(len(pd.basis_q))
    X = liecore.from_coords(c, pd.basis_q)
    u, h, l = pd.split(X)
    assert np.max(np.abs(u + h + l - X)) < 1e-8


def test_split_rejects_outside_parabolic():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, (2,))
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = liecore.random_alg(spec, rng)
        if not pd.contains_alg(X):
            with pytest.raises(DecompositionError):
                pd.split(X)
            return
    pytest.fail("no element outside the parabolic found")


def test_group_factor_recomposes():
    spec = liecore.sp2nR(2)
    rng = np.random.default_rng(4)
    for flag in [(1,), (2,)]:
        pd = liecore.parabolic_data(spec, flag)
        c = 0.3 * rng.standard_normal(len(pd.basis_q))
        g = liecore.exp_grp(spec, liecore.from_coords(c, pd.basis_q))
        u, g_h, g_l = liecore.group_factor(pd, g)
        assert np.max(np.abs(u @ g_h @ g_l - g)) < 1e-8


def test_group_factor_fine_recomposes():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, (1, 2))
    rng = np.random.default_rng(5)
    c = 0.25 * rng.standard_normal(len(pd.basis_q))
    g = liecore.exp_grp(spec, liecore.from_coords(c, pd.basis_q))
    u1, g_1h, u_rel, g_ql = liecore.group_factor_fine(pd, g)
    assert np.max(np.abs(u1 @ g_1h @ u_rel @ g_ql - g)) < 1e-8
