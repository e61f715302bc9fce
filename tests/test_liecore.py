import dataclasses
import hashlib
import json
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from chernpatch import liecore
from chernpatch.errors import DecompositionError, PreconditionFailed, UnsupportedFlag
from helpers import alg_residual, fine_factor_reference, random_alg, real_vec

SPECS = [liecore.sp2nR(1), liecore.sp2nR(2), liecore.sp2nR(3)]

# Parametrized parabolic cases keep the ids they had when a parabolic took
# a tuple of ranks: a rank r shows as (r,), or as flagN, N the place of its
# case in that earlier list.


def _id(spec):
    return f"sp2nR({spec.n})"


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_algebra_basis_members(spec):
    for b in liecore.algebra_basis(spec):
        assert alg_residual(spec, b) < 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=_id)
def test_exp_lands_in_group(spec):
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = liecore.exp_grp(spec, random_alg(spec, rng, 0.4))
        assert liecore.grp_residual(spec, g) < 1e-10


# not sp(2): on its draws here scipy's expm is itself off by up to 1.2e-13
# of the largest entry, against 1e-15 for exp_grp (both checked in
# 50-digit arithmetic)
@pytest.mark.parametrize("spec", SPECS[1:], ids=_id)
def test_exp_grp_matches_scipy(spec):
    rng = np.random.default_rng(3)
    for scale in (0.2, 1.0, 3.0):
        for _ in range(3):
            X = random_alg(spec, rng, scale)
            ref = scipy.linalg.expm(X)
            err = np.max(np.abs(liecore.exp_grp(spec, X) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", [liecore.sp2nR(2)], ids=lambda s: "sp2nR")
def test_membership_per_family(spec):
    basis = liecore.algebra_basis(spec)
    for X in basis:
        assert alg_residual(spec, X) <= 1e-12
        assert liecore.grp_residual(spec, liecore.exp_grp(spec, X)) <= 1e-12
    N, t, X = spec.size, 0.1, basis[-1]
    g = liecore.exp_grp(spec, X)
    E = np.zeros((N, N))
    E[0, 1] = t  # real and traceless, off the form relation
    # i t I keeps the form relation and breaks only realness
    broken = [(X + E, g @ (np.eye(N) + E)),
              (X + 1j * t * np.eye(N), np.exp(1j * t) * g)]
    for Xb, gb in broken:
        assert alg_residual(spec, Xb) > 1e-3
        assert liecore.grp_residual(spec, gb) > 1e-3


@pytest.mark.parametrize("spec", [liecore.sp2nR(2)], ids=lambda s: "sp2nR")
def test_exp_grp_of_a_stack_checks_each_member(spec):
    basis = np.array(liecore.algebra_basis(spec))
    X = 0.3 * basis[:4]
    g = liecore.exp_grp(spec, X)
    for Xn, gn in zip(X, g):
        assert liecore.exp_grp(spec, Xn).tobytes() == gn.tobytes()
    assert liecore.grp_residual(spec, g).shape == (4,)
    g[2] = g[2] @ (np.eye(spec.size) + 0.1 * np.eye(spec.size)[::-1])
    with pytest.raises(DecompositionError, match=r"\(row 2\)"):
        liecore.check_grp(spec, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bracket_stays_in_algebra(seed):
    spec = liecore.sp2nR(3)
    rng = np.random.default_rng(seed)
    X = random_alg(spec, rng)
    Y = random_alg(spec, rng)
    assert alg_residual(spec, liecore.bracket(X, Y)) < 1e-10


def test_cartan_split_recombines():
    spec = liecore.sp2nR(3)
    rng = np.random.default_rng(1)
    X = random_alg(spec, rng)
    k, p = liecore.cartan_split(X)
    assert np.max(np.abs(k + p - X)) < 1e-12
    # theta(X) = -X^T on the real algebra
    assert np.max(np.abs(-k.T - k)) < 1e-12
    assert np.max(np.abs(-p.T + p)) < 1e-12


@pytest.mark.parametrize("r,dims", [(2, (3, 0, 4)), (1, (3, 3, 1))],
                         ids=["flag0-dims0", "flag1-dims1"])
def test_sp4_parabolic_dimensions(r, dims):
    pd = liecore.parabolic_data(liecore.sp2nR(2), r)
    assert (len(pd.basis_u), len(pd.basis_h), len(pd.basis_l)) == dims


def test_specs_and_parabolics_are_shared_and_keyed_on_ints():
    # one object per group and per (group, rank); an index type (True,
    # np.int64) gets the object of its int, and a bad rank raises on every
    # call
    liecore._parabolic_data.cache_clear()
    spec = liecore.sp2nR(np.int64(2))
    assert liecore.sp2nR(True) is liecore.sp2nR(1)
    assert type(liecore.sp2nR(True).n) is int
    with pytest.raises(TypeError):
        liecore.sp2nR(2.0)
    pd = liecore.parabolic_data(spec, np.int64(2))
    assert pd.rank == 2 and type(pd.rank) is int
    assert liecore.parabolic_data(spec, 2) is pd
    assert liecore.parabolic_data(spec, True) is liecore.parabolic_data(spec, 1)
    for n in (1, 2, 3):
        assert liecore.sp2nR(n) is liecore.sp2nR(n) and liecore.sp2nR(n).n == n
        for r in range(1, n + 1):
            assert (liecore.parabolic_data(liecore.sp2nR(n), r)
                    is liecore.parabolic_data(liecore.sp2nR(n), np.int64(r)))
    for _ in range(2):
        with pytest.raises(UnsupportedFlag, match="rank 3"):
            liecore.parabolic_data(spec, 3)


def test_parabolic_split_sums_back():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, 1)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(len(pd.basis_q))
    X = liecore.from_coords(c, pd.basis_q)
    u, h, l = pd.split(X)
    assert np.max(np.abs(u + h + l - X)) < 1e-8


def test_split_rejects_outside_parabolic():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, 2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = random_alg(spec, rng)
        with pytest.raises(DecompositionError, match="parabolic subalgebra"):
            pd.split(X)


def _lstsq_split(pd, X):
    """Reference split: lstsq coordinates in basis_q, recomposed term by
    term, with the membership check on the lstsq residual."""
    B = np.stack([real_vec(b) for b in pd.basis_q], axis=1)
    v = real_vec(X)
    c, *_ = np.linalg.lstsq(B, v, rcond=None)
    if np.max(np.abs(B @ c - v)) > 1e-8 * max(1.0, np.max(np.abs(v))):
        raise DecompositionError("element not in the parabolic subalgebra")
    nu, nh = len(pd.basis_u), len(pd.basis_h)
    parts = (pd.basis_u, pd.basis_h, pd.basis_l)
    cs = (c[:nu], c[nu:nu + nh], c[nu + nh:])
    return [sum((ci * b for ci, b in zip(cc, bas)), np.zeros_like(X))
            for cc, bas in zip(cs, parts)]


GROUPS = {"sp2": liecore.sp2nR(1), "sp4": liecore.sp2nR(2),
          "sp6": liecore.sp2nR(3)}

# (group, rank) of every maximal parabolic of sp(4) and sp(6), and its id
PARABOLICS = [("sp4", 1), ("sp4", 2), ("sp6", 1), ("sp6", 2), ("sp6", 3)]
PARABOLIC_IDS = ["sp4-flag0", "sp4-flag1", "sp6-flag3", "sp6-flag4",
                 "sp6-flag5"]


@pytest.mark.parametrize("group,r", PARABOLICS, ids=PARABOLIC_IDS)
def test_split_matches_lstsq_reference(group, r):
    spec = GROUPS[group]
    pd = liecore.parabolic_data(spec, r)
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = liecore.from_coords(rng.standard_normal(len(pd.basis_q)),
                                pd.basis_q)
        got = pd.split(X)
        for a, b in zip(got, _lstsq_split(pd, X)):
            assert np.max(np.abs(a - b)) < 1e-12
        assert np.max(np.abs(sum(got) - X)) < 1e-12
        Y = random_alg(spec, rng)
        for split in (pd.split, lambda Y: _lstsq_split(pd, Y)):
            with pytest.raises(DecompositionError,
                               match="element not in the parabolic subalgebra"):
                split(Y)


def test_span_solver_refuses_a_basis_that_is_not_orthogonal():
    with pytest.raises(PreconditionFailed, match="not orthogonal"):
        liecore.span_solver([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
    # orthogonal but overlapping supports pass; the coordinates project
    B, P = liecore.span_solver([np.diag([1.0, 1.0]), np.diag([2.0, -2.0])])
    assert np.array_equal(B @ P, np.eye(2))
    assert np.allclose(liecore.algebra_coords(
        (B, P), np.diag([3.0, 1.0]), 1e-12, "x"), [2.0, 0.5])
    with pytest.raises(DecompositionError, match="x"):
        liecore.algebra_coords((B, P), np.eye(2)[::-1], 1e-12, "x")


@pytest.mark.parametrize("group,r", [("sp4", 1), ("sp4", 2), ("sp6", 2)],
                         ids=["sp4-flag0", "sp4-flag1", "sp6-flag2"])
def test_a_non_real_element_of_the_span_is_refused(group, r):
    # coordinates project the real part, so an imaginary part of an element
    # of the span lands in the residual, for split and for a span solver
    pd = liecore.parabolic_data(GROUPS[group], r)
    rng = np.random.default_rng(11)
    X = liecore.from_coords(rng.standard_normal(len(pd.basis_q)), pd.basis_q)
    pd.split(X)
    with pytest.raises(DecompositionError,
                       match="element not in the parabolic subalgebra$"):
        pd.split(X + 1e-3j * X)
    with pytest.raises(DecompositionError, match=r"subalgebra \(row 1\)$"):
        pd.split(np.array([X, X + 1e-3j * X]))
    q = liecore.span_solver(pd.basis_q)
    liecore.algebra_coords(q, X, 1e-7, "not in Lie(Q)")
    with pytest.raises(DecompositionError, match=r"not in Lie\(Q\)$"):
        liecore.algebra_coords(q, X + 1e-3j * X, 1e-7, "not in Lie(Q)")


@pytest.mark.parametrize("group,r", [("sp4", 1), ("sp4", 2), ("sp6", 2)],
                         ids=["sp4-flag0", "sp4-flag1", "sp6-flag2"])
def test_stack_matches_one_matrix_at_a_time(group, r):
    spec = GROUPS[group]
    pd = liecore.parabolic_data(spec, r)
    rng = np.random.default_rng(7)
    Xs = np.array([liecore.from_coords(rng.standard_normal(len(pd.basis_q)),
                                       pd.basis_q) for _ in range(6)])
    q = liecore.span_solver(pd.basis_q)
    coords = liecore.algebra_coords(q, Xs, 1e-8, "not in Lie(Q)")
    parts = pd.split(Xs)
    for i, X in enumerate(Xs):
        one = liecore.algebra_coords(q, X, 1e-8, "not in Lie(Q)")
        assert np.max(np.abs(coords[i] - one)) < 1e-14
        for a, b in zip(parts, pd.split(X)):
            assert a.shape == Xs.shape
            assert np.max(np.abs(a[i] - b)) < 1e-14
    # any leading axes
    N = spec.size
    for a, b in zip(pd.split(Xs.reshape(2, 3, N, N)), parts):
        assert np.max(np.abs(a.reshape(Xs.shape) - b)) < 1e-14


def test_stack_with_one_row_outside_parabolic_names_it():
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, 1)
    rng = np.random.default_rng(8)
    Xs = np.array([liecore.from_coords(rng.standard_normal(len(pd.basis_q)),
                                       pd.basis_q) for _ in range(6)])
    pd.split(Xs)
    Xs[4] = random_alg(spec, rng)
    with pytest.raises(DecompositionError,
                       match=r"^element not in the parabolic subalgebra \(row 4\)$"):
        pd.split(Xs)


def test_cartan_split_of_an_exact_stack():
    spec = liecore.sp2nR(1)
    F = Fraction
    Xs = np.array([[[F(1, 2), F(1, 3)], [F(2, 5), F(-1, 2)]],
                   [[F(0), F(7, 3)], [F(-1, 4), F(0)]]], dtype=object)
    k, p = liecore.cartan_split(Xs)
    for i, X in enumerate(Xs):
        ki, pi = liecore.cartan_split(X)
        assert (k[i] == ki).all() and (p[i] == pi).all()
        assert (ki == -ki.T).all() and (pi == pi.T).all() and (ki + pi == X).all()


def test_group_factor_recomposes():
    # the parabolics of sp(4), and the genus-1 base case sp(2), whose one
    # parabolic is a Borel: there the product is g to rounding
    rng = np.random.default_rng(4)
    for spec, r, tol in [(liecore.sp2nR(2), 1, 1e-8),
                         (liecore.sp2nR(2), 2, 1e-8),
                         (liecore.sp2nR(1), 1, 1e-15)]:
        pd = liecore.parabolic_data(spec, r)
        c = 0.3 * rng.standard_normal(len(pd.basis_q))
        g = liecore.exp_grp(spec, liecore.from_coords(c, pd.basis_q))
        u1, g_1h, g_ql, _ = fine_factor_reference(pd, g)
        assert np.max(np.abs(u1 @ g_1h @ g_ql - g)) < tol


# Every maximal parabolic of sp(2), sp(4) and sp(6).
ALL_RANKS = [(spec, r) for spec in SPECS for r in range(1, spec.n + 1)]


@pytest.mark.parametrize(
    "spec,r", ALL_RANKS,
    ids=lambda x: _id(x) if hasattr(x, "n") else str((x,)))
def test_group_factor_fine_is_the_last_factor_of_the_reference(spec, r):
    # bit for bit, on a stack and on each element alone; and, by another
    # path, its Vbar block is a^{-T} for the inverse a_inv of the V block
    # that the reference reads from its one block-diagonal inverse
    pd = liecore.parabolic_data(spec, r)
    rng = np.random.default_rng(10)
    c = 0.3 * rng.standard_normal((len(pd.basis_q), 25))
    gs = liecore.exp_grp(spec, liecore.from_coords(c[..., None, None],
                                                   pd.basis_q))
    g_ql = liecore.group_factor_fine(pd, gs)
    assert g_ql.shape == gs.shape
    *_, ref, a_inv = fine_factor_reference(pd, gs)
    assert np.array_equal(g_ql, ref)
    vbar = g_ql[(..., *np.ix_(pd.vbar, pd.vbar))]
    assert np.all(liecore._maxabs(vbar - a_inv.swapaxes(-1, -2))
                  <= 1e-12 * liecore._maxabs(a_inv))
    for g, one in zip(gs, g_ql):
        assert np.array_equal(liecore.group_factor_fine(pd, g), one)
        assert np.array_equal(fine_factor_reference(pd, g)[2], one)


@pytest.mark.parametrize(
    "spec,r", ALL_RANKS,
    ids=lambda x: _id(x) if hasattr(x, "n") else str((x,)))
def test_index_sets_place_sp_embed_gl(spec, r):
    # V is spanned by the last r of e_1 ... e_n and Vbar by their duals; with
    # the rest they split 0 .. 2n - 1.  sp_embed_gl puts a stack of GL(r)
    # on V, and a^{-T} on Vbar, as the group element whose factor it is
    pd = liecore.parabolic_data(spec, r)
    n = spec.n
    assert pd.v == tuple(range(n - r, n))
    assert pd.vbar == tuple(i + n for i in pd.v)
    assert sorted(pd.v + pd.vbar + pd.w) == list(range(2 * n))
    a = np.eye(r) + 0.3 * np.random.default_rng(r).standard_normal((3, r, r))
    g = liecore.sp_embed_gl(pd, a)
    assert np.array_equal(g[(..., *np.ix_(pd.v, pd.v))], a)
    assert np.all(liecore.grp_residual(spec, g) < 1e-12)
    assert np.array_equal(liecore.group_factor_fine(pd, g), g)
    # one object per (spec, r): identity is its equality and its hash
    assert {pd: r}[liecore.parabolic_data(spec, r)] == r
    assert pd != dataclasses.replace(pd)


@pytest.mark.parametrize(
    "spec,r", ALL_RANKS,
    ids=lambda x: _id(x) if hasattr(x, "n") else str((x,)))
def test_a_shared_parabolic_refuses_rebinding_and_a_wrong_shape(spec, r):
    # the object of (spec, r) is shared: a rebound field would move every
    # later sp_embed_gl, group_factor_fine and Cayley element built from it
    pd = liecore.parabolic_data(spec, r)
    for name, value in (("v", (0,)), ("rank", r + 1), ("basis_u", pd.basis_l),
                        ("_proj", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pd, name, value)
    assert liecore.parabolic_data(spec, r) is pd
    assert pd.v == tuple(range(spec.n - r, spec.n)) and pd.rank == r
    # an element of another GL is refused by name, not by numpy's broadcast
    for shape in ((r + 1, r + 1), (3, r, r + 1), (r,)):
        with pytest.raises(PreconditionFailed, match=rf"GL\({r}\).*"
                           + re.escape(f"shape {shape}")):
            liecore.sp_embed_gl(pd, np.ones(shape))


@pytest.mark.parametrize("r", [1, 2], ids=["flag0", "flag1"])
@pytest.mark.parametrize("diag", [(2.0, 1.0, 1.0, 1.0), (1.0, 1.0, 3.0, 1.0)])
def test_group_factor_fine_rejects_elements_outside_the_group(r, diag):
    # block diagonal, so they keep V, but g^T J g != J
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, r)
    with pytest.raises(DecompositionError, match="^not in sp2nR"):
        liecore.group_factor_fine(pd, np.diag(diag))
    gs = np.array([np.eye(4), np.eye(4), np.diag(diag)])
    with pytest.raises(DecompositionError, match=r"^not in sp2nR.*\(row 2\)$"):
        liecore.group_factor_fine(pd, gs)


@pytest.mark.parametrize("r", [1, 2], ids=["flag0", "flag1"])
def test_group_factor_fine_rejects_outside_parabolic(r):
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, r)
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = liecore.exp_grp(spec, random_alg(spec, rng))
        with pytest.raises(DecompositionError):
            liecore.group_factor_fine(pd, g)


def test_factor_checks_reject_nan():
    # a NaN fails every bound, so no NaN factor or coordinate comes back
    spec = liecore.sp2nR(2)
    pd = liecore.parabolic_data(spec, 1)
    with pytest.raises(DecompositionError):
        liecore.group_factor_fine(pd, np.nan * np.eye(4))
    Xs = np.zeros((3, 4, 4))
    Xs[1, 0, 0] = np.nan
    with pytest.raises(DecompositionError, match=r"\(row 1\)$"):
        liecore.algebra_coords(liecore.span_solver(pd.basis_q), Xs, 1e-8,
                               "not in Lie(Q)")
    with pytest.raises(DecompositionError, match=r"subalgebra \(row 1\)$"):
        pd.split(Xs)


def test_group_factor_of_a_stack_matches_one_element_at_a_time():
    spec = liecore.sp2nR(2)
    rng = np.random.default_rng(9)
    for r in [1, 2]:
        pd = liecore.parabolic_data(spec, r)
        gs = np.array([liecore.exp_grp(spec, liecore.from_coords(
            0.3 * rng.standard_normal(len(pd.basis_q)), pd.basis_q))
            for _ in range(4)])
        stacked = liecore.group_factor_fine(pd, gs)
        for n, g in enumerate(gs):
            assert np.array_equal(stacked[n], liecore.group_factor_fine(pd, g))


# The groups whose parabolic bases the golden pins.
PARABOLIC_RANKS = {"sp4": (liecore.sp2nR(2), [1, 2]),
                   "sp6": (liecore.sp2nR(3), [1, 2, 3])}
BASES = ("basis_u", "basis_h", "basis_l")
PARABOLIC_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                    / "parabolic_bases.json")


def parabolic_digests():
    """{"group (r,)": {basis: sha256 of the bytes of its matrices, in
    order}} for each rank r."""
    out = {}
    for group, (spec, ranks) in PARABOLIC_RANKS.items():
        for r in ranks:
            pd = liecore.parabolic_data(spec, r)
            out[f"{group} {(r,)}"] = {name: hashlib.sha256(b"".join(
                np.ascontiguousarray(b).tobytes() for b in getattr(pd, name)
            )).hexdigest() for name in BASES}
    return out


# (u, h, l) dims for each rank of sp(2) and sp(6)
DIMS = {"sp2": {1: (1, 0, 1)},
        "sp6": {1: (5, 10, 1), 2: (7, 3, 4), 3: (6, 0, 9)}}


def _stabilizer_nullity(spec, r):
    """dim of {X in g : X V in V}: the nullity of the constraints
    (1 - P) X V, linear in the coordinates over algebra_basis, with V the
    span of the last r of e_1 ... e_n and P its projector."""
    basis = liecore.algebra_basis(spec)
    V = np.eye(spec.size)[:, spec.n - r:spec.n]
    rows = [((np.eye(spec.size) - V @ V.T) @ X @ V).ravel() for X in basis]
    return len(basis) - np.linalg.matrix_rank(np.array(rows), tol=1e-10)


def _trace_gram(A, B):
    return np.array([[np.trace(a @ b) for b in B] for a in A]).reshape(
        len(A), len(B))


@pytest.mark.parametrize("group,r", PARABOLICS + [("sp2", 1)],
                         ids=PARABOLIC_IDS + ["sp2-flag10"])
def test_parabolic_data_defining_properties(group, r):
    spec = GROUPS[group]
    pd = liecore.parabolic_data(spec, r)
    N = spec.size
    q = pd.basis_q
    # Lie(Q) keeps V and has the dimension of its stabilizer
    V = np.eye(N)[:, spec.n - r:spec.n]
    for X in q:
        assert np.abs((np.eye(N) - V @ V.T) @ X @ V).max() < 1e-12
    assert len(q) == _stabilizer_nullity(spec, r)
    # u is the radical of the trace form on Lie(Q)
    assert np.abs(_trace_gram(pd.basis_u, q)).max(initial=0.0) < 1e-12
    rank = np.linalg.matrix_rank(_trace_gram(q, q), tol=1e-10)
    assert len(pd.basis_u) == len(q) - rank
    # h kills V and Vbar, commutes with l, and theta keeps h + l
    levi = list(pd.basis_h) + list(pd.basis_l)
    for H in pd.basis_h:
        assert np.abs(H[:, pd.v + pd.vbar]).max() < 1e-12
        for L in pd.basis_l:
            assert np.abs(liecore.bracket(H, L)).max() < 1e-12
    if levi:
        theta = [-X.T.ravel() for X in levi]
        A = np.array([X.ravel() for X in levi])
        assert (np.linalg.matrix_rank(np.vstack([A, theta]), tol=1e-10)
                == np.linalg.matrix_rank(A, tol=1e-10))
    # every basis is real and orthonormal
    for name in BASES + ("basis_q",):
        bas = getattr(pd, name)
        assert all(np.isrealobj(X) for X in bas)
        gram = _trace_gram(bas, [X.T for X in bas])
        assert np.abs(gram - np.eye(len(bas))).max(initial=0.0) < 1e-12
    if group in DIMS:
        assert tuple(len(getattr(pd, name)) for name in (
            "basis_u", "basis_h", "basis_l")) == DIMS[group][r]


@pytest.mark.parametrize("r,error,message", [
    (0, UnsupportedFlag, r"^rank 0 isotropic subspace in sp2nR\(n=2\)$"),
    (3, UnsupportedFlag, r"^rank 3 isotropic subspace in sp2nR\(n=2\)$"),
    ((1,), TypeError, "integer"),
    (1.0, TypeError, "integer"),
], ids=["rank0", "rank3", "tuple", "float"])
def test_parabolic_data_rejects_bad_ranks(r, error, message):
    with pytest.raises(error, match=message):
        liecore.parabolic_data(liecore.sp2nR(2), r)


def test_parabolic_bases_match_golden():
    # any change of a bit (or of a dtype) in a basis moves every split
    golden = json.loads(PARABOLIC_GOLDEN.read_text(encoding="utf-8"))
    assert parabolic_digests() == golden


if __name__ == "__main__":
    PARABOLIC_GOLDEN.write_text(
        json.dumps(parabolic_digests(), indent=1) + "\n", encoding="utf-8")


def test_exp_grp_refuses_a_complex_element():
    # the imaginary part is refused, not dropped; a zero one is accepted
    spec = liecore.sp2nR(2)
    X = 0.3 * liecore.algebra_basis(spec)[0]
    g = liecore.exp_grp(spec, X)
    assert g.dtype == np.float64
    assert liecore.exp_grp(spec, X.astype(complex)).tobytes() == g.tobytes()
    with pytest.raises(PreconditionFailed, match="imaginary"):
        liecore.exp_grp(spec, X + 1e-3j * np.eye(spec.size))
    with pytest.raises(PreconditionFailed, match="imaginary"):
        liecore.exp_grp(spec, np.array([X, X + 1e-3j * X]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pos", [(1, 0, 2), (0, 3, 3), (2, 1, 0)])
def test_exp_grp_refuses_an_element_that_is_not_finite(pos, value):
    # refused by row before expm, which would warn and fail later with a
    # NaN residual
    spec = liecore.sp2nR(2)
    X = 0.3 * np.array(liecore.algebra_basis(spec)[:3])
    X[pos] = value
    with pytest.raises(PreconditionFailed,
                       match=rf"^X is not finite \(row {pos[0]}\)$"):
        liecore.exp_grp(spec, X)
    with pytest.raises(PreconditionFailed, match=r"^X is not finite$"):
        liecore.exp_grp(spec, X[pos[0]])
