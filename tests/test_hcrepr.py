from math import comb

import numpy as np
import pytest

from chernpatch import connections, exterior, hcrepr, liecore, siegel
from chernpatch.errors import DecompositionError, UnsupportedFlag
from helpers import dlam_reference, random_alg, representation_reference


def _sp4_rep(name="std"):
    return hcrepr.builtin_representation(liecore.sp2nR(2), name)


def test_sp2_decomposition_oracle():
    """M g M^{-1} for g in Sp(2, R) = SL(2, R) is [[a, b], [conj b, conj a]]
    in SU(1, 1); its open-cell factors are upper unipotent times
    diag(1 / conj a, conj a) times lower unipotent, in closed form."""
    spec = liecore.sp2nR(1)
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    M, Minv = spec.complex_coords
    gc = M @ g @ Minv
    a, b = gc[0]
    assert np.max(np.abs(gc[1] - np.conj([b, a]))) < 1e-14
    j = hcrepr.middle_j(spec, g)
    assert np.max(np.abs(j - np.diag([1 / np.conj(a), np.conj(a)]))) < 1e-14
    p_plus = np.array([[1.0, b / np.conj(a)], [0.0, 1.0]])
    p_minus = np.array([[1.0, 0.0], [np.conj(b / a), 1.0]])
    assert np.max(np.abs(p_plus @ j @ p_minus - gc)) < 1e-12
    assert abs(j[0, 0] * j[1, 1] - 1) < 1e-12


@pytest.mark.parametrize("r", [1, 2])
def test_cayley_element_in_complexified_group(r):
    spec = liecore.sp2nR(2)
    c = hcrepr.cayley_element(spec, r)
    # symplectic form is preserved exactly
    J = spec.form
    assert np.max(np.abs(c.T @ J @ c - J)) < 1e-12


def test_middle_j_multiplicative_on_kc():
    spec = liecore.sp2nR(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        k1 = liecore.exp_grp(spec, liecore.cartan_split(
            spec, random_alg(spec, rng, 0.4))[0])
        g = liecore.exp_grp(spec, random_alg(spec, rng, 0.2))
        jk = hcrepr.middle_j(spec, k1 @ g)
        jj = hcrepr.middle_j(spec, k1) @ hcrepr.middle_j(spec, g)
        # j(k g) = lam_C-compatible product when k is in K
        assert np.max(np.abs(jk - jj)) < 1e-8


@pytest.mark.parametrize("name", ["std", "det^1", "sym2", "sym^3 det^1",
                                  "sym^4 det^-2"])
def test_extension_restricts_to_rep_on_k(name):
    rep = _sp4_rep(name)
    spec = rep.spec
    ext = hcrepr.canonical_extension(rep, 2)
    rng = np.random.default_rng(1)
    for _ in range(5):
        k = liecore.exp_grp(spec, liecore.cartan_split(
            spec, random_alg(spec, rng, 0.4))[0])
        assert np.max(np.abs(ext(k) - rep.lam_grp(k))) < 1e-8


@pytest.mark.parametrize("name", ["std", "det^2", "sym2", "sym^3 det^1"])
def test_lam_grp_of_a_stack_checks_each_element(name):
    rep = _sp4_rep(name)
    spec = rep.spec
    k = liecore.exp_grp(spec, 0.3 * np.array(connections.k_basis(spec))[:3])
    stack = rep.lam_grp(k)
    for n in range(3):
        assert np.array_equal(stack[n], rep.lam_grp(k[n]))
    k[2] = liecore.exp_grp(spec, 0.5 * connections.p_basis(spec)[0])
    with pytest.raises(DecompositionError, match=r"not in K\(C\) \(row 2\)$"):
        rep.lam_grp(k)


@pytest.mark.parametrize("name", ["std", "sym2", "det^2", "det^-2",
                                  "sym^3 det^1", "sym^4 det^-2"])
def test_relative_extension_is_the_siegel_one_on_the_plane_cartan(name):
    # on a W_H, W_H = diag(1, 0, -1, 0) the Cartan element of the plane
    # (e0, f0), the relative extension of the ranks (1, 2) and the rank-2
    # extension agree bit for bit, so a connection induced from the point
    # reads extS.alg on Y as on X
    rep = _sp4_rep(name)
    a = np.random.default_rng(20).standard_normal((67, 1, 1))
    aW = a * np.diag([1.0, 0.0, -1.0, 0.0])
    want = hcrepr.canonical_extension(rep, 2).alg(aW)
    assert np.array_equal(hcrepr.relative_extension(rep, 1, 2).alg(aW), want)
    assert np.max(np.abs(want)) > 0.1


def test_extension_homomorphism_on_parabolic():
    # rank 2 of sp(4), and rank 1 of sp(2), the genus-1 base case, on each
    # built-in representation
    sp2 = liecore.sp2nR(1)
    cases = [(_sp4_rep(name), 2, 1e-8) for name in ("std", "sym^3 det^1")] + [
        (hcrepr.builtin_representation(sp2, name), 1, 1e-14)
        for name in ("std", "det^2", "sym2", "sym^3 det^1")]
    for rep, r, tol in cases:
        spec = rep.spec
        pd = liecore.parabolic_data(spec, (r,))
        ext = hcrepr.canonical_extension(rep, r)
        rng = np.random.default_rng(2)
        for _ in range(10):
            c1 = 0.3 * rng.standard_normal(len(pd.basis_q))
            c2 = 0.3 * rng.standard_normal(len(pd.basis_q))
            q1 = liecore.exp_grp(spec, liecore.from_coords(c1, pd.basis_q))
            q2 = liecore.exp_grp(spec, liecore.from_coords(c2, pd.basis_q))
            assert np.max(np.abs(ext(q1 @ q2) - ext(q1) @ ext(q2))) < tol


def test_extension_derivative_matches_difference_quotient():
    rep = _sp4_rep()
    spec = rep.spec
    pd = liecore.parabolic_data(spec, (2,))
    ext = hcrepr.canonical_extension(rep, 2)
    rng = np.random.default_rng(3)
    X = liecore.from_coords(0.4 * rng.standard_normal(len(pd.basis_q)),
                            pd.basis_q)
    h = 1e-6
    num = (ext(liecore.exp_grp(spec, h * X)) - np.eye(rep.dim)) / h
    assert np.max(np.abs(ext.alg(X) - num)) < 1e-5


def test_nested_extension_compatibility():
    rep = _sp4_rep()
    report = hcrepr.extension_compat_check(rep, 1, 2, samples=20, rng=0)
    assert report["max_residual"] < 1e-8


def test_nested_extension_compatibility_keeps_a_nan(monkeypatch):
    # a NaN relative residual is the report's max, which fails any tol
    relative = hcrepr.relative_extension

    def nan_relative(*args):
        rel = relative(*args)
        return lambda g: rel(g) * np.nan

    monkeypatch.setattr(hcrepr, "relative_extension", nan_relative)
    report = hcrepr.extension_compat_check(_sp4_rep(), 1, 2, samples=5, rng=0)
    assert report["levi_residual"] < 1e-8
    assert np.isnan(report["relative_residual"])
    assert np.isnan(report["max_residual"])


def test_nested_extension_compatibility_sp6():
    rep = hcrepr.builtin_representation(liecore.sp2nR(3), "std")
    for pair in [(1, 2), (1, 3), (2, 3)]:
        report = hcrepr.extension_compat_check(rep, *pair, samples=10, rng=0)
        assert report["max_residual"] < 1e-8


@pytest.mark.parametrize("n,r", [(2, 2), (3, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("name", ["std", "det^2", "sym2", "sym^3 det^1"])
def test_extension_alg_is_a_homomorphism_on_the_linear_levi(n, r, name):
    # so extK.alg(ldot) is a flat connection: [A l_i, A l_j] = A [l_i, l_j]
    spec = liecore.sp2nR(n)
    ext = hcrepr.canonical_extension(
        hcrepr.builtin_representation(spec, name), r)
    L = np.array(liecore.parabolic_data(spec, (r,)).basis_l)
    A = ext.alg(L)
    LL = L[:, None] @ L[None] - L[None] @ L[:, None]
    assert (np.max(np.abs(LL)) == 0.0) == (r == 1)   # only gl(1) is abelian
    assert np.max(np.abs(A)) > 0.1
    assert np.max(np.abs(A[:, None] @ A[None] - A[None] @ A[:, None]
                         - ext.alg(LL))) <= 1e-15


@pytest.mark.parametrize("flag", [(1,), (2,)])
@pytest.mark.parametrize("name", ["std", "sym2", "sym^3 det^1"])
def test_linear_levi_factor_commutes_with_the_hermitian_part_sp6(flag, name):
    # genus 3: lambda_1(g_l) of a parabolic element commutes with the
    # extension of Lie(G_h), so no induced connection needs conjugating
    spec = liecore.sp2nR(3)
    pd = liecore.parabolic_data(spec, flag)
    ext = hcrepr.canonical_extension(
        hcrepr.builtin_representation(spec, name), flag[-1])
    c = 0.3 * np.random.default_rng(5).standard_normal((len(pd.basis_q), 10))
    q = liecore.exp_grp(spec, liecore.from_coords(c[..., None, None],
                                                  pd.basis_q))
    lam = ext(liecore.group_factor_fine(pd, q))[:, None]
    H = ext.alg(np.array(pd.basis_h))
    assert np.max(np.abs(lam - np.eye(lam.shape[-1]))) > 0.1
    assert np.max(np.abs(H)) > 0.1
    assert np.max(np.abs(lam @ H - H @ lam)) <= 1e-15


def _automorphy(rep, g, h):
    """J_lambda(g, h x_0) = lambda_C(j(g h) j(h)^{-1}), the K(C)-valued
    automorphy factor at h x_0 in complex coordinates."""
    jh = hcrepr.middle_j(rep.spec, h)
    jgh = hcrepr.middle_j(rep.spec, np.asarray(g, dtype=complex)
                          @ np.asarray(h, dtype=complex))
    return rep.lamC(jgh @ np.linalg.inv(jh))


def test_automorphy_cocycle():
    spec = liecore.sp2nR(1)
    rep = hcrepr.builtin_representation(spec, "det^2")
    rng = np.random.default_rng(4)
    g1 = liecore.exp_grp(spec, random_alg(spec, rng, 0.3))
    g2 = liecore.exp_grp(spec, random_alg(spec, rng, 0.3))
    h = liecore.exp_grp(spec, random_alg(spec, rng, 0.3))
    lhs = _automorphy(rep, g1 @ g2, h)
    rhs = _automorphy(rep, g1, g2 @ h) @ _automorphy(rep, g2, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def _alg_reference(ext, xdot):
    """The differential by its formula: lamC_alg of the diagonal blocks,
    in complex coordinates, of c_1 xdot c_1^{-1}."""
    x = ext.c1 @ np.asarray(xdot, dtype=complex) @ np.linalg.inv(ext.c1)
    M, Minv = ext.spec.complex_coords
    xc = M @ x @ Minv
    p, _ = ext.spec.blocks
    blk = np.zeros_like(xc)
    blk[:p, :p] = xc[:p, :p]
    blk[p:, p:] = xc[p:, p:]
    return ext.rep.lamC_alg(blk)


def _extensions(rep):
    """The canonical extension of each rank, and the relative one of the
    ranks (1, 2) where the group has both."""
    n = rep.spec.n
    exts = [hcrepr.canonical_extension(rep, r) for r in range(1, n + 1)]
    if n > 1:
        exts.append(hcrepr.relative_extension(rep, 1, 2))
    return exts


@pytest.mark.parametrize("n", [2, 3, 1])
@pytest.mark.parametrize("name", ["std", "det^2", "sym2", "sym^3 det^1"])
def test_extension_alg_matches_formula(n, name):
    spec = liecore.sp2nR(n)
    rep = hcrepr.builtin_representation(spec, name)
    exts = _extensions(rep)
    rng = np.random.default_rng(4)
    N = spec.size
    for ext in exts:
        for _ in range(5):
            z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            for xdot in (random_alg(spec, rng), z):
                assert np.max(np.abs(ext.alg(xdot)
                                     - _alg_reference(ext, xdot))) < 1e-13


REPS = [(2, "std"), (2, "det^2"), (2, "sym2"), (3, "std"), (3, "det^2"),
        (3, "sym2"), (1, "std"), (1, "det^2"), (1, "sym2"),
        (2, "sym^3 det^1"), (3, "sym^3 det^1"), (1, "sym^3 det^1"),
        (2, "sym^4 det^-2")]


def _rep(n, name):
    return hcrepr.builtin_representation(liecore.sp2nR(n), name)


@pytest.mark.parametrize("n,name", REPS)
def test_lam_alg_stack_matches_formula(n, name):
    """The tabulated differential on a (6, N, N) stack of Lie(K) elements
    against lamC_alg(M k M^{-1}), one element at a time."""
    rep = _rep(n, name)
    spec = rep.spec
    rng = np.random.default_rng(8)
    ks = np.array([liecore.cartan_split(spec, random_alg(spec, rng))[0]
                   for _ in range(6)])
    M, Minv = spec.complex_coords
    got = rep.lam_alg(ks)
    assert got.shape == (6, rep.dim, rep.dim)
    for k, g in zip(ks, got):
        assert np.max(np.abs(g - rep.lamC_alg(M @ k @ Minv))) < 1e-14
        assert np.max(np.abs(g - rep.lam_alg(k))) < 1e-14


@pytest.mark.parametrize("n,name", REPS)
def test_extension_alg_stack_matches_formula(n, name):
    rep = _rep(n, name)
    exts = _extensions(rep)
    rng = np.random.default_rng(9)
    xs = np.array([random_alg(rep.spec, rng) for _ in range(6)])
    for ext in exts:
        got = ext.alg(xs)
        assert got.shape == (6, rep.dim, rep.dim)
        for x, g in zip(xs, got):
            assert np.max(np.abs(g - _alg_reference(ext, x))) < 1e-14
            assert np.max(np.abs(g - ext.alg(x))) < 1e-14


def test_middle_j_rejects_a_nan_element_by_row():
    spec = liecore.sp2nR(2)
    gs = np.array([np.eye(4)] * 3)
    hcrepr.middle_j(spec, gs)
    gs[2, 0, 0] = np.nan
    with pytest.raises(DecompositionError, match=r"^element not finite \(row 2\)$"):
        hcrepr.middle_j(spec, gs)
    with pytest.raises(DecompositionError, match="not finite"):
        hcrepr.middle_j(spec, gs[2])


@pytest.mark.parametrize("name", ["std", "det^2", "sym2", "sym^3 det^1"])
def test_canonical_extension_of_a_stack_matches_one_element_at_a_time(name):
    rep = _sp4_rep(name)
    spec = rep.spec
    pd = liecore.parabolic_data(spec, (1,))
    ext = hcrepr.canonical_extension(rep, 1)
    rng = np.random.default_rng(12)
    gs = np.array([liecore.exp_grp(spec, liecore.from_coords(
        0.3 * rng.standard_normal(len(pd.basis_q)), pd.basis_q))
        for _ in range(5)])
    stacked = ext(gs)
    assert stacked.shape == (5, rep.dim, rep.dim)
    for g, lam in zip(gs, stacked):
        assert np.array_equal(lam, ext(g))


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["std", "sym2", "det^-2", "det^1", "det^3",
                                  "sym^3 det^1", "sym^4 det^-2"])
def test_differential_tables_are_the_per_unit_loop_bit_for_bit(n, name):
    # lamC_alg on the stack of matrix units, and the tables of the
    # representation and of each extension, against one unit at a time
    rep = _rep(n, name)
    spec, N = rep.spec, rep.spec.size
    units = np.eye(N * N).reshape(-1, N, N)
    kc = hcrepr._complex(spec, units)
    ref = dlam_reference(rep.lamC_alg, kc)
    stacked = rep.lamC_alg(kc)
    assert stacked.shape == (N * N, rep.dim, rep.dim)
    assert _same_bits(np.asarray(stacked, complex).reshape(N * N, -1), ref)
    assert _same_bits(rep._dlam, ref)
    p, _ = spec.blocks
    for ext in _extensions(rep):
        xc = hcrepr._complex(spec, ext.c1 @ units @ np.linalg.inv(ext.c1))
        xc[:, :p, p:] = 0.0
        xc[:, p:, :p] = 0.0
        assert _same_bits(ext._dlam, dlam_reference(rep.lamC_alg, xc))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_representations_and_extensions_are_shared(n):
    # one object per argument tuple, the representation keyed by identity;
    # a failed build is not kept, and a rank 1.0 never becomes rank 1's
    spec = liecore.sp2nR(n)
    hcrepr.canonical_extension.cache_clear()
    for name in ("std", "det^2", "sym^2 det^-1"):
        rep = hcrepr.builtin_representation(spec, name)
        assert hcrepr.builtin_representation(spec, name) is rep
        with pytest.raises(TypeError):
            hcrepr.canonical_extension(rep, 1.0)
        ext = hcrepr.canonical_extension(rep, True)
        assert hcrepr.canonical_extension(rep, 1) is ext
        assert _same_bits(ext.c1, hcrepr.cayley_element(spec, 1))
        for r in range(2, n + 1):
            assert (hcrepr.canonical_extension(rep, r)
                    is hcrepr.canonical_extension(rep, r))
            assert (hcrepr.relative_extension(rep, r - 1, r)
                    is hcrepr.relative_extension(rep, r - 1, r))
        twin = hcrepr.Representation(spec, name, rep.dim, rep.lamC,
                                     rep.lamC_alg)
        assert twin != rep
        assert hcrepr.canonical_extension(twin, 1) is not ext
    for _ in range(2):
        with pytest.raises(UnsupportedFlag, match="unknown representation"):
            hcrepr.builtin_representation(spec, "sym^9")
        with pytest.raises(UnsupportedFlag, match="r_outer > r_inner"):
            hcrepr.relative_extension(rep, 1, 1)


def test_cached_builders_refuse_keyword_arguments():
    # functools.cache keys a keyword call apart from the positional one, so
    # a keyword call would build a second object beside the shared one
    spec = liecore.sp2nR(2)
    rep = hcrepr.builtin_representation(spec, "std")
    for build, args, names in (
            (hcrepr.builtin_representation, (spec, "std"), ("spec", "name")),
            (hcrepr.canonical_extension, (rep, 1), ("rep", "r")),
            (hcrepr.relative_extension, (rep, 1, 2),
             ("rep", "r_inner", "r_outer")),
            (liecore.algebra_basis, (spec,), ("spec",)),
            (exterior.wedge_table, (6, 1, 2), ("m", "q1", "q2"))):
        shared = build(*args)
        with pytest.raises(TypeError):
            build(*args[:-1], **{names[-1]: args[-1]})
        with pytest.raises(TypeError):
            build(**dict(zip(names, args)))
        assert build(*args) is shared


def test_an_extension_makes_j_c1_inverse_on_its_first_group_level_call(
        monkeypatch):
    calls = []
    middle_j = hcrepr.middle_j

    def counted(spec, g):
        calls.append(np.shape(g))
        return middle_j(spec, g)

    monkeypatch.setattr(hcrepr, "middle_j", counted)
    # the Siegel model reads only the differentials of its extensions
    model = siegel.SiegelModel("sym2")
    p = model.points(np.array([[0.1, 0.2, -0.1, 3.0, 0.4, 2.5]]))
    model.omega_patched(p, p.mc)
    model.curvature_patched(p)
    # a fresh extension: the shared canonical_extension(model.rep, 1) may
    # have made its j(c_1)^{-1} in an earlier test
    ext = hcrepr.CanonicalExtension(model.rep,
                                    hcrepr.cayley_element(model.spec, 1))
    ext.alg(random_alg(model.spec, np.random.default_rng(3)))
    assert calls == []
    rng = np.random.default_rng(13)
    gs = liecore.exp_grp(model.spec, np.array(
        [random_alg(model.spec, rng, 0.3) for _ in range(5)]))
    got = ext(gs)
    assert calls == [(4, 4), (5, 4, 4)]
    # the same bits as j(c_1)^{-1} made in the constructor
    jc1_inv = np.linalg.inv(middle_j(model.spec, ext.c1))
    assert _same_bits(got, model.rep.lamC(jc1_inv @ middle_j(
        model.spec, ext.c1 @ gs.astype(complex))))
    ext(gs[0])
    assert calls[2:] == [(4, 4)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["std", "sym2", "det^-2", "det^0", "det^1",
                                  "det^2", "det^3"])
def test_old_members_are_the_hand_written_reference_bit_for_bit(n, name):
    # std = sym^1, sym2 = sym^2 and det^m = sym^0 det^m of the one
    # construction, against the three representations written out by hand,
    # on a matrix and on stacks, with signed zeros among the entries
    rep = _rep(n, name)
    ref = dict(zip(("lamC", "lamC_alg"), representation_reference(n, name)))
    rng = np.random.default_rng(30)
    N = 2 * n
    for shape in [(), (7,), (3, 5)]:
        kc = (rng.standard_normal(shape + (N, N))
              + 1j * rng.standard_normal(shape + (N, N)))
        flat = kc.reshape(-1)
        flat[::3] = complex(-0.0, -0.0)
        flat[1::5] = complex(0.0, -0.0)
        flat[2::7] = complex(-0.0, 1.0)
        for key, f in ref.items():
            # where the zeros make a determinant 0, det^-2 is inf or NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                got, want = np.asarray(getattr(rep, key)(kc)), f(kc)
            assert _same_bits(got, np.asarray(want)), (shape, key)
            assert got.shape == shape + (rep.dim, rep.dim)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dim_is_the_number_of_sorted_multi_indices(n):
    spec = liecore.sp2nR(n)
    names = {"std": 1, "sym2": 2, "det^-4": 0}
    names.update({f"sym^{a}": a for a in range(7)})
    names.update({f"sym^{a} det^{b}": a for a in range(7) for b in (-2, 1)})
    for name, a in names.items():
        rep = hcrepr.builtin_representation(spec, name)
        assert rep.dim == comb(n + a - 1, a), name
        assert rep._dlam.shape == (4 * n * n, rep.dim ** 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["std", "sym2", "det^-2", "sym^3 det^1",
                                  "sym^4 det^-2", "sym^6"])
def test_lam_alg_is_the_derivative_of_lam_grp(n, name):
    # central differences of the group action along exp(t k), k in Lie(K)
    rep = _rep(n, name)
    spec = rep.spec
    rng = np.random.default_rng(31)
    ks = np.array([liecore.cartan_split(spec, random_alg(spec, rng))[0]
                   for _ in range(4)])
    h = 1e-5
    fd = (rep.lam_grp(liecore.exp_grp(spec, h * ks))
          - rep.lam_grp(liecore.exp_grp(spec, -h * ks))) / (2 * h)
    want = rep.lam_alg(ks)
    assert np.max(np.abs(want)) > 1e-3     # not two zeros
    assert np.max(np.abs(fd - want)) <= 1e-8 * np.max(np.abs(want))
