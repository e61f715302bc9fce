"""Sample elements and membership residuals shared by the tests."""

import itertools
import math
from fractions import Fraction

import numpy as np

from chernpatch import (charts, connections, exterior as ext, invariants as inv,
                        liecore, suites)
from chernpatch.errors import PreconditionFailed


def random_alg(spec, rng, scale=1.0):
    """A Lie algebra element with standard normal coordinates times scale."""
    basis = liecore.algebra_basis(spec)
    return liecore.from_coords(rng.standard_normal(len(basis)) * scale, basis)


def alg_residual(spec, X):
    """Residual of the linearized defining relation at X:
    max(|X^H J + J X|, |Im X|)."""
    J = spec.form
    r = float(np.max(np.abs(np.conj(X).swapaxes(-1, -2) @ J + J @ X)))
    return max(r, float(np.max(np.abs(np.asarray(X, dtype=complex).imag))))


def real_vec(X):
    """Real coordinate vector (2 N^2,) of a matrix: its real parts, then its
    imaginary parts, for least-squares oracles of the span coordinates."""
    X = np.asarray(X, dtype=complex).ravel()
    return np.concatenate([X.real, X.imag])


def gram_schmidt(mats, tol=1e-10):
    """Reference orthonormal basis of the span of real matrices, in order:
    Gram-Schmidt on them as flat vectors, each kept one divided by its norm
    and, once all are found, by its norm again, every zero stored as +0.0."""
    out = []
    for m in mats:
        v = np.ravel(m)
        for o in out:
            v = v - np.dot(o, v) * o
        nrm = np.linalg.norm(v)
        if nrm > tol:
            out.append(v / nrm)
    shape = np.shape(mats)[1:]
    return [(o / np.linalg.norm(o) + 0.0).reshape(shape) for o in out]


def chart_g(chart, x):
    """The group element g(x) = exp(x_1 e_1) ... exp(x_d e_d) of a
    charts.GroupChart, for central differences of g against mc_coeff."""
    out = np.eye(chart.spec.size)
    for h in liecore.expm(np.asarray(x, dtype=float)[:, None, None]
                          * chart.basis):
        out = out @ h
    return out


def rho(x, Z):
    """(P,) tube distances of the model points x from their chain's stratum
    Z: 0 at the stratum of x, else the column of x.r at Z."""
    if Z == x.stratum:
        return np.zeros(len(x))
    return x.r[:, x.chain.index(Z)]


def B_reference(model, Y, eps, chain, r):
    """B_Y^eps at one point of the chain with the tube distances r (a
    sequence of floats): the scalar profile s(r_j / eps) over the ancestors
    before Y, multiplied left to right from 1.0, times 1 - s at Y's own
    distance (0 at the point's stratum); 0 off Y's tube."""
    if Y not in chain:
        return 0.0
    s = model.profile
    k = chain.index(Y)
    out = 1.0
    for rj in r[:k]:
        out = out * s(rj / eps)
    rY = 0.0 if k == len(chain) - 1 else r[k]
    return out * (1.0 - s(rY / eps))


def rowwise(f):
    """A chart map of one point x (m,) as a map of a (P, m) stack: f on each
    row, the values stacked."""
    return lambda xs: np.array([f(x) for x in xs])


def patch_draws(m, S, rng):
    """S samples of the patch suite at chart dimension m, each drawn as the
    suite draws it (weights, affine forms, three points), stacked:
    ((c0, c1, c2), A, B, xs) with xs (S, 3, m)."""
    draws = []
    for _ in range(S):
        coeffs = suites._random_weights(m, rng)
        A, B = zip(*[suites._random_affine_form(m, rng)
                     for _ in range(suites._PATCH_PARTS)])
        draws.append((*coeffs, A, B, rng.uniform(-0.5, 0.5, (3, m))))
    c0, c1, c2, A, B, xs = (np.array(a) for a in zip(*draws))
    return (c0, c1, c2), A, B, xs


def fd_reference(sm, x, h=1e-5):
    """Central differences of the SmoothMap sm at x, one coordinate at a
    time: entry i is (value(x + h e_i) - value(x - h e_i)) / 2h."""
    cols = []
    for i in range(sm.m):
        xp, xm = list(x), list(x)
        xp[i] = xp[i] + h
        xm[i] = xm[i] - h
        cols.append((sm.value(xp) - sm.value(xm)) / (2 * h))
    return np.array(cols)


def exterior_d(form):
    """Reference exterior derivative of a form of any degree: its Jacobian,
    read as the 1-form sum_j dx_j d/dx_j, wedged with the coefficients
    through the shuffle table.  The package takes d of 1-forms only, inside
    exterior.curvature_form."""
    ia, ib, sign = ext.wedge_table(form.m, 1, form.degree)

    def coeffs(xs):
        terms = np.moveaxis(form.jacobian(xs)[:, ia, ib], 0, 2)
        return np.moveaxis(ext._signed_sum(sign, terms), 1, 0)

    return ext.VForm(form.m, form.degree + 1, coeffs)


def dlam_reference(lamC_alg, units):
    """The (N^2, d^2) table of a differential lamC_alg on a stack of
    complex-coordinate matrix units, built one unit at a time."""
    return np.array([lamC_alg(u) for u in units], complex).reshape(
        len(units), -1)


def family_vanishing_reference(model, flag, grid):
    """strata.family_vanishing_check, one grid point and two B_reference
    calls per (n, m, n', m') at a time: the report it must equal."""
    flag = tuple(flag)
    L = len(flag)
    violations = []
    checked = 0
    for rvals in itertools.product(map(float, grid), repeat=L - 1):
        for n in range(1, L + 1):
            for m in range(n, L + 1):
                for np_ in range(1, n):
                    for mp in range(m + 1, L + 1):
                        if mp < np_:
                            continue
                        checked += 1
                        bn = B_reference(model, flag[n - 1],
                                         model.eps(flag[m - 1]), flag[:n],
                                         rvals[:n - 1])
                        bnp = B_reference(model, flag[np_ - 1],
                                          model.eps(flag[mp - 1]), flag, rvals)
                        if bn != 0.0 and bnp != 0.0:
                            violations.append(
                                {"r": list(rvals), "n": n, "m": m,
                                 "n'": np_, "m'": mp, "B_n": bn, "B_n'": bnp})
    return {"checked": checked, "violations": violations, "ok": not violations}


def bracket_pairs_reference(a):
    """[a_i, a_j] over i < j of a (..., m, d, d) stack, in
    combinations(range(m), 2) order, from gathered copies of every pair."""
    i, j = np.array(list(itertools.combinations(range(a.shape[-3]), 2))).T
    ai, aj = a[..., i, :, :], a[..., j, :, :]
    return ai @ aj - aj @ ai


def structure_reference(F, t):
    """(F(t), its curvature) for a constant linear map F, a callable, on a
    (..., m, N, N) stack t of Maurer-Cartan coefficients: F maps t and the
    brackets [t_i, t_j] in one call on their concatenation, and the
    curvature over the pairs i < j is [F t_i, F t_j] - F([t_i, t_j])."""
    m = t.shape[-3]
    out = F(np.concatenate([t, bracket_pairs_reference(t)], axis=-3))
    om = out[..., :m, :, :]
    return om, bracket_pairs_reference(om) - out[..., m:, :, :]


def chern_coefficients_reference(omega, m, kmax):
    """invariants.chern_coefficients at one point, the coefficient array
    omega (C(m, 2), d, d) there, with the coefficient axis as the only
    leading axis: [e_0, ..., e_kmax], e_0 = ones(1)."""
    om = (1j / (2 * np.pi)) * omega
    powers = [om]
    for j in range(1, kmax):
        powers.append(ext.wedge_coeffs(ext.wedge_table(m, 2 * j, 2),
                                       powers[-1], om, np.matmul))
    ptr = [np.trace(p, axis1=-2, axis2=-1) for p in powers]
    es = [np.ones(1, dtype=complex)]
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k + 1):
            term = (-1.0) ** (i - 1) * ext.wedge_coeffs(
                ext.wedge_table(m, 2 * (k - i), 2 * i), es[k - i], ptr[i - 1],
                np.multiply)
            acc = term if acc is None else acc + term
        es.append((1.0 / k) * acc)
    return es


def plane_borel_reference(m, hdot):
    """The connection a siegel.SiegelModel m induces on Y from the point's
    zero connection, read off the plane Borel of the hermitian sl(2) on the
    (e0, f0) plane: extS.alg of its Lagrangian-Levi part a W_H, a = hdot_00
    and W_H = diag(1, 0, -1, 0) its Cartan element, at a (..., 4, 4) stack
    hdot of Lie(G_h) parts in the plane Borel."""
    a = hdot[..., 0, 0]
    return m.extS.alg(a[..., None, None] * np.diag([1.0, 0.0, -1.0, 0.0]))


def fine_factor_reference(pd, g):
    """Reference factorization g = u_1 g_{1h} g_{Ql} of g in Q, or of each
    element of a stack, in that product order: u_1 in the unipotent radical
    U_1 of Q, g_{1h} the hermitian Levi factor on W, g_{Ql} the linear Levi
    factor on V.  Checks u_1 by its log series.  Returns (u_1, g_{1h},
    g_{Ql}, a_inv), a_inv the inverse of the V block of g read from the one
    block-diagonal inverse, not from the inverse that g_{Ql} holds."""
    spec = pd.spec
    g = np.asarray(g, dtype=float)
    v, vbar, w = ((..., *np.ix_(i, i)) for i in (pd.v, pd.vbar, pd.w))
    a_full = g[v]
    shape, N = g.shape[:-2], spec.size
    eye = liecore._eye_stack
    # h_small^{-1} and a_full^{-1} from one inverse of the element that is
    # block diagonal over (W, V)
    q_inv = np.linalg.inv(eye(shape, N, [(pd.w, g[w]), (pd.v, a_full)]))
    a_inv = q_inv[v]
    g_ql = eye(shape, N, [(pd.v, a_full), (pd.vbar, np.linalg.inv(
        a_full).swapaxes(-1, -2))])
    g_1h = eye(shape, N, [(pd.w, g[w])])
    # (g_1h g_ql)^{-1} = sp_embed_gl(a_full^{-1}) g_1h^{-1}
    q_inv[vbar] = a_full.swapaxes(-1, -2)
    u1 = g @ q_inv
    X = u1 - np.eye(N)
    powers = [X]
    for _ in range(N - 1):
        powers.append(powers[-1] @ X)
    liecore.require(liecore._maxabs(powers[-1]) <= liecore.PARABOLIC_TOL
                    * np.maximum(1.0, liecore._maxabs(X)) ** N,
                    "factor u_1 is not unipotent")
    L = sum((-1) ** (k + 1) * powers[k - 1] / k for k in range(1, N))
    liecore.algebra_coords(liecore.span_solver(pd.basis_u), L, 1e-7,
                           "unipotent factor not in U_1")
    return u1, g_1h, g_ql, a_inv


def classification_reference(spec, rep, values):
    """{1: r1, 2: r2}, the residuals of the classification conditions of one
    value table, one omega0 call per side of each condition on the
    connection the table defines."""
    conn = connections.InvariantConnection(
        spec, rep, np.array([np.asarray(v, dtype=complex) for v in values]))
    basis = conn.basis
    kb = np.array(connections.k_basis(spec))
    lk = rep.lam_alg(kb)
    lhs = conn.omega0(liecore.bracket(basis[:, None], kb))
    og = conn.omega0(basis)[:, None]
    return {1: float(np.max(np.abs(conn.omega0(kb) - lk))),
            2: float(np.max(np.abs(lhs - (og @ lk - lk @ og))))}


def p1_chern_reference(weight, n):
    """charts.p1_chern_number with the whole product g(-theta) times the
    phi-difference formed by one stacked 2x2 matmul, of which the integrand
    reads entry [0, 0]."""
    def omega_phi(theta, phi, h=1e-6):
        mc = (charts._p1_chart(-theta, phi)
              @ (charts._p1_chart(theta, phi + h)
                 - charts._p1_chart(theta, phi - h)) / (2 * h))
        return weight * mc[..., 0, 0]

    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n)
    phis = np.linspace(0.0, 2 * np.pi, n)
    h = 1e-5
    F = np.concatenate([
        (omega_phi(th + h, phis) - omega_phi(th - h, phis)) / (2 * h)
        for th in np.split(thetas[:, None], range(16, n, 16))])
    integrand = (1j / (2 * np.pi)) * F
    val = (charts._simpson_weights(thetas) @ integrand
           @ charts._simpson_weights(phis))
    return complex(val).real


def _sym2_basis(n):
    """Basis of Sym^2(C^n) as symmetric matrices, with the pairing weights."""
    out = []
    for i in range(n):
        for j in range(i, n):
            S = np.zeros((n, n))
            S[i, j] += 1.0
            S[j, i] += 1.0
            if i == j:
                S = S / 2.0
            out.append(S)
    return np.array(out)


def _sym2_action(a, basis, derivative):
    """Matrix of S -> a S a^T (or a S + S a^T if derivative) on Sym^2, for a
    matrix a or a stack: column b holds the entries T_ij, i <= j, of the
    image T of basis[b]."""
    a = a[..., None, :, :]
    at = a.swapaxes(-1, -2)
    T = a @ basis + basis @ at if derivative else a @ basis @ at
    i, j = np.triu_indices(basis.shape[-1])
    return T[..., i, j].swapaxes(-1, -2)


def representation_reference(n, name):
    """(lamC, lamC_alg) of "std", "det^m" or "sym2" of U(n), each written out
    by hand: the reference that these members of the one Sym^a (x) det^b
    construction must match bit for bit."""
    def topleft(kc):
        return np.asarray(kc, dtype=complex)[..., :n, :n]

    if name == "std":
        return topleft, topleft
    if name.startswith("det^"):
        m = int(name[4:])
        return (lambda kc: np.linalg.det(topleft(kc))[..., None, None] ** m,
                lambda kc: m * topleft(kc).trace(0, -2, -1)[..., None, None])
    basis = _sym2_basis(n)
    return (lambda kc: _sym2_action(topleft(kc), basis, derivative=False),
            lambda kc: _sym2_action(topleft(kc), basis, derivative=True))


def _poly_divmod(p, q):
    """(quotient, remainder) of coefficient lists, highest degree first;
    q[0] must be nonzero."""
    p = list(p)
    quot = []
    while len(p) >= len(q):
        fac = p[0] / q[0]
        quot.append(fac)
        p = [a - fac * b for a, b in zip(p[1:], q[1:])] + p[len(q):]
    return quot, p


def _poly_quot(p, q):
    """Exact polynomial quotient p / q (remainder must vanish)."""
    quot, rem = _poly_divmod(p, q)
    if any(c != 0 for c in rem):
        raise PreconditionFailed("polynomial division with nonzero remainder")
    return quot


def _poly_gcd(p, q):
    """Monic gcd of coefficient lists (highest degree first), Fractions."""
    def strip(p):
        return list(itertools.dropwhile(lambda c: c == 0, p))

    p, q = strip(p), strip(q)
    while q:
        p, q = q, strip(_poly_divmod(p, q)[1])
    return [c / p[0] for c in p]


def _poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def jordan_decompose(x):
    """(s, n) with x = s + n, s semisimple, n nilpotent, [s, n] = 0, for a
    matrix x of Fractions (PreconditionFailed on anything else): the exact
    oracle of the commuting pairs the nilpotent and springer suites draw.

    Chevalley's Newton iteration s <- s - p'(s)^{-1} p(s) from s = x, where
    p = chi / gcd(chi, chi') is the squarefree part of the characteristic
    polynomial chi, whose roots are the eigenvalues of x; the exact inverse
    of the step is the Cayley-Hamilton adjugate over the determinant
    (invariants.adjugate).  After k steps the error lies in n^(2^k), so
    ceil(log2 m) steps give s exactly for m the largest eigenvalue
    multiplicity, bounded by d - deg p + 1 (extra steps are exact no-ops).
    """
    x = np.asarray(x)
    if not inv._is_exact(x) or not all(isinstance(v, (int, Fraction))
                                       for v in x.ravel()):
        raise PreconditionFailed("jordan_decompose takes a matrix of Fractions")
    cs = list(map(Fraction, inv._char_poly(x)))  # divisions below stay exact
    p = _poly_quot(cs, _poly_gcd(cs, _poly_deriv(cs)))
    dp = _poly_deriv(p)
    s = x
    for _ in range(math.ceil(math.log2(len(cs) - len(p) + 1))):
        adj, det = inv.adjugate(inv._poly_eval_matrix(dp, s))
        if det == 0:
            raise PreconditionFailed("singular matrix in exact inverse")
        s = s - adj @ inv._poly_eval_matrix(p, s) / det
    if any(v != 0 for v in inv._poly_eval_matrix(p, s).ravel()):
        raise PreconditionFailed("Jordan iteration failed to terminate")
    return s, x - s
