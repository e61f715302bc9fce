"""Sample elements and membership residuals shared by the tests."""

import itertools

import numpy as np

from chernpatch import exterior as ext, liecore, suites


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
