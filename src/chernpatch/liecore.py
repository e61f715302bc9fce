"""Matrix models for the small-rank reductive groups used throughout.

Supported families:

* ``sp2nR``  -- Sp(2n, R), real symplectic group for J = [[0, I], [-I, 0]], n <= 3
* ``su_pq`` -- SU(p, q) preserving H = diag(I_p, -I_q), p + q <= 4
* ``su2``   -- SU(2)
* ``u``     -- U(n)
* ``so2``   -- SO(2)

Elements are plain numpy arrays; the functions here validate the defining
relations, split along the Cartan involution theta(X) = -X^H, and build
parabolic subalgebra data for isotropic flags.

Coordinates in a fixed real span of matrices come from one routine,
:func:`algebra_coords`, through a solver (basis matrix and pseudo-inverse)
that the owner of the basis builds once with :func:`span_solver`:
ParabolicData in its constructor for Lie(Q) and Lie(U_1), and
connections.InvariantConnection for its ambient basis.

All numeric work is float64/complex128 with default tolerance 1e-9.  The
purely algebraic operations (bracket, cartan_split, residuals) also accept
object-dtype arrays of ``fractions.Fraction`` for exact checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import DecompositionError, UnsupportedFlag

TOL = 1e-9


# ---------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int = 0
    p: int = 0
    q: int = 0

    @property
    def size(self) -> int:
        if self.family == "sp2nR":
            return 2 * self.n
        if self.family == "su_pq":
            return self.p + self.q
        if self.family == "su2":
            return 2
        if self.family == "u":
            return self.n
        if self.family == "so2":
            return 2
        raise ValueError(f"unknown family {self.family}")

    @property
    def form(self):
        """Invariant bilinear/hermitian form (J or H), or None."""
        if self.family == "sp2nR":
            n = self.n
            J = np.zeros((2 * n, 2 * n))
            J[:n, n:] = np.eye(n)
            J[n:, :n] = -np.eye(n)
            return J
        if self.family == "su_pq":
            return np.diag([1.0] * self.p + [-1.0] * self.q)
        return None


def sp2nR(n: int) -> GroupSpec:
    if not 1 <= n <= 3:
        raise ValueError("sp2nR supported for 1 <= n <= 3")
    return GroupSpec("sp2nR", n=n)


def su_pq(p: int, q: int) -> GroupSpec:
    if p < 1 or q < 1 or p + q > 4:
        raise ValueError("su_pq supported for p,q >= 1, p + q <= 4")
    return GroupSpec("su_pq", p=p, q=q)


def su2() -> GroupSpec:
    return GroupSpec("su2")


def u_n(n: int) -> GroupSpec:
    if not 1 <= n <= 4:
        raise ValueError("u supported for 1 <= n <= 4")
    return GroupSpec("u", n=n)


def so2() -> GroupSpec:
    return GroupSpec("so2")


# ---------------------------------------------------------------------------
# defining relations


def _conjT(X):
    if X.dtype == object:
        return X.T
    return X.conj().T


def alg_residual(spec: GroupSpec, X) -> float:
    """Residual of the linearized defining relation at X."""
    fam = spec.family
    if fam == "sp2nR":
        J = spec.form
        R = X.T @ J + J @ X
        r = float(np.max(np.abs(R)))
        r = max(r, float(np.max(np.abs(np.asarray(X, dtype=complex).imag))))
        return r
    if fam == "su_pq":
        H = spec.form
        R = _conjT(X) @ H + H @ X
        return max(float(np.max(np.abs(R))), abs(complex(np.trace(X))))
    if fam == "su2":
        R = _conjT(X) + X
        return max(float(np.max(np.abs(R))), abs(complex(np.trace(X))))
    if fam == "u":
        R = _conjT(X) + X
        return float(np.max(np.abs(R)))
    if fam == "so2":
        R = X.T + X
        return float(np.max(np.abs(R)))
    raise ValueError(fam)


def grp_residual(spec: GroupSpec, g) -> float:
    """Residual of the group defining relation at g."""
    fam = spec.family
    if fam == "sp2nR":
        J = spec.form
        R = g.T @ J @ g - J
        r = float(np.max(np.abs(R)))
        return max(r, float(np.max(np.abs(np.asarray(g, dtype=complex).imag))))
    if fam == "su_pq":
        H = spec.form
        R = _conjT(g) @ H @ g - H
        return max(float(np.max(np.abs(R))), abs(np.linalg.det(np.asarray(g, dtype=complex)) - 1.0))
    if fam == "su2":
        R = _conjT(g) @ g - np.eye(2)
        return max(float(np.max(np.abs(R))), abs(np.linalg.det(np.asarray(g, dtype=complex)) - 1.0))
    if fam == "u":
        R = _conjT(g) @ g - np.eye(spec.n)
        return float(np.max(np.abs(R)))
    if fam == "so2":
        R = g.T @ g - np.eye(2)
        return max(float(np.max(np.abs(R))), abs(float(np.linalg.det(np.asarray(g, dtype=float))) - 1.0))
    raise ValueError(fam)


def check_grp(spec: GroupSpec, g, tol: float = TOL):
    r = grp_residual(spec, g)
    if not r <= tol:
        raise DecompositionError(f"not in {spec.family}: residual {r}")
    return g


# ---------------------------------------------------------------------------
# algebra bases

def _sym_basis(n):
    out = []
    for i in range(n):
        for j in range(i, n):
            S = np.zeros((n, n))
            S[i, j] = 1.0
            S[j, i] = 1.0
            out.append(S)
    return out


def algebra_basis(spec: GroupSpec):
    """Real basis of the Lie algebra, as a list of numpy matrices."""
    fam = spec.family
    if fam == "sp2nR":
        n = spec.n
        out = []
        for i in range(n):
            for j in range(n):
                A = np.zeros((n, n))
                A[i, j] = 1.0
                X = np.zeros((2 * n, 2 * n))
                X[:n, :n] = A
                X[n:, n:] = -A.T
                out.append(X)
        for S in _sym_basis(n):
            X = np.zeros((2 * n, 2 * n))
            X[:n, n:] = S
            out.append(X)
        for S in _sym_basis(n):
            X = np.zeros((2 * n, 2 * n))
            X[n:, :n] = S
            out.append(X)
        return out
    if fam in ("su_pq", "su2"):
        N = spec.size
        H = spec.form if fam == "su_pq" else np.eye(2)
        out = []
        # off-diagonal: for i<j the pair (E_ij - s E_ji) and i(E_ij + s E_ji)
        # with s = H_ii H_jj sign so that X^H H + H X = 0
        for i in range(N):
            for j in range(i + 1, N):
                s = H[i, i] * H[j, j]
                X = np.zeros((N, N), dtype=complex)
                X[i, j] = 1.0
                X[j, i] = -s
                out.append(X)
                Y = np.zeros((N, N), dtype=complex)
                Y[i, j] = 1.0j
                Y[j, i] = 1.0j * s
                out.append(Y)
        # traceless diagonal imaginary
        for i in range(N - 1):
            X = np.zeros((N, N), dtype=complex)
            X[i, i] = 1.0j
            X[i + 1, i + 1] = -1.0j
            out.append(X)
        return out
    if fam == "u":
        n = spec.n
        out = []
        for i in range(n):
            X = np.zeros((n, n), dtype=complex)
            X[i, i] = 1.0j
            out.append(X)
        for i in range(n):
            for j in range(i + 1, n):
                X = np.zeros((n, n), dtype=complex)
                X[i, j] = 1.0
                X[j, i] = -1.0
                out.append(X)
                Y = np.zeros((n, n), dtype=complex)
                Y[i, j] = 1.0j
                Y[j, i] = 1.0j
                out.append(Y)
        return out
    if fam == "so2":
        return [np.array([[0.0, -1.0], [1.0, 0.0]])]
    raise ValueError(fam)


def _vec(X):
    """Flatten a (possibly complex) matrix into a real coordinate vector."""
    X = np.asarray(X, dtype=complex)
    return np.concatenate([X.real.ravel(), X.imag.ravel()])


def span_solver(basis):
    """(B, B^+) for a fixed real span: B has the real coordinate vector of
    each basis matrix as a column, B^+ is its pseudo-inverse.  The owner of
    a basis builds this once, at construction."""
    B = np.stack([_vec(b) for b in basis], axis=1)
    return B, np.linalg.pinv(B)


def algebra_coords(solver, X, tol: float, message: str):
    """Coordinates of X in the span of a :func:`span_solver`; raises
    DecompositionError(message) unless |B c - X|_inf <= tol max(1, |X|_inf)."""
    B, pinv = solver
    v = _vec(X)
    c = pinv @ v
    if np.max(np.abs(B @ c - v)) > tol * max(1.0, np.max(np.abs(v))):
        raise DecompositionError(message)
    return c


def from_coords(coords, basis):
    out = None
    for c, b in zip(coords, basis):
        term = c * b
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# bracket and Cartan split


def bracket(X, Y):
    return X @ Y - Y @ X


def cartan_theta(spec: GroupSpec, X):
    return -_conjT(X)


def cartan_split(spec: GroupSpec, X):
    """(k, p) with X = k + p, theta(k) = k, theta(p) = -p."""
    th = cartan_theta(spec, X)
    if X.dtype == object:
        half = Fraction(1, 2)
    else:
        half = 0.5
    k = half * (X + th)
    p = half * (X - th)
    return k, p


def exp_grp(spec: GroupSpec, X, tol: float = TOL):
    g = scipy.linalg.expm(np.asarray(X, dtype=complex))
    if spec.family in ("sp2nR", "so2"):
        g = g.real
    return check_grp(spec, g, tol=max(tol, 1e-8 * float(np.linalg.norm(g))))


def random_alg(spec: GroupSpec, rng, scale: float = 1.0):
    basis = algebra_basis(spec)
    c = rng.standard_normal(len(basis)) * scale
    return from_coords(c, basis)


# ---------------------------------------------------------------------------
# parabolic data
#
# Standard maximal parabolics of Sp(2n,R) are stabilizers of the isotropic
# subspace spanned by the last r of the Lagrangian basis vectors e_1..e_n;
# that way the hermitian Levi factor Sp(2(n-r)) sits in the leading plane
# block and matches the chart projection onto leading principal blocks.
# For SU(p,q) the rank-r isotropic subspace is spanned by
# (e_i + e_{p+i})/sqrt(2), i = 1..r.


def _iso_subspace(spec: GroupSpec, r: int):
    """Columns spanning the standard isotropic subspace of rank r."""
    N = spec.size
    if spec.family == "sp2nR":
        n = spec.n
        if not 1 <= r <= n:
            raise UnsupportedFlag(f"rank {r} isotropic subspace in sp2nR(n={n})")
        V = np.zeros((N, r))
        for a in range(r):
            V[n - r + a, a] = 1.0
        return V
    if spec.family == "su_pq":
        p, q = spec.p, spec.q
        if not 1 <= r <= min(p, q):
            raise UnsupportedFlag(f"rank {r} isotropic subspace in su({p},{q})")
        V = np.zeros((N, r), dtype=complex)
        for a in range(r):
            V[a, a] = 1.0 / np.sqrt(2)
            V[p + a, a] = 1.0 / np.sqrt(2)
        return V
    raise UnsupportedFlag(f"parabolic data not defined for family {spec.family}")


def _nullspace_combos(basis, constraint):
    """Sub-span {X in span(basis) : constraint(X) = 0}; returns matrices."""
    rows = []
    for b in basis:
        rows.append(_vec(constraint(b)))
    M = np.stack(rows, axis=1)
    ns = scipy.linalg.null_space(M, rcond=1e-10)
    return [from_coords(ns[:, k], basis) for k in range(ns.shape[1])]


def _span_intersection(basA, basB):
    if not basA or not basB:
        return []
    A = np.stack([_vec(x) for x in basA], axis=1)
    B = np.stack([_vec(x) for x in basB], axis=1)
    ns = scipy.linalg.null_space(np.hstack([A, -B]), rcond=1e-10)
    out = []
    for k in range(ns.shape[1]):
        out.append(from_coords(ns[: A.shape[1], k], basA))
    return _orthonormalize(out)


def _orthonormalize(mats, tol=1e-10):
    out = []
    for m in mats:
        v = _vec(m)
        for o in out:
            v = v - np.dot(_vec(o), v) * _vec(o)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            M = v[: v.size // 2].reshape(m.shape) + 1j * v[v.size // 2:].reshape(m.shape)
            if np.max(np.abs(M.imag)) < 1e-14:
                M = M.real
            out.append(M / nrm)
    # renormalize in matrix form
    return [m / np.linalg.norm(_vec(m)) for m in out]


@dataclass
class ParabolicData:
    """Subalgebra data for a standard parabolic given by an isotropic flag.

    flag is an increasing tuple of ranks (r_1 < ... < r_m); the parabolic is
    the intersection of the maximal parabolics P^(r_i).  P_1 below always
    refers to the maximal parabolic of the largest rank (the one with the
    smallest hermitian part).
    """

    spec: GroupSpec
    flag: tuple
    basis_u: list = field(repr=False)        # nilradical of Lie(Q)
    basis_u1: list = field(repr=False)       # nilradical of Lie(P_1)
    basis_h: list = field(repr=False)        # hermitian Levi part g_{1h}
    basis_l: list = field(repr=False)        # linear Levi part g_{Q ell}

    def __post_init__(self):
        # built once per parabolic: span solvers for Lie(Q) and Lie(U_1),
        # and the (k, N, N) stacks of the u, h and l bases
        self._q = span_solver(self.basis_q)
        self._u1 = span_solver(self.basis_u1)
        N = self.spec.size
        self._stacks = [np.array(b).reshape(len(b), N, N)
                        for b in (self.basis_u, self.basis_h, self.basis_l)]

    @property
    def dims(self):
        return (len(self.basis_u), len(self.basis_h), len(self.basis_l))

    @property
    def basis_q(self):
        return list(self.basis_u) + list(self.basis_h) + list(self.basis_l)

    def split(self, X, tol: float = 1e-8):
        """Split X in Lie(Q) into (u, h, l) components."""
        c = algebra_coords(self._q, X, tol,
                           "element not in the parabolic subalgebra")
        U, H, L = self._stacks
        nu, nh = len(U), len(H)
        return (np.tensordot(c[:nu], U, 1), np.tensordot(c[nu:nu + nh], H, 1),
                np.tensordot(c[nu + nh:], L, 1))


def parabolic_data(spec: GroupSpec, flag) -> ParabolicData:
    flag = tuple(flag)
    if not flag or list(flag) != sorted(set(flag)):
        raise UnsupportedFlag(f"flag must be strictly increasing, got {flag}")
    basis = algebra_basis(spec)
    subspaces = [_iso_subspace(spec, r) for r in flag]

    # Lie(Q) = { X : X V_i subset V_i for all i }
    def stab_constraint(V):
        P = V @ np.linalg.pinv(V)

        def c(X):
            return (np.eye(spec.size) - P) @ (X @ V)
        return c

    bas_q = basis
    for V in subspaces:
        bas_q = _nullspace_combos(bas_q, stab_constraint(V))
    bas_q = _orthonormalize(bas_q)

    # theta-stable Levi: Lie(Q) cap theta(Lie(Q))
    theta_q = [cartan_theta(spec, X) for X in bas_q]
    levi = _span_intersection(bas_q, theta_q)

    # nilradical = radical of the trace form on Lie(Q)
    def trace_radical(bas):
        G = np.array([[complex(np.trace(a @ b)).real for b in bas] for a in bas])
        ns = scipy.linalg.null_space(G, rcond=1e-10)
        return _orthonormalize([from_coords(ns[:, k], bas) for k in range(ns.shape[1])])

    bas_u = trace_radical(bas_q)

    # largest-rank maximal parabolic P_1 and its pieces
    Vmax = subspaces[-1]
    bas_p1 = _orthonormalize(_nullspace_combos(basis, stab_constraint(Vmax)))
    bas_u1 = trace_radical(bas_p1)

    # hermitian part: kills V_max and its form-dual
    form = spec.form
    Vbar = form @ Vmax.conj() if spec.family == "su_pq" else form @ Vmax

    def kill_constraint(X):
        return np.hstack([X @ Vmax, X @ Vbar])

    bas_h = _orthonormalize(_nullspace_combos(levi, kill_constraint))

    # linear part: centralizer of g_{1h} in the Levi
    if bas_h:
        def comm_constraint(X):
            return np.hstack([bracket(X, Y) for Y in bas_h])
        bas_l = _orthonormalize(_nullspace_combos(levi, comm_constraint))
    else:
        bas_l = levi

    pd = ParabolicData(spec=spec, flag=flag, basis_u=bas_u, basis_u1=bas_u1,
                       basis_h=bas_h, basis_l=bas_l)
    # consistency: dims add up and h/l commute
    if len(bas_u) + len(bas_h) + len(bas_l) != len(bas_q):
        raise DecompositionError("parabolic decomposition dimensions inconsistent")
    for X in bas_h:
        for Y in bas_l:
            if np.max(np.abs(bracket(X, Y))) > 1e-8:
                raise DecompositionError("hermitian and linear Levi parts fail to commute")
    return pd


# ---------------------------------------------------------------------------
# group-level factorization (sp2nR only: coordinate subspaces make the
# embeddings exact)


def _sp_indices(spec: GroupSpec, r: int):
    n = spec.n
    idx_v = list(range(n - r, n))                  # e-part of V
    idx_vbar = list(range(2 * n - r, 2 * n))       # f-part (dual of V)
    idx_w = list(range(0, n - r)) + list(range(n, 2 * n - r))
    return idx_v, idx_vbar, idx_w


def sp_hermitian_block(spec: GroupSpec, r: int, g):
    """Restrict to the W = V^perp/V plane block; lands in Sp(2(n-r),R)."""
    _, _, idx_w = _sp_indices(spec, r)
    return np.asarray(g)[np.ix_(idx_w, idx_w)]


def sp_embed_hermitian(spec: GroupSpec, r: int, h):
    _, _, idx_w = _sp_indices(spec, r)
    N = spec.size
    out = np.eye(N, dtype=np.asarray(h).dtype)
    out[np.ix_(idx_w, idx_w)] = h
    return out


def sp_embed_gl(spec: GroupSpec, r: int, a):
    """Embed a in GL(r) as the linear Levi element acting as a on V."""
    idx_v, idx_vbar, _ = _sp_indices(spec, r)
    N = spec.size
    a = np.asarray(a, dtype=float)
    out = np.eye(N)
    out[np.ix_(idx_v, idx_v)] = a
    out[np.ix_(idx_vbar, idx_vbar)] = np.linalg.inv(a).T
    return out


def group_factor_fine(pd: ParabolicData, g, tol: float = 1e-8):
    """Factor g in Q as (u_1, g_{1h}, u_rel, g_{Ql}), in that product order."""
    spec = pd.spec
    if spec.family != "sp2nR":
        raise UnsupportedFlag("group factorization implemented for sp2nR only")
    g = np.asarray(g, dtype=float)
    rmax = pd.flag[-1]
    idx_v, _, _ = _sp_indices(spec, rmax)

    a_full = g[np.ix_(idx_v, idx_v)]               # action on V, block triangular
    # sub-flag block sizes inside V (coordinates ordered e_{n-rmax}..e_{n-1};
    # the rank-r_i subspace is the span of the *last* r_i of these)
    ranks = list(pd.flag)
    cuts = [rmax - r for r in reversed(ranks)] + [rmax]   # ascending cut points
    cuts = sorted(set([0] + cuts))
    blocks = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    # g preserves each subspace of the flag exactly when a_full is block
    # lower triangular: nothing above a diagonal block
    for (s, e) in blocks[1:]:
        if np.max(np.abs(a_full[:s, s:e])) > tol * max(1.0, np.max(np.abs(a_full))):
            raise DecompositionError("group element not in the parabolic cell")
    d = np.zeros_like(a_full)
    for (s, e) in blocks:
        d[s:e, s:e] = a_full[s:e, s:e]
    nmat = a_full @ np.linalg.inv(d)

    g_ql = sp_embed_gl(spec, rmax, d)
    u_rel = sp_embed_gl(spec, rmax, nmat)
    h_small = sp_hermitian_block(spec, rmax, g)
    g_1h = sp_embed_hermitian(spec, rmax, h_small)
    u1 = g @ np.linalg.inv(g_1h @ u_rel @ g_ql)
    # validate u1 against Lie(U_1): u1 is unipotent exactly when X is
    # nilpotent, and then log u1 is the finite series below
    N = spec.size
    X = u1 - np.eye(N)
    powers = [X]
    for _ in range(N - 1):
        powers.append(powers[-1] @ X)
    if np.max(np.abs(powers[-1])) > tol * max(1.0, np.max(np.abs(X))) ** N:
        raise DecompositionError("factor u_1 is not unipotent")
    L = sum((-1) ** (k + 1) * powers[k - 1] / k for k in range(1, N))
    algebra_coords(pd._u1, L, 1e-7, "unipotent factor not in U_1")
    return u1, g_1h, u_rel, g_ql
