"""Matrix model of Sp(2n, R), the group of the Siegel model.

``sp2nR`` -- Sp(2n, R), the real symplectic group for J = [[0, I], [-I, 0]],
n <= 3, with parabolic data, the linear Levi factor of a parabolic element
and (in :mod:`hcrepr`) canonical extensions.  SU(1, 1) enters as its
isomorphic copy Sp(2, R), ``sp2nR(1)``.

A :class:`GroupSpec` is the one place that holds the group's structure
(size, invariant form J, the coordinate change M); other modules read
these facts from the spec, and group membership is one formula
(:func:`grp_residual`).

Elements are plain numpy arrays; the functions here validate the defining
relations, split along the Cartan involution theta(X) = -X^H, and choose
the parabolic subalgebra data of the coordinate isotropic flags of sp2nR
from the elementary basis of :func:`algebra_basis`: each of its elements
is a Cartan element or a root vector, so every piece is a subset of it.

Every span the package builds is a subset of that elementary basis, whose
elements have disjoint supports: coordinates in it are orthogonal
projections, by :func:`algebra_coords` through a solver that the owner of
the basis builds once with :func:`span_solver` (ParabolicData for Lie(Q),
connections once per spec for its ambient basis).

The package's one matrix exponential is :func:`expm`, on a matrix or a
stack, each matrix scaled by its own norm; :func:`exp_grp`, which checks
each element of a stack, and the group charts in :mod:`charts` use it.

check_grp, algebra_coords, ParabolicData.split, cartan_split and
group_factor_fine take a (..., N, N) stack too, sp_embed_gl one of GL(r).
Checks hold per element through :func:`require`, which names the first
failing row, with each bound written res <= bound so that a NaN fails it.

All numeric work is float64/complex128 with default tolerance 1e-9.  The
purely algebraic operations (bracket, cartan_split, residuals) also accept
object-dtype arrays of ``fractions.Fraction`` for exact checks.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DecompositionError, PreconditionFailed, UnsupportedFlag

TOL = 1e-9
PARABOLIC_TOL = 1e-8    # relative bound of the parabolic split and factors


# ---------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class GroupSpec:
    """Sp(2n, R) by its rank n; the properties below hold its structure,
    which other modules read from here."""

    n: int

    @property
    def size(self) -> int:
        return 2 * self.n

    @property
    def form(self):
        """Invariant form J, with g^T J g = J on the group."""
        return np.eye(2 * self.n, k=self.n) - np.eye(2 * self.n, k=-self.n)

    @functools.cached_property
    def complex_coords(self):
        """(M, M^{-1}) with K(C) block diagonal in coordinates M g M^{-1}:
        M is the inverse of the full Cayley element.  Built once per spec."""
        eye = np.eye(self.n)
        M = np.block([[eye, 1j * eye], [1j * eye, eye]]) / np.sqrt(2)
        return readonly(M), readonly(np.linalg.inv(M))


_SPECS = {n: GroupSpec(n) for n in (1, 2, 3)}


def sp2nR(n: int) -> GroupSpec:
    """The one spec of rank n, an int (operator.index), for every caller."""
    if operator.index(n) not in _SPECS:
        raise ValueError("sp2nR supported for 1 <= n <= 3")
    return _SPECS[n]


def readonly(a):
    """a, set read-only: a shared array refuses a stray write."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# defining relations


def _conjT(X):
    """X^H; a real or exact X is only transposed, without a copy."""
    return (X.conj() if np.iscomplexobj(X) else X).swapaxes(-1, -2)


def grp_residual(spec: GroupSpec, g):
    """Residual of the group defining relation at g, or at each element of
    a stack: max(|g^H J g - J|, |Im g|)."""
    J = spec.form
    r = np.abs(_conjT(g) @ J @ g - J).max(axis=(-2, -1))
    return np.maximum(r, np.abs(np.imag(g)).max(axis=(-2, -1)))


def check_grp(spec: GroupSpec, g, tol=TOL):
    """g; DecompositionError names the first element over its tol."""
    r = grp_residual(spec, g)
    require(r <= tol, f"not in sp2nR: residual {float(np.max(r))}")
    return g


# ---------------------------------------------------------------------------
# algebra bases

def sym_basis(n, a):
    """Basis of Sym^a(C^n), (dim, n, ..., n): per sorted multi-index I, in
    order, the sum of e_J over the distinct orderings J of I, all 0 or 1."""
    flat = list(itertools.product(range(n), repeat=a))
    return np.array([[float(tuple(sorted(J)) == I) for J in flat] for I in
                     itertools.combinations_with_replacement(range(n), a)]
                    ).reshape((-1,) + (n,) * a)


@functools.cache
def algebra_basis(spec: GroupSpec, /):
    """Real basis of the Lie algebra, read-only (k, N, N), built once per spec:
    diag(A, -A^T) for the matrix units A, then sym_basis(n, 2) above, below."""
    n = spec.n
    A, S = np.eye(n * n).reshape(-1, n, n), sym_basis(n, 2)
    k = len(S)
    out = np.zeros((n * n + 2 * k, 2 * n, 2 * n))
    out[:n * n, :n, :n] = A
    out[:n * n, n:, n:] = -A.swapaxes(1, 2)
    out[n * n:-k, :n, n:] = S
    out[-k:, n:, :n] = S
    return readonly(out)


def span_solver(basis):
    """Read-only (B, P) of a real span of orthogonal matrices, built once by
    its owner: B holds the flat basis matrices as rows, and P = B^T / |b|^2
    projects a flat matrix onto its coordinates.  Raises PreconditionFailed
    unless B B^T is exactly diagonal, as it is for disjoint supports."""
    B = np.array(basis, dtype=float).reshape(len(basis), -1)
    gram = B @ B.T
    if np.any(gram - np.diag(np.diag(gram))):
        raise PreconditionFailed("span_solver: the basis is not orthogonal")
    return readonly(B), readonly(B.T / np.diag(gram))


def algebra_coords(solver, X, tol: float, message: str):
    """Coordinates (..., k) of X, a matrix or a (..., N, N) stack, in the span
    of a :func:`span_solver`, by projection of its real part; raises
    DecompositionError(message), naming the first failing row, unless each
    |B c - X|_inf <= tol max(1, |X|_inf), so a nonzero imaginary part fails."""
    B, P = solver
    v = np.reshape(X, np.shape(X)[:-2] + (-1,))
    c = np.real(v) @ P
    require(np.abs(c @ B - v).max(axis=-1)
            <= tol * np.maximum(1.0, np.abs(v).max(axis=-1)), message)
    return c


def require(ok, message: str, error=DecompositionError):
    """Raise error(message) unless the numpy boolean ok holds, or each entry
    of it, naming the first failing row of a stack."""
    if ok.all() if ok.ndim else ok:
        return
    if ok.ndim:
        message += f" (row {', '.join(map(str, np.argwhere(~ok)[0]))})"
    raise error(message)


def require_of(ok, message, name, m, axes):
    """require(ok, message, PreconditionFailed) for a check of the input m,
    naming first a row of m (its entries over axes) that is not finite; m is
    read only once ok fails, so that a passing check runs no further loop."""
    if not (ok.all() if ok.ndim else ok) and np.asarray(m).dtype != object:
        require(np.isfinite(m).all(axis=axes), f"{name} is not finite",
                PreconditionFailed)
    require(ok, message, PreconditionFailed)


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


def cartan_split(X):
    """(k, p) with X = k + p, theta(k) = k and theta(p) = -p for the Cartan
    involution theta(X) = -X^H; X may be a stack."""
    th = -_conjT(X)
    half = Fraction(1, 2) if X.dtype == object else 0.5
    k = X + th      # scaled in place: no second temporary per stack
    k *= half
    p = X - th
    p *= half
    return k, p


def expm(a):
    """exp of every matrix of a (..., N, N) stack: the degree-16 Taylor
    polynomial after scaling each matrix by its own power of two to 1-norm
    at most 1/2, then squaring it back as often, so that a member of a
    stack gets the same bits as the matrix alone.

    Only matmuls: scipy.linalg.expm solves a small linear system per matrix,
    and OpenBLAS hands even a 4x4 solve to a worker thread, which cost about
    0.2 ms per call on an idle 2-core machine against 2 us on one thread.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(2.0 * norm, 1.0))).astype(int)
    a = a / (2.0 ** s)[..., None, None]
    eye = np.eye(a.shape[-1])
    out = eye + a / 16
    for k in range(15, 0, -1):    # eye + a @ out / k, in place
        out = a @ out
        out /= k
        out += eye
    for k in range(s.max(initial=0)):
        out = np.where((s > k)[..., None, None], out @ out, out)
    return out


def exp_grp(spec: GroupSpec, X):
    """exp of a real, finite X or stack in the group; any other is refused."""
    if np.iscomplexobj(X) and np.imag(X).any():
        raise PreconditionFailed("exp_grp: X has a nonzero imaginary part")
    X = np.asarray(np.real(X), dtype=float)
    require_of(np.abs(X).max(axis=(-2, -1)) < np.inf, "X is not finite", "X",
               X, (-2, -1))
    g = expm(X)
    return check_grp(spec, g, tol=np.maximum(
        TOL, 1e-8 * np.linalg.norm(g, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# parabolic data
#
# Standard maximal parabolics of Sp(2n,R) are stabilizers of the isotropic
# subspace spanned by the last r of the Lagrangian basis vectors e_1..e_n;
# that way the hermitian Levi factor Sp(2(n-r)) sits in the leading plane
# block and matches the chart projection onto leading principal blocks.


@dataclass
class ParabolicData:
    """Subalgebra data for a standard parabolic given by an isotropic flag.

    flag is an increasing tuple of ranks (r_1 < ... < r_m); the parabolic is
    the intersection of the maximal parabolics P^(r_i).  Its Levi part
    splits at V, the isotropic subspace of the largest rank, whose maximal
    parabolic P_1 has the smallest hermitian part.
    """

    spec: GroupSpec
    flag: tuple
    basis_u: np.ndarray = field(repr=False)  # nilradical of Lie(Q)
    basis_h: np.ndarray = field(repr=False)  # hermitian Levi part g_{1h}
    basis_l: np.ndarray = field(repr=False)  # linear Levi part g_{Q ell}

    def __post_init__(self):
        # (N^2, 3 N^2): projections onto u, h, l; (N^2, N^2): onto Lie(Q)
        B, P = span_solver(self.basis_q)
        part = np.repeat(np.arange(3), [len(self.basis_u), len(self.basis_h),
                                        len(self.basis_l)])
        self._proj = readonly(np.hstack([P[:, part == k] @ B[part == k]
                                         for k in range(3)]))
        self._onto_q = readonly(P @ B)

    @property
    def basis_q(self):
        return np.concatenate([self.basis_u, self.basis_h, self.basis_l])

    def split(self, X):
        """(u, h, l) parts of X in Lie(Q), a matrix or a stack: orthogonal
        projections of its real part, views of one product.  Raises
        DecompositionError naming the first row with |proj_Q(X) - X| >
        PARABOLIC_TOL max(1, |X|)."""
        sh = np.shape(X)
        flat = np.reshape(X, sh[:-2] + (-1,))
        re = np.real(flat)
        bound = PARABOLIC_TOL * np.maximum(1.0, np.abs(flat).max(axis=-1))
        res = np.subtract(re @ self._onto_q, flat)
        require(np.abs(res, out=res).real.max(axis=-1) <= bound,
                "element not in the parabolic subalgebra")
        parts = (re @ self._proj).reshape(sh[:-2] + (3,) + sh[-2:])
        return parts[..., 0, :, :], parts[..., 1, :, :], parts[..., 2, :, :]


def parabolic_data(spec: GroupSpec, flag) -> ParabolicData:
    """Parabolic data of the standard isotropic flag of the given ranks,
    chosen from :func:`algebra_basis`, each element divided by its norm.

    Every element of that basis is a Cartan element or a root vector of the
    diagonal Cartan, so it sends coordinate vectors to coordinate vectors:
    it lies in Lie(Q) when no entry X[rest, v] takes a vector of some V_r
    out of it, and in the nilradical when theta(X) = -X^T does not.  The
    rest of Lie(Q) is the Levi part, block diagonal over W and V + Vbar of
    the largest rank: its hermitian part kills V and Vbar, its linear part
    is supported there.  The flag, ints (operator.index), is checked on
    every call; the object of (spec, flag) is built once and shared.
    """
    flag = tuple(map(operator.index, flag))
    if not flag or list(flag) != sorted(set(flag)):
        raise UnsupportedFlag(f"flag must be strictly increasing, got {flag}")
    for r in flag:
        if not 1 <= r <= spec.n:
            raise UnsupportedFlag(
                f"rank {r} isotropic subspace in sp2nR(n={spec.n})")
    return _parabolic_data(spec, flag)


@functools.cache
def _parabolic_data(spec: GroupSpec, flag: tuple) -> ParabolicData:
    basis = algebra_basis(spec)
    basis = basis / np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    moves = np.zeros((spec.size,) * 2, dtype=bool)      # (rest, v) entries
    for r in flag:
        inside = np.zeros(spec.size, dtype=bool)
        inside[_sp_indices(spec, r)[0]] = True
        moves |= np.outer(~inside, inside)
    q = basis[~basis[:, moves].any(axis=1)]
    u = q[:, moves.T].any(axis=1)
    v, vbar, _ = _sp_indices(spec, flag[-1])
    linear = q[:, :, v + vbar].any(axis=(1, 2))
    return ParabolicData(spec, flag, *(readonly(q[m]) for m in
                                       (u, ~u & ~linear, ~u & linear)))


# ---------------------------------------------------------------------------
# group-level factorization (coordinate subspaces make the embeddings exact)


def _sp_indices(spec: GroupSpec, r: int):
    """The one isotropic-flag convention of sp2nR: the rank-r isotropic
    subspace V is spanned by the last r of e_1 ... e_n."""
    n = spec.n
    idx_v = list(range(n - r, n))                  # e-part of V
    idx_vbar = list(range(2 * n - r, 2 * n))       # f-part (dual of V)
    idx_w = list(range(0, n - r)) + list(range(n, 2 * n - r))
    return idx_v, idx_vbar, idx_w


@functools.cache
def _sp_blocks(spec: GroupSpec, r: int):
    """Index keys (..., rows, cols) of the V and Vbar blocks of
    :func:`_sp_indices`, index ranges as slices, built once per (spec, r)."""
    v, vbar = (slice(i[0], i[-1] + 1) for i in _sp_indices(spec, r)[:2])
    return (..., v, v), (..., vbar, vbar)


def _eye_stack(shape, N, parts=(), dtype=float):
    """Identity matrices of size N over the leading shape, with the blocks
    of parts, pairs (key of :func:`_sp_blocks`, block stack), written in."""
    out = np.zeros(tuple(shape) + (N, N), dtype=dtype)
    out.reshape(-1, N * N)[:, ::N + 1] = 1.0
    for key, block in parts:
        out[key] = block
    return out


def sp_embed_gl(spec: GroupSpec, r: int, a):
    """Embed a in GL(r), or a stack of them, as the linear Levi element
    acting as a on V."""
    v, vbar = _sp_blocks(spec, r)
    a = np.asarray(a, dtype=float)
    return _eye_stack(a.shape[:-2], spec.size,
                      [(v, a), (vbar, np.linalg.inv(a).swapaxes(-1, -2))])


def group_factor_fine(pd: ParabolicData, g):
    """g_{Ql}, the last factor of g = u_1 g_{1h} u_rel g_{Ql} in Q, whose
    name the benchmark's tracer wraps: sp_embed_gl of the diagonal blocks
    of g on V, the isotropic subspace of the flag's largest rank.  g may be
    a stack; DecompositionError names the first row outside the group (at
    the bound of :func:`exp_grp`) or not keeping V and each V_r."""
    spec = pd.spec
    g = np.asarray(g, dtype=float)
    check_grp(spec, g, tol=np.maximum(
        TOL, 1e-8 * np.linalg.norm(g, axis=(-2, -1))))
    rmax = pd.flag[-1]
    key = _sp_blocks(spec, rmax)[0]                # (..., V, V)
    _, vbar, w = _sp_indices(spec, rmax)
    # g maps V into itself: nothing outside the rows of V in its columns
    require(_maxabs(g[..., vbar + w, key[-1]])
            <= PARABOLIC_TOL * np.maximum(1.0, _maxabs(g)),
            "group element not in the parabolic cell")
    a_full = g[key]                                # action on V
    # sub-flag block sizes inside V (coordinates ordered e_{n-rmax}..e_{n-1};
    # the rank-r_i subspace is the span of the *last* r_i of these)
    cuts = sorted({0, rmax} | {rmax - r for r in pd.flag})   # ascending
    blocks = list(zip(cuts, cuts[1:]))
    # g preserves each subspace of the flag exactly when a_full is block
    # lower triangular: nothing above a diagonal block
    for (s, e) in blocks[1:]:
        require(_maxabs(a_full[..., :s, s:e])
                <= PARABOLIC_TOL * np.maximum(1.0, _maxabs(a_full)),
                "group element not in the parabolic cell")
    d = np.zeros_like(a_full)
    for (s, e) in blocks:
        d[..., s:e, s:e] = a_full[..., s:e, s:e]
    return sp_embed_gl(spec, rmax, d)


def _maxabs(x):
    """max |x_ij| of each matrix of a stack, over one flattened axis."""
    return np.abs(x).reshape(np.shape(x)[:-2] + (-1,)).max(axis=-1)
