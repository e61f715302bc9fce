"""Block factorization in the complexified group, Cayley elements, and
canonical extensions of K-representations to parabolic subgroups.

The complexification is handled in "complex coordinates": a fixed change of
basis M under which K(C) becomes block diagonal, P^+ strictly block upper
unipotent and P^- strictly block lower unipotent.  For Sp(2n,R) the map M is
the inverse of the full Cayley element; for SU(p,q) and SU(2) the defining
basis already works and M = I.

An element g of G(C) lies in the open cell when its complex-coordinate
lower-right block is invertible; then

    g = p_plus * k_c * p_minus

by one step of block Gauss elimination, and j(g) = k_c is the middle
projection.  j is multiplicative under j(h g h') = j(h) j(g) j(h') for
h, h' in K(C).

Representations and canonical extensions hold what they reuse, built in
their constructors: the coordinate change M and its inverse, and for a
canonical extension j(c_1)^{-1} and the tensor of its differential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liecore
from .errors import DecompositionError, UnsupportedFlag

COND_MAX = 1e12


def _block_sizes(spec):
    if spec.family == "sp2nR":
        return spec.n, spec.n
    if spec.family == "su_pq":
        return spec.p, spec.q
    if spec.family == "su2":
        return 1, 1
    raise UnsupportedFlag(f"no hermitian structure for family {spec.family}")


def complex_coords_map(spec):
    """Basis change M with K(C) block diagonal in coordinates M g M^{-1}."""
    if spec.family == "sp2nR":
        n = spec.n
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        M[:n, :n] = np.eye(n)
        M[:n, n:] = 1j * np.eye(n)
        M[n:, :n] = 1j * np.eye(n)
        M[n:, n:] = np.eye(n)
        return M / np.sqrt(2)
    if spec.family in ("su_pq", "su2"):
        return np.eye(spec.size, dtype=complex)
    raise UnsupportedFlag(f"no hermitian structure for family {spec.family}")


@dataclass
class HCDecomposition:
    """Factors of the open-cell decomposition, in complex coordinates."""

    p_plus: np.ndarray
    k_c: np.ndarray
    p_minus: np.ndarray


def hc_decompose(spec, g, in_complex_coords=False, tol=1e-9) -> HCDecomposition:
    """Open-cell factorization of g (given in defining coordinates)."""
    gc = np.asarray(g, dtype=complex)
    if not in_complex_coords:
        M = complex_coords_map(spec)
        gc = M @ gc @ np.linalg.inv(M)
    p, q = _block_sizes(spec)
    A, B = gc[:p, :p], gc[:p, p:]
    C, D = gc[p:, :p], gc[p:, p:]
    if np.linalg.cond(D) > COND_MAX:
        raise DecompositionError("lower-right block too ill-conditioned: not in the open cell")
    Dinv = np.linalg.inv(D)
    pp = np.eye(p + q, dtype=complex)
    pp[:p, p:] = B @ Dinv
    pm = np.eye(p + q, dtype=complex)
    pm[p:, :p] = Dinv @ C
    kc = np.zeros((p + q, p + q), dtype=complex)
    kc[:p, :p] = A - B @ Dinv @ C
    kc[p:, p:] = D
    res = np.max(np.abs(pp @ kc @ pm - gc))
    if res > tol * max(1.0, np.max(np.abs(gc))):
        raise DecompositionError(f"factorization residual {res}")
    return HCDecomposition(p_plus=pp, k_c=kc, p_minus=pm)


def middle_j(spec, g, in_complex_coords=False):
    """j(g): block-diagonal middle factor, in complex coordinates."""
    return hc_decompose(spec, g, in_complex_coords=in_complex_coords).k_c


def in_kc(spec, g, in_complex_coords=False, tol=1e-8) -> bool:
    gc = np.asarray(g, dtype=complex)
    if not in_complex_coords:
        M = complex_coords_map(spec)
        gc = M @ gc @ np.linalg.inv(M)
    p, q = _block_sizes(spec)
    off = max(np.max(np.abs(gc[p:, :p])), np.max(np.abs(gc[:p, p:])))
    return off <= tol * max(1.0, np.max(np.abs(gc)))


# ---------------------------------------------------------------------------
# Cayley elements


def cayley_element(spec, r):
    """Partial Cayley element attached to the standard rank-r parabolic.

    For sp2nR it acts as (1/sqrt 2)[[1,-i],[-i,1]] in each symplectic plane
    (e_j, f_j), j = n-r .. n-1, matching the isotropic subspace convention
    of :func:`liecore.parabolic_data`.
    """
    if spec.family == "sp2nR":
        n = spec.n
        if not 1 <= r <= n:
            raise UnsupportedFlag(f"rank {r} out of range for sp2nR(n={n})")
        c = np.eye(2 * n, dtype=complex)
        s = 1.0 / np.sqrt(2)
        for j in range(n - r, n):
            c[j, j] = s
            c[j, n + j] = -1j * s
            c[n + j, j] = -1j * s
            c[n + j, n + j] = s
        return c
    raise UnsupportedFlag(f"cayley_element implemented for sp2nR, got {spec.family}")


# ---------------------------------------------------------------------------
# representations of K


@dataclass
class Representation:
    """A representation of K given through its holomorphic extension to K(C).

    lamC eats a block-diagonal matrix in complex coordinates and returns a
    GL(V) matrix; lamC_alg is its differential on block-diagonal algebra
    elements.
    """

    spec: object
    name: str
    dim: int
    lamC: callable
    lamC_alg: callable

    def __post_init__(self):
        self._M = complex_coords_map(self.spec)
        self._Minv = np.linalg.inv(self._M)

    def lam_grp(self, k):
        """Evaluate on k in K (defining coordinates)."""
        kc = self._M @ np.asarray(k, dtype=complex) @ self._Minv
        if not in_kc(self.spec, kc, in_complex_coords=True):
            raise DecompositionError("element not in K(C)")
        return self.lamC(kc)

    def lam_alg(self, kdot):
        """Differential on kdot in Lie(K) (defining coordinates)."""
        kc = self._M @ np.asarray(kdot, dtype=complex) @ self._Minv
        return self.lamC_alg(kc)


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
    return out


def _sym2_action(a, ddim, basis, derivative):
    """Matrix of S -> a S a^T (or a S + S a^T if derivative) on Sym^2."""
    n = a.shape[0]
    cols = []
    for S in basis:
        T = a @ S + S @ a.T if derivative else a @ S @ a.T
        # coordinates of T in the basis: T_ij entries, basis indexed by (i<=j)
        col = []
        for i in range(n):
            for j in range(i, n):
                col.append(T[i, j])
        cols.append(col)
    return np.array(cols, dtype=complex).T


def builtin_representation(spec, name: str) -> Representation:
    """Built-in representations.

    For sp2nR (K = U(n)): "std", "det^m" (any integer m), "sym2".
    For su_pq / su2 (K containing a torus factor): "weight:m" uses the phase
    of the leading diagonal block.
    """
    fam = spec.family
    if fam == "sp2nR":
        n = spec.n

        def topleft(kc):
            return np.asarray(kc, dtype=complex)[:n, :n]

        if name == "std":
            return Representation(spec, name, n, topleft, topleft)
        if name.startswith("det^"):
            m = int(name[4:])
            return Representation(
                spec, name, 1,
                lambda kc: np.array([[np.linalg.det(topleft(kc)) ** m]]),
                lambda kc: np.array([[m * np.trace(topleft(kc))]]),
            )
        if name == "sym2":
            basis = _sym2_basis(n)
            d = n * (n + 1) // 2
            return Representation(
                spec, name, d,
                lambda kc: _sym2_action(topleft(kc), d, basis, derivative=False),
                lambda kc: _sym2_action(topleft(kc), d, basis, derivative=True),
            )
        raise UnsupportedFlag(f"unknown representation {name} for sp2nR")
    if fam in ("su_pq", "su2"):
        if name.startswith("weight:"):
            m = int(name.split(":")[1])
            return Representation(
                spec, name, 1,
                lambda kc: np.array([[np.asarray(kc, dtype=complex)[0, 0] ** m]]),
                lambda kc: np.array([[m * np.asarray(kc, dtype=complex)[0, 0]]]),
            )
        if fam == "su_pq" and name == "std_p":
            p = spec.p
            return Representation(
                spec, name, p,
                lambda kc: np.asarray(kc, dtype=complex)[:p, :p],
                lambda kc: np.asarray(kc, dtype=complex)[:p, :p],
            )
        raise UnsupportedFlag(f"unknown representation {name} for {fam}")
    raise UnsupportedFlag(f"no builtin representations for family {fam}")


# ---------------------------------------------------------------------------
# canonical extension


class CanonicalExtension:
    """lambda_1(g) = lamC( j(c_1)^{-1} j(c_1 g) ) for the Cayley element c1
    of a parabolic (see :func:`canonical_extension` and
    :func:`relative_extension`).

    Defined on the subset of G where c_1 g lies in the open cell; this
    contains K_{1h} G_{1l} and the parabolic elements needed for induced
    connections.

    Its differential at the identity is linear, so the constructor
    tabulates it once on the matrix units E_ij as an (N, N, d, d) tensor
    and :meth:`alg` is a single contraction with that tensor.
    """

    def __init__(self, rep: Representation, c1):
        self.rep = rep
        self.spec = rep.spec
        self.c1 = c1
        self._M = complex_coords_map(self.spec)
        self._Minv = np.linalg.inv(self._M)
        self._jc1_inv = np.linalg.inv(middle_j(self.spec, c1))
        # j(c_1)^{-1} j(c_1 .) is a homomorphism on P_1; its differential at
        # xdot is lamC_alg of the k(C) part (the diagonal blocks, in complex
        # coordinates) of c_1 xdot c_1^{-1}, evaluated here at each E_ij
        N = self.spec.size
        units = np.eye(N * N).reshape(N * N, N, N)
        xc = self._M @ (c1 @ units @ np.linalg.inv(c1)) @ self._Minv
        p, _ = _block_sizes(self.spec)
        xc[:, :p, p:] = 0.0
        xc[:, p:, :p] = 0.0
        T = np.array([rep.lamC_alg(blk) for blk in xc])
        self._dlam = T.reshape((N, N) + T.shape[1:])

    def j_twisted(self, g):
        """j(c_1)^{-1} j(c_1 g), a K(C) element in complex coordinates."""
        cg = self._M @ (self.c1 @ np.asarray(g, dtype=complex)) @ self._Minv
        return self._jc1_inv @ middle_j(self.spec, cg, in_complex_coords=True)

    def __call__(self, g):
        return self.rep.lamC(self.j_twisted(g))

    def alg(self, xdot):
        """Differential of lambda_1 at the identity on Lie(P_1) directions."""
        return np.tensordot(xdot, self._dlam, 2)


def canonical_extension(rep: Representation, r: int) -> CanonicalExtension:
    """Extension along the standard rank-r parabolic."""
    return CanonicalExtension(rep, cayley_element(rep.spec, r))


def relative_extension(rep: Representation, r_inner: int, r_outer: int) -> CanonicalExtension:
    """Extension along the relative parabolic between nested ranks.

    r_outer > r_inner; the relative Cayley element is
    c(r_outer) c(r_inner)^{-1}, acting in the planes that separate the two
    isotropic subspaces.
    """
    if not r_outer > r_inner:
        raise UnsupportedFlag("need r_outer > r_inner")
    return CanonicalExtension(rep, cayley_element(rep.spec, r_outer)
                              @ np.linalg.inv(cayley_element(rep.spec, r_inner)))


# ---------------------------------------------------------------------------
# automorphy factors


def j_factor(spec, g, h):
    """Canonical K(C)-valued automorphy factor at the point h x_0.

    Value j(g h) j(h)^{-1} in complex coordinates; requires both arguments
    of j in the open cell and satisfies the cocycle identity.
    """
    jh = middle_j(spec, h)
    jgh = middle_j(spec, np.asarray(g, dtype=complex) @ np.asarray(h, dtype=complex))
    return jgh @ np.linalg.inv(jh)


def automorphy(rep: Representation, g, h):
    """J_lambda(g, h x_0) = lambda_C( j(gh) j(h)^{-1} )."""
    return rep.lamC(j_factor(rep.spec, g, h))


def extension_compat_check(rep: Representation, r_inner, r_outer,
                           samples=50, rng=None):
    """Compare canonical extensions along nested standard parabolics.

    For ranks r_inner < r_outer, both extensions are defined on the linear
    Levi of the inner parabolic, and the relative extension matches the
    outer one on the intermediate GL factor.  Reports the max residual of
    the two agreements over random samples.
    """
    from . import liecore

    spec = rep.spec
    if spec.family != "sp2nR":
        raise UnsupportedFlag("compatibility check implemented for sp2nR")
    if not 0 < r_inner < r_outer <= spec.n:
        raise UnsupportedFlag("need 0 < r_inner < r_outer <= n")
    rng = np.random.default_rng(rng)
    ext_out = canonical_extension(rep, r_outer)
    ext_in = canonical_extension(rep, r_inner)
    rel = relative_extension(rep, r_inner, r_outer)
    res_levi = 0.0
    res_rel = 0.0
    for _ in range(samples):
        a = np.eye(r_inner) + 0.3 * rng.standard_normal((r_inner, r_inner))
        g = liecore.sp_embed_gl(spec, r_inner, a)
        res_levi = max(res_levi,
                       float(np.max(np.abs(ext_out(g) - ext_in(g)))))
        d = r_outer - r_inner
        b = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        blk = np.eye(r_outer)
        blk[:d, :d] = b
        gp = liecore.sp_embed_gl(spec, r_outer, blk)
        res_rel = max(res_rel,
                      float(np.max(np.abs(ext_out(gp) - rel(gp)))))
    mr = max(res_levi, res_rel)
    return {"samples": samples, "levi_residual": res_levi,
            "relative_residual": res_rel, "max_residual": mr}
