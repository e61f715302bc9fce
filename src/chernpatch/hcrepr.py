"""Block factorization in the complexified group, Cayley elements, and
canonical extensions of K-representations to parabolic subgroups.

Sp(2n, R) of :mod:`liecore` has the open-cell factorization, the
K-representations Sym^a(C^n) (x) det^b (:func:`builtin_representation`),
Cayley elements and with them canonical extensions.

The complexification is handled in "complex coordinates": a fixed change of
basis M under which K(C) becomes block diagonal, with two n x n blocks,
P^+ strictly block upper unipotent and P^- strictly block lower unipotent.
M and its inverse come from the group spec (``spec.complex_coords``, built
once per spec); every function here takes elements in defining
coordinates.

An element g of G(C) lies in the open cell when its complex-coordinate
lower-right block is invertible; then

    g = p_plus * k_c * p_minus

by one step of block Gauss elimination.  :func:`middle_j` returns the one
factor that canonical extensions read, the middle projection j(g) = k_c;
it builds the outer two only to check the product.  j is multiplicative
under j(h g h') = j(h) j(g) j(h') for h, h' in K(C).

Representations and canonical extensions tabulate their differential in
their constructors, one lamC_alg call on the stack of matrix units, as an
(N^2, d^2) matrix that takes a matrix or a (..., N, N) stack to (..., d, d)
in one matmul, a real one for a real stack; j(c_1)^{-1} waits for a
canonical extension's first group-level call.  Each builder shares one
read-only object per argument tuple, keyed by identity on a
representation and on a parabolic, which only liecore.parabolic_data builds.
middle_j, a canonical extension and lamC and lamC_alg take a (..., N, N)
stack too, in one numpy pass, with every check held per element and the
first failing row named in the error.  The basis tensor of Sym^a(C^n) at a
sorted multi-index I is the sum of e_J over the distinct orderings J of I;
a tensor's coordinates are its entries at the sorted indices.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from . import liecore
from .errors import PreconditionFailed

COND_MAX = 1e12


def _complex(spec, g):
    """g in complex coordinates, M g M^{-1}."""
    M, Minv = spec.complex_coords
    return M @ np.asarray(g, dtype=complex) @ Minv


def middle_j(spec, g):
    """j(g) = k_c, the block-diagonal middle factor of the open-cell
    factorization of g (given in defining coordinates), in complex
    coordinates; for a stack, checked per element."""
    gc = _complex(spec, g)
    p = spec.n
    A, B = gc[..., :p, :p], gc[..., :p, p:]
    C, D = gc[..., p:, :p], gc[..., p:, p:]
    liecore.require(np.isfinite(gc).all(axis=(-2, -1)), "element not finite")
    liecore.require(np.linalg.cond(D) <= COND_MAX,
                    "lower-right block too ill-conditioned: not in the open cell")
    Dinv = np.linalg.inv(D)
    pp = liecore._eye_stack(gc.shape[:-2], spec.size, dtype=complex)
    pp[..., :p, p:] = B @ Dinv
    pm = liecore._eye_stack(gc.shape[:-2], spec.size, dtype=complex)
    pm[..., p:, :p] = Dinv @ C
    kc = np.zeros_like(gc)
    kc[..., :p, :p] = A - B @ Dinv @ C
    kc[..., p:, p:] = D
    res = liecore._maxabs(pp @ kc @ pm - gc)
    liecore.require(res <= 1e-9 * np.maximum(1.0, liecore._maxabs(gc)),
                    "factorization residual above tolerance")
    return kc


# ---------------------------------------------------------------------------
# Cayley elements


def cayley_element(pd):
    """Partial Cayley element of the parabolic of pd, a
    :class:`liecore.ParabolicData`: (1/sqrt 2)[[1,-i],[-i,1]] in each
    symplectic plane (e_j, f_j) with e_j in V, placed by pd.v and pd.vbar.
    """
    c = np.eye(pd.spec.size, dtype=complex)
    s = 1.0 / np.sqrt(2)
    c[pd.v, pd.v] = c[pd.vbar, pd.vbar] = s
    c[pd.v, pd.vbar] = c[pd.vbar, pd.v] = -1j * s
    return c


# ---------------------------------------------------------------------------
# representations of K


@dataclass(eq=False)
class Representation:
    """A representation of K given through its holomorphic extension to K(C).

    lamC eats a block-diagonal matrix in complex coordinates, or a stack,
    and returns a GL(V) matrix; lamC_alg is its differential on
    block-diagonal algebra elements, linear, on a matrix or a stack.  The
    constructor tabulates lamC_alg(M . M^{-1}) on the stack of matrix units
    in one call, and :meth:`lam_alg` applies that table; eq is identity.
    """

    spec: object
    name: str
    dim: int
    lamC: callable
    lamC_alg: callable

    def __post_init__(self):
        N = self.spec.size
        kc = _complex(self.spec, np.eye(N * N).reshape(-1, N, N))
        self._dlam = liecore.readonly(
            np.asarray(self.lamC_alg(kc), complex).reshape(N * N, -1))

    def lam_grp(self, k):
        """Evaluate on k in K (defining coordinates), or on each element of a
        stack: each must be block diagonal in complex coordinates, its
        off-diagonal blocks within 1e-8 of max(1, its largest entry)."""
        kc = _complex(self.spec, k)
        p = self.spec.n
        off = np.maximum(liecore._maxabs(kc[..., p:, :p]),
                         liecore._maxabs(kc[..., :p, p:]))
        liecore.require(off <= 1e-8 * np.maximum(1.0, liecore._maxabs(kc)),
                        "element not in K(C)")
        return self.lamC(kc)

    def lam_alg(self, kdot):
        """Differential on kdot in Lie(K) (defining coordinates), or a stack."""
        return _apply(kdot, self._dlam, self.dim)


def _apply(x, table, d):
    """The linear map of a complex table on the matrix units, at a matrix or
    a (..., N, N) stack: (..., d, d).  A real x is not cast to complex: it
    meets the (real, imaginary) float pairs of the table in one real matmul."""
    x = np.asarray(x).reshape(np.shape(x)[:-2] + (-1,))
    out = (x @ table.view(float)).view(complex) if np.isrealobj(x) else x @ table
    return out.reshape(x.shape[:-1] + (d, d))


def _sym_power(topleft, n, a):
    """(group, algebra, dim) of Sym^a(C^n), a >= 2, at x = topleft(kc): x
    acts on one slot of the flat basis tensors T at a time, by x @ T and by
    T @ x^T on the last, in turn on the group and summed on the algebra."""
    basis = liecore.sym_basis(n, a).reshape(-1, n ** a)     # flat tensors
    pos = basis.argmax(axis=1)      # the first ordering of I, the sorted one

    def action(kc, derivative):
        x = topleft(kc)[..., None, :, :]
        lead = x.shape[:-3] + (len(basis), -1)

        def on_slot(T, k):
            T = T.reshape(T.shape[:-1] + (n ** k, n, -1))
            return (T[..., 0] @ x.swapaxes(-1, -2) if k == a - 1
                    else x[..., None, :, :] @ T).reshape(lead)

        T = on_slot(basis, 0)
        for k in range(1, a):
            T = T + on_slot(basis, k) if derivative else on_slot(T, k)
        return T[..., pos].swapaxes(-1, -2)

    return (lambda kc: action(kc, False), lambda kc: action(kc, True),
            len(basis))


@functools.cache
def builtin_representation(spec, name: str, /) -> Representation:
    """Sym^a(C^n) (x) det^b, 0 <= a <= 6, named "sym^a det^b", "sym^a"
    (b = 0) or "det^b" (a = 0); "std" is sym^1 and "sym2" sym^2.  Sym^0 (x)
    det^b is the det factor alone, and Sym^1 is x itself."""
    m = re.fullmatch(r"sym\^([0-6])(?: det\^(-?[0-9]+))?|det\^(-?[0-9]+)",
                     {"std": "sym^1", "sym2": "sym^2"}.get(name, name))
    if m is None:
        raise PreconditionFailed(f"unknown representation {name} for sp2nR")
    a, b, n = int(m[1] or 0), int(m[2] or m[3] or 0), spec.n

    def topleft(kc):
        return np.asarray(kc, dtype=complex)[..., :n, :n]

    det = (lambda kc: np.linalg.det(topleft(kc))[..., None, None] ** b,
           lambda kc: b * topleft(kc).trace(0, -2, -1)[..., None, None])
    grp, alg, dim = ((*det, 1) if a == 0 else (topleft, topleft, n) if a == 1
                     else _sym_power(topleft, n, a))
    if a and b:      # det(x)^b on the group, b tr(x) on the algebra
        return Representation(spec, name, dim, lambda kc: grp(kc) * det[0](kc),
                              lambda kc: alg(kc) + det[1](kc) * np.eye(dim))
    return Representation(spec, name, dim, grp, alg)


# ---------------------------------------------------------------------------
# canonical extension


class CanonicalExtension:
    """lambda_1(g) = lamC( j(c_1)^{-1} j(c_1 g) ) for the Cayley element c1
    of a parabolic (see :func:`canonical_extension` and
    :func:`relative_extension`).

    Defined on the subset of G where c_1 g lies in the open cell; this
    contains K_{1h} G_{1l} and the parabolic elements needed for induced
    connections.  Its differential at the identity is tabulated on the
    matrix units (see the module docstring).
    """

    def __init__(self, rep: Representation, c1):
        self.rep = rep
        self.spec = rep.spec
        self.c1 = liecore.readonly(c1)
        # j(c_1)^{-1} j(c_1 .) is a homomorphism on P_1; its differential at
        # xdot is lamC_alg of the k(C) part (the diagonal blocks, in complex
        # coordinates) of c_1 xdot c_1^{-1}, evaluated here at each E_ij
        N = self.spec.size
        units = np.eye(N * N).reshape(-1, N, N)
        xc = _complex(self.spec, c1 @ units @ np.linalg.inv(c1))
        p = self.spec.n
        xc[:, :p, p:] = xc[:, p:, :p] = 0.0
        self._dlam = liecore.readonly(
            np.asarray(rep.lamC_alg(xc), complex).reshape(N * N, -1))

    @functools.cached_property
    def _jc1_inv(self):
        return liecore.readonly(np.linalg.inv(middle_j(self.spec, self.c1)))

    def __call__(self, g):
        """lamC(j(c_1)^{-1} j(c_1 g)) at g, or at each element of a stack."""
        return self.rep.lamC(self._jc1_inv @ middle_j(
            self.spec, self.c1 @ np.asarray(g, dtype=complex)))

    def alg(self, xdot):
        """Differential of lambda_1 at the identity on Lie(P_1) directions,
        or on a stack of them."""
        return _apply(xdot, self._dlam, self.rep.dim)


def _require_group(rep, *pds):
    """Refuse by name a parabolic of another group than rep's."""
    for pd in pds:
        if pd.spec != rep.spec:
            raise PreconditionFailed(
                f"a parabolic of sp2nR(n={pd.spec.n}) for the representation "
                f"{rep.name!r} of sp2nR(n={rep.spec.n})")


@functools.cache
def canonical_extension(rep: Representation, pd: liecore.ParabolicData,
                        /) -> CanonicalExtension:
    """Extension along the parabolic of pd, of rep's group."""
    _require_group(rep, pd)
    return CanonicalExtension(rep, cayley_element(pd))


@functools.cache
def relative_extension(rep: Representation, inner: liecore.ParabolicData,
                       outer: liecore.ParabolicData, /) -> CanonicalExtension:
    """Extension along the relative parabolic between nested parabolics.

    outer.rank > inner.rank; the relative Cayley element is
    c(outer) c(inner)^{-1}, acting in the planes that separate the two
    isotropic subspaces.
    """
    if not outer.rank > inner.rank:
        raise PreconditionFailed(f"need outer rank > inner rank, got "
                                 f"{outer.rank} and {inner.rank}")
    _require_group(rep, inner, outer)
    return CanonicalExtension(rep, cayley_element(outer)
                              @ np.linalg.inv(cayley_element(inner)))


def extension_compat_check(rep: Representation, r_inner, r_outer, samples,
                           rng):
    """Compare canonical extensions along nested standard parabolics.

    For ranks r_inner < r_outer (of :func:`liecore.parabolic_data`), both
    extensions are defined on the linear Levi of the inner parabolic, and
    the relative extension matches the outer one on the intermediate GL
    factor.  Reports the max residual of the two agreements over random
    samples, drawn from rng (a Generator or a seed) first and checked as
    one stack.
    """
    inner, outer = (liecore.parabolic_data(rep.spec, r)
                    for r in (r_inner, r_outer))
    rel = relative_extension(rep, inner, outer)
    ext_out = canonical_extension(rep, outer)
    ext_in = canonical_extension(rep, inner)
    rng = np.random.default_rng(rng)
    # per sample, a then b, drawn for all samples at once
    ri, d = inner.rank, outer.rank - inner.rank
    draws = 0.3 * rng.standard_normal((samples, ri ** 2 + d ** 2))
    a = np.eye(ri) + draws[:, :ri ** 2].reshape(-1, ri, ri)
    blk = np.tile(np.eye(outer.rank), (samples, 1, 1))
    blk[:, :d, :d] = np.eye(d) + draws[:, ri ** 2:].reshape(-1, d, d)
    g = liecore.sp_embed_gl(inner, a)
    gp = liecore.sp_embed_gl(outer, blk)
    res_levi = float(np.max(np.abs(ext_out(g) - ext_in(g)), initial=0.0))
    res_rel = float(np.max(np.abs(ext_out(gp) - rel(gp)), initial=0.0))
    return {"samples": samples, "levi_residual": res_levi,
            "relative_residual": res_rel,
            "max_residual": float(np.max([res_levi, res_rel]))}
