"""Chern numbers of compact duals by torus localization (Atiyah-Bott).

Spaces: 'p:n', 'gr:k,n' and 'lg:n', the Lagrangian Grassmannian LG(n, 2n)
that is the compact dual of the Siegel space.  A class is the tuple of its
restrictions to the torus-fixed points at t = (1, 3, 7, 15, ...); products
are pointwise, and a top-degree class a integrates, exactly and for every
t, to the sum of a(p) / e(T_p), e(T_p) the product of the tangent weights.
Gr(k, n): a point per k-subset I; roots -t_i (i in I) of S dual, t_j (j not
in I) of Q, t_j - t_i of T.  LG(n, 2n): a point per sign vector e; roots
-e_i t_i of S dual and of Q (its dual through the symplectic form), and
-(e_i t_i + e_j t_j), i <= j, of T.  Betti numbers count fixed points by
their negative tangent weights (Bialynicki-Birula); generation is a rank
condition on the Poincare pairing.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm, prod

from .errors import PreconditionFailed

__all__ = ["parse_space", "ring_multiply", "integrate", "tangent_chern",
           "chern_classes", "chern_number", "betti", "monomials",
           "generation_check"]

# roots maps a bundle to its Chern roots at each fixed point; a class a
# integrates to sum(a[p] cofactor[p]) / scale, scale the lcm of the e(T_p).
Dual = namedtuple("Dual", "name dim roots scale cofactor")
_MAX_POINTS = 1024     # LG(10, 20) has as many; its c_1^55 takes 0.6 s
_MAX_DIM = 64          # P^80 takes 0.2 s for c_1^80, P^200 19 s


def _dual(name, sub_dual, quotient, tangent):
    euler = [prod(ws) for ws in tangent]
    scale = lcm(*euler)
    roots = {"sub-dual": sub_dual, "quotient": quotient, "tangent": tangent}
    return Dual(name, len(tangent[0]), roots, scale, [scale // e for e in euler])


def _require_size(name, n, count, dim):
    """Refuse name past a cap: on count() fixed points (at least n), on dim."""
    got = count() if n <= _MAX_POINTS else f"at least {n}"
    if n > _MAX_POINTS or got > _MAX_POINTS:
        raise PreconditionFailed(f"{name} has {got} torus-fixed points, "
                                 f"more than the cap of {_MAX_POINTS}")
    if dim > _MAX_DIM:
        raise PreconditionFailed(f"{name} has dimension {dim}, more than "
                                 f"the cap of {_MAX_DIM}")


def parse_space(space):
    """The fixed-point table of 'p:n', 'gr:k,n' or 'lg:n' (a table passes
    through); one past 1024 fixed points or dimension 64 is refused at once."""
    if isinstance(space, Dual):
        return space
    kind, _, rest = str(space).partition(":")
    kind = kind.strip().lower()
    args = [int(a) if a.strip().isdecimal() else -1 for a in rest.split(",")]
    name = f"{kind}:{','.join(map(str, args))}"
    if (kind, len(args)) in (("p", 1), ("gr", 2)):
        k, n = (1, args[0] + 1) if kind == "p" else args
        if 0 < k < n:
            _require_size(name, n, lambda: comb(n, k), k * (n - k))
            t = [2 ** (i + 1) - 1 for i in range(n)]
            subsets = list(combinations(range(n), k))
            rests = [[j for j in range(n) if j not in s] for s in subsets]
            return _dual(name, [[-t[i] for i in s] for s in subsets],
                         [[t[j] for j in r] for r in rests],
                         [[t[j] - t[i] for i in s for j in r]
                          for s, r in zip(subsets, rests)])
    if kind == "lg" and len(args) == 1 and args[0] >= 1:
        n = args[0]
        _require_size(name, n, lambda: 2 ** n, n * (n + 1) // 2)
        t = [2 ** (i + 1) - 1 for i in range(n)]
        ws = [[e * ti for e, ti in zip(signs, t)]
              for signs in product((1, -1), repeat=n)]
        s = [[-wi for wi in w] for w in ws]
        return _dual(name, s, s, [[-(w[i] + w[j]) for i in range(n)
                                   for j in range(i, n)] for w in ws])
    raise PreconditionFailed(
        f"unsupported space {space!r}: use p:n (n >= 1), gr:k,n (0 < k < n) "
        "or lg:n (n >= 1)")


def ring_multiply(a, b):
    """Product of two classes: pointwise on the fixed points."""
    return tuple(x * y for x, y in zip(a, b))


def integrate(space, a):
    """Pairing of a top-degree class with the fundamental cycle, exact."""
    dual = parse_space(space)
    return Fraction(sum(x * c for x, c in zip(a, dual.cofactor)), dual.scale)


def _total_chern(space, bundle):
    """Graded pieces c_0..c_dim of prod(1 + w) over the roots w of a bundle,
    each the tuple of its values at the fixed points."""
    dual = parse_space(space)
    rows = []
    for ws in dual.roots[bundle]:
        c = [1] + [0] * dual.dim
        for w in ws:
            c = [1] + [a + w * b for a, b in zip(c[1:], c)]
        rows.append(c)
    return list(zip(*rows))


def tangent_chern(space):
    """Total Chern class of the tangent bundle (see _total_chern)."""
    return _total_chern(space, "tangent")


_BUNDLES = {"tangent": tangent_chern,
            "quotient": lambda space: _total_chern(space, "quotient"),
            "sub-dual": lambda space: _total_chern(space, "sub-dual")}


def chern_classes(space, bundle):
    """Graded pieces c_0..c_dim of the total Chern class of a bundle."""
    if bundle not in _BUNDLES:
        raise PreconditionFailed(
            f"unsupported bundle {bundle!r}: use one of {sorted(_BUNDLES)}")
    return _BUNDLES[bundle](space)


def chern_number(space, bundle="tangent", monomial=None):
    """Exact Chern number of a monomial {degree: exponent} in the Chern
    classes of a bundle, e.g. {1: 2} for c_1^2, of degree the dimension."""
    dual = parse_space(space)
    total = chern_classes(dual, bundle)
    monomial = dict(monomial or {})
    if any(i < 0 or e < 0 for i, e in monomial.items()):
        raise PreconditionFailed(f"negative index in monomial {monomial}")
    deg = sum(i * e for i, e in monomial.items())
    if deg != dual.dim:
        raise PreconditionFailed(
            f"monomial degree {deg} is not the dimension {dual.dim}")
    acc = total[0]
    for i, e in sorted(monomial.items()):
        for _ in range(e):
            acc = ring_multiply(acc, total[i])
    return integrate(dual, acc)


def betti(space):
    """Betti numbers b_0..b_dim (complex degrees): b_d counts the fixed
    points with d negative tangent weights."""
    dual = parse_space(space)
    b = [0] * (dual.dim + 1)
    for ws in dual.roots["tangent"]:
        b[sum(w < 0 for w in ws)] += 1
    return b


def monomials(space, generators=None):
    """Monomials in the generators, (bundle, i) pairs for c_i of the bundle,
    as lists of classes by degree 0..dim.  The default generators are every
    c_i of the quotient and of the dual subbundle."""
    dual = parse_space(space)
    if generators is None:
        generators = [(b, i) for b in ("quotient", "sub-dual")
                      for i in range(1, len(dual.roots[b][0]) + 1)]
    by_degree = [[(1,) * len(dual.cofactor)]] + [[] for _ in range(dual.dim)]
    for bundle, i in generators:
        if not 0 < i <= dual.dim:
            raise PreconditionFailed(
                f"generator c_{i} is not of degree 1..{dual.dim}")
        g = chern_classes(dual, bundle)[i]
        # ascending degrees, so each multiset of generators comes up once
        for d in range(i, dual.dim + 1):
            by_degree[d] += [ring_multiply(m, g) for m in by_degree[d - i]]
    return by_degree


def generation_check(space, generators=None):
    """Check that Chern classes (see monomials) generate the cohomology ring:
    by Poincare duality, exactly when in each degree d the pairing of the
    degree-d monomials with the degree-(dim - d) ones, scaled to integers by
    the lcm of the e(T_p), has rank b_d."""
    dual = parse_space(space)
    b = betti(dual)
    mono = monomials(dual, generators)
    ranks = [_rank([[sum(x * y * c for x, y, c in zip(u, v, dual.cofactor))
                     for v in mono[dual.dim - d]] for u in mono[d]])
             for d in range(dual.dim + 1)]
    return {"space": dual.name, "span_rank": sum(ranks),
            "betti_total": sum(b), "betti_by_degree": dict(enumerate(b)),
            "generates": ranks == b}


def _rank(rows):
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination with each row kept primitive."""
    rank = 0
    rows = [r for r in rows if any(r)]
    while rows:
        pivot = rows.pop()
        j = next(j for j, v in enumerate(pivot) if v)
        rows = [[a * pivot[j] - p * r[j] for a, p in zip(r, pivot)]
                for r in rows]
        rows = [[v // g for v in r] for r in rows if (g := gcd(*r))]
        rank += 1
    return rank
