"""Schubert calculus on Grassmannians and projective spaces.

Cohomology of Gr(k, n) in the Schubert basis, indexed by partitions in a
k x (n-k) box.  Coefficients are exact integers throughout.  Products go
through the Giambelli determinant and iterated Pieri steps, with a brute
force Littlewood-Richardson tableau count kept as an independent oracle
for small boxes.  Tangent Chern classes come from the tautological ones by
Newton's identities: the power sums of the Chern roots of S dual and Q
combine binomially into those of S dual (x) Q, all in integers.
"""

from fractions import Fraction
from itertools import permutations
from math import comb

from .errors import PreconditionFailed

__all__ = [
    "partitions_in_box", "SchubertClass", "sigma",
    "pieri_multiply", "ring_multiply", "lr_multiply", "integrate_class",
    "parse_space", "tautological_chern", "tangent_chern", "chern_number",
    "generation_check",
]


def partitions_in_box(k, m):
    """All partitions with at most k parts, each part at most m."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) == k:
            return
        for p in range(min(cap, m), 0, -1):
            rec(prefix + [p], p)

    rec([], m)
    return sorted(out, key=lambda lam: (sum(lam), lam))


def _valid(lam, k, m):
    if len(lam) > k:
        return False
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return False
    return all(0 < p <= m for p in lam)


class SchubertClass:
    """Integer combination of Schubert classes in a fixed k x m box."""

    def __init__(self, k, m, coeffs=None):
        self.k = int(k)
        self.m = int(m)
        self.coeffs = {}
        for lam, c in (coeffs or {}).items():
            lam = tuple(p for p in lam if p != 0)
            if not _valid(lam, self.k, self.m):
                raise PreconditionFailed(
                    f"partition {lam} does not fit in a {k} x {m} box")
            if c % 1:
                raise PreconditionFailed(
                    f"coefficient {c!r} of {lam} is not an integer")
            if c != 0:
                self.coeffs[lam] = self.coeffs.get(lam, 0) + int(c)
        self.coeffs = {lam: c for lam, c in self.coeffs.items() if c != 0}

    # ring-element plumbing

    def _check_box(self, other):
        if (self.k, self.m) != (other.k, other.m):
            raise PreconditionFailed("classes live in different boxes")

    def __add__(self, other):
        self._check_box(other)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SchubertClass(self.k, self.m, out)

    def scale(self, c):
        return SchubertClass(
            self.k, self.m, {lam: c * v for lam, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, SchubertClass)
                and (self.k, self.m) == (other.k, other.m)
                and self.coeffs == other.coeffs)

    def graded_piece(self, d):
        return SchubertClass(
            self.k, self.m,
            {lam: c for lam, c in self.coeffs.items() if sum(lam) == d})

    def degrees(self):
        return sorted({sum(lam) for lam in self.coeffs})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for lam in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            c = self.coeffs[lam]
            name = "s[" + ",".join(map(str, lam)) + "]"
            terms.append(str(c) if not lam else name if c == 1 else f"{c}*{name}")
        return " + ".join(terms)


def sigma(k, m, lam=()):
    return SchubertClass(k, m, {tuple(lam): 1})


def _horizontal_strips(lam, r, k, m):
    """Partitions mu in the box with mu/lam a horizontal strip of size r."""
    lam = tuple(lam) + (0,) * (k - len(lam))
    out = []

    def rec(i, built, left):
        if i == k:
            if left == 0:
                out.append(tuple(p for p in built if p))
            return
        lo = lam[i]
        hi = m if i == 0 else min(m, built[-1], lam[i - 1])
        for mu_i in range(lo, hi + 1):
            if mu_i - lo <= left:
                rec(i + 1, built + [mu_i], left - (mu_i - lo))

    rec(0, [], r)
    return out


def pieri_multiply(a, r):
    """Multiply by the special class sigma_r, truncated to the box."""
    r = int(r)
    if r < 0:
        raise PreconditionFailed("special class index must be nonnegative")
    if r == 0:
        return a
    out = {}
    for lam, c in a.coeffs.items():
        for mu in _horizontal_strips(lam, r, a.k, a.m):
            out[mu] = out.get(mu, 0) + c
    return SchubertClass(a.k, a.m, out)


def _giambelli_terms(lam):
    """Expand det(sigma_{lam_i + j - i}) into signed special-class words.

    Returns a list of (sign, indices) pairs; each word of indices is a
    product of special classes, and the signed sum equals sigma_lam.
    """
    ell = len(lam)
    terms = []
    for perm in permutations(range(ell)):
        sign = 1
        for i in range(ell):
            for j in range(i + 1, ell):
                if perm[i] > perm[j]:
                    sign = -sign
        word = []
        ok = True
        for i in range(ell):
            e = lam[i] + perm[i] - i
            if e < 0:
                ok = False
                break
            if e > 0:
                word.append(e)
        if ok:
            terms.append((sign, tuple(word)))
    return terms


def ring_multiply(a, b):
    """Product in H*(Gr), via Giambelli determinants and Pieri steps."""
    a._check_box(b)
    out = SchubertClass(a.k, a.m)
    for lam, c in b.coeffs.items():
        if not lam:
            out = out + a.scale(c)
            continue
        for sign, word in _giambelli_terms(lam):
            piece = a
            for r in word:
                piece = pieri_multiply(piece, r)
            out = out + piece.scale(sign * c)
    return out


# Littlewood-Richardson oracle ------------------------------------------


def _lr_coefficient(lam, mu, nu, k):
    """Number of LR skew tableaux of shape nu/lam with content mu."""
    lam = tuple(lam) + (0,) * (k - len(lam))
    nu = tuple(nu) + (0,) * (k - len(nu))
    if any(nu[i] < lam[i] for i in range(k)):
        return 0
    cells = [(i, j) for i in range(k) for j in range(lam[i], nu[i])]
    cells.sort(key=lambda ij: (ij[0], -ij[1]))
    nvals = len(mu)
    count = 0

    def rec(idx, fill, content, word_count):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        for v in range(1, nvals + 1):
            if content[v - 1] >= mu[v - 1]:
                continue
            if (i, j + 1) in fill and fill[(i, j + 1)] < v:
                continue
            if i > 0 and j >= lam[i - 1] and fill.get((i - 1, j), 0) >= v:
                continue
            if v > 1 and word_count[v - 2] <= word_count[v - 1]:
                continue
            fill[(i, j)] = v
            content[v - 1] += 1
            word_count[v - 1] += 1
            rec(idx + 1, fill, content, word_count)
            del fill[(i, j)]
            content[v - 1] -= 1
            word_count[v - 1] -= 1

    rec(0, {}, [0] * nvals, [0] * nvals)
    return count


def lr_multiply(a, b):
    """Brute-force product by counting Littlewood-Richardson tableaux.

    Exponential in the box size; meant as an oracle for boxes up to 3 x 3.
    """
    a._check_box(b)
    if a.k > 3 or a.m > 3:
        raise PreconditionFailed("tableau oracle limited to boxes up to 3 x 3")
    box = partitions_in_box(a.k, a.m)
    out = {}
    for lam, ca in a.coeffs.items():
        for mu, cb in b.coeffs.items():
            d = sum(lam) + sum(mu)
            for nu in box:
                if sum(nu) != d:
                    continue
                c = _lr_coefficient(lam, mu, nu, a.k)
                if c:
                    out[nu] = out.get(nu, 0) + ca * cb * c
    return SchubertClass(a.k, a.m, out)


def integrate_class(a):
    """Coefficient of the full-box class, the pairing with the fundamental
    cycle."""
    top = tuple([a.m] * a.k)
    return a.coeffs.get(top, 0)


# spaces and bundles ----------------------------------------------------


def parse_space(space):
    """Return the (k, m) box of 'p:n', 'gr:k,n', or a (k, n) pair."""
    if isinstance(space, str):
        kind, _, rest = space.partition(":")
        kind = kind.strip().lower()
        if kind == "p":
            n = int(rest)
            if n < 1:
                raise PreconditionFailed("projective space needs n >= 1")
            return 1, n
        if kind == "gr":
            k, n = (int(t) for t in rest.split(","))
        else:
            raise PreconditionFailed(f"unsupported space {space!r}")
    else:
        k, n = space
    if not 0 < k < n:
        raise PreconditionFailed(f"invalid Grassmannian Gr({k},{n})")
    return k, n - k


def tautological_chern(space):
    """Total Chern classes (c(S dual), c(Q)) of the tautological sequence."""
    k, m = parse_space(space)
    s_dual = {(): 1}
    for i in range(1, k + 1):
        col = tuple([1] * i)
        if _valid(col, k, m):
            s_dual[col] = 1
    q = {(): 1}
    for r in range(1, m + 1):
        q[(r,)] = 1
    return SchubertClass(k, m, s_dual), SchubertClass(k, m, q)


def _power_sums(c, rank, top):
    """Power sums p_0..p_top of the Chern roots of a bundle of the given
    rank and total Chern class c, by Newton's identities

        p_r = sum_{0<i<r} (-1)^(i-1) c_i p_(r-i) + (-1)^(r-1) r c_r.
    """
    e = [c.graded_piece(i) for i in range(top + 1)]
    p = [sigma(c.k, c.m).scale(rank)]
    for r in range(1, top + 1):
        acc = e[r].scale((-1) ** (r - 1) * r)
        for i in range(1, r):
            acc = acc + ring_multiply(p[r - i], e[i]).scale((-1) ** (i - 1))
        p.append(acc)
    return p


def tangent_chern(space):
    """Total Chern class of the tangent bundle, c(S dual (x) Q).

    The Chern roots of the tangent bundle are u_i + y_j over the roots u of
    S dual and y of Q.  Newton's identities turn c(S dual) and c(Q) into
    power sums, the binomial theorem gives

        p_r(T) = sum_a C(r, a) p_a(u) p_(r-a)(y),

    and Newton's identities solved for the Chern classes,

        r c_r(T) = sum_{0<i<=r} (-1)^(i-1) c_(r-i)(T) p_i(T),

    give c(T) back.  Everything is integer arithmetic in the Schubert ring;
    the division by r is exact, and a remainder raises PreconditionFailed.
    """
    k, m = parse_space(space)
    top = k * m
    s_dual, q = tautological_chern(space)
    pu = _power_sums(s_dual, k, top)
    py = _power_sums(q, m, top)
    zero = SchubertClass(k, m)
    pt = [sum((ring_multiply(pu[a], py[r - a]).scale(comb(r, a))
               for a in range(r + 1)), zero)
          for r in range(top + 1)]
    c = [sigma(k, m)]
    for r in range(1, top + 1):
        acc = sum((ring_multiply(c[r - i], pt[i]).scale((-1) ** (i - 1))
                   for i in range(1, r + 1)), zero)
        c.append(acc.scale(Fraction(1, r)))
    return sum(c, zero)


_BUNDLES = {
    "tangent": tangent_chern,
    "quotient": lambda space: tautological_chern(space)[1],
    "sub-dual": lambda space: tautological_chern(space)[0],
}


def chern_number(space, bundle="tangent", monomial=None):
    """Exact Chern number of a monomial in the Chern classes of a bundle.

    The monomial is a map degree -> exponent, e.g. {1: 2} for c_1^2.  Its
    total degree must equal the complex dimension of the space.
    """
    k, m = parse_space(space)
    if bundle not in _BUNDLES:
        raise PreconditionFailed(f"unsupported bundle {bundle!r}")
    monomial = dict(monomial or {})
    deg = sum(i * e for i, e in monomial.items())
    if deg != k * m:
        raise PreconditionFailed(
            f"monomial degree {deg} is not the dimension {k * m}")
    total = _BUNDLES[bundle](space)
    acc = sigma(k, m)
    for i, e in sorted(monomial.items()):
        ci = total.graded_piece(i)
        for _ in range(e):
            acc = ring_multiply(acc, ci)
    return integrate_class(acc)


def generation_check(space, generators=None):
    """Check that tautological Chern classes generate the cohomology ring.

    Multiplies out all monomials in the generators and compares the rank
    of the resulting span, degree by degree, against the Betti numbers.
    """
    k, m = parse_space(space)
    if generators is None:
        s_dual, q = tautological_chern(space)
        generators = ([q.graded_piece(r) for r in range(1, m + 1)]
                      + [s_dual.graded_piece(r) for r in range(1, k + 1)])
    basis = partitions_in_box(k, m)
    index = {lam: i for i, lam in enumerate(basis)}
    span = [sigma(k, m)]
    frontier = [sigma(k, m)]
    while frontier:
        new = []
        for cls in frontier:
            if min(cls.degrees(), default=0) >= k * m:
                continue
            for g in generators:
                prod = ring_multiply(cls, g)
                if prod.coeffs and prod not in span:
                    span.append(prod)
                    new.append(prod)
        frontier = new
    rows = []
    for cls in span:
        row = [0] * len(basis)
        for lam, c in cls.coeffs.items():
            row[index[lam]] = c
        rows.append(row)
    rank = _integer_rank(rows)
    betti = {}
    for lam in basis:
        betti[sum(lam)] = betti.get(sum(lam), 0) + 1
    return {
        "space": f"gr:{k},{k + m}",
        "span_rank": rank,
        "betti_total": len(basis),
        "betti_by_degree": betti,
        "generates": rank == len(basis),
    }


def _integer_rank(rows):
    """Rank over the rationals, by Gaussian elimination in Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank
