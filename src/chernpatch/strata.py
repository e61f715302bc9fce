"""Control data on stratified flag models: the bump profile, partitions of
unity, chain weights and the patched-connection recursion.

The combinatorial model: strata form a forest given by flags (chains).  A
point is carried by the chain of strata incident to it, together with the
tube distances r_Z to each proper ancestor; the a-coordinates along strata
never enter the weight functions, so they are not stored here.

    point = ModelPoint(chain=(Z_1, ..., Z_k), r=(r_1, ..., r_{k-1}))

means: the point lies in stratum Z_k, inside the tube of each ancestor Z_j
at distance r_j.  pi_{Z_j} truncates, rho_{Z_j} reads r_j; these satisfy
the control-data axioms exactly (pi_Z pi_Y = pi_Z, rho_Z pi_Y = rho_Z).

PatchedSystem is the one implementation of the patched connection, on a
stack of points: its recursion, its closed chain form and its localized
form, for any model whose strata supply an invariant connection and the
pullbacks between them (the Siegel model in :mod:`chernpatch.siegel` is
one).  Given the curvatures of those connections, it also gives the
curvature of the chain form, by the product rule with the weight gradients
of FlagTubeModel.chain_form_weight_grad.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exterior as ext
from . import liecore
from .errors import PreconditionFailed


# ---------------------------------------------------------------------------
# bump profile


class BumpProfile:
    """Smooth nondecreasing s with s = 0 on (-inf, 1/2], s = 1 on [3/4, inf).

    The transition uses the standard exp(-1/t) glue, rescaled to (1/2, 3/4).
    s is a scalar function; :meth:`on_array` gives its values on an array.
    """

    lo = 0.5
    hi = 0.75

    def __call__(self, x):
        t = (x - self.lo) / (self.hi - self.lo)
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        a = math.exp(-1.0 / t)
        b = math.exp(-1.0 / (1.0 - t))
        return a / (a + b)

    def on_array(self, x):
        """s at each entry of the array x: exact 0.0 or 1.0 outside (lo, hi),
        the scalar s inside (math.exp: np.exp may differ in the last bit)."""
        out = (x >= self.hi).astype(float)
        band = ~((x <= self.lo) | (x >= self.hi))
        out[band] = [self(v) for v in x[band].tolist()]
        return out

    def derivative(self, x):
        """s'(x) = ab (1/t^2 + 1/(1-t)^2) / (a+b)^2 / (hi - lo), with t, a, b
        as in s; 0 outside (1/2, 3/4)."""
        t = (x - self.lo) / (self.hi - self.lo)
        if t <= 0.0 or t >= 1.0:
            return 0.0
        a = math.exp(-1.0 / t)
        b = math.exp(-1.0 / (1.0 - t))
        # divided one factor at a time, so that 1/t^2 cannot overflow
        ab = a * b
        return ((ab / t / t + ab / (1.0 - t) / (1.0 - t))
                / (a + b) ** 2 / (self.hi - self.lo))

    def scaled(self, rho, eps):
        """s_eps(rho) = s(rho/eps)."""
        return self(rho / eps)


# ---------------------------------------------------------------------------
# model


def _is_dimension(d):
    """True for a nonnegative integer, given as an int or an integral float."""
    if isinstance(d, float):
        return d.is_integer() and d >= 0
    return isinstance(d, int) and not isinstance(d, bool) and d >= 0


def _reject_unknown_keys(d, known, what):
    """PreconditionFailed naming the keys of the JSON object d (a {what})
    that are not in known: no input is ignored in silence."""
    unknown = sorted(set(d) - set(known), key=str)
    if unknown:
        raise PreconditionFailed(f"unknown keys in {what}: {unknown}")


@dataclass(frozen=True)
class ModelPoint:
    chain: tuple    # stratum names, ancestors first
    r: tuple        # tube distances to proper ancestors, len(chain) - 1

    def __post_init__(self):
        if len(self.r) != len(self.chain) - 1:
            raise ValueError("need one r per proper ancestor")

    @property
    def stratum(self):
        return self.chain[-1]


class FlagTubeModel:
    """Forest of strata given by flags, with eps-family and bump profile."""

    def __init__(self, strata, flags, eps0=1.0):
        """strata: list of {"name": str, "dimC": int}; flags: lists of names
        ordered small-to-large; eps0 scales the eps-family
        eps_Y = eps0 / 2^{dimC Y}."""
        if not isinstance(strata, (list, tuple)) or not all(
                isinstance(s, dict) and {"name", "dimC"} <= s.keys()
                and isinstance(s["name"], str) for s in strata):
            raise PreconditionFailed(f"strata need a name and dimC: {strata}")
        for s in strata:
            _reject_unknown_keys(s, {"name", "dimC"}, f"stratum {s['name']}")
        bad = [s["dimC"] for s in strata if not _is_dimension(s["dimC"])]
        if bad:
            raise PreconditionFailed(
                f"dimC must be a nonnegative integer, got {bad}")
        if not isinstance(flags, (list, tuple)) or not all(
                isinstance(f, (list, tuple))
                and all(isinstance(n, str) for n in f) for f in flags):
            raise PreconditionFailed(
                f"each flag must be a list of stratum names: {flags}")
        self.dimC = {s["name"]: int(s["dimC"]) for s in strata}
        self.names = [s["name"] for s in strata]
        if len(self.dimC) != len(self.names):
            raise PreconditionFailed(f"stratum names repeat: {self.names}")
        self.flags = [tuple(f) for f in flags]
        self.eps0 = float(eps0)
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise PreconditionFailed(f"eps0 must be finite and > 0: {eps0}")
        tiny = [d for d in self.dimC.values()
                if math.ldexp(self.eps0, -d) < np.finfo(float).tiny]
        if tiny:
            raise PreconditionFailed(
                f"eps0 / 2^dimC is not a normal float for dimC {tiny}")
        undeclared = [n for f in self.flags for n in f if n not in self.dimC]
        if undeclared:
            raise PreconditionFailed(f"unknown strata in flags: {undeclared}")
        self.profile = BumpProfile()
        self._ancestors = {}
        for f in self.flags:
            for i, name in enumerate(f):
                known = self._ancestors.setdefault(name, tuple(f[:i]))
                if known != tuple(f[:i]):
                    raise PreconditionFailed(
                        f"stratum {name} with inconsistent ancestor chains: forest required")
        for name in self.names:
            self._ancestors.setdefault(name, ())

    def eps(self, name):
        return math.ldexp(self.eps0, -self.dimC[name])

    def point(self, chain, r) -> ModelPoint:
        chain = tuple(chain)
        if chain[:-1] != self._ancestors[chain[-1]]:
            raise PreconditionFailed(f"{chain} is not a model flag chain")
        return ModelPoint(chain, tuple(r))

    # control data -----------------------------------------------------

    def pi(self, x: ModelPoint, Z) -> ModelPoint:
        k = x.chain.index(Z)
        return ModelPoint(x.chain[: k + 1], x.r[:k])

    # weights ----------------------------------------------------------

    def B(self, Y, eps, x: ModelPoint):
        """Partition numerator B_Y^eps(x), extended by zero off the tube."""
        if Y not in x.chain:
            return 0.0
        s = self.profile
        k = x.chain.index(Y)
        out = 1.0
        for rj in x.r[:k]:
            out = out * s.scaled(rj, eps)
        rY = 0.0 if k == len(x.chain) - 1 else x.r[k]
        out = out * (1.0 - s.scaled(rY, eps))
        return out

    def B_grad(self, Y, eps, x: ModelPoint):
        """Gradient of B_Y^eps(x) over the tube distances x.r, by the product
        rule over its factors."""
        grad = np.zeros(len(x.r))
        if Y not in x.chain:
            return grad
        s = self.profile
        k = x.chain.index(Y)
        val = 1.0
        for j, rj in enumerate(x.r[:k + 1]):
            f, df = s.scaled(rj, eps), s.derivative(rj / eps) / eps
            if j == k:
                f, df = 1.0 - f, -df
            grad = grad * f
            grad[j] += val * df
            val = val * f
        return grad

    def partition_weights(self, chain, r):
        """(P, L) weights B_Z^eps, Z in the chain, at P points of it with
        the (P, L-1) tube distances r, at the one eps of the chain's top; a
        row sums to 1 on the whole closure.  B_Z is the prefix product of s
        over the ancestors before Z, times 1 - s at Z, in :meth:`B`'s order."""
        s = self.profile.on_array(np.asarray(r, float) / self.eps(chain[-1]))
        one = np.ones((len(s), 1))
        # cumprod multiplies left to right; the top's 1 - s(0) is 1.0
        return (np.hstack([one, np.cumprod(s, axis=1)])
                * np.hstack([1.0 - s, one]))

    # chains -----------------------------------------------------------

    def chains_to(self, x: ModelPoint):
        """All chains Z_{i_1} < ... < Z_{i_r} = stratum(x) through x's flag,
        the singleton first; nearer ancestors vary fastest."""
        top = x.stratum
        anc = list(x.chain[:-1])
        out = []
        n = len(anc)
        for mask in range(1 << n):
            sub = [anc[i] for i in range(n) if mask >> (n - 1 - i) & 1]
            out.append(tuple(sub) + (top,))
        return out

    def chain_weight(self, chain, x: ModelPoint):
        """B_chain(x): product over consecutive pairs of B with the outer
        stratum's eps, evaluated after truncation; 1 for the singleton."""
        w = 1.0
        for t in range(len(chain) - 1, 0, -1):
            outer, inner = chain[t], chain[t - 1]
            w = w * self.B(inner, self.eps(outer), self.pi(x, outer))
        return w

    def chain_form_weights(self, x: ModelPoint):
        """[(chain, w)] over chains_to(x): w is the weight of the chain's
        term in the chain form, chain_weight(chain, x) times
        B_{Z_1}^{eps_{Z_1}}(pi_{Z_1}(x)) for the chain's first stratum Z_1."""
        out = []
        for chain in self.chains_to(x):
            Z1 = chain[0]
            out.append((chain, self.chain_weight(chain, x)
                        * self.B(Z1, self.eps(Z1), self.pi(x, Z1))))
        return out

    def chain_form_weight_grad(self, chain, x: ModelPoint):
        """Gradient over x.r of the chain's weight in
        :meth:`chain_form_weights`, by the product rule over its B factors;
        each factor reads the first len(pi(x, outer).r) tube distances."""
        grad = np.zeros(len(x.r))
        val = 1.0
        pairs = [(chain[0], chain[0])] + list(zip(chain, chain[1:]))
        for inner, outer in pairs:
            y = self.pi(x, outer)
            f = self.B(inner, self.eps(outer), y)
            grad = grad * f
            grad[:len(y.r)] += val * self.B_grad(inner, self.eps(outer), y)
            val = val * f
        return grad

    def localization_base(self, x: ModelPoint):
        """Largest stratum W in x's flag with B_W^{eps_W}(pi_W(x)) != 0."""
        for Z in reversed(x.chain):
            if self.B(Z, self.eps(Z), self.pi(x, Z)) != 0.0:
                return Z
        raise PreconditionFailed("no localization base stratum")


# ---------------------------------------------------------------------------
# vanishing lemma


def family_vanishing_check(model: FlagTubeModel, flag, grid=None):
    """Exhaustively check the eps-family vanishing property on one flag.

    For strata indices (1-based along the flag) and the family
    eps_k = model.eps(flag[k-1]): whenever m >= n, m' >= n', n' < n, m' > m:

        B_n^{eps_m}(pi_n(x)) != 0   implies   B_{n'}^{eps_{m'}}(x) = 0

    together with the contrapositive.  Returns a report dict.

    B_Y^eps(x) is a product of one profile value s(r_j / eps) per tube
    distance before Y and (1 - s) at Y's own (0 at x's stratum), so the
    profile is tabulated once per grid value and eps of the flag, and its
    values multiplied in FlagTubeModel.B's order, left to right from 1.0:
    bitwise the values B returns.
    """
    flag = tuple(flag)
    L = len(flag)
    if grid is None:
        grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), 10)
    model.point(flag, (0.0,) * (L - 1))  # raises unless flag is a model chain
    grid = [float(r) for r in grid]
    s = model.profile
    eps = [model.eps(Y) for Y in flag]
    table = [[s.scaled(r, e) for r in grid] for e in eps]
    at_stratum = [1.0 - s.scaled(0.0, e) for e in eps]
    tuples = [(n, m, np_, mp) for n in range(1, L + 1)
              for m in range(n, L + 1) for np_ in range(1, n)
              for mp in range(m + 1, L + 1)]
    violations = []
    for idx in itertools.product(range(len(grid)), repeat=L - 1):
        for n, m, np_, mp in tuples:
            row, row_p = table[m - 1], table[mp - 1]
            bn = math.prod(map(row.__getitem__, idx[:n - 1]), start=1.0)
            bn = bn * at_stratum[m - 1]
            bnp = math.prod(map(row_p.__getitem__, idx[:np_ - 1]), start=1.0)
            bnp = bnp * (1.0 - row_p[idx[np_ - 1]])
            if bn != 0.0 and bnp != 0.0:
                violations.append(
                    {"r": [grid[i] for i in idx], "n": n, "m": m,
                     "n'": np_, "m'": mp, "B_n": bn, "B_n'": bnp})
    checked = len(tuples) * len(grid) ** (L - 1)
    return {"checked": checked, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# patched recursion over a model


def _times(w, v):
    """The (P,) weights w times the (P, ...) value stack v, row by row."""
    return np.reshape(w, np.shape(w) + (1,) * (np.ndim(v) - 1)) * v


class PatchedSystem:
    """Patched connection recursion over a FlagTubeModel, on a stack of points.

    Every callable receives the model points xs, a list of P ModelPoints on
    one chain, which carry the control data, and an opaque geometric point g
    over them with a leading axis of P (for a chart model, chart points with
    a tangent vector at each); g[idx] is the substack of the rows idx:

      nomizu    {Y: callable(xs, g) -> value}: the invariant connection on Y;
      pullback  {(Y, Z): callable(xs, g, v) -> value} for Z < Y: on (the tube
                inside) Y, the connection induced from one on Z whose value
                at the projected points is v;
      project   callable(g, Y, Z) -> the geometric point over pi_Z(xs), for
                g over points xs of Y and Z < Y.  It must follow the control
                data: project(project(g, X, Y), Y, Z) = project(g, X, Z).
      curvatures  (optional, for :meth:`curvature`) the same keys as nomizu
                and pullback together, with callables that take and return
                (value, curvature) pairs: {Y: callable(xs, g)} and
                {(Y, Z): callable(xs, g, (v, Omega_v))}, Omega_v the curvature
                of the connection on Z whose value is v.

    Values are (P, ...) stacks, read by :meth:`curvature` as coefficients
    over the chart directions of g.  Weights are (P,) arrays of the scalar
    weights of FlagTubeModel: a term is skipped where its weight vanishes at
    every row, and elsewhere a zero weight leaves the sum unchanged.
    """

    def __init__(self, model: FlagTubeModel, nomizu, pullback, project,
                 curvatures=None):
        self.model = model
        self.values = {**nomizu, **pullback}   # keyed like curvatures
        self.project = project
        self.curvatures = curvatures

    def _chain(self, xs):
        """The chain of xs; PreconditionFailed names a first row off it."""
        chain = xs[0].chain
        liecore.require(np.array([x.chain == chain for x in xs]),
                        f"points off the chain {chain}", PreconditionFailed)
        return chain

    def _over(self, xs, g, Z):
        """(pi_Z(xs), the geometric point over them)."""
        if Z == xs[0].stratum:
            return xs, g
        return ([self.model.pi(x, Z) for x in xs],
                self.project(g, xs[0].stratum, Z))

    def _along(self, chain, xs, g, maps, v=None):
        """Pull v over pi_{chain[0]}(xs) (by default, the maps entry of
        chain[0] there) up the chain through the (Y, Z) entries of maps."""
        if v is None:
            v = maps[chain[0]](*self._over(xs, g, chain[0]))
        for lo, hi in zip(chain, chain[1:]):
            v = maps[(hi, lo)](*self._over(xs, g, hi), v)
        return v

    def _chain_weights(self, xs, weights):
        """[(chain, (P,) weights)] from weights(x) -> [(chain, w)] over xs."""
        self._chain(xs)
        return [(col[0][0], np.array([w for _, w in col]))
                for col in zip(*map(weights, xs))]

    def patched(self, xs, g):
        """B_Y^{eps_Y} nomizu_Y + sum over Z < Y of B_Z^{eps_Y} times the
        pullback of the patched connection of Z, for Y the stratum of xs."""
        md = self.model
        chain = self._chain(xs)
        Y, epsY = chain[-1], md.eps(chain[-1])
        val = self.values[Y](xs, g)
        if len(chain) == 1:
            # no ancestors: B_Y^{eps_Y} is identically 1 here
            return val
        val = _times(np.array([md.B(Y, epsY, x) for x in xs]), val)
        for Z in reversed(chain[:-1]):
            w = np.array([md.B(Z, epsY, x) for x in xs])
            if w.any():
                inner = self.patched(*self._over(xs, g, Z))
                val = val + _times(w, self.values[(Y, Z)](xs, g, inner))
        return val

    def chain_form(self, xs, g):
        """Closed form: sum over chains of full weights and composed pullbacks."""
        weights = self._chain_weights(xs, self.model.chain_form_weights)
        return sum(_times(w, self._along(c, xs, g, self.values))
                   for c, w in weights if w.any())

    def chain_curvature(self, chain, xs, g):
        """(omega_c, Omega_c): the chain's connection, the nomizu value of its
        first stratum pulled up the chain, and its curvature, composed the
        same way from the `curvatures` callables."""
        return self._along(chain, xs, g, self.curvatures)

    def curvature(self, xs, g, dr):
        """Curvature coefficients of the chain form omega = sum_c w_c omega_c
        over the pairs i < j of the m chart directions of g, by
        ext.combination_curvature over the chains.  dr is the (P, len(r), m)
        stack of Jacobians of the tube distances over those directions, so
        dw_c = (gradient of w_c over r) @ dr.  A chain is skipped where w_c
        and dw_c vanish at every row.
        """
        md = self.model
        chains = ((c, w, (np.array([md.chain_form_weight_grad(c, x)
                                    for x in xs])[:, None] @ dr)[:, 0])
                  for c, w in self._chain_weights(xs, md.chain_form_weights))
        return ext.combination_curvature(
            (w, dw) + self.chain_curvature(c, xs, g)
            for c, w, dw in chains if w.any() or dw.any())

    def localized(self, xs, g):
        """(value, [W], wsum): the localized form around the base stratum W of
        each row, one substack per W, and the (P,) sums of the weights."""
        md = self.model
        self._chain(xs)
        bases = np.array([md.localization_base(x) for x in xs])
        value, wsum = None, np.zeros(len(xs))
        for W in dict.fromkeys(bases):
            idx = np.flatnonzero(bases == W)
            sub, gsub = [xs[n] for n in idx], g[idx]
            inner_val = self.patched(*self._over(sub, gsub, W))
            # chains W = S_0 < ... < S_k = stratum(x) within x's flag
            chains = self._chain_weights(sub, lambda x: [
                (c, md.chain_weight(c, x)) for c in md.chains_to(x)
                if c[0] == W])
            wsum[idx] = sum(w for _, w in chains)
            total = sum(_times(w, self._along(c, sub, gsub, self.values,
                                              inner_val))
                        for c, w in chains if w.any())
            if value is None:
                value = np.empty((len(xs),) + total.shape[1:], total.dtype)
            value[idx] = total
        return value, bases.tolist(), wsum
