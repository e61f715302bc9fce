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

PatchedSystem is the one implementation of the patched connection: its
recursion, its closed chain form and its localized form, for any model whose
strata supply an invariant connection and the pullbacks between them (the
Siegel model in :mod:`chernpatch.siegel` is one).  Given the curvatures of
those connections, it also gives the curvature of the chain form, by the
product rule with the weight gradients of
FlagTubeModel.chain_form_weight_grad.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exterior as ext
from .errors import PreconditionFailed


# ---------------------------------------------------------------------------
# bump profile


class BumpProfile:
    """Smooth nondecreasing s with s = 0 on (-inf, 1/2], s = 1 on [3/4, inf).

    The transition uses the standard exp(-1/t) glue, rescaled to (1/2, 3/4).
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

    def partition_weights(self, x: ModelPoint):
        """{Z: B_Z^eps(x)} over the strata Z of x's chain, at the one eps of
        x's stratum; the values sum to 1 on the whole closure.  Each profile
        value is taken once: B_Z is the prefix product of s over the
        ancestors before Z, times 1 - s at Z, multiplied as in :meth:`B`."""
        eps = self.eps(x.stratum)
        out, prefix = {}, 1.0
        for Z, rZ in zip(x.chain, x.r):
            sZ = self.profile.scaled(rZ, eps)
            out[Z] = prefix * (1.0 - sZ)
            prefix = prefix * sZ
        out[x.stratum] = prefix     # times 1 - s(0) = 1.0
        return out

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


class PatchedSystem:
    """Patched connection recursion over a FlagTubeModel.

    Every callable receives the model point x, which carries the control
    data, and an opaque geometric point g over it (for a chart model, a
    chart point with a tangent vector there):

      nomizu    {Y: callable(x, g) -> value}: the invariant connection on Y;
      pullback  {(Y, Z): callable(x, g, v) -> value} for Z < Y: on (the tube
                inside) Y, the connection induced from one on Z whose value
                at the projected point is v;
      project   callable(g, Y, Z) -> the geometric point over pi_Z(x), for
                g over a point x of Y and Z < Y.  It is called only where a
                weight or its gradient is nonzero, and must follow the
                control data:
                project(project(g, X, Y), Y, Z) = project(g, X, Z).
      curvatures  (optional, for :meth:`curvature`) the same keys as nomizu
                and pullback together, with callables that take and return
                (value, curvature) pairs: {Y: callable(x, g)} and
                {(Y, Z): callable(x, g, (v, Omega_v))}, Omega_v the curvature
                of the connection on Z whose value is v.

    Values may be any objects supporting + and scalar *; :meth:`curvature`
    reads them as coefficient stacks over the chart directions of g.
    """

    def __init__(self, model: FlagTubeModel, nomizu, pullback, project,
                 curvatures=None):
        self.model = model
        self.nomizu = nomizu
        self.pullback = pullback
        self.project = project
        self.curvatures = curvatures

    def _over(self, x: ModelPoint, g, Z):
        """(pi_Z(x), the geometric point over it)."""
        if Z == x.stratum:
            return x, g
        return self.model.pi(x, Z), self.project(g, x.stratum, Z)

    def _along(self, chain, x: ModelPoint, g, v, maps=None):
        """Pull v, a value over pi_{chain[0]}(x), up the chain to stratum(x)
        through the pullbacks (or the (Y, Z) entries of maps)."""
        maps = maps or self.pullback
        for lo, hi in zip(chain, chain[1:]):
            v = maps[(hi, lo)](*self._over(x, g, hi), v)
        return v

    def patched(self, x: ModelPoint, g):
        """B_Y^{eps_Y} nomizu_Y + sum over Z < Y of B_Z^{eps_Y} times the
        pullback of the patched connection of Z, for Y = stratum(x)."""
        md = self.model
        Y = x.stratum
        if len(x.chain) == 1:
            # no ancestors: B_Y^{eps_Y} is identically 1 here
            return self.nomizu[Y](x, g)
        epsY = md.eps(Y)
        val = md.B(Y, epsY, x) * self.nomizu[Y](x, g)
        for Z in reversed(x.chain[:-1]):
            w = md.B(Z, epsY, x)
            if w == 0.0:
                continue
            inner = self.patched(*self._over(x, g, Z))
            val = val + w * self.pullback[(Y, Z)](x, g, inner)
        return val

    def chain_form(self, x: ModelPoint, g):
        """Closed form: sum over chains of full weights and composed pullbacks."""
        total = None
        for chain, w in self.model.chain_form_weights(x):
            if w == 0.0:
                continue
            Z1 = chain[0]
            term = w * self._along(chain, x, g,
                                   self.nomizu[Z1](*self._over(x, g, Z1)))
            total = term if total is None else total + term
        return total

    def chain_curvature(self, chain, x: ModelPoint, g):
        """(omega_c, Omega_c): the chain's connection, the nomizu value of its
        first stratum pulled up the chain, and its curvature, composed the
        same way from the `curvatures` callables."""
        Z1 = chain[0]
        return self._along(chain, x, g,
                           self.curvatures[Z1](*self._over(x, g, Z1)),
                           self.curvatures)

    def curvature(self, x: ModelPoint, g, dr):
        """Curvature coefficients of the chain form omega = sum_c w_c omega_c
        over the pairs i < j of the m chart directions of g, by
        ext.combination_curvature over the chains.  dr is the (len(x.r), m)
        Jacobian of the tube distances over those directions, so
        dw_c = (gradient of w_c over x.r) @ dr.  A chain is skipped where
        both w_c and dw_c vanish.
        """
        md = self.model
        chains = ((chain, w, md.chain_form_weight_grad(chain, x) @ dr)
                  for chain, w in md.chain_form_weights(x))
        return ext.combination_curvature(
            (w, dw) + self.chain_curvature(chain, x, g)
            for chain, w, dw in chains if w != 0.0 or dw.any())

    def localized(self, x: ModelPoint, g):
        """(value, W, sum_of_weights): localized form around the base stratum W."""
        md = self.model
        W = md.localization_base(x)
        inner_val = self.patched(*self._over(x, g, W))
        total = None
        wsum = 0.0
        # chains W = S_0 < ... < S_k = stratum(x) within x's flag
        for chain in md.chains_to(x):
            if chain[0] != W:
                continue
            w = md.chain_weight(chain, x)
            wsum += w
            if w == 0.0:
                continue
            term = w * self._along(chain, x, g, inner_val)
            total = term if total is None else total + term
        return total, W, wsum
