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
Siegel model in :mod:`chernpatch.siegel` is one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as fd
from .errors import PreconditionFailed


# ---------------------------------------------------------------------------
# bump profile


class BumpProfile:
    """Smooth nondecreasing s with s = 0 on (-inf, 1/2], s = 1 on [3/4, inf).

    The transition uses the standard exp(-1/t) glue, rescaled to (1/2, 3/4);
    works on floats and on dual numbers.
    """

    lo = 0.5
    hi = 0.75

    def __call__(self, x):
        t = (x - self.lo) / (self.hi - self.lo)
        tv = fd.value(t)
        if tv <= 0.0:
            return 0.0 * t if isinstance(t, fd.Dual) else 0.0
        if tv >= 1.0:
            return 0.0 * t + 1.0 if isinstance(t, fd.Dual) else 1.0
        a = fd.exp(-1.0 / t)
        b = fd.exp(-1.0 / (1.0 - t))
        return a / (a + b)

    def scaled(self, rho, eps):
        """s_eps(rho) = s(rho/eps)."""
        return self(rho / eps)


# ---------------------------------------------------------------------------
# model


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
        self.dimC = {s["name"]: int(s["dimC"]) for s in strata}
        self.names = [s["name"] for s in strata]
        self.flags = [tuple(f) for f in flags]
        self.eps0 = float(eps0)
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
        return self.eps0 / 2 ** self.dimC[name]

    def ancestors(self, name):
        return self._ancestors[name]

    def point(self, chain, r) -> ModelPoint:
        chain = tuple(chain)
        if chain[:-1] != self._ancestors[chain[-1]]:
            raise PreconditionFailed(f"{chain} is not a model flag chain")
        return ModelPoint(chain, tuple(r))

    # control data -----------------------------------------------------

    def pi(self, x: ModelPoint, Z) -> ModelPoint:
        k = x.chain.index(Z)
        return ModelPoint(x.chain[: k + 1], x.r[:k])

    def rho(self, x: ModelPoint, Z):
        if Z == x.stratum:
            return 0.0
        k = x.chain.index(Z)
        return x.r[k]

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

    def partition_weights(self, x: ModelPoint, eps=None, Y=None):
        """{Z: B_Z^eps(x)} over Z <= Y; eps defaults per use to a single value.

        With the default Y = stratum of x, the values sum to 1 on the whole
        closure; they also sum to 1 on T_Y(eps/2) for larger ambient strata.
        """
        if Y is None:
            Y = x.stratum
        if eps is None:
            eps = self.eps(Y)
        out = {}
        idx = x.chain.index(Y)
        for Z in x.chain[: idx + 1]:
            out[Z] = self.B(Z, eps, x)
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

    def localization_base(self, x: ModelPoint):
        """Largest stratum W in x's flag with B_W^{eps_W}(pi_W(x)) != 0."""
        for Z in reversed(x.chain):
            if fd.value(self.B(Z, self.eps(Z), self.pi(x, Z))) != 0.0:
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
    """
    flag = tuple(flag)
    L = len(flag)
    if grid is None:
        grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), 10)
    violations = []
    checked = 0
    import itertools
    for rvals in itertools.product(grid, repeat=L - 1):
        x = model.point(flag, rvals)
        for n in range(1, L + 1):
            for m in range(n, L + 1):
                for np_ in range(1, n):
                    for mp in range(m + 1, L + 1):
                        if mp < np_:
                            continue
                        checked += 1
                        xn = model.pi(x, flag[n - 1]) if n < L else x
                        bn = fd.value(model.B(flag[n - 1], model.eps(flag[m - 1]), xn))
                        bnp = fd.value(model.B(flag[np_ - 1], model.eps(flag[mp - 1]), x))
                        if bn != 0.0 and bnp != 0.0:
                            violations.append(
                                {"r": list(map(float, rvals)), "n": n, "m": m,
                                 "n'": np_, "m'": mp, "B_n": bn, "B_n'": bnp})
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
                weight is nonzero, and must follow the control data:
                project(project(g, X, Y), Y, Z) = project(g, X, Z).

    Values may be any objects supporting + and scalar *.
    """

    def __init__(self, model: FlagTubeModel, nomizu, pullback, project):
        self.model = model
        self.nomizu = nomizu
        self.pullback = pullback
        self.project = project

    def _over(self, x: ModelPoint, g, Z):
        """(pi_Z(x), the geometric point over it)."""
        if Z == x.stratum:
            return x, g
        return self.model.pi(x, Z), self.project(g, x.stratum, Z)

    def _along(self, chain, x: ModelPoint, g, v):
        """Pull v, a value over pi_{chain[0]}(x), up the chain to stratum(x)."""
        for lo, hi in zip(chain, chain[1:]):
            v = self.pullback[(hi, lo)](*self._over(x, g, hi), v)
        return v

    def patched(self, x: ModelPoint, g):
        """B_Y^{eps_Y} nomizu_Y + sum over Z < Y of B_Z^{eps_Y} times the
        pullback of the patched connection of Z, for Y = stratum(x)."""
        md = self.model
        Y = x.stratum
        epsY = md.eps(Y)
        val = md.B(Y, epsY, x) * self.nomizu[Y](x, g)
        for Z in reversed(x.chain[:-1]):
            w = md.B(Z, epsY, x)
            if fd.value(w) == 0.0:
                continue
            inner = self.patched(*self._over(x, g, Z))
            val = val + w * self.pullback[(Y, Z)](x, g, inner)
        return val

    def chain_form(self, x: ModelPoint, g):
        """Closed form: sum over chains of full weights and composed pullbacks."""
        md = self.model
        total = None
        for chain in md.chains_to(x):
            Z1 = chain[0]
            w = md.chain_weight(chain, x) * md.B(Z1, md.eps(Z1), md.pi(x, Z1))
            if fd.value(w) == 0.0:
                continue
            term = w * self._along(chain, x, g,
                                   self.nomizu[Z1](*self._over(x, g, Z1)))
            total = term if total is None else total + term
        return total

    def localized(self, x: ModelPoint, g):
        """(value, W, sum_of_weights): localized form around the base stratum W."""
        md = self.model
        W = md.localization_base(x)
        iW = x.chain.index(W)
        top = x.stratum
        inner_val = self.patched(*self._over(x, g, W))
        # chains W = S_0 < ... < S_k = top within x's flag
        mids = list(x.chain[iW + 1: -1])
        total = None
        wsum = 0.0
        for mask in range(1 << len(mids)):
            chain = (W,) + tuple(m for i, m in enumerate(mids) if mask >> i & 1)
            if top != W:
                chain = chain + (top,)
            w = md.chain_weight(chain, x)
            wsum += fd.value(w)
            if fd.value(w) == 0.0:
                continue
            term = w * self._along(chain, x, g, inner_val)
            total = term if total is None else total + term
        return total, W, wsum
