"""Control data on stratified flag models: the bump profile, partitions of
unity, chain weights and the patched-connection recursion.

The combinatorial model: strata form a poset given by flags (chains), which
may share strata.  A point is carried by a flag prefix, the chain of strata
incident to it, with the tube distances r_Z to each proper ancestor; the
a-coordinates along strata never enter the weights, so they are not stored
here.  A stack of P points on one chain is

    x = ModelPoint(chain=(Z_1, ..., Z_k), r)    r of shape (P, k - 1):

row n lies in stratum Z_k, inside the tube of each ancestor Z_j at distance
r[n, j].  pi_{Z_j} truncates, rho_{Z_j} reads column j; these satisfy the
control-data axioms exactly (pi_Z pi_Y = pi_Z, rho_Z pi_Y = rho_Z).  Every
weight is a (P,) column of a prefix-product partition table, one table per
stratum Z of the chain: that of pi_Z(x) at eps_Z.  A stack carries its
tables, each built once (FlagTubeModel.table): a truncation pi_Z(x) shares
them, and a substack x[idx] slices them.

PatchedSystem is the one implementation of the patched connection, on a
stack of points: its recursion, its closed chain form and its localized
form, for any model giving each stratum's invariant connection and the
connection induced from it (the Siegel model in :mod:`chernpatch.siegel`
is one).  It also gives the curvature of the chain form: a chain's
connection, induced from its first stratum, has that stratum's curvature,
from the structure equation, and the product rule with the weight
gradients of FlagTubeModel.chain_form_weight_grad patches the chains.
"""

from __future__ import annotations

import graphlib
import itertools
import math
from functools import reduce

import numpy as np

from . import connections
from . import exterior as ext
from .errors import PreconditionFailed


# ---------------------------------------------------------------------------
# bump profile


class BumpProfile:
    """Smooth nondecreasing s with s = 0 on (-inf, 1/2], s = 1 on [3/4, inf).

    The transition uses the standard exp(-1/t) glue, rescaled to (1/2, 3/4).
    s and s' are scalar functions; :meth:`on_array` and
    :meth:`derivative_on_array` give their values on an array.
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
        """s at each entry of the array x, by __call__'s IEEE operations on
        the whole band (math.exp: np.exp may differ in the last bit)."""
        t = (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        out = (t >= 1.0).astype(float)
        band = ~((t <= 0.0) | (t >= 1.0))
        t = t[band]
        a, b = (np.fromiter(map(math.exp, e.tolist()), float, len(t))
                for e in (-1.0 / t, -1.0 / (1.0 - t)))
        out[band] = a / (a + b)
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

    def derivative_on_array(self, x):
        """s' at each entry of the array x, one scalar call per entry inside
        (lo, hi): Python's (a + b) ** 2 is not numpy's square in every last
        bit, so a numpy version would move the bits of s'."""
        out = np.zeros(np.shape(x))
        band = ~((x <= self.lo) | (x >= self.hi))
        out[band] = [self.derivative(v) for v in x[band].tolist()]
        return out


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


class ModelPoint:
    """P points on one chain (stratum names, ancestors first) with the
    (P, len(chain) - 1) tube distances r and the partition tables {Z: that
    of pi_Z(x)} that FlagTubeModel.table has built; x[idx] is the substack
    of the rows idx (one row for an integer), with their rows of the tables."""

    def __init__(self, chain, r, tables=None):
        self.chain = tuple(chain)
        self.r = np.asarray(r, dtype=float)
        if self.r.ndim != 2 or self.r.shape[1] != len(self.chain) - 1:
            raise PreconditionFailed(f"need a (P, {len(self.chain) - 1}) stack"
                                     f" of tube distances, got {self.r.shape}")
        self.stratum = self.chain[-1]
        self.tables = {} if tables is None else tables

    def __len__(self):
        return len(self.r)

    def __getitem__(self, idx):
        return ModelPoint(self.chain, np.atleast_2d(self.r[idx]), {
            Z: np.atleast_2d(t[idx]) for Z, t in self.tables.items()})


def _top_down(factors):
    """(P,) B_chain(x) from FlagTubeModel._chain_factors: the product of the
    pair factors, the top pair first; 1 for the singleton."""
    return reduce(np.multiply, factors[:0:-1], np.ones(len(factors[0])))


def _base(chain, factors):
    """(P,) the largest W in the chain with B_W^{eps_W}(pi_W(x)) != 0 at
    each row: the first factor of each chain from W, 1 for the first W."""
    own = {c[0]: fs[0] for c, fs in factors}
    nonzero = np.array([own[Z] != 0.0 for Z in chain[::-1]])
    return np.array(chain)[len(chain) - 1 - np.argmax(nonzero, axis=0)]


class FlagTubeModel:
    """Poset of strata given by flags, with eps-family and bump profile;
    flags may share strata, and a point lies on any prefix of a flag."""

    def __init__(self, strata, flags, eps0=1.0):
        """strata: list of {"name": str, "dimC": int}; flags: lists of names
        ordered small-to-large, with no cycle among them; eps0 scales the
        eps-family eps_Y = eps0 / 2^{dimC Y}."""
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
        order = graphlib.TopologicalSorter()   # each flag small-to-large
        for f in self.flags:
            for small, large in zip(f, f[1:]):
                order.add(large, small)
        try:
            order.prepare()
        except graphlib.CycleError as e:
            raise PreconditionFailed("flags order strata in a cycle: "
                                     + " < ".join(e.args[1])) from None
        self.profile = BumpProfile()
        flagged = {n for f in self.flags for n in f}
        self._chains = {(n,) for n in self.names if n not in flagged} | {
            f[:k] for f in self.flags for k in range(1, len(f) + 1)}

    def eps(self, name):
        return math.ldexp(self.eps0, -self.dimC[name])

    def point(self, chain, r) -> ModelPoint:
        """Points on chain, any prefix of a flag (or a stratum in no flag),
        with the (P, len(chain) - 1) tube distances r."""
        chain = tuple(chain)
        if chain not in self._chains:
            raise PreconditionFailed(f"{chain} is not a model flag chain")
        return ModelPoint(chain, r)

    # control data -----------------------------------------------------

    def pi(self, x: ModelPoint, Z) -> ModelPoint:
        """pi_Z(x), sharing x's tables: those of the strata up to Z are its."""
        k = x.chain.index(Z)
        return ModelPoint(x.chain[: k + 1], x.r[:, :k], x.tables)

    # weights ----------------------------------------------------------

    def _table(self, r, eps):
        """(P, n + 1) partition table at eps of the (P, n) distances r:
        column j is the product of s(r_i / eps) over i < j, left to right,
        times 1 - s(r_j / eps), or 1.0 in the last column."""
        s = self.profile.on_array(np.asarray(r, float) / eps)
        one = np.ones((len(s), 1))
        return (np.hstack([one, np.cumprod(s, axis=1)])
                * np.hstack([1.0 - s, one]))

    def B(self, Y, eps, x: ModelPoint):
        """(P,) partition numerators B_Y^eps(x), extended by zero off the
        tube: the column of Y in the table of x.r at eps."""
        if Y not in x.chain:
            return np.zeros(len(x))
        k = x.chain.index(Y)
        return self._table(x.r[:, :k + 1], eps)[:, k]

    def B_grad(self, Y, eps, x: ModelPoint):
        """(P, len(x.chain) - 1) gradient of B_Y^eps(x), Y in x's chain, over
        the tube distances x.r, by the product rule over its factors."""
        grad, k = np.zeros(x.r.shape), x.chain.index(Y)
        t = x.r[:, :k + 1] / eps
        s, ds = self.profile.on_array(t), self.profile.derivative_on_array(t)
        f = np.hstack([s[:, :k], 1.0 - s[:, k:]])
        df = np.hstack([ds[:, :k], -ds[:, k:]]) / eps
        prefix = np.hstack([np.ones((len(f), 1)), np.cumprod(f, axis=1)])
        for j in range(f.shape[1]):
            grad = grad * f[:, j, None]
            grad[:, j] += prefix[:, j] * df[:, j]
        return grad

    def partition_weights(self, chain, r):
        """(P, L) weights B_Z^eps, Z in the chain, at P points of it with
        the (P, L-1) tube distances r, at the one eps of the chain's top; a
        row sums to 1 on the whole closure."""
        return self._table(r, self.eps(chain[-1]))

    def table(self, x: ModelPoint, Z):
        """(P, k + 1) partition_weights of pi_Z(x), Z the k-th stratum of x's
        chain, built once per stack and kept in x.tables."""
        if Z not in x.tables:
            k = x.chain.index(Z)
            x.tables[Z] = self.partition_weights(x.chain[:k + 1], x.r[:, :k])
        return x.tables[Z]

    # chains -----------------------------------------------------------

    def chains_to(self, x: ModelPoint):
        """All chains Z_{i_1} < ... < Z_{i_r} = stratum(x) within x's chain,
        the singleton first; nearer ancestors vary fastest."""
        anc = x.chain[:-1]
        return [tuple(a for a, keep in zip(anc, mask) if keep) + (x.stratum,)
                for mask in itertools.product((0, 1), repeat=len(anc))]

    def _chain_factors(self, x: ModelPoint):
        """[(chain, factors)] over chains_to(x): the (P,) factors of the
        chain's weight, B_{Z_1}^{eps_{Z_1}}(pi_{Z_1}(x)) for its first
        stratum Z_1, then B_{Z_t}^{eps_{Z_{t+1}}}(pi_{Z_{t+1}}(x)) for each
        consecutive pair.  Each is a column of the partition table of a
        truncation pi_Z(x) at eps_Z, one of the L tables of x."""
        col = x.chain.index
        return [(c, [self.table(x, c[0])[:, -1]]
                 + [self.table(x, hi)[:, col(lo)] for lo, hi in zip(c, c[1:])])
                for c in self.chains_to(x)]

    def chain_form_weights(self, x: ModelPoint):
        """[(chain, (P,) w)] over chains_to(x): w is the weight of the
        chain's term in the chain form, the chain weight B_chain(x) times
        B_{Z_1}^{eps_{Z_1}}(pi_{Z_1}(x)) for the chain's first stratum Z_1."""
        return [(c, _top_down(fs) * fs[0]) for c, fs in self._chain_factors(x)]

    def chain_form_weight_grad(self, x: ModelPoint):
        """[(chain, w, grad)]: the chain_form_weights w with their (P, L-1)
        gradients over x.r, by the product rule over the B factors; each
        factor reads the first len(pi(x, outer).r) tube distances."""
        out = []
        for chain, fs in self._chain_factors(x):
            grad, val = np.zeros(x.r.shape), np.ones(len(x))
            for f, inner, outer in zip(fs, (chain[0],) + chain, chain):
                y = self.pi(x, outer)
                grad = grad * f[:, None]
                grad[:, :y.r.shape[1]] += val[:, None] * self.B_grad(
                    inner, self.eps(outer), y)
                val = val * f
            out.append((chain, _top_down(fs) * fs[0], grad))
        return out


# ---------------------------------------------------------------------------
# vanishing lemma


def family_vanishing_check(model: FlagTubeModel, flag, grid=None):
    """Exhaustively check the eps-family vanishing property on one flag.

    For strata indices (1-based along the flag) and the family
    eps_k = model.eps(flag[k-1]): whenever m >= n, m' >= n', n' < n, m' > m:

        B_n^{eps_m}(pi_n(x)) != 0   implies   B_{n'}^{eps_{m'}}(x) = 0

    together with the contrapositive.  Returns a report dict.

    The points of the grid^(L-1) are one stack, the last axis varying
    fastest, and each B is evaluated on all of it at once.  Violations are
    listed point by point, and by (n, m, n', m') within a point.
    """
    flag = tuple(flag)
    L = len(flag)
    if grid is None:
        grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), 10)
    grid = np.asarray(grid, dtype=float)
    axes = np.meshgrid(*[grid] * (L - 1), indexing="ij")
    x = model.point(flag, np.reshape(axes, (L - 1, grid.size ** (L - 1))).T)
    eps = [model.eps(Y) for Y in flag]
    tuples = [(n, m, np_, mp) for n in range(1, L + 1)
              for m in range(n, L + 1) for np_ in range(1, n)
              for mp in range(m + 1, L + 1)]
    pairs = [(model.B(flag[n - 1], eps[m - 1], model.pi(x, flag[n - 1])),
              model.B(flag[np_ - 1], eps[mp - 1], x))
             for n, m, np_, mp in tuples]
    B = np.reshape(pairs, (len(tuples), 2, len(x)))
    violations = [{"r": x.r[i].tolist(), **dict(zip(("n", "m", "n'", "m'"),
                                                   tuples[t])),
                   "B_n": float(B[t, 0, i]), "B_n'": float(B[t, 1, i])}
                  for i, t in zip(*np.nonzero((B != 0.0).all(axis=1).T))]
    checked = len(tuples) * len(grid) ** (L - 1)
    return {"checked": checked, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# patched recursion over a model


def _times(w, v):
    """The (P,) weights w times the (P, ...) value stack v, row by row."""
    return np.reshape(w, np.shape(w) + (1,) * (np.ndim(v) - 1)) * v


class PatchedSystem:
    """Patched connection recursion over a FlagTubeModel, on a stack of points.

    The model points xs, a ModelPoint stack of P points on one chain, carry
    the control data, and an opaque geometric point g over them what the
    connections read: g.mc, a Maurer-Cartan stack with a leading axis of P
    (for a chart model, a tangent vector at each chart point), and g[idx],
    the substack of the rows idx.  Each stratum is given once:

      nomizu   {Y: F or None}: Y's invariant connection, of value F(g.mc)
               and curvature connections.structure_curvature(F, g.mc) for
               a linear F; None is the zero connection, the scalar 0.0;
      induced  {Z: callable(g, v)}: at g over any larger stratum, the
               connection induced from one on Z of value v at project(g, Z);
               it has the curvature of Z's there;
      project  callable(g, Z) -> the geometric point over pi_Z(xs), for g
               over points of a larger stratum; project(project(g, Y), Z)
               must be project(g, Z), as the control data compose.

    Values are (P, ...) stacks, read by :meth:`curvature` as coefficients
    over the chart directions of g.  Weights are the (P,) arrays of
    FlagTubeModel: a term is skipped where its weight vanishes at every row,
    and elsewhere a zero weight leaves the sum unchanged.
    """

    def __init__(self, model: FlagTubeModel, nomizu, induced, project):
        self.model = model
        self.nomizu = nomizu
        self.induced = induced
        self.project = project

    def _at(self, xs, g, Z):
        """The geometric point over pi_Z(xs)."""
        return g if Z == xs.stratum else self.project(g, Z)

    def _value(self, xs, g, Y):
        """The value of Y's invariant connection over pi_Y(xs)."""
        F = self.nomizu[Y]
        return 0.0 if F is None else F(self._at(xs, g, Y).mc)

    def _along(self, chain, xs, g, v):
        """Pull v over pi_{chain[0]}(xs) up the chain by the induced maps."""
        for lo, hi in zip(chain, chain[1:]):
            v = self.induced[lo](self._at(xs, g, hi), v)
        return v

    def patched(self, xs, g):
        """B_Y^{eps_Y} nomizu_Y + sum over Z < Y of B_Z^{eps_Y} times the
        connection induced from the patched connection of Z, for Y the
        stratum of xs: the weights are the columns of xs's table of Y."""
        chain = xs.chain
        if len(chain) == 1:
            # no ancestors: B_Y^{eps_Y} is identically 1 here
            return self._value(xs, g, xs.stratum)
        w, val = self.model.table(xs, xs.stratum), 0.0
        if w[:, -1].any():
            val = _times(w[:, -1], self._value(xs, g, xs.stratum))
        for k in reversed(range(len(chain) - 1)):
            if w[:, k].any():
                Z = chain[k]
                inner = self.patched(self.model.pi(xs, Z), self.project(g, Z))
                val = val + _times(w[:, k], self.induced[Z](g, inner))
        return val

    def chain_form(self, xs, g):
        """Closed form: sum over chains of full weights and composed
        induced connections."""
        return sum(_times(w, self._along(c, xs, g, self._value(xs, g, c[0])))
                   for c, w in self.model.chain_form_weights(xs) if w.any())

    def chain_curvature(self, chain, xs, g):
        """(omega_c, Omega_c): the chain's connection, the nomizu value of its
        first stratum pulled up the chain, and its curvature, which is that
        first stratum's own at the projected points, unchanged."""
        F = self.nomizu[chain[0]]
        om, curv = (0.0, 0.0) if F is None else (
            connections.structure_curvature(F, self._at(xs, g, chain[0]).mc))
        return self._along(chain, xs, g, om), curv

    def curvature(self, xs, g, dr):
        """Curvature coefficients of the chain form omega = sum_c w_c omega_c
        over the pairs i < j of the m chart directions of g, by
        ext.combination_curvature over the chains.  dr is the (P, len(r), m)
        stack of Jacobians of the tube distances over those directions, so
        dw_c = (gradient of w_c over r) @ dr.  A chain is skipped where w_c
        and dw_c vanish at every row.
        """
        chains = ((c, w, (grad[:, None] @ dr)[:, 0])
                  for c, w, grad in self.model.chain_form_weight_grad(xs))
        return ext.combination_curvature(
            (w, dw) + self.chain_curvature(c, xs, g)
            for c, w, dw in chains if w.any() or dw.any())

    def localized(self, xs, g):
        """(value, [W], wsum): the localized form around the base stratum W of
        each row, one substack per W, and the (P,) sums of the weights."""
        factors = self.model._chain_factors(xs)
        bases = _base(xs.chain, factors)
        value, wsum = None, np.zeros(len(xs))
        for W in dict.fromkeys(bases.tolist()):
            idx = np.flatnonzero(bases == W)
            sub, gsub = xs[idx], g[idx]
            inner_val = self.patched(self.model.pi(sub, W),
                                     self._at(sub, gsub, W))
            # chains W = S_0 < ... < S_k = stratum(x) within x's chain
            chains = [(c, _top_down(fs)[idx]) for c, fs in factors
                      if c[0] == W]
            wsum[idx] = sum(w for _, w in chains)
            total = sum(_times(w, self._along(c, sub, gsub, inner_val))
                        for c, w in chains if w.any())
            if value is None:
                value = np.empty((len(xs),) + total.shape[1:], total.dtype)
            value[idx] = total
        return value, bases.tolist(), wsum
