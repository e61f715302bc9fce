"""Control data on a stratified poset and the telescoping partition of unity.

A stratum W carries a tubular neighbourhood function rho_W and a retraction
pi_W.  From a single C^1 bump profile we build the weights B_W^eps, and on
any flag of strata the weights of the proper faces plus the top weight sum
to exactly one.
"""

import numpy as np

from chernpatch import strata

# A forest of two flags sharing a stem: A < B < C < D and A < B < E.
model = strata.FlagTubeModel(
    strata=[{"name": "A", "dimC": 0}, {"name": "B", "dimC": 1},
            {"name": "C", "dimC": 2}, {"name": "D", "dimC": 4},
            {"name": "E", "dimC": 3}],
    flags=[["A", "B", "C", "D"], ["A", "B", "E"]])

print("epsilon family (dyadic in the complex dimension):")
for s in ("A", "B", "C", "D", "E"):
    print(f"  eps_{s} = {model.eps(s)}")

# Sample random points of the open stratum D, as one stack of 2000 rows of
# tube distances to A, B, C, and check the identity
#   B_A + B_B + B_C + B_D = 1
rng = np.random.default_rng(0)
w = model.partition_weights(("A", "B", "C", "D"),
                            rng.uniform(0.01, 3.0, size=(2000, 3)))
worst = np.max(np.abs(w.sum(axis=1) - 1.0))
print(f"max |sum of weights - 1| over 2000 points: {worst:.3e}")

# The vanishing property: B_W^eps is identically 1 close to W and
# identically 0 far from it, so on a grid straddling the tube boundary the
# family has no violations.
rpt = strata.family_vanishing_check(model, ["A", "B", "C", "D"])
print(f"vanishing check: {rpt['checked']} pairs of a grid point and an "
      f"index tuple (n, m, n', m'), {len(rpt['violations'])} violations")

# Flags may share strata: two cusps below one open stratum X.  At tube
# distance 0.3 from either cusp, the chain weights of the point sum to 1.
cusps = strata.FlagTubeModel(
    strata=[{"name": "cinf", "dimC": 0}, {"name": "c0", "dimC": 0},
            {"name": "X", "dimC": 1}],
    flags=[["cinf", "X"], ["c0", "X"]])
for cusp in ("cinf", "c0"):
    pt = cusps.point((cusp, "X"), [[0.3]])
    print(f"chain weights at r = 0.3 from {cusp}:",
          ", ".join(f"{'<'.join(c)} {w[0]:.8f}"
                    for c, w in cusps.chain_form_weights(pt)))
