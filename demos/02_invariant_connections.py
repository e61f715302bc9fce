"""Invariant connections on a homogeneous vector bundle.

A connection form omega_0 on g with values in End(V) defines an invariant
connection exactly when it restricts to the isotropy representation on k
and commutes with the isotropy action.  The Nomizu form (project to k)
always works; a flat example comes from any honest extension of the
isotropy representation to all of g.
"""

import numpy as np

from chernpatch import connections, hcrepr, liecore
from chernpatch.errors import ConditionViolation

spec = liecore.su_pq(1, 1)
rep = hcrepr.builtin_representation(spec, "weight:2")

# The Nomizu connection and its curvature on the p-basis pair.
nom = connections.nomizu_connection(spec, rep)
p1, p2 = connections.p_basis(spec)
print("Nomizu curvature on (p1, p2):", nom.curvature0(p1, p2))
print("flat?", nom.is_flat())

# Perturbing the values breaks one of the two defining conditions, and the
# classifier reports which.
basis = liecore.algebra_basis(spec)
kidx = next(i for i, b in enumerate(basis)
            if np.allclose(liecore.cartan_split(spec, b)[1], 0))
pidx = next(i for i, b in enumerate(basis)
            if not np.allclose(liecore.cartan_split(spec, b)[1], 0))
for label, idx in (("k-direction", kidx), ("p-direction", pidx)):
    vals = nom.values.copy()
    vals[idx] += 0.05 * np.eye(rep.dim)
    try:
        connections.make_invariant_connection(spec, rep, vals)
    except ConditionViolation as e:
        print(f"perturbation in {label}: violated condition(s) {e.conditions}")

# A flat connection: restrict the defining representation to K and use the
# inclusion of g into End(C^2) as omega_0.  The curvature vanishes.
inc = hcrepr.Representation(
    spec, "std-restriction", 2,
    lambda kc: np.asarray(kc, dtype=complex),
    lambda kc: np.asarray(kc, dtype=complex))
flat = connections.make_invariant_connection(spec, inc, basis)
print("inclusion connection flat?", flat.is_flat())

# The chart-level check: pull the connection form back through a
# product-of-exponentials chart, differentiate, and compare with the
# algebraic curvature.  The two agree to quadrature accuracy.
from chernpatch import charts

rng = np.random.default_rng(0)
pts = [rng.uniform(-0.4, 0.4, len(basis)) for _ in range(5)]
res = charts.curvature_bridge_residual(spec, nom, pts, rng=rng)
print(f"chart curvature vs algebraic curvature: {res:.3e}")
