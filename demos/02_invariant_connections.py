"""Invariant connections on a homogeneous line bundle over the upper half
plane Sp(2, R)/U(1), the genus-1 Siegel space.

A connection form omega_0 on g with values in End(V) defines an invariant
connection exactly when it restricts to the isotropy representation on k
and commutes with the isotropy action.  The Nomizu form (project to k)
always works; here it is taken on det^2, the line bundle of weight 2
(Sp(2, R) is SU(1, 1) in complex coordinates).  A flat example comes from
any honest extension of the isotropy representation to all of g.
"""

import numpy as np

from chernpatch import connections, hcrepr, liecore
from chernpatch.errors import ConditionViolation

spec = liecore.sp2nR(1)
rep = hcrepr.builtin_representation(spec, "det^2")

# The Nomizu connection and its curvature on the p-basis, whose one pair
# (p1, p2) gives the one entry of the stack curvature0 returns.
nom = connections.nomizu_connection(spec, rep)
pb = np.array(connections.p_basis(spec))
print("Nomizu curvature on (p1, p2):", nom.curvature0(pb)[0])
print("flat?", nom.is_flat())

# Perturbing the values breaks one of the two defining conditions, and the
# classifier reports which.  No basis element of sp(2) lies in k, so the
# k-direction perturbation adds <X, k> for the unit k spanning it, which
# vanishes on p; the p-direction one moves the value of the diagonal
# element, which lies in p.
basis = liecore.algebra_basis(spec)
(k,) = connections.k_basis(spec)
on_k = np.array([np.sum(b * k) for b in basis])
pidx = next(i for i, b in enumerate(basis)
            if np.allclose(liecore.cartan_split(spec, b)[0], 0))
on_p = np.eye(len(basis))[pidx]
for label, shift in (("k-direction", on_k), ("p-direction", on_p)):
    vals = nom.values + 0.05 * shift[:, None, None]
    try:
        connections.make_invariant_connection(spec, rep, vals)
    except ConditionViolation as e:
        print(f"perturbation in {label}: violated condition(s) {e.conditions}")

# A flat connection: restrict the defining representation to K and use the
# inclusion of g into End(C^2) as omega_0, written in the complex
# coordinates M g M^{-1} in which K(C) is diagonal.  The curvature vanishes.
inc = hcrepr.Representation(
    spec, "std-restriction", 2,
    lambda kc: np.asarray(kc, dtype=complex),
    lambda kc: np.asarray(kc, dtype=complex))
M, Minv = spec.complex_coords
flat = connections.make_invariant_connection(
    spec, inc, [M @ b @ Minv for b in basis])
print("inclusion connection flat?", flat.is_flat())

# The chart-level check: pull the connection form back through a
# product-of-exponentials chart, differentiate, and compare with the
# algebraic curvature.  The two agree to quadrature accuracy.
from chernpatch import charts

rng = np.random.default_rng(0)
pts = [rng.uniform(-0.4, 0.4, len(basis)) for _ in range(5)]
res = charts.curvature_bridge_residual(spec, nom, pts, rng=rng)
print(f"chart curvature vs algebraic curvature: {res:.3e}")
