"""Chern numbers by quadrature on the projective line.

The sphere SU(2)/U(1) carries one homogeneous line bundle per integer
weight.  Integrating the first Chern form of the Nomizu connection over
the sphere recovers the weight, which for the weight-2 bundle is the
degree of the tangent bundle of the projective line.
"""

from chernpatch import charts, schubert

for w in (2, 1, -1, -3):
    val = charts.p1_chern_number(weight=w, n=160)
    print(f"weight {w:>2}: quadrature = {val:+.6f}  (exact {w})")

# The same degree computed exactly on the compact dual.
exact = schubert.chern_number("p:1", "tangent", {1: 1})
print("exact tangent degree of the projective line:", exact)
