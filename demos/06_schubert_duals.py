"""Exact Chern numbers of compact duals by torus localization.

A class on a compact dual is the tuple of its restrictions to the torus-fixed
points; products are pointwise, and the integral is the Atiyah-Bott sum of
a(p) / e(T_p).  The same table gives Chern numbers, Betti numbers and the
check that the tautological classes generate the cohomology ring, on
Grassmannians and on LG(n, 2n), the compact dual of the Siegel space.
"""

from chernpatch import schubert as sc

# The basic ring identities in Gr(2, 4): sigma_r = c_r(Q), sigma_11 = c_2(S*).
gr = sc.parse_space("gr:2,4")
q, s = sc.chern_classes(gr, "quotient"), sc.chern_classes(gr, "sub-dual")
print(f"Gr(2,4): {len(gr.cofactor)} fixed points, Betti numbers",
      sc.betti(gr))
rel = [a - b - c for a, b, c in zip(sc.ring_multiply(q[1], q[1]), q[2], s[2])]
print("sigma_1^2 - sigma_2 - sigma_11 pairs with degree 2 to",
      {int(sc.integrate(gr, sc.ring_multiply(rel, m)))
       for m in sc.monomials(gr)[2]})
print("<sigma_11 . sigma_2> =",
      sc.integrate(gr, sc.ring_multiply(s[2], q[2])))
print("<sigma_1^4> =", sc.chern_number(gr, "quotient", {1: 4}))

# Tangent Chern numbers.
for space, mono, label in [("p:1", {1: 1}, "c1[P^1]"),
                           ("p:2", {1: 2}, "c1^2[P^2]"),
                           ("gr:2,4", {1: 4}, "c1^4[Gr(2,4)]"),
                           ("gr:2,4", {4: 1}, "c4[Gr(2,4)] = Euler number"),
                           ("lg:2", {1: 3}, "c1^3[LG(2,4)] = c1^3[Q^3]"),
                           ("lg:3", {1: 6}, "c1^6[LG(3,6)]"),
                           ("lg:3", {6: 1}, "c6[LG(3,6)] = Euler number")]:
    print(f"{label} =", sc.chern_number(space, "tangent", mono))

# The tautological classes generate the ring; c_2(Q) alone does not.
for space, gens in [("gr:2,4", None), ("lg:3", None),
                    ("gr:2,4", [("quotient", 2)])]:
    rpt = sc.generation_check(space, gens)
    print(f"generation on {rpt['space']} by {gens or 'c(Q), c(S*)'}:",
          rpt["span_rank"], "of", rpt["betti_total"], "->", rpt["generates"])
