"""Exact Chern numbers of the compact duals LG(n) by torus localization.

LG(n) = LG(n, 2n), the Lagrangian Grassmannian, is the compact dual of the
Siegel space H_n: LG(1) is the projective line and LG(2) the quadric
threefold.  A class is the tuple of its restrictions to the 2^n
torus-fixed points; products are pointwise, and the integral is the
Atiyah-Bott sum of a(p) / e(T_p).  The same table gives Chern numbers,
Betti numbers and the check that c_1(S*), ..., c_n(S*) generate the ring.
"""

from chernpatch import schubert as sc

for n in (1, 2, 3):
    lg = sc.parse_space(f"lg:{n}")
    d = lg.dim
    print(f"LG({n}): dimension {d}, {len(lg.cofactor)} fixed points, "
          "Betti numbers", sc.betti(lg))
    print(f"  degree c1(S*)^{d} =", sc.chern_number(lg, "sub-dual", {1: d}))
    print(f"  c1(T)^{d} =", sc.chern_number(lg, "tangent", {1: d}),
          f"and c{d}(T) = Euler number =",
          sc.chern_number(lg, "tangent", {d: 1}))
    rpt = sc.generation_check(lg)
    print("  c(S*) generates:", rpt["span_rank"], "of", rpt["betti_total"],
          "->", rpt["generates"])

# On LG(2), c(S) c(S*) = 1 reads c1^2 = 2 c2, the relation of the Hodge
# bundle on A_2; the wrong sign, c1^2 + 2 c2, pairs to 4 with c1.
lg = sc.parse_space("lg:2")
s = sc.chern_classes(lg, "sub-dual")
c1_squared = sc.ring_multiply(s[1], s[1])
for sign, k in (("-", -2), ("+", 2)):
    rel = [a + k * b for a, b in zip(c1_squared, s[2])]
    print(f"c1^2 {sign} 2 c2 pairs with c1 to",
          sc.integrate(lg, sc.ring_multiply(rel, s[1])))

# c1 and c2 alone do not generate the cohomology of LG(3).
rpt = sc.generation_check("lg:3", [("sub-dual", 1), ("sub-dual", 2)])
print("generation on lg:3 by c1, c2:", rpt["span_rank"], "of",
      rpt["betti_total"], "->", rpt["generates"])
