"""The patched connection on the rank-two Siegel space.

The Siegel upper half space of genus two retracts onto two boundary
strata: an upper half plane and a point.  Near each stratum the bundle
carries a connection induced from the corresponding parabolic; the patched
connection interpolates between them with the partition of unity of the
stratified model.

The punchline: the curvature of the patched connection is not itself a
pullback from the plane stratum where both weights are active, but its
Chern forms are.  A commuting nilpotent difference of the two parabolic
pieces drops out of every conjugation invariant.
"""

import numpy as np

from chernpatch import exterior as ext, invariants as inv, siegel, suites

m = siegel.SiegelModel("std")
epsX = m.model.eps("X")
print("tube radii: eps_Z =", m.model.eps("Z"), " eps_Y =", m.model.eps("Y"),
      " eps_X =", epsX)

# The patched form evaluated three ways at a generic point, a stack of one:
# the recursive definition, the expanded chain formula, and the localized
# formula.
rng = np.random.default_rng(0)
x = [0.3, -0.1, 0.2, 12.0, 0.05, 25.0]
p = m.points([x])
v = siegel.TangentVector(p.mc[:, 0])    # the three forms share its splits
a = m.system.patched(p.control, v)[0]
b = m.system.chain_form(p.control, v)[0]
c, bases, wsums = m.system.localized(p.control, v)
print("recursion vs chain:", float(np.max(np.abs(a - b))))
print(f"localized around {bases[0]}: |w*recursion - localized| =",
      float(np.max(np.abs(wsums[0] * a - c[0]))))

# Sample points where the point-stratum weight sits in its transition band
# while we stay well inside the tube around the plane stratum.
pts = suites._mixed_tube_points(m, rng, 3)

wp = m.form_from_evaluator(m.omega_patched)
curv = ext.curvature_form(wp)
sig = inv.chern_forms(curv, 2)
proj = m.projection_map()

# The curvature from the structure equation, with no differentiation,
# against one central difference of the patched chart form at x.
print("structure equation vs central difference:",
      f"{np.max(np.abs(m.curvature_patched(p)[0] - curv.value(x))):.1e}")

raw = ext.pifiber_check(curv, proj, pts, tol=1e-5, rng=rng)
print("raw curvature vertical contraction:",
      f"{raw['max_vertical_contraction']:.3e}  (pullback? {raw['ok']})")
for k in (1, 2):
    rpt = ext.pifiber_check(sig[k], proj, pts, tol=1e-5, rng=rng)
    print(f"chern form c_{k} vertical contraction:",
          f"{rpt['max_vertical_contraction']:.3e}  (pullback? {rpt['ok']})")
