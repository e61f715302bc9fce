"""Canonical extension of an isotropy representation to a parabolic.

A homogeneous bundle on the symmetric space is determined by a
representation of the maximal compact subgroup.  Along a boundary stratum
the structure group degenerates to a parabolic, and the representation
extends canonically to it.  Nested parabolics extend compatibly, which is
what lets connections induced at different strata be patched.
"""

import numpy as np

from chernpatch import connections, hcrepr, liecore

spec = liecore.sp2nR(2)
rep = hcrepr.builtin_representation(spec, "std")

# The extension to the Lagrangian parabolic is a homomorphism there:
# check on random pairs of parabolic group elements.
ext = hcrepr.canonical_extension(rep, 2)
pd = liecore.parabolic_data(spec, (2,))
rng = np.random.default_rng(0)
residuals = []
for _ in range(20):
    g = liecore.exp_grp(spec, liecore.from_coords(
        0.3 * rng.standard_normal(len(pd.basis_q)), pd.basis_q))
    h = liecore.exp_grp(spec, liecore.from_coords(
        0.3 * rng.standard_normal(len(pd.basis_q)), pd.basis_q))
    residuals.append(np.max(np.abs(ext(g @ h) - ext(g) @ ext(h))))
print("homomorphism residual over 20 parabolic pairs:",
      f"{np.max(residuals):.3e}")

# On K itself the extension restricts to the representation we started
# with.
k = liecore.exp_grp(spec, 0.4 * connections.k_basis(spec)[0])
print("restriction-to-K residual:",
      float(np.max(np.abs(ext(k) - rep.lam_grp(k)))))

# The rank-1 and rank-2 extensions agree on the Levi factor of the smaller
# parabolic, and the relative extension fills in the rest of the larger
# one.
rpt = hcrepr.extension_compat_check(rep, 1, 2, samples=30,
                                    rng=np.random.default_rng(1))
print("nested compatibility:")
print("  levi residual     =", rpt["levi_residual"])
print("  relative residual =", rpt["relative_residual"])

# The values are genuinely new: the extension of an embedded GL(2) block
# is the block acting on the Lagrangian flag, not an isotropy rotation.
a = np.array([[1.5, 0.3], [0.0, 0.8]])
g = liecore.sp_embed_gl(spec, 2, a)
print("extension of an embedded GL(2) element:")
print(np.round(ext(g).real, 6))
