"""Conjugation invariants are blind to commuting nilpotent shifts.

For the elementary symmetric functions e_k of a matrix x (the
characteristic polynomial coefficients), e_k(x + n) = e_k(x) whenever n is
nilpotent and commutes with x.  This is exact in rational arithmetic and
holds to rounding in floats; it fails immediately if the commutation
hypothesis is dropped.
"""

from fractions import Fraction

import numpy as np

from chernpatch import invariants as inv
from chernpatch.errors import PreconditionFailed

# An exact commuting pair: x diagonalizable with a repeated eigenvalue, n
# nilpotent supported on that eigenspace, both conjugated by the same
# rational matrix.
D = np.array([[Fraction(2), 0, 0], [0, Fraction(2), 0],
              [0, 0, Fraction(5)]], dtype=object)
N = np.array([[Fraction(0), Fraction(1), 0], [0, Fraction(0), 0],
              [0, 0, Fraction(0)]], dtype=object)
S = np.array([[Fraction(1), Fraction(1), Fraction(0)],
              [Fraction(0), Fraction(1), Fraction(1)],
              [Fraction(1), Fraction(0), Fraction(1)]], dtype=object)
Sinv = np.array([[Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)],
                 [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)],
                 [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)]],
                dtype=object)
x = S @ D @ Sinv
n = S @ N @ Sinv

for k in (1, 2, 3):
    a = inv.elementary_symmetric_value(x, k)
    b = inv.elementary_symmetric_value(x + n, k)
    print(f"e_{k}(x) = {a},  e_{k}(x+n) = {b},  equal: {a == b}")

# springer_check packages the comparison for any invariant polynomial; it
# refuses a non-commuting shift.
e2 = inv.elementary_symmetric(2)
print("springer residual for e_2:", inv.springer_check(e2, x, n))
bad = np.zeros((3, 3), dtype=object)
bad[:] = Fraction(0)
bad[2, 0] = Fraction(1)
try:
    inv.springer_check(e2, x, bad)
except PreconditionFailed as e:
    print("non-commuting shift rejected:", e)
