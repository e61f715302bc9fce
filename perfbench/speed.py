"""Machine-speed calibration.

The shared 2-core box this benchmark was tuned on changes speed by 25-50%
over minutes, as other tenants come and go, and a whole run sits in
one such regime.  A fixed kernel that does not touch chernpatch, timed
between passes and between set-up probes, slows down with the box;
dividing by it removes the regime and keeps the program's own changes.
The raw and scaled spreads of two ten-run sets are in NOTES.md.
"""

import time
from fractions import Fraction

import numpy as np

# Kernel seconds on the reference box in a typical regime.  Normalised
# times are seconds at that speed.
REFERENCE_S = 0.3


def calibrate(reps=2000):
    """Seconds for a fixed mix like chernpatch's: 6x6 numpy linear algebra,
    Fraction arithmetic and a Python float loop."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    fr = [[Fraction(int(x), 7) for x in row]
          for row in rng.integers(-9, 9, (4, 4))]
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(reps):
        b = np.linalg.inv(a) @ a
        c, *_ = np.linalg.lstsq(a, b[:, 0], rcond=None)
        s = Fraction(0)
        for row in fr:
            for x in row:
                s += x * x
        acc += float(c[0]) + float(s) + sum(i * 0.5 for i in range(50))
    return time.perf_counter() - t0


def factor(before, after):
    """Scale from measured seconds to reference-speed seconds, for work done
    between two calibrations."""
    return REFERENCE_S / ((before + after) / 2)
