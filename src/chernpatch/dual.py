"""Seeded coordinates, the one piece of the old forward-mode dual numbers
that is left.

Every chart map is differentiated by central differences, and the package
never imports this module.  The benchmark tracer still imports it and counts
calls of `seed`; ROADMAP item 6's benchmark change deletes the rest.
"""

from collections import namedtuple

import numpy as np

Dual = namedtuple("Dual", "val grad")


def seed(x):
    """One Dual per coordinate of x, holding its value and its row of the
    identity Jacobian.  A coordinate that is already a Dual raises
    TypeError: Duals do not nest."""
    x = list(x)
    if any(isinstance(v, Dual) for v in x):
        raise TypeError("cannot seed a dual number")
    return [Dual(v, g) for v, g in zip(x, np.eye(len(x), dtype=complex))]
