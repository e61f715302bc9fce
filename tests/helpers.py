"""Sample elements and membership residuals shared by the tests."""

import numpy as np

from chernpatch import liecore


def random_alg(spec, rng, scale=1.0):
    """A Lie algebra element with standard normal coordinates times scale."""
    basis = liecore.algebra_basis(spec)
    return liecore.from_coords(rng.standard_normal(len(basis)) * scale, basis)


def alg_residual(spec, X):
    """Residual of the linearized defining relation at X:
    max(|X^H F + F X|, |tr X| if special, |Im X| if real)."""
    F = spec.form
    r = float(np.max(np.abs(np.conj(X).swapaxes(-1, -2) @ F + F @ X)))
    if spec.special:
        r = max(r, abs(complex(np.trace(X))))
    if spec.real:
        r = max(r, float(np.max(np.abs(np.asarray(X, dtype=complex).imag))))
    return r


def rowwise(f):
    """A chart map of one point x (m,) as a map of a (P, m) stack: f on each
    row, the values stacked."""
    return lambda xs: np.array([f(x) for x in xs])


def fd_reference(sm, x, h=1e-5):
    """Central differences of the SmoothMap sm at x, one coordinate at a
    time: entry i is (value(x + h e_i) - value(x - h e_i)) / 2h."""
    cols = []
    for i in range(sm.m):
        xp, xm = list(x), list(x)
        xp[i] = xp[i] + h
        xm[i] = xm[i] - h
        cols.append((sm.value(xp) - sm.value(xm)) / (2 * h))
    return np.array(cols)
