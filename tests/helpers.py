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
