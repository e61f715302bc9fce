"""Numerical verification toolkit for patched connections and Chern forms
on stratified quotients of Hermitian symmetric spaces.

Modules:
  liecore      Sp(2n, R): Cartan data, standard parabolics
  hcrepr       Harish-Chandra coordinates, Cayley elements, canonical
               extensions of K-representations
  exterior     differential forms on charts, curvature, fiber checks
  invariants   invariant polynomials, exact adjugate, Chern forms
  strata       flag-tube models, bump functions, partitions of unity,
               the patched-connection recursion
  connections  invariant connections and the hypotheses of induction
  charts       product-of-exponentials group charts, sphere quadrature
  siegel       the rank-2 three-stratum geometric model
  schubert     Chern and Betti numbers of compact duals by torus localization
  suites       named verification suites with JSON reports
  cli          command-line entry point
"""

from . import (charts, connections, errors, exterior, hcrepr, invariants,
               liecore, schubert, siegel, strata, suites)
from .errors import ConditionViolation, PreconditionFailed, UnsupportedFlag

__version__ = "0.1.0"

__all__ = [
    "charts", "cli", "connections", "errors", "exterior", "hcrepr",
    "invariants", "liecore", "schubert", "siegel", "strata", "suites",
    "ConditionViolation", "PreconditionFailed", "UnsupportedFlag",
    "__version__",
]
