"""Numerical verification toolkit for patched connections and Chern forms
on stratified quotients of Hermitian symmetric spaces.

Modules:
  liecore      matrix groups, Cartan data, standard parabolics
  hcrepr       Harish-Chandra coordinates, Cayley elements, canonical
               extensions of K-representations
  dual         forward-mode dual numbers
  exterior     differential forms on charts, curvature, fiber checks
  invariants   invariant polynomials, Jordan decomposition, Chern forms
  strata       flag-tube models, bump functions, partitions of unity,
               the patched-connection recursion
  connections  invariant connections and the hypotheses of induction
  charts       product-of-exponentials group charts, sphere quadrature
  siegel       the rank-2 three-stratum geometric model
  schubert     exact Schubert calculus on compact duals
  suites       named verification suites with JSON reports
  cli          command-line entry point
"""

from . import (charts, cli, connections, dual, errors, exterior, hcrepr,
               invariants, liecore, schubert, siegel, strata, suites)
from .errors import (ConditionViolation, IllConditionedSpectrum,
                     PreconditionFailed, UnsupportedFlag)

__version__ = "0.1.0"

__all__ = [
    "charts", "cli", "connections", "dual", "errors", "exterior", "hcrepr",
    "invariants", "liecore", "schubert", "siegel", "strata", "suites",
    "ConditionViolation", "IllConditionedSpectrum", "PreconditionFailed",
    "UnsupportedFlag", "__version__",
]
