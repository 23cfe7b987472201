"""Diagram calculus, Harish-Chandra asymptotic series, and twisted-cycle
integrals for the hypergeometric system of type A_n.

Subpackages:
  rootsystem  -- exact A_n root data (roots, rho, Weyl action, dominance)
  diagrams    -- marked-diagram calculus, reduced words, Gelfand-Zetlin patterns
  polynomial  -- sparse exact-rational multivariate polynomials
  series      -- Freudenthal-type recurrences, asymptotic solutions, symbols
  cycles      -- tower-of-loops cycles, phase-tracked form, quadrature
  closedforms -- Gamma/sine product evaluators and the Vandermonde identities
  claims      -- the paper's claims as one seeded registry, run by `hc verify`
  cli         -- the `hc` command-line front door
"""

import importlib

from . import closedforms, diagrams, polynomial, rootsystem, series
from .closedforms import F_w_at_1, a_w, limit_value
from .diagrams import Diagram, GZPattern, Permutation, gz_pattern
from .polynomial import Poly
from .series import CoeffTable, ResonanceError, SpectralParam, freudenthal_table, gamma_L, phi_eval

__version__ = "0.1.0"

# `cycles` is the one module that needs numpy, so it loads on first use
# (PEP 562): the exact layers import without numpy.
_CYCLES_NAMES = {"BumpFn", "CyclePath", "QuadratureSpec", "integrate", "integrate_for_w", "leading_coeff_estimate"}


def __getattr__(name):
    if name == "cycles" or name in _CYCLES_NAMES:
        cycles = importlib.import_module(".cycles", __name__)
        return cycles if name == "cycles" else getattr(cycles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BumpFn",
    "CoeffTable",
    "CyclePath",
    "Diagram",
    "F_w_at_1",
    "GZPattern",
    "Permutation",
    "Poly",
    "QuadratureSpec",
    "ResonanceError",
    "SpectralParam",
    "a_w",
    "closedforms",
    "cycles",
    "diagrams",
    "freudenthal_table",
    "gamma_L",
    "gz_pattern",
    "integrate",
    "integrate_for_w",
    "leading_coeff_estimate",
    "limit_value",
    "phi_eval",
    "polynomial",
    "rootsystem",
    "series",
    "__version__",
]
