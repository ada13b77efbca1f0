"""Verification and simulation toolkit for log-corrected radial aggregation blowup.

Subpackages:
    eigenbasis   exact rational eigenpolynomial algebra and spectral constants
    profile      blowup profile, refined ansatz and cutoffs
    sim          radial PDE evolution in self-similar and physical frames
    diagnostics  mode projections, bootstrap norms and spectra
    shooting     unstable-mode parameter search
    cli          command-line entry point
"""

__version__ = "0.1.0"

from .eigenbasis import (  # noqa: F401
    compute_B,
    compute_c,
    kummer_eigenpoly,
    partial_mass_eigen,
)
from .exactpoly import ExactPoly  # noqa: F401
