"""Diffusion adaptation over networks.

Library, simulator, and CLI for distributed estimation over graphs: ATC/CTA
diffusion LMS, diffusion RLS, diffusion Kalman filtering, consensus
baselines, and the matching closed-form mean-square performance theory.
"""

# ``cli`` is not imported here, so that ``python -m diffnet.cli`` runs it once
from . import analysis, combiners, datamodel, diffusion, graph, kalman, rls, stochmat
from .errors import (
    DiffnetError,
    InstabilityError,
    InternalCheckError,
    NumericalError,
    PreconditionError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cli",
    "combiners",
    "datamodel",
    "diffusion",
    "graph",
    "kalman",
    "rls",
    "stochmat",
    "DiffnetError",
    "ValidationError",
    "PreconditionError",
    "NumericalError",
    "InstabilityError",
    "InternalCheckError",
    "__version__",
]
