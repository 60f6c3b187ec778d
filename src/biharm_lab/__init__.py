"""biharm-lab: solvers and pointwise-inequality verifiers for the singular
biharmonic problem lap^2 u = -u^(-q), the mixed-sign coupled radial system,
and the parabolic reaction-diffusion analogue.

Every shot runs through one radial DP5 kernel written in Python
(``biharm_lab._backend``); ``biharm_lab.BACKEND`` names it in run records.
"""
__version__ = "0.1.0"

from ._backend import BACKEND
from .biharmonic import SolutionProfile, exact_solution, rescale, residual, shoot
from .cutoffs import CutoffFamily, build_cutoff
from .errors import (BiharmLabError, DomainError, IntegratorError,
                     PreconditionError, SizeError)
from .grids import Field, RadialGrid, radial_gradient_sq, radial_laplacian
from .params import (Coefficients, ParamSet, beta_max, check_admissible,
                     coefficients, gamma_interval, growth_exponent, q_min, tau,
                     weak_coefficient)
from .reports import VerificationReport

__all__ = [
    "BACKEND", "__version__",
    "BiharmLabError", "DomainError", "IntegratorError", "PreconditionError",
    "SizeError",
    "RadialGrid", "Field", "radial_laplacian", "radial_gradient_sq",
    "CutoffFamily", "build_cutoff",
    "ParamSet", "Coefficients", "coefficients", "q_min", "beta_max",
    "weak_coefficient", "check_admissible", "gamma_interval",
    "growth_exponent", "tau",
    "SolutionProfile", "exact_solution", "shoot", "rescale", "residual",
    "VerificationReport",
]
