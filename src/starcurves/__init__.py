"""Exact certification of the dimension of loci of plane curves through
star configurations, with an experimental extension to P^n; the plane is
the n = 2 case of one star-configuration core."""

from .fields import DEFAULT_PRIME, PrimeField, QQ, RationalField
from .formulas import closed_form_dimension, upper_bounds
from .matrices import rank
from .polynomials import HomogeneousPoly, monomials_of_degree
from .pnstar import conjecture_row
from .starconfig import (GenericityError, LinearForm, StarConfiguration,
                         build_star, hilbert_function, random_star)
from .tangent import (DimensionCertificate, TrialStars, build_q_forms, certify,
                      ideal_component_dim, evaluation_submatrix_rank,
                      tangent_dim_direct, tangent_dim_points,
                      structured_multipliers)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "QQ", "RationalField",
    "closed_form_dimension", "upper_bounds",
    "rank",
    "HomogeneousPoly", "monomials_of_degree",
    "conjecture_row",
    "GenericityError", "LinearForm", "StarConfiguration", "build_star",
    "hilbert_function", "random_star",
    "DimensionCertificate", "TrialStars", "build_q_forms", "certify",
    "ideal_component_dim", "evaluation_submatrix_rank", "tangent_dim_direct",
    "tangent_dim_points", "structured_multipliers",
]
