"""Exact certification of the dimension of loci of plane curves through
star configurations, with an experimental extension to P^n; the plane is
the n = 2 case of one star-configuration core."""

from .fields import DEFAULT_PRIME, PrimeField, QQ, RationalField
from .formulas import (TheoremValue, closed_form_dimension, min_upper_bound,
                       pn_upper_bound, upper_bounds)
from .matrices import ExactMatrix
from .polynomials import (HomogeneousPoly, monomials_of_degree, parse_poly,
                          perturbation_coefficient)
from .pnstar import conjecture_row
from .starconfig import (GenericityError, LinearForm, ProjectivePoint,
                         StarConfiguration, build_star, hilbert_function,
                         intersection_point, random_general_forms,
                         random_star)
from .tangent import (DimensionCertificate, build_q_forms, certify,
                      ideal_component_dim, lower_bound_dim_S,
                      evaluation_submatrix_rank, tangent_dim_direct,
                      tangent_dim_points, tangent_values,
                      structured_multipliers)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME", "PrimeField", "QQ", "RationalField",
    "TheoremValue", "closed_form_dimension", "min_upper_bound",
    "pn_upper_bound", "upper_bounds",
    "ExactMatrix",
    "HomogeneousPoly", "monomials_of_degree", "parse_poly",
    "perturbation_coefficient",
    "conjecture_row",
    "GenericityError", "LinearForm", "ProjectivePoint", "StarConfiguration",
    "build_star", "hilbert_function", "intersection_point",
    "random_general_forms", "random_star",
    "DimensionCertificate", "build_q_forms", "certify",
    "ideal_component_dim", "lower_bound_dim_S", "evaluation_submatrix_rank",
    "tangent_dim_direct", "tangent_dim_points", "tangent_values",
    "structured_multipliers",
]
