"""rankforge: linear rank-metric codes over finite extension fields.

Construction and classification of codes in F_{q^m}^n under the rank
metric, exact probability bounds for randomly drawn systematic generator
matrices, and reproducible Monte-Carlo / exhaustive experiments.
"""

from .budget import DEFAULT_BUDGET, enumeration_budget
from .errors import (BudgetExceededError, InvalidParameterError, RankforgeError,
                     ShapeError, SpecMismatchError, VerificationError)
from .experiments import (CensusResult, LemmaReport, TrialBatch, census,
                          figure_data, monte_carlo, verify_lemma_suite)
from .field_arith import (Element, FieldSpec, default_field, enumerate_elements,
                          frobenius, is_in_base, phi_s, random_element, trace,
                          trace_kernel)
from .fq_linalg import (BaseMatrix, ExtMatrix,
                        count_intersecting_subspaces, det, enumerate_rref,
                        expand_to_base, gaussian_binomial, intersection_dim,
                        linearly_independent_over_base, rank, rref)
from .mrd_criteria import (GSetCount, MultilinearPoly, enumerate_G,
                           enumerate_R1K, f_E_degree, frobenius_code,
                           is_gabidulin, is_mrd, is_mrd_fullrank_variant,
                           rank1_criterion, sum_f_E_degrees, symbolic_f_E)
from .prob_bounds import (BoundReport, bound_table, euler_phi, gab_bound,
                          gab_bound_rough, min_extension_degree, mrd_bound,
                          mrd_bound_rough, mrd_defect_coefficient)
from .rank_codes import (Isometry, RankCode, apply_isometry, dual_code,
                         gabidulin, min_rank_distance, moore_matrix,
                         random_isometry, random_systematic_code,
                         rank_distance)

__version__ = "0.1.0"

__all__ = [
    "BaseMatrix", "BoundReport", "BudgetExceededError", "CensusResult",
    "DEFAULT_BUDGET", "Element", "ExtMatrix", "FieldSpec",
    "GSetCount", "Isometry", "InvalidParameterError", "LemmaReport",
    "MultilinearPoly", "RankCode", "RankforgeError", "ShapeError",
    "SpecMismatchError", "TrialBatch", "VerificationError", "apply_isometry",
    "bound_table", "census", "count_intersecting_subspaces", "default_field",
    "det", "dual_code", "enumerate_G", "enumerate_R1K", "enumerate_elements",
    "enumerate_rref", "enumeration_budget", "euler_phi", "expand_to_base",
    "f_E_degree", "figure_data", "frobenius", "frobenius_code", "gab_bound",
    "gab_bound_rough", "gabidulin", "gaussian_binomial", "intersection_dim",
    "is_gabidulin", "is_in_base", "is_mrd", "is_mrd_fullrank_variant",
    "linearly_independent_over_base", "min_extension_degree",
    "min_rank_distance", "monte_carlo", "moore_matrix", "mrd_bound",
    "mrd_bound_rough", "mrd_defect_coefficient", "phi_s", "random_element",
    "random_isometry", "random_systematic_code", "rank", "rank1_criterion",
    "rank_distance", "rref", "sum_f_E_degrees", "symbolic_f_E",
    "trace", "trace_kernel", "verify_lemma_suite",
]
