"""Exact combinatorics of graded extensions between Verma modules.

Builds finite Weyl groups, computes Kazhdan-Lusztig and R-polynomials (also
parabolic and singular), bounds and classifies the bidegrees where graded
extensions between Verma modules can live, and verifies all of it against
frozen reference data.
"""

from .coxeter import (
    CapExceededError,
    CoxeterSystem,
    ParabolicSubset,
    UnsupportedTypeError,
    build_system,
)
from .extbounds import (
    AllExpectedReport,
    Certificate,
    ExtGrid,
    TriangleRegion,
    all_expected_predicate,
    expected_bipoly,
    expected_dims,
    hom_grid,
    kl_bound_poly,
    r_determined,
    refined_bound,
    triangle_region,
)
from .hecke import HeckeElement, KLTable, kl_element, mult_by_gen
from .intervals import (
    EquivPartition,
    class_r_constancy,
    equiv_classes,
    poset_isomorphic,
)
from .poly import BiPoly, LaurentPoly
from .rpoly import ParabolicRTable, RTable, r_oracle_table
from .typea import (
    PenultimateIndex,
    PredictionRecord,
    bigrassmannian_chain,
    bm_set,
    penultimate_element,
    phi_degree,
    predict_ext1,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CapExceededError",
    "Certificate",
    "CoxeterSystem",
    "EquivPartition",
    "ExtGrid",
    "HeckeElement",
    "KLTable",
    "LaurentPoly",
    "ParabolicRTable",
    "ParabolicSubset",
    "PenultimateIndex",
    "PredictionRecord",
    "RTable",
    "TriangleRegion",
    "AllExpectedReport",
    "UnsupportedTypeError",
    "all_expected_predicate",
    "bigrassmannian_chain",
    "bm_set",
    "build_system",
    "class_r_constancy",
    "equiv_classes",
    "expected_bipoly",
    "expected_dims",
    "hom_grid",
    "kl_bound_poly",
    "kl_element",
    "mult_by_gen",
    "penultimate_element",
    "phi_degree",
    "poset_isomorphic",
    "predict_ext1",
    "r_determined",
    "r_oracle_table",
    "refined_bound",
    "triangle_region",
]
