"""Exact Hom-module construction and decomposition over monomial quotient rings."""

from .monomials import (
    CapExceeded,
    Monomial,
    MonomialIdeal,
    degree,
    divides,
    format_ideal,
    format_monomial,
    grlex_key,
    mono_lcm,
    mono_mul,
    mono_quot,
    parse_ideal,
    parse_monomial,
)
from .rings import (
    LocalRing,
    ParameterSystem,
    depth_is_zero,
    find_non_cm_power,
    gamma_m,
    gamma_module_generators,
    is_cohen_macaulay,
    stabilization_index,
    validate_sop,
)
from .hom import HomSubquotient, build_hom, hom_from_ideals
from .decomp import DecompositionReport, decide
from .theorems import (
    GridClassification,
    PointClass,
    TheoremReport,
    VerificationError,
    check_radical_transfer,
    classify_grid,
    classify_point,
    search_decomposable_powers,
    search_nonfree_powers,
    verify_colon_identity,
    verify_non_cm_power,
    verify_rees,
    verify_thm_dim1,
    verify_thm_nonfree,
)

__version__ = "0.1.0"
