"""Exact analysis of modular data over cyclotomic fields: Galois
orbits of simple objects, fusion subcategory lattices and centralizers,
pointed-category orbit counting, and SL(2, Z/NZ) t-spectra tables."""

from .cyclotomic import (
    ConductorMismatch,
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
    root_of_unity_order,
    sign_of_real,
)
from .galois_action import (
    GaloisOrbitPartition,
    dims_ratio_check,
    galois_conjugate_data,
    galois_permutation,
    orbit_partition,
    square_twist_consistency,
    verlinde_field_degree,
)
from .modular_data import (
    FusionTable,
    InvalidModularData,
    ModularData,
    deligne_product,
    load_modular_data,
    save_modular_data,
)
from .pointed import (
    FiniteAbelianGroup,
    QuadraticFormSpec,
    build_pointed,
    canonical_form,
    cyclic_subgroup_count,
)
from .families import fixture, fixture_names, fibonacci, ising, sl2_level_adjoint
from .subcategories import (
    FusionSubcategory,
    all_subcategories,
    adjoint_part,
    centralizer,
    generated_subcategory,
    pointed_part,
    two_orbit_diagnosis,
)
from .tspectra import (
    RootSet,
    make_gamma,
    make_gamma_res,
    make_phi,
    square_galois_orbit_count,
    verify_rows,
)

__version__ = "0.1.0"

__all__ = [
    "ConductorMismatch",
    "CycNum",
    "FiniteAbelianGroup",
    "FusionSubcategory",
    "FusionTable",
    "GaloisOrbitPartition",
    "InvalidModularData",
    "ModularData",
    "QuadraticFormSpec",
    "RootSet",
    "adjoint_part",
    "all_subcategories",
    "build_pointed",
    "canonical_form",
    "centralizer",
    "cyclic_subgroup_count",
    "cyclotomic_polynomial",
    "deligne_product",
    "dims_ratio_check",
    "euler_phi",
    "fibonacci",
    "fixture",
    "fixture_names",
    "galois_conjugate_data",
    "galois_permutation",
    "generated_subcategory",
    "ising",
    "load_modular_data",
    "make_gamma",
    "make_gamma_res",
    "make_phi",
    "orbit_partition",
    "pointed_part",
    "root_of_unity",
    "root_of_unity_order",
    "save_modular_data",
    "sign_of_real",
    "sl2_level_adjoint",
    "square_galois_orbit_count",
    "square_twist_consistency",
    "two_orbit_diagnosis",
    "verify_rows",
    "verlinde_field_degree",
]
