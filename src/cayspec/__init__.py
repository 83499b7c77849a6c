"""Exact spectra, splitting fields and algebraic degrees of Cayley colour graphs."""

from cayspec.colour import (
    ColourFunction,
    ConnectionMultiset,
    DistanceLayering,
    class_weight_vector,
    colour_from_multiset,
    colour_from_values,
    distance_layering,
    power_pullback,
)
from cayspec.exactnum import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    galois_apply,
    galois_orbit,
    minimal_polynomial,
    stabilizer,
)
from cayspec.galois import (
    DistanceReport,
    FieldReport,
    IntegralityVerdict,
    algebraic_degree,
    distance_report,
    fixing_subgroup,
    integrality_verdict,
    is_algebraically_integral_over,
    multiset_fixing_subgroup,
    splitting_field,
    transfer_check,
    verify_fixing_subgroup_equals_stabilizers,
)
from cayspec.groups import (
    ConjugacyClassPartition,
    Group,
    class_bundles,
    conjugacy_classes,
    is_normal_subset,
    make_cyclic,
    make_dihedral,
    make_from_generators,
    make_product,
    power,
    power_map,
)
from cayspec.search import (
    SearchResult,
    SearchSpec,
    SetRecord,
    classify,
    enumerate_normal_sets,
    verify_degree_equals_distance_degree,
)
from cayspec.spectra import (
    CharacterTable,
    Spectrum,
    adjacency_matrix,
    char_table_abelian,
    char_table_dihedral,
    character_table,
    compare_spectra,
    spectrum_exact,
    spectrum_numeric,
)
from cayspec.units import UnitSubgroup, close_generators, unit_group, unit_subgroup

__version__ = "0.1.0"
