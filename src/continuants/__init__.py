"""Exact continuant workbench.

Continuants of words of positive integers, the maximizing arrangement of
an Abelian class, exhaustive value censuses with multiplicity spectra, and
the counting bounds and admissibility thresholds that force arbitrarily
large value multiplicities on suitable alphabets.
"""

from .bounds import (
    BoundsReport,
    CertifiedReal,
    PrecisionExhaustedError,
    bounds_report,
    class_count_lower_bound,
    density_power,
    density_threshold_s,
    growth_factor,
    is_admissible,
    simplified_bound_threshold,
    smallest_admissible_s,
    stirling_enclosure,
    value_count_upper_bound,
)
from .census import CensusReport, ValueWitnesses, run_census
from .core import (
    Alphabet,
    CanonicalWord,
    ClassTooLargeError,
    ParikhVector,
    ValueBudgetExceededError,
    Word,
    abelian_class_of,
    canonicalize,
    continuant,
    continuant_matrix,
    doubling_bound_check,
    exact_class_count,
    format_word,
    generalized_fibonacci,
    palindromic_count,
    parse_word,
    split_identity,
)
from .explorer import (
    ExactSearchResult,
    WitnessRecord,
    exact_multiplicity_scan,
    find_witness,
    growing_multiplicity_scan,
)
from .extremal import max_arrangement, pareto_max, verify_max_arrangement
from .reference import (
    ExtremalResult,
    brute_force_extrema,
    enumerate_classes,
    multiplicity_of,
    multiset_permutations,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundsReport",
    "CanonicalWord",
    "CensusReport",
    "CertifiedReal",
    "ClassTooLargeError",
    "ExactSearchResult",
    "ExtremalResult",
    "ParikhVector",
    "PrecisionExhaustedError",
    "ValueBudgetExceededError",
    "ValueWitnesses",
    "Word",
    "WitnessRecord",
    "abelian_class_of",
    "bounds_report",
    "brute_force_extrema",
    "canonicalize",
    "class_count_lower_bound",
    "continuant",
    "continuant_matrix",
    "density_power",
    "density_threshold_s",
    "doubling_bound_check",
    "enumerate_classes",
    "exact_class_count",
    "exact_multiplicity_scan",
    "find_witness",
    "format_word",
    "generalized_fibonacci",
    "growing_multiplicity_scan",
    "growth_factor",
    "is_admissible",
    "max_arrangement",
    "multiplicity_of",
    "multiset_permutations",
    "palindromic_count",
    "pareto_max",
    "parse_word",
    "run_census",
    "simplified_bound_threshold",
    "smallest_admissible_s",
    "split_identity",
    "stirling_enclosure",
    "value_count_upper_bound",
    "verify_max_arrangement",
]
