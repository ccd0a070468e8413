"""Constructive exponential Riesz spectra for finite unions of intervals.

Library layout:

- intervals:  exact endpoint arithmetic, interval sets, fiber-count folding
- arith:      primes, the ordering-prime search, equidistribution probes
- minors:     character-matrix minors and their conditioning
- spectra:    coset-based frequency sets and the interval generators
- assembly:   level combination and the two main constructions
- verify:     Gram-bound, duality, density, and folding certification
- cli:        command-line front door with JSON reports
"""

from .arith import (
    PrimeSearchResult,
    find_ordering_prime,
    ordering_primes,
    primes_up_to,
    rational_relation_probe,
    weyl_discrepancy,
)
from .assembly import (
    ComplementResult,
    HierarchyPlan,
    SubsetPlan,
    combine_level_spectra,
    combine_level_spectra_permuted,
    complement_integer_spectrum,
    construct_hierarchy,
    construct_hierarchy_with_prime,
    subset_spectrum,
)
from .errors import (
    AmbiguousEndpoint,
    ConstructionError,
    DegenerateCoverage,
    EmptySubset,
    EmptyWindow,
    IncompatibleShift,
    IndependenceSuspect,
    InvalidInput,
    InvalidSubset,
    LevelNotInNZ,
    NotFound,
    NotPermutation,
    NotPrime,
    OverlappingTerms,
    ResourceLimit,
    RieszSpectraError,
    TruncationWarning,
    UnsupportedASet,
)
from .intervals import (
    Endpoint,
    IntervalSet,
    a_exact,
    a_geq,
    a_geq_all,
    b_exact,
    fold_counts,
    fold_pattern,
    frac,
    grid_separation_ok,
)
from .minors import (
    ChebotarevReport,
    MinorSpec,
    c_prime_bound,
    chebotarev_check,
    min_singular,
    minor_matrix,
)
from .precision import DEFAULT_PRECISION_BITS
from .spectra import (
    AvdoninFilter,
    CosetTerm,
    Spectrum,
    avdonin_interval_spectrum,
    empty_spectrum,
    integer_lattice,
    rational_grid_spectrum,
)
from .verify import (
    DensityReport,
    FoldingReport,
    GramReport,
    density_check,
    duality_finite_test,
    folding_probe,
    gram_matrix,
    riesz_bounds_estimate,
)

__version__ = "0.1.0"
