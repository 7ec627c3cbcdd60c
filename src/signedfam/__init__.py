"""Extremal families of {0,+1,-1} vectors under forbidden scalar products.

The package enumerates sign vectors with fixed plus/minus support sizes,
solves for maximum families avoiding a forbidden set of pairwise scalar
products (exact branch-and-bound with an independent brute-force oracle),
builds the standard extremal constructions, and verifies the closed-form
counts and inequalities attached to them.
"""

from .vectors import (
    FamilyCheck,
    ForbiddenSpec,
    Profile,
    SignedVector,
    SuffixMarkers,
    VectorFamily,
    enumerate_all,
    min_suffix_sum,
    scalar_product,
    suffix_markers,
    verify_family,
)
from .shifting import compress, is_shifted, precedes, precedes_oracle, shift_ij
from .witness import (
    ClaimCheck,
    ClaimReport,
    WitnessTrace,
    check_conditions,
    construct_witness,
    verify_trace_claims,
)
from .formulas import (
    DegenerateInstanceError,
    EkrValue,
    GBounds,
    IncrementReport,
    IncrementValue,
    RatioAlpha,
    SplitValue,
    XYSizes,
    binom,
    family_size,
    g_bounds,
    g_closed_l1,
    g_ekr_value,
    increment_value,
    n0_threshold,
    p_increment_report,
    p_split,
    ratio_and_alpha,
    xy_family_sizes,
)
from .constructions import (
    ClassificationLabel,
    classify_vector,
    ekr_family,
    family_xy_tm,
    inductive_extend,
    partition_by_last,
    split_family,
)
from .solver import (
    ConflictGraph,
    SolveResult,
    VertexCapExceeded,
    build_conflict_graph,
    greedy_seed_g,
    mis_bruteforce,
    mis_exact,
    solve_extremal,
)
from .bipartite import (
    BipartiteGraph,
    IrregularityError,
    build_g_prime,
    build_g_tm,
    check_biregular,
    lemma3_check,
    random_biregular,
    random_independent_set,
)
from .cache import ResultCache, cache_key
from .suites import CaseResult, VerificationReport, run_suite, suite_names

__version__ = "0.1.0"

# every name the imports above bind from the package's modules, and no module
__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + ".")
)
