"""
entrodim: an exact workbench for linear entropy inequalities.

Parse inequalities over joint entropies, decide Shannon-type membership
with verifiable certificates, realize entropy vectors from finite-group
cosets, and convert violating group points into Cantor-type digit sets
whose projection dimensions defeat the corresponding dimension
inequality.  All load-bearing comparisons are exact (rational arithmetic
and big-integer product tests); floats appear only as renderings.
"""

from .core import (
    MAX_VARIABLES,
    EntropyVector,
    ExactLogLin,
    LinearInequality,
    LogLinOverflowError,
    PointSet,
    SizeLimitError,
    eval_slack,
    log2_compare,
    loglin_sign,
    mask_label,
    mask_of,
    mask_positions,
    subsets,
)
from .dsl import (
    InequalityParseError,
    ZeroInequalityError,
    format_inequality,
    parse_inequality,
    parse_with_names,
)
from .distributions import (
    JointDistribution,
    SupportSet,
    exact_entropy_vector,
)
from .shannon import (
    ElementalSet,
    FarkasWitness,
    ShannonCertificate,
    VerificationError,
    elemental_inequalities,
    is_shannon_type,
    verify_certificate,
    verify_farkas,
    zhang_yeung,
)
from .groups import (
    FiniteGroup,
    GroupTableError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    Subgroup,
    Violation,
    all_subgroups,
    builtin_catalog,
    coset_entropy_point,
    coset_index_map,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    group_from_table,
    search_violation,
    subgroup_from_elements,
    subgroup_from_generators,
    symmetric,
    witness_set,
)
from .cantor import (
    CantorWitness,
    DimValue,
    DimensionCounterexample,
    Level,
    NoEpsilon,
    NonUniform,
    NotViolated,
    build_counterexample,
    dim_value,
    lemma_fiber_bound,
    project,
    uniform_fiber,
    verify_counterexample,
)
from .splitting import (
    ExhaustiveBoundExceeded,
    FiniteBody,
    SplitResult,
    SplitSpec,
    UnsplitReport,
    check_unsplit_inequality,
    cube_bar_instance,
    find_split_exhaustive,
    find_split_greedy,
    loomis_whitney_slack,
    projection_count,
    verify_split,
)

__version__ = "0.1.0"
