"""Exact finite-dimensional computations in the James Tree space.

Vectors are finitely supported functions on the infinite binary tree; the
norm maximizes the sum of squared segment sums over pairwise disjoint
segment families.  The package computes that norm exactly (dynamic program
plus exhaustive oracle), evaluates interval and norming functionals, and
runs the property experiments behind the accompanying test suite.
"""

from .nodes import (
    ROOT,
    BranchPrefix,
    InsufficientPrefixError,
    Interval,
    NodeId,
    Segment,
    disjoint,
    enumerate_nodes,
    index_of,
    node_at,
    separation_level,
    successor,
)
from .vectors import (
    BACKENDS,
    EXACT,
    FLOAT,
    BackendMismatchError,
    JTVector,
    VectorFormatError,
    basis_vector,
    dumps_vector,
    load_vector,
    loads_vector,
)
from .norm import (
    InstanceTooLargeError,
    NormWitness,
    OverlappingSegmentsError,
    SegmentFamily,
    brute_force_norm,
    candidate_segments,
    family_value_squared,
    first_overlap,
    interval_sums,
    jt_norm,
    norm_lower_upper,
)
from .functionals import (
    InvalidKStarError,
    KStarElement,
    branch_through,
    eval_interval,
    eval_kstar,
    eval_kstar_squared,
    kstar_to_json_dict,
    load_kstar,
    loads_kstar,
    norming_functional,
    separation_witness,
)
from .lab import (
    EXPERIMENTS,
    BlockSequence,
    ExperimentReport,
    antichain_blocks,
    antichain_nodes,
    basic_sequence_constant,
    chain_blocks,
    l1_lower_constants,
    random_block_sequence,
    random_kstar,
    random_node,
    random_vector,
    run_check_suite,
    standard_basis_blocks,
    substream,
    w_cauchy_probe,
)

__version__ = "0.1.0"
