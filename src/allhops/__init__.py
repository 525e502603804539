"""Hop-constrained shortest distances in weighted directed graphs.

Exact baselines, sampling-hierarchy solvers, preprocess/query distance
oracles, and self-verifying reduction gadgets, plus the min-plus kernels
they share.
"""

from .baselines import AllHopsRow, AllHopsTable, allhops_from_powers, apah_brute, bellman_ford_allhops
from .graph import (
    GenerationError,
    Graph,
    NegativeCycleError,
    ParseError,
    detect_negative_cycle,
    gen_no_neg_cycle_graph,
    gen_random_graph,
    graph_from_edges,
    parse_graph,
    render_graph,
    reverse,
    weight_matrix,
)
from .matrices import DistMatrix, MatrixSeq, matrix_seq, square_matrix, tropical_identity
from .minplus import StrategyError, matseq_convolution, minplus_product
from .oracles import (
    LevelOracle,
    MemoryBudgetError,
    build_oracle_bf,
    build_oracle_bounded,
    build_oracle_mn,
    build_oracle_mpp,
    build_oracle_powers,
    dump_oracle,
    load_oracle,
    save_oracle,
)
from .reductions import (
    GadgetGraph,
    NO_PATH,
    atmost_to_exact_selfloops,
    build_tree_gadget,
    build_triangle_gadget,
    decide_triangle,
    decode_convolution,
    decode_mpp,
    exact_to_atmost_shift,
    indexed_combination_bruteforce,
    minplus_product_bruteforce,
    reduce_convolution_to_hops,
    reduce_mpp_to_exact_hops,
    triangle_bruteforce,
)
from .sampling import SampleHierarchy, SamplePlan, growing_hierarchy, shrinking_hierarchy
from .solvers import (
    all_pairs_allhops,
    single_pair_allhops,
    single_source_allhops,
)
from .values import INF

__all__ = [name for name in dir() if not name.startswith("_")]
