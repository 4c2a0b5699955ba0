"""Graphicality testing, constrained realization, enumeration and sampling
of simple graphs with prescribed degree sequences."""

from .core import (
    AdjacencySet,
    DegreeSequence,
    DegreeTooLarge,
    ForbiddenSet,
    GraphRealError,
    Incomparable,
    InvalidArgument,
    InvalidDegree,
    InvalidSet,
    LabeledGraph,
    NotGraphical,
    OracleTooLarge,
    ParseError,
    RestartBudgetExceeded,
    TooManyForbidden,
    format_graph,
    format_sequence,
    graph_degree_sequence,
    parse_graphs,
    parse_sequence,
    parse_sequences,
    validate_input_sequence,
)
from .graphicality import (
    EgReport,
    NodeSelectionPolicy,
    erdos_gallai_test,
    havel_hakimi_construct,
    havel_hakimi_reduce,
)
from .constrained import (
    ReducedSequence,
    cg_test,
    colex_less,
    leftmost_restricted,
    reduce_by_set,
    set_leq,
)
from .enumeration import (
    CountResult,
    all_adjacency_sets,
    count_realizations,
    enumerate_all,
    enumerate_all_parallel,
    rightmost_adjacency_set,
)
from .sampling import (
    CountEstimate,
    MrRunStats,
    RealizationSample,
    SplitMix64,
    enumerate_with_probabilities,
    estimate_count,
    molloy_reed_sample,
    sample_weighted,
)
from .oracle import OracleQuery, oracle_enumerate, oracle_exists

__version__ = "0.1.0"
