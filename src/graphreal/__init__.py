"""Graphicality testing, constrained realization, enumeration and sampling
of simple graphs with prescribed degree sequences.

The public names below are loaded from their submodule on first use, so
``import graphreal`` and the command line load only what they run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AdjacencySet", "DegreeSequence", "DegreeTooLarge", "ForbiddenSet",
        "GraphRealError", "Incomparable", "InvalidArgument", "InvalidDegree",
        "InvalidSet", "LabeledGraph", "NotGraphical", "OracleTooLarge", "ParseError",
        "RestartBudgetExceeded", "TooManyForbidden", "format_graph", "format_sequence",
        "graph_degree_sequence", "parse_graphs", "parse_sequence", "parse_sequences",
        "validate_input_sequence",
    ),
    "graphicality": (
        "EgReport", "NodeSelectionPolicy", "erdos_gallai_test", "havel_hakimi_construct",
        "havel_hakimi_reduce",
    ),
    "constrained": (
        "ReducedSequence", "cg_test", "colex_less", "leftmost_restricted",
        "reduce_by_set", "set_leq",
    ),
    "enumeration": (
        "CountResult", "all_adjacency_sets", "count_realizations", "enumerate_all",
        "enumerate_all_parallel", "rightmost_adjacency_set",
    ),
    "sampling": (
        "CountEstimate", "MrRunStats", "RealizationSample", "SplitMix64",
        "enumerate_with_probabilities", "estimate_count", "molloy_reed_sample",
        "sample_weighted",
    ),
    "oracle": ("OracleQuery", "oracle_enumerate", "oracle_exists"),
}
# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    """Import the submodule of a public name on first use (PEP 562)."""
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value  # later lookups bypass __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
