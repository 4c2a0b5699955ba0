"""Shared generators for the exhaustive test families."""

import contextlib
import inspect
import itertools
import sys

from graphreal.graphicality import erdos_gallai_test

HH_GAP_SEQUENCE = (3, 3, 2, 2, 2, 2, 2, 2)
HH_GAP_COUNT = 4265  # pinned from oracle_enumerate; acceptance re-derives it
# Medium sequences in the shape of the benchmark's estimate inputs: three 2s,
# six 3s and four 4s, then two 2s, eight 3s and four 4s, labels unsorted.
ESTIMATE_SHAPED = (
    (3, 2, 4, 3, 3, 2, 4, 3, 4, 2, 3, 4, 3),
    (3, 4, 3, 2, 3, 3, 4, 3, 4, 3, 2, 3, 4, 3),
)


def nonincreasing_sequences(n, max_deg):
    """All nonincreasing positive sequences of length n with entries <= max_deg."""
    return itertools.combinations_with_replacement(range(max_deg, 0, -1), n)


def exhaustive_family(max_n=7, max_deg=6):
    for n in range(1, max_n + 1):
        yield from nonincreasing_sequences(n, max_deg)


def graphical_family(max_n=6):
    """All graphical positive nonincreasing sequences with n <= max_n."""
    out = []
    for n in range(1, max_n + 1):
        for seq in nonincreasing_sequences(n, min(n - 1, 6) or 1):
            if erdos_gallai_test(seq).graphical:
                out.append(seq)
    return out


def canonical_set(graphs):
    return {g.canonical_edges() for g in graphs}


@contextlib.contextmanager
def recursion_headroom(frames=100):
    """Lower the recursion limit to the current stack depth plus ``frames``."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the interpreter's limit on int/str conversion, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
