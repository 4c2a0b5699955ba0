"""Independent reference computations and output checkers.

Nothing here imports graphreal: every expected value is computed from the
generated inputs by code of its own (or taken from OEIS), and every checker
parses the CLI's text output itself.  A checker raises ``CheckError`` with a
reason when an output is wrong and returns normally otherwise.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache


class CheckError(Exception):
    """An output of the program disagrees with the independent reference."""


# --- reference values ------------------------------------------------------

# OEIS A002829: labeled 3-regular graphs on 2m nodes, keyed by node count.
A002829 = {
    4: 1,
    6: 70,
    8: 19355,
    10: 11180820,
    12: 11555272575,
    14: 19506631814670,
    16: 50262958713792825,
    18: 187747837889699887800,
}

# OEIS A005815: labeled 4-regular graphs on n nodes, keyed by node count.
A005815 = {
    5: 1,
    6: 15,
    7: 465,
    8: 19355,
    9: 1024380,
    10: 66462606,
    11: 5188453830,
    12: 480413921130,
    13: 52113376310985,
    14: 6551246596501035,
}

OEIS = {3: A002829, 4: A005815}


def count_realizations(degrees) -> int:
    """Number of labeled simple graphs with this degree sequence.

    A DP over degree-class compositions: the vertex of largest residual
    degree r picks k_v of its r neighbours from the c_v other vertices of
    residual v, in prod C(c_v, k_v) ways, and the chosen vertices drop to
    residual v - 1.  The memo key is the residual multiset as class counts.
    """
    degrees = [int(x) for x in degrees]
    if any(x < 0 for x in degrees) or sum(degrees) % 2:
        return 0
    top = max(degrees, default=0)
    classes = [0] * (top + 1)
    for x in degrees:
        if x:
            classes[x] += 1
    return _count_classes(tuple(classes))


@lru_cache(maxsize=None)
def _count_classes(classes: tuple[int, ...]) -> int:
    top = len(classes) - 1
    while top > 0 and classes[top] == 0:
        top -= 1
    if top == 0:
        return 1
    rest = list(classes[: top + 1])
    rest[top] -= 1  # the vertex being connected up
    if sum(rest[1:]) < top:
        return 0
    total = 0
    # Choose k[v] neighbours of residual v for v = top..1, sum k = top.
    picks = [0] * (top + 1)

    def choose(v: int, need: int, ways: int) -> None:
        nonlocal total
        if need == 0:
            child = list(rest)
            for u in range(1, top + 1):
                child[u] -= picks[u]
                child[u - 1] += picks[u]
            child[0] = 0
            total += ways * _count_classes(_trim(child))
            return
        if v == 0:
            return
        for k in range(min(need, rest[v]), -1, -1):
            picks[v] = k
            choose(v - 1, need - k, ways * math.comb(rest[v], k))
        picks[v] = 0

    choose(top, top, 1)
    return total


def _trim(classes: list[int]) -> tuple[int, ...]:
    while len(classes) > 1 and classes[-1] == 0:
        classes.pop()
    return tuple(classes)


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (the number of perfect matchings on k+1 nodes)."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


# --- parsers ----------------------------------------------------------------

_HEADER = re.compile(r"graph n=(\d+) m=(\d+)$")


def parse_text_graphs(text: str, trailer: str | None = None):
    """Parse blank-line separated ``graph n= m=`` blocks.

    With ``trailer`` (a prefix such as ``"p="``), each block ends with one
    line starting with it, returned alongside the graph.
    Returns a list of (n, edges, trailer_line) with edges a tuple of pairs
    in output order.
    """
    out = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines):
        m = _HEADER.match(lines[i])
        if not m:
            raise CheckError(f"expected a graph header, got {lines[i]!r}")
        n, size = int(m.group(1)), int(m.group(2))
        edges = []
        for line in lines[i + 1 : i + 1 + size]:
            parts = line.split(" ")
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise CheckError(f"bad edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
        if len(edges) != size:
            raise CheckError("graph block ends early")
        i += 1 + size
        extra = None
        if trailer is not None:
            if i >= len(lines) or not lines[i].startswith(trailer):
                raise CheckError(f"missing {trailer!r} line after a graph")
            extra = lines[i]
            i += 1
        if i >= len(lines) or lines[i] != "":
            raise CheckError("graph block not followed by a blank line")
        i += 1
        out.append((n, tuple(edges), extra))
    return out


def parse_jsonl_graphs(text: str):
    out = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
            n = obj["n"]
            edges = tuple((int(u), int(v)) for u, v in obj["edges"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"bad jsonlines record {line[:80]!r}") from exc
        out.append((n, edges, None))
    return out


# --- graph properties -------------------------------------------------------


def check_realizes(n: int, edges, degrees) -> frozenset:
    """Edges form a simple graph on 1..n whose degrees, by label, are
    ``degrees``.  Returns the edge set."""
    if n != len(degrees):
        raise CheckError(f"graph has n={n}, input has {len(degrees)} nodes")
    seen = set()
    got = [0] * n
    for u, v in edges:
        if not (1 <= u < v <= n):
            raise CheckError(f"edge ({u},{v}) is not u < v within 1..{n}")
        if (u, v) in seen:
            raise CheckError(f"edge ({u},{v}) repeated")
        seen.add((u, v))
        got[u - 1] += 1
        got[v - 1] += 1
    if got != list(degrees):
        raise CheckError("graph degrees differ from the input sequence")
    return frozenset(seen)


def check_graph_stream(text: str, fmt: str, degrees, expected: int) -> list:
    """Every graph realizes ``degrees``, no two are equal, and there are
    exactly ``expected`` of them.  Returns the edge sets in output order."""
    graphs = parse_jsonl_graphs(text) if fmt == "jsonlines" else parse_text_graphs(text)
    sets = [check_realizes(n, edges, degrees) for n, edges, _ in graphs]
    if len(set(sets)) != len(sets):
        raise CheckError("a graph is emitted twice")
    if len(sets) != expected:
        raise CheckError(f"{len(sets)} graphs emitted, expected {expected}")
    return sets


def check_counts(text: str, expected: list[int]) -> None:
    lines = text.splitlines()
    if len(lines) != len(expected):
        raise CheckError(f"{len(lines)} count lines for {len(expected)} inputs")
    for line, want in zip(lines, expected):
        m = re.match(r"count=(\d+) memo_entries=\d+$", line)
        if not m:
            raise CheckError(f"bad count line {line!r}")
        if int(m.group(1)) != want:
            raise CheckError(f"count {m.group(1)} != independent count {want}")


def check_weighted_samples(text: str, degrees, samples: int) -> None:
    blocks = parse_text_graphs(text, trailer="p=")
    if len(blocks) != samples:
        raise CheckError(f"{len(blocks)} samples, expected {samples}")
    for n, edges, p_line in blocks:
        check_realizes(n, edges, degrees)
        m = re.match(r"p=1/(\d+)$", p_line)
        if not m or int(m.group(1)) < 1:
            raise CheckError(f"probability {p_line!r} is not 1/k with k >= 1")


def check_mr_samples(text: str, degrees, samples: int) -> None:
    blocks = parse_text_graphs(text, trailer="restarts=")
    if len(blocks) != samples:
        raise CheckError(f"{len(blocks)} samples, expected {samples}")
    for n, edges, stats in blocks:
        check_realizes(n, edges, degrees)
        if not re.match(r"restarts=\d+ cg_rejects=\d+$", stats):
            raise CheckError(f"bad restart line {stats!r}")


def check_estimates(text: str, exact: list[int]) -> None:
    """Each estimate lies within 4 stderr of the exact count; a zero stderr
    demands the exact count to float precision."""
    lines = text.splitlines()
    if len(lines) != len(exact):
        raise CheckError(f"{len(lines)} estimate lines for {len(exact)} inputs")
    for line, want in zip(lines, exact):
        m = re.match(r"estimate=(\S+) stderr=(\S+) exact=unknown$", line)
        if not m:
            raise CheckError(f"bad estimate line {line[:80]!r}")
        est, err = float(m.group(1)), float(m.group(2))
        if not math.isfinite(est) or not math.isfinite(err) or err < 0:
            raise CheckError(f"non-finite estimate in {line[:80]!r}")
        slack = 4 * err if err > 0 else 1e-12 * want
        if abs(est - want) > slack:
            raise CheckError(f"estimate {est} not within 4 stderr of {want}")


def check_verdicts(text: str, expected: list[bool]) -> None:
    want = ["graphical" if ok else "not-graphical" for ok in expected]
    got = text.splitlines()
    if got != want:
        raise CheckError(f"verdicts {got[:4]} differ from {want[:4]}")


def check_constructs(text: str, sequences: list) -> None:
    graphs = parse_text_graphs(text)
    if len(graphs) != len(sequences):
        raise CheckError(f"{len(graphs)} graphs for {len(sequences)} inputs")
    for (n, edges, _), degrees in zip(graphs, sequences):
        check_realizes(n, edges, degrees)
