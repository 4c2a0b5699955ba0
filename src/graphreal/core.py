"""Core domain types, input validation and the text wire formats.

Node labels are 1-based throughout: position k (1-based) of a degree
sequence is the degree of node k, and edges are unordered pairs of labels
in 1..n.  All types here are immutable after construction, so they are
safe to share across threads.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set


class GraphRealError(Exception):
    """Base class for all library errors."""


class ParseError(GraphRealError):
    """Malformed textual input."""


class InvalidDegree(GraphRealError):
    """A degree entry is negative or otherwise malformed."""


class DegreeTooLarge(GraphRealError):
    """Some degree exceeds n - 1, so no simple graph can realize it."""


class NotGraphical(GraphRealError):
    """The sequence admits no simple-graph realization."""


class Incomparable(GraphRealError):
    """Adjacency sets with different focal node or cardinality were compared."""


class InvalidSet(GraphRealError):
    """An adjacency or forbidden set refers to labels outside 1..n or the focal."""


class TooManyForbidden(GraphRealError):
    """The forbidden set leaves fewer allowed neighbours than stubs to place."""


class InvalidArgument(GraphRealError, ValueError):
    """An argument other than a degree or a label is of the wrong type or
    out of range: a policy name, a sample count, a seed, a stream, a
    restart budget or a graph's node count."""


class OracleTooLarge(GraphRealError):
    """Brute-force oracle invoked beyond its size guardrail."""


class RestartBudgetExceeded(GraphRealError):
    """Stub-matching sampler exceeded its connection budget."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class _Record:
    """Base of the immutable value types, whose fields are their ``__slots__``.

    Two records are equal when they are of one class with equal fields; a
    record hashes as the tuple of its fields and shows as
    ``Name(field=value, ...)``.  Fields are set once, by ``__init__``;
    assigning or deleting one later raises AttributeError.  This
    ``__init__`` takes the fields in order, by position or by name; a
    subclass that checks its fields sets them in its own ``__init__`` with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(operator.attrgetter(*cls.__slots__))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                fields = ", ".join(names)
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields


class DegreeSequence(_Record):
    """Nonincreasing degree sequence; entry k (1-based) belongs to node k.

    Input sequences should be built through :func:`validate_input_sequence`,
    which sorts, strips zeros and records the applied permutation: node
    label -> 1-based position in the original (unsorted) input.  Residual
    sequences produced by reductions may legitimately contain zeros.
    """

    __slots__ = ("degrees", "permutation")

    def __init__(self, degrees, permutation=None):
        degs = as_residuals(degrees)
        if degs and degs[-1] < 0:
            raise InvalidDegree("degrees must be nonnegative")
        for a, b in zip(degs, degs[1:]):
            if a < b:
                raise InvalidDegree("degree sequence must be nonincreasing")
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "permutation", permutation)

    @property
    def n(self) -> int:
        return len(self.degrees)

    def total(self) -> int:
        return sum(self.degrees)

    def degree_of(self, label: int) -> int:
        return self.degrees[_label(label, self.n) - 1]

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __getitem__(self, idx):
        return self.degrees[idx]


def _integers(values, error: type[GraphRealError]) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ``error`` if one is not an integer.
    Integral types pass, while floats and strings are refused rather than
    truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(str(exc)) from None


def _label(v, n: int) -> int:
    """``v`` as an int label; InvalidSet unless it is an integer in 1..n."""
    (v,) = _integers((v,), InvalidSet)
    if not 1 <= v <= n:
        raise InvalidSet(f"label {v} outside 1..{n}")
    return v


def as_residuals(d) -> tuple[int, ...]:
    """Coerce a DegreeSequence or plain iterable of integers into a per-label
    tuple; InvalidDegree for an entry that is not an integer, and for a
    mapping or a set, whose iteration order is not a labelling."""
    if isinstance(d, DegreeSequence):
        return d.degrees
    # Tuples and lists skip the ABC check, whose caches cost memory.
    if not isinstance(d, (tuple, list)) and isinstance(d, (Mapping, Set)):
        raise InvalidDegree(f"degrees must be a sequence, not a {type(d).__name__}")
    return _integers(d, InvalidDegree)


def validate_input_sequence(raw: Sequence[int]) -> DegreeSequence:
    """Sort a raw degree list nonincreasingly, strip zeros, record labels.

    The permutation maps each new node label to the 1-based position the
    degree occupied in ``raw`` (stable sort: ties keep input order).

    Raises InvalidDegree for an empty input or a negative entry, and
    DegreeTooLarge when the top degree exceeds n - 1 after zero-stripping.
    """
    if len(raw) == 0:
        raise InvalidDegree("degree sequence must be nonempty")
    entries = as_residuals(raw)
    if any(x < 0 for x in entries):
        raise InvalidDegree(f"negative degree in {entries}")
    order = sorted(range(len(entries)), key=lambda i: -entries[i])
    degrees = tuple(entries[i] for i in order if entries[i] > 0)
    permutation = tuple(i + 1 for i in order if entries[i] > 0)
    if degrees and degrees[0] > len(degrees) - 1:
        raise DegreeTooLarge(
            f"degree {degrees[0]} exceeds n-1 = {len(degrees) - 1}"
        )
    return DegreeSequence(degrees, permutation)


class AdjacencySet(_Record):
    """An increasingly ordered set of distinct neighbours of a focal node.

    During incremental construction the members may be a prefix of the
    focal node's final neighbourhood.
    """

    __slots__ = ("focal", "members")

    def __init__(self, focal, members):
        focal, *members = _integers((focal,), InvalidSet) + _integers(members, InvalidSet)
        if focal < 1:
            raise InvalidSet(f"focal label {focal} out of range")
        for a, b in zip(members, members[1:]):
            if a >= b:
                raise InvalidSet("members must be strictly increasing")
        if any(m < 1 for m in members):
            raise InvalidSet("member labels must be >= 1")
        if focal in members:
            raise InvalidSet("focal node cannot be its own neighbour")
        object.__setattr__(self, "focal", focal)
        object.__setattr__(self, "members", tuple(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _check_labels(n: int, star: ForbiddenSet) -> None:
    """InvalidSet unless the star's focal node and members are all in 1..n."""
    if not 1 <= star.focal <= n:
        raise InvalidSet(f"focal {star.focal} outside 1..{n}")
    if max(star.members, default=0) > n:
        raise InvalidSet(f"forbidden set {sorted(star.members)} outside 1..{n}")


def _check_room(degs, star: ForbiddenSet) -> None:
    """TooManyForbidden unless the star leaves its focal node i at least d_i
    allowed neighbours: |X| <= n - 1 - d_i.  The focal must be in 1..n."""
    room = len(degs) - 1 - degs[star.focal - 1]
    if len(star) > room:
        raise TooManyForbidden(f"|X|={len(star)} exceeds n-1-d_i={room}")


class ForbiddenSet(_Record):
    """The star of connections a focal node must avoid."""

    __slots__ = ("focal", "members")

    def __init__(self, focal, members):
        focal, *members = _integers((focal,), InvalidSet) + _integers(members, InvalidSet)
        if focal in members:
            raise InvalidSet("focal node cannot forbid itself")
        if any(m < 1 for m in members):
            raise InvalidSet("member labels must be >= 1")
        object.__setattr__(self, "focal", focal)
        object.__setattr__(self, "members", frozenset(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _canonical_edges(n: int, edges: Iterable) -> frozenset[tuple[int, int]]:
    out = set()
    try:
        for u, v in edges:
            u, v = _integers((u, v), InvalidSet)
            if u == v:
                raise InvalidSet(f"self-loop at node {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InvalidSet(f"edge ({u},{v}) outside 1..{n}")
            out.add((u, v) if u < v else (v, u))
    except (TypeError, ValueError) as exc:  # not iterable, or an edge not a pair
        raise InvalidSet(f"edges must be pairs of labels: {exc}") from None
    return frozenset(out)


class LabeledGraph(_Record):
    """Simple undirected graph on nodes 1..n, canonical edge-set form.

    Equality is labeled equality: two graphs are equal iff their canonical
    edge sets coincide (not isomorphism).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable = ()):
        (n,) = _integers((n,), InvalidArgument)
        if n < 0:
            raise InvalidArgument(f"node count must be >= 0, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _canonical_edges(n, edges))

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
        """A graph from ``edges`` that are already canonical: pairs u < v in
        1..n, none repeated.  Nothing is checked; for the library's own
        constructions, never for outside input."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", frozenset(edges))
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def canonical_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = _label(u, self.n), _label(v, self.n)
        return ((u, v) if u < v else (v, u)) in self.edges

    def neighbors(self, v: int) -> set[int]:
        v = _label(v, self.n)
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def degrees(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for u, v in self.edges:
            counts[u - 1] += 1
            counts[v - 1] += 1
        return tuple(counts)


def graph_degree_sequence(g: LabeledGraph) -> tuple[tuple[int, ...], DegreeSequence]:
    """Per-label degree counts plus the nonincreasing sorted sequence."""
    if not isinstance(g, LabeledGraph):
        raise InvalidArgument(f"expected a LabeledGraph, got {type(g).__name__}")
    counts = g.degrees()
    return counts, DegreeSequence(tuple(sorted(counts, reverse=True)))


# --- text formats -----------------------------------------------------------
#
# Degree sequences: one sequence per line, whitespace-separated integers.
# Graphs: header "graph n=<n> m=<m>", one "u v" line per edge with u < v,
# graphs separated by a blank line.


def format_sequence(d) -> str:
    return " ".join(str(x) for x in as_residuals(d))


def parse_sequence(line: str) -> list[int]:
    if not isinstance(line, str):
        raise ParseError(f"expected a line of text, got {type(line).__name__}")
    tokens = line.split()
    if not tokens:
        raise ParseError("empty degree-sequence line")
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad degree token in {line!r}") from exc


def parse_sequences(text: str) -> list[list[int]]:
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    return [parse_sequence(line) for line in text.splitlines() if line.strip()]


def format_graph(g: LabeledGraph) -> str:
    if not isinstance(g, LabeledGraph):
        raise InvalidArgument(f"expected a LabeledGraph, got {type(g).__name__}")
    edges = g.canonical_edges()
    return "\n".join([f"graph n={g.n} m={len(edges)}", *[f"{u} {v}" for u, v in edges]])


def parse_graphs(text: str) -> list[LabeledGraph]:
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    graphs = []
    header = None
    edges: list[tuple[int, int]] = []
    lines = text.splitlines()
    for line in lines + [""]:
        line = line.strip()
        if not line:
            if header is not None:
                n, m = header
                if len(edges) != m:
                    raise ParseError(f"expected {m} edges, found {len(edges)}")
                graphs.append(LabeledGraph(n, edges))
                header, edges = None, []
            continue
        if line.startswith("graph "):
            if header is not None:
                raise ParseError("graph header inside another graph block")
            try:
                fields = dict(tok.split("=") for tok in line.split()[1:])
                header = (int(fields["n"]), int(fields["m"]))
            except (ValueError, KeyError) as exc:
                raise ParseError(f"bad graph header {line!r}") from exc
        else:
            if header is None:
                raise ParseError(f"edge line {line!r} outside a graph block")
            try:
                u, v = (int(t) for t in line.split())
            except ValueError as exc:
                raise ParseError(f"bad edge line {line!r}") from exc
            if u >= v:
                raise ParseError(f"edge {u} {v} must satisfy u < v")
            edges.append((u, v))
    return graphs
