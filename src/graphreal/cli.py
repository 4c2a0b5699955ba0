"""Command-line front end.

Sequences are read from an inline argument, a file, or standard input (one
sequence per line).  Exit codes: 0 success / graphical, 1 not graphical,
2 malformed input.  Every line of a batch is handled on its own: a line
that fails gets an ``error:`` line on stderr, the batch goes on, and the
exit code is the worst of any line.

Each subcommand imports the modules it runs when it runs, so a call loads
no more of the library than it needs.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

from .core import (
    DegreeTooLarge,
    ForbiddenSet,
    GraphRealError,
    LabeledGraph,
    NotGraphical,
    ParseError,
    _check_labels,
    _check_room,
    parse_sequence,
    validate_input_sequence,
)
from .graphicality import NodeSelectionPolicy, erdos_gallai_test

def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphreal",
        description="Decide, construct, enumerate, count and sample simple "
        "graphs realizing integer degree sequences.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="file with one degree sequence per line, or '-' for stdin",
        )
        p.add_argument(
            "-s",
            "--sequence",
            help="inline degree sequence, e.g. '3 2 2 1' (overrides input)",
        )

    p_test = sub.add_parser("test", help="decide graphicality")
    add_common(p_test)
    p_test.add_argument(
        "--forbid",
        type=_forbid_spec,
        metavar="i:j1,j2,...",
        help="forbid all connections from node i to the listed nodes",
    )

    p_con = sub.add_parser("construct", help="build one Havel-Hakimi realization")
    add_common(p_con)
    p_con.add_argument(
        "--policy",
        choices=sorted(policy.value for policy in NodeSelectionPolicy),
        default="max",
    )

    p_enum = sub.add_parser("enumerate", help="stream every labeled realization")
    add_common(p_enum)
    p_enum.add_argument(
        "--limit", type=_at_least(0), help="stop after this many graphs"
    )
    p_enum.add_argument("--format", choices=["text", "jsonlines"], default="text")
    p_enum.add_argument(
        "--threads", type=int, default=1, help="ignored: enumeration is serial"
    )
    p_enum.add_argument(
        "--ordered", action="store_true", help="ignored: output is always in order"
    )

    p_count = sub.add_parser("count", help="exact number of labeled realizations")
    add_common(p_count)
    for p in (p_test, p_enum, p_count):  # the subcommands that can ask the oracle
        p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    p_sample = sub.add_parser("sample", help="draw random realizations")
    add_common(p_sample)
    p_sample.add_argument("--method", choices=["weighted", "mr"], default="weighted")
    p_sample.add_argument("--samples", type=_at_least(1), default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--early-reject", action="store_true")
    p_sample.add_argument("--format", choices=["text", "jsonlines"], default="text")

    p_est = sub.add_parser("estimate", help="importance-sampling count estimate")
    add_common(p_est)
    p_est.add_argument("--samples", type=_at_least(1), default=1000)
    p_est.add_argument("--seed", type=int, default=None)
    p_est.add_argument(
        "--with-exact",
        action="store_true",
        help="also compute the exact count for comparison",
    )
    return parser


def _read_lines(args) -> list[str]:
    if args.sequence is not None:
        return [args.sequence]
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("no degree sequences in input")
    return lines


def _forbid_spec(spec: str) -> ForbiddenSet:
    """An argparse type: ``i:j1,j2,...`` as the forbidden star of node i."""
    try:
        focal_part, members_part = spec.split(":", 1)
        members = (int(tok) for tok in members_part.split(",") if tok.strip())
        return ForbiddenSet(int(focal_part), frozenset(members))
    except (ValueError, GraphRealError) as exc:
        raise argparse.ArgumentTypeError(f"bad spec {spec!r}: {exc}") from exc


class _Emitter(contextlib.AbstractContextManager):
    """Writes graphs on 1..n to ``out`` in blocks of at least 64 KiB: each the
    text of ``format_graph`` or its JSON line (README), a newline and ``tail``.

    ``edges`` writes sorted (min, max) pairs of input positions, with ``text``
    caching edge text past a block's first graph when ``cache``; ``graph``
    writes a graph on the labels of ``d`` through it, uncached, since sampled
    graphs share few edges.  ``rows`` writes ``construct``'s text from
    rows of input positions (row a: the larger neighbours of a), each row
    sorted and written under one prefix, from position text made there.
    """

    def __init__(self, out, n: int, d, fmt: str):
        self.out, self.names, self.text = out, (0, *d.permutation), {}
        self.json = fmt == "jsonlines"
        self.head = '{"n":%d,"edges":[' % n if self.json else f"graph n={n} m="
        self.parts, self.size = [], 0

    def flush(self, *exc_info):
        if self.parts:
            self.out.write("".join(self.parts))
            self.parts, self.size = [], 0

    __exit__ = flush

    def graph(self, g: LabeledGraph, tail: str) -> None:
        names = self.names
        self.edges(sorted([(a, b) if (a := names[u]) < (b := names[v]) else (b, a)
                           for u, v in g.edges]), tail, False)

    def rows(self, rows: list, tail: str) -> None:
        labels = list(map(str, range(len(rows))))
        self.parts.append(f"{self.head}{sum(map(len, rows))}\n")
        for label, row in zip(labels, rows):
            if row:  # one string per row: "a b\n" per edge
                row.sort()
                prefix = label + " "
                text = prefix + ("\n" + prefix).join(map(labels.__getitem__, row)) + "\n"
                self.parts.append(text)
                self.size += len(text)
                if self.size >= 1 << 16:  # written once a block is full
                    self.flush()
        self.parts.append(tail)

    def edges(self, edges: list, tail: str, cache: bool = True) -> None:
        if self.size >= 1 << 16:  # one pipe buffer of edge text; written here,
            self.flush()  # so no graph's lines are held while a block is joined
        try:
            lines = list(map(self.text.__getitem__, edges))
        except KeyError:  # an edge not seen before: make the text of each
            lines = ([f"[{u},{v}]" for u, v in edges] if self.json
                     else [f"{u} {v}\n" for u, v in edges])
            if self.parts and cache:
                self.text.update(zip(edges, lines))
        # A record's head, edge text and tail are joined only with their block.
        self.parts += ((self.head, ",".join(lines), "]}\n" + tail) if self.json
                       else (f"{self.head}{len(lines)}\n", "".join(lines), tail))
        self.size += len(self.parts[-2])


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("GRAPHREAL_SEED", "0"))


def _cmd_test(args, raw, out) -> int:
    forbid = args.forbid
    if forbid is not None:  # refused even where the degrees alone decide
        _check_labels(len(raw), forbid)
    try:
        d = validate_input_sequence(raw)
    except DegreeTooLarge:
        ok = False  # a degree above n-1 is simply non-graphical, e.g. {3,2,1}
    else:
        if args.oracle:
            from .oracle import OracleQuery, oracle_exists
            # --forbid labels are input positions, so test the input order.
            if forbid is None:
                query = OracleQuery(d.degrees)
            else:
                query = OracleQuery(raw, forbidden_star=forbid)
                _check_room(raw, forbid)  # refused as on the kernel path
            ok = oracle_exists(query)
        elif forbid is not None:
            from .constrained import cg_test
            ok = cg_test(raw, forbid.focal, forbid)
        else:
            ok = erdos_gallai_test(d).graphical
    out.write("graphical\n" if ok else "not-graphical\n")
    return 0 if ok else 1


def _cmd_construct(args, raw, out) -> int:
    from .construction import _hh_rows
    d = validate_input_sequence(raw)
    with _Emitter(out, len(raw), d, "text") as emitter:
        emitter.rows(_hh_rows(d, args.policy, emitter.names), "\n")
    return 0


def _cmd_enumerate(args, raw, out) -> int:
    try:
        d = validate_input_sequence(raw)
    except DegreeTooLarge:
        return 0  # non-graphical: empty stream
    with _Emitter(out, len(raw), d, args.format) as emitter:
        separator = "" if emitter.json else "\n"
        if args.oracle:
            from .oracle import OracleQuery, oracle_enumerate
            graphs = sorted(oracle_enumerate(OracleQuery(d.degrees)),
                            key=LabeledGraph.canonical_edges)
            for g in itertools.islice(graphs, args.limit):
                emitter.graph(g, separator)
        else:
            from .enumeration import _walk
            leaves = _walk(d.degrees, names=emitter.names)
            for edges, _ in itertools.islice(leaves, args.limit):
                emitter.edges(sorted(edges), separator)
    return 0


def _cmd_count(args, raw, out) -> int:
    try:
        d = validate_input_sequence(raw)
    except DegreeTooLarge:
        out.write("count=0 memo_entries=0\n")
        return 0
    if args.oracle:
        from .oracle import OracleQuery, oracle_enumerate
        out.write(f"count={len(oracle_enumerate(OracleQuery(d.degrees)))} "
                  "memo_entries=0\n")
    else:
        from .enumeration import count_realizations
        result = count_realizations(d)
        out.write(f"count={_decimal(result.count)} "
                  f"memo_entries={result.memo_entries}\n")
    return 0


def _cmd_sample(args, raw, out) -> int:
    from .sampling import _weighted, molloy_reed_sample
    seed = _seed(args)
    d = validate_input_sequence(raw)
    with _Emitter(out, len(raw), d, args.format) as emitter:
        for k in range(args.samples):
            if args.method == "weighted":
                g, weight, _ = _weighted(d, seed, k)
                footer = f"p=1/{_decimal(weight)}"
            else:
                g, stats = molloy_reed_sample(d, seed, args.early_reject, stream=k)
                footer = (f"restarts={stats.restarts} "
                          f"cg_rejects={stats.rejection_causes['cg_reject']}")
            emitter.graph(g, footer + "\n\n")
    return 0


def _cmd_estimate(args, raw, out) -> int:
    from .sampling import _estimate
    d = validate_input_sequence(raw)
    total, stderr, samples = _estimate(d, args.samples, _seed(args))
    exact = "unknown"
    if args.with_exact:
        from .enumeration import count_realizations
        exact = _decimal(count_realizations(d).count)
    out.write(
        f"estimate={_fixed6(total, samples)} "
        f"stderr={stderr:.6f} exact={exact}\n"
    )
    return 0


def _fixed6(num: int, den: int) -> str:
    """Six-decimal text of num / den, exact where a float would overflow."""
    try:
        return f"{num / den:.6f}"
    except OverflowError:
        scaled, rest = divmod(num * 10**6, den)
        if 2 * rest > den or 2 * rest == den and scaled % 2:  # half to even
            scaled += 1
        return f"{_decimal(scaled // 10**6)}.{scaled % 10**6:06d}"


_CHUNK_DIGITS = 4000  # below Python's default limit of 4,300 digits per str()
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(x: int) -> str:
    """Exact decimal text of a nonnegative integer of any size.

    ``str`` refuses integers beyond the interpreter's digit limit, so the
    value is converted in chunks of at most ``_CHUNK_DIGITS`` digits.
    """
    chunks = []
    while x >= _CHUNK:
        x, low = divmod(x, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(x))
    return "".join(reversed(chunks))


_COMMANDS = {
    "test": _cmd_test,
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
}


def _failure(exc: Exception, err) -> int:
    """Report ``exc`` on stderr; 1 for an infeasible input, 2 otherwise."""
    err.write(f"error: {exc}\n")
    return 1 if isinstance(exc, (NotGraphical, DegreeTooLarge)) else 2


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.subcommand]
    try:
        lines = _read_lines(args)
    except (GraphRealError, OSError, ValueError) as exc:
        return _failure(exc, err)
    worst = 0
    for line in lines:
        try:
            code = command(args, parse_sequence(line), out)
        except BrokenPipeError as exc:
            # The reader is gone, so the rest of the batch has no audience.
            return _closed_output(exc, out, err)
        except (GraphRealError, OSError, ValueError) as exc:
            code = _failure(exc, err)
        worst = max(worst, code)
    return worst


def _closed_output(exc: BrokenPipeError, out, err) -> int:
    """Report a closed ``out`` once on ``err``, which may share its pipe.

    A closed standard stream is pointed at the null device, so that what
    is still buffered for it cannot fail again when the interpreter exits.
    """
    _discard(out)
    try:
        return _failure(exc, err)
    except BrokenPipeError:
        _discard(err)
        return 2


def _discard(stream) -> None:
    if stream is sys.stdout or stream is sys.stderr:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:  # closed after the last write was buffered
        code = _closed_output(exc, sys.stdout, sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
