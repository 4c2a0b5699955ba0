"""Command-line front end.

Sequences are read from an inline argument, a file, or standard input (one
sequence per line).  Exit codes: 0 success / graphical, 1 not graphical,
2 malformed input.  Every line of a batch is handled on its own: a line
that fails gets an ``error:`` line on stderr, the batch goes on, and the
exit code is the worst of any line.

The command line is read from one table, ``_COMMANDS``: each subcommand's
function, help line and options, each option with its flags, converter,
default and help line.  ``_parse`` reads ``argv`` as argparse would and
gives the same namespace, and ``-h``/``--help`` prints text made from the
same table, so neither can drift from the other.  Options may be written
``--name value``, ``--name=value`` or as a unique prefix of ``--name``;
``-s`` also takes ``-svalue``.  A usage error (an unknown option or extra
argument, a missing or bad value, an ambiguous prefix, no subcommand)
prints a usage line and ``graphreal <cmd>: error: ...`` on stderr and
exits 2 before any input is read.  argparse itself is not imported: its
import and parser build were most of a call's start-up.

Each subcommand imports the modules it runs when it runs, so a call loads
no more of the library than it needs.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
from types import SimpleNamespace

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
    """A converter: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return integer


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
    """A converter: ``i:j1,j2,...`` as the forbidden star of node i."""
    try:
        focal_part, members_part = spec.split(":", 1)
        members = (int(tok) for tok in members_part.split(",") if tok.strip())
        return ForbiddenSet(int(focal_part), frozenset(members))
    except (ValueError, GraphRealError) as exc:
        raise ValueError(f"bad spec {spec!r}: {exc}") from exc


class _Emitter(contextlib.AbstractContextManager):
    """Writes graphs on 1..n to ``out`` in blocks of at least 64 KiB: each the
    text of ``format_graph`` or its JSON line (README), a newline and ``tail``.

    ``edges`` writes a leaf's edge codes as ``_walk`` yields them for the
    names ``names``: a * N + b for input positions a < b, N = ``base``.  It
    sorts the list in place and takes each line's text from ``text``, the
    per-call dict in which the text of each code is made once, if ``cache``.
    ``graph`` writes a graph on the labels of ``d`` through it, as codes and
    uncached, since sampled graphs share few edges.  ``rows`` writes
    ``construct``'s text from rows of input positions (row a: the larger
    neighbours of a), each row sorted and written under one prefix, from
    position text made there.
    """

    def __init__(self, out, n: int, d, fmt: str):
        self.out, self.names, self.text = out, (0, *d.permutation), {}
        self.base = max(self.names) + 1
        # Every graph realizes d, so the head of each has the same m.
        self.head, self.sep, self.form, self.end = (
            ('{"n":%d,"edges":[' % n, ",", "[%d,%d]", "]}\n") if fmt == "jsonlines"
            else (f"graph n={n} m={sum(d.degrees) // 2}\n", "", "%d %d\n", ""))
        self.parts, self.size = [], 0

    def flush(self, *exc_info):
        if self.parts:
            self.out.write("".join(self.parts))
            self.parts, self.size = [], 0

    __exit__ = flush

    def graph(self, g, tail):
        names, base = self.names, self.base
        self.edges([a * base + b if (a := names[u]) < (b := names[v]) else b * base + a
                    for u, v in g.edges], tail, False)

    def rows(self, rows: list, tail: str) -> None:
        labels = list(map(str, range(len(rows))))
        self.parts.append(self.head)
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

    def edges(self, codes, tail, cache=True):
        if self.size >= 1 << 16:  # one pipe buffer of edge text; written here,
            self.flush()  # so no graph's lines are held while a block is joined
        codes.sort()
        try:
            body = self.sep.join(map(self.text.__getitem__, codes))
        except KeyError:  # a code not seen before: make the text of each
            lines = [self.form % divmod(c, self.base) for c in codes]
            if cache:
                self.text.update(zip(codes, lines))
            body = self.sep.join(lines)
        # A record's head, edge text and tail are joined only with their block.
        self.parts += self.head, body, self.end + tail
        self.size += len(body)


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
        separator = "" if emitter.sep else "\n"  # a blank line after a text graph
        if args.oracle:
            from .oracle import OracleQuery, oracle_enumerate
            graphs = sorted(oracle_enumerate(OracleQuery(d.degrees)),
                            key=LabeledGraph.canonical_edges)
            for g in itertools.islice(graphs, args.limit):
                emitter.graph(g, separator)
        else:
            from .enumeration import _walk
            for edges, _ in itertools.islice(_walk(d.degrees, emitter.names), args.limit):
                emitter.edges(edges, separator)
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


# Options, each (flags, dest, convert, default, help).  The value is stored
# under ``dest``.  ``convert`` makes it from the option's text and raises
# ValueError for a bad one; a tuple lists the values allowed, and None marks
# a flag, which takes no value and stores True.
_HELP = ("-h --help", "help", None, None, "show this help and exit")
_SEQUENCE = ("-s --sequence", "sequence", str, None,
             "inline degree sequence, e.g. '3 2 2 1' (overrides input)")
_ORACLE = ("--oracle", "oracle", None, False, "answer with the brute-force oracle (small n only)")
_FORMAT = ("--format", "format", ("text", "jsonlines"), "text",
           "text blocks or one JSON line per graph")
_SEED = ("--seed", "seed", int, None, "sampler seed (default: $GRAPHREAL_SEED, else 0)")

# Each subcommand: the function that answers one input line, its help line
# and its options.  The parser and the help text are both read from here.
_COMMANDS = {
    "test": (_cmd_test, "decide graphicality", (
        _SEQUENCE,
        ("--forbid", "forbid", _forbid_spec, None,
         "forbid all connections from node i to nodes j1, j2, ... as i:j1,j2,..."),
        _ORACLE)),
    "construct": (_cmd_construct, "build one Havel-Hakimi realization", (
        _SEQUENCE,
        ("--policy", "policy", tuple(sorted(policy.value for policy in NodeSelectionPolicy)),
         "max", "which node connects all its stubs next"))),
    "enumerate": (_cmd_enumerate, "stream every labeled realization", (
        _SEQUENCE,
        ("--limit", "limit", _at_least(0), None, "stop after this many graphs"),
        _FORMAT,
        ("--threads", "threads", int, 1, "ignored: enumeration is serial"),
        ("--ordered", "ordered", None, False, "ignored: output is always in order"),
        _ORACLE)),
    "count": (_cmd_count, "exact number of labeled realizations", (_SEQUENCE, _ORACLE)),
    "sample": (_cmd_sample, "draw random realizations", (
        _SEQUENCE,
        ("--method", "method", ("weighted", "mr"), "weighted",
         "weighted sampler, or Molloy-Reed stub matching"),
        ("--samples", "samples", _at_least(1), 1, "graphs per sequence"),
        _SEED,
        ("--early-reject", "early_reject", None, False,
         "mr: restart as soon as no completion is left"),
        _FORMAT)),
    "estimate": (_cmd_estimate, "importance-sampling count estimate", (
        _SEQUENCE,
        ("--samples", "samples", _at_least(1), 1000, "weighted draws per sequence"),
        _SEED,
        ("--with-exact", "with_exact", None, False,
         "also compute the exact count for comparison"))),
}
_ABOUT = ("Decide, construct, enumerate, count and sample simple graphs "
          "realizing integer degree sequences.")
_INPUT = "file with one degree sequence per line, or '-' for stdin (default)"


def _failure(exc: Exception, err) -> int:
    """Report ``exc`` on stderr; 1 for an infeasible input, 2 otherwise."""
    err.write(f"error: {exc}\n")
    return 1 if isinstance(exc, (NotGraphical, DegreeTooLarge)) else 2


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _parse(argv, out, err)
    command = _COMMANDS[args.subcommand][0]
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


def _parse(argv, out, err) -> SimpleNamespace:
    """``argv`` (default ``sys.argv[1:]``) read as argparse reads it: the
    subcommand, its ``input`` and the value of each of its options.

    Before the subcommand only -h is an option.  An option is given as
    ``--name value``, ``--name=value``, a unique prefix of ``--name`` in
    either form, or ``-s value``, ``-svalue``, ``-s=value``.  An argument
    that starts with '-' is a value only if it is '-', has a space or is a
    negative number, and so is every argument after ``--``.  -h writes the
    help text to ``out`` and exits 0.  A usage error writes the usage line
    and ``graphreal <cmd>: error: ...`` to ``err`` and exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command, args, values, extras = None, {}, [], []
    while argv:
        arg = argv.pop(0)
        if arg == "--" and command:
            values += argv
            break
        kind = _kind(command, arg, err)
        if kind is None and command is None:
            if arg not in _COMMANDS:
                _usage(None, err, f"argument subcommand: invalid choice: {arg!r}")
            command, args = arg, {"subcommand": arg}
            for _, dest, _, default, _ in _COMMANDS[arg][2]:
                args[dest] = default
            for rest in itertools.takewhile("--".__ne__, argv):
                _kind(command, rest, err)  # as argparse, refuse an ambiguous prefix first
        elif not kind:
            (extras if kind is False else values).append(arg)
        else:
            (flags, dest, convert, _, _), value = kind
            name = flags.replace(" ", "/")
            if convert is None:
                if value is not None:
                    _usage(command, err, f"argument {name}: ignored explicit argument {value!r}")
                if dest == "help":
                    _usage(command, out)
                value = True
            elif value is None:
                if not argv or _kind(command, argv[0], err) is not None:
                    _usage(command, err, f"argument {name}: expected one argument")
                value = argv.pop(0)
            if type(convert) is tuple and value not in convert:
                _usage(command, err, f"argument {name}: invalid choice: {value!r}")
            if callable(convert):
                try:
                    value = convert(value)
                except ValueError as exc:
                    _usage(command, err, f"argument {name}: {exc}")
            args[dest] = value
    if command is None:
        _usage(None, err, "the following arguments are required: subcommand")
    args["input"], *values = values or ["-"]
    if extras or values:
        _usage(command, err, f"unrecognized arguments: {' '.join(extras + values)}")
    return SimpleNamespace(**args)


def _kind(command, arg, err):
    """``(option, the value written in arg or None)`` if ``arg`` names an
    option of ``command``; else None for a value, False for an unknown option."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if arg[1] != "-" and len(arg) > 2:  # -svalue and -s=value
        name, eq, value = arg[:2], "=", arg[2:].removeprefix("=")
    hits = {}  # long flag: option, for each option that name abbreviates
    for option in (_HELP, *_COMMANDS[command][2]) if command else (_HELP,):
        *short, long = option[0].split()
        if name in short or name == long:
            return option, value if eq else None
        if long.startswith(name) and name != "--":
            hits[long] = option
    if len(hits) > 1:
        _usage(command, err, f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits:
        return hits.popitem()[1], value if eq else None
    negative = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    return None if negative or " " in arg else False


def _usage(command, stream, error=None) -> None:
    """Write the usage line of ``command`` (None: the program) to ``stream``,
    then ``graphreal <cmd>: error: <error>`` and exit 2, or with no error
    the help text made from ``_COMMANDS`` and exit 0."""
    prog = f"graphreal {command}" if command else "graphreal"
    text = f"usage: {prog} " + (
        "[options] [input]" if command else f"[-h] {{{','.join(_COMMANDS)}}} ...")
    if error is not None:
        stream.write(f"{text}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    rows = [("input", None, None, None, _INPUT), _HELP, *_COMMANDS[command][2]] if command else [
        (name, None, None, None, about) for name, (_, about, _) in _COMMANDS.items()]
    text += f"\n\n{_COMMANDS[command][1] if command else _ABOUT}\n\n"
    for flags, dest, convert, _, about in rows:
        if convert is not None:
            flags += f" {{{','.join(convert)}}}" if type(convert) is tuple else f" {dest.upper()}"
        text += f"  {flags.replace(' -', ', -'):<26}{about}\n"
    stream.write(text)
    raise SystemExit(0)


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
