"""Command-line front end.

Sequences are read from an inline argument, a file, or standard input (one
sequence per line).  Exit codes: 0 success / graphical, 1 not graphical,
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .core import (
    DegreeTooLarge,
    ForbiddenSet,
    GraphRealError,
    LabeledGraph,
    NotGraphical,
    ParseError,
    parse_sequence,
    validate_input_sequence,
)
from .constrained import cg_test
from .enumeration import count_realizations, enumerate_all
from .graphicality import (
    NodeSelectionPolicy,
    erdos_gallai_test,
    havel_hakimi_construct,
)
from .oracle import OracleQuery, oracle_enumerate, oracle_exists
from .sampling import estimate_count, molloy_reed_sample, sample_weighted

_POLICIES = {
    "max": NodeSelectionPolicy.MAX_RESIDUAL,
    "min": NodeSelectionPolicy.MIN_RESIDUAL,
    "fixed": NodeSelectionPolicy.FIXED_LABEL_ORDER,
}


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
        p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    p_test = sub.add_parser("test", help="decide graphicality")
    add_common(p_test)
    p_test.add_argument(
        "--forbid",
        metavar="i:j1,j2,...",
        help="forbid all connections from node i to the listed nodes",
    )

    p_con = sub.add_parser("construct", help="build one Havel-Hakimi realization")
    add_common(p_con)
    p_con.add_argument("--policy", choices=sorted(_POLICIES), default="max")

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
    p_count.add_argument("--no-memo", action="store_true")

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


def _read_sequences(args) -> list[list[int]]:
    if args.sequence is not None:
        return [parse_sequence(args.sequence)]
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("no degree sequences in input")
    return [parse_sequence(line) for line in lines]


def _parse_forbid(spec: str) -> ForbiddenSet:
    try:
        focal_part, members_part = spec.split(":", 1)
        focal = int(focal_part)
        members = frozenset(
            int(tok) for tok in members_part.split(",") if tok.strip()
        )
    except ValueError as exc:
        raise ParseError(f"bad --forbid spec {spec!r}") from exc
    return ForbiddenSet(focal, members)


def _relabel(g: LabeledGraph, permutation, n_original: int) -> LabeledGraph:
    """Map canonical (sorted) labels back to original input positions."""
    return LabeledGraph(
        n_original,
        ((permutation[u - 1], permutation[v - 1]) for u, v in g.edges),
    )


def _emit_graph(g: LabeledGraph, fmt: str, out, separator: bool = True) -> None:
    if fmt == "jsonlines":
        payload = {"n": g.n, "edges": [[u, v] for u, v in g.canonical_edges()]}
        out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        out.write(f"graph n={g.n} m={g.m}\n")
        for u, v in g.canonical_edges():
            out.write(f"{u} {v}\n")
        if separator:
            out.write("\n")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("GRAPHREAL_SEED", "0"))


def _cmd_test(args, sequences, out) -> int:
    forbid = _parse_forbid(args.forbid) if args.forbid else None
    exit_code = 0
    for raw in sequences:
        try:
            d = validate_input_sequence(raw)
        except DegreeTooLarge:
            # A degree above n-1 is simply non-graphical, e.g. {3,2,1}.
            out.write("not-graphical\n")
            exit_code = 1
            continue
        if forbid is not None:
            # --forbid labels are input positions, so test the input order.
            if args.oracle:
                ok = oracle_exists(OracleQuery(raw, forbidden_star=forbid))
            else:
                ok = cg_test(raw, forbid.focal, forbid)
        else:
            if args.oracle:
                ok = oracle_exists(OracleQuery(d.degrees))
            else:
                ok = erdos_gallai_test(d).graphical
        out.write("graphical\n" if ok else "not-graphical\n")
        if not ok:
            exit_code = 1
    return exit_code


def _cmd_construct(args, sequences, out) -> int:
    for raw in sequences:
        d = validate_input_sequence(raw)
        g = havel_hakimi_construct(d, _POLICIES[args.policy])
        _emit_graph(_relabel(g, d.permutation, len(raw)), "text", out)
    return 0


def _graphs_for_enumerate(args, d) -> Iterable[LabeledGraph]:
    if args.oracle:
        return sorted(
            oracle_enumerate(OracleQuery(d.degrees)),
            key=lambda g: g.canonical_edges(),
        )
    return enumerate_all(d)


def _cmd_enumerate(args, sequences, out) -> int:
    for raw in sequences:
        try:
            d = validate_input_sequence(raw)
        except DegreeTooLarge:
            continue  # non-graphical: empty stream
        emitted = 0
        for g in _graphs_for_enumerate(args, d):
            if args.limit is not None and emitted >= args.limit:
                break
            _emit_graph(_relabel(g, d.permutation, len(raw)), args.format, out)
            emitted += 1
    return 0


def _cmd_count(args, sequences, out) -> int:
    for raw in sequences:
        try:
            d = validate_input_sequence(raw)
        except DegreeTooLarge:
            out.write("count=0 memo_entries=0\n")
            continue
        if args.oracle:
            out.write(f"count={len(oracle_enumerate(OracleQuery(d.degrees)))} "
                      "memo_entries=0\n")
        else:
            result = count_realizations(d, memoize=not args.no_memo)
            out.write(f"count={result.count} memo_entries={result.memo_entries}\n")
    return 0


def _cmd_sample(args, sequences, out) -> int:
    seed = _seed(args)
    for raw in sequences:
        d = validate_input_sequence(raw)
        for k in range(args.samples):
            if args.method == "weighted":
                sample = sample_weighted(d, seed, stream=k)
                _emit_graph(
                    _relabel(sample.graph, d.permutation, len(raw)),
                    args.format,
                    out,
                    separator=False,
                )
                p = sample.probability
                out.write(f"p={p.numerator}/{p.denominator}\n")
            else:
                g, stats = molloy_reed_sample(
                    d, seed, early_reject=args.early_reject, stream=k
                )
                _emit_graph(
                    _relabel(g, d.permutation, len(raw)),
                    args.format,
                    out,
                    separator=False,
                )
                out.write(
                    f"restarts={stats.restarts} "
                    f"cg_rejects={stats.rejection_causes['cg_reject']}\n"
                )
            out.write("\n")
    return 0


def _cmd_estimate(args, sequences, out) -> int:
    seed = _seed(args)
    for raw in sequences:
        d = validate_input_sequence(raw)
        result = estimate_count(d, args.samples, seed)
        exact = str(count_realizations(d).count) if args.with_exact else "unknown"
        out.write(
            f"estimate={_fixed6(result.estimate)} "
            f"stderr={result.stderr:.6f} exact={exact}\n"
        )
    return 0


def _fixed6(x) -> str:
    """Six-decimal text of a fraction, exact where a float would overflow."""
    try:
        return f"{float(x):.6f}"
    except OverflowError:
        scaled = round(x * 10**6)
        return f"{scaled // 10**6}.{scaled % 10**6:06d}"


_COMMANDS = {
    "test": _cmd_test,
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
}


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sequences = _read_sequences(args)
        return _COMMANDS[args.subcommand](args, sequences, out)
    except (NotGraphical, DegreeTooLarge) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (GraphRealError, OSError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
