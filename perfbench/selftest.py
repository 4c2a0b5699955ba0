"""Self-test of the benchmark's checkers: run ``python3 perfbench/selftest.py``.

Each checker is fed an output it must accept (built here by brute force,
without the program) and corrupted copies it must reject: an off-by-one
count, a duplicated graph, a wrong degree, a wrong verdict, and so on.
The independent counter is also compared with brute force and with OEIS.
Exits 1 if any checker accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import itertools
import json
import sys

import checks
import workloads

FAILURES: list[str] = []


def brute_force(degrees) -> list[tuple[tuple[int, int], ...]]:
    """Every labeled simple graph with these degrees, as sorted edge tuples."""
    n = len(degrees)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m = sum(degrees) // 2
    out = []
    for edges in itertools.combinations(pairs, m):
        got = [0] * n
        for u, v in edges:
            got[u - 1] += 1
            got[v - 1] += 1
        if got == list(degrees):
            out.append(edges)
    return out


def degree_tally(n: int) -> dict[tuple[int, ...], int]:
    """Number of labeled graphs on n nodes per degree sequence."""
    pairs = list(itertools.combinations(range(n), 2))
    tally: dict[tuple[int, ...], int] = {}
    for mask in range(1 << len(pairs)):
        got = [0] * n
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                got[u] += 1
                got[v] += 1
        tally[tuple(got)] = tally.get(tuple(got), 0) + 1
    return tally


def text_graphs(graphs, n, trailers=None) -> str:
    blocks = []
    for i, edges in enumerate(graphs):
        lines = [f"graph n={n} m={len(edges)}"] + [f"{u} {v}" for u, v in edges]
        if trailers:
            lines.append(trailers[i])
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def jsonl_graphs(graphs, n) -> str:
    return "".join(json.dumps({"n": n, "edges": [list(e) for e in g]}) + "\n" for g in graphs)


def expect(name: str, accept: bool, fn, *args) -> None:
    try:
        fn(*args)
        accepted = True
    except checks.CheckError:
        accepted = False
    status = "PASS" if accepted == accept else "FAIL"
    print(f"{status} {name}: {'accepted' if accepted else 'rejected'}")
    if status == "FAIL":
        FAILURES.append(name)


def main() -> int:
    # The independent counter against brute force and the OEIS tables.
    for n in range(1, 7):
        tally = degree_tally(n)
        for degrees in itertools.product(range(n), repeat=n):
            if checks.count_realizations(degrees) != tally.get(degrees, 0):
                FAILURES.append(f"counter disagrees with brute force on {degrees}")
    for k, table in checks.OEIS.items():
        for n, want in table.items():
            if checks.count_realizations([k] * n) != want:
                FAILURES.append(f"counter disagrees with OEIS on {k}-regular n={n}")
    print(f"{'FAIL' if FAILURES else 'PASS'} counter: brute force n<=6 and OEIS tables")

    degrees = [2, 1, 2, 1, 2]
    graphs = brute_force(degrees)
    n, total = len(degrees), len(graphs)
    good = text_graphs(graphs, n)
    expect("graph stream, good text", True, checks.check_graph_stream, good, "text", degrees, total)
    expect("graph stream, good jsonlines", True, checks.check_graph_stream,
           jsonl_graphs(graphs, n), "jsonlines", degrees, total)
    dup = graphs[:-1] + graphs[:1]
    expect("graph stream, duplicated graph", False, checks.check_graph_stream,
           text_graphs(dup, n), "text", degrees, total)
    expect("graph stream, duplicated graph (jsonlines)", False, checks.check_graph_stream,
           jsonl_graphs(dup, n), "jsonlines", degrees, total)
    expect("graph stream, one graph missing", False, checks.check_graph_stream,
           text_graphs(graphs[:-1], n), "text", degrees, total)
    expect("graph stream, count off by one", False, checks.check_graph_stream,
           good, "text", degrees, total + 1)
    bent = [graphs[0][:-1] + ((graphs[0][-1][0], 5 if graphs[0][-1][1] != 5 else 4),)] + graphs[1:]
    expect("graph stream, wrong degree", False, checks.check_graph_stream,
           text_graphs(bent, n), "text", degrees, total)
    repeated_edge = [graphs[0][:-1] + graphs[0][:1]] + graphs[1:]
    expect("graph stream, repeated edge", False, checks.check_graph_stream,
           text_graphs(repeated_edge, n), "text", degrees, total)
    expect("graph stream, wrong input order", False, checks.check_graph_stream,
           good, "text", sorted(degrees, reverse=True), total)

    wl = workloads.build("enumerate-stream", 1)
    text_sets = checks.check_graph_stream(good, "text", degrees, total)
    outs = [good, "", good, ""]
    expect("enumerate round, consistent", True, round_ok, wl, [text_sets, text_sets, None, None], outs)
    expect("enumerate round, threaded output differs", False, round_ok, wl,
           [text_sets, text_sets, None, None], [good, "", text_graphs(graphs[::-1], n), ""])
    expect("enumerate round, jsonlines set differs", False, round_ok, wl,
           [text_sets, text_sets[:-1], None, None], outs)

    expect("counts, good", True, checks.check_counts, f"count={total} memo_entries=3\n", [total])
    expect("counts, off by one", False, checks.check_counts,
           f"count={total + 1} memo_entries=3\n", [total])

    p_lines = [f"p=1/{total}"] * 2
    expect("weighted samples, good", True, checks.check_weighted_samples,
           text_graphs(graphs[:2], n, p_lines), degrees, 2)
    expect("weighted samples, p not 1/k", False, checks.check_weighted_samples,
           text_graphs(graphs[:2], n, ["p=2/3"] * 2), degrees, 2)
    expect("weighted samples, wrong degree", False, checks.check_weighted_samples,
           text_graphs(bent[:2], n, p_lines), degrees, 2)

    mr = ["restarts=0 cg_rejects=0"] * 2
    expect("mr samples, good", True, checks.check_mr_samples,
           text_graphs(graphs[:2], n, mr), degrees, 2)
    expect("mr samples, wrong degree", False, checks.check_mr_samples,
           text_graphs(bent[:2], n, mr), degrees, 2)

    expect("estimate, within 4 stderr", True, checks.check_estimates,
           "estimate=103.0 stderr=1.0 exact=unknown\n", [100])
    expect("estimate, beyond 4 stderr", False, checks.check_estimates,
           "estimate=105.0 stderr=1.0 exact=unknown\n", [100])
    ones = checks.double_factorial(19)
    expect("estimate, all-ones exact", True, checks.check_estimates,
           f"estimate={float(ones):.6f} stderr=0.000000 exact=unknown\n", [ones])
    expect("estimate, all-ones off by one", False, checks.check_estimates,
           f"estimate={float(ones + 1):.6f} stderr=0.000000 exact=unknown\n", [ones])

    expect("verdicts, good", True, checks.check_verdicts, "graphical\nnot-graphical\n", [True, False])
    expect("verdicts, wrong verdict", False, checks.check_verdicts,
           "graphical\ngraphical\n", [True, False])

    expect("construct, good", True, checks.check_constructs, text_graphs(graphs[:1], n), [degrees])
    expect("construct, wrong degree", False, checks.check_constructs,
           text_graphs(bent[:1], n), [degrees])

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


def round_ok(wl, results, outs) -> None:
    bad = wl.round_check(results, outs)
    if bad:
        raise checks.CheckError(f"round check flags operations {bad}")


if __name__ == "__main__":
    sys.exit(main())
