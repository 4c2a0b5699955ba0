import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from io import StringIO
from types import SimpleNamespace

import pytest

from helpers import ESTIMATE_SHAPED, unlimited_int_digits
from kernel_references import estimate_reference

from graphreal.cli import _Emitter, _fixed6, run
from graphreal.construction import _hh_rows
from graphreal.core import (
    LabeledGraph,
    format_graph,
    graph_degree_sequence,
    parse_graphs,
    validate_input_sequence,
)
from graphreal.enumeration import enumerate_all
from graphreal.graphicality import NodeSelectionPolicy, havel_hakimi_construct
from graphreal.oracle import OracleQuery, oracle_enumerate
from graphreal.sampling import molloy_reed_sample, sample_weighted


def invoke(argv):
    out, err = StringIO(), StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestTest:
    def test_non_graphical(self):
        code, out, _ = invoke(["test", "-s", "3 2 1"])
        assert out == "not-graphical\n"
        assert code == 1

    def test_graphical(self):
        code, out, _ = invoke(["test", "-s", "2 1 1"])
        assert out == "graphical\n"
        assert code == 0

    def test_forbid(self):
        code, out, _ = invoke(["test", "-s", "1 1 1 1", "--forbid", "1:2"])
        assert out == "graphical\n"
        assert code == 0

    def test_forbid_blocking(self):
        code, out, _ = invoke(["test", "-s", "1 1 1", "--forbid", "1:2"])
        assert code == 1

    def test_forbid_too_many(self):
        code, _, err = invoke(["test", "-s", "2 2 2 2", "--forbid", "1:2,3"])
        assert code == 2
        assert err.startswith("error:")

    def test_forbid_too_many_with_oracle(self):
        # The oracle path refuses the star as the kernel path does.
        argv = ["test", "-s", "2 2 2 2", "--forbid", "1:2,3"]
        code, out, err = invoke([*argv, "--oracle"])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert (code, out, err) == invoke(argv)

    @pytest.mark.parametrize("seq, spec, message", [
        ("2 2 2 2", "7:2,3", "focal 7 outside 1..4"),
        ("2 2 2 2", "2:3,9", "forbidden set [3, 9] outside 1..4"),
        # A degree above n-1 decides not-graphical only for a valid star.
        ("3 1 1", "9:1", "focal 9 outside 1..3"),
        ("3 1 1", "2:1,5", "forbidden set [1, 5] outside 1..3"),
    ])
    def test_forbid_outside_the_nodes(self, seq, spec, message):
        for extra in ([], ["--oracle"]):
            argv = ["test", "-s", seq, "--forbid", spec, *extra]
            assert invoke(argv) == (2, "", f"error: {message}\n"), extra

    def test_forbid_labels_in_input_order(self):
        # Node 3 has degree 2; the graph 1-3, 2-3 avoids the edge 1-2.
        for extra in ([], ["--oracle"]):
            code, out, _ = invoke(["test", "-s", "1 1 2", "--forbid", "1:2", *extra])
            assert (code, out) == (0, "graphical\n"), extra

    def test_forbid_zero_degree_label(self):
        # Forbidding an edge to a node of degree 0 constrains nothing.
        code, out, _ = invoke(["test", "-s", "1 0 1", "--forbid", "1:2"])
        assert (code, out) == (0, "graphical\n")

    def test_oracle_flag_agrees(self):
        assert invoke(["test", "-s", "3 3 2 2", "--oracle"])[:2] == invoke(
            ["test", "-s", "3 3 2 2"]
        )[:2]

    def test_multiple_lines_from_file(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("2 1 1\n1 1 1\n")
        code, out, _ = invoke(["test", str(path)])
        assert out == "graphical\nnot-graphical\n"
        assert code == 1


class TestConstruct:
    def test_output_realizes_sequence(self):
        code, out, _ = invoke(["construct", "-s", "3 2 2 2 1"])
        assert code == 0
        (g,) = parse_graphs(out)
        _, d = graph_degree_sequence(g)
        assert d.degrees == (3, 2, 2, 2, 1)

    def test_unsorted_input_reports_original_labels(self):
        code, out, _ = invoke(["construct", "-s", "1 2 0 1"])
        assert code == 0
        (g,) = parse_graphs(out)
        assert g.n == 4
        assert g.degrees() == (1, 2, 0, 1)

    def test_not_graphical_exits_one(self):
        code, _, err = invoke(["construct", "-s", "1 1 1"])
        assert code == 1
        assert err.startswith("error:")


class TestEnumerate:
    def test_round_trip(self):
        code, out, _ = invoke(["enumerate", "-s", "2 2 1 1"])
        assert code == 0
        graphs = parse_graphs(out)
        assert len(graphs) == 2
        for g in graphs:
            _, d = graph_degree_sequence(g)
            assert d.degrees == (2, 2, 1, 1)

    def test_limit(self):
        _, out, _ = invoke(["enumerate", "-s", "2 2 2 2", "--limit", "1"])
        assert len(parse_graphs(out)) == 1

    def test_jsonlines(self):
        _, out, _ = invoke(["enumerate", "-s", "1 1", "--format", "jsonlines"])
        assert json.loads(out) == {"n": 2, "edges": [[1, 2]]}

    def test_non_graphical_empty(self):
        code, out, _ = invoke(["enumerate", "-s", "3 2 1"])
        assert code == 0
        assert out == ""

    def test_threads_ordered_matches_single(self):
        single = invoke(["enumerate", "-s", "3 3 2 2 2 2"])
        threaded = invoke(
            ["enumerate", "-s", "3 3 2 2 2 2", "--threads", "3", "--ordered"]
        )
        assert single == threaded


class TestCount:
    def test_four_cycle(self):
        code, out, _ = invoke(["count", "-s", "2 2 2 2"])
        assert code == 0
        assert out.startswith("count=3 memo_entries=")

    def test_non_graphical(self):
        _, out, _ = invoke(["count", "-s", "3 2 1"])
        assert out == "count=0 memo_entries=0\n"

    def test_oracle_flag(self):
        _, out, _ = invoke(["count", "-s", "2 2 2 2", "--oracle"])
        assert out.startswith("count=3 ")


class TestSample:
    def test_weighted_output(self):
        code, out, _ = invoke(
            ["sample", "-s", "2 2 2 2", "--samples", "2", "--seed", "5"]
        )
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        for block in blocks:
            assert block.splitlines()[-1] == "p=1/3"

    def test_mr_output(self):
        code, out, _ = invoke(
            [
                "sample",
                "-s",
                "2 2 2",
                "--method",
                "mr",
                "--samples",
                "1",
                "--seed",
                "5",
                "--early-reject",
            ]
        )
        assert code == 0
        stats_line = [l for l in out.splitlines() if l.startswith("restarts=")]
        assert len(stats_line) == 1
        assert "cg_rejects=" in stats_line[0]

    @pytest.mark.parametrize("text, graph", [
        ("0", "graph n=1 m=0\n"),
        ("0 0 0", "graph n=3 m=0\n"),
        ("1 1", "graph n=2 m=1\n1 2\n"),
    ])
    @pytest.mark.parametrize("early_reject", [False, True])
    def test_mr_with_few_stubs(self, text, graph, early_reject):
        # Zero-degree nodes are stripped, so "0" and "0 0 0" reach the
        # sampler with no node at all.
        argv = ["sample", "-s", text, "--method", "mr", "--seed", "3"]
        argv += ["--early-reject"] if early_reject else []
        assert invoke(argv) == (0, graph + "restarts=0 cg_rejects=0\n\n", "")

    def test_deterministic(self):
        argv = ["sample", "-s", "3 3 2 2 2 2 2 2", "--samples", "3", "--seed", "7"]
        assert invoke(argv) == invoke(argv)

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("GRAPHREAL_SEED", "99")
        with_env = invoke(["sample", "-s", "2 2 2 2"])
        explicit = invoke(["sample", "-s", "2 2 2 2", "--seed", "99"])
        assert with_env == explicit


class TestEstimate:
    def test_line_format(self):
        code, out, _ = invoke(
            ["estimate", "-s", "2 2 2 2", "--samples", "10", "--seed", "1"]
        )
        assert code == 0
        assert out == "estimate=3.000000 stderr=0.000000 exact=unknown\n"

    def test_with_exact(self):
        _, out, _ = invoke(
            ["estimate", "-s", "2 2 2 2", "--samples", "10", "--seed", "1", "--with-exact"]
        )
        assert out.endswith("exact=3\n")

    def test_beyond_float_range_printed_exactly(self):
        # 399!! is about 1.6e434, past the largest float.
        code, out, err = invoke(
            ["estimate", "-s", " ".join(["1"] * 400), "--samples", "2", "--seed", "1"]
        )
        assert (code, err) == (0, "")
        want = math.prod(range(1, 400, 2))
        assert out == f"estimate={want}.000000 stderr=0.000000 exact=unknown\n"

    @pytest.mark.parametrize("seq", ESTIMATE_SHAPED)
    def test_line_equals_labelled_walk_reference(self, seq):
        ref = estimate_reference(seq, 500, 7)
        code, out, err = invoke(["estimate", "-s", " ".join(map(str, seq)),
                                 "--samples", "500", "--seed", "7"])
        assert (code, err) == (0, "")
        assert out == (f"estimate={float(ref.estimate):.6f} "
                       f"stderr={ref.stderr:.6f} exact=unknown\n")


def fixed6_reference(num, den):
    """The estimate's text as taken from ``Fraction(num, den)``."""
    x = Fraction(num, den)
    try:
        return f"{float(x):.6f}"
    except OverflowError:
        scaled = round(x * 10**6)
        return f"{scaled // 10**6}.{scaled % 10**6:06d}"


class TestFixed6:
    def test_equals_fraction_text_on_random_pairs(self):
        rng, beyond = random.Random(22), 0
        for _ in range(5000):
            num = rng.randrange(10 ** rng.randint(1, 400))
            den = rng.randrange(1, 10 ** rng.randint(1, 40))
            beyond += num // den > 10**309
            assert _fixed6(num, den) == fixed6_reference(num, den), (num, den)
        assert 500 < beyond < 4500  # both the float and the exact branch

    @pytest.mark.parametrize("k", [10**400, 3**900, 0, 12345],
                             ids=["1e400", "3^900", "0", "12345"])
    @pytest.mark.parametrize("j", [0, 1, 2, 7, 999_998])
    def test_ties_round_half_to_even(self, k, j):
        # k + (j + 1/2) / 10**6: the seventh decimal is an exact 5, so the
        # sixth rounds to the even one of j and j + 1.
        num, den = (2 * j + 1) + k * 2 * 10**6, 2 * 10**6
        assert _fixed6(num, den) == fixed6_reference(num, den)
        if k > 10**308:
            assert _fixed6(num, den) == f"{k}.{j + j % 2:06d}"

    def test_exact_where_a_float_overflows(self):
        third = 10**400 // 3  # 10**400 = 3 * third + 1
        assert _fixed6(10**400, 3) == f"{third}.333333"
        assert _fixed6(10**400 + 1, 3) == f"{third}.666667"
        assert _fixed6(10**400 + 2, 3) == f"{third + 1}.000000"


class TestBadCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "-s", "2 2 2 2", "--samples", "-1"],
            ["sample", "-s", "2 2 2 2", "--samples", "0"],
            ["estimate", "-s", "2 2 2 2", "--samples", "0"],
            ["enumerate", "-s", "2 2 2 2", "--limit", "-1"],
        ],
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --" in captured.err

    @pytest.mark.parametrize("command", ["construct", "sample", "estimate"])
    def test_oracle_flag_only_where_read(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run([command, "-s", "2 2 2 2", "--oracle"])
        assert info.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err

    def test_bad_forbid_spec_rejected_at_parse_time(self, capsys):
        for spec in ["1-2", "1:x", "2:2"]:
            with pytest.raises(SystemExit) as info:
                run(["test", "-s", "2 2 2 2", "--forbid", spec])
            assert info.value.code == 2, spec
            assert "error: argument --forbid" in capsys.readouterr().err

    def test_zero_limit_is_empty(self):
        assert invoke(["enumerate", "-s", "2 2 2 2", "--limit", "0"]) == (0, "", "")


class TestErrors:
    def test_malformed_sequence(self):
        code, _, err = invoke(["test", "-s", "2 x 1"])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self):
        code, _, err = invoke(["test", "no-such-file.txt"])
        assert code == 2

    def test_empty_stdin_like_input(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        code, _, err = invoke(["count", str(path)])
        assert code == 2


class TestBatchPolicy:
    # Every line is handled on its own: a failing line reports "error: ..."
    # on stderr, later lines still run, and the exit code is the worst one.
    BATCH = "2 2 2 2\n3 1 1\n1 1\n"

    def batch(self, tmp_path, argv, text=BATCH):
        path = tmp_path / "seqs.txt"
        path.write_text(text)
        return invoke([*argv, str(path)])

    def test_construct_goes_on_after_infeasible_line(self, tmp_path):
        code, out, err = self.batch(tmp_path, ["construct"])
        assert code == 1
        assert [g.degrees() for g in parse_graphs(out)] == [(2, 2, 2, 2), (1, 1)]
        assert err == "error: degree 3 exceeds n-1 = 2\n"

    def test_sample_goes_on_after_infeasible_line(self, tmp_path):
        for method in ("weighted", "mr"):
            code, out, err = self.batch(
                tmp_path, ["sample", "--method", method, "--seed", "1"]
            )
            assert code == 1, method
            blocks = [b for b in out.split("\n\n") if b.strip()]
            assert [b.splitlines()[0] for b in blocks] == [
                "graph n=4 m=4",
                "graph n=2 m=1",
            ], method
            assert err.count("error:") == 1, method

    def test_estimate_goes_on_after_infeasible_line(self, tmp_path):
        code, out, err = self.batch(tmp_path, ["estimate", "--samples", "5"])
        assert code == 1
        assert out.splitlines() == [
            "estimate=3.000000 stderr=0.000000 exact=unknown",
            "estimate=1.000000 stderr=0.000000 exact=unknown",
        ]
        assert err.count("error:") == 1

    def test_worst_exit_code_wins(self, tmp_path):
        code, out, err = self.batch(tmp_path, ["construct"], "3 1 1\n2 x\n1 1\n")
        assert code == 2
        assert len(parse_graphs(out)) == 1
        assert err.count("error:") == 2

    def test_infeasible_lines_keep_their_output(self, tmp_path):
        assert self.batch(tmp_path, ["test"]) == (
            1, "graphical\nnot-graphical\ngraphical\n", ""
        )
        assert self.batch(tmp_path, ["count"]) == (
            0, "count=3 memo_entries=2\ncount=0 memo_entries=0\n"
            "count=1 memo_entries=1\n", ""
        )
        code, out, err = self.batch(tmp_path, ["enumerate"])
        assert (code, err, len(parse_graphs(out))) == (0, "", 4)


def test_count_deeper_than_recursion_limit():
    # 2,400 ones: a chain of 1,200 multisets.
    proc = subprocess.run(
        [sys.executable, "-m", "graphreal", "count", "-s", " ".join(["1"] * 2400)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        f"count={math.prod(range(1, 2400, 2))} memo_entries=1200\n"
    )


def test_estimate_beyond_float_range():
    proc = subprocess.run(
        [sys.executable, "-m", "graphreal", "estimate", "-s", " ".join(["1"] * 200),
         "--samples", "2", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    estimate = proc.stdout.split()[0].removeprefix("estimate=")
    assert estimate.endswith(".000000")
    assert float(estimate) == float(math.prod(range(1, 200, 2)))
    assert proc.stdout.endswith(" stderr=0.000000 exact=unknown\n")


def test_estimate_above_2_64_sets_at_one_level():
    # Node 1 of degree 34 picks 34 of 68 ones: C(68, 34) > 2**64 sets, drawn
    # from two 64-bit words.  Every path has the same weight, so the estimate
    # is the exact count.
    assert math.comb(68, 34) > 2**64
    proc = subprocess.run(
        [sys.executable, "-m", "graphreal", "estimate", "-s", " ".join(["34"] + ["1"] * 68),
         "--samples", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=60,
    )
    count = math.comb(68, 34) * math.prod(range(1, 34, 2))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"estimate={float(count):.6f} stderr=0.000000 exact=unknown\n"


def weighted_shape(n):
    """The bench's weighted-sampler shape on n nodes: 15 % ones, 15 % threes
    and the rest twos, shuffled."""
    tail = round(0.15 * n)
    shape = [1] * tail + [2] * (n - 2 * tail) + [3] * tail
    random.Random(n).shuffle(shape)
    return " ".join(map(str, shape))


@functools.cache
def emitted(text, fmt, oracle=False, limit=None):
    """The records ``enumerate -s text`` writes, made from the public API:
    ``enumerate_all``, or the oracle's graphs in order of their edges; the
    first ``limit`` of them if it is given."""
    raw = [int(x) for x in text.split()]
    d = validate_input_sequence(raw)
    if oracle:
        graphs = sorted(oracle_enumerate(OracleQuery(d.degrees)),
                        key=LabeledGraph.canonical_edges)
    else:
        graphs = enumerate_all(d)
    separator = "\n" if fmt == "text" else ""
    return tuple(
        TestEmittedBytes.record(TestEmittedBytes.in_input_labels(g, raw), fmt) + separator
        for g in itertools.islice(graphs, limit)
    )


class TestEmittedBytes:
    """Stdout against text made here from the public API: the library's
    graph, relabelled to input positions, then ``format_graph`` or
    ``json.dumps``."""

    # Permuted inputs, one with nodes of degree 0.
    INPUTS = ["1 3 2 2 3 1 2", "2 0 3 1 2 0 2 2"]
    # Twelve and fifteen positions, with nodes of degree 0 inside and at the
    # end, so that a row mixes one- and two-digit labels ("3 9" before "3 12").
    # The first has ten nodes of positive degree at most, for the oracle.
    WIDE = ["1 0 3 2 0 2 0 1 0 2 3 0", "2 0 3 1 2 0 2 2 5 1 0 4 3 1 0"]

    @staticmethod
    def in_input_labels(g, raw):
        perm = validate_input_sequence(raw).permutation
        return LabeledGraph(len(raw), [(perm[u - 1], perm[v - 1]) for u, v in g.edges])

    @staticmethod
    def record(g, fmt):
        if fmt == "jsonlines":
            payload = {"n": g.n, "edges": [list(e) for e in g.canonical_edges()]}
            return json.dumps(payload, separators=(",", ":")) + "\n"
        return format_graph(g) + "\n"

    @pytest.mark.parametrize("text", [*INPUTS, *WIDE])
    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    @pytest.mark.parametrize("limit", [None, 3])
    def test_enumerate(self, text, fmt, limit):
        raw = [int(x) for x in text.split()]
        graphs = itertools.islice(enumerate_all(validate_input_sequence(raw)), limit)
        separator = "\n" if fmt == "text" else ""
        want = "".join(
            self.record(self.in_input_labels(g, raw), fmt) + separator for g in graphs
        )
        argv = ["enumerate", "-s", text, "--format", fmt]
        argv += ["--limit", str(limit)] if limit is not None else []
        assert invoke(argv) == (0, want, "")

    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    def test_enumerate_random_labels(self, fmt):
        # Degree sequences of seeded random graphs on up to 14 nodes, labels
        # shuffled, most with nodes of degree 0, so that names run past the
        # nodes of positive degree and into two digits.
        rng = random.Random(24)
        for _ in range(210):
            n = rng.randint(1, 14)
            p = rng.random() * 5 / n
            degs = [0] * n
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    degs[u] += 1
                    degs[v] += 1
            rng.shuffle(degs)
            text = " ".join(map(str, degs))
            want = "".join(emitted(text, fmt, limit=200))
            assert invoke(["enumerate", "-s", text, "--format", fmt, "--limit", "200"]) == (
                0, want, ""), text

    # 9,308 graphs: several blocks of output in either format.
    MANY = "4 2 4 1 3 4 2 3 1"
    BLOCK = 1 << 16

    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    @pytest.mark.parametrize("limit", [None, 2500, 0])
    def test_enumerate_many_blocks(self, fmt, limit):
        # 2,500 graphs end inside the third block.
        records = emitted(self.MANY, fmt)
        assert len(records) == 9308
        assert len("".join(records)) > 8 * self.BLOCK
        argv = ["enumerate", "-s", self.MANY, "--format", fmt]
        argv += ["--limit", str(limit)] if limit is not None else []
        assert invoke(argv) == (0, "".join(records[:limit]), "")

    @pytest.mark.parametrize("text", [*INPUTS, WIDE[0], MANY])
    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    def test_enumerate_oracle(self, text, fmt):
        want = "".join(emitted(text, fmt, oracle=True))
        assert invoke(["enumerate", "-s", text, "--format", fmt, "--oracle"]) == (0, want, "")

    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_enumerate_buffered_or_not(self, fmt, unbuffered):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "graphreal", "enumerate", "-s", self.MANY, "--format", fmt],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "".join(emitted(self.MANY, fmt)), "")

    def test_enumerate_writes_blocks(self):
        # Whole records are joined into blocks of at least 64 KiB; the last
        # block may be shorter.
        class Counted(StringIO):
            writes = 0

            def write(self, text):
                Counted.writes += 1
                return super().write(text)

        out = Counted()
        assert run(["enumerate", "-s", self.MANY], out=out, err=StringIO()) == 0
        want = "".join(emitted(self.MANY, "text"))
        assert out.getvalue() == want
        assert 1 < Counted.writes <= -(-len(want) // self.BLOCK) + 1

    @pytest.mark.parametrize("text", [*INPUTS, *WIDE])
    @pytest.mark.parametrize("policy", NodeSelectionPolicy)
    def test_construct(self, text, policy):
        raw = [int(x) for x in text.split()]
        g = havel_hakimi_construct(validate_input_sequence(raw), policy)
        want = format_graph(self.in_input_labels(g, raw)) + "\n\n"
        assert invoke(["construct", "-s", text, "--policy", policy.value]) == (0, want, "")

    @pytest.mark.parametrize("text", [*INPUTS, *WIDE])
    @pytest.mark.parametrize("fmt", ["text", "jsonlines"])
    @pytest.mark.parametrize("method", ["weighted", "mr"])
    def test_sample(self, text, fmt, method):
        raw = [int(x) for x in text.split()]
        d = validate_input_sequence(raw)
        want = ""
        for k in range(3):
            if method == "weighted":
                s = sample_weighted(d, 11, stream=k)
                g = s.graph
                footer = f"p={s.probability.numerator}/{s.probability.denominator}"
            else:
                g, stats = molloy_reed_sample(d, 11, True, stream=k)
                footer = (f"restarts={stats.restarts} "
                          f"cg_rejects={stats.rejection_causes['cg_reject']}")
            want += self.record(self.in_input_labels(g, raw), fmt) + footer + "\n\n"
        argv = ["sample", "-s", text, "--method", method, "--format", fmt,
                "--samples", "3", "--seed", "11", "--early-reject"]
        assert invoke(argv) == (0, want, "")

    def test_large_graph_written_in_little_memory(self):
        # The rows of one seeded G(1500, 1/64) under the "fixed" policy, built
        # before tracing starts, so the peak is what writing them adds: label
        # text and one block at a time, with no second copy of the record.
        # 0.34 MB measured on CPython 3.11, of which 0.15 MB is the output
        # that ``written`` keeps (0.75 MB when the writer took a graph and
        # 2.35 MB when it sorted every relabelled pair at once).
        rng, n = random.Random(1), 1500
        raw = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 1 / 64:
                raw[u] += 1
                raw[v] += 1
        d = validate_input_sequence(raw)
        g = havel_hakimi_construct(d, "fixed")
        assert g.m > 17000
        rows = _hh_rows(d, "fixed", (0, *d.permutation))

        written = []
        tracemalloc.start()
        try:
            with _Emitter(SimpleNamespace(write=written.append), n, d, "text") as emitter:
                emitter.rows(rows, "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "".join(written) == format_graph(self.in_input_labels(g, raw)) + "\n\n"
        assert len(written) > 2  # blocks of at least 64 KiB, not one record
        assert peak < 700_000

    # The bench's Molloy-Reed shape: 60 twos and 240 ones, shuffled.
    MR_SHAPE = [2] * 60 + [1] * 240
    random.Random(300).shuffle(MR_SHAPE)
    MR_300 = " ".join(map(str, MR_SHAPE))

    def test_sampled_graphs_leave_no_edge_text_cached(self):
        # Walk leaves share their edges, sampled graphs few: a long batch of
        # samples must not keep the text of every edge it wrote.
        d = validate_input_sequence(self.MR_SHAPE)
        out = StringIO()
        with _Emitter(out, len(self.MR_SHAPE), d, "text") as emitter:
            for k in range(3):
                emitter.graph(molloy_reed_sample(d, 5, stream=k)[0], "\n")
            assert emitter.parts and emitter.text == {}
        assert out.getvalue().count("graph n=300 m=180\n") == 3

    @pytest.mark.parametrize("policy", NodeSelectionPolicy)
    def test_construct_builds_no_graph(self, policy, monkeypatch):
        # construct writes the builder's rows: no edge set, no LabeledGraph.
        text = "2 0 3 1 2 0 2 2 5 1 0 4 3 1 0"
        want = invoke(["construct", "-s", text, "--policy", policy.value])

        def refuse(*args):
            raise AssertionError("construct built a LabeledGraph")

        monkeypatch.setattr(LabeledGraph, "_trusted", classmethod(refuse))
        monkeypatch.setattr(LabeledGraph, "__init__", refuse)
        assert want[0] == 0
        assert invoke(["construct", "-s", text, "--policy", policy.value]) == want
        with pytest.raises(AssertionError):
            havel_hakimi_construct(validate_input_sequence([int(x) for x in text.split()]))

    @pytest.mark.parametrize("text, fmt, want", [
        ("", "text", (2, "", "error: empty degree-sequence line\n")),
        ("0", "text", (0, "graph n=1 m=0\nrestarts=0 cg_rejects=0\n\n" * 3, "")),
        ("0", "jsonlines", (0, '{"n":1,"edges":[]}\nrestarts=0 cg_rejects=0\n\n' * 3, "")),
        ("0 0", "text", (0, "graph n=2 m=0\nrestarts=0 cg_rejects=0\n\n" * 3, "")),
        ("1 1", "text", (0, "graph n=2 m=1\n1 2\nrestarts=0 cg_rejects=0\n\n" * 3, "")),
        ("1 1", "jsonlines",
         (0, '{"n":2,"edges":[[1,2]]}\nrestarts=0 cg_rejects=0\n\n' * 3, "")),
        (MR_300, "text",
         "e74f768edba764b0e614b3006ad20b88a313daa5bb545509f02016ed940b9518"),
        (MR_300, "jsonlines",
         "c3110a33b680d552ba107a96b8927d2f06d40527d7409e52ff06db6a5ece74e8"),
    ])
    def test_mr_sample_pinned(self, text, fmt, want):
        # The bytes that the row writer wrote before sorted pairs replaced it,
        # for n = 0..2 and 300 input positions; at 300 by their SHA-256.
        got = invoke(["sample", "-s", text, "--method", "mr", "--early-reject",
                      "--samples", "3", "--seed", "5", "--format", fmt])
        if isinstance(want, str):
            code, out, err = got
            got, want = (code, hashlib.sha256(out.encode()).hexdigest(), err), (0, want, "")
        assert got == want


    W24, W32, W40 = map(weighted_shape, (24, 32, 40))

    @pytest.mark.parametrize("text, fmt, want", [
        ("0", "text", (0, "graph n=1 m=0\np=1/1\n\n" * 3, "")),
        ("0", "jsonlines", (0, '{"n":1,"edges":[]}\np=1/1\n\n' * 3, "")),
        ("0 0", "text", (0, "graph n=2 m=0\np=1/1\n\n" * 3, "")),
        ("0 0", "jsonlines", (0, '{"n":2,"edges":[]}\np=1/1\n\n' * 3, "")),
        ("1 1", "text", (0, "graph n=2 m=1\n1 2\np=1/1\n\n" * 3, "")),
        ("1 1", "jsonlines", (0, '{"n":2,"edges":[[1,2]]}\np=1/1\n\n' * 3, "")),
        ("2 2 2", "text", (0, "graph n=3 m=3\n1 2\n1 3\n2 3\np=1/1\n\n" * 3, "")),
        ("2 2 2", "jsonlines",
         (0, '{"n":3,"edges":[[1,2],[1,3],[2,3]]}\np=1/1\n\n' * 3, "")),
        (W24, "text", "d0b312300bc49144a1abef89901201aa283ca7791ab72454da6f7b8fa4526daa"),
        (W24, "jsonlines", "7b5b210c87875fe534171a51ae6e28f4dff0f2554851891afbe351c66edd5c23"),
        (W32, "text", "01b825d099e8986e32d79b479d8f77269e27504b032ce9d40760544452859dd4"),
        (W32, "jsonlines", "532f0d14a8944438f39abc35771776ca84b291dff1c878cbffdfd27113e0bce5"),
        (W40, "text", "c36f09c2d0ae17339283d76b6190a4a167f76582fa72bc245fd2e895e39f8c2b"),
        (W40, "jsonlines", "1ac07a329278e9f94eb603e964e2160aa13540fd203c989ad2b69be0dea89935"),
    ])
    def test_weighted_sample_pinned(self, text, fmt, want):
        # Which graph and probability each seed yields, fixed in bytes, for
        # n = 1..3 and the bench shapes; at those by their SHA-256.
        got = invoke(["sample", "-s", text, "--method", "weighted",
                      "--samples", "3", "--seed", "5", "--format", fmt])
        if isinstance(want, str):
            code, out, err = got
            got, want = (code, hashlib.sha256(out.encode()).hexdigest(), err), (0, want, "")
        assert got == want


@pytest.mark.parametrize("unbuffered", [True, False])
class TestClosedPipe:
    """A reader that goes away ends the batch: one error line, exit 2."""

    BROKEN = b"error: [Errno 32] Broken pipe\n"

    # The first line alone has 9,308 graphs, far more than a pipe holds.
    BATCH = b"4 2 4 1 3 4 2 3 1\n3 3 3 3\n2 2 2\n"

    @staticmethod
    def spawn(unbuffered, *argv, stderr=subprocess.PIPE):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "graphreal", *argv], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
        )

    def test_reader_leaves_after_one_line(self, unbuffered):
        with self.spawn(unbuffered, "enumerate") as proc:
            proc.stdin.write(self.BATCH)
            proc.stdin.close()
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert first == b"graph n=9 m=12\n"
            assert (proc.wait(timeout=60), err) == (2, self.BROKEN)

    def test_stderr_on_the_same_pipe(self, unbuffered):
        # The error line cannot be written either; the exit code still says so.
        with self.spawn(unbuffered, "enumerate", stderr=subprocess.STDOUT) as proc:
            proc.stdin.write(self.BATCH)
            proc.stdin.close()
            first = proc.stdout.readline()
            proc.stdout.close()
            assert first == b"graph n=9 m=12\n"
            assert proc.wait(timeout=60) == 2

    def test_reader_gone_before_the_first_write(self, unbuffered):
        with self.spawn(unbuffered, "count") as proc:
            proc.stdout.close()
            proc.stdin.write(b"2 2 2\n3 3 3 3\n")
            proc.stdin.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (2, self.BROKEN)


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "graphreal", *argv], capture_output=True, text=True
    )


class TestIntegersBeyondTheDigitLimit:
    """(3199)!! has 4,914 digits, past the 4,300 that ``str`` allows."""

    ONES = " ".join(["1"] * 3200)

    def double_factorial(self):
        with unlimited_int_digits():
            return str(math.prod(range(1, 3200, 2)))

    def test_count(self):
        proc = _cli("count", "-s", self.ONES)
        assert (proc.returncode, proc.stderr) == (0, "")
        want = self.double_factorial()
        assert len(want) > 4300
        assert proc.stdout == f"count={want} memo_entries=1600\n"

    def test_estimate(self):
        proc = _cli("estimate", "-s", self.ONES, "--samples", "2", "--seed", "1")
        assert (proc.returncode, proc.stderr) == (0, "")
        want = self.double_factorial()
        assert proc.stdout == f"estimate={want}.000000 stderr=0.000000 exact=unknown\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphreal", "test", "-s", "2 2 2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "graphical\n"
