"""Seeded inputs for each workload, as lists of CLI operations with checks.

A workload builder takes a ``random.Random`` seeded from the benchmark's
``--seed`` and returns the operations of one round.  Every round of a run
repeats the same operations; only the sampler seed of the ``sample``
operations moves on by one per round (``Op.sampler_seed``), so that a run
averages over more random paths and restarts.  Expected outputs come from
``checks`` and from how the inputs were generated, never from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks

# The rate that items_per_s stands for, per workload.
ITEM_METRIC = {
    "enumerate-stream": "graphs_per_s",
    "count-exact": "counts_per_s",
    "sample-weighted": "weighted_samples_per_s",
    "sample-estimate": "estimate_draws_per_s",
    "sample-mr": "mr_samples_per_s",
    "decide-test": "tests_per_s",
    "decide-construct": "constructs_per_s",
}


@dataclass
class Op:
    """One CLI invocation: ``graphreal <argv>`` with ``stdin``.

    ``exit_codes[0]`` is the expected exit code, and ``check`` validates
    stdout under it; further codes are accepted as a clean refusal.
    ``expected`` states the reference the check holds the output to.
    ``items`` count towards items_per_s when ``timed``.  ``known_fault``
    marks an operation expected to fail until a program fault is fixed:
    it is counted in ``failed`` without making the run incorrect.
    """

    argv: list[str]
    items: int
    check: Callable[[str], object]
    expected: str = ""
    stdin: str | None = None
    exit_codes: tuple[int, ...] = (0,)
    timed: bool = True
    known_fault: bool = False
    sampler_seed: int | None = None

    def round_argv(self, round_index: int) -> list[str]:
        if self.sampler_seed is None:
            return self.argv
        return self.argv + ["--seed", str((self.sampler_seed + round_index) & 0xFFFFFFFF)]


@dataclass
class Workload:
    ops: list[Op]
    # Cross-operation check over one round's check results and stdouts;
    # returns the indices of operations that break it.
    round_check: Callable[[list, list[str]], list[int]] = lambda results, outs: []
    # Inputs whose sorted multisets feed the adjacency-set layer timing.
    adjacency_inputs: list[list[int]] = field(default_factory=list)


def seq_text(degrees) -> str:
    return " ".join(str(x) for x in degrees)


def lines_text(sequences) -> str:
    return "".join(seq_text(d) + "\n" for d in sequences)


def permuted(rng: random.Random, multiset) -> list[int]:
    """A labelling of the multiset that is not nonincreasing, so the CLI's
    relabelling is never the identity."""
    degs = list(multiset)
    if len(set(degs)) < 2:
        raise ValueError("a constant sequence has no non-identity labelling")
    while True:
        rng.shuffle(degs)
        if degs != sorted(degs, reverse=True):
            return degs


# --- enumerate-stream -------------------------------------------------------

# Nine nodes, twelve edges, 9,308 realizations: small enough for several
# rounds per run.  One multiset, because the --threads run holds whole
# subtrees in memory and its peak RSS follows their size.
ENUM_MULTISET = (4, 4, 4, 3, 3, 2, 2, 1, 1)
ENUM_LIMIT = 3_000


def enumerate_stream(rng: random.Random) -> Workload:
    degs = permuted(rng, ENUM_MULTISET)
    total = checks.count_realizations(degs)
    # The --limit prefix is taken from a space of 168,569,483,062,365 graphs.
    big = permuted(rng, [3] * 8 + [4] * 6)
    assert checks.count_realizations(big) > 1000 * ENUM_LIMIT
    s, b = seq_text(degs), seq_text(big)

    def stream(fmt, text_degs, expected):
        return lambda out: checks.check_graph_stream(out, fmt, text_degs, expected)

    every = f"{total} distinct graphs with degrees {s} in input order"
    ops = [
        Op(["enumerate", "-s", s], total, stream("text", degs, total), every),
        Op(["enumerate", "-s", s, "--format", "jsonlines"], total,
           stream("jsonlines", degs, total), every + ", the same set as text"),
        Op(["enumerate", "-s", s, "--threads", "2", "--ordered"], total,
           lambda out: None, "byte-identical to the serial text output"),
        Op(["enumerate", "-s", b, "--limit", str(ENUM_LIMIT)], ENUM_LIMIT,
           stream("text", big, ENUM_LIMIT),
           f"{ENUM_LIMIT} distinct graphs with degrees {b} "
           f"(of {checks.count_realizations(big)})"),
    ]

    def round_check(results, outs):
        bad = []
        if set(results[0]) != set(results[1]):
            bad.append(1)  # text and jsonlines disagree on the graph set
        if outs[2] != outs[0]:
            bad.append(2)  # --threads 2 --ordered differs from serial
        return bad

    return Workload(ops, round_check)


# --- count-exact ------------------------------------------------------------

REGULAR = [(3, 16), (4, 13), (5, 12)]
MIXED_SIZES = (12, 13, 14)


def mixed_sequences(rng: random.Random) -> list[list[int]]:
    """Near-regular sequences: an even number of degree-3 nodes close to
    a third of n, the rest degree 4, in seeded label order."""
    out = []
    for n in MIXED_SIZES:
        threes = 2 * round(n / 6)
        out.append(permuted(rng, [3] * threes + [4] * (n - threes)))
    return out


def count_exact(rng: random.Random) -> Workload:
    regular = [[k] * n for k, n in REGULAR]
    want_regular = []
    for k, n in REGULAR:
        want = checks.count_realizations([k] * n)
        published = checks.OEIS.get(k, {}).get(n)
        assert published is None or published == want, (k, n)
        want_regular.append(want)
    mixed = mixed_sequences(rng)
    want_mixed = [checks.count_realizations(d) for d in mixed]
    ops = [
        Op(["count"], len(regular),
           lambda out: checks.check_counts(out, want_regular),
           f"counts {want_regular} (OEIS A002829, A005815 where listed)",
           stdin=lines_text(regular)),
        Op(["count"], len(mixed),
           lambda out: checks.check_counts(out, want_mixed),
           f"counts {want_mixed} of {[seq_text(d) for d in mixed]}",
           stdin=lines_text(mixed)),
    ]
    return Workload(ops, adjacency_inputs=mixed)


# --- sampling ---------------------------------------------------------------

# Sparse: 70 % of the degrees are 2, the rest split evenly between 1 and 3.
WEIGHTED_SIZES = (24, 32, 40)
WEIGHTED_SAMPLES = 4


def composed(rng: random.Random, counts: dict[int, int]) -> list[int]:
    """A seeded labelling of the multiset with ``counts[d]`` nodes of
    degree d, checked graphical by the benchmark's own Erdos-Gallai test.
    The multiset is fixed so that the work per round does not depend on
    the seed; the labelling and the sampler seeds do."""
    degs = permuted(rng, [d for d, c in sorted(counts.items()) for _ in range(c)])
    if not is_graphical(degs):
        raise ValueError(f"composition {counts} is not graphical")
    return degs


def is_graphical(degrees) -> bool:
    d = sorted(degrees, reverse=True)
    if sum(d) % 2:
        return False
    prefix = 0
    for k in range(1, len(d) + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + sum(min(k, x) for x in d[k:]):
            return False
    return True


def sample_weighted(rng: random.Random) -> Workload:
    ops = []
    sequences = []
    for n in WEIGHTED_SIZES:
        tail = round(0.15 * n)
        degs = composed(rng, {1: tail, 2: n - 2 * tail, 3: tail})
        sequences.append(degs)
        argv = ["sample", "-s", seq_text(degs), "--samples", str(WEIGHTED_SAMPLES)]
        ops.append(Op(
            argv, WEIGHTED_SAMPLES,
            lambda out, d=degs: checks.check_weighted_samples(out, d, WEIGHTED_SAMPLES),
            f"{WEIGHTED_SAMPLES} simple graphs with degrees {seq_text(degs)}, each p=1/k",
            sampler_seed=rng.getrandbits(32),
        ))
    return Workload(ops, adjacency_inputs=sequences)


ESTIMATE_DRAWS = 4000
# Medium sequences with about 1.8e11 and 1.8e13 realizations.
ESTIMATE_COMPOSITIONS = ({2: 3, 3: 6, 4: 4}, {2: 2, 3: 8, 4: 4})
ONES_NODES = 30
ONES_DRAWS = 1000
OVERFLOW_ONES = 200


def sample_estimate(rng: random.Random) -> Workload:
    ops = []
    for counts in ESTIMATE_COMPOSITIONS:
        degs = composed(rng, counts)
        exact = checks.count_realizations(degs)
        ops.append(Op(
            ["estimate", "-s", seq_text(degs), "--samples", str(ESTIMATE_DRAWS),
             "--seed", str(rng.getrandbits(32))],
            ESTIMATE_DRAWS,
            lambda out, e=exact: checks.check_estimates(out, [e]),
            f"within 4 stderr of {exact} for {seq_text(degs)}",
        ))
    # Every draw on 1^n has weight (n-1)!!, so the estimate is exact.
    ops.append(Op(
        ["estimate", "-s", seq_text([1] * ONES_NODES), "--samples", str(ONES_DRAWS),
         "--seed", str(rng.getrandbits(32))],
        ONES_DRAWS,
        lambda out: checks.check_estimates(out, [checks.double_factorial(ONES_NODES - 1)]),
        f"exactly {checks.double_factorial(ONES_NODES - 1)} = {ONES_NODES - 1}!! for 1^{ONES_NODES}",
    ))
    # estimate_count's variance divides two huge ints into a float and
    # overflows here; the CLI should print the estimate or exit 2.
    ops.append(Op(
        ["estimate", "-s", seq_text([1] * OVERFLOW_ONES), "--samples", "2", "--seed", "1"],
        2,
        lambda out: checks.check_estimates(
            out, [checks.double_factorial(OVERFLOW_ONES - 1)]),
        f"{OVERFLOW_ONES - 1}!! for 1^{OVERFLOW_ONES}, or exit 2 without a traceback",
        exit_codes=(0, 2),
        timed=False,
        known_fault=True,
    ))
    return Workload(ops)


MR_NODES = 300
MR_TWOS = 60  # the rest have degree 1
MR_SAMPLES = 4


def sample_mr(rng: random.Random) -> Workload:
    ops = []
    for _ in range(2):
        degs = composed(rng, {1: MR_NODES - MR_TWOS, 2: MR_TWOS})
        argv = ["sample", "-s", seq_text(degs), "--method", "mr", "--early-reject",
                "--samples", str(MR_SAMPLES)]
        ops.append(Op(
            argv, MR_SAMPLES,
            lambda out, d=degs: checks.check_mr_samples(out, d, MR_SAMPLES),
            f"{MR_SAMPLES} simple graphs realizing the input ({MR_TWOS} twos, the rest ones)",
            sampler_seed=rng.getrandbits(32),
        ))
    return Workload(ops)


# --- decide -----------------------------------------------------------------


def random_graph(rng: random.Random, n: int, halvings: int):
    """Upper-triangle rows of G(n, 2**-halvings) as int bitmasks, and the
    node degrees (bit j of row i set means edge i-j, i < j)."""
    rows = []
    planes: list[int] = []  # bit-sliced per-column counts of edges from above
    for i in range(n):
        bits = rng.getrandbits(n)
        for _ in range(halvings - 1):
            bits &= rng.getrandbits(n)
        bits &= ~((1 << (i + 1)) - 1)
        rows.append(bits)
        carry = bits
        for b in range(len(planes)):
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    below = [sum(((p >> j) & 1) << b for b, p in enumerate(planes)) for j in range(n)]
    degrees = [rows[i].bit_count() + below[i] for i in range(n)]
    return rows, degrees


def neighbours(rows, v: int) -> set[int]:
    """0-based neighbours of node v in the graph given by ``rows``."""
    out = {j for j in range(v + 1, len(rows)) if rows[v] >> j & 1}
    out.update(i for i in range(v) if rows[i] >> v & 1)
    return out


TEST_SIZES = (1000, 2000)
FORBID_SIZE = 1500
ODD_SIZES = (1500, 2000)


def decide_test(rng: random.Random) -> Workload:
    graphical = [random_graph(rng, n, 1)[1] for n in TEST_SIZES]
    ops = [Op(["test"], len(graphical),
              lambda out: checks.check_verdicts(out, [True] * len(graphical)),
              f"graphical: degrees of G(n, 1/2) for n in {TEST_SIZES}; exit 0",
              stdin=lines_text(graphical))]
    for _ in range(2):
        rows, degs = random_graph(rng, FORBID_SIZE, 1)
        # The CLI reads --forbid labels as positions in its sorted sequence,
        # not in the input (a known fault, shown by forbid_in_input_order).
        # These timed calls give the input sorted (nonincreasing), so that
        # both readings agree, and they measure cg_test at full size.
        order = sorted(range(FORBID_SIZE), key=lambda v: -degs[v])
        label = {v: k + 1 for k, v in enumerate(order)}
        focal = rng.randrange(FORBID_SIZE)
        others = sorted(set(range(FORBID_SIZE)) - neighbours(rows, focal) - {focal})
        forbid = sorted(label[v] for v in rng.sample(others, len(others) // 2))
        spec = f"{label[focal]}:{','.join(map(str, forbid))}"
        ops.append(Op(["test", "--forbid", spec], 1,
                      lambda out: checks.check_verdicts(out, [True]),
                      f"graphical: G({FORBID_SIZE}, 1/2) avoids {len(forbid)} "
                      "non-neighbours of the focal node; exit 0",
                      stdin=lines_text([[degs[v] for v in order]])))
    odd = []
    for n in ODD_SIZES:
        degs = random_graph(rng, n, 1)[1]
        degs[rng.randrange(n)] += 1
        odd.append(degs)
    ops.append(Op(["test"], len(odd),
                  lambda out: checks.check_verdicts(out, [False] * len(odd)),
                  f"not-graphical: odd degree sums, n in {ODD_SIZES}; exit 1",
                  stdin=lines_text(odd), exit_codes=(1,)))
    ops.append(forbid_in_input_order())
    return Workload(ops)


def forbid_in_input_order() -> Op:
    """``test --forbid`` with labels in input order, on inputs that do not
    depend on the seed.  Node 1 is a node of least degree in G(n, 1/2) and
    every non-neighbour of it is forbidden, so the answer is graphical.
    The CLI reads label 1 as the node of highest degree, for which that
    many forbidden nodes are too many, and exits 2; the operation is a
    known fault until the labels are read in input order."""
    rows, degs = random_graph(random.Random("decide-test/forbid-in-input-order"),
                              FORBID_SIZE, 1)
    focal = min(range(FORBID_SIZE), key=degs.__getitem__)
    assert max(degs) > degs[focal]
    order = [focal] + [v for v in range(FORBID_SIZE) if v != focal]
    label = {v: k + 1 for k, v in enumerate(order)}
    others = set(range(FORBID_SIZE)) - neighbours(rows, focal) - {focal}
    forbid = sorted(label[v] for v in others)
    return Op(["test", "--forbid", f"1:{','.join(map(str, forbid))}"], 1,
              lambda out: checks.check_verdicts(out, [True]),
              f"graphical: G({FORBID_SIZE}, 1/2) with node 1 of least degree and all "
              f"{len(forbid)} of its non-neighbours forbidden; exit 0",
              stdin=lines_text([[degs[v] for v in order]]),
              timed=False, known_fault=True)


CONSTRUCTS = ((1000, "max"), (1200, "min"), (1500, "fixed"))


def decide_construct(rng: random.Random) -> Workload:
    ops = []
    for n, policy in CONSTRUCTS:
        degs = random_graph(rng, n, 6)[1]
        ops.append(Op(["construct", "--policy", policy], 1,
                      lambda out, d=degs: checks.check_constructs(out, [d]),
                      f"one simple graph with the input degrees, n={n}",
                      stdin=lines_text([degs])))
    return Workload(ops)


BUILDERS = {
    "enumerate-stream": enumerate_stream,
    "count-exact": count_exact,
    "sample-weighted": sample_weighted,
    "sample-estimate": sample_estimate,
    "sample-mr": sample_mr,
    "decide-test": decide_test,
    "decide-construct": decide_construct,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(f"{name}/{seed}"))


def adjacency_multisets(seed: int) -> list[tuple[int, ...]]:
    """Sorted multisets of this seed's count-exact and sample-weighted
    inputs, for timing A(d) generation on its own."""
    inputs = build("count-exact", seed).adjacency_inputs
    inputs += build("sample-weighted", seed).adjacency_inputs
    return [tuple(sorted(d, reverse=True)) for d in inputs]
