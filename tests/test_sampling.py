import decimal
import itertools
import math
import random
import signal
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from io import StringIO

import pytest

from helpers import (
    ESTIMATE_SHAPED,
    HH_GAP_SEQUENCE,
    canonical_set,
    graphical_family,
    recursion_headroom,
)
from kernel_references import estimate_reference, float_sqrt_reference, walk_reference

from graphreal import enumeration, sampling
from graphreal.core import (
    InvalidArgument,
    LabeledGraph,
    NotGraphical,
    RestartBudgetExceeded,
    graph_degree_sequence,
)
from graphreal.cli import run
from graphreal.enumeration import _draw, _groupings, _key, count_realizations, enumerate_all
from graphreal.graphicality import erdos_gallai_test
from graphreal.sampling import (
    SplitMix64,
    enumerate_with_probabilities,
    estimate_count,
    molloy_reed_sample,
    sample_weighted,
)


class TestSplitMix64:
    def test_same_seed_same_stream(self):
        a = SplitMix64.stream(123, 4)
        b = SplitMix64.stream(123, 4)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_distinct_streams_differ(self):
        a = SplitMix64.stream(123, 0)
        b = SplitMix64.stream(123, 1)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_randrange_bounds(self):
        rng = SplitMix64.stream(7, 0)
        draws = [rng.randrange(5) for _ in range(1000)]
        assert set(draws) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", [2**64 + 1, 3 * 2**64, 2**128, 2**128 + 1, 10**40])
    def test_randrange_above_64_bits(self, n):
        # A try joins ceil(bits / 64) words, the first drawn the highest, and
        # is rejected at or above the largest multiple of n below 2**(64 * words).
        rng, words = bounded(SplitMix64.stream(7, 0)), SplitMix64.stream(7, 0)
        k = -(-(n - 1).bit_length() // 64)
        limit = 2 ** (64 * k) // n * n
        for _ in range(50):
            while True:
                u = 0
                for _ in range(k):
                    u = u << 64 | words.next_u64()
                if u < limit:
                    break
            assert rng.randrange(n) == u % n < n

    def test_randrange_up_to_64_bits_draws_one_word(self):
        for n in [1, 2, 5, 2**63 + 1, 2**64 - 1, 2**64]:
            rng, words = bounded(SplitMix64.stream(3, 1)), SplitMix64.stream(3, 1)
            limit = 2**64 // n * n
            for _ in range(20):
                while (u := words.next_u64()) >= limit:
                    pass
                assert rng.randrange(n) == u % n

    @pytest.mark.parametrize("n", [0, -1, -2**70, 1.5, 2.0, math.inf, math.nan, "5", None])
    def test_randrange_refuses_a_bad_bound(self, n):
        # A nan bound used to reject every try and never return.
        def overdue(signum, frame):
            raise TimeoutError("randrange did not return")

        rng = SplitMix64.stream(7, 0)
        state = rng._state
        handler = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(5)
        try:
            with pytest.raises(InvalidArgument):
                rng.randrange(n)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert rng._state == state


class SplitMix64Words:
    """splitmix64 written out on its own: the state advances by the golden
    ratio, and each word mixes the advanced state plus the golden ratio."""

    GOLDEN, MASK = 0x9E3779B97F4A7C15, 2**64 - 1

    def __init__(self, state):
        self.state = state

    def word(self):
        self.state = (self.state + self.GOLDEN) & self.MASK
        z = (self.state + self.GOLDEN) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)


class Budgeted(SplitMix64):
    """A generator that fails once its state has advanced ``words`` times,
    so that a draw that never returns fails instead of hanging.  It counts
    the advances themselves: ``bounded`` wraps ``next_u64``, which draws up
    to 2**64 do not call."""

    def __init__(self, state, words=10_000):
        self.left = words + 1  # one more for the state set here
        super().__init__(state)

    @property
    def _state(self):
        return self.__dict__["_state"]

    @_state.setter
    def _state(self, value):
        self.left -= 1
        if self.left < 0:
            raise AssertionError("the state advanced more than its budget")
        self.__dict__["_state"] = value


@pytest.mark.parametrize("seed, index", [(3, 1), (2**63 + 5, 0)])
def test_randrange_and_next_u64_interleave_word_by_word(seed, index):
    # randrange up to 2**64 draws its words in one frame, without calling
    # next_u64, so compare the state itself after every call, not the calls.
    rng = Budgeted(SplitMix64.stream(seed, index)._state, words=1_000)
    ref = SplitMix64Words(rng._state)
    words = 0
    for _ in range(30):
        for n in [1, 2, 3, 5, 2**32 + 1, 2**63 + 1, 2**64 - 1, 2**64]:
            limit = 2**64 // n * n
            while (u := ref.word()) >= limit:
                words += 1
            assert rng.randrange(n) == u % n
            assert rng._state == ref.state
            assert rng.next_u64() == ref.word()
            assert rng._state == ref.state
            words += 2
    assert rng.left == 1_000 - words


def test_budget_stops_a_draw_that_never_returns(monkeypatch):
    # 2**64 - 1 is the rejection limit for 5, so a mixer that always gives it
    # rejects every try: the budget must end the loop.
    rng = Budgeted(SplitMix64.stream(3, 1)._state, words=50)
    monkeypatch.setattr(sampling, "_mix64", lambda z: 2**64 - 1)
    with pytest.raises(AssertionError, match="budget"):
        rng.randrange(5)


def bounded(rng, words=10_000):
    """``rng`` with at most ``words`` words left to draw, so that a draw
    that never returns fails instead of hanging."""
    draw, left = rng.next_u64, [words]

    def next_u64():
        left[0] -= 1
        if left[0] < 0:
            raise AssertionError(f"more than {words} words drawn")
        return draw()

    rng.next_u64 = next_u64
    return rng


class TestSampleWeighted:
    def test_four_cycle_probability_third(self):
        cycles = canonical_set(enumerate_all((2, 2, 2, 2)))
        for seed in range(10):
            s = sample_weighted((2, 2, 2, 2), seed)
            assert s.probability == Fraction(1, 3)
            assert s.branch_sizes == (3, 1)
            assert s.graph.canonical_edges() in cycles

    def test_probability_is_the_fraction_of_the_int_weight(self):
        for stream in range(5):
            s = sample_weighted(HH_GAP_SEQUENCE, 3, stream)
            graph, weight, sizes = sampling._weighted(HH_GAP_SEQUENCE, 3, stream)
            assert type(s.probability) is Fraction and type(weight) is int
            assert s == sampling.RealizationSample(graph, Fraction(1, weight), sizes)

    def test_single_edge(self):
        s = sample_weighted((1, 1), 0)
        assert s.graph.canonical_edges() == ((1, 2),)
        assert s.probability == 1

    def test_forced_complete_graph(self):
        s = sample_weighted((3, 3, 3, 3), 5)
        assert s.graph.m == 6
        assert s.probability == 1

    def test_probability_is_reciprocal_branch_product(self):
        s = sample_weighted(HH_GAP_SEQUENCE, 11)
        prod = 1
        for b in s.branch_sizes:
            prod *= b
        assert s.probability == Fraction(1, prod)

    def test_deterministic_given_seed(self):
        a = sample_weighted(HH_GAP_SEQUENCE, 42)
        b = sample_weighted(HH_GAP_SEQUENCE, 42)
        assert a == b

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            sample_weighted((3, 2, 1), 0)

    def test_one_graphicality_test_per_sample(self, monkeypatch):
        # sample_weighted tests the input; the descent does not test it again.
        calls = []
        for module in (sampling, enumeration):
            def counting(*args, real=module.erdos_gallai_test):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(module, "erdos_gallai_test", counting)
        sample_weighted(HH_GAP_SEQUENCE, 1)
        assert len(calls) == 1
        with pytest.raises(NotGraphical, match=r"^\[3, 2, 1\] is not graphical$"):
            sample_weighted((3, 2, 1), 0)
        assert len(calls) == 2

    def test_probability_matches_enumeration(self):
        # The sampler and the full walk give each graph the same probability.
        for seq in graphical_family(max_n=6):
            probs = {
                g.canonical_edges(): p for g, p in enumerate_with_probabilities(seq)
            }
            for seed in range(3):
                s = sample_weighted(seq, seed)
                assert s.probability == probs[s.graph.canonical_edges()], (seq, seed)

    def test_tree_deeper_than_recursion_limit(self):
        # 200 levels in the construction tree, with 100 frames to spare.
        with recursion_headroom(100):
            s = sample_weighted((1,) * 400, 1)
        assert s.graph.m == 200

    def test_every_draw_reaches_a_distinct_realization(self):
        # Replay every sequence of drawn indices: together they reach each
        # realization exactly once, with its enumeration probability.
        for seq in graphical_family(max_n=6):
            probs = {
                g.canonical_edges(): p for g, p in enumerate_with_probabilities(seq)
            }
            reached = {}
            for edges, sizes in every_draw(seq):
                graph = LabeledGraph(len(seq), edges).canonical_edges()
                assert graph not in reached, (seq, graph)
                reached[graph] = Fraction(1, math.prod(sizes))
            assert reached == probs, seq

    def test_large_first_level_is_not_built(self):
        # A(d) of the first node holds about 6e6 sets; one draw needs none.
        d = (3, 3) + (1,) * 330
        s = sample_weighted(d, 1)
        assert s.graph.m == (6 + 330) // 2
        assert s.branch_sizes[0] == math.comb(330, 2) + math.comb(330, 3)
        assert estimate_count(d, 3, 1).estimate > 0


def every_draw(seq):
    """``(edges, branch_sizes)`` of the sampler's descent for every sequence
    of drawn indices, counted like an odometer over the branch sizes; each
    equal to the reference walk's, with the same calls to pick."""
    path = []
    while True:
        got, want = [], []
        edges, sizes = _draw(seq, replayed(path, got))
        assert (edges, sizes) == next(walk_reference(seq, replayed(path, want))), path
        assert got == want, path
        yield edges, sizes
        path += [0] * (len(sizes) - len(path))
        while path and path[-1] + 1 == sizes[len(path) - 1]:
            path.pop()
        if not path:
            return
        path[-1] += 1


def replayed(path, pick_log):
    """A pick that returns the indices of ``path``, then 0, and logs each
    argument."""
    replay = iter(path)

    def pick(k):
        pick_log.append(k)
        return next(replay, 0)

    return pick


def test_weighted_sampling_never_walks(monkeypatch, tmp_path):
    # Weighted sampling descends one path in ``_draw``: it gives the same
    # samples, in the library and on the command line, when the enumeration
    # walk refuses to run.
    path = tmp_path / "seqs.txt"
    path.write_text("2 2 2 2\n1 0 3 2 0 2 0 1 0 2 3 0\n3 2 1\n0\n")

    def batch():
        out, err = StringIO(), StringIO()
        codes = [run(["sample", "--method", "weighted", "--samples", "3", "--seed", "4",
                      "--format", fmt, str(path)], out=out, err=err)
                 for fmt in ("text", "jsonlines")]
        return codes, out.getvalue(), err.getvalue()

    family = graphical_family(max_n=6)
    want = [sample_weighted(seq, seed) for seq in family for seed in range(2)]
    want_cli = batch()

    def refuse(*args, **kwargs):
        raise AssertionError("weighted sampling entered the enumeration walk")

    monkeypatch.setattr(enumeration, "_walk", refuse)
    with pytest.raises(AssertionError):
        list(enumerate_with_probabilities((1, 1)))
    assert [sample_weighted(seq, seed) for seq in family for seed in range(2)] == want
    assert batch() == want_cli
    assert want_cli[0] == [1, 1] and want_cli[2].count("error:") == 2


class TestProbabilities:
    def test_normalization_exact(self):
        for seq in graphical_family(max_n=6):
            total = sum(p for _, p in enumerate_with_probabilities(seq))
            assert total == 1, seq

    def test_estimator_identity_exact(self):
        for seq in graphical_family(max_n=6):
            total = sum(p * (1 / p) for _, p in enumerate_with_probabilities(seq))
            assert total == count_realizations(seq).count, seq

    def test_distribution_is_not_uniform_somewhere(self):
        found = False
        for seq in graphical_family(max_n=6):
            probs = {p for _, p in enumerate_with_probabilities(seq)}
            if len(probs) > 1:
                found = True
                break
        assert found


class TestEstimateCount:
    def test_uniform_case_is_exact(self):
        r = estimate_count((2, 2, 2, 2), samples=50, seed=3)
        assert r.estimate == 3
        assert r.stderr == 0.0

    def test_single_edge(self):
        assert estimate_count((1, 1), samples=5, seed=0).estimate == 1

    @pytest.mark.parametrize("samples", [1, 2, 40])
    def test_estimate_is_the_fraction_of_the_int_total(self, samples):
        r = estimate_count(HH_GAP_SEQUENCE, samples, 4)
        total, stderr, n = sampling._estimate(HH_GAP_SEQUENCE, samples, 4)
        assert type(r.estimate) is Fraction and type(total) is int
        assert r == sampling.CountEstimate(Fraction(total, n), stderr, n)
        assert (r.stderr == math.inf) == (samples == 1)

    def test_deterministic(self):
        a = estimate_count(HH_GAP_SEQUENCE, samples=200, seed=9)
        b = estimate_count(HH_GAP_SEQUENCE, samples=200, seed=9)
        assert a == b

    def test_weights_beyond_float_range(self):
        # Every draw on 1^200 has weight 199!!, about 6.7e186.
        r = estimate_count((1,) * 200, 2, 1)
        assert r.estimate == math.prod(range(1, 200, 2))
        assert r.stderr == 0.0

    def test_stderr_of_weights_beyond_float_range(self):
        # Weights near 1e195 that differ: the variance exceeds the float range,
        # the standard error does not.
        d, n = (2,) * 4 + (1,) * 200, 4
        weights = [1 / sample_weighted(d, 6, stream=i).probability for i in range(n)]
        assert len(set(weights)) > 1
        spread = Fraction(
            n * sum(w * w for w in weights) - sum(weights) ** 2, n * n * (n - 1)
        )
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            want = float((Decimal(spread.numerator) / spread.denominator).sqrt())
        assert estimate_count(d, n, 6).stderr == pytest.approx(want, rel=1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            estimate_count((1, 1), samples=0, seed=0)

    def test_equals_labelled_walk_reference(self):
        # Descending degree multisets draws the same indices and weights as
        # the labelled walk, so estimate, stderr and samples agree exactly.
        for seq in graphical_family(max_n=6):
            for seed in (0, 7, 2**31 + 7):
                got = estimate_count(seq, 12, seed)
                assert got == estimate_reference(seq, 12, seed), (seq, seed)
        assert estimate_count((2, 1, 1), 1, 3) == estimate_reference((2, 1, 1), 1, 3)

    @pytest.mark.parametrize("seq", ESTIMATE_SHAPED)
    def test_equals_reference_on_unsorted_medium_sequences(self, seq):
        assert sorted(seq, reverse=True) != list(seq)
        for seed in (1, 12345):
            assert estimate_count(seq, 300, seed) == estimate_reference(seq, 300, seed)

    def test_equals_reference_on_family_of_seven(self):
        for seq in graphical_family(max_n=7):
            for seed in (3, 2**40 + 1):
                got = estimate_count(seq, 8, seed)
                assert got == estimate_reference(seq, 8, seed), (seq, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference_through_tails_of_ones(self, seed):
        # Below the head every multiset is ones, whose single grouping per
        # level gives a fixed weight: draws stop there in mid-descent.
        rng = random.Random(seed)
        while True:
            head = sorted((rng.randint(2, 5) for _ in range(rng.randint(3, 6))),
                          reverse=True)
            seq = head + [1] * rng.randint(20, 40)
            if sum(seq) % 2:
                seq.append(1)
            if erdos_gallai_test(seq).graphical:
                break
        rng.shuffle(seq)
        assert len(_groupings(_key(seq))[1]) > 1
        table = {(): (1, None, None)}
        assert sampling._node(table, _key([1] * 40)) == (
            math.prod(range(1, 40, 2)), None, None)
        for draw_seed in (seed, 2**33 + seed):
            assert estimate_count(seq, 40, draw_seed) == estimate_reference(
                seq, 40, draw_seed)

    def test_entries_hold_child_keys_not_groupings(self):
        # (5, 4, 4, 4, 4, 3) has one grouping, and its child several: the
        # chain above a branching entry keeps its one child key too.
        root = _key((5, 4, 4, 4, 4, 3))
        ((_, ways, key),) = _groupings(root)[1]
        size, groupings = _groupings(key)
        assert len(groupings) > 1
        table = {(): (1, None, None)}
        assert sampling._node(table, root) == (ways, (ways,), (key,))
        assert table[key] == (size, tuple(itertools.accumulate(w for _, w, _ in groupings)),
                              tuple(child for _, _, child in groupings))

    def test_multiword_draw_on_a_branching_level(self):
        seq = (34,) + (2,) * 10 + (1,) * 66
        size, groupings = _groupings(_key(seq))
        assert size > 2**64 and len(groupings) > 1
        for seed in (1, 2, 99):
            assert estimate_count(seq, 10, seed) == estimate_reference(seq, 10, seed)

    def test_table_emptied_when_full(self, monkeypatch):
        # A wide, varied sequence: 200 draws reach thousands of multisets.
        # With room for 64 the table is emptied many times over; the
        # estimate must not change and the call's peak must stay small.
        rng = random.Random(1)
        while True:
            seq = [rng.randint(1, 4) for _ in range(80)]
            if sum(seq) % 2 == 0 and erdos_gallai_test(seq).graphical:
                break
        want = estimate_reference(seq, 200, 1)
        node, sizes = sampling._node, []

        def spy(table, key):
            sizes.append(len(table))
            return node(table, key)

        monkeypatch.setattr(sampling, "_node", spy)
        monkeypatch.setattr(sampling, "_ENTRIES", 64)
        tracemalloc.start()
        try:
            got = estimate_count(seq, 200, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert len(sizes) > 20 * 64 and max(sizes) <= 64 + len(seq)
        assert peak < 512 * 1024  # 2.3 MiB with no bound

    def test_deep_single_grouping_chain(self):
        # 1^3200 has 1,600 levels of one grouping each: no recursion.
        with recursion_headroom():
            r = estimate_count((1,) * 3200, 3, 1)
        assert r.estimate == math.prod(range(1, 3200, 2))
        assert r.stderr == 0.0

    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_bad_sample_count_is_invalid_argument(self, samples):
        with pytest.raises(InvalidArgument):
            estimate_count((1, 1), samples=samples, seed=0)


class TestFloatSqrt:
    """``_float_sqrt(num, den)`` on ints equals the root taken on
    ``Fraction(num, den)``, fallbacks included."""

    def test_equals_root_of_the_fraction_on_random_pairs(self):
        rng, branches = random.Random(22), Counter()
        for _ in range(5000):
            num = rng.randrange(10 ** rng.randint(1, 700))
            den = rng.randrange(1, 10 ** rng.randint(1, 40))
            got = sampling._float_sqrt(num, den)
            assert got == float_sqrt_reference(Fraction(num, den)), (num, den)
            branches["inf" if got == math.inf else
                     "isqrt" if num // den > 10**309 else "float"] += 1
        assert min(branches[b] for b in ("float", "isqrt", "inf")) > 300

    @pytest.mark.parametrize("num, den, want", [
        (0, 7, 0.0), (49, 1, 7.0), (98, 2, 7.0), (1, 4, 0.5),
        (10**400, 1, 1e200), (6 * 10**500, 6, 1e250),
        (10**700, 3, math.inf),
    ], ids=["zero", "square", "unreduced", "below-one", "beyond-float",
            "beyond-float-unreduced", "beyond-float-root"])
    def test_exact_roots_and_fallbacks(self, num, den, want):
        assert sampling._float_sqrt(num, den) == want
        assert float_sqrt_reference(Fraction(num, den)) == want


@pytest.mark.parametrize("seed, stream", [(1.5, 0), ("1", 0), (None, 0), (1, 0.5)])
def test_non_integer_seed_or_stream(seed, stream):
    # sample_weighted((1, 1), seed=1.5) used to raise a raw TypeError.
    with pytest.raises(InvalidArgument):
        sample_weighted((1, 1), seed, stream=stream)
    with pytest.raises(InvalidArgument):
        molloy_reed_sample((1, 1), seed, stream=stream)
    if stream == 0:
        with pytest.raises(InvalidArgument):
            estimate_count((1, 1), 2, seed)


class TestMolloyReed:
    def test_single_pairing(self):
        g, stats = molloy_reed_sample((1, 1), seed=0)
        assert g.canonical_edges() == ((1, 2),)
        assert stats.restarts == 0

    def test_triangle(self):
        g, stats = molloy_reed_sample((2, 2, 2), seed=1)
        assert g.m == 3
        _, d = graph_degree_sequence(g)
        assert d.degrees == (2, 2, 2)

    def test_realizes_sequence_with_early_reject(self):
        g, _ = molloy_reed_sample(HH_GAP_SEQUENCE, seed=4, early_reject=True)
        _, d = graph_degree_sequence(g)
        assert d.degrees == HH_GAP_SEQUENCE

    def test_deterministic_given_seed(self):
        a = molloy_reed_sample(HH_GAP_SEQUENCE, seed=8, early_reject=True)
        b = molloy_reed_sample(HH_GAP_SEQUENCE, seed=8, early_reject=True)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_roughly_uniform_on_four_cycles(self):
        # Acceptance runs the full 30000-sample check; this is a smoke test.
        counts = Counter(
            molloy_reed_sample((2, 2, 2, 2), seed=0, stream=k)[0].canonical_edges()
            for k in range(3000)
        )
        assert len(counts) == 3
        for freq in counts.values():
            assert abs(freq / 3000 - 1 / 3) < 0.05

    def test_budget_exceeded(self):
        with pytest.raises(RestartBudgetExceeded) as info:
            molloy_reed_sample((2, 2, 2), seed=0, budget=1)
        assert info.value.stats is not None

    @pytest.mark.parametrize("budget", [None, 1.5, "10"])
    def test_non_integer_budget(self, budget):
        # budget=None used to raise a raw TypeError; 1.5 was accepted.
        with pytest.raises(InvalidArgument):
            molloy_reed_sample((1, 1), 0, budget=budget)

    def test_not_graphical(self):
        with pytest.raises(NotGraphical):
            molloy_reed_sample((1, 1, 1), seed=0)
