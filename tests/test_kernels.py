"""The fast graphicality kernels against their literal references.

The Erdos-Gallai test must give the reference's whole report and its kernel
on degree counts the reference's first violated k, the Havel-Hakimi
construction the reference's edge set (or its error type), its row builder
the public graph renamed (or the public error), ``cg_test`` and
its residual-count kernel the verdict of the explicit
leftmost-restricted set, reduction and Erdos-Gallai composition,
Molloy-Reed sampling the graphs and statistics of the reference that runs
``cg_test`` after every connection, its stub tree the node that the
reference's scan of the residuals finds, and the groupings of A(d) on degree
counts the picks, ways and child multisets of the sorted-tuple reference.
"""

import itertools
import random
import time

import pytest

from helpers import HH_GAP_SEQUENCE, exhaustive_family, graphical_family
from kernel_references import (
    draw_stub_reference,
    erdos_gallai_reference,
    groupings_reference,
    havel_hakimi_reference,
    molloy_reed_reference,
)

from graphreal import constrained, sampling
from graphreal.construction import _hh_rows
from graphreal.constrained import _cg_counts, cg_test, leftmost_restricted, reduce_by_set
from graphreal.core import (
    DegreeTooLarge,
    ForbiddenSet,
    GraphRealError,
    InvalidArgument,
    InvalidDegree,
    InvalidSet,
    NotGraphical,
)
from graphreal.enumeration import _groupings, _key, count_realizations
from graphreal.graphicality import (
    NodeSelectionPolicy,
    _eg_counts,
    _residual_counts,
    erdos_gallai_test,
    havel_hakimi_construct,
)
from graphreal.oracle import OracleQuery, oracle_exists
from graphreal.sampling import _stub_tree, _take_stub


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the library error it raised."""
    try:
        return fn(*args)
    except GraphRealError as exc:
        return type(exc)


def threshold_family(rng, n):
    """``family(a)``: k nodes of degree about a over n - k nodes of low degree,
    with an even sum; Erdos-Gallai fails once a is too large for k."""
    k = rng.randint(2, n // 3)
    low = [rng.randint(1, rng.randint(1, k)) for _ in range(n - k)]
    dents = [0] + [rng.randint(0, 2) for _ in range(k - 1)]

    def family(a):
        seq = [a - e for e in dents] + low
        seq[-1] += sum(seq) % 2
        return seq

    return family


def large_sequences():
    """32 seeded sequences with n in 200..2000, four per n: a random one,
    the last graphical member of a threshold family (``tight``), the next
    member (``past``, not graphical) and ``tight`` with an odd sum."""
    rng = random.Random(20110101)
    out = []
    for n in (200, 300, 450, 650, 900, 1200, 1600, 2000):
        family = threshold_family(rng, n)
        lo, hi = 3, n  # family(3) is graphical, family(n) has a degree n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if erdos_gallai_test(family(mid)).graphical:
                lo = mid
            else:
                hi = mid
        tight = family(lo)
        odd = tight[:-1] + [tight[-1] + 1]
        base = [rng.randint(1, rng.randint(1, n - 1)) for _ in range(n)]
        out += [base, tight, family(hi), odd]
    return out


def small_seeded_sequences():
    """2,000 seeded sequences in any order with n <= 40 and degrees up to
    60, zeros included; one in five has a degree of 10**18."""
    rng = random.Random(40)
    out = []
    for t in range(2000):
        n = rng.randint(1, 40)
        top = rng.choice((3, 10, 25, 60))
        seq = [rng.randint(0, top) for _ in range(n)]
        if t % 5 == 0:
            seq[rng.randrange(n)] = 10**18
        out.append(seq)
    return out


class TestErdosGallaiKernel:
    @pytest.mark.parametrize("check_all_k", [False, True])
    def test_exhaustive(self, check_all_k):
        for seq in exhaustive_family(max_n=7, max_deg=7):
            assert erdos_gallai_test(seq, check_all_k) == erdos_gallai_reference(
                seq, check_all_k
            ), seq

    def test_large_seeded(self):
        sequences = large_sequences()
        verdicts = []
        for seq in sequences:
            for check_all_k in (False, True):
                want = erdos_gallai_reference(seq, check_all_k)
                assert erdos_gallai_test(seq, check_all_k) == want, len(seq)
            verdicts.append(want)
        # The family straddles the threshold, past the cutoff's first prefix.
        bases, tight, past, odd = (verdicts[i::4] for i in range(4))
        assert all(r.graphical for r in tight)
        assert all(r.parity_ok and r.first_violated_k > 1 for r in past)
        assert not any(r.parity_ok for r in odd)
        assert {r.graphical for r in bases} == {True, False}

    @pytest.mark.parametrize("check_all_k", [False, True])
    def test_small_seeded(self, check_all_k):
        for seq in small_seeded_sequences():
            assert erdos_gallai_test(seq, check_all_k) == erdos_gallai_reference(
                seq, check_all_k
            ), seq

    def test_counts_kernel(self):
        # Erdos-Gallai on counts per degree: the first violated k, or 0.
        for seq in [*exhaustive_family(max_n=7, max_deg=7), *large_sequences()]:
            counts = _residual_counts(seq)
            want = erdos_gallai_reference(seq).first_violated_k or 0
            assert _eg_counts(counts) == want, seq

    def test_negative_entry_raises(self):
        with pytest.raises(InvalidDegree):
            erdos_gallai_test((1, 1, 1, -1))
        with pytest.raises(InvalidDegree):
            erdos_gallai_test((1, 1, 1, -1), check_all_k=True)


class TestHavelHakimiKernel:
    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_exhaustive_sorted_and_shuffled(self, policy):
        rng = random.Random(6)
        for seq in exhaustive_family(max_n=6, max_deg=5):
            shuffled = tuple(rng.sample(seq, len(seq)))
            for order in (seq, shuffled):
                want = outcome(havel_hakimi_reference, order, policy)
                assert outcome(havel_hakimi_construct, order, policy) == want, order

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_random_with_zeros(self, policy):
        rng = random.Random(60)
        sequences = [(1, 10**12, 1)]  # a later degree must not size the buckets
        for _ in range(400):
            n = rng.randint(1, 60)
            top = rng.randint(0, n)
            sequences.append(tuple(rng.randint(0, top) for _ in range(n)))
        for seq in sequences:
            want = outcome(havel_hakimi_reference, seq, policy)
            assert outcome(havel_hakimi_construct, seq, policy) == want, seq

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_negative_entry_raises(self, policy):
        with pytest.raises(InvalidDegree):
            havel_hakimi_construct((1, -1, 1), policy)

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_large_buckets(self, policy):
        # Few distinct degrees in random order over many nodes: buckets of
        # hundreds of labels, which targets leave and enter out of label order.
        rng = random.Random(23)
        for n in (500, 800, 1200, 2000):
            degrees = rng.sample(range(1, 9), rng.randint(2, 3))
            seq = [rng.choice(degrees) for _ in range(n)]
            seq[-1] += sum(seq) % 2
            want = havel_hakimi_reference(seq, policy)
            assert havel_hakimi_construct(seq, policy) == want, (n, degrees)


def raised(fn, *args):
    """The type and message of the library error ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except GraphRealError as exc:
        return type(exc), str(exc)
    return None


def renamed_rows(g, names):
    """Row a: the sorted names b > a of the neighbours of the node named a."""
    rows = [[] for _ in range(max(names) + 1)]
    for u, v in g.edges:
        a, b = sorted((names[u], names[v]))
        rows[a].append(b)
    return [sorted(row) for row in rows]


class TestHavelHakimiRows:
    """The row builder behind ``construct`` against the public graph, renamed."""

    @staticmethod
    def sequences():
        rng = random.Random(17)
        yield from graphical_family(7)
        for _ in range(300):
            n = rng.randint(1, 60)
            top = rng.randint(0, n)
            seq = [rng.randint(0, top) for _ in range(n)]
            if sum(seq) % 2:
                seq[0] += 1
            yield tuple(seq)

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_rows_are_the_graph_renamed(self, policy):
        rng = random.Random(7)
        built = 0
        for seq in self.sequences():
            # Names are distinct positions, some skipped as zero degrees are.
            n = len(seq)
            names = (0, *rng.sample(range(1, n + rng.randint(0, 3) + 1), n))
            try:
                g = havel_hakimi_construct(seq, policy)
            except GraphRealError:
                assert raised(_hh_rows, seq, policy, names) == raised(
                    havel_hakimi_construct, seq, policy)
                continue
            rows = _hh_rows(seq, policy, names)
            assert [sorted(row) for row in rows] == renamed_rows(g, names), seq
            built += 1
        assert built > 400

    @pytest.mark.parametrize("seq, policy, error, message", [
        ((1, -1, 1), "max", InvalidDegree, "negative degree -1"),
        ((1, 1.5), "max", InvalidDegree, "'float' object cannot be interpreted as an integer"),
        ((3, 1, 1), "min", DegreeTooLarge, "degree 3 exceeds n-1 = 2"),
        # A later degree above n - 1 is refused before it sizes the buckets.
        ((1, 10**12, 1), "fixed", NotGraphical, "[1, 1000000000000, 1] is not graphical"),
        ((1, 1, 1), "max", NotGraphical, "[1, 1, 1] is not graphical"),
        ((3, 3, 1, 1), "fixed", NotGraphical, "[3, 3, 1, 1] is not graphical"),
        ((1, 1), "bogus", InvalidArgument, "unknown policy 'bogus'"),
        ((1, 1), None, InvalidArgument, "unknown policy None"),
    ])
    def test_errors_are_the_public_errors(self, seq, policy, error, message):
        assert raised(havel_hakimi_construct, seq, policy) == (error, message)
        assert raised(_hh_rows, seq, policy) == (error, message)
        assert raised(_hh_rows, seq, policy, range(len(seq) + 1)) == (error, message)

    @pytest.mark.parametrize("policy", list(NodeSelectionPolicy))
    def test_steps_do_not_scale_with_the_bucket(self, policy):
        # One bucket of 100,000 labels.  Re-sorting it, or shifting its head,
        # at every step takes about 11 s of CPU time (Python 3.11 on a shared
        # 2-CPU machine); heaps take under 1 s.
        start = time.process_time()
        rows = _hh_rows((10,) * 100_000, policy)
        assert time.process_time() - start < 3
        assert sum(map(len, rows)) == 500_000

    def test_identity_names_by_default(self):
        for seq in graphical_family(5):
            for policy in NodeSelectionPolicy:
                rows = _hh_rows(seq, policy)
                assert len(rows) == len(seq) + 1
                assert rows == _hh_rows(seq, policy, range(len(seq) + 1))
                assert [sorted(row) for row in rows] == renamed_rows(
                    havel_hakimi_construct(seq, policy), range(len(seq) + 1))


def cg_composition(d, i, x):
    reduced = reduce_by_set(d, leftmost_restricted(d, i, x))
    if reduced.has_negative:
        return False
    return erdos_gallai_test(reduced.sorted_positive()).graphical


def residual_views(max_n):
    """Each sorted sequence of length <= max_n, then in turn a shuffled copy,
    a copy with a 0 and a copy with a -1."""
    rng = random.Random(5)
    for t, seq in enumerate(exhaustive_family(max_n=max_n, max_deg=max_n - 1)):
        yield seq
        j = rng.randrange(len(seq))
        yield (tuple(rng.sample(seq, len(seq))),
               seq[:j] + (0,) + seq[j + 1:],
               seq[:j] + (-1,) + seq[j + 1:])[t % 3]


class TestCgKernel:
    def test_matches_composition(self):
        for seq in residual_views(6):
            n = len(seq)
            for i in range(1, n + 1):
                others = [j for j in range(1, n + 1) if j != i]
                for size in range(len(others) + 1):
                    for x in itertools.combinations(others, size):
                        want = outcome(cg_composition, seq, i, frozenset(x))
                        assert outcome(cg_test, seq, i, frozenset(x)) == want, (seq, i, x)

    def test_shuffled_views_match_oracle(self):
        rng = random.Random(8)
        for seq in exhaustive_family(max_n=5, max_deg=4):
            view = tuple(rng.sample(seq, len(seq)))
            n = len(view)
            for i in range(1, n + 1):
                others = [j for j in range(1, n + 1) if j != i]
                for size in range(n - view[i - 1]):  # |X| <= n - 1 - d_i
                    for x in itertools.combinations(others, size):
                        star = ForbiddenSet(i, frozenset(x))
                        want = oracle_exists(OracleQuery(view, forbidden_star=star))
                        assert cg_test(view, i, star) == want, (view, i, x)

    def test_negative_residual_is_false(self):
        assert cg_test((1, 1, -1), 1) is False
        assert cg_test((2, 2, 2, -1), 2, {1}) is False

    def test_negative_focal_raises(self):
        # A focal node of degree -2 has no leftmost restricted set.
        with pytest.raises(InvalidDegree):
            cg_test((-2, 1, 1, 1, 1), 1)

    @pytest.mark.parametrize("fn", [cg_test, leftmost_restricted])
    @pytest.mark.parametrize(
        "d, i, x",
        [
            ((1, 1), 3, frozenset()),  # focal outside 1..n
            ((1, 1), 0, frozenset()),
            ((1, 1, 1, 1), 1, {5}),  # forbidden label outside 1..n
            ((1, 1, 1, 1), 1, ForbiddenSet(2, frozenset({3}))),  # another focal's star
            ((1, 1), 1, {"a"}),  # a label that is not an integer
            ((1, 1), 1, None),  # not a set of labels
            ((1, 1), 1, 2),
        ],
    )
    def test_invalid_star_raises(self, fn, d, i, x):
        with pytest.raises(InvalidSet):
            fn(d, i, x)

    def test_oracle_query_refuses_other_star_types(self):
        for star in ({2}, frozenset({2}), (1, {2})):
            with pytest.raises(InvalidSet):
                oracle_exists(OracleQuery((1, 1), forbidden_star=star))

    def test_focal_of_residual_zero_matches_oracle(self):
        # Each member of graphical_family(8) with one even degree set to 0,
        # so that the sum stays even; some of these views are not graphical.
        # With no stub to move, the kernel decides on the counts as they are,
        # for whatever forbidden set: the empty one, every other node, and a
        # seeded subset.
        rng = random.Random(16)
        views = {seq[:j] + (0,) + seq[j + 1:]
                 for seq in graphical_family(8) for j, v in enumerate(seq) if v % 2 == 0}
        verdicts = set()
        for view in sorted(views):
            n = len(view)
            counts = _residual_counts(view)
            for i in range(1, n + 1):
                if view[i - 1]:
                    continue
                others = [j for j in range(1, n + 1) if j != i]
                for x in ((), others, rng.sample(others, rng.randint(1, n - 1))):
                    star = ForbiddenSet(i, frozenset(x))
                    want = oracle_exists(OracleQuery(view, forbidden_star=star))
                    assert _cg_counts(counts, view, i, x) == want, (view, i, x)
                    assert cg_test(view, i, star) == want, (view, i, x)
                    verdicts.add(want)
        assert verdicts == {False, True}

    def test_molloy_reed_verdicts_match_composition(self, monkeypatch):
        # Every state early rejection tests, rejected ones included, gets
        # the verdict of the explicit composition.
        verdicts = {}
        kernel = _cg_counts

        def recording(counts, residual, i, x):
            verdict = kernel(counts, residual, i, x)
            verdicts[tuple(residual), i, frozenset(x)] = verdict
            return verdict

        monkeypatch.setattr(constrained, "_cg_counts", recording)
        for k, seq in enumerate(mr_views()):
            sampling.molloy_reed_sample(seq, k % 3, early_reject=True, stream=k % 4)
        assert False in verdicts.values() and True in verdicts.values()
        for (residual, i, x), verdict in verdicts.items():
            assert cg_composition(residual, i, x) == verdict, (residual, i, x)


def mr_views():
    """``graphical_family(6)``, the reversal of each member that is not a
    palindrome, and the Havel-Hakimi gap sequence."""
    family = graphical_family(6)
    return [*family, *(s[::-1] for s in family if s != s[::-1]), HH_GAP_SEQUENCE]


def seeded_sparse_sequences():
    """50 graphical nonincreasing positive sequences with n <= 40 and
    degrees <= 8, drawn from a fixed seed."""
    rng = random.Random(10)
    out = []
    while len(out) < 50:
        n = rng.randint(2, 40)
        seq = sorted((rng.randint(1, min(8, n - 1)) for _ in range(n)), reverse=True)
        if erdos_gallai_test(seq).graphical:  # an odd sum is not
            out.append(tuple(seq))
    return out


def multiset(key):
    """The nonincreasing multiset whose key is ``key``."""
    return tuple(v for v in range(len(key) - 1, 0, -1) for _ in range(key[v]))


class TestGroupingsKernel:
    def test_same_as_sorted_tuple_reference(self):
        for seq in [*graphical_family(7), *seeded_sparse_sequences()]:
            want = groupings_reference(seq)
            size, groupings = _groupings(_key(seq))
            got = [(picks, ways, multiset(child)) for picks, ways, child in groupings]
            assert got == list(want), seq
            assert size == sum(ways for _, ways, _ in want), seq

    def test_key_ignores_zeros_and_order(self):
        assert _key((0, 2, 1, 2, 0)) == (0, 1, 2)
        assert _key((0, 0)) == _key(()) == ()

    # memo_entries and memo_hits as counted on n-long sorted-tuple keys.
    @pytest.mark.parametrize("seq, entries, hits", [
        ((3,) * 16, 101, 285),
        ((4,) * 13, 135, 451),
        ((5,) * 12, 140, 360),
        ((4,) * 8 + (3,) * 4, 134, 451),
        ((4,) * 9 + (3,) * 4, 182, 754),
        ((4,) * 10 + (3,) * 4, 239, 1162),
    ])
    def test_count_memo_figures(self, seq, entries, hits):
        result = count_realizations(seq)
        assert (result.memo_entries, result.memo_hits) == (entries, hits)


class TestMolloyReedKernel:
    def test_stub_tree_matches_scan(self):
        # Random residuals, zeros included, n from 1 to 70: after each stub
        # taken out, the tree finds the node of every stub as the scan does.
        rng = random.Random(16)
        for _ in range(150):
            n = rng.randint(1, 70)
            residual = [rng.choice((0, 1, 2, rng.randint(0, 6))) for _ in range(n)]
            tree = _stub_tree(residual)
            drops = rng.choice((0, 5, sum(residual)))
            while True:
                total = sum(residual)
                got = [_take_stub(tree[:], r) for r in range(total)]
                assert got == [draw_stub_reference(residual, r) for r in range(total)]
                if not (total and drops):
                    break
                drops -= 1
                r = rng.randrange(total)
                v = _take_stub(tree, r)
                assert v == draw_stub_reference(residual, r)
                residual[v - 1] -= 1

    @pytest.mark.parametrize("early_reject", [False, True])
    def test_family_matches_reference(self, early_reject):
        for seq in mr_views():
            for seed, stream in itertools.product(range(3), range(4)):
                got = sampling.molloy_reed_sample(seq, seed, early_reject, stream=stream)
                want = molloy_reed_reference(seq, seed, early_reject, stream=stream)
                assert got == want, (seq, seed, stream)

    @pytest.mark.parametrize("early_reject", [False, True])
    def test_benchmark_shape_matches_reference(self, early_reject):
        # The sample-mr shape: 60 twos and 240 ones, shuffled.
        for seed in range(8):
            seq = [2] * 60 + [1] * 240
            random.Random(seed).shuffle(seq)
            got = sampling.molloy_reed_sample(seq, seed, early_reject)
            assert got == molloy_reed_reference(seq, seed, early_reject), seed
