import collections
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeshift import (
    DomainError,
    IntegerSet,
    ResourceError,
    gen_sequence,
    rep_counts,
    rep_search,
    romanoff_counts,
)
from primeshift import cli, representation

from support import brute_rep_count, byte_sieve, nonzero_pairs, rep_count, romanoff_oracle

FLAGS_10K = byte_sieve(10**4 + 10)


class TestRepCount:
    """The tests/support.py rep_count oracle that the rep_search tests compare against."""

    def test_examples(self):
        assert rep_count(5, [1, 2, 3]) == 2
        assert rep_count(2, [0]) == 1
        assert rep_count(0, [5]) == 0

    def test_prime_indicator_for_zero_set(self):
        for n in range(-5, 50):
            expected = int(bool(FLAGS_10K[n])) if n >= 0 else 0
            assert rep_count(n, [0]) == expected


class TestRepSearch:
    def test_prime_count_identity(self):
        profile = rep_search(IntegerSet((0,)), 2, 30, 5)
        assert profile.total_representations == 10  # primes up to 30
        assert profile.records[0] == (2, 1)
        assert all(c == 1 for _, c in profile.records)

    def test_empty_intersection(self):
        profile = rep_search(IntegerSet((10**6,)), 2, 100, 3)
        assert profile.total_representations == 0
        assert profile.represented_count == 0
        assert profile.records == ((2, 0), (3, 0), (4, 0))

    def test_powers_of_two_records(self):
        # pinned by an independent pre-build brute-force run
        profile = rep_search(gen_sequence("powers_of_two", 10), 3, 10**5, 5)
        assert profile.records == (
            (1095, 8),
            (1125, 8),
            (1575, 8),
            (2145, 8),
            (2595, 8),
        )

    def test_counts_match_brute_force(self):
        sets = [
            IntegerSet((0,)),
            IntegerSet((1, 2, 3)),
            IntegerSet(tuple(range(2, 21, 2))),
            IntegerSet((-7, 0, 12)),
        ]
        for int_set in sets:
            counts = dict(nonzero_pairs(rep_counts(int_set, 0, 2000)))
            for n in range(0, 2001):
                assert counts.get(n, 0) == brute_rep_count(
                    n, int_set.elements, FLAGS_10K
                ), (int_set, n)

    def test_records_are_true_top_k(self):
        int_set = IntegerSet((1, 2, 3))
        profile = rep_search(int_set, 0, 500, 7)
        counts = dict(nonzero_pairs(rep_counts(int_set, 0, 500)))
        pairs = sorted(
            ((n, counts.get(n, 0)) for n in range(0, 501)),
            key=lambda t: (-t[1], t[0]),
        )
        assert profile.records == tuple(pairs[:7])

    def test_dense_sparse_switch(self):
        dense = rep_search(IntegerSet((0,)), 0, 10**6 - 1, 3)
        sparse = rep_search(IntegerSet((0,)), 0, 10**6, 3)
        assert dense.total_representations <= sparse.total_representations
        dense_pairs = nonzero_pairs(rep_counts(IntegerSet((0,)), 0, 10**6 - 1))
        sparse_pairs = nonzero_pairs(rep_counts(IntegerSet((0,)), 0, 10**6))
        assert dict(dense_pairs).items() <= dict(sparse_pairs).items()
        assert dense.represented_count == len(dense_pairs)
        assert sparse.total_representations == sum(c for _, c in sparse_pairs)

    def test_wide_spread_uses_per_element_windows(self):
        int_set = IntegerSet((0, 10**8))  # spread beyond the shared-window cap
        lo, hi = 10**8 + 2, 10**8 + 2000
        counts = dict(nonzero_pairs(rep_counts(int_set, lo, hi)))
        for n in range(lo, hi + 1, 97):
            assert counts.get(n, 0) == rep_count(n, int_set.elements.tolist())

    def test_per_query_fallback_matches_rep_count(self):
        int_set = IntegerSet((2**62, 2**62 + 6))
        lo = 2**62 + 2
        counts = dict(nonzero_pairs(rep_counts(int_set, lo, lo + 120)))
        for n in range(lo, lo + 121):
            assert counts.get(n, 0) == rep_count(n, int_set.elements.tolist())

    def test_shift_covariance(self):
        rng = random.Random(229845)
        base = IntegerSet((0, 4, 10))
        reference = dict(nonzero_pairs(rep_counts(base, 0, 400)))
        for shift in (1, -3, 17, 1000):
            shifted = IntegerSet(tuple(a + shift for a in base.elements))
            moved = dict(nonzero_pairs(rep_counts(shifted, shift, 400 + shift)))
            for n in rng.sample(range(401), 40):
                assert moved.get(n + shift, 0) == reference.get(n, 0)

    def test_total_matches_windowed_prime_counts(self):
        # for each element the hits in [2, N] are the primes in
        # [2 - a, N - a], so totals must agree with direct prime counts
        int_set = IntegerSet((0, 2, 4))
        n_hi = 3000
        profile = rep_search(int_set, 2, n_hi, 3)
        expected = 0
        for a in int_set.elements:
            expected += sum(
                1 for p in range(max(2, 2 - a), n_hi - a + 1) if FLAGS_10K[p]
            )
        assert profile.total_representations == expected

    def test_memory_follows_the_chunk_not_the_width(self):
        # One chunk's counts, its two halves, the shared prime window of the
        # elements up to 2^23 and the boolean mask of one top-k count pass: a
        # few bytes per cell of one chunk.  The 4.6 * 10^6 represented n would
        # take 70 MiB as one int64 offset and one int64 count each.
        int_set = gen_sequence("powers_of_two", 40)
        tracemalloc.start()
        try:
            rep_search(int_set, 503, 503 + 10**7 - 1, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * representation._CHUNK

    @pytest.mark.parametrize("consumer", ["rep_search", "csv_rows"])
    def test_each_chunk_is_freed_before_the_next_is_built(self, consumer):
        # Each chunk's counts take _CHUNK bytes here, and nothing of them
        # may still be held when the next chunk's counting starts.  Only the
        # n in [2, 2^16], at the end of the second chunk, are represented,
        # so the csv rows are few.
        held = []
        build = representation._chunk_counts

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return build(*args)

        int_set = IntegerSet((0,))
        n_lo, n_hi = (1 << 16) - 2 * representation._CHUNK, 1 << 16
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(representation, "_chunk_counts", spy)
            tracemalloc.start()
            try:
                if consumer == "rep_search":
                    rep_search(int_set, n_lo, n_hi, 10)
                else:
                    collections.deque(cli._csv_rows(rep_counts(int_set, n_lo, n_hi)), maxlen=0)
            finally:
                tracemalloc.stop()
        assert len(held) == 3
        assert max(held[1:]) < representation._CHUNK // 2

    def test_memory_of_an_all_ties_range_follows_the_chunk(self):
        # n - 10^12 < 0 for every n, so every count is 0 and every n ties
        # at the k-th count.  Each chunk yields only its first k ties; an
        # index array of a whole chunk of ties would take 32 MiB alone.
        tracemalloc.start()
        try:
            profile = rep_search(IntegerSet((10**12,)), 0, 10**7 - 1, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.records == tuple((n, 0) for n in range(10))
        assert peak < 8 * representation._CHUNK

    def test_ties_past_the_first_block_of_a_chunk(self):
        # Count 1 exactly at the primes: the 10^4 records are the first 10^4
        # primes, and the 6542 primes below 2^16 fill only the first block
        # of ties.  The width is just under one chunk, then just over it.
        flags = byte_sieve(200_000)
        primes = [p for p in range(2, 200_000) if flags[p]]
        for n_hi in (representation._CHUNK - 1, representation._CHUNK + 10**5):
            profile = rep_search(IntegerSet((0,)), 0, n_hi, 10**4)
            assert profile.records == tuple((p, 1) for p in primes[: 10**4])

    def test_guards(self):
        one = IntegerSet((0,))
        # rep_counts checks the range when called, before the first chunk.
        with pytest.raises(DomainError):
            rep_counts(one, 10, 9)
        with pytest.raises(ResourceError):
            rep_counts(one, 0, 10**9)
        with pytest.raises(DomainError, match="64-bit"):
            rep_counts(IntegerSet((-(2**62),)), 2**62, 2**62 + 10)
        with pytest.raises(DomainError):
            rep_search(one, 10, 9, 1)
        with pytest.raises(DomainError):
            rep_search(one, 0, 10, 0)
        with pytest.raises(ResourceError):
            rep_search(one, 0, 10**9, 1)
        assert rep_search(one, 0, 10, representation.TOP_K_MAX).records[0] == (2, 1)
        with pytest.raises(ResourceError, match="top_k"):
            rep_search(one, 0, 10, representation.TOP_K_MAX + 1)


class TestRomanoff:
    def test_small_examples(self):
        assert romanoff_counts(9, 1) == (3, 4)
        assert romanoff_counts(9, 0) == (4, 4)

    def test_matches_brute_force(self):
        limit = 10**4
        flags = FLAGS_10K
        for k_min in (0, 1):
            representable = 0
            total = 0
            for n in range(3, limit + 1, 2):
                total += 1
                k = k_min
                hit = False
                while 2**k <= n - 2:
                    if flags[n - 2**k]:
                        hit = True
                        break
                    k += 1
                representable += hit
            assert romanoff_counts(limit, k_min) == (representable, total)

    @pytest.mark.parametrize("k_min", [0, 1])
    def test_matches_oracle_for_every_small_limit(self, k_min):
        for limit in range(3, 2101):
            assert romanoff_counts(limit, k_min) == romanoff_oracle(limit, k_min), limit

    @pytest.mark.parametrize("k_min", [0, 1])
    def test_matches_oracle_at_window_edges(self, k_min):
        # limit % 16 takes every value next to the first window edge, so the
        # count of odd numbers takes every value mod 8; limit = W leaves a
        # last window that holds one number.
        w = representation._WINDOW
        limits = [*range(w - 1, w + 18), 2 * w - 1, 2 * w + 1, 2 * w + 15, 2 * w + 16, 2 * w + 17]
        for limit in limits:
            assert romanoff_counts(limit, k_min) == romanoff_oracle(limit, k_min), limit

    def test_memory_follows_bits_not_bytes(self):
        # Two bit arrays of limit / 16 bytes each, a third for a moment, and
        # one window of flags; two bool arrays would take 2 bytes per number.
        limit = 16 * 10**6
        tracemalloc.start()
        try:
            romanoff_counts(limit, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit // 4 + 4 * 2**20

    def test_k_min_relaxation_monotone(self):
        for limit in (9, 100, 10**4):
            assert romanoff_counts(limit, 0)[0] >= romanoff_counts(limit, 1)[0]

    def test_density_in_unit_interval(self):
        for limit in (3, 9, 1000):
            for k_min in (0, 1):
                representable, total = romanoff_counts(limit, k_min)
                assert 0 <= representable <= total

    def test_guards(self):
        with pytest.raises(DomainError):
            romanoff_counts(2, 1)
        with pytest.raises(DomainError):
            romanoff_counts(100, 2)
        with pytest.raises(ResourceError):
            romanoff_counts(10**9 + 1, 1)


class TestGenSequence:
    def test_examples(self):
        assert gen_sequence("powers_of_two", 4).elements.tolist() == [2, 4, 8, 16]
        assert gen_sequence("two_pow_prime", 3).elements.tolist() == [4, 8, 32]
        assert gen_sequence("divisor_chain", 3, 3).elements.tolist() == [3, 9, 27]

    def test_divisor_chain_property(self):
        chain = gen_sequence("divisor_chain", 8, 5).elements
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))

    def test_limits(self, monkeypatch):
        assert gen_sequence("powers_of_two", 62).elements[-1] == 2**62
        with pytest.raises(DomainError):
            gen_sequence("powers_of_two", 63)
        assert gen_sequence("two_pow_prime", 18).elements[-1] == 2**61
        with pytest.raises(DomainError):
            gen_sequence("two_pow_prime", 19)
        with pytest.raises(DomainError):
            gen_sequence("divisor_chain", 63, 2)
        assert gen_sequence("divisor_chain", 62, 2).elements[-1] == 2**62
        # Rejected on count alone, before building a 900000-digit power.
        with pytest.raises(DomainError):
            gen_sequence("divisor_chain", 10**5, 10**9)
        # Rejected on count alone, before any prime is read.
        calls = []
        monkeypatch.setattr(representation, "prime_segments", calls.append)
        with pytest.raises(DomainError):
            gen_sequence("two_pow_prime", 10**6)
        assert calls == []

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            gen_sequence("fibonacci", 3)
        with pytest.raises(DomainError):
            gen_sequence("powers_of_two", 0)
        with pytest.raises(DomainError):
            gen_sequence("divisor_chain", 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6, unique=True),
    st.integers(min_value=0, max_value=300),
)
def test_rep_count_matches_brute_force(xs, n):
    assert rep_count(n, xs) == brute_rep_count(n, xs, FLAGS_10K)
