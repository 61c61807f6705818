"""Differential tests that drive rep_search and prime_flags down every path.

Shrinking the chunk, spread, segment, sparse-prime and sieve-cut
constants lets small generated sets and ranges reach shared windows
split by gaps and by spread, chunk edges, segment edges, pieces that
clear some base primes by slices and others in rounds, and windows that
straddle the bound past which survivors get Miller-Rabin confirmation.
Each result is checked against is_prime and the tests/support.py oracles.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeshift import DomainError, IntegerSet, is_prime, prime_flags, rep_counts, rep_search
from primeshift import primes as primes_mod
from primeshift import representation

from support import brute_rep_count, byte_sieve, nonzero_pairs, odd_entries, rep_count

FLAGS = byte_sieve(2000)
SPREAD_MAX = 40
# Above the cut only primes <= isqrt(1000) = 31 sieve, so the survivors
# from 32^2 = 1024 on are confirmed, and composites such as 37^2 = 1369
# and 37 * 41 = 1517 must be rejected by is_prime.
CUT = 1000


@contextlib.contextmanager
def small_paths():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(representation, "_CHUNK", 37)
        mp.setattr(representation, "_SPREAD_MAX", SPREAD_MAX)
        mp.setattr(primes_mod, "_SEGMENT", 29)
        # A full piece of 29 entries clears 17..29 by slices and 31 in rounds.
        mp.setattr(primes_mod, "_SPARSE_HITS", 1)
        mp.setattr(primes_mod, "_BASE", primes_mod._BASE[primes_mod._BASE <= math.isqrt(CUT)])
        mp.setattr(primes_mod, "_BASE_LIMIT", math.isqrt(CUT))
        yield


def oracle_flags(lo: int, hi: int) -> bytes:
    """The byte sieve's flags at the odd numbers of lo..hi, as prime_flags lays them out."""
    return odd_entries(bytes(n >= 0 and FLAGS[n] for n in range(lo, hi + 1)), lo)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=-60, max_value=1400), st.integers(min_value=0, max_value=200))
def test_prime_flags_across_segments_and_cut(lo, span):
    with small_paths():
        flags = prime_flags(lo, lo + span)
    assert bytes(flags) == oracle_flags(lo, lo + span)


@pytest.mark.parametrize("cut", [400, 528])
def test_prime_flags_piece_straddling_the_cut(cut, monkeypatch):
    # One piece holds values on both sides of (bound + 1)^2, bound =
    # isqrt(cut).  Past it 529 = 23^2 and 667 = 23 * 29 survive the sieve,
    # and only is_prime rejects them; at cut 528 the bound is 22, so 529 is
    # the first value confirmed.
    monkeypatch.setattr(primes_mod, "_BASE", primes_mod._BASE[primes_mod._BASE <= math.isqrt(cut)])
    monkeypatch.setattr(primes_mod, "_BASE_LIMIT", math.isqrt(cut))
    assert bytes(prime_flags(300, 700)) == oracle_flags(300, 700)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=8, unique=True),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-60, max_value=1100),
    st.integers(min_value=0, max_value=160),
    st.integers(min_value=1, max_value=6),
)
def test_rep_search_paths_match_oracles(offsets, shift, n_lo, span, top_k):
    int_set = IntegerSet(tuple(sorted(shift + x for x in offsets)))
    n_hi = n_lo + span
    with small_paths():
        profile = rep_search(int_set, n_lo, n_hi, top_k)
        pairs = nonzero_pairs(rep_counts(int_set, n_lo, n_hi))
    expected = {n: brute_rep_count(n, int_set.elements, FLAGS) for n in range(n_lo, n_hi + 1)}
    for n, count in expected.items():
        assert count == rep_count(n, int_set.elements.tolist()), n
    nonzero = [(n, c) for n, c in expected.items() if c]
    assert pairs == nonzero
    assert profile.represented_count == len(nonzero)
    assert profile.total_representations == sum(expected.values())
    ranked = sorted(expected.items(), key=lambda t: (-t[1], t[0]))
    assert profile.records == tuple(ranked[:top_k])


@pytest.mark.parametrize("n_lo", [-40, -39, 6, 7, 1001, 1002])
def test_rep_search_counts_the_prime_two_at_chunk_edges(n_lo):
    # The odd flags hold no 2: n = a + 2 is added on its own, into the half
    # of the other parity.  With _CHUNK = 37 the chunks start at n_lo, e1
    # and e2, so c_lo takes both parities, and n = a + 2 falls on the first
    # and the last cell of chunks and right across both edges.  Neighbours
    # such as e1 - 3 and e1 - 2 share one run and differ in parity.
    e1, e2 = n_lo + 37, n_lo + 74
    n_hi = e2 + 20
    elements = sorted({n_lo - 2, e1 - 3, e1 - 2, e2 - 3, e2 - 2, n_hi - 2, -7, -4, 0, 1})
    int_set = IntegerSet(tuple(elements))
    with small_paths():
        profile = rep_search(int_set, n_lo, n_hi, 4)
        pairs = nonzero_pairs(rep_counts(int_set, n_lo, n_hi))
    counts = {n: rep_count(n, elements) for n in range(n_lo, n_hi + 1)}
    assert pairs == [(n, c) for n, c in counts.items() if c]
    ranked = sorted(counts.items(), key=lambda t: (-t[1], t[0]))
    assert profile.records == tuple(ranked[:4])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=200), min_size=1, max_size=6, unique=True),
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=4, unique=True),
    st.integers(min_value=-60, max_value=100),
    st.integers(min_value=0, max_value=120),
)
def test_rep_search_ignores_elements_out_of_reach(elements, past, n_lo, span):
    # An element a > n_hi - 2 has n - a < 2 for every n of every chunk, so
    # adding such elements leaves every count, total and record unchanged.
    n_hi = n_lo + span
    extra = {n_hi - 2 + d for d in past} - set(elements)
    int_set = IntegerSet(tuple(sorted(elements)))
    wider = IntegerSet(tuple(sorted({*elements, *extra})))
    with small_paths():
        profile = rep_search(int_set, n_lo, n_hi, 5)
        with_extra = rep_search(wider, n_lo, n_hi, 5)
    assert with_extra.represented_count == profile.represented_count
    assert with_extra.total_representations == profile.total_representations
    assert with_extra.records == profile.records


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_chunk_records_match_a_sorted_oracle(dtype):
    # The chunk's records, in any order, are its first k cells by count
    # descending, then n ascending.  The k-th count is 0 when k passes the
    # nonzero cells, every cell is a record when k >= counts.size, and an
    # all-equal chunk yields only ties, also past one 2^16-cell block.
    top = int(np.iinfo(dtype).max)
    rng = np.random.default_rng(2026)
    cases = [
        (np.array([7], dtype), 1),
        (np.array([0], dtype), 3),
        (np.array([0, 3, 0, 0, 5, 0], dtype), 4),
        (np.array([2, 9, 4, top], dtype), 4),
        (np.array([2, 9, 4, top], dtype), 10),
        (np.full(50, 6, dtype), 7),
        (np.zeros(50, dtype), 50),
        (np.full((1 << 16) + 9, top, dtype), (1 << 16) + 4),
    ]
    for _ in range(300):
        size = int(rng.integers(1, 200))
        high = int(rng.choice([1, 2, 5, 100, top]))
        counts = rng.integers(0, high, size, dtype=dtype, endpoint=True)
        counts[rng.random(size) < 0.3] = 0
        cases.append((counts, int(rng.integers(1, size + 5))))
    for counts, k in cases:
        c_lo = int(rng.integers(-1000, 1000))
        oracle = sorted((-c, c_lo + i) for i, c in enumerate(counts.tolist()))
        records = representation._chunk_records(c_lo, counts, k)
        assert sorted(records) == oracle[:k], (counts, k)


@pytest.mark.parametrize("n_lo, n_hi", [(-120, -1), (-40, 70), (5, 5), (1000, 1110)])
def test_rep_counts_chunks_tile_the_range(n_lo, n_hi):
    # Chunks of _CHUNK = 37 start at n_lo; the last ends at n_hi.  rep_search's
    # totals are the sums over those chunks, across chunk edges and for
    # negative n.
    elements = (-7, -4, 0, 1, 12, 30)
    int_set = IntegerSet(elements)
    with small_paths():
        chunks = list(rep_counts(int_set, n_lo, n_hi))
        profile = rep_search(int_set, n_lo, n_hi, 3)
    assert [c_lo for c_lo, _ in chunks] == list(range(n_lo, n_hi + 1, 37))
    assert all(counts.size == 37 for _, counts in chunks[:-1])
    assert chunks[-1][0] + chunks[-1][1].size - 1 == n_hi
    assert all(np.issubdtype(counts.dtype, np.unsignedinteger) for _, counts in chunks)
    counts = np.concatenate([counts for _, counts in chunks])
    assert counts.tolist() == [rep_count(n, elements) for n in range(n_lo, n_hi + 1)]
    assert profile.represented_count == sum(int(np.count_nonzero(c)) for _, c in chunks)
    assert profile.total_representations == sum(int(c.sum()) for _, c in chunks)


@pytest.mark.parametrize("top_k", [1, 3, 20, 40, 150])
@pytest.mark.parametrize("elements", [(10**6,), (-7, -4, 0, 1, 12, 30)], ids=["all-ties", "mixed"])
def test_rep_search_ties_across_chunk_edges(elements, top_k):
    # With _CHUNK = 37 the ties at the k-th count spread over several
    # chunks; each chunk yields its first ties in ascending n, and the
    # running merge must keep the smallest n among them.  top_k 150 is
    # more than the 111 n in the range.
    n_lo, n_hi = -40, 70
    with small_paths():
        profile = rep_search(IntegerSet(elements), n_lo, n_hi, top_k)
    counts = [(n, rep_count(n, elements)) for n in range(n_lo, n_hi + 1)]
    assert profile.records == tuple(sorted(counts, key=lambda t: (-t[1], t[0]))[:top_k])


@pytest.mark.parametrize(
    "elements", [(0,), (-7, 0, 12, 250), (-300, 1, 10**8)], ids=["prime", "shared", "per-element"]
)
def test_rep_search_straddles_window_value_max(elements):
    int_set = IntegerSet(elements)
    lo, hi = 10**12 - 300, 10**12 + 300
    profile = rep_search(int_set, lo, hi, 5)
    counts = {n: rep_count(n, elements) for n in range(lo, hi + 1)}
    assert nonzero_pairs(rep_counts(int_set, lo, hi)) == [(n, c) for n, c in counts.items() if c]
    assert profile.total_representations == sum(counts.values())


def test_rep_search_n_past_int64():
    # Only n - a must fit in 64 bits; n itself may not.
    elements = (2**62, 2**62 + 6)
    int_set = IntegerSet(elements)
    lo, hi = 2**63 - 60, 2**63 + 60
    profile = rep_search(int_set, lo, hi, 3)
    counts = {n: rep_count(n, elements) for n in range(lo, hi + 1)}
    assert nonzero_pairs(rep_counts(int_set, lo, hi)) == [(n, c) for n, c in counts.items() if c]
    assert profile.records == tuple(sorted(counts.items(), key=lambda t: (-t[1], t[0]))[:3])


def test_prime_flags_at_the_top_of_int64():
    lo, hi = 2**63 - 200, 2**63 - 1
    assert [(lo | 1) + 2 * i for i, f in enumerate(prime_flags(lo, hi)) if f] == [
        n for n in range(lo, hi + 1) if is_prime(n)
    ]
    with pytest.raises(DomainError):
        prime_flags(0, 2**63)


@pytest.mark.parametrize(
    "elements, spread_max, windows",
    [
        # The windows 90..99 and 100..109 touch: one shared window.
        ((0, 10), 1 << 26, [(90, 109)]),
        # A one-cell hole at 99: two windows.
        ((0, 11), 1 << 26, [(100, 109), (89, 98)]),
        # Gaps of 4 share, but the spread 0..12 passes 8.
        ((0, 4, 8, 12), 1 << 26, [(88, 109)]),
        ((0, 4, 8, 12), 8, [(92, 109), (88, 97)]),
        # n - 107 = 2 at n = 109 still counts; 108 and later reach only n - a < 2
        # and request no window, so 107 is not widened to share one with 108.
        ((0, 107, 108, 109, 300), 1 << 26, [(100, 109), (-7, 2)]),
    ],
    ids=["gap-equals-width", "gap-past-width", "spread-within", "spread-past", "past-reach"],
)
def test_chunk_windows_group_by_gap_and_spread(elements, spread_max, windows, monkeypatch):
    calls = []

    def recording(lo, hi):
        calls.append((lo, hi))
        return prime_flags(lo, hi)

    monkeypatch.setattr(representation, "prime_flags", recording)
    monkeypatch.setattr(representation, "_SPREAD_MAX", spread_max)
    pairs = nonzero_pairs(rep_counts(IntegerSet(elements), 100, 109))
    assert calls == windows
    counts = {n: rep_count(n, elements) for n in range(100, 110)}
    assert pairs == [(n, c) for n, c in counts.items() if c]
