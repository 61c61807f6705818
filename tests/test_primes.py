import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primeshift import (
    DomainError,
    IntegerSet,
    ResourceError,
    check_admissible,
    greedy_prune,
    is_prime,
    nth_prime,
    prime_flags,
    sieve,
    survivor_lower_bound,
)
from primeshift import primes as primes_mod

from support import (
    byte_sieve,
    greedy_prune_oracle,
    odd_entries,
    smallest_empty_class,
    trial_division_is_prime,
    trial_division_primes,
)


def test_sieve_ten():
    table = sieve(10)
    assert table.primes.dtype == np.int64
    assert not table.primes.flags.writeable
    assert table.primes.tolist() == [2, 3, 5, 7]
    assert table.count == 4
    assert table.limit == 10


def test_sieve_547():
    table = sieve(547)
    assert table.count == 101
    assert table.primes[-1] == 547


def test_sieve_million_count():
    table = sieve(10**6)
    assert table.count == 78498
    # independent sieve implementation agrees
    flags = byte_sieve(10**6)
    assert table.count == sum(flags)
    assert all(flags[p] for p in table.primes[:200])


def test_sieve_matches_trial_division():
    rng = random.Random(1105)
    limits = [2, 3, 4, 5, 29] + [rng.randint(6, 10**5) for _ in range(5)]
    for limit in limits:
        assert list(sieve(limit).primes) == trial_division_primes(limit)


def test_sieve_bounds_errors():
    with pytest.raises(DomainError):
        sieve(1)
    ceiling = primes_mod.WINDOW_VALUE_MAX
    with pytest.raises(ResourceError, match=f"WINDOW_VALUE_MAX = {ceiling}"):
        sieve(ceiling + 1)
    # prime_segments is not itself a generator: the check runs before any iteration.
    with pytest.raises(DomainError):
        primes_mod.prime_segments(1)
    with pytest.raises(ResourceError, match=f"WINDOW_VALUE_MAX = {ceiling}"):
        primes_mod.prime_segments(ceiling + 1)


def test_prime_segments_accepts_its_ceiling():
    # Only the check runs: the segments themselves are never iterated.
    primes_mod.prime_segments(primes_mod.WINDOW_VALUE_MAX)


def test_prime_segments_open_with_two():
    # The kernel has no entry for 2; prime_segments puts it at the head.
    assert [s.tolist() for s in primes_mod.prime_segments(2)] == [[2]]
    assert [s.tolist() for s in primes_mod.prime_segments(3)] == [[2, 3]]


def stream_count(limit):
    """(count, largest) summed from prime_segments: the stream count_primes replaces."""
    segments = [s for s in primes_mod.prime_segments(limit) if s.size]
    return sum(s.size for s in segments), int(segments[-1][-1])


def test_count_primes_matches_the_stream_to_5000():
    for limit in range(2, 5001):
        assert primes_mod.count_primes(limit) == stream_count(limit), limit


def test_count_primes_around_base_prime_squares():
    # The round of p updates each v >= p^2: in the small half (v <= isqrt(limit))
    # only once p^2 <= isqrt(limit), so near limit = p^4 too.
    limits = [10**6 + k for k in (-2, -1, 0, 1, 2, 3)]
    for p in [*primes_mod._BASE[:30].tolist(), 997, 1009, 1999, 2003]:
        limits += [p * p - 1, p * p, p * p + 1]
    for p in primes_mod._BASE[:12].tolist():
        limits += [p**4 - 1, p**4, p**4 + p * p, (p * p + 1) ** 2 - 1]
    for limit in limits:
        assert primes_mod.count_primes(limit) == stream_count(limit), limit


def test_count_primes_agrees_with_sympy():
    rng = random.Random(2808)
    limits = [rng.randint(2, 10**k) for k in range(2, 10) for _ in range(3)] + [10**9]
    for limit in limits:
        count, largest = primes_mod.count_primes(limit)
        assert type(count) is int and type(largest) is int
        assert (count, largest) == (sympy.primepi(limit), sympy.prevprime(limit + 1)), limit


def test_count_primes_at_powers_of_ten():
    # OEIS A006880.
    assert primes_mod.count_primes(10**9)[0] == 50_847_534
    assert primes_mod.count_primes(10**10)[0] == 455_052_511
    assert primes_mod.count_primes(10**11)[0] == 4_118_054_813


def test_count_primes_largest_across_the_widest_gap(monkeypatch):
    # The widest prime gap below 10^12: 540, after 738 832 927 927.  The
    # largest prime comes from one prime_flags window of at most 2^12
    # numbers that ends at the limit.
    calls = []

    def spy(lo, hi):
        calls.append((lo, hi))
        return prime_flags(lo, hi)

    monkeypatch.setattr(primes_mod, "prime_flags", spy)
    cases = {738_832_927_927 + 539: 738_832_927_927, 2: 2, 3: 3, 4096: 4093, 4097: 4093}
    for limit, largest in cases.items():
        calls.clear()
        assert primes_mod.count_primes(limit)[1] == largest
        assert len(calls) == 1
        lo, hi = calls[0]
        assert hi == limit and hi - lo < 1 << 12


def test_count_primes_shares_the_stream_limits():
    ceiling = primes_mod.WINDOW_VALUE_MAX
    for limit in (-1, 0, 1):
        with pytest.raises(DomainError, match=f"sieve limit must be >= 2, got {limit}"):
            primes_mod.count_primes(limit)
    with pytest.raises(ResourceError, match=f"WINDOW_VALUE_MAX = {ceiling}"):
        primes_mod.count_primes(ceiling + 1)


def cut_base(monkeypatch, c):
    """Cut the base table to the primes <= c, so that the stream runs through
    prime_flags from c + 1 on; exact for every value below (c + 1)^2."""
    monkeypatch.setattr(primes_mod, "_BASE", primes_mod._BASE[primes_mod._BASE <= c])
    monkeypatch.setattr(primes_mod, "_BASE_LIMIT", c)


@pytest.mark.parametrize("segment", [2, 3, 64, 97])
def test_tiny_segments_match_oracles(segment, monkeypatch):
    # A tiny segment and a base table cut at 60 force many segment edges
    # in prime_segments(), sieve() and nth_prime() past the cut.  A piece
    # spans 2 * segment numbers; 60^2 is past every value sieved here.
    monkeypatch.setattr(primes_mod, "_SEGMENT", segment)
    cut_base(monkeypatch, 60)
    limit = 3000
    oracle = trial_division_primes(limit)
    flags = byte_sieve(limit)
    for i, p in enumerate(oracle[:60], start=1):
        assert nth_prime(i) == p == sympy.prime(i)
    assert type(nth_prime(60)) is int
    for top in (2, 3, 4, segment, segment + 1, 2 * segment + 1, 2 * segment + 2, 1000, limit):
        table = sieve(top)
        assert table.primes.tolist() == [p for p in oracle if p <= top]
        assert table.primes.dtype == np.int64 and not table.primes.flags.writeable
        segments = list(primes_mod.prime_segments(top))
        assert all(s.dtype == np.int64 for s in segments)
        assert segments[0][0] == 2
        assert np.array_equal(np.concatenate(segments), table.primes)
    edges = [2 * segment * k + d for k in (0, 1, 7) for d in (-1, 0, 1)]
    windows = [(-5, 0), (-3, 1), (-2, 2), (0, 2), (1, 2), (2, 2), (-7, 40), (-8, 40)]
    windows += [(e, e + 2 * segment) for e in edges if e >= 0]
    windows += [(500, 2999), (2000, limit)]
    for lo, hi in windows:
        expected = bytes(max(0, min(hi, -1) - lo + 1)) + bytes(flags[max(lo, 0) : hi + 1])
        got = prime_flags(lo, hi)
        assert bytes(got) == odd_entries(expected, lo), (lo, hi)
        assert [(lo | 1) + 2 * i for i in np.flatnonzero(got).tolist()] == [
            p for p in sympy.primerange(lo, hi + 1) if p != 2
        ]


def test_stream_on_two_threads_matches_oracles(monkeypatch):
    # The base table is read-only, so two threads that read the stream past
    # a cut table, through nth_prime and prime_flags, need no lock.
    monkeypatch.setattr(primes_mod, "_SEGMENT", 5)
    cut_base(monkeypatch, 60)
    results = {}

    def run(name, job):
        results[name] = job()

    threads = [
        threading.Thread(target=run, args=("nth", lambda: nth_prime(400)), daemon=True),
        threading.Thread(target=run, args=("flags", lambda: bytes(prime_flags(0, 3000))), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "a stream reader hung"
    assert results["nth"] == trial_division_primes(3000)[399] == sympy.prime(400)
    assert results["flags"] == odd_entries(bytes(byte_sieve(3000)), 0)


def test_stream_matches_oracles_across_the_base_seam(monkeypatch):
    # With the table cut at 50 and pieces of 14 numbers, every walk past
    # the 15th prime reads primes that prime_flags sieves after the cut.
    monkeypatch.setattr(primes_mod, "_SEGMENT", 7)
    cut_base(monkeypatch, 50)
    oracle = trial_division_primes(2000)
    assert [nth_prime(i) for i in range(1, len(oracle) + 1)] == oracle
    segments = list(primes_mod.prime_segments(2000))
    assert segments[0].tolist() == [p for p in oracle if p <= 50]
    assert np.concatenate(segments).tolist() == oracle
    # Past 51^2 the count reads primes up to its square root from past the cut.
    assert primes_mod.count_primes(10**4) == (1229, 9973) == stream_count(10**4)
    elements = random.Random(50).sample(range(-(10**4), 10**4), 300)
    trace = greedy_prune(IntegerSet.from_values(elements))
    steps, s, stop, survivors = greedy_prune_oracle(elements)
    assert trace.steps[-1].prime > 50
    assert [tuple(vars(step).values()) for step in trace.steps] == steps
    assert (trace.s, trace.stop_prime, trace.final_set.elements.tolist()) == (s, stop, survivors)
    cert = check_admissible(trace.final_set)
    walked = [p for p in oracle if p <= len(survivors)]
    assert walked[-1] > 50
    assert cert.missed_residues == {p: smallest_empty_class(survivors, p) for p in walked}
    product = Fraction(math.prod(p - 1 for p in oracle[:s]), math.prod(oracle[:s]))
    assert survivor_lower_bound(300, s) == 300 * product


def test_base_table_is_read_only_and_exact():
    base = primes_mod._BASE
    assert base.dtype == np.int64 and not base.flags.writeable
    # Trial division to 10^6 takes seconds; the byte sieve is the independent oracle.
    assert base.tolist() == np.flatnonzero(np.frombuffer(byte_sieve(10**6), dtype=np.uint8)).tolist()
    assert primes_mod._BASE_LIMIT == math.isqrt(primes_mod.WINDOW_VALUE_MAX) == 10**6


def test_nth_prime_basics():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(100) == 541
    assert nth_prime(101) == 547
    assert nth_prime(10000) == 104729
    with pytest.raises(DomainError):
        nth_prime(0)
    with pytest.raises(DomainError):
        nth_prime(-3)


def test_nth_prime_past_the_ceiling_raises_before_sieving(monkeypatch):
    # pi(10^12) = 37 607 912 018 (OEIS A006880): the stream holds no more primes.
    def unreachable(limit):
        raise AssertionError("nth_prime sieved past its ceiling")

    monkeypatch.setattr(primes_mod, "prime_segments", unreachable)
    with pytest.raises(ResourceError, match="37607912018"):
        nth_prime(37_607_912_019)


def test_nth_prime_against_trial_division():
    oracle = trial_division_primes(600)
    for i, p in enumerate(oracle, start=1):
        assert nth_prime(i) == p


def test_nth_prime_consistent_with_sieve():
    table = sieve(10**4)
    for i, p in enumerate(table.primes, start=1):
        assert nth_prime(i) == p


def test_is_prime_trivial():
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(-2)


def test_is_prime_mersenne_61():
    n = 2**61 - 1
    assert is_prime(n)
    assert sympy.isprime(n)
    # a nearby non-prime Mersenne number for contrast
    assert is_prime(2**59 - 1) == sympy.isprime(2**59 - 1)


def test_is_prime_rejects_past_64_bits():
    with pytest.raises(DomainError):
        is_prime(2**64)
    assert is_prime(2**63 - 1) == sympy.isprime(2**63 - 1)


def test_is_prime_exhaustive_to_a_million():
    flags = byte_sieve(10**6)
    mismatches = [n for n in range(10**6 + 1) if is_prime(n) != bool(flags[n])]
    assert mismatches == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_is_prime_agrees_with_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


# Random values almost never reach the composites that fool weak
# Miller-Rabin bases, so these are pinned against sympy.
@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the first 1, 4, 5, 6, 8 and 11 prime bases
        2047,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        # Carmichael numbers
        561,
        41041,
        825265,
        9746347772161,
        # the two largest primes below isqrt(2^63), and their product
        3037000493,
        3037000453,
        3037000493 * 3037000453,
    ],
)
def test_is_prime_agrees_with_sympy_on_adversarial_values(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=5 * 10**4))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


def test_prime_flags_small_window():
    flags = prime_flags(0, 100)
    oracle = byte_sieve(100)
    assert bytes(flags) == odd_entries(oracle, 0)


def test_prime_flags_negative_window():
    flags = prime_flags(-10, 10)
    assert list(flags[:6]) == [0] * 6  # -9, -7, ..., 1
    oracle = byte_sieve(10)
    assert bytes(flags[6:]) == odd_entries(oracle[2:], 2)


@pytest.mark.parametrize("lo", [-11, -10, -3, -2, -1])
def test_prime_flags_negative_windows_by_parity(lo):
    # Entry i is (lo | 1) + 2i for negative lo too: -10 | 1 is -9.
    oracle = byte_sieve(30)
    expected = odd_entries(bytes(-lo) + bytes(oracle), lo)
    assert bytes(prime_flags(lo, 30)) == expected
    assert len(expected) == (30 - (lo | 1)) // 2 + 1


def test_prime_flags_shifted_window():
    lo, hi = 999_000, 1_001_000
    flags = prime_flags(lo, hi)
    oracle = byte_sieve(hi)
    assert bytes(flags) == odd_entries(oracle[lo:], lo)


def test_prime_flags_all_negative():
    assert bytes(prime_flags(-20, -3)) == bytes(9)  # -19, -17, ..., -3


def test_prime_flags_without_odd_numbers_are_empty():
    # 2 has no entry: a window of one even number holds nothing.
    for n in (-4, 0, 2, 4, 10**12, 2**63 - 2):
        flags = prime_flags(n, n)
        assert flags.dtype == np.uint8 and flags.size == 0, n


def test_prime_flags_rejects_bad_window():
    with pytest.raises(DomainError):
        prime_flags(5, 4)


EDGE_LIMIT = 1_100_000
EDGE_FLAGS = byte_sieve(EDGE_LIMIT)
SMALL_PRIMES = trial_division_primes(1000)


def sieve_oracle(lo: int, hi: int) -> bytes:
    """Flags for lo..hi <= EDGE_LIMIT from the byte sieve; n < 0 reads 0."""
    return bytes(max(0, min(hi, -1) - lo + 1)) + bytes(EDGE_FLAGS[max(lo, 0) : hi + 1])


def is_prime_oracle(lo: int, hi: int) -> bytes:
    """Flags for 1000 < lo..hi: trial division by the primes <= 1000, then is_prime."""
    width = hi - lo + 1
    composite = bytearray(width)
    for p in SMALL_PRIMES:
        start = -lo % p
        composite[start::p] = b"\x01" * len(range(start, width, p))
    return bytes(not c and is_prime(lo + i) for i, c in enumerate(composite))


def wheel_edges() -> list[int]:
    """Starts around multiples of 30030, the period of the 2..13 wheel, both sides of 10^12."""
    ks = (1, 2, 33, 10**12 // 30030 + 1, (2**63 - 1) // 30030 - 1)
    return [30030 * k + d for k in ks for d in (-1, 0, 1)]


@pytest.mark.parametrize("lo", range(-1, 15))
@pytest.mark.parametrize("span", [0, 1, 29, 400])
def test_prime_flags_small_starts(lo, span):
    # Windows over the wheel primes 2..13, which the wheel pattern clears
    # and the kernel must set back, and over 17^2 and 19^2.
    assert bytes(prime_flags(lo, lo + span)) == odd_entries(sieve_oracle(lo, lo + span), lo)


@pytest.mark.parametrize("lo", wheel_edges())
def test_prime_flags_at_wheel_period_edges(lo):
    hi = lo + 3000
    oracle = sieve_oracle if hi <= EDGE_LIMIT else is_prime_oracle
    assert bytes(prime_flags(lo, hi)) == odd_entries(oracle(lo, hi), lo)


@pytest.mark.parametrize(
    "lo, hi",
    [
        # Odd and even first values, below and above WINDOW_VALUE_MAX.
        (100_000, 102_000),
        (100_001, 102_000),
        (999_999, 1_001_001),
        (10**12 - 1000, 10**12 + 1000),
        (10**12 + 1, 10**12 + 3001),
        (10**12 + 2, 10**12 + 3002),
        # Both sides of (10^6 + 1)^2: from there on the sieve leaves survivors to is_prime.
        ((10**6 + 1) ** 2 - 1000, (10**6 + 1) ** 2 + 1000),
    ],
)
def test_prime_flags_odd_and_even_starts(lo, hi):
    oracle = sieve_oracle if hi <= EDGE_LIMIT else is_prime_oracle
    assert bytes(prime_flags(lo, hi)) == odd_entries(oracle(lo, hi), lo)


@pytest.mark.parametrize("p", [17, 19, 23, 29, 997, 1009, 1021])
def test_prime_flags_around_base_prime_squares(p):
    # p^2 is the first multiple of p the kernel clears; the next is p^2 + 2p.
    sq = p * p
    for lo, hi in [(sq, sq), (sq - 2, sq + 2), (sq - 1, sq + 2 * p + 1), (sq + 1, sq + 4 * p)]:
        assert bytes(prime_flags(lo, hi)) == odd_entries(sieve_oracle(lo, hi), lo), (lo, hi)


@pytest.mark.parametrize("mid", [10**12, (10**6 + 1) ** 2])
def test_prime_flags_small_pieces_around_the_edges(mid, monkeypatch):
    # Pieces of 2 * 97 numbers.  Around 10^12 the base primes reach their
    # cap of 10^6 and the sieve alone stays exact.  The middle piece around
    # (10^6 + 1)^2 holds values below it, which the sieve alone decides,
    # and values from it on, whose survivors is_prime confirms.
    monkeypatch.setattr(primes_mod, "_SEGMENT", 97)
    lo, hi = mid - 300, mid + 300
    assert bytes(prime_flags(lo, hi)) == odd_entries(is_prime_oracle(lo, hi), lo)


def test_prime_flags_clear_the_least_composite_the_sieve_misses():
    # 1000003 is the least prime past 10^6, so its square is the least odd
    # composite with no prime factor <= 10^6: only is_prime clears it.
    n = sympy.nextprime(10**6) ** 2
    assert n == 1000003**2
    lo, hi = n - 1000, n + 1000
    flags = prime_flags(lo, hi)
    assert flags[(n - (lo | 1)) // 2] == 0
    assert bytes(flags) == odd_entries(is_prime_oracle(lo, hi), lo)


@pytest.mark.parametrize("lo", [10**10, 10**11, 10**12 - 10**5])
def test_prime_flags_at_the_sparse_threshold(lo):
    # One piece of _SPARSE_HITS * 1009 entries: 1009 has exactly
    # _SPARSE_HITS hits and takes a slice, the primes just above it have
    # one hit fewer and are cleared in rounds, the primes below have more.
    sparse_hits = primes_mod._SPARSE_HITS
    width = sparse_hits * 1009
    hi = lo + 2 * width - 1
    first = lo | 1
    hits = {len(range((p - first) // 2 % p, width, p)) for p in sympy.primerange(17, 2 * 1009)}
    assert {sparse_hits - 1, sparse_hits, sparse_hits + 1} <= hits
    assert bytes(prime_flags(lo, hi)) == odd_entries(is_prime_oracle(lo, hi), lo)


def test_prime_flags_full_segment_at_the_top_of_int64():
    hi = 2**63 - 1
    lo = hi - 2 * primes_mod._SEGMENT + 1
    assert bytes(prime_flags(lo, hi)) == odd_entries(is_prime_oracle(lo, hi), lo)
