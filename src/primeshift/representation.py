"""Shifted-prime representation counts and desk-scale range searches.

The count for n against a set A is the number of a in A with n - a
prime.  ``rep_counts`` evaluates it for every n in a range by adding
shifted slices of prime flags, one per element.  ``prime_flags`` holds
one byte per odd number, and n - a is odd or the one even prime 2, so
each chunk keeps two contiguous half-count arrays, one per parity of n:
an element adds one slice of odd flags to the half where n - a is odd,
and 1 at n = a + 2 in the other.  Within each chunk the elements fall
into runs whose windows overlap or touch, and each run shares one prime
window, so the sieve covers exactly the union of the elements' windows.
``rep_search`` keeps only two totals and a running top-k, so memory
follows the chunk size and k, not the range.  ``prime_flags`` is
exact for every 64-bit window, so no path tests values one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .admissible import INT64_MAX, INT64_MIN, IntegerSet
from .errors import DomainError, ResourceError
from .primes import prime_flags, prime_segments

RANGE_WIDTH_MAX = 10**9
# Most records rep_search returns: each costs about 500 bytes on its way
# to the JSON output.
TOP_K_MAX = 10**4
SEQUENCE_KINDS = ("powers_of_two", "divisor_chain", "two_pow_prime")

_CHUNK = 1 << 22
# Widest min..max element spread within one run, which caps one shared
# prime window at (_SPREAD_MAX + _CHUNK) / 2 bytes: one per odd number.
_SPREAD_MAX = 1 << 26
# romanoff_counts reads prime_flags in windows of this many numbers: one
# sieve segment of 2^20 odd numbers, and a multiple of 16, so each
# window's flags fill whole bytes of the packed bits.
_WINDOW = 1 << 21
# _POPCOUNT[b] is the number of set bits in the byte b.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class RepresentationProfile:
    """Totals over [n_lo, n_hi] plus the top records.

    ``represented_count`` is the number of n with a nonzero count and
    ``total_representations`` the sum of all counts.  Records hold the
    true top-k pairs (n, count), count descending, ties to the smaller
    n.  ``rep_counts`` yields every count.
    """

    int_set: IntegerSet
    n_lo: int
    n_hi: int
    represented_count: int
    total_representations: int
    records: tuple[tuple[int, int], ...]

    @property
    def max_count(self) -> int:
        return self.records[0][1] if self.records else 0


def _chunk_counts(elements: list[int], c_lo: int, c_hi: int) -> np.ndarray:
    """Counts for c_lo..c_hi in the narrowest unsigned dtype that holds len(elements)."""
    width = c_hi - c_lo + 1
    dtype = np.min_scalar_type(len(elements))
    # halves[q][t] counts n = c_lo + q + 2t.  Each stays contiguous: adding
    # into a stride-2 view of one count array costs several times more.
    halves = (np.zeros((width + 1) // 2, dtype), np.zeros(width // 2, dtype))
    # Element a reads the window c_lo - a..c_hi - a.  A run breaks where a
    # gap leaves a hole between neighbouring windows, or where its spread
    # would pass _SPREAD_MAX.
    runs: list[list[int]] = []
    for a in elements:
        if c_hi - a < 2:  # n - a < 2 on the whole chunk, here and for every larger a
            break
        if runs and a - runs[-1][-1] <= width and a - runs[-1][0] <= _SPREAD_MAX:
            runs[-1].append(a)
        else:
            runs.append([a])
    for run in runs:
        lo = c_lo - run[-1]
        flags = prime_flags(lo, c_hi - run[0])
        for a in run:
            q = (c_lo - a + 1) & 1  # the half where n - a is odd
            half = halves[q]
            i = (c_lo + q - a - (lo | 1)) // 2
            half += flags[i : i + half.size]
            if c_lo <= a + 2 <= c_hi:  # n - a = 2
                halves[q ^ 1][(a + 2 - c_lo) // 2] += 1
        del flags  # before the next window or the interleaved counts are allocated
    counts = np.empty(width, dtype)
    counts[0::2], counts[1::2] = halves
    return counts


def rep_counts(int_set: IntegerSet, n_lo: int, n_hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """(c_lo, counts) for each chunk of ``_CHUNK`` n from n_lo to n_hi; checks the range now.

    counts[i] is the exact count for n = c_lo + i, in the narrowest
    unsigned dtype that holds the set's size.
    """
    if n_lo > n_hi:
        raise DomainError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    width = n_hi - n_lo + 1
    if width > RANGE_WIDTH_MAX:
        raise ResourceError(f"range width {width} exceeds {RANGE_WIDTH_MAX}")
    elements = int_set.elements.tolist()
    if n_lo - elements[-1] < INT64_MIN or n_hi - elements[0] > INT64_MAX:
        raise DomainError("n - a leaves the 64-bit range on this search range")
    return (
        (c_lo, _chunk_counts(elements, c_lo, min(c_lo + _CHUNK - 1, n_hi)))
        for c_lo in range(n_lo, n_hi + 1, _CHUNK)
    )


def check_top_k(top_k: int) -> None:
    """Reject a top_k that ``rep_search`` cannot report."""
    if top_k < 1:
        raise DomainError(f"top_k must be >= 1, got {top_k}")
    if top_k > TOP_K_MAX:
        raise ResourceError(f"top_k {top_k} exceeds {TOP_K_MAX}")


def _chunk_records(c_lo: int, counts: np.ndarray, top_k: int) -> list[tuple[int, int]]:
    """The chunk's top_k records as (-count, n): every count above the k-th
    largest, then the first ties at it in ascending n, found one block of
    2^16 n at a time so that a chunk of ties never becomes one index array.

    The k-th largest count is the largest v with at least k counts >= v,
    found by bisection on v in 0..max: at most ceil(log2(max + 1))
    compare-and-count passes over the chunk, as counts never pass the
    set's size.
    """
    k = min(top_k, counts.size)
    kth, hi = 0, int(counts.max())
    while kth < hi:
        v = (kth + hi + 1) // 2
        if np.count_nonzero(counts >= v) >= k:
            kth = v
        else:
            hi = v - 1
    above = np.flatnonzero(counts > kth)
    records = [(-c, c_lo + i) for i, c in zip(above.tolist(), counts[above].tolist())]
    for b in range(0, counts.size, 1 << 16):
        if len(records) == k:
            break
        ties = np.flatnonzero(counts[b : b + (1 << 16)] == kth)[: k - len(records)]
        records += [(-kth, c_lo + b + i) for i in ties.tolist()]
    return records


def rep_search(int_set: IntegerSet, n_lo: int, n_hi: int, top_k: int) -> RepresentationProfile:
    """The totals and top_k records over [n_lo, n_hi], read chunk by chunk from ``rep_counts``.

    Checks top_k, then the range, before any counting.  Any global record
    is a record within its chunk, so merging each chunk's top_k into the
    running top_k is exact, and memory holds at most 2 * top_k records.
    """
    check_top_k(top_k)
    represented = total = 0
    best: list[tuple[int, int]] = []  # (-count, n), in record order
    for c_lo, counts in rep_counts(int_set, n_lo, n_hi):
        best = sorted(best + _chunk_records(c_lo, counts, top_k))[:top_k]
        represented += int(np.count_nonzero(counts))
        total += int(counts.sum(dtype=np.int64))
        del counts  # before rep_counts builds the next chunk
    records = tuple((n, -c) for c, n in best)
    return RepresentationProfile(int_set, n_lo, n_hi, represented, total, records)


def romanoff_counts(limit: int, k_min: int = 1) -> tuple[int, int]:
    """(representable, total) over the odd n in [3, limit].

    Representable means n = p + 2^k with p prime and k >= k_min; k_min
    is 0 or 1 (the k = 0 convention adds only n = 3 among odd targets).
    An odd n = p + 2^k with k >= 1 needs an odd p, so the count holds one
    bit per odd number: bit j of a packed little-endian uint8 array
    stands for n = 2j + 1.  The odd primes' bits are packed straight
    from ``prime_flags``, whose entries are the odd numbers, one
    ``_WINDOW`` of 2^21 numbers at a time, and each shift by 2^k moves
    them up by 2^(k-1) bits.  Memory is two ceil(m/8)-byte arrays for the
    m odd numbers up to limit, plus one window of 2^20 flags; the shifts by
    fewer than 8 bits and the final count each hold one more array of
    that size for a moment.
    """
    if k_min not in (0, 1):
        raise DomainError(f"k_min must be 0 or 1, got {k_min}")
    if limit < 3:
        raise DomainError(f"limit must be >= 3, got {limit}")
    if limit > RANGE_WIDTH_MAX:
        raise ResourceError(f"limit {limit} exceeds {RANGE_WIDTH_MAX}")
    m = (limit + 1) // 2
    odd_primes = np.zeros(-(-m // 8), dtype=np.uint8)
    for lo in range(0, limit + 1, _WINDOW):
        flags = prime_flags(lo, min(lo + _WINDOW - 1, limit))
        bits = np.packbits(flags.view(bool), bitorder="little")
        odd_primes[lo // 16 : lo // 16 + bits.size] = bits
    reachable = np.zeros_like(odd_primes)
    # Every k >= 1 with 2^k <= limit - 3, as the smallest odd prime is 3.
    for k in range(1, (limit - 3).bit_length()):
        h = 1 << (k - 1)
        shift, carry = h >> 3, h & 7
        if carry:
            reachable[shift:] |= odd_primes[: odd_primes.size - shift] << carry
            reachable[shift + 1 :] |= odd_primes[: odd_primes.size - shift - 1] >> (8 - carry)
        else:
            reachable[shift:] |= odd_primes[: odd_primes.size - shift]
    # Bit 0 (n = 1) stays clear: every shift moves a bit j >= 1 up by h >= 1.
    if k_min == 0:
        reachable[0] |= 0b10  # n = 3 = 2 + 2^0
    if m % 8:
        reachable[-1] &= (1 << (m % 8)) - 1
    return int(_POPCOUNT[reachable].sum()), m - 1


def gen_sequence(kind: str, count: int, seed_ratio: int = 2) -> IntegerSet:
    """Build one of the stock fast-growing test sequences.

    powers_of_two: 2^1 .. 2^count (count <= 62);
    divisor_chain: seed_ratio^1 .. seed_ratio^count, each dividing the next;
    two_pow_prime: 2^(p_i) for the first ``count`` primes p_i (p_count <= 62).
    """
    if kind not in SEQUENCE_KINDS:
        raise DomainError(f"unknown sequence kind {kind!r}; pick from {SEQUENCE_KINDS}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if kind == "powers_of_two":
        if count > 62:
            raise DomainError(f"2^{count} overflows the 64-bit range")
        return IntegerSet(tuple(1 << i for i in range(1, count + 1)))
    if kind == "two_pow_prime":
        # p_18 = 61 is the last prime <= 62; check count before reading the primes.
        if count > 18:
            raise DomainError(f"2^p_{count} overflows the 64-bit range: only p_1..p_18 are <= 62")
        primes = np.concatenate([*prime_segments(61)])[:count]
        return IntegerSet(tuple(1 << p for p in primes.tolist()))
    if seed_ratio < 2:
        raise DomainError(f"seed_ratio must be >= 2, got {seed_ratio}")
    # Every ratio >= 2 overflows by count 63; check that before the big power.
    if count > 62 or seed_ratio**count > INT64_MAX:
        raise DomainError(f"{seed_ratio}^{count} overflows the 64-bit range")
    return IntegerSet(tuple(seed_ratio**i for i in range(1, count + 1)))
