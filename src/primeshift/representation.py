"""Shifted-prime representation counts and desk-scale range searches.

The count for n against a set A is the number of a in A with n - a
prime.  ``rep_search`` evaluates it for every n in a range by sieving a
prime window and adding shifted slices, one per element; ranges are
processed in chunks so memory follows the chunk size, not the range.
Windows that cannot be sieved (values past ``WINDOW_VALUE_MAX``) fall
back to per-query deterministic primality tests with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .admissible import INT64_MAX, INT64_MIN, IntegerSet
from .errors import DomainError, ResourceError
from .primes import WINDOW_VALUE_MAX, is_prime, nth_prime, prime_flags

RANGE_WIDTH_MAX = 10**9
DENSE_WIDTH_MAX = 10**6
SEQUENCE_KINDS = ("powers_of_two", "divisor_chain", "two_pow_prime")

_CHUNK = 1 << 22
# Widest min..max element spread for a single shared prime window per
# chunk; beyond it each element gets its own window.
_SPREAD_MAX = 1 << 26


@dataclass(frozen=True)
class RepresentationProfile:
    """Counts over [n_lo, n_hi] plus the top records.

    Storage is dense (one slot per n) up to DENSE_WIDTH_MAX and sparse
    (only n with a nonzero count) above it.  Records hold the true
    top-k pairs (n, count), count descending, ties to the smaller n.
    """

    int_set: IntegerSet
    n_lo: int
    n_hi: int
    dense: bool
    counts: dict[int, int] | None
    dense_counts: tuple[int, ...] | None
    records: tuple[tuple[int, int], ...]

    def count_at(self, n: int) -> int:
        if not self.n_lo <= n <= self.n_hi:
            raise DomainError(f"{n} outside profile range [{self.n_lo}, {self.n_hi}]")
        if self.dense:
            return self.dense_counts[n - self.n_lo]
        return self.counts.get(n, 0)

    def nonzero_items(self) -> Iterator[tuple[int, int]]:
        """(n, count) pairs with count >= 1, ascending n."""
        if self.dense:
            for i, c in enumerate(self.dense_counts):
                if c:
                    yield self.n_lo + i, c
        else:
            for n in sorted(self.counts):
                yield n, self.counts[n]

    @property
    def represented_count(self) -> int:
        if self.dense:
            return sum(1 for c in self.dense_counts if c)
        return len(self.counts)

    @property
    def total_representations(self) -> int:
        if self.dense:
            return sum(self.dense_counts)
        return sum(self.counts.values())

    @property
    def max_count(self) -> int:
        return self.records[0][1] if self.records else 0


def rep_count(n: int, int_set: IntegerSet) -> int:
    """Number of elements a with n - a prime."""
    elements = int_set.elements
    if n - elements[-1] < INT64_MIN or n - elements[0] > INT64_MAX:
        raise DomainError(f"n - a leaves the 64-bit range for n={n}")
    count = 0
    for a in elements:
        d = n - a
        if d >= 2 and is_prime(d):
            count += 1
    return count


def _chunk_counts(elements: tuple[int, ...], c_lo: int, c_hi: int) -> np.ndarray:
    width = c_hi - c_lo + 1
    counts = np.zeros(width, dtype=np.int64)
    a_min, a_max = elements[0], elements[-1]
    if c_hi - a_min <= WINDOW_VALUE_MAX:
        if a_max - a_min <= _SPREAD_MAX:
            w_lo = c_lo - a_max
            flags = prime_flags(w_lo, c_hi - a_min)
            for a in elements:
                off = (c_lo - a) - w_lo
                counts += flags[off : off + width]
        else:
            for a in elements:
                counts += prime_flags(c_lo - a, c_hi - a)
    else:
        for i in range(width):
            n = c_lo + i
            counts[i] = sum(
                1 for a in elements if n - a >= 2 and is_prime(n - a)
            )
    return counts


def rep_search(
    int_set: IntegerSet, n_lo: int, n_hi: int, top_k: int
) -> RepresentationProfile:
    """Exact counts for every n in [n_lo, n_hi] plus the top_k records."""
    if n_lo > n_hi:
        raise DomainError(f"empty range: n_lo={n_lo} > n_hi={n_hi}")
    if top_k < 1:
        raise DomainError(f"top_k must be >= 1, got {top_k}")
    width = n_hi - n_lo + 1
    if width > RANGE_WIDTH_MAX:
        raise ResourceError(f"range width {width} exceeds {RANGE_WIDTH_MAX}")
    elements = int_set.elements
    if n_lo - elements[-1] < INT64_MIN or n_hi - elements[0] > INT64_MAX:
        raise DomainError("n - a leaves the 64-bit range on this search range")

    dense = width <= DENSE_WIDTH_MAX
    dense_parts: list[np.ndarray] = []
    sparse: dict[int, int] = {}
    candidates: list[tuple[int, int]] = []  # (count, n) chunk winners

    for c_lo in range(n_lo, n_hi + 1, _CHUNK):
        c_hi = min(c_lo + _CHUNK - 1, n_hi)
        counts = _chunk_counts(elements, c_lo, c_hi)
        # Any global record is a record within its chunk, so per-chunk
        # winners are enough to merge exactly.
        order = np.lexsort((np.arange(counts.size), -counts))[:top_k]
        candidates.extend((int(counts[i]), c_lo + int(i)) for i in order)
        if dense:
            dense_parts.append(counts)
        else:
            nz = np.flatnonzero(counts)
            for i in nz:
                sparse[c_lo + int(i)] = int(counts[i])

    candidates.sort(key=lambda t: (-t[0], t[1]))
    records = tuple((n, c) for c, n in candidates[:top_k])
    if dense:
        merged = np.concatenate(dense_parts) if dense_parts else np.zeros(0, np.int64)
        return RepresentationProfile(
            int_set, n_lo, n_hi, True, None, tuple(int(c) for c in merged), records
        )
    return RepresentationProfile(int_set, n_lo, n_hi, False, sparse, None, records)


def romanoff_counts(limit: int, k_min: int = 1) -> tuple[int, int]:
    """(representable, total) over the odd n in [3, limit].

    Representable means n = p + 2^k with p prime and k >= k_min; k_min
    is 0 or 1 (the k = 0 convention adds only n = 3 among odd targets).
    """
    if k_min not in (0, 1):
        raise DomainError(f"k_min must be 0 or 1, got {k_min}")
    if limit < 3:
        raise DomainError(f"limit must be >= 3, got {limit}")
    if limit > RANGE_WIDTH_MAX:
        raise ResourceError(f"limit {limit} exceeds {RANGE_WIDTH_MAX}")
    flags = prime_flags(0, limit) != 0
    reachable = np.zeros(limit + 1, dtype=bool)
    k = k_min
    while (1 << k) <= limit - 2:
        t = 1 << k
        reachable[t + 2 :] |= flags[2 : limit + 1 - t]
        k += 1
    odd = reachable[3::2]
    return int(odd.sum()), int(odd.size)


def romanoff_density(limit: int, k_min: int = 1) -> float:
    """Fraction of odd n in [3, limit] equal to a prime plus a power of two."""
    representable, total = romanoff_counts(limit, k_min)
    return representable / total


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
        top = nth_prime(count)
        if top > 62:
            raise DomainError(f"2^{top} overflows the 64-bit range")
        return IntegerSet(tuple(1 << nth_prime(i) for i in range(1, count + 1)))
    if seed_ratio < 2:
        raise DomainError(f"seed_ratio must be >= 2, got {seed_ratio}")
    if seed_ratio**count > INT64_MAX:
        raise DomainError(f"{seed_ratio}^{count} overflows the 64-bit range")
    return IntegerSet(tuple(seed_ratio**i for i in range(1, count + 1)))
