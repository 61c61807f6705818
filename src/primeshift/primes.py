"""Prime generation, nth-prime lookup, and exact 64-bit primality testing.

Every other module sources its primes here, and every prime comes from
``prime_flags``: one numpy kernel, ``_piece``, run one ``_SEGMENT`` at a
time so its strided clears stay in cache.  The kernel holds one byte per
odd number only: entry i of a window lo..hi stands for (lo | 1) + 2i, so
a segment of 2^20 bytes spans 2^21 numbers, and the prime 2 has no entry;
handling 2 is the caller's job.  Each piece starts from the tiled pattern
of the odd numbers coprime to 3*5*7*11*13, then clears the odd multiples
of each larger base prime: one strided slice per prime with many hits in
the piece, and a few vectorized rounds for all the sparse ones together,
after the bucket sieve of Oliveira e Silva, Herzog and Pardi (Math. Comp.
83, 2014).  The base primes stop at 10^6, the square root of
WINDOW_VALUE_MAX, so the sieve alone is exact below (10^6 + 1)^2; past
that, each survivor is confirmed by ``is_prime``.  The base primes are
one read-only int64 table, ``_BASE``, built once at import through
``prime_flags`` too.  Primes are enumerated as int64 up to
WINDOW_VALUE_MAX = 10^12 by one stream: ``_BASE`` clipped at the limit,
then one array per segment past it.  ``prime_segments`` is that stream,
``sieve`` concatenates it, and ``nth_prime`` walks it.  ``count_primes``
counts the primes up to a limit from the stream's primes up to its
square root alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError

# The most prime_segments enumerates, and the cap on the values whose square
# root bounds the base primes (10^6).  The sieve alone is exact below
# (10^6 + 1)^2 = 1 000 002 000 001; from there on, prime_flags confirms each
# survivor of the same sieve with is_prime.
WINDOW_VALUE_MAX = 10**12

# The base primes: every prime <= isqrt(WINDOW_VALUE_MAX), 78 498 of them.
_BASE_LIMIT = math.isqrt(WINDOW_VALUE_MAX)

# pi(WINDOW_VALUE_MAX), the most primes the stream holds (OEIS A006880).
_PRIME_COUNT_MAX = 37_607_912_018

# Flags per kernel piece: one byte per odd number, so a piece spans
# 2 * _SEGMENT numbers.
_SEGMENT = 1 << 20

# Base primes with fewer hits than this in a piece are cleared in vectorized
# rounds instead of one slice each.  A full piece below 2^30 has none: its
# base primes stay below 2^15 = _SEGMENT // 32.
_SPARSE_HITS = 32

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic Miller-Rabin witnesses covering all n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """All primes up to ``limit`` inclusive, as one ascending read-only int64 array."""

    limit: int
    primes: np.ndarray

    @property
    def count(self) -> int:
        return self.primes.size


# The wheel over odd numbers: _COPRIME[j] is 1 iff the odd number 2j + 1
# is coprime to every prime in _WHEEL_PRIMES.  Its period is _WHEEL // 2 entries.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)
_COPRIME = (np.gcd(np.arange(1, _WHEEL, 2), _WHEEL) == 1).astype(np.uint8)


def _primes_in(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes in lo..hi, lo > 2, ascending, as one int64 array per 2 * _SEGMENT numbers."""
    for start in range(lo, hi + 1, 2 * _SEGMENT):
        primes = np.flatnonzero(prime_flags(start, min(start + 2 * _SEGMENT - 1, hi)).view(bool))
        primes *= 2
        primes += start | 1
        yield primes


def prime_flags(lo: int, hi: int) -> np.ndarray:
    """Primality flags for the odd numbers in lo..hi, exact for any int64 window.

    Returns a fresh ``np.uint8`` array whose entry i is 1 iff (lo | 1) + 2i
    is prime, read-only by convention.  The prime 2 has no entry, so a
    window that holds no odd number gives an empty array.  Entries for
    n < 2 are 0, so negative windows are valid.  The window is sieved
    2 * ``_SEGMENT`` numbers at a time, each piece written straight into
    its slice of the result, with the base primes up to
    bound = min(isqrt(hi), _BASE_LIMIT) of its own hi.  The
    kernel clears only composites, and a composite it leaves has no prime
    factor <= bound, so it is at least (bound + 1)^2.  The sieve alone is
    therefore exact below (10^6 + 1)^2, and each survivor from there on
    is confirmed by ``is_prime`` (deterministic Miller-Rabin, exact below
    2^64).
    """
    if lo > hi:
        raise DomainError(f"empty window: lo={lo} > hi={hi}")
    if hi >= 2**63:
        raise DomainError(f"window upper end {hi} exceeds the 64-bit range")
    flags = np.empty((hi - (lo | 1)) // 2 + 1, dtype=np.uint8)
    for start in range(lo, hi + 1, 2 * _SEGMENT):
        i = (start - lo) // 2
        _piece(start, min(start + 2 * _SEGMENT - 1, hi), flags[i : i + _SEGMENT])
    return flags


def _piece(lo: int, hi: int, flags: np.ndarray) -> None:
    """Write exact uint8 flags for the odd numbers lo | 1, (lo | 1) + 2, ... <= hi
    into ``flags``, one entry each.

    The window is at most 2 * _SEGMENT numbers wide.  The kernel clears
    the odd multiples >= p^2 of every base prime p <= bound =
    min(isqrt(hi), _BASE_LIMIT), never a prime; the survivors past
    (bound + 1)^2 are confirmed by ``is_prime``.
    """
    first = lo | 1
    width = flags.size
    # The wheel pattern from first on: whole periods, then the head of one more.
    wheel = np.roll(_COPRIME, -(first % _WHEEL // 2))
    tiled = width - width % wheel.size
    flags[:tiled].reshape(-1, wheel.size)[:] = wheel
    flags[tiled:] = wheel[: width - tiled]
    for p in _WHEEL_PRIMES[1:]:
        if first <= p <= hi:
            flags[(p - first) // 2] = 1
    flags[: max(0, (1 - first) // 2 + 1)] = 0  # the odd n <= 1
    if hi < 3:
        return  # every entry is an odd n <= 1
    # Offsets from s, not values: s + offset may pass 2^63 - 1 where it is never stored.
    s = max(first, 3)
    bound = min(math.isqrt(hi), _BASE_LIMIT)
    ps = _BASE[len(_WHEEL_PRIMES) : np.searchsorted(_BASE, bound, side="right")]
    o = np.maximum(-s % ps, ps * ps - s)  # first multiple >= max(p^2, s)
    o += ps * (o & 1)  # the first odd one: s is odd
    o += s - first
    o >>= 1  # an index: odd multiples of p lie p entries apart
    hit = o < width
    o, ps = o[hit], ps[hit]
    # Each p <= width // _SPARSE_HITS has at least _SPARSE_HITS hits and gets
    # one strided slice.  The sparser primes after them are cleared together,
    # one hit each per round, so in at most _SPARSE_HITS rounds.
    dense = np.searchsorted(ps, width // _SPARSE_HITS, side="right")
    for start, step in zip(o[:dense].tolist(), ps[:dense].tolist()):
        flags[start::step] = 0
    o, ps = o[dense:], ps[dense:]
    while o.size:
        flags[o] = 0
        o += ps
        live = o < width
        o, ps = o[live], ps[live]
    # A composite survivor has no prime factor <= bound, so it is at least
    # (bound + 1)^2; entry skip is the first value that large.
    skip = max(0, ((bound + 1) ** 2 - first + 1) // 2)
    for i in np.flatnonzero(flags[skip:]).tolist():
        if not is_prime(first + 2 * (skip + i)):
            flags[skip + i] = 0


def _check_limit(limit: int) -> None:
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > WINDOW_VALUE_MAX:
        raise ResourceError(f"sieve limit {limit} exceeds WINDOW_VALUE_MAX = {WINDOW_VALUE_MAX}")


def prime_segments(limit: int) -> Iterator[np.ndarray]:
    """The primes in [2, limit], ascending, one int64 array (to be read only) for
    the base primes, then one per segment past them; checks ``limit`` now."""
    _check_limit(limit)
    clipped = _BASE[: np.searchsorted(_BASE, limit, side="right")]
    return itertools.chain((clipped,), _primes_in(_BASE_LIMIT + 1, limit))


def sieve(limit: int) -> PrimeTable:
    """All primes in [2, limit]: the concatenated ``prime_segments(limit)``."""
    primes = np.concatenate([*prime_segments(limit)])
    primes.setflags(write=False)
    return PrimeTable(limit, primes)


def count_primes(limit: int) -> tuple[int, int]:
    """(pi(limit), the largest prime <= limit) for 2 <= limit <= WINDOW_VALUE_MAX.

    The count is Legendre's recurrence as a dynamic program over the
    about 2 * sqrt(limit) values v in {limit // i} and [1, sqrt(limit)]:
    S(v) starts as v - 1, and for each prime p <= sqrt(limit) in turn,
    S(v) -= S(v // p) - S(p - 1) for every v >= p^2, which strikes the
    numbers whose least prime factor is p.  Each round reads only the
    previous round's values.  The rounds cost O(limit^(3/4)) in all and
    read only the primes up to sqrt(limit), so no prime past it is
    listed.  The largest prime comes from one ``prime_flags`` window that
    ends at the limit.
    """
    _check_limit(limit)
    r = math.isqrt(limit)
    # small[v] = S(v) for v <= r; large[i] = S(limit // i) for 1 <= i <= r.
    # Every value is at most 10^12, so int64 is exact.
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    quot = limit // np.arange(1, r + 1, dtype=np.int64)
    large = np.concatenate(([0], quot - 1))
    # The stream starts at 2; below 4 that prime strikes nothing, as no v reaches 2^2.
    for segment in prime_segments(max(r, 2)):
        for p in segment.tolist():
            below = small[p - 1]
            # limit // i >= p^2 iff i <= top; (limit // i) // p is the entry
            # large[i * p] while i * p <= r, and small[(limit // i) // p] past it.
            top = min(r, limit // (p * p))
            near = min(top, r // p)
            large[1 : near + 1] -= large[p : near * p + 1 : p] - below
            large[near + 1 : top + 1] -= small[quot[near:top] // p] - below
            if p * p <= r:
                # v // p for v = p^2 .. r is p, p, ..., p + 1, ...: each small
                # entry from p on, repeated p times.
                small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - below
    # The widest prime gap below 10^12 is 540, after 738 832 927 927, and the largest
    # prime below 10^12 is 999 999 999 989: for limit >= 3 this window holds a prime.
    lo = max(limit - (1 << 12) + 1, 2)
    odd = np.flatnonzero(prime_flags(lo, limit))
    largest = (lo | 1) + 2 * int(odd[-1]) if odd.size else 2
    return int(large[1]), largest


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) == 2): a walk of ``prime_segments``
    that holds one segment at a time."""
    if i < 1:
        raise DomainError(f"prime index must be >= 1, got {i}")
    if i > _PRIME_COUNT_MAX:
        raise ResourceError(f"prime index {i} exceeds pi(WINDOW_VALUE_MAX) = {_PRIME_COUNT_MAX}")
    for segment in prime_segments(WINDOW_VALUE_MAX):
        if i <= segment.size:
            return int(segment[i - 1])
        i -= segment.size


def is_prime(n: int) -> bool:
    """Exact primality for any 64-bit signed integer (n < 2 is composite).

    Deterministic Miller-Rabin with a witness set valid for all n < 2^64;
    larger inputs are rejected rather than answered probabilistically.
    """
    if n >= 2**64:
        raise DomainError(f"is_prime is exact only below 2^64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The base primes, built in rounds: each sieves up to the square of the last
# round's limit, so its pieces read only primes already in the table.
_BASE, _top = np.array([2], dtype=np.int64), 2
while _top < _BASE_LIMIT:
    _BASE = np.concatenate([_BASE, *_primes_in(_top + 1, min(_top**2, _BASE_LIMIT))])
    _top = min(_top**2, _BASE_LIMIT)
_BASE.setflags(write=False)
