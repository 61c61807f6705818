"""Independent reference implementations used as test oracles.

Nothing here may import from primeshift: these exist to check the
package against straight-line definitions.
"""

import math
from fractions import Fraction

import numpy as np
import sympy


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_division_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


def brute_force_admissible(elements, prime_bound: int) -> bool:
    """Admissibility by the covering definition.

    For each prime p <= prime_bound, checks literally whether p divides
    prod(n + a) for every n in [0, p).  ``prime_bound`` must be at least
    len(elements), otherwise the oracle could miss a covered prime.
    """
    if prime_bound < len(elements):
        raise ValueError(
            f"prime_bound {prime_bound} below set size {len(elements)}: oracle incomplete"
        )
    return not any(
        all(any((n + a) % p == 0 for a in elements) for n in range(p))
        for p in trial_division_primes(prime_bound)
    )


def prime_reciprocal_product(x: int) -> Fraction:
    """Exact prod_{3 <= p <= x} p / (p - 1); 1 when x < 3."""
    odd = [p for p in trial_division_primes(x) if p > 2]
    return Fraction(math.prod(odd), math.prod(p - 1 for p in odd))


def byte_sieve(limit: int) -> bytearray:
    """flags[n] == 1 iff n prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    if limit >= 1:
        flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def odd_entries(flags, lo: int) -> bytes:
    """Of ``flags``, one entry per number from lo on, the entries at lo | 1, (lo | 1) + 2, ..."""
    return bytes(flags[(lo | 1) - lo :: 2])


def brute_rep_count(n: int, elements, flags: bytearray) -> int:
    """Double-loop representation count against a sieve table."""
    count = 0
    for a in elements:
        d = n - a
        if 2 <= d < len(flags) and flags[d]:
            count += 1
    return count


def rep_count(n: int, elements) -> int:
    """Number of a in ``elements`` with n - a prime, one sympy.isprime call each."""
    return sum(1 for a in elements if sympy.isprime(n - a))


def nonzero_pairs(chunks) -> list[tuple[int, int]]:
    """The (n, count) pairs with count >= 1, ascending n.

    ``chunks`` holds (c_lo, counts) pairs such as ``rep_counts`` yields:
    counts[i] is the count for n = c_lo + i.
    """
    return [(c_lo + i, c) for c_lo, counts in chunks for i, c in enumerate(counts.tolist()) if c]


def romanoff_oracle(limit: int, k_min: int) -> tuple[int, int]:
    """(representable, total) over the odd n in [3, limit], by n = p + 2^k, k >= k_min.

    One bool per number: shift the prime flags up by each 2^k and OR them in.
    """
    flags = np.frombuffer(byte_sieve(limit), dtype=bool)
    reachable = np.zeros(limit + 1, dtype=bool)
    k = k_min
    while (1 << k) <= limit - 2:
        t = 1 << k
        reachable[t + 2 :] |= flags[2 : limit + 1 - t]
        k += 1
    odd = reachable[3::2]
    return int(odd.sum()), int(odd.size)


def greedy_prune_oracle(elements):
    """The greedy prune by its definition, on Python ints.

    Returns (steps, s, stop_prime, survivors); each step is the tuple
    (index, prime, removed_residue, removed_count, survivors_actual,
    survivors_paper).  A prime with an empty class records its smallest
    empty residue and removes nothing; otherwise the least-populated
    class with the largest residue is removed.
    """
    survivors = sorted(elements)
    proxy = len(survivors)
    steps = []
    p = 2
    while len(survivors) >= p:
        proxy -= proxy // p
        counts = [0] * p
        for a in survivors:
            counts[a % p] += 1
        if 0 in counts:
            residue, removed = counts.index(0), 0
        else:
            removed = min(counts)
            residue = max(r for r in range(p) if counts[r] == removed)
            survivors = [a for a in survivors if a % p != residue]
        steps.append((len(steps) + 1, p, residue, removed, len(survivors), proxy))
        p += 1
        while not trial_division_is_prime(p):
            p += 1
    return steps, len(steps), p, survivors


def residues_all_covered(elements, p: int) -> bool:
    return len({a % p for a in elements}) == p


def smallest_empty_class(elements, p: int) -> int | None:
    """The smallest r in [0, p) with no element a, a % p == r; None if there is none."""
    hit = {a % p for a in elements}
    return next((r for r in range(p) if r not in hit), None)


def proxy_sequence(ell: int, primes) -> list[int]:
    """l_t = l_{t-1} - floor(l_{t-1} / p_t), seeded at ell."""
    seq = [ell]
    for p in primes:
        seq.append(seq[-1] - seq[-1] // p)
    return seq
