"""Independent correctness oracles for the primeshift CLI outputs.

Nothing here imports primeshift: primes come from a NumPy sieve written
out in full below and are cross-checked with sympy, so a defect in the
package's own sieve, window or fallback paths cannot hide in the oracle.

Every ``check_*`` function takes the parsed JSON envelope of one CLI run
plus the inputs the benchmark generated, and raises ``OracleError`` on
the first mismatch.  JSON integers at or above 2^53 arrive as decimal
strings, so every integer field is read through ``int()``.
"""

from __future__ import annotations

import math

import numpy as np
import sympy

MERTENS_FACTOR = 0.923
MERTENS_MIN_X = 74


class OracleError(AssertionError):
    """A CLI output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def check_envelope(envelope: dict, subcommand: str) -> dict:
    expect(envelope.get("version") == 1, f"envelope version {envelope.get('version')!r}")
    expect(
        envelope.get("subcommand") == subcommand,
        f"subcommand {envelope.get('subcommand')!r}, expected {subcommand!r}",
    )
    return envelope["result"]


# ---------------------------------------------------------------- primes


def odd_sieve(limit: int) -> np.ndarray:
    """flags[i] is True iff 2i+1 is prime, for odd 2i+1 <= limit."""
    flags = np.ones((limit + 1) // 2, dtype=bool)
    if flags.size:
        flags[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = 2 * np.flatnonzero(odd_sieve(limit)).astype(np.int64) + 1
    return np.concatenate((np.array([2], dtype=np.int64), odd))


def segment_flags(lo: int, hi: int, odd_base: np.ndarray) -> np.ndarray:
    """uint8 primality flags for lo..hi (lo >= 0); odd_base covers sqrt(hi)."""
    flags = np.ones(hi - lo + 1, dtype=np.uint8)
    flags[lo & 1 :: 2] = 0
    for v, is_p in ((0, 0), (1, 0), (2, 1)):
        if lo <= v <= hi:
            flags[v - lo] = is_p
    ps = odd_base[odd_base * odd_base <= hi]
    starts = np.maximum(ps * ps, -(-lo // ps) * ps)
    starts += ps * (starts % 2 == 0)
    for p, start in zip(ps.tolist(), (starts - lo).tolist()):
        flags[start :: 2 * p] = 0
    return flags


def shifted_prime_counts(
    elements, lo: int, hi: int, segment: int = 1 << 24
) -> np.ndarray:
    """counts[n - lo] = #{a in elements : n - a is prime} for n in lo..hi.

    The value windows [lo - a, hi - a] are sieved segment by segment
    over their union, and each window's slice is added to the counts.
    """
    counts = np.zeros(hi - lo + 1, dtype=np.int32)
    windows = sorted((max(lo - a, 2), hi - a, a) for a in elements if hi - a >= 2)
    if not windows:
        return counts
    v_lo = windows[0][0]
    v_hi = max(w[1] for w in windows)
    odd_base = primes_upto(math.isqrt(v_hi))[1:]
    for s_lo in range(v_lo, v_hi + 1, segment):
        s_hi = min(s_lo + segment - 1, v_hi)
        touching = [w for w in windows if w[0] <= s_hi and w[1] >= s_lo]
        if not touching:
            continue
        flags = segment_flags(s_lo, s_hi, odd_base)
        for w_lo, w_hi, a in touching:
            o_lo, o_hi = max(w_lo, s_lo), min(w_hi, s_hi)
            counts[o_lo + a - lo : o_hi + a - lo + 1] += flags[o_lo - s_lo : o_hi - s_lo + 1]
    return counts


def check_primes(envelope: dict, limit: int) -> None:
    """`primes --limit`: the prime count and the largest prime <= limit."""
    result = check_envelope(envelope, "primes")
    expect(int(result["limit"]) == limit, f"limit {result['limit']} != {limit}")
    flags = odd_sieve(limit)
    count = int(flags.sum()) + 1
    largest = 2 * int(np.flatnonzero(flags)[-1]) + 1 if limit >= 3 else 2
    expect(sympy.isprime(largest) and sympy.nextprime(largest) > limit,
           f"oracle sieve disagrees with sympy at {largest}")
    expect(int(result["count"]) == count, f"count {result['count']} != {count}")
    expect(int(result["largest"]) == largest, f"largest {result['largest']} != {largest}")


# --------------------------------------------------------- representation


def romanoff_counts(limit: int, k_min: int) -> tuple[int, int]:
    """(#odd n in [3, limit] equal to p + 2^k with k >= k_min, #odd n).

    For odd n and k >= 1 the prime is odd, so on the odd-index grid
    (index j <-> 2j+1) adding 2^k is a shift by 2^(k-1).  k = 0 adds
    only n = 3 = 2 + 1.
    """
    prime = odd_sieve(limit)
    reachable = np.zeros_like(prime)
    k = 1
    while (1 << k) + 3 <= limit:
        shift = 1 << (k - 1)
        reachable[shift:] |= prime[: prime.size - shift]
        k += 1
    if k_min == 0 and limit >= 3:
        reachable[1] = True
    return int(reachable[1:].sum()), (limit - 1) // 2


def check_romanoff(envelope: dict, limit: int, k_min: int) -> None:
    result = check_envelope(envelope, "romanoff")
    representable, odd_count = romanoff_counts(limit, k_min)
    expect(int(result["limit"]) == limit and int(result["k_min"]) == k_min,
           "romanoff parameters not echoed")
    expect(int(result["odd_count"]) == odd_count,
           f"odd_count {result['odd_count']} != {odd_count}")
    expect(int(result["representable_count"]) == representable,
           f"representable_count {result['representable_count']} != {representable}")
    expect(result["density"] == representable / odd_count, "density != representable / odd")


def brute_count(n: int, elements) -> int:
    """#{a : n - a prime}, by sympy."""
    return sum(1 for a in elements if n - a >= 2 and sympy.isprime(n - a))


def check_repsearch(envelope: dict, elements, lo: int, hi: int, top: int) -> None:
    """Totals and records against the sieve; every record re-counted by sympy."""
    result = check_envelope(envelope, "repsearch")
    expect((int(result["n_lo"]), int(result["n_hi"]), int(result["top_k"]))
           == (lo, hi, top), "repsearch parameters not echoed")
    counts = shifted_prime_counts(elements, lo, hi)
    total = int(counts.sum())
    represented = int(np.count_nonzero(counts))
    expect(int(result["total_representations"]) == total,
           f"total_representations {result['total_representations']} != {total}")
    expect(int(result["represented_count"]) == represented,
           f"represented_count {result['represented_count']} != {represented}")
    order = np.lexsort((np.arange(counts.size), -counts))[:top]
    expected = [[lo + int(i), int(counts[i])] for i in order]
    records = [[int(n), int(c)] for n, c in result["records"]]
    expect(records == expected, f"records {records[:3]}... != {expected[:3]}...")
    expect(int(result["max_count"]) == (expected[0][1] if expected else 0), "max_count")
    for n, c in records:
        expect(brute_count(n, elements) == c, f"record n={n}: sympy recount != {c}")


# ------------------------------------------------------ admissibility/prune


def check_certificate(envelope: dict, values: np.ndarray) -> None:
    """`check`: re-verify the certificate on the input values directly.

    Inadmissible: the covering prime has every residue hit and no smaller
    prime is covered.  Admissible: exactly the primes <= len(set) carry a
    witness, and each witness is the smallest residue no element hits.
    """
    result = check_envelope(envelope, "check")
    covered = result["covered_prime"]
    if result["verdict"] == "inadmissible":
        expect(result["missed_residues"] == [], "inadmissible certificate lists residues")
        # Only primes <= |set| can have every class hit; stop at the first.
        smallest = next(
            (q for q in primes_upto(values.size).tolist()
             if np.count_nonzero(np.bincount(values % q, minlength=q)) == q),
            None,
        )
        expect(int(covered) == smallest, f"covered prime {covered}, expected {smallest}")
        return
    expect(result["verdict"] == "admissible" and covered is None, "bad verdict fields")
    listed = [(int(p), int(r)) for p, r in result["missed_residues"]]
    expect([p for p, _ in listed] == primes_upto(values.size).tolist(),
           "witness primes are not exactly the primes <= |set|")
    for p, r in listed:
        empty = np.flatnonzero(np.bincount(values % p, minlength=p) == 0)
        expect(empty.size > 0 and int(empty[0]) == r, f"residue {r} mod {p} is not the least missed")


def check_prune(envelope: dict, values: np.ndarray) -> dict:
    """`prune`: subset, survivor bound, stop rule and admissibility.

    Admissibility of the final set is certified by the trace itself: the
    final set must miss the removed residue of every step, the steps
    must run over exactly the first s primes, and the final size must
    lie below stop_prime = p_(s+1), so no larger prime can be covered.
    """
    result = check_envelope(envelope, "prune")
    steps = result["steps"]
    s = int(result["s"])
    expect(int(result["input_size"]) == values.size, "input_size != |input|")
    expect(len(steps) == s, f"{len(steps)} steps listed, s = {s}")
    stop = int(result["stop_prime"])
    # Steps need p_s <= |input|, and p_(s+1) < 2 p_s by Bertrand's postulate.
    expect(2 <= stop <= 2 * values.size, f"stop_prime {stop} out of range")
    primes = primes_upto(stop)
    expect(primes.size == s + 1 and primes[-1] == stop, f"stop_prime {stop} is not p_(s+1)")
    actual = paper = values.size
    for t, step in enumerate(steps, 1):
        p = int(step["prime"])
        expect(int(step["index"]) == t and p == primes[t - 1], f"step {t} is not at p_{t}")
        expect(actual >= p, f"step {t} ran with {actual} < {p} survivors")
        expect(0 <= int(step["removed_residue"]) < p, f"step {t} residue out of range")
        actual -= int(step["removed_count"])
        paper -= paper // p
        expect(int(step["survivors_actual"]) == actual, f"step {t} survivor count")
        expect(int(step["survivors_paper"]) == paper, f"step {t} paper recurrence")
        expect(actual >= paper, f"step {t}: survivors_actual < survivors_paper")
    final = np.array([int(a) for a in result["final_set"]], dtype=np.int64)
    expect(int(result["final_size"]) == final.size == actual, "final size mismatch")
    expect(final.size < stop, f"final size {final.size} not below stop prime {stop}")
    expect(bool(np.all(np.diff(final) > 0)), "final set not strictly increasing")
    expect(bool(np.isin(final, values).all()), "final set is not a subset of the input")
    for step in steps:
        p, r = int(step["prime"]), int(step["removed_residue"])
        expect(not bool((final % p == r).any()), f"final set hits residue {r} mod {p}")
    return result


def maynard_m(k: int) -> int:
    """Largest m >= 0 with k ln k > e^(8m+4) (0 when none), clamped to >= 1."""
    v = k * math.log(k) if k > 1 else 0.0
    m = 0
    while v > math.exp(8 * (m + 1) + 4):
        m += 1
    return max(m, 1)


def check_guarantee(envelope: dict, prune_result: dict) -> None:
    """`guarantee`: agrees with `prune` on ell, ell_s and s."""
    result = check_envelope(envelope, "guarantee")
    steps = prune_result["steps"]
    ell = int(result["ell"])
    expect(ell == int(prune_result["input_size"]), "ell differs from prune")
    expect(int(result["ell_s"]) == int(prune_result["final_size"]), "ell_s differs from prune")
    expect(int(result["s"]) == int(prune_result["s"]), "s differs from prune")
    p_s = int(steps[-1]["prime"]) if steps else None
    expect((None if result["p_s"] is None else int(result["p_s"])) == p_s,
           "p_s differs from prune")
    m = maynard_m(int(result["ell_s"]))
    expect(int(result["m"]) == m, f"m {result['m']} != {m}")
    bound = math.log(ell) / 8 - 1.6
    expect(math.isclose(result["theorem_bound"], bound, rel_tol=1e-12), "theorem_bound")
    expect(result["satisfied"] == (m > bound), "satisfied flag")


# -------------------------------------------------------------- verifiers


def mertens_margin(x_max: int) -> float:
    """min over checkpoints of 0.923 ln x - prod_{3<=p<=x} p/(p-1)."""
    primes = primes_upto(x_max)[1:].astype(np.float64)
    log_prod = np.cumsum(np.log(primes / (primes - 1)))
    checkpoints = primes >= MERTENS_MIN_X
    seed = np.searchsorted(primes, MERTENS_MIN_X)
    at_74 = MERTENS_FACTOR * math.log(MERTENS_MIN_X) - math.exp(log_prod[seed - 1])
    at_primes = MERTENS_FACTOR * np.log(primes[checkpoints]) - np.exp(log_prod[checkpoints])
    return min(at_74, float(at_primes.min())) if at_primes.size else at_74


def check_lemmas(envelope: dict, mertens_limit: int) -> None:
    """`verify-lemmas`: every check passes; the Mertens margin is recomputed."""
    result = check_envelope(envelope, "verify-lemmas")
    reports = result["reports"]
    expect(len(reports) >= 1 and result["all_passed"] is True, "not all checks passed")
    for report in reports:
        expect(report["passed"] is True, f"{report['name']} failed")
    mertens = [r for r in reports if str(mertens_limit) in r["checked_range"]]
    expect(len(mertens) == 1, f"no report covers the Mertens range up to {mertens_limit}")
    margin = mertens_margin(mertens_limit)
    expect(margin > 0 and math.isclose(mertens[0]["margin"], margin, rel_tol=1e-6),
           f"Mertens margin {mertens[0]['margin']} != {margin}")
