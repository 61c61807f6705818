"""The benchmark's workloads: seeded inputs, the CLI jobs run on them, and
the oracle that checks each job's stdout.

A pass of a workload runs its job list once, in order, each job a fresh
`python -m primeshift.cli` process.  Sizes are fixed; the seed picks the
input values and jitters offsets and limits slightly, so every seed
drives the same internal paths with different data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles

# A job's check gets the parsed stdout envelope and the values returned by
# the checks of the jobs it needs, keyed by job name.
Check = Callable[[dict, dict[str, Any]], Any]


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]
    check: Check
    # Earlier jobs whose checked results this job's check compares against.
    needs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[np.random.Generator, Path], list[Job]]


def write_set(path: Path, values) -> str:
    path.write_text("\n".join(str(int(v)) for v in values) + "\n", encoding="utf-8")
    return str(path)


def powers_of_two(count: int) -> list[int]:
    return [1 << i for i in range(1, count + 1)]


def pipeline(rng: np.random.Generator, workdir: Path) -> list[Job]:
    values = rng.choice(2 * 10**12 + 1, size=10**6, replace=False) - 10**12
    rng.shuffle(values)
    path = write_set(workdir / "pipeline.txt", values)
    return [
        Job("check", ("check", path), lambda env, _: oracles.check_certificate(env, values)),
        Job("prune", ("prune", path), lambda env, _: oracles.check_prune(env, values)),
        Job(
            "guarantee",
            ("guarantee", path),
            lambda env, done: oracles.check_guarantee(env, done["prune"]),
            needs=("prune",),
        ),
    ]


def _repsearch(name: str, elements: list[int], lo: int, hi: int, workdir: Path) -> Job:
    path = write_set(workdir / f"{name}.txt", elements)
    top = 10
    return Job(
        name,
        ("repsearch", path, "--from", str(lo), "--to", str(hi), "--top", str(top)),
        lambda env, _: oracles.check_repsearch(env, elements, lo, hi, top),
    )


def search(rng: np.random.Generator, workdir: Path) -> list[Job]:
    # sparse: a 10^7-wide range is stored as a dict of nonzero counts.
    sparse_lo = 3 + int(rng.integers(0, 1000))
    # spread: elements span ~10^9, far beyond one shared prime window, so
    # every element gets its own window (~1000 prime_flags calls).
    spread = sorted(int(a) for a in rng.choice(10**9 + 1, size=1000, replace=False))
    spread_lo = 10**9 + int(rng.integers(0, 10**6))
    # far: the range straddles 10^12, past which windows cannot be sieved,
    # so every cell takes the per-value Miller-Rabin fallback.
    far_mid = 10**12 + int(rng.integers(-1000, 1001))
    return [
        _repsearch("repsearch_sparse", powers_of_two(40), sparse_lo, sparse_lo + 10**7 - 1, workdir),
        _repsearch("repsearch_spread", spread, spread_lo, spread_lo + 10**6 - 1, workdir),
        _repsearch("repsearch_far", powers_of_two(20), far_mid - 5 * 10**4, far_mid + 5 * 10**4, workdir),
    ]


def verify(rng: np.random.Generator, workdir: Path) -> list[Job]:
    mertens = 10**7 + int(rng.integers(0, 10**5))
    romanoff = 10**8 + int(rng.integers(0, 10**5))
    primes = 2 * 10**8 + int(rng.integers(0, 10**5))
    return [
        Job(
            "verify_lemmas",
            ("verify-lemmas", "--mertens-limit", str(mertens)),
            lambda env, _: oracles.check_lemmas(env, mertens),
        ),
        Job(
            "romanoff",
            ("romanoff", "--limit", str(romanoff), "--k-min", "1"),
            lambda env, _: oracles.check_romanoff(env, romanoff, 1),
        ),
        Job(
            "primes",
            ("primes", "--limit", str(primes)),
            lambda env, _: oracles.check_primes(env, primes),
        ),
    ]


# Why each workload exists and the layers it stresses; BENCHMARK.json
# repeats these reasons.
WORKLOADS = {
    "pipeline": Workload(
        why=(
            "check, prune, guarantee on 10^6 seeded integers: cli parsing, "
            "IntegerSet.from_values, greedy_prune and the 3 MB prune JSON encode; "
            "prime sieving is near zero"
        ),
        build=pipeline,
    ),
    "search": Workload(
        why=(
            "repsearch down its three paths (sparse dict over 10^7, one window per "
            "spread element, Miller-Rabin past 10^12): representation, prime_flags, "
            "is_prime; parsing and prune near zero"
        ),
        build=search,
    ),
    "verify": Workload(
        why=(
            "verify-lemmas 10^7, romanoff 10^8, primes 2*10^8: one big contiguous "
            "sieve and romanoff_counts, the opposite use of primes and "
            "representation to search"
        ),
        build=verify,
    ),
}
