"""Greedy residue-class pruning down to an admissible survivor set.

At step t the survivors are bucketed modulo the t-th prime p_t and the
least-populated class is deleted (ties: the class with the largest
residue).  If some class mod p_t is already empty nothing needs to be
deleted, and the step records a removal count of zero with the smallest
empty residue.  Iteration stops at the first s where the survivor count
drops below p_{s+1}; from then on no prime can be fully covered, so the
survivors form an admissible set.  The steps are those of
``ResidueClasses.steps``, the walk that ``check_admissible`` stops at its
first removal.

Each step also tracks the pessimistic survivor count
l_t = l_{t-1} - floor(l_{t-1} / p_t), seeded at the input size.  The
actual count always dominates it, which is what makes the exact product
lower bound of ``survivor_lower_bound`` valid for the real process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .admissible import IntegerSet, ResidueClasses
from .primes import WINDOW_VALUE_MAX, nth_prime, prime_segments


@dataclass(frozen=True)
class PruneStep:
    index: int
    prime: int
    removed_residue: int
    removed_count: int
    survivors_actual: int
    survivors_paper: int


@dataclass(frozen=True)
class PruneTrace:
    input_size: int
    steps: tuple[PruneStep, ...]
    final_set: IntegerSet
    stop_prime: int

    @property
    def s(self) -> int:
        """The number of pruning steps."""
        return len(self.steps)

    @property
    def final_size(self) -> int:
        return self.final_set.size

    @property
    def last_prime(self) -> int | None:
        """p_s, the prime of the final step; None when no step ran."""
        return self.steps[-1].prime if self.steps else None


def greedy_prune(int_set: IntegerSet) -> PruneTrace:
    """Run the pruning loop and return the full step-by-step trace.

    Stopping uses the actual survivor count, never the pessimistic
    proxy, so the returned admissible set is as large as the greedy
    process allows.
    """
    classes = ResidueClasses(int_set.elements)
    proxy = survivors = int_set.size
    steps: list[PruneStep] = []
    for t, (p, residue, removed) in enumerate(classes.steps(), 1):
        proxy -= proxy // p
        survivors -= removed
        steps.append(PruneStep(t, p, residue, removed, survivors, proxy))
    return PruneTrace(
        input_size=int_set.size,
        steps=tuple(steps),
        final_set=IntegerSet(classes.elements()),
        stop_prime=nth_prime(len(steps) + 1),
    )


def survivor_lower_bound(ell: int, s: int) -> Fraction:
    """Exact ell * prod_{i<=s} (1 - 1/p_i).

    Numerator and denominator are accumulated as raw integers and
    normalized once at the end; per-step Fraction reduction is far too
    slow when s runs into the thousands.
    """
    num = ell
    den = 1
    primes = (int(p) for segment in prime_segments(WINDOW_VALUE_MAX) for p in segment)
    for _, p in zip(range(s), primes):
        num *= p - 1
        den *= p
    return Fraction(num, den)
