"""Quantitative guarantees and executable verifiers for the constants.

Everything here reduces to explicit inequalities.  Verdicts are
conservative: float comparisons carry a relative guard that dwarfs the
accumulated rounding error, threshold cases are settled in the standard
library's ``decimal`` at 60 significant digits (its ``ln`` and ``exp``
are correctly rounded), and the one product that is cheap to keep exact
is kept exact as a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

import numpy as np

from .admissible import IntegerSet
from .errors import DomainError
from .primes import nth_prime, prime_segments
from .prune import greedy_prune, survivor_lower_bound

_CTX = Context(prec=60)
# Relative guard for float inequality verdicts.  The Mertens log-product
# is a cumulative sum within each prime segment (at most 144 822 terms, in
# (10^6, 10^6 + 2^21]; later segments of 2^21 numbers hold fewer primes, so
# a relative error below ~2e-11) carried across segments by a compensated
# sum, so 1e-9 is comfortably conservative.
_FLOAT_GUARD = 1e-9

MERTENS_FACTOR = 0.923
MERTENS_MIN_X = 74


@dataclass(frozen=True)
class GuaranteeReport:
    """End-to-end pipeline outcome for one input set.

    ``m`` is the guaranteed representation count: the threshold value
    for the admissible survivor count, clamped below at 1 (a single
    shifted prime always exists).  ``satisfied`` records whether m
    beats the baseline bound for the input size.
    """

    ell: int
    ell_s: int
    s: int
    p_s: int | None
    m: int
    theorem_bound: float
    satisfied: bool


@dataclass(frozen=True)
class LemmaReport:
    name: str
    checked_range: str
    margin: float
    passed: bool


def maynard_m(k: int) -> int:
    """Largest m >= 0 with k*ln(k) strictly above e^(8m+4); 0 when none.

    Evaluated in ``decimal`` at 60 significant digits, with correctly
    rounded ``ln`` and ``exp``, so the strict inequality cannot flip on
    rounding near a threshold.  e^(8m+4) grows with m, so m counts up
    from 0 while the next value still holds: at most m + 1 ``exp`` calls.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    with localcontext(_CTX):
        v = Decimal(k) * Decimal(k).ln()
        m = 0
        while v > Decimal(8 * m + 12).exp():
            m += 1
        return m


def theorem1_bound(ell: int) -> float:
    """Baseline lower bound (1/8) ln(ell) - 1.6 for the guaranteed count."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    return math.log(ell) / 8 - 1.6


def corollary_bound(x: float) -> float:
    """The doubled-logarithm form (1/8) ln(ln x) - 1.6; requires finite x >= e."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if x < math.e:
        raise DomainError(f"x must be >= e, got {x}")
    return math.log(math.log(x)) / 8 - 1.6


def guarantee(int_set: IntegerSet) -> GuaranteeReport:
    """Prune to an admissible set and report the representation guarantee.

    m is clamped below at 1: even when the survivor count is too small
    for the threshold lemma, at least one shifted prime exists.
    """
    trace = greedy_prune(int_set)
    ell = int_set.size
    ell_s = trace.final_size
    m = max(maynard_m(ell_s), 1)
    bound = theorem1_bound(ell)
    return GuaranteeReport(
        ell=ell,
        ell_s=ell_s,
        s=trace.s,
        p_s=trace.last_prime,
        m=m,
        theorem_bound=bound,
        satisfied=m > bound,
    )


def verify_mertens(x_max: int) -> LemmaReport:
    """Check prod_{3<=p<=x} (1 - 1/p)^(-1) <= 0.923 ln x on [74, x_max].

    The product only changes at primes and the right side grows between
    them, so the ratio peaks immediately at each prime: it suffices to
    check x = 74 (product over p <= 73) and x = q for every prime q in
    (74, x_max].  A pass requires the guarded comparison
    product * (1 + g) <= bound * (1 - g) at every checkpoint.

    The log-product is summed over ``prime_segments(x_max)``, so memory
    follows the segment, not x_max.  The primes below 74 are added first,
    one at a time in scalar floats, so the x = 74 checkpoint (the minimum
    margin) is the same float whatever the segment size; it is still
    rounded, like every checkpoint.  Within each segment the checkpoints
    from 74 up are compared at once from a cumulative sum of -log1p(-1/q)
    on top of the running total; each segment's sum then joins that total
    with a Neumaier compensated add.
    """
    if x_max < MERTENS_MIN_X:
        raise DomainError(f"x_max must be >= {MERTENS_MIN_X}, got {x_max}")

    log_sum = 0.0
    comp = 0.0  # Neumaier compensation

    def add(term: float) -> None:
        nonlocal log_sum, comp
        t = log_sum + term
        if abs(log_sum) >= abs(term):
            comp += (log_sum - t) + term
        else:
            comp += (term - t) + log_sum
        log_sum = t

    min_margin = math.inf
    all_ok = True

    def check(product, bound) -> None:
        """Fold in the checkpoints with these products and bounds (floats or arrays)."""
        nonlocal min_margin, all_ok
        all_ok = all_ok and bool(np.all(product * (1 + _FLOAT_GUARD) <= bound * (1 - _FLOAT_GUARD)))
        min_margin = min(min_margin, float(np.min(bound - product)))

    for segment in prime_segments(MERTENS_MIN_X - 1):
        for q in segment.tolist():
            if q > 2:
                add(math.log(q / (q - 1)))
    check(math.exp(log_sum + comp), MERTENS_FACTOR * math.log(MERTENS_MIN_X))
    for segment in prime_segments(x_max):
        q = segment[np.searchsorted(segment, MERTENS_MIN_X) :].astype(np.float64)
        if q.size:
            cs = np.cumsum(-np.log1p(-1 / q))
            check(np.exp((log_sum + comp) + cs), MERTENS_FACTOR * np.log(q))
            add(float(cs[-1]))
    return LemmaReport(
        name="mertens_product_bound",
        checked_range=(
            f"[{MERTENS_MIN_X}, {x_max}] at x = {MERTENS_MIN_X} and each prime"
            " (the product is constant between primes while the bound grows)"
        ),
        margin=min_margin,
        passed=all_ok and min_margin > 0,
    )


def verify_proof_constants() -> list[LemmaReport]:
    """Re-derive the three numeric facts the pipeline analysis rests on.

    (a) e^12 * prod_{i=1..100} (1 - 1/p_i) > 547, product kept exact;
    (b) the 101st prime is exactly 547 (margin 1.0 encodes the exact
        integer match, -|difference| a mismatch);
    (c) ln(546) / (1.846 ln(547)) > 0.54.
    """
    reports: list[LemmaReport] = []

    product = survivor_lower_bound(1, 100)
    with localcontext(_CTX):
        kept = Decimal(product.numerator) / Decimal(product.denominator)
        lhs = Decimal(12).exp() * kept
        margin_a = float(lhs - 547)
        passed_a = lhs > 547
    reports.append(
        LemmaReport(
            name="e12_prime_product_exceeds_547",
            checked_range="first 100 primes, exact rational product",
            margin=margin_a,
            passed=passed_a,
        )
    )

    p101 = nth_prime(101)
    reports.append(
        LemmaReport(
            name="prime_101_is_547",
            checked_range="i = 101",
            margin=1.0 if p101 == 547 else -float(abs(p101 - 547)),
            passed=p101 == 547,
        )
    )

    with localcontext(_CTX):
        ratio = Decimal(546).ln() / (Decimal("1.846") * Decimal(547).ln())
        margin_c = float(ratio - Decimal("0.54"))
        passed_c = ratio > Decimal("0.54")
    reports.append(
        LemmaReport(
            name="log_ratio_exceeds_0.54",
            checked_range="constants 546, 547, 1.846",
            margin=margin_c,
            passed=passed_c,
        )
    )
    return reports
