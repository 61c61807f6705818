import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeshift import (
    DomainError,
    IntegerSet,
    corollary_bound,
    guarantee,
    maynard_m,
    theorem1_bound,
    verify_mertens,
    verify_proof_constants,
)
from primeshift import bounds as bounds_mod
from primeshift import primes as primes_mod

from support import prime_reciprocal_product, trial_division_primes

# Threshold indices located by pre-build bisection in 60-digit arithmetic:
# k*ln(k) crosses e^12 between 16735 and 16736, e^20 between 28277049
# and 28277050.
M1_THRESHOLD = 16736
M2_THRESHOLD = 28277050
# The same bisection (as in test_acceptance.py) for m = 3, 4 and 5: the
# smallest k with k*ln(k) above e^28, e^36 and e^44.
M3_THRESHOLD = 58_341_337_577
M4_THRESHOLD = 132_579_033_847_053
M5_THRESHOLD = 318_870_096_163_054_793


class TestMaynardM:
    def test_small_values(self):
        assert maynard_m(1) == 0
        assert maynard_m(2) == 0
        assert maynard_m(1000) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            maynard_m(0)
        with pytest.raises(DomainError):
            maynard_m(-2)

    def test_first_threshold(self):
        assert maynard_m(M1_THRESHOLD - 1) == 0
        assert maynard_m(M1_THRESHOLD) == 1
        with mpmath.workdps(60):
            below = mpmath.mpf(M1_THRESHOLD - 1) * mpmath.log(M1_THRESHOLD - 1)
            above = mpmath.mpf(M1_THRESHOLD) * mpmath.log(M1_THRESHOLD)
            assert below <= mpmath.exp(12) < above

    def test_second_threshold(self):
        assert maynard_m(M2_THRESHOLD - 1) == 1
        assert maynard_m(M2_THRESHOLD) == 2
        with mpmath.workdps(60):
            below = mpmath.mpf(M2_THRESHOLD - 1) * mpmath.log(M2_THRESHOLD - 1)
            above = mpmath.mpf(M2_THRESHOLD) * mpmath.log(M2_THRESHOLD)
            assert below <= mpmath.exp(20) < above

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**100))
    @example(2)
    @example(55)
    @example(10**4)
    @example(M1_THRESHOLD)
    @example(10**6)
    @example(M2_THRESHOLD)
    @example(10**9)
    @example(M3_THRESHOLD - 1)
    @example(M3_THRESHOLD)
    @example(M4_THRESHOLD - 1)
    @example(M4_THRESHOLD)
    @example(M5_THRESHOLD - 1)
    @example(M5_THRESHOLD)
    @example(10**100)
    def test_definition_holds_at_samples(self, k):
        m = maynard_m(k)
        with mpmath.workdps(60):
            v = mpmath.mpf(k) * mpmath.log(k)
            if m > 0:
                assert v > mpmath.exp(8 * m + 4)
            assert v <= mpmath.exp(8 * (m + 1) + 4)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=10**6))
    def test_monotone(self, k, delta):
        assert maynard_m(k + delta) >= maynard_m(k)


class TestClosedFormBounds:
    def test_theorem1_values(self):
        assert theorem1_bound(1) == -1.6
        assert abs(theorem1_bound(362217)) < 1e-4  # ell ~ e^12.8
        assert abs(theorem1_bound(8886111) - 0.4) < 1e-6  # ell ~ e^16
        with pytest.raises(DomainError):
            theorem1_bound(0)

    def test_corollary_values(self):
        assert abs(corollary_bound(math.exp(math.e)) - (-1.475)) < 1e-12
        expected = float(mpmath.log(mpmath.log(10**6)) / 8 - mpmath.mpf("1.6"))
        assert abs(corollary_bound(10**6) - expected) < 1e-12
        with pytest.raises(DomainError):
            corollary_bound(2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_corollary_rejects_non_finite_x(self, x):
        with pytest.raises(DomainError, match="finite"):
            corollary_bound(x)

    def test_corollary_consistent_with_theorem(self):
        for x in (math.e, 100.0, 10**6, 10**9):
            t = math.ceil(math.log(x)) + 1
            assert theorem1_bound(t) > corollary_bound(x)


class TestMertens:
    def test_domain(self):
        with pytest.raises(DomainError):
            verify_mertens(73)

    def test_at_74(self):
        report = verify_mertens(74)
        assert report.passed
        assert abs(report.margin - 0.005878639183609202) < 1e-12

    def test_margin_matches_exact_rational_recomputation(self):
        report = verify_mertens(100)
        checkpoints = [74] + [q for q in trial_division_primes(100) if q > 74]
        margins = [0.923 * math.log(x) - float(prime_reciprocal_product(x)) for x in checkpoints]
        assert abs(report.margin - min(margins)) < 1e-9

    def test_minimum_sits_at_74(self):
        assert verify_mertens(10**4).margin == verify_mertens(74).margin

    def test_margin_is_the_exact_minimum_to_ten_thousand(self):
        # One exact product, extended prime by prime, gives every checkpoint's
        # margin; it is pinned to the oracle's prime_reciprocal_product at the end.
        product = prime_reciprocal_product(73)
        margins = {74: 0.923 * math.log(74) - float(product)}
        for q in trial_division_primes(10**4)[21:]:
            product *= Fraction(q, q - 1)
            margins[q] = 0.923 * math.log(q) - float(product)
        assert product == prime_reciprocal_product(10**4)
        for x_max in (74, 78, 79, 101, 997, 4099, 10**4):
            exact = min(m for x, m in margins.items() if x <= x_max)
            assert abs(verify_mertens(x_max).margin - exact) < 1e-12, x_max

    @pytest.mark.parametrize("segment", [29, 64])
    def test_segment_edges_keep_margin_and_verdict(self, segment, monkeypatch):
        # The base table is cut at 150 (150^2 is past every sample), so the
        # stream's first array ends at 149 and every later one spans
        # 2 * segment numbers: the checkpoints from 74 on straddle the cut
        # and many segment edges.
        rng = random.Random(segment)
        samples = [74, 78, 79, 80, 89, 128, 129, 149, 151, 10**4, 2 * 10**4]
        samples += [rng.randint(74, 2 * 10**4) for _ in range(6)]
        expected = {x: verify_mertens(x) for x in samples}
        monkeypatch.setattr(primes_mod, "_SEGMENT", segment)
        monkeypatch.setattr(primes_mod, "_BASE", primes_mod._BASE[primes_mod._BASE <= 150])
        monkeypatch.setattr(primes_mod, "_BASE_LIMIT", 150)
        for x in samples:
            report = verify_mertens(x)
            assert (report.margin, report.passed) == (expected[x].margin, expected[x].passed), x


def sequential_mertens(values, guard):
    """The Mertens check one checkpoint at a time over an ascending stream of "primes"."""
    total, margins, passed = 0.0, [], True

    def checkpoint(x):
        nonlocal passed
        product, bound = math.exp(total), 0.923 * math.log(x)
        margins.append(bound - product)
        passed = passed and product * (1 + guard) <= bound * (1 - guard)

    for q in values:
        if q >= 74 and not margins:
            checkpoint(74)
        if q > 2:
            total += math.log(q / (q - 1))
        if q >= 74:
            checkpoint(q)
    return min(margins), passed and min(margins) > 0, margins


def feed_segments(monkeypatch, values, size):
    """Make verify_mertens read ``values`` as its primes, ``size`` per segment."""
    chunks = [np.array(values[i : i + size], dtype=np.int64) for i in range(0, len(values), size)]
    monkeypatch.setattr(bounds_mod, "prime_segments", lambda limit: (c[c <= limit] for c in chunks))


class TestMertensLateCheckpoints:
    """Made-up prime streams whose first failing checkpoint lies segments past x = 74."""

    @pytest.mark.parametrize("size", [7, 50, 10**4])
    def test_late_failure(self, size, monkeypatch):
        # Every odd integer from 79 on counts as prime: the product then
        # outgrows 0.923 ln x, which x = 74 alone would never show.
        values = trial_division_primes(73) + list(range(79, 2001, 2))
        margin, passed, _ = sequential_mertens(values, bounds_mod._FLOAT_GUARD)
        assert not passed and margin < 0
        feed_segments(monkeypatch, values, size)
        report = verify_mertens(values[-1])
        assert not report.passed
        assert report.margin == pytest.approx(margin, rel=1e-12)

    @pytest.mark.parametrize("size", [7, 50])
    def test_guard_fails_mid_segment_with_positive_margin(self, size, monkeypatch):
        # The real primes to 10^4, then every integer until the relative gap
        # (bound - product) / bound first drops below a quarter of the gap at
        # x = 74, then two far checkpoints where the bound has grown away
        # again.  A guard of a quarter of that gap lets x = 74 and every real
        # prime pass but fails that one checkpoint, in the middle of a
        # segment, while every margin stays positive.
        values = trial_division_primes(10**4)
        _, _, margins = sequential_mertens(values, 0.0)
        gap_74 = margins[0] / (0.923 * math.log(74))
        assert min(m / (0.923 * math.log(x)) for m, x in zip(margins[1:], values[21:])) > gap_74
        total = 0.0  # the log sum sequential_mertens builds, extended as n grows
        for q in values[1:]:
            total += math.log(q / (q - 1))
        n = values[-1]
        while True:
            n += 1
            values.append(n)
            total += math.log(n / (n - 1))
            gap = 1 - math.exp(total) / (0.923 * math.log(n))
            if gap < gap_74 / 4:
                break
        assert gap > 0
        values += [4 * n + 1, 16 * n + 1]
        guard = gap_74 / 4
        margin, passed, _ = sequential_mertens(values, guard)
        assert margin > 0 and not passed
        assert sequential_mertens(values, bounds_mod._FLOAT_GUARD)[1]
        feed_segments(monkeypatch, values, size)
        report = verify_mertens(values[-1])
        assert report.passed and report.margin == pytest.approx(margin, rel=1e-12)
        monkeypatch.setattr(bounds_mod, "_FLOAT_GUARD", guard)
        report = verify_mertens(values[-1])
        assert not report.passed and report.margin == pytest.approx(margin, rel=1e-12)


class TestProofConstants:
    def test_all_pass(self):
        reports = verify_proof_constants()
        assert [r.passed for r in reports] == [True, True, True]

    def test_margins(self):
        by_name = {r.name: r for r in verify_proof_constants()}
        assert abs(by_name["e12_prime_product_exceeds_547"].margin - 13897.468822314646) < 1e-6
        assert by_name["prime_101_is_547"].margin == 1.0
        assert abs(by_name["log_ratio_exceeds_0.54"].margin - 0.001554580866385599) < 1e-12

    def test_product_margin_against_exact_fraction(self):
        product = Fraction(1)
        for p in trial_division_primes(541):
            product *= Fraction(p - 1, p)
        with mpmath.workdps(60):
            lhs = mpmath.exp(12) * mpmath.mpf(product.numerator) / mpmath.mpf(product.denominator)
            assert lhs > 547


class TestFinalInequality:
    def test_chain_slack_is_positive(self):
        # the step from -12/8 + ln(0.54)/8 down to -1.6 has real room
        assert math.log(0.54) / 8 > -0.1
        assert -12 / 8 + math.log(0.54) / 8 > -1.6


class TestGuarantee:
    def test_ell_ten(self):
        report = guarantee(IntegerSet(tuple(range(1, 11))))
        assert report.ell == 10
        assert report.m == 1
        assert abs(report.theorem_bound - (-1.3121768633757442)) < 1e-12
        assert report.satisfied

    def test_singleton(self):
        report = guarantee(IntegerSet((42,)))
        assert report.s == 0
        assert report.p_s is None
        assert report.ell_s == 1
        assert report.m == 1
        assert report.satisfied

    def test_satisfied_for_random_sets(self):
        rng = random.Random(1846)
        for _ in range(40):
            size = rng.randint(1, 2000)
            values = rng.sample(range(-(10**9), 10**9), size)
            report = guarantee(IntegerSet(tuple(sorted(values))))
            assert report.satisfied
            assert report.m >= 1

    def test_million_element_pipeline(self):
        # past e^12.8 the baseline bound is positive, so satisfied is no
        # longer a triviality of the negative bound
        report = guarantee(IntegerSet(tuple(range(1, 10**6 + 1))))
        assert report.theorem_bound > 0
        assert report.m > report.theorem_bound
        assert report.satisfied
