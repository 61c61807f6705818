"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output on failure) and enforces its runtime budget.
"""

import itertools
import json
import time
from fractions import Fraction

import mpmath
import numpy as np

from primeshift import (
    ADMISSIBLE,
    IntegerSet,
    check_admissible,
    gen_sequence,
    greedy_prune,
    guarantee,
    maynard_m,
    nth_prime,
    rep_counts,
    rep_search,
    romanoff_counts,
    survivor_lower_bound,
    verify_mertens,
    verify_proof_constants,
)
from primeshift.cli import build_parser, dispatch

from support import brute_force_admissible, byte_sieve, nonzero_pairs


def _report(num, name, budget, elapsed, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {name}")


def test_c01_admissibility_oracle_equivalence():
    budget = 60.0
    t0 = time.perf_counter()
    ok = False
    try:
        mismatches = 0
        checked = 0
        for size in range(1, 7):
            for combo in itertools.combinations(range(21), size):
                fast = check_admissible(IntegerSet(combo)).verdict == ADMISSIBLE
                slow = brute_force_admissible(combo, 23)
                checked += 1
                if fast != slow:
                    mismatches += 1
        assert checked == 82159
        assert mismatches == 0
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(1, "admissibility oracle equivalence", budget, time.perf_counter() - t0, ok)


def test_c02_prune_soundness_1000_random_sets():
    budget = 120.0
    t0 = time.perf_counter()
    ok = False
    try:
        rng = np.random.default_rng(20260810)
        admissible = 0
        for _ in range(1000):
            size = int(rng.integers(1, 10**4 + 1))
            pool = np.unique(rng.integers(-(10**9), 10**9 + 1, size=2 * size + 10))
            while pool.size < size:
                pool = np.unique(rng.integers(-(10**9), 10**9 + 1, size=2 * size + 10))
            values = pool[rng.permutation(pool.size)[:size]]
            values.sort()
            int_set = IntegerSet(tuple(int(v) for v in values))
            trace = greedy_prune(int_set)
            if check_admissible(trace.final_set).verdict == ADMISSIBLE:
                admissible += 1
            bound = survivor_lower_bound(size, trace.s)
            assert Fraction(trace.final_size) >= bound
        assert admissible == 1000
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(2, "prune soundness on 1000 random sets", budget, time.perf_counter() - t0, ok)


def test_c03_guarantee_pipeline_200k():
    budget = 30.0
    t0 = time.perf_counter()
    ok = False
    try:
        report = guarantee(IntegerSet(tuple(range(1, 200001))))
        assert report.satisfied
        assert report.s > 100
        assert report.p_s >= 547
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(3, "guarantee pipeline on {1..200000}", budget, time.perf_counter() - t0, ok)


def test_c04_mertens_verifier_to_a_million():
    budget = 60.0
    t0 = time.perf_counter()
    ok = False
    try:
        report = verify_mertens(10**6)
        assert report.passed
        assert report.margin > 0
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(4, "mertens product bound on [74, 10^6]", budget, time.perf_counter() - t0, ok)


def test_c05_proof_constants():
    budget = 1.0
    t0 = time.perf_counter()
    ok = False
    try:
        assert nth_prime(101) == 547
        by_name = {r.name: r for r in verify_proof_constants()}
        assert by_name["prime_101_is_547"].passed
        ratio = by_name["log_ratio_exceeds_0.54"]
        assert ratio.passed
        assert ratio.margin > 1e-3
        product = by_name["e12_prime_product_exceeds_547"]
        assert product.passed
        # exact rational product, checked here independently
        num, den = 1, 1
        for i in range(1, 101):
            p = nth_prime(i)
            num *= p - 1
            den *= p
        with mpmath.workdps(60):
            assert mpmath.exp(12) * mpmath.mpf(num) / mpmath.mpf(den) > 547
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(5, "proof constants (547, 0.54, e^12 product)", budget, time.perf_counter() - t0, ok)


def _bisect_transition(target_m, hi):
    lo = 2
    while lo < hi:
        mid = (lo + hi) // 2
        if maynard_m(mid) >= target_m:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_c06_maynard_thresholds_bracket_the_exponentials():
    budget = 1.0
    t0 = time.perf_counter()
    ok = False
    try:
        k1 = _bisect_transition(1, 10**6)
        k2 = _bisect_transition(2, 10**8)
        with mpmath.workdps(60):
            assert mpmath.mpf(k1 - 1) * mpmath.log(k1 - 1) <= mpmath.exp(12)
            assert mpmath.mpf(k1) * mpmath.log(k1) > mpmath.exp(12)
            assert mpmath.mpf(k2 - 1) * mpmath.log(k2 - 1) <= mpmath.exp(20)
            assert mpmath.mpf(k2) * mpmath.log(k2) > mpmath.exp(20)
        assert maynard_m(k1) == 1 and maynard_m(k1 - 1) == 0
        assert maynard_m(k2) == 2 and maynard_m(k2 - 1) == 1
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(6, "threshold transitions bracket e^12 and e^20", budget, time.perf_counter() - t0, ok)


def test_c07_representation_oracle_to_10k():
    budget = 30.0
    t0 = time.perf_counter()
    ok = False
    try:
        flags = byte_sieve(10**4)
        sets = [
            IntegerSet((0,)),
            IntegerSet((1, 2, 3)),
            IntegerSet(tuple(range(2, 21, 2))),
            gen_sequence("powers_of_two", 10),
        ]
        mismatches = 0
        for int_set in sets:
            counts = dict(nonzero_pairs(rep_counts(int_set, 0, 10**4)))
            for n in range(0, 10**4 + 1):
                expected = 0
                for a in int_set.elements:
                    d = n - a
                    if 2 <= d <= 10**4 and flags[d]:
                        expected += 1
                if counts.get(n, 0) != expected:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(7, "representation counts match brute force on [0, 10^4]", budget, time.perf_counter() - t0, ok)


def test_c08_record_probe_powers_of_two():
    budget = 60.0
    # Maximum observed by the independent pre-build brute-force run over
    # the same set and range.
    pinned_max = 13
    t0 = time.perf_counter()
    ok = False
    try:
        profile = rep_search(gen_sequence("powers_of_two", 20), 3, 10**6, 5)
        assert profile.max_count >= pinned_max
        assert profile.max_count >= 3
        assert profile.records[0] == (229845, 13)
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(8, "record search over powers of two on [3, 10^6]", budget, time.perf_counter() - t0, ok)


def test_c09_romanoff_positive_and_stable():
    budget = 60.0
    t0 = time.perf_counter()
    ok = False
    try:
        r5, t5 = romanoff_counts(10**5, 1)
        r6, t6 = romanoff_counts(10**6, 1)
        d5, d6 = r5 / t5, r6 / t6
        assert d5 > 0
        assert d6 > 0
        assert abs(d6 - d5) < 0.02
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(9, "positive, stable density of odd p + 2^k sums", budget, time.perf_counter() - t0, ok)


def test_c10_cli_determinism(tmp_path):
    budget = 120.0
    t0 = time.perf_counter()
    ok = False
    try:
        set_path = tmp_path / "set.txt"
        set_path.write_text("\n".join(str(v) for v in range(0, 400, 3)) + "\n")
        path = str(set_path)
        argvs = [
            ["check", path],
            ["prune", path],
            ["guarantee", path],
            ["bound", "--ell", "200000", "--x", "1e6"],
            ["verify-lemmas", "--mertens-limit", str(10**6)],
            ["repsearch", path, "--from", "2", "--to", "2000", "--top", "5"],
            ["romanoff", "--limit", str(10**5), "--k-min", "1"],
            ["gen", "--kind", "powers_of_two", "--count", "62", "--ratio", "2"],
            ["primes", "--limit", str(10**5)],
        ]
        for argv in argvs:
            args = build_parser().parse_args(argv + ["--format", "json"])
            code_a, report_a = dispatch(args)
            code_b, report_b = dispatch(args)
            assert code_a == code_b == 0, argv[0]
            assert report_a.encode() == report_b.encode(), argv[0]
            json.loads(report_a)  # every report is valid JSON
        assert time.perf_counter() - t0 < budget
        ok = True
    finally:
        _report(10, "byte-identical JSON across repeated CLI runs", budget, time.perf_counter() - t0, ok)
