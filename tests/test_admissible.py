import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeshift import (
    ADMISSIBLE,
    INADMISSIBLE,
    IntegerSet,
    ValidationError,
    check_admissible,
    greedy_prune,
)

from support import brute_force_admissible, residues_all_covered, trial_division_primes

small_sets = st.lists(
    st.integers(min_value=-(10**9), max_value=10**9),
    min_size=1,
    max_size=12,
    unique=True,
).map(lambda xs: IntegerSet(tuple(sorted(xs))))


class TestIntegerSet:
    def test_valid_construction(self):
        s = IntegerSet((-5, 0, 7))
        assert s.size == 3
        assert s.elements.tolist() == [-5, 0, 7]

    def test_from_values_sorts(self):
        assert IntegerSet.from_values([5, 3, 8]).elements.tolist() == [3, 5, 8]

    def test_duplicate_rejected_with_value(self):
        with pytest.raises(ValidationError, match="7"):
            IntegerSet.from_values([7, 3, 7])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            IntegerSet(())

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            IntegerSet((3, 1))
        with pytest.raises(ValidationError):
            IntegerSet((3, 3))

    def test_64_bit_range_enforced(self):
        IntegerSet((-(2**63), 2**63 - 1))
        with pytest.raises(ValidationError):
            IntegerSet((2**63,))
        with pytest.raises(ValidationError):
            IntegerSet((-(2**63) - 1, 0))

    def test_elements_are_read_only_int64(self):
        pruned = greedy_prune(IntegerSet(tuple(range(8)))).final_set
        for s in (IntegerSet((-5, 0, 7)), IntegerSet.from_values([9, 1]), pruned):
            assert s.elements.dtype == np.int64
            assert not s.elements.flags.writeable
            with pytest.raises(ValueError):
                s.elements[0] = 3

    def test_errors_name_the_offending_values(self):
        with pytest.raises(ValidationError, match=f"^element {2**63} outside"):
            IntegerSet.from_values([5, 2**63, 1])
        with pytest.raises(ValidationError, match=f"^element {2**63} outside"):
            IntegerSet(np.array([2**63], dtype=np.uint64))
        with pytest.raises(ValidationError, match=r"^element 1\.5 is not an integer$"):
            IntegerSet((1.5, 2.7))
        with pytest.raises(ValidationError, match=r"^element 3\.9 is not an integer$"):
            IntegerSet.from_values([3.9, 1.2])
        with pytest.raises(ValidationError, match="^duplicate value 3$"):
            IntegerSet.from_values([9, 3, 7, 9, 3])
        with pytest.raises(ValidationError, match="; 1 follows 3$"):
            IntegerSet((0, 3, 1, 2))
        with pytest.raises(ValidationError, match="^duplicate value 3$"):
            IntegerSet((0, 3, 3))
        with pytest.raises(ValidationError, match=r"one-dimensional, got shape \(2, 2\)$"):
            IntegerSet(np.array([[1, 5], [7, 9]]))
        with pytest.raises(ValidationError, match=r"one-dimensional, got shape \(\)$"):
            IntegerSet(np.array(5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, unique=True))
    def test_from_values_sorts_any_int64_values(self, xs):
        assert IntegerSet.from_values(xs).elements.tolist() == sorted(xs)


class TestCheckAdmissible:
    def test_two_even_elements(self):
        cert = check_admissible(IntegerSet((0, 2)))
        assert cert.verdict == ADMISSIBLE
        assert cert.missed_residues == {2: 1}
        assert cert.covered_prime is None

    def test_full_residues_mod_two(self):
        cert = check_admissible(IntegerSet((0, 1)))
        assert cert.verdict == INADMISSIBLE
        assert cert.covered_prime == 2
        assert cert.missed_residues == {}

    def test_three_element_cases(self):
        assert check_admissible(IntegerSet((0, 2, 6))).verdict == ADMISSIBLE
        cert = check_admissible(IntegerSet((0, 2, 4)))
        assert cert.verdict == INADMISSIBLE
        assert cert.covered_prime == 3

    def test_singletons_admissible(self):
        for a in (-5, 0, 7, 2**62):
            cert = check_admissible(IntegerSet((a,)))
            assert cert.verdict == ADMISSIBLE
            assert cert.missed_residues == {}

    def test_negative_elements_normalized(self):
        cert = check_admissible(IntegerSet((-3, -1, 2)))
        for p, r in cert.missed_residues.items():
            assert 0 <= r < p
            assert all(a % p != r for a in (-3, -1, 2))

    def test_smallest_missed_residue_reported(self):
        cert = check_admissible(IntegerSet((1, 3)))
        assert cert.missed_residues == {2: 0}
        # {0, 6, 12} misses residues 1 and 2 mod 3; the smaller one wins
        cert = check_admissible(IntegerSet((0, 6, 12)))
        assert cert.missed_residues == {2: 1, 3: 1}


def test_oracle_equivalence_small_exhaustive():
    universe = range(13)
    for size in range(1, 5):
        for combo in itertools.combinations(universe, size):
            expected = brute_force_admissible(combo, 13)
            assert (check_admissible(IntegerSet(combo)).verdict == ADMISSIBLE) == expected


@settings(max_examples=200, deadline=None)
@given(small_sets)
def test_certificate_soundness(s):
    cert = check_admissible(s)
    if cert.verdict == ADMISSIBLE:
        primes = [p for p in trial_division_primes(s.size)]
        assert sorted(cert.missed_residues) == primes
        for p, r in cert.missed_residues.items():
            assert all(a % p != r for a in s.elements)
    else:
        p = cert.covered_prime
        assert residues_all_covered(s.elements, p)
        # smallest such prime
        for q in trial_division_primes(p - 1):
            assert not residues_all_covered(s.elements, q)


@settings(max_examples=150, deadline=None)
@given(small_sets, st.integers(min_value=-(10**12), max_value=10**12))
def test_translation_invariance(s, shift):
    shifted = IntegerSet(tuple(a + shift for a in s.elements))
    assert check_admissible(s).verdict == check_admissible(shifted).verdict
