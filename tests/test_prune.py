import contextlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeshift import (
    ADMISSIBLE,
    INADMISSIBLE,
    IntegerSet,
    PruneStep,
    check_admissible,
    greedy_prune,
    nth_prime,
    survivor_lower_bound,
)
from primeshift import admissible
from primeshift.admissible import INT64_MAX, INT64_MIN, ResidueClasses

from support import (
    brute_force_admissible,
    greedy_prune_oracle,
    proxy_sequence,
    smallest_empty_class,
    trial_division_primes,
)

# Values for admissible._PROBE_FACTOR.  "probe" is the default; under
# "narrow" the windows span a few classes, so the probe often misses and
# the full count decides; "off" never probes.
PROBE_FACTORS = {"probe": admissible._PROBE_FACTOR, "narrow": 0.25, "off": math.inf}


def test_singleton_stops_immediately():
    trace = greedy_prune(IntegerSet((0,)))
    assert trace.s == 0
    assert trace.steps == ()
    assert trace.stop_prime == 2
    assert trace.final_set.elements.tolist() == [0]
    assert trace.last_prime is None


def test_zero_to_seven_trace():
    trace = greedy_prune(IntegerSet(tuple(range(8))))
    assert trace.steps == (
        PruneStep(1, 2, 1, 4, 4, 4),
        PruneStep(2, 3, 2, 1, 3, 3),
    )
    assert trace.s == 2
    assert trace.stop_prime == 5
    assert trace.final_set.elements.tolist() == [0, 4, 6]
    assert brute_force_admissible(trace.final_set.elements.tolist(), 23)


def test_empty_class_skips_removal():
    # all even: residue 1 mod 2 is already empty, nothing is deleted
    trace = greedy_prune(IntegerSet((0, 2, 4, 6)))
    first = trace.steps[0]
    assert first.prime == 2
    assert first.removed_count == 0
    assert first.removed_residue == 1
    assert first.survivors_actual == 4
    assert first.survivors_paper == 2
    assert trace.final_set.elements.tolist() == [0, 4, 6]


def test_actual_stopping_can_outlast_proxy_stopping():
    # proxy for {0,2,4,6} halves at p=2 and stops at s=1; the actual
    # process keeps all four and runs a second step
    trace = greedy_prune(IntegerSet((0, 2, 4, 6)))
    assert trace.s == 2
    proxy = proxy_sequence(4, [2, 3, 5])
    s_proxy = next(t for t in range(len(proxy)) if proxy[t] < nth_prime(t + 1))
    assert s_proxy == 1
    assert trace.s >= s_proxy


def test_survivor_lower_bound_exact_values():
    assert survivor_lower_bound(8, 2) == Fraction(8, 3)
    assert survivor_lower_bound(1, 0) == Fraction(1)
    expected = Fraction(100)
    for p in trial_division_primes(nth_prime(5)):
        expected *= Fraction(p - 1, p)
    assert survivor_lower_bound(100, 5) == expected


def _random_set(rng, size):
    values = set()
    while len(values) < size:
        values.add(rng.randint(-(10**9), 10**9))
    return IntegerSet(tuple(sorted(values)))


def test_random_sets_trace_invariants():
    rng = random.Random(547)
    for _ in range(60):
        size = rng.randint(1, 400)
        int_set = _random_set(rng, size)
        trace = greedy_prune(int_set)

        assert check_admissible(trace.final_set).verdict == ADMISSIBLE
        assert set(trace.final_set.elements) <= set(int_set.elements)

        # stopping rule is eager: above p_{t+1} before the final step only
        previous = size
        proxy = proxy_sequence(
            size, [nth_prime(i) for i in range(1, trace.s + 1)]
        )
        for step in trace.steps:
            assert step.index <= trace.s
            assert step.removed_count <= previous // step.prime
            assert step.survivors_actual == previous - step.removed_count
            assert step.survivors_actual >= step.survivors_paper
            assert step.survivors_paper == proxy[step.index]
            if step.index < trace.s:
                assert step.survivors_actual >= nth_prime(step.index + 1)
            previous = step.survivors_actual
        assert trace.final_size == previous
        assert trace.final_size < trace.stop_prime
        assert trace.stop_prime == nth_prime(trace.s + 1)
        if size > 1:
            assert trace.steps[-1].survivors_paper >= 1

        # exact product bound and proxy-based stopping comparison
        assert trace.final_size >= survivor_lower_bound(size, trace.s)
        full_proxy = proxy_sequence(
            size, [nth_prime(i) for i in range(1, trace.s + 2)]
        )
        s_proxy = next(
            t for t in range(len(full_proxy)) if full_proxy[t] < nth_prime(t + 1)
        )
        assert trace.s >= s_proxy


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(10**6), max_value=10**6),
        min_size=1,
        max_size=60,
        unique=True,
    )
)
def test_pruned_sets_admissible(xs):
    trace = greedy_prune(IntegerSet(tuple(sorted(xs))))
    assert check_admissible(trace.final_set).verdict == ADMISSIBLE
    assert trace.final_size >= survivor_lower_bound(len(xs), trace.s)


@contextlib.contextmanager
def probe_factor(mode):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(admissible, "_PROBE_FACTOR", PROBE_FACTORS[mode])
        yield


def assert_matches_oracles(xs):
    int_set = IntegerSet.from_values(xs)
    trace = greedy_prune(int_set)
    steps, s, stop_prime, survivors = greedy_prune_oracle(xs)
    assert [tuple(vars(step).values()) for step in trace.steps] == steps
    assert (trace.s, trace.stop_prime) == (s, stop_prime)
    assert trace.final_set.elements.tolist() == survivors
    # check_admissible reads the same residue classes: on the input
    # (covered or not) and on the admissible survivors.
    for elements in (sorted(xs), survivors):
        missed, covered = {}, None
        for p in trial_division_primes(len(elements)):
            empty = [r for r in range(p) if all(a % p != r for a in elements)]
            if not empty:
                missed, covered = {}, p
                break
            missed[p] = empty[0]
        cert = check_admissible(IntegerSet(elements))
        assert (cert.missed_residues, cert.covered_prime) == (missed, covered)


int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)


@st.composite
def mixed_sign_values(draw, min_size):
    # Multiples of 6, 30 or 210 miss a class mod each prime dividing the
    # scale, so enough survivors remain for the probe to run.
    scale = draw(st.sampled_from([1, 6, 30, 210]))
    small = st.integers(-300, 300).map(lambda x: x * scale)
    return draw(st.lists(small | int64s, min_size=min_size, max_size=60, unique=True))


@pytest.mark.parametrize("mode", PROBE_FACTORS)
@settings(max_examples=100, deadline=None)
@given(mixed_sign_values(min_size=1))
def test_trace_matches_oracle_on_mixed_signs(mode, xs):
    with probe_factor(mode):
        assert_matches_oracles(xs)


@pytest.mark.parametrize("mode", PROBE_FACTORS)
@settings(max_examples=60, deadline=None)
@given(mixed_sign_values(min_size=0))
def test_trace_matches_oracle_across_the_int64_range(mode, xs):
    # Offsets from -2^63 reach 2^64 - 1.
    with probe_factor(mode):
        assert_matches_oracles(sorted({INT64_MIN, INT64_MAX, *xs}))


def assert_check_is_the_first_phase_of_prune(xs):
    int_set = IntegerSet.from_values(xs)
    cert = check_admissible(int_set)
    steps = greedy_prune(int_set).steps
    covered = next((st.prime for st in steps if st.removed_count), None)
    if covered is None:
        expected = (ADMISSIBLE, {st.prime: st.removed_residue for st in steps}, None)
    else:
        expected = (INADMISSIBLE, {}, covered)
    assert (cert.verdict, cert.missed_residues, cert.covered_prime) == expected


@pytest.mark.parametrize("mode", PROBE_FACTORS)
@settings(max_examples=100, deadline=None)
@given(mixed_sign_values(min_size=1))
def test_check_is_the_first_phase_of_prune(mode, xs):
    # check_admissible stops at the first step of the prune's walk that
    # removes anything; until then both read the same classes.
    with probe_factor(mode):
        assert_check_is_the_first_phase_of_prune(xs)
        assert_check_is_the_first_phase_of_prune(sorted({INT64_MIN, INT64_MAX, *xs}))


@pytest.mark.parametrize(
    "mode, outcomes", [("probe", {"hit"}), ("narrow", {"hit", "miss"}), ("off", set())]
)
def test_probe_modes_are_reached(mode, outcomes):
    seen = set()
    probe = ResidueClasses._probe

    def spy(self, p, shift, window):
        found = probe(self, p, shift, window)
        seen.add("miss" if found is None else "hit")
        return found

    # The probe runs only while 4 windows fit below p, which a set of
    # 60 never reaches before the prune stops.  The full counts of this
    # walk (at 3, 5, 7 and 53) hold ties, empty and least-populated, whose
    # order by class differs from their order by offset residue.
    xs = [210 * x + 1 for x in random.Random(13).sample(range(-300, 300), 200)]
    with probe_factor(mode), pytest.MonkeyPatch.context() as mp:
        mp.setattr(ResidueClasses, "_probe", spy)
        assert_matches_oracles(xs)
    assert seen == outcomes


# ceil(2^64/p)*p - 2^64 = 990 for p = 1039, so the probe's multiply
# drifts by almost u (0.95 u) past the start of an offset's class.
EDGE_P = 1039


def edge_elements(a_min, a_max, empty, rng):
    """About 400 elements in [a_min, a_max], a_min and a_max among them.

    The classes near the probe window, but class ``empty``, are hit only
    by elements within EDGE_P of a_max, where the drift is largest; the
    other elements fall in other classes.
    """
    xs = {a_min, a_max}
    for c in [*range(40), *range(EDGE_P - 10, EDGE_P)]:
        if c != empty:
            xs.add(a_max - (a_max - c) % EDGE_P)
    while len(xs) < 400:
        a = rng.randint(a_min, a_max)
        if 40 <= a % EDGE_P < EDGE_P - 10:
            xs.add(a)
    return sorted(xs)


@pytest.mark.parametrize(
    "lo, hi",
    [
        pytest.param(-(2**62), -(2**62) + (2**64 - 1) // EDGE_P, id="spread*p-below-2^64"),
        pytest.param(-(2**62), -(2**62) + 2**64 // EDGE_P + 1, id="spread*p-above-2^64"),
        pytest.param(INT64_MIN, INT64_MAX, id="arc-past-2^64"),
        pytest.param(-(10**15), -(10**15) + 10**12, id="negative"),
    ],
)
# a_min in class 3 puts the window's offset residues across p - 1.
@pytest.mark.parametrize("a_min_class", [None, 0, 3, EDGE_P // 2], ids=str)
@pytest.mark.parametrize("empty", [7, None], ids=str)
def test_smallest_empty_matches_oracle_at_the_filter_edge(lo, hi, a_min_class, empty):
    a_min = lo if a_min_class is None else lo + (a_min_class - lo) % EDGE_P
    xs = edge_elements(a_min, hi, empty, random.Random(f"{lo} {a_min_class} {empty}"))
    # The shift and window that ResidueClasses.steps hands the probe at EDGE_P.
    window = admissible._PROBE_FACTOR * math.exp(len(xs) / EDGE_P)
    assert 4 * window < EDGE_P
    window = math.ceil(window)
    found = ResidueClasses(np.array(xs, dtype=np.int64))._probe(EDGE_P, -a_min % EDGE_P, window)
    oracle = smallest_empty_class(xs, EDGE_P)
    assert found == (oracle if oracle < window else None)
    # The probe finds class 7, or misses and leaves the class to the full count.
    assert found == empty
