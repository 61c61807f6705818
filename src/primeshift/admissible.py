"""Admissibility checking with re-verifiable certificates.

A finite integer set is admissible when its elements miss at least one
residue class modulo every prime.  Only primes p <= |set| can ever
be fully covered (a set of size ell occupies at most ell classes), so a
certificate enumerates exactly the primes p <= |set|; larger primes
are admissible for free and carry no witness.  ``check_admissible``
reads them from ``ResidueClasses.steps``, the walk that ``greedy_prune``
follows too, and stops at the first covered prime.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .primes import WINDOW_VALUE_MAX, prime_segments

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"

# ResidueClasses first looks for an empty class among classes
# [0, window) only, window = _PROBE_FACTOR * e^(n/p).  Were n values
# spread uniformly over p classes, each class would be empty with
# probability e^(-n/p), so the window would hold no empty class with
# probability about e^(-_PROBE_FACTOR).  The probe runs only while four
# windows fit below p: with wider windows a large share of the offsets
# are candidates, and a probe that misses only adds to the full count.
_PROBE_FACTOR = 8.0


def _int64_array(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """A fresh int64 copy of ``values``.

    Signed integer arrays convert directly; anything else goes through
    ``operator.index`` one value at a time, so floats and other
    non-integers are a ValidationError rather than truncated, and so is
    any value outside the 64-bit range.  Input must be one-dimensional.
    """
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise ValidationError(f"elements must be one-dimensional, got shape {values.shape}")
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64)
    try:
        return np.fromiter(map(operator.index, values), dtype=np.int64, count=len(values))
    except (TypeError, OverflowError):
        for v in values:
            try:
                i = operator.index(v)
            except TypeError:
                raise ValidationError(f"element {v!r} is not an integer") from None
            if not INT64_MIN <= i <= INT64_MAX:
                raise ValidationError(f"element {i} outside the 64-bit range") from None
        raise


@dataclass(frozen=True, eq=False)
class IntegerSet:
    """Strictly increasing, non-empty set of 64-bit signed integers.

    ``elements`` is a read-only int64 array; ``elements.tolist()`` gives
    Python ints where arithmetic could leave the 64-bit range.
    """

    elements: np.ndarray

    def __post_init__(self) -> None:
        arr = _int64_array(self.elements)
        if arr.size == 0:
            raise ValidationError("an IntegerSet needs at least one element")
        down = np.flatnonzero(arr[1:] <= arr[:-1])
        if down.size:
            a, b = arr[down[0]], arr[down[0] + 1]
            if a == b:
                raise ValidationError(f"duplicate value {a}")
            raise ValidationError(
                f"elements must be strictly increasing; {b} follows {a}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "IntegerSet":
        """Sort arbitrary input; duplicates are an error, not a merge."""
        return cls(np.sort(_int64_array(values)))

    @property
    def size(self) -> int:
        return self.elements.size


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Verdict plus the evidence needed to re-check it directly.

    Admissible: ``missed_residues`` maps every prime p <= |set| to the
    smallest residue in [0, p) hit by no element.  Inadmissible:
    ``covered_prime`` is the smallest prime whose classes are all hit,
    and the residue map is empty.
    """

    verdict: str
    missed_residues: dict[int, int] = field(default_factory=dict)
    covered_prime: int | None = None


class ResidueClasses:
    """Residue classes modulo successive primes of a shrinking subset of one set.

    ``steps`` is the one walk over the primes, and ``_residues`` the one
    place residues are computed: on uint64 offsets u = a - a_min, which
    cannot overflow (the spread is at most 2^64 - 1), as u - (u // p) * p
    into the front of one scratch array reused from prime to prime.  The
    walk keeps p and shift = -a_min mod p to itself: an offset with
    residue r lies in class (r - shift) mod p, and that map is applied only
    to the residues a step reports on, never to every offset.
    """

    def __init__(self, elements: np.ndarray) -> None:
        u = elements.view(np.uint64)
        self._base = u[0]
        self._offsets = u - u[0]
        self._scratch = np.empty_like(self._offsets)
        self._min = int(elements[0])

    def elements(self) -> np.ndarray:
        """The surviving elements, ascending, as a fresh int64 array."""
        return (self._offsets + self._base).view(np.int64)

    def _residues(self, u: np.ndarray, p: int) -> np.ndarray:
        """u mod p for offsets u, as int64, in the front of the scratch array."""
        r, p_u = self._scratch[: u.size], np.uint64(p)
        np.floor_divide(u, p_u, out=r)
        np.multiply(r, p_u, out=r)
        return np.subtract(u, r, out=r).view(np.int64)

    def _probe(self, p: int, shift: int, window: int) -> int | None:
        """The smallest empty class below ``window`` (< p), or None when all are hit.

        For u = qp + r and M = ceil(2^64 / p), u*M mod 2^64 lies in
        [r 2^64/p, r 2^64/p + u) mod 2^64 (Lemire, Kaser and Kurz, "Faster
        Remainder by Direct Computation", 2019).  So with
        lo = floor(shift 2^64 / p), f = u*M - lo mod 2^64 is below ``arc``
        for every offset in classes [0, window), window wrap past p - 1
        included, and only those candidates go to ``_residues``.  When
        ``arc`` reaches 2^64 every offset is a candidate.
        """
        u = self._offsets
        lo = (shift << 64) // p
        arc = -(-(((shift + window - 1) << 64) + int(u[-1]) * p) // p) + 1 - lo
        if arc < 1 << 64:
            f = self._scratch[: u.size]
            np.multiply(u, np.uint64(-(-(1 << 64) // p)), out=f)
            np.subtract(f, np.uint64(lo), out=f)
            u = u[f < np.uint64(arc)]
        classes = (self._residues(u, p) - shift) % p
        empty = np.flatnonzero(np.bincount(classes[classes < window], minlength=window) == 0)
        return int(empty[0]) if empty.size else None

    def steps(self) -> Iterator[tuple[int, int, int]]:
        """The greedy walk: ``(p, residue, removed)`` for p = 2, 3, 5, ... <= survivors.

        When some class mod p is empty, ``residue`` is the smallest one and
        ``removed`` is 0.  Otherwise ``residue`` is the least-populated class
        (the largest on ties) and ``removed`` its count.  That class leaves
        the survivors only when the walk resumes, so a caller that stops at
        the step, as ``check_admissible`` does, never pays for the removal.
        Each step first probes the classes below one window, when four
        windows fit below p, and counts every class only if all are hit.
        """
        for p in (int(p) for s in prime_segments(WINDOW_VALUE_MAX) for p in s):
            n = self._offsets.size
            if p > n:
                return
            shift = -self._min % p
            window = _PROBE_FACTOR * math.exp(min(n / p, 700.0))
            empty = self._probe(p, shift, math.ceil(window)) if 4 * window < p else None
            if empty is not None:
                yield p, empty, 0
                continue
            residues = self._residues(self._offsets, p)
            counts = np.bincount(residues, minlength=p)
            removed = int(counts.min())
            # The offset residues of the least-populated classes, and their classes.
            least = np.flatnonzero(counts == removed)
            classes = (least - shift) % p
            pick = classes.argmax() if removed else classes.argmin()
            yield p, int(classes[pick]), removed
            if removed:
                self._offsets = self._offsets[residues != least[pick]]


def check_admissible(int_set: IntegerSet) -> AdmissibilityCertificate:
    """Decide admissibility and produce a witness per examined prime.

    When several residues are missed mod p the smallest is reported, so
    certificates are deterministic.  Residues of negative elements are
    normalized into [0, p).
    """
    missed: dict[int, int] = {}
    for p, residue, removed in ResidueClasses(int_set.elements).steps():
        if removed:
            return AdmissibilityCertificate(INADMISSIBLE, {}, p)
        missed[p] = residue
    return AdmissibilityCertificate(ADMISSIBLE, missed, None)
