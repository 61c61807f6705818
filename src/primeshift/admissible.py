"""Admissibility checking with re-verifiable certificates.

A finite integer set is admissible when its elements miss at least one
residue class modulo every prime.  Only primes p <= |set| can ever
be fully covered (a set of size ell occupies at most ell classes), so a
certificate enumerates exactly the primes p <= |set|; larger primes
are admissible for free and carry no witness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .primes import sieve

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"


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
            i = down[0]
            raise ValidationError(
                f"elements must be strictly increasing; {arr[i + 1]} follows {arr[i]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "IntegerSet":
        """Sort arbitrary input; duplicates are an error, not a merge."""
        arr = np.sort(_int64_array(values))
        dup = np.flatnonzero(arr[1:] == arr[:-1])
        if dup.size:
            raise ValidationError(f"duplicate value {arr[dup[0]]}")
        return cls(arr)

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


def check_admissible(int_set: IntegerSet) -> AdmissibilityCertificate:
    """Decide admissibility and produce a witness per examined prime.

    When several residues are missed mod p the smallest is reported, so
    certificates are deterministic.  Residues of negative elements are
    normalized into [0, p).
    """
    arr = int_set.elements
    missed: dict[int, int] = {}
    for p in sieve(int_set.size).primes if int_set.size >= 2 else ():
        counts = np.bincount(arr % p, minlength=p)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return AdmissibilityCertificate(INADMISSIBLE, {}, int(p))
        missed[int(p)] = int(empty[0])
    return AdmissibilityCertificate(ADMISSIBLE, missed, None)
