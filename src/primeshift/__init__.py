"""Greedy admissible-subset extraction and shifted-prime representation tools.

The pipeline: prune an arbitrary set of distinct integers down to an
admissible subset, convert its size into a guaranteed representation
count, and verify every numeric constant that conversion relies on.
"""

from .admissible import (
    ADMISSIBLE,
    INADMISSIBLE,
    AdmissibilityCertificate,
    IntegerSet,
    check_admissible,
)
from .bounds import (
    GuaranteeReport,
    LemmaReport,
    corollary_bound,
    guarantee,
    maynard_m,
    theorem1_bound,
    verify_mertens,
    verify_proof_constants,
)
from .errors import (
    DomainError,
    ParseError,
    PrimeShiftError,
    ResourceError,
    ValidationError,
)
from .primes import PrimeTable, is_prime, nth_prime, prime_flags, sieve
from .prune import PruneStep, PruneTrace, greedy_prune, survivor_lower_bound
from .representation import (
    RepresentationProfile,
    gen_sequence,
    rep_counts,
    rep_search,
    romanoff_counts,
)

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBLE",
    "INADMISSIBLE",
    "AdmissibilityCertificate",
    "DomainError",
    "GuaranteeReport",
    "IntegerSet",
    "LemmaReport",
    "ParseError",
    "PrimeShiftError",
    "PrimeTable",
    "PruneStep",
    "PruneTrace",
    "RepresentationProfile",
    "ResourceError",
    "ValidationError",
    "check_admissible",
    "corollary_bound",
    "gen_sequence",
    "greedy_prune",
    "guarantee",
    "is_prime",
    "maynard_m",
    "nth_prime",
    "prime_flags",
    "rep_counts",
    "rep_search",
    "romanoff_counts",
    "sieve",
    "survivor_lower_bound",
    "theorem1_bound",
    "verify_mertens",
    "verify_proof_constants",
]
