"""Exact arithmetic and perfect-number theory in cyclotomic rings of integers.

The two quadratic rings Z[i] and Z[w] get full support: canonical (positive)
prime factorization, the generalized sum-of-divisors function, perfection
and norm-perfection classification, generalized Mersenne numbers with the
even (norm-)perfect constructions they generate, and exhaustive desk-scale
searches.  Z[zeta_p] for the remaining class-number-1 primes p <= 19 gets
norms, evenness, ramification and splitting checks, and the abstract
odd-form validator.
"""

from .divisors import (
    Classification,
    Status,
    check_mcdaniel_inequality,
    check_odd_power_divisibility,
    check_spira_inequality,
    classify,
    sigma,
)
from .factorization import Factorization, factor, is_ring_prime, prime_above
from .mersenne import (
    MersenneRecord,
    candidate_factorization,
    composite_exponent_witness,
    mersenne,
    mersenne_norm_closed_form,
    scan,
)
from .rational import RationalFactorization, factor_rational, is_rational_prime
from .rings import (
    EISENSTEIN,
    GAUSSIAN,
    QuadInt,
    Ring,
    format_element,
    gcd,
    parse_element,
)
from .search import (
    OddFormReport,
    SearchReport,
    check_rational_perfect_remark,
    find_normperfect_primes,
    no_normperfect_prime_equation,
    sector_scan,
    validate_odd_form,
    validate_parker_form,
    validate_ward_form,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "EISENSTEIN",
    "Factorization",
    "GAUSSIAN",
    "MersenneRecord",
    "OddFormReport",
    "QuadInt",
    "RationalFactorization",
    "Ring",
    "SearchReport",
    "Status",
    "candidate_factorization",
    "check_mcdaniel_inequality",
    "check_odd_power_divisibility",
    "check_rational_perfect_remark",
    "check_spira_inequality",
    "classify",
    "composite_exponent_witness",
    "factor",
    "factor_rational",
    "find_normperfect_primes",
    "format_element",
    "gcd",
    "is_rational_prime",
    "is_ring_prime",
    "mersenne",
    "mersenne_norm_closed_form",
    "no_normperfect_prime_equation",
    "parse_element",
    "prime_above",
    "scan",
    "sector_scan",
    "sigma",
    "validate_odd_form",
    "validate_parker_form",
    "validate_ward_form",
]
