"""Closed-form probability that a sampled ranking admits the target into the top list.

When a target item holds full-catalog rank ``R`` among ``N`` items and is
re-ranked against ``S`` uniformly sampled negatives, the number of sampled
negatives that outrank it is hypergeometric.  The chance that the target still
makes a recommendation list of length ``C`` is

    P = sum_{i=0}^{C-1} binom(R-1, i) * binom(N-R, S-i) / binom(N-1, S)

The primary path evaluates this with arbitrary-precision integers and divides
once at the end, so it is exact up to the final float rounding.  A log-gamma
floating path is kept alongside as a cross-check and for very large catalogs.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _validate(catalog_size: int, rank: int, sample_count: int, list_length: int) -> None:
    if catalog_size < 2:
        raise ValueError(f"catalog_size must be >= 2, got {catalog_size}")
    if not 1 <= rank <= catalog_size:
        raise ValueError(f"rank must be in [1, {catalog_size}], got {rank}")
    if not 1 <= sample_count <= catalog_size - 1:
        raise ValueError(
            f"sample_count must be in [1, {catalog_size - 1}], got {sample_count}"
        )
    if list_length < 1:
        raise ValueError(f"list_length must be >= 1, got {list_length}")


def sampled_topc_probability(
    catalog_size: int, rank: int, sample_count: int, list_length: int
) -> float:
    """Exact probability that the target enters the top ``list_length`` when sampled.

    Args:
        catalog_size: Number of items the full ranking is computed over (N).
        rank: The target's full-ranking position, 1-based (R).
        sample_count: Number of uniformly sampled negatives (S).
        list_length: Recommendation list length (C).

    Returns:
        The probability as a float, computed from exact integer binomials.
    """
    frac = _sampled_topc_fraction(catalog_size, rank, sample_count, list_length)
    return float(frac)


def _sampled_topc_fraction(
    catalog_size: int, rank: int, sample_count: int, list_length: int
) -> Fraction:
    """Exact rational value behind :func:`sampled_topc_probability`."""
    _validate(catalog_size, rank, sample_count, list_length)
    n, r, s, c = catalog_size, rank, sample_count, list_length
    numerator = 0
    # Terms with i > s contribute nothing; math.comb returns 0 when i > r - 1.
    for i in range(min(c, s + 1)):
        numerator += math.comb(r - 1, i) * math.comb(n - r, s - i)
    return Fraction(numerator, math.comb(n - 1, s))


def sampled_topc_probability_float(
    catalog_size: int, rank: int, sample_count: int, list_length: int
) -> float:
    """Log-gamma evaluation of the same probability.

    Cross-check for the exact path; preferable once catalogs grow past the
    point where exact binomials get heavy (around a few million items).
    """
    _validate(catalog_size, rank, sample_count, list_length)
    n, r, s, c = catalog_size, rank, sample_count, list_length

    def log_comb(a: int, b: int) -> float:
        if b < 0 or b > a:
            return -math.inf
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    log_denominator = log_comb(n - 1, s)
    log_terms = []
    for i in range(min(c, s + 1)):
        log_term = log_comb(r - 1, i) + log_comb(n - r, s - i)
        if log_term > -math.inf:
            log_terms.append(log_term - log_denominator)
    if not log_terms:
        return 0.0
    peak = max(log_terms)
    # a probability, though the log-gamma rounding can carry the sum past 1
    return min(1.0, math.exp(peak) * math.fsum(math.exp(t - peak) for t in log_terms))


def max_rank_with_probability(
    catalog_size: int, sample_count: int, list_length: int, probability: float
) -> int:
    """Largest full-catalog rank whose sampled top-C probability is still >= ``probability``.

    The probability is non-increasing in the rank, which makes a binary search
    valid; the boundary is re-checked against the forward formula before
    returning.

    Raises:
        ValueError: if ``probability`` is outside (0, 1].
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability}")
    n = catalog_size
    # Compare exact rationals so that e.g. probability=1.0 yields exactly the
    # list length instead of whatever rounds to 1.0 in float64.
    threshold = Fraction(probability)

    def prob_at(rank: int) -> Fraction:
        return _sampled_topc_fraction(n, rank, sample_count, list_length)

    if prob_at(n) >= threshold:
        return n
    # Invariant: prob_at(lo) >= threshold > prob_at(hi).
    lo, hi = 1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob_at(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    assert prob_at(lo) >= threshold > prob_at(lo + 1)
    return lo
