"""Tests for the sampled top-C probability against independent oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.probability import (
    _sampled_topc_fraction,
    max_rank_with_probability,
    sampled_topc_probability,
    sampled_topc_probability_float,
)


def enumerate_topc_probability(n: int, r: int, s: int, c: int) -> Fraction:
    """Oracle: enumerate every possible negative sample set.

    Items 1..n are ranked by score; the target sits at position r.  For each
    s-subset of the other n-1 items, the target makes the top-c list iff fewer
    than c sampled items outrank it.
    """
    others = [pos for pos in range(1, n + 1) if pos != r]
    hits = 0
    total = 0
    for subset in itertools.combinations(others, s):
        total += 1
        outranking = sum(1 for pos in subset if pos < r)
        if outranking < c:
            hits += 1
    return Fraction(hits, total)


SMALL_GRID = [
    (n, r, s, c)
    for n in (5, 8, 12)
    for r in (1, 2, n // 2, n)
    for s in (1, 2, n - 1)
    for c in (1, 2, 5)
]


@pytest.mark.parametrize("n,r,s,c", SMALL_GRID)
def test_matches_exhaustive_enumeration(n, r, s, c):
    assert _sampled_topc_fraction(n, r, s, c) == enumerate_topc_probability(n, r, s, c)


def test_hand_enumerated_sixth():
    # Target ranked 3rd of 5; of the C(4,2)=6 possible negative pairs only the
    # one with both lower-ranked items keeps the target on top.
    assert _sampled_topc_fraction(5, 3, 2, 1) == Fraction(1, 6)


@pytest.mark.parametrize("n,s,c", [(5, 2, 1), (100, 10, 3), (10000, 100, 20)])
def test_rank_one_is_certain(n, s, c):
    assert sampled_topc_probability(n, 1, s, c) == 1.0


@pytest.mark.parametrize(
    "n,r,c,expected",
    [(10, 3, 5, 1.0), (10, 7, 5, 0.0), (50, 20, 20, 1.0), (50, 21, 20, 0.0)],
)
def test_full_sampling_recovers_full_ranking(n, r, c, expected):
    assert sampled_topc_probability(n, r, n - 1, c) == expected


def test_paper_scale_claims():
    assert 0.90 < sampled_topc_probability(10000, 1490, 100, 20) < 1.0
    assert 0.90 < sampled_topc_probability(100000, 14878, 100, 20) < 1.0


def test_exact_and_float_paths_agree():
    cases = [
        (100, 17, 10, 3),
        (1000, 250, 50, 10),
        (10000, 1490, 100, 20),
        (100000, 14878, 100, 20),
    ]
    for n, r, s, c in cases:
        exact = sampled_topc_probability(n, r, s, c)
        fast = sampled_topc_probability_float(n, r, s, c)
        assert math.isclose(exact, fast, rel_tol=1e-9)


def test_log_space_path_never_exceeds_one():
    # unclamped, the log-gamma rounding carries 40 of these ranks past 1
    values = [sampled_topc_probability_float(8792, r, 100, 20) for r in range(1, 60)]
    assert max(values) <= 1.0
    assert values == pytest.approx([1.0] * 59, abs=1e-9)


def test_matches_scipy_hypergeometric_cdf():
    from scipy.stats import hypergeom

    for n, r, s, c in [(100, 30, 12, 4), (1000, 400, 77, 9), (10000, 1490, 100, 20)]:
        # Number of sampled negatives that outrank the target is hypergeometric
        # with r-1 "good" draws available out of n-1.
        expected = hypergeom.cdf(c - 1, n - 1, r - 1, s)
        assert math.isclose(sampled_topc_probability(n, r, s, c), expected, rel_tol=1e-9)


def test_monte_carlo_agreement():
    rng = np.random.default_rng(7)
    trials = 100_000
    for n, r, s, c in [(100, 30, 12, 4), (1000, 333, 50, 10), (1000, 900, 100, 20)]:
        outranking = rng.hypergeometric(r - 1, n - r, s, size=trials)
        estimate = float(np.mean(outranking < c))
        p = sampled_topc_probability(n, r, s, c)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(estimate - p) <= 4 * sigma


@given(
    n=st.integers(min_value=4, max_value=60),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity_properties(n, data):
    s = data.draw(st.integers(min_value=1, max_value=n - 1))
    c = data.draw(st.integers(min_value=1, max_value=n))
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    # Non-increasing in rank, non-decreasing in list length.
    assert _sampled_topc_fraction(n, r, s, c) >= _sampled_topc_fraction(n, r + 1, s, c)
    assert _sampled_topc_fraction(n, r, s, c) <= _sampled_topc_fraction(n, r, s, c + 1)


class TestMaxRank:
    def test_reproduces_forward_examples(self):
        assert max_rank_with_probability(10000, 100, 20, 0.9) == 1490
        assert max_rank_with_probability(100000, 100, 20, 0.9) == 14878

    def test_probability_one_returns_list_length(self):
        assert max_rank_with_probability(1000, 50, 20, 1.0) == 20

    def test_small_sample_counts_are_always_certain(self):
        # With fewer samples than list slots the target always fits.
        assert max_rank_with_probability(500, 10, 20, 0.999) == 500

    def test_tiny_probability_reaches_deep_ranks(self):
        n = 200
        deep = max_rank_with_probability(n, 50, 5, 1e-12)
        assert deep < n
        assert sampled_topc_probability(n, deep, 50, 5) >= 1e-12
        assert sampled_topc_probability(n, deep + 1, 50, 5) < 1e-12

    def test_boundary_consistency_with_forward_formula(self):
        n, s, c = 10000, 100, 20
        p_at_1490 = _sampled_topc_fraction(n, 1490, s, c)
        just_above = float(p_at_1490) + 1e-9
        found = max_rank_with_probability(n, s, c, just_above)
        assert found in (1489, 1490)
        assert _sampled_topc_fraction(n, found, s, c) >= Fraction(just_above)

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            max_rank_with_probability(100, 10, 5, 0.0)
        with pytest.raises(ValueError):
            max_rank_with_probability(100, 10, 5, 1.5)


def test_rejects_domain_violations():
    with pytest.raises(ValueError):
        sampled_topc_probability(10, 0, 3, 2)
    with pytest.raises(ValueError):
        sampled_topc_probability(10, 11, 3, 2)
    with pytest.raises(ValueError):
        sampled_topc_probability(10, 2, 0, 2)
    with pytest.raises(ValueError):
        sampled_topc_probability(10, 2, 10, 2)
    with pytest.raises(ValueError):
        sampled_topc_probability(10, 2, 3, 0)
