from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    DEFAULT_LIMITS,
    approx_diameter_pair,
    approx_median_pool,
    brute_diameter,
    context_from_strings,
    exact_diameter_pair,
    hamming,
    is_approx_median,
    median_cost,
    min_diff_partition,
)

from conftest import random_rows, reference_context


def test_exact_diameter_is_tie_count():
    # every column a 2-2 tie
    ctx = context_from_strings(["aba", "bab", "aab", "bba"], alphabet="ab")
    res = exact_diameter_pair(ctx)
    assert res.branch == "exact"
    majority_sets = reference_context(ctx.dataset.strings, ctx.alphabet)["majority_sets"]
    assert res.diameter == sum(1 for g in majority_sets if len(g) >= 2)
    assert hamming(*res.pair) == res.diameter
    for s in res.pair:
        assert median_cost(ctx, s) == ctx.opt


def test_exact_diameter_four_median_instance():
    ctx = context_from_strings(["aa", "ab", "ba", "bb"], alphabet="ab")
    res = exact_diameter_pair(ctx)
    assert res.diameter == 2


def test_exact_diameter_unique_median():
    ctx = context_from_strings(["ab", "ab", "ab"], alphabet="ab")
    res = exact_diameter_pair(ctx)
    assert res.diameter == 0
    assert res.pair[0] == res.pair[1] == ctx.w


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=0, max_size=12))
def test_min_diff_partition_matches_exhaustive(weights):
    items = list(range(100, 100 + len(weights)))
    parts, sums = min_diff_partition(items, weights)
    total = sum(weights)
    best = min(
        abs(total - 2 * sum(w for w, pick in zip(weights, mask) if pick))
        for mask in product([0, 1], repeat=len(weights))
    ) if weights else 0
    assert abs(sums[0] - sums[1]) == best
    # the returned parts really partition the items with the claimed sums
    assert sorted(parts[0] + parts[1]) == sorted(items)
    by_item = dict(zip(items, weights))
    assert sum(by_item[i] for i in parts[0]) == sums[0]
    assert sum(by_item[i] for i in parts[1]) == sums[1]


def test_min_diff_partition_trivia():
    assert min_diff_partition([7], [5]) == (([], [7]), (0, 5))
    assert min_diff_partition([], []) == (([], []), (0, 0))


def test_approx_equals_brute_on_enumerable_pools(rng):
    hit_branches = set()
    for _ in range(120):
        sigma = "ab" if rng.integers(0, 2) else "abc"
        rows = random_rows(rng, sigma=sigma)
        ctx = context_from_strings(rows, alphabet=sigma)
        eps = Fraction(int(rng.integers(0, 5)), 4)
        b = Budget.make(eps, ctx.opt)
        pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
        res = approx_diameter_pair(ctx, b)
        assert res.diameter == brute_diameter(pool)
        assert hamming(*res.pair) == res.diameter
        for s in res.pair:
            assert is_approx_median(ctx, b, s)
        hit_branches.add(res.branch)
    # random instances must exercise more than one code path
    assert hit_branches <= {"greedy_SR", "partitioned_T1T2"}
    assert "greedy_SR" in hit_branches and "partitioned_T1T2" in hit_branches


def test_partition_branch_instance():
    # Ternary columns whose weights are (2,2,3,3) with eps*opt = 5: neither
    # greedy prefix reaches weight 5, but splitting {2,2,3,3} as 5/5 covers
    # all four columns, so the re-partitioned branch wins with diameter 4.
    cols = [(6, 4, 0), (6, 4, 0), (6, 3, 1), (6, 3, 1)]
    rows = []
    for i in range(10):
        row = []
        for ca, cb, cc in cols:
            row.append("a" if i < ca else ("b" if i < ca + cb else "c"))
        rows.append("".join(row))
    ctx = context_from_strings(rows, alphabet="abc")
    assert ctx.opt == sum(10 - c[0] for c in cols)
    b = Budget.make(Fraction(5, ctx.opt), ctx.opt)
    assert b.floor == 5
    res = approx_diameter_pair(ctx, b)
    pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
    assert res.branch == "partitioned_T1T2"
    assert res.diameter == brute_diameter(pool) == 4


def test_zero_budget_reduces_to_exact():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(0, ctx.opt)
    res = approx_diameter_pair(ctx, b)
    exact = exact_diameter_pair(ctx)
    assert res.diameter == exact.diameter


def test_diameter_costs_recorded():
    ctx = context_from_strings(["aa", "ab", "ba"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    res = approx_diameter_pair(ctx, b)
    assert res.costs == tuple(median_cost(ctx, s) for s in res.pair)
