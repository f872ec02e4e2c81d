import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    CandidateSet,
    DEFAULT_LIMITS,
    Dataset,
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
    # a pool, a candidate set and a diameter pair are each a string matrix
    pool = approx_median_pool(ctx, Budget.make(0, ctx.opt))
    cs = CandidateSet.from_members(ctx, res.codes)
    assert all(isinstance(x, Dataset) for x in (pool, cs, res))
    assert res.pair == res.strings == cs.members == cs.strings


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


def full_row_partition(T, weights):
    """The partition DP keeping one bitset row per item for its walk back:
    the reference for the kept-row walk of min_diff_partition."""
    total = sum(weights)
    keep = (1 << (total // 2 + 1)) - 1
    rows = [1]
    for x in weights:
        rows.append((rows[-1] | (rows[-1] << x)) & keep)
    best = rows[-1].bit_length() - 1
    part1, cur = [], best
    for j in range(len(T), 0, -1):
        if not rows[j - 1] >> cur & 1:
            part1.append(T[j - 1])
            cur -= weights[j - 1]
    part1.reverse()
    chosen = set(part1)
    return (part1, [i for i in T if i not in chosen]), (best, total - best)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 1000), max_size=80))
@example([3, 1, 1, 2, 1])  # an even split exists
@example([50, 1, 2, 3])  # none does: one weight outweighs the rest
def test_min_diff_partition_matches_the_full_row_reference(weights):
    items = list(range(100, 100 + len(weights)))
    assert min_diff_partition(items, weights) == full_row_partition(items, weights)


def test_min_diff_partition_keeps_about_two_sqrt_rows():
    # 1,000 equal weights: every row but the first few spans 100,001 bits, and
    # one row per item holds about 10 MiB
    n, w = 1000, 200
    tracemalloc.start()
    try:
        (part1, part2), sums = min_diff_partition(list(range(n)), [w] * n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums == (n * w // 2, n * w // 2) and len(part1) == len(part2)
    row = (n * w // 2 + 1) // 30 * 4 + 64  # 30 bits per 4-byte digit, plus the header
    assert peak <= 3 * math.isqrt(n) * row, peak


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
