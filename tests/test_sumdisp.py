from collections import Counter
from fractions import Fraction

import pytest

from diverse_medians import (
    Budget,
    DEFAULT_LIMITS,
    Dataset,
    EnumerationLimits,
    approx_median_pool,
    brute_sumdp_k,
    build_oplist,
    context_from_strings,
    cost_greedy_assign,
    is_approx_median,
    make_distinct,
    median_cost,
    sum_dispersion_approx_k,
    sum_dispersion_dispatch,
    sum_dispersion_exact_k,
    sum_dispersion_small_dstar,
)
from diverse_medians.cli import STRATEGY_TABLE

from conftest import random_rows


# --- exact construction -----------------------------------------------------


def test_exact_layout_counts():
    # one 3-way tie column, one decided column
    ctx = context_from_strings(["ax", "bx", "cx"], alphabet="abcx")
    cs = sum_dispersion_exact_k(ctx, 5)
    col0 = Counter(s[0] for s in cs.members)
    # 5 = 1*3 + 2: two symbols get 2 copies, one gets 1, in alphabet order
    assert col0 == {"a": 2, "b": 2, "c": 1}
    assert all(s[1] == "x" for s in cs.members)
    assert all(median_cost(ctx, s) == ctx.opt for s in cs.members)


def test_exact_matches_brute_on_tie_instances(rng):
    import itertools

    from diverse_medians import exact_median_pool

    for _ in range(30):
        rows = random_rows(rng, sigma="ab", d=int(rng.integers(1, 5)))
        ctx = context_from_strings(rows, alphabet="ab")
        pool = exact_median_pool(ctx, DEFAULT_LIMITS)
        if pool.n > 4:
            continue
        for k in (2, 3, 4):
            cs = sum_dispersion_exact_k(ctx, k)
            assert cs.sum_dispersion() == brute_sumdp_k(pool, k, DEFAULT_LIMITS)


def test_exact_k1_is_w():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    cs = sum_dispersion_exact_k(ctx, 1)
    assert cs.members == (ctx.w,)
    assert cs.sum_dispersion() == 0


# --- op list -----------------------------------------------------------------


def test_oplist_one_op_per_index_slot():
    ctx = context_from_strings(["aab", "abb", "bbb", "bab", "aab"], alphabet="ab")
    ops = build_oplist(ctx, 4)
    seen = {(op.index, op.target_count) for op in ops}
    assert len(seen) == len(ops)
    assert all(1 <= op.target_count <= 4 for op in ops)
    assert all(op.gain > 0 for op in ops)


def test_oplist_global_order_contracts(rng):
    # zero-cost ops lead; per-index finite densities never increase along the
    # list (the slot walk emits them strictly decreasing, the sort keeps it)
    for _ in range(20):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        ops = build_oplist(ctx, int(rng.integers(2, 6)))
        first_paid = next((p for p, op in enumerate(ops) if op.cost > 0), len(ops))
        assert all(op.cost == 0 for op in ops[:first_paid])
        assert all(op.cost > 0 for op in ops[first_paid:])
        per_index: dict[int, list] = {}
        for op in ops:
            if op.cost > 0:
                per_index.setdefault(op.index, []).append(op.density)
        for idx, densities in per_index.items():
            assert densities == sorted(densities, reverse=True), (
                f"index {idx}: finite densities out of order {densities}"
            )
        # at most one op per (index, slot)
        seen = {(op.index, op.majority_count) for op in ops}
        assert len(seen) == len(ops)


def test_oplist_zero_cost_ops_lead():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")  # all ties
    ops = build_oplist(ctx, 3)
    assert ops and all(op.cost == 0 for op in ops)


# --- cost-greedy assignment ---------------------------------------------------


def test_cost_greedy_respects_budget(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        oplist = build_oplist(ctx, 3)
        cands, feasible = cost_greedy_assign(ctx, b, 3, oplist)
        for s in cands.members:
            assert is_approx_median(ctx, b, s)


def test_cost_greedy_empty_prefix_is_k_copies_of_w():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    cands, feasible = cost_greedy_assign(ctx, Budget.make(0, ctx.opt), 3, ())
    assert feasible
    assert cands.members == (ctx.w,) * 3


# --- approximate engine --------------------------------------------------------


def linear_scan_reference(ctx, budget, k):
    """The longest feasible op-list prefix found by walking prefixes from
    longest to shortest: no reliance on feasibility being monotone in the
    prefix length, which the binary search assumes."""
    oplist = build_oplist(ctx, k)
    for j in range(len(oplist), -1, -1):
        cands, ok = cost_greedy_assign(ctx, budget, k, oplist[:j])
        if ok:
            return cands, cands.sum_dispersion()


def test_binary_search_agrees_with_linear_scan(rng):
    for _ in range(40):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        eps = Fraction(int(rng.integers(0, 4)), 2)
        b = Budget.make(eps, ctx.opt)
        k = int(rng.integers(2, 5))
        fast = sum_dispersion_approx_k(ctx, b, k)
        slow = linear_scan_reference(ctx, b, k)
        assert fast[1] == slow[1]


def test_approx_members_stay_within_budget(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 3), ctx.opt)
        cands, _ = sum_dispersion_approx_k(ctx, b, 4)
        assert all(is_approx_median(ctx, b, s) for s in cands.members)


# --- small-diameter engine ------------------------------------------------------


def test_small_dstar_half_guarantee(rng):
    for _ in range(30):
        rows = random_rows(rng, sigma="ab", d=int(rng.integers(2, 6)))
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
        if pool.n > 40:
            continue
        k = 3
        cs = sum_dispersion_small_dstar(ctx, k, pool)
        best = brute_sumdp_k(pool, k, DEFAULT_LIMITS)
        assert 2 * cs.sum_dispersion() >= best


def test_small_dstar_duplicates_fill_small_pools():
    ctx = context_from_strings(["aa", "aa"], alphabet="ab")
    pool = Dataset.from_strings([ctx.w], alphabet=ctx.alphabet)
    cs = sum_dispersion_small_dstar(ctx, 3, pool)
    assert cs.members == (ctx.w,) * 3


# --- dispatcher -----------------------------------------------------------------


def test_dispatch_enumeration_on_small_diameter():
    ctx = context_from_strings(["ab", "ab", "ba"], alphabet="ab")
    b = Budget.make(0, ctx.opt)
    cands, tag = sum_dispersion_dispatch(ctx, b, 2, Fraction(1, 4))
    assert tag == "enumeration"
    assert ("sum-dispersion", "any", tag) in STRATEGY_TABLE


def test_dispatch_density_on_large_diameter():
    # 40 binary tie columns: D* = 40 >= 4/delta for delta = 1/4
    rows = ["a" * 40, "b" * 40]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(0, ctx.opt)
    cands, tag = sum_dispersion_dispatch(ctx, b, 3, Fraction(1, 4))
    assert tag == "density"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_dispatch_fallback_when_pool_explodes():
    # D* = 8 < 4/delta = 16 wants enumeration, but the pool has 2^8 members
    rows = ["a" * 8, "b" * 8]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(0, ctx.opt)
    tiny = EnumerationLimits(max_candidates=3, max_tuples=10**7, max_states=10**7)
    cands, tag = sum_dispersion_dispatch(ctx, b, 2, Fraction(1, 4), limits=tiny)
    assert tag == "density_fallback"


def test_dispatch_rejects_bad_delta():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    from diverse_medians import ValidationError

    with pytest.raises(ValidationError):
        sum_dispersion_dispatch(ctx, Budget.make(0, ctx.opt), 2, Fraction(0))


# --- distinctness post-pass -------------------------------------------------------


def test_make_distinct_stamps_tie_indices():
    rows = ["a" * 6, "b" * 6]  # every column a tie
    ctx = context_from_strings(rows, alphabet="ab")
    from diverse_medians import CandidateSet

    cands = CandidateSet.from_members(ctx, Dataset.from_strings([ctx.w] * 4, ctx.alphabet).codes)
    out, changed = make_distinct(ctx, cands)
    assert changed
    assert len(set(out.members)) == 4
    assert all(median_cost(ctx, s) == ctx.opt for s in out.members)
    # stamps live on at most ceil(log2 4) = 2 indices
    touched = {i for s in out.members for i in range(6) if s[i] != ctx.w[i]}
    assert len(touched) <= 2


def test_make_distinct_reports_when_ties_run_out():
    ctx = context_from_strings(["ab", "ab"], alphabet="ab")  # no ties at all
    from diverse_medians import CandidateSet

    cands = CandidateSet.from_members(ctx, Dataset.from_strings([ctx.w] * 3, ctx.alphabet).codes)
    out, changed = make_distinct(ctx, cands)
    assert not changed
    assert out.members == cands.members
