import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    CandidateSet,
    DEFAULT_LIMITS,
    Dataset,
    EnumerationLimits,
    approx_median_pool,
    brute_sumdp_k,
    build_oplist,
    context_from_strings,
    cost_greedy_assign,
    is_approx_median,
    median_cost,
    sum_dispersion_approx_k,
    sum_dispersion_exact_k,
    sum_dispersion_small_dstar,
)
from diverse_medians import cli, core, sumdisp
from diverse_medians.core import BLOCK_BYTES

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

    for _ in range(30):
        rows = random_rows(rng, sigma="ab", d=int(rng.integers(1, 5)))
        ctx = context_from_strings(rows, alphabet="ab")
        pool = approx_median_pool(ctx, Budget.make(0, ctx.opt), DEFAULT_LIMITS)
        if pool.n > 4:
            continue
        for k in (2, 3, 4):
            cs = sum_dispersion_exact_k(ctx, k)
            assert cs.sum_dispersion() == brute_sumdp_k(pool, k, DEFAULT_LIMITS)


def closed_form_codes(ctx, k):
    """The balanced layout of all k members at once, as one (k, d) position
    matrix: the reference for the block-by-block fill."""
    base, q = np.divmod(k, ctx.majority_sizes)
    j = np.arange(k)[:, None]
    wide = q * (base + 1)
    pos = np.where(j < wide, j // (base + 1), q + (j - wide) // np.maximum(base, 1))
    return ctx.rank[np.arange(ctx.d), pos]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.lists(st.integers(1, 6), min_size=1, max_size=8),
       st.integers(1, 2000))
def test_exact_layout_matches_the_closed_form(k, sizes, block_bytes):
    # column i is a sizes[i]-way tie over 60 rows; a small BLOCK_BYTES cuts
    # the members into many blocks, down to one member per block
    ctx = context_from_strings(["".join("abcdef"[r % g] for g in sizes) for r in range(60)],
                               alphabet="abcdef")
    with mock.patch.object(core, "BLOCK_BYTES", block_bytes):
        cs = sum_dispersion_exact_k(ctx, k)
    assert np.array_equal(cs.codes, closed_form_codes(ctx, k))
    assert ctx.costs_of(cs.codes).tolist() == [ctx.opt] * k


def test_exact_layout_holds_the_codes_and_a_block_of_temporaries():
    k, d = 20_000, 1_000
    ctx = context_from_strings(["a" * d, "b" * d], alphabet="ab")
    tracemalloc.start()
    try:
        cs = sum_dispersion_exact_k(ctx, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.codes.nbytes == k * d
    assert peak <= k * d + 2 * BLOCK_BYTES, peak


def test_exact_k1_is_w():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    cs = sum_dispersion_exact_k(ctx, 1)
    assert cs.members == (ctx.w,)
    assert cs.sum_dispersion() == 0


# --- reference density engine ---------------------------------------------------
#
# The loop-built op list and assignment the array passes replaced: one
# Fraction key per candidate op, and per probe a dict of (cost, index, symbol)
# counts sorted by symbol string. They read only the context's tables.


def reference_oplist(ctx, k):
    """Ops as (index, symbol, target_count, majority_count, cost) tuples."""
    sigma = len(ctx.alphabet)
    ops = []
    for i, (wi, costs) in enumerate(zip(ctx.rank[:, 0].tolist(), ctx.cost.tolist())):
        others = [a for a in range(sigma) if a != wi]
        counts = [0] * sigma
        for ell in range(k, 0, -1):
            best = None
            for a in others:
                gain = ell - (counts[a] + 1)
                if gain < 1:
                    continue
                c = costs[a]
                # zero-cost tier first; inside a tier larger density wins,
                # then smaller cost, then alphabet order
                if c == 0:
                    key = (0, -gain, 0, a)
                else:
                    key = (1, -Fraction(gain, c), c, a)
                if best is None or key < best[0]:
                    best = (key, a, c)
            if best is None:
                break  # gains only shrink from here
            _, a, c = best
            counts[a] += 1
            ops.append((i, a, counts[a], ell, c))

    def sort_key(op):
        i, a, target, ell, c = op
        dens = (0, Fraction(0)) if c == 0 else (1, -Fraction(ell - target, c))
        return (*dens, c, i, a, target)

    return sorted(ops, key=sort_key)


def reference_assign(ctx, budget, k, prefix):
    """(members as lists of codes, feasible) for an op-tuple prefix."""
    h = {}
    for i, a, _, _, c in prefix:
        h[(c, i, a)] = h.get((c, i, a), 0) + 1
    alpha = ctx.alphabet
    w = ctx.rank[:, 0].tolist()
    members = [w[:] for _ in range(k)]
    weights = [0] * k
    feasible = True
    for key in sorted(h, key=lambda cia: (cia[0], cia[1], alpha[cia[2]])):
        c, i, a = key
        ranked = sorted(
            (y for y in range(k) if members[y][i] == w[i] and budget.within(weights[y] + c)),
            key=lambda y: (weights[y], y),
        )
        take = ranked[: h[key]]
        if len(take) < h[key]:
            feasible = False
        for y in take:
            members[y][i] = a
            weights[y] += c
    return members, feasible


def reference_engine(ctx, budget, k):
    """Members of the longest feasible prefix, found by binary search."""
    ops = reference_oplist(ctx, k)
    lo, hi = 0, len(ops)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reference_assign(ctx, budget, k, ops[:mid])[1]:
            lo = mid
        else:
            hi = mid - 1
    return reference_assign(ctx, budget, k, ops[:lo])[0]


# |Σ| in {2, 4, 20}, and alphabets whose symbol-string order differs from
# their code order (one of them multi-character and non-ASCII)
SUM_ALPHABETS = (
    tuple("ab"),
    tuple("tgca"),
    tuple("abcdefghijklmnopqrst"),
    ("γ", "ab", "α", "a", "ζζ"),
)


@st.composite
def density_cases(draw):
    """(ctx, budget, k): 2 to 8 rows of length <= 8 over one of
    SUM_ALPHABETS; some columns alternate two symbols (2-way ties, so
    zero-cost ops, when the row count is even), k reaches past |Σ| and eps
    reaches 0."""
    alphabet = draw(st.sampled_from(SUM_ALPHABETS))
    used = draw(st.lists(st.sampled_from(alphabet), min_size=2, max_size=5, unique=True))
    n = draw(st.integers(2, 8))
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            x, y = draw(st.permutations(used))[:2]
            cols.append([x, y] * (n // 2) + [x] * (n % 2))
        else:
            cols.append(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    ctx = context_from_strings([list(row) for row in zip(*cols)], alphabet=alphabet)
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                                Fraction(3)]))
    return ctx, Budget.make(eps, ctx.opt), draw(st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(density_cases())
def test_density_engine_matches_reference(case):
    ctx, budget, k = case
    ops = build_oplist(ctx, k)
    ref = reference_oplist(ctx, k)
    assert ops.dtype == np.int64 and ops.shape == (len(ref), 6)
    assert ops[:, :5].tolist() == [list(op) for op in ref]
    for j in range(len(ref) + 1):
        cands = cost_greedy_assign(ctx, budget, k, ops[:j])
        members, ref_feasible = reference_assign(ctx, budget, k, ref[:j])
        assert (cands is not None) == ref_feasible
        if ref_feasible:
            assert cands.codes.tolist() == members
    cands = sum_dispersion_approx_k(ctx, budget, k)
    ref_cands = CandidateSet.from_members(ctx, reference_engine(ctx, budget, k))
    assert cands.codes.tolist() == ref_cands.codes.tolist()
    assert all(budget.within(c - ctx.opt) for c in ctx.costs_of(cands.codes).tolist())
    assert cands.sum_dispersion() == ref_cands.sum_dispersion()


def searched_engine(ctx, budget, k, oplist):
    """The density engine without its whole-list probe: a binary search over
    [0, m] of the op list, keeping the last feasible probe, then the empty
    prefix if no probe was feasible. Returns (candidates, prefix lengths
    probed)."""
    lo, hi = 0, len(oplist)
    best, probes = None, []
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probes.append(mid)
        cands = cost_greedy_assign(ctx, budget, k, oplist[:mid])
        if cands is not None:
            lo, best = mid, cands
        else:
            hi = mid - 1
    if best is None:
        probes.append(0)
        best = cost_greedy_assign(ctx, budget, k, oplist[:0])
    return best, probes


@settings(max_examples=100, deadline=None)
@given(density_cases())
def test_whole_list_probe_keeps_the_searched_result(case):
    ctx, budget, k = case
    probes = []
    real = sumdisp.cost_greedy_assign

    def counting(ctx, budget, k, prefix):
        probes.append(len(prefix))
        return real(ctx, budget, k, prefix)

    with mock.patch.object(sumdisp, "cost_greedy_assign", counting):
        cands = sum_dispersion_approx_k(ctx, budget, k)
    oplist = build_oplist(ctx, k)
    want, searched = searched_engine(ctx, budget, k, oplist)
    assert cands.codes.tolist() == want.codes.tolist()
    assert cands.sum_dispersion() == want.sum_dispersion()
    if cost_greedy_assign(ctx, budget, k, oplist) is not None:
        assert probes == [len(oplist)]  # a feasible whole list settles it in one probe
    else:  # then the search over [0, m], hi starting at m
        assert probes == [len(oplist), *searched]


def test_density_builds_a_set_for_feasible_probes_only():
    # golden's csv6 rows at k = 3, eps = 1: probes 12 (rejected), 6, 9 (seated),
    # 11, 10 (rejected); an infeasible probe returns None and builds nothing
    rows = ["GT,AC,GT,AC,AC,AC", "AC,GT,AC,AC,GT,AC", "AC,GT,AC,GT,GT,AC",
            "AC,GT,TT,GT,GT,AC", "TT,GT,AC,AC,GT,GT"]
    ctx = context_from_strings([r.split(",") for r in rows], alphabet=("GT", "AC", "TT"))
    budget = Budget.make(1, ctx.opt)
    probes, built = [], []
    assign, build = sumdisp.cost_greedy_assign, CandidateSet.from_members

    def probing(ctx, budget, k, prefix):
        cands = assign(ctx, budget, k, prefix)
        probes.append((len(prefix), cands is not None))
        return cands

    def building(ctx, codes):
        built.append(len(probes))  # the 0-based number of the probe in progress
        return build(ctx, codes)

    with mock.patch.object(sumdisp, "cost_greedy_assign", probing), \
            mock.patch.object(CandidateSet, "from_members", building):
        cands = sum_dispersion_approx_k(ctx, budget, 3)
    assert probes == [(12, False), (6, True), (9, True), (11, False), (10, False)]
    assert built == [1, 2]  # built inside the second and third probes only
    assert cands.sum_dispersion() == 15


def test_oplist_keys_walk_cost_index_then_symbol_string():
    # "cba" codes c=0, b=1, a=2: at one index and cost, b's key precedes c's
    ctx = context_from_strings(["aaa", "bbb", "ccc", "aaa"], alphabet="cba")
    index, symbol, _, _, cost, key = build_oplist(ctx, 4).T
    walk = sorted(zip(key.tolist(), cost.tolist(), index.tolist(),
                      [ctx.alphabet[a] for a in symbol.tolist()]))
    triples = [t[1:] for t in walk]
    assert triples == sorted(triples)
    assert len({t[0] for t in walk}) == len(set(triples))  # one key per triple


# --- op list -----------------------------------------------------------------


def test_oplist_one_op_per_index_slot():
    ctx = context_from_strings(["aab", "abb", "bbb", "bab", "aab"], alphabet="ab")
    index, _, target, majority, _, _ = build_oplist(ctx, 4).T
    assert len(set(zip(index.tolist(), target.tolist()))) == len(index)
    assert ((1 <= target) & (target <= 4)).all()
    assert (majority - target > 0).all()


@settings(max_examples=200, deadline=None)
@given(density_cases())
def test_oplist_symbols_are_a_rank_prefix(case):
    # the slot scan reads only rank positions 1..min(|Σ|, k) - 1: at every
    # index the symbols set are rank[i, 1:m+1], each taken 1, 2, ... times
    ctx, _, k = case
    index, symbol, target, _, _, _ = build_oplist(ctx, k).T
    for i in range(ctx.d):
        at = index == i
        taken = {}
        for a, t in sorted(zip(symbol[at].tolist(), target[at].tolist())):
            taken.setdefault(a, []).append(t)
        m = len(taken)
        assert m <= min(len(ctx.alphabet), k) - 1
        assert set(taken) == set(ctx.rank[i, 1:m + 1].tolist())
        assert all(ts == list(range(1, len(ts) + 1)) for ts in taken.values())


def test_oplist_global_order_contracts(rng):
    # zero-cost ops lead; per-index finite densities never increase along the
    # list (the slot walk emits them strictly decreasing, the sort keeps it)
    for _ in range(20):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        index, _, target, majority, cost, _ = build_oplist(ctx, int(rng.integers(2, 6))).T
        first_paid = int(np.argmax(cost > 0)) if (cost > 0).any() else len(cost)
        assert (cost[:first_paid] == 0).all()
        assert (cost[first_paid:] > 0).all()
        per_index: dict[int, list] = {}
        for i, g, c in zip(index.tolist(), (majority - target).tolist(), cost.tolist()):
            if c > 0:
                per_index.setdefault(i, []).append(Fraction(g, c))
        for idx, densities in per_index.items():
            assert densities == sorted(densities, reverse=True), (
                f"index {idx}: finite densities out of order {densities}"
            )
        # at most one op per (index, slot)
        assert len(set(zip(index.tolist(), majority.tolist()))) == len(index)


def test_oplist_zero_cost_ops_lead():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")  # all ties
    ops = build_oplist(ctx, 3)
    assert len(ops) and (ops[:, 4] == 0).all()


# --- cost-greedy assignment ---------------------------------------------------


def test_cost_greedy_respects_budget(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        oplist = build_oplist(ctx, 3)
        for j in range(len(oplist) + 1):
            cands = cost_greedy_assign(ctx, b, 3, oplist[:j])
            for s in () if cands is None else cands.members:
                assert is_approx_median(ctx, b, s)


def test_cost_greedy_empty_prefix_is_k_copies_of_w():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    cands = cost_greedy_assign(ctx, Budget.make(0, ctx.opt), 3, build_oplist(ctx, 3)[:0])
    assert cands.members == (ctx.w,) * 3


# --- approximate engine --------------------------------------------------------


def linear_scan_reference(ctx, budget, k):
    """The longest feasible op-list prefix found by walking prefixes from
    longest to shortest: no reliance on feasibility being monotone in the
    prefix length, which the binary search assumes."""
    oplist = build_oplist(ctx, k)
    for j in range(len(oplist), -1, -1):
        cands = cost_greedy_assign(ctx, budget, k, oplist[:j])
        if cands is not None:
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
        assert fast.sum_dispersion() == slow[1]


def test_approx_members_stay_within_budget(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 3), ctx.opt)
        cands = sum_dispersion_approx_k(ctx, b, 4)
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
    cands, tag = cli.dispatch(ctx, b, "sum-dispersion", 2, Fraction(1, 4))
    assert tag == "enumeration"
    assert ("sum-dispersion", "any", tag) in cli.STRATEGY_TABLE


def test_dispatch_density_on_large_diameter():
    # 40 binary tie columns: D* = 40 >= 4/delta for delta = 1/4
    rows = ["a" * 40, "b" * 40]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(0, ctx.opt)
    cands, tag = cli.dispatch(ctx, b, "sum-dispersion", 3, Fraction(1, 4))
    assert tag == "density"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_dispatch_fallback_when_pool_explodes():
    # D* = 8 < 4/delta = 16 wants enumeration, but the pool has 2^8 members
    rows = ["a" * 8, "b" * 8]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(0, ctx.opt)
    tiny = EnumerationLimits(max_candidates=3, max_tuples=10**7, max_states=10**7)
    cands, tag = cli.dispatch(ctx, b, "sum-dispersion", 2, Fraction(1, 4), limits=tiny)
    assert tag == "density_fallback"


def test_dispatch_rejects_bad_delta():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    from diverse_medians import ValidationError

    with pytest.raises(ValidationError):
        cli.dispatch(ctx, Budget.make(0, ctx.opt), "sum-dispersion", 2, Fraction(0))
